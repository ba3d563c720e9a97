package metrics

import (
	"sync"
	"testing"
)

func TestBreakerTripsOnConsecutiveFailures(t *testing.T) {
	b := NewBreaker(BreakerConfig{FailureThreshold: 3, Cooldown: 5})
	if b.State() != BreakerClosed || !b.Allow() {
		t.Fatal("new breaker not closed")
	}
	b.RecordFailure()
	b.RecordFailure()
	if b.State() != BreakerClosed {
		t.Fatal("tripped below threshold")
	}
	b.RecordSuccess() // success resets the consecutive count
	b.RecordFailure()
	b.RecordFailure()
	if b.State() != BreakerClosed {
		t.Fatal("success did not reset consecutive failures")
	}
	b.RecordFailure()
	if b.State() != BreakerOpen {
		t.Fatal("threshold reached but breaker still closed")
	}
	if s := b.Snapshot(); s.Trips != 1 {
		t.Errorf("snapshot = %+v", s)
	}
}

func TestBreakerCooldownAndProbeRecovery(t *testing.T) {
	b := NewBreaker(BreakerConfig{FailureThreshold: 1, Cooldown: 4, ProbeSuccesses: 2})
	b.RecordFailure()
	if b.State() != BreakerOpen {
		t.Fatal("not open")
	}
	// Cooldown: the first cooldown-1 requests are degraded.
	for i := 0; i < 3; i++ {
		if b.Allow() {
			t.Fatalf("allowed during cooldown step %d", i)
		}
	}
	if !b.Allow() {
		t.Fatal("no probe after cooldown")
	}
	if b.State() != BreakerHalfOpen {
		t.Fatal("not half-open after cooldown")
	}
	b.RecordSuccess()
	if b.State() != BreakerHalfOpen {
		t.Fatal("closed after one probe success, want two")
	}
	if !b.Allow() {
		t.Fatal("half-open refused probe")
	}
	b.RecordSuccess()
	if b.State() != BreakerClosed {
		t.Fatal("two probe successes did not close the breaker")
	}
	if s := b.Snapshot(); s.Probes < 2 || s.HalfOpens != 1 || s.Recloses != 1 {
		t.Errorf("snapshot = %+v", s)
	}
}

func TestBreakerProbeFailureReopens(t *testing.T) {
	b := NewBreaker(BreakerConfig{FailureThreshold: 1, Cooldown: 2, ProbeSuccesses: 1})
	b.RecordFailure()
	b.Allow() // cooldown step
	if !b.Allow() {
		t.Fatal("no probe")
	}
	b.RecordFailure()
	if b.State() != BreakerOpen {
		t.Fatal("probe failure did not reopen")
	}
	if s := b.Snapshot(); s.Trips != 2 {
		t.Errorf("trips = %d, want 2", s.Trips)
	}
}

// The breaker counts its own edges where the compare-and-swap performs
// them: the same closed → open → half-open → open → half-open → closed walk
// the registry's poll-based counter was tested on reads 2/2/1, and a call
// that moves nothing counts nothing.
func TestBreakerCountsItsEdges(t *testing.T) {
	b := NewBreaker(BreakerConfig{FailureThreshold: 1, Cooldown: 1, ProbeSuccesses: 1})
	b.Allow()
	b.RecordSuccess() // closed → closed: no edge
	b.RecordFailure() // closed → open
	b.Allow()         // cooldown over: open → half-open
	b.RecordFailure() // half-open → open
	b.Allow()         // open → half-open
	b.RecordSuccess() // half-open → closed
	b.RecordSuccess() // closed → closed: no edge
	if s := b.Snapshot(); s.Trips != 2 || s.HalfOpens != 2 || s.Recloses != 1 {
		t.Errorf("edge counts = %d/%d/%d, want 2/2/1 (%+v)", s.Trips, s.HalfOpens, s.Recloses, s)
	}
}

// Exactly one of many racing callers performs each edge, so the counts are
// exact where polling State around each call could miss an edge or count it
// twice: n goroutines hammering a breaker through its whole cycle leave
// Trips == HalfOpens + (1 if it ends open) and Recloses ≤ HalfOpens.
func TestBreakerEdgeCountsUnderRaces(t *testing.T) {
	b := NewBreaker(BreakerConfig{FailureThreshold: 2, Cooldown: 3, ProbeSuccesses: 1})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				if !b.Allow() {
					continue
				}
				if (i+g)%5 < 2 { // two failures in a row trip it; most probes succeed
					b.RecordFailure()
				} else {
					b.RecordSuccess()
				}
			}
		}(g)
	}
	wg.Wait()
	s := b.Snapshot()
	if s.Trips == 0 || s.HalfOpens == 0 || s.Recloses == 0 {
		t.Fatalf("the walk never completed a cycle: %+v", s)
	}
	// Every edge out of open is a half-open; every edge into open a trip.
	open := 0
	if b.State() == BreakerOpen {
		open = 1
	}
	if s.Trips != s.HalfOpens+open {
		t.Errorf("trips %d != half-opens %d + %d currently open", s.Trips, s.HalfOpens, open)
	}
	// Every half-open interval ends in a re-close or a trip (or is current).
	if s.Recloses > s.HalfOpens {
		t.Errorf("recloses %d > half-opens %d", s.Recloses, s.HalfOpens)
	}
}
