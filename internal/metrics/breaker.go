package metrics

import (
	"fmt"
	"sync/atomic"
)

// Circuit breaker for one template's online learner. The PPC stance is the
// same as Kepler's for learned parametric optimization: a misbehaving
// learner must never make a query fail or return a worse answer than "just
// call the optimizer". The breaker watches one health signal — learner
// errors surfaced by the Environment — and, when they persist, trips the
// template into a degraded always-invoke-the-optimizer mode. (A collapse of
// the Section IV-E precision estimate is the learner's own business: its
// drift recovery drops the synopsis.) Degraded traffic still feeds
// optimizer-validated points back into the histograms, so the learner
// retrains while quarantined; after a cooldown the breaker lets probe
// traffic through and re-closes once probes succeed.

// BreakerState is the classic three-state circuit breaker state.
type BreakerState int

const (
	// BreakerClosed: the learner serves predictions normally.
	BreakerClosed BreakerState = iota
	// BreakerOpen: the learner is quarantined; every query goes straight
	// to the optimizer.
	BreakerOpen
	// BreakerHalfOpen: probe traffic flows through the learner; success
	// re-closes the breaker, failure re-opens it.
	BreakerHalfOpen
)

// String names the state.
func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half-open"
	}
	return fmt.Sprintf("BreakerState(%d)", int(s))
}

// BreakerConfig configures a Breaker; zero fields take the defaults noted.
type BreakerConfig struct {
	// FailureThreshold is the number of consecutive learner errors that
	// trips the breaker (default 3).
	FailureThreshold int
	// Cooldown is how many degraded requests the breaker absorbs while
	// open before letting a probe through (default 25).
	Cooldown int
	// ProbeSuccesses is how many consecutive successful probes re-close a
	// half-open breaker (default 2).
	ProbeSuccesses int
}

func (c BreakerConfig) withDefaults() BreakerConfig {
	if c.FailureThreshold == 0 {
		c.FailureThreshold = 3
	}
	if c.Cooldown == 0 {
		c.Cooldown = 25
	}
	if c.ProbeSuccesses == 0 {
		c.ProbeSuccesses = 2
	}
	return c
}

// Breaker is the per-template circuit breaker. It is lock-free: state lives
// in an atomic and transitions happen by compare-and-swap, so Allow sits on
// the lock-free serving path without reintroducing the per-template mutex.
// Under concurrent races the counters are conservative — a request that
// loses a transition race is served degraded rather than stalled — and
// single-threaded sequences behave exactly like the pre-atomic breaker.
type Breaker struct {
	cfg BreakerConfig
	// state holds a BreakerState; transitions are CAS-only so exactly one
	// racer performs each one.
	state        atomic.Int32
	consecFails  atomic.Int64
	cooldownLeft atomic.Int64
	probeWins    atomic.Int64

	// Edge counters, each incremented by the one racer whose CAS performed
	// the transition — exact under races, where a poll of State around a
	// call can miss an edge or see one it did not make.
	trips     atomic.Int64 // → open
	halfOpens atomic.Int64 // open → half-open
	recloses  atomic.Int64 // half-open → closed
	probes    atomic.Int64
	failures  atomic.Int64
	successes atomic.Int64
}

// NewBreaker creates a closed breaker.
func NewBreaker(cfg BreakerConfig) *Breaker {
	return &Breaker{cfg: cfg.withDefaults()}
}

// State returns the current state.
func (b *Breaker) State() BreakerState { return BreakerState(b.state.Load()) }

// Allow reports whether the learner may serve this request. While open it
// counts down the cooldown and returns false (degraded mode); once the
// cooldown elapses the breaker turns half-open and admits probe traffic.
func (b *Breaker) Allow() bool {
	switch BreakerState(b.state.Load()) {
	case BreakerClosed:
		return true
	case BreakerOpen:
		if b.cooldownLeft.Add(-1) > 0 {
			return false
		}
		if b.state.CompareAndSwap(int32(BreakerOpen), int32(BreakerHalfOpen)) {
			b.halfOpens.Add(1)
			b.probeWins.Store(0)
			b.probes.Add(1)
			return true
		}
		// Lost the transition race; serve this request degraded.
		return false
	default: // BreakerHalfOpen
		b.probes.Add(1)
		return true
	}
}

// RecordSuccess reports a healthy learner interaction. Enough consecutive
// successes in half-open state re-close the breaker.
func (b *Breaker) RecordSuccess() {
	b.successes.Add(1)
	b.consecFails.Store(0)
	if BreakerState(b.state.Load()) == BreakerHalfOpen {
		if b.probeWins.Add(1) >= int64(b.cfg.ProbeSuccesses) {
			if b.state.CompareAndSwap(int32(BreakerHalfOpen), int32(BreakerClosed)) {
				b.recloses.Add(1)
				b.probeWins.Store(0)
			}
		}
	}
}

// RecordFailure reports a learner error. Reaching the consecutive-failure
// threshold (or any failure while half-open) trips the breaker.
func (b *Breaker) RecordFailure() {
	b.failures.Add(1)
	n := b.consecFails.Add(1)
	switch BreakerState(b.state.Load()) {
	case BreakerHalfOpen:
		b.trip(BreakerHalfOpen)
	case BreakerClosed:
		if n >= int64(b.cfg.FailureThreshold) {
			b.trip(BreakerClosed)
		}
	}
}

// trip moves the breaker from the observed state to open. The cooldown is
// armed before the state flips so a racing Allow can never observe an open
// breaker with a stale countdown.
func (b *Breaker) trip(from BreakerState) {
	b.cooldownLeft.Store(int64(b.cfg.Cooldown))
	if b.state.CompareAndSwap(int32(from), int32(BreakerOpen)) {
		b.probeWins.Store(0)
		b.consecFails.Store(0)
		b.trips.Add(1)
	}
}

// BreakerSnapshot is a copyable view of the breaker's state and counters,
// and the breaker object of a metrics snapshot: the breaker is the one owner
// of every number here. Failures counts learner errors reported to it (one
// per run that then completes degraded-by-error); Trips, HalfOpens and
// Recloses count the three edges. A request the open breaker turns away is
// not counted here: it completes as a degraded run, which the metrics
// registry counts.
type BreakerSnapshot struct {
	State     string `json:"state"`
	Trips     int    `json:"trips"`
	HalfOpens int    `json:"half_opens"`
	Recloses  int    `json:"recloses"`
	Probes    int    `json:"probes"`
	Failures  int    `json:"failures"`
	Successes int    `json:"successes"`
}

// Snapshot returns the current counters.
func (b *Breaker) Snapshot() BreakerSnapshot {
	return BreakerSnapshot{
		State:     b.State().String(),
		Trips:     int(b.trips.Load()),
		HalfOpens: int(b.halfOpens.Load()),
		Recloses:  int(b.recloses.Load()),
		Probes:    int(b.probes.Load()),
		Failures:  int(b.failures.Load()),
		Successes: int(b.successes.Load()),
	}
}
