package core

import (
	"math/rand"
	"testing"

	"repro/internal/wal"
)

// TestReplicaOnlineBitIdenticalPredictions is the replication equivalence
// contract at the learner level: an Online rebuilt by NewReplicaOnline from
// EncodeState bytes answers PredictModel bit-identically to the leader's
// Online at encode time — same plan, same confidence, same cost estimate.
func TestReplicaOnlineBitIdenticalPredictions(t *testing.T) {
	env := &quadrantEnv{wrongFactor: 3}
	leader := MustNewOnline(OnlineConfig{
		Core: Config{Dims: 2, Radius: 0.08, Gamma: 0.8, Seed: 5},
		Seed: 17,
	}, env)
	rng := rand.New(rand.NewSource(211))
	for i := 0; i < 800; i++ {
		mustStep(t, leader, []float64{rng.Float64(), rng.Float64()})
	}

	replica, err := NewReplicaOnline(leader.EncodeState(nil))
	if err != nil {
		t.Fatal(err)
	}

	if replica.Dims() != 2 {
		t.Fatalf("Dims = %d, want 2", replica.Dims())
	}
	if replica.Validated() != leader.Validated() || replica.SelfLabeled() != leader.SelfLabeled() ||
		replica.Epoch() != leader.Epoch() || replica.AppliedSeq() != leader.AppliedSeq() {
		t.Errorf("counters diverge: %d/%d/%d/%d vs %d/%d/%d/%d",
			replica.Validated(), replica.SelfLabeled(), replica.Epoch(), replica.AppliedSeq(),
			leader.Validated(), leader.SelfLabeled(), leader.Epoch(), leader.AppliedSeq())
	}

	hits := 0
	for i := 0; i < 1000; i++ {
		x := []float64{rng.Float64(), rng.Float64()}
		lp, lc, lok := leader.PredictModel(x)
		rp, rc, rok := replica.PredictModel(x)
		if lp != rp || lc != rc || lok != rok {
			t.Fatalf("prediction diverged at %v: %+v/%v/%v vs %+v/%v/%v", x, lp, lc, lok, rp, rc, rok)
		}
		if lp.OK {
			hits++
		}
	}
	if hits == 0 {
		t.Fatal("no predictions at all after 800 warm-up steps; equivalence check vacuous")
	}
}

// A replica Online keeps learning through ReplayRecords (the shipped-records
// path) even though it has no environment to drive Step.
func TestReplicaOnlineReplayAdvances(t *testing.T) {
	env := &quadrantEnv{wrongFactor: 3}
	leader := MustNewOnline(OnlineConfig{
		Core: Config{Dims: 2, Radius: 0.08, Gamma: 0.8, Seed: 5},
		Seed: 17,
	}, env)
	rng := rand.New(rand.NewSource(83))
	for i := 0; i < 300; i++ {
		mustStep(t, leader, []float64{rng.Float64(), rng.Float64()})
	}
	rep, err := NewReplicaOnline(leader.EncodeState(nil))
	if err != nil {
		t.Fatal(err)
	}

	base := rep.AppliedSeq()
	batch := []wal.Record{
		{Point: []float64{0.2, 0.2}, Plan: 0, Cost: 1, Seq: base + 1, Epoch: rep.Epoch()},
		{Point: []float64{0.8, 0.2}, Plan: 1, Cost: 1, Seq: base + 2, Epoch: rep.Epoch()},
		// Duplicate ship (snapshot/stream overlap) must be idempotent.
		{Point: []float64{0.2, 0.2}, Plan: 0, Cost: 1, Seq: base + 1, Epoch: rep.Epoch()},
	}
	applied, skipped, stale := rep.ReplayRecords(batch)
	if applied != 2 || skipped != 1 || stale != 0 {
		t.Fatalf("ReplayRecords = %d applied, %d skipped, %d stale; want 2/1/0", applied, skipped, stale)
	}
	if rep.AppliedSeq() != base+2 {
		t.Fatalf("AppliedSeq = %d, want %d", rep.AppliedSeq(), base+2)
	}
	if rep.Validated() != leader.Validated()+2 {
		t.Fatalf("Validated = %d, want %d", rep.Validated(), leader.Validated()+2)
	}
}

func TestNewReplicaOnlineRejectsGarbage(t *testing.T) {
	if _, err := NewReplicaOnline([]byte{9, 9, 9}); err == nil {
		t.Error("garbage accepted")
	}
	env := &quadrantEnv{wrongFactor: 3}
	o := MustNewOnline(OnlineConfig{Core: Config{Dims: 2, Seed: 1}, Seed: 1}, env)
	mustStep(t, o, []float64{0.5, 0.5})
	good := o.EncodeState(nil)
	for _, cut := range []int{1, len(good) / 2, len(good) - 1} {
		if _, err := NewReplicaOnline(good[:cut]); err == nil {
			t.Errorf("truncation at %d accepted", cut)
		}
	}
}
