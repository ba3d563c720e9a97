package core

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/wal"
)

// memLog is an in-memory wal.Appender: it stamps one shared monotone
// sequence the way the WAL does and keeps every record — feedback and
// retune interleaved in log order, the order a replica (or recovery) must
// replay in — so what the learner logged replays through ReplayRecords.
type memLog struct {
	seq  uint64
	recs []wal.Record
}

func (l *memLog) Append(rec *wal.Record) (uint64, error) {
	l.seq++
	rec.Seq = l.seq
	l.recs = append(l.recs, *rec)
	return l.seq, nil
}

func (l *memLog) Commit() error { return nil }

// count returns how many records of the kind the log holds.
func (l *memLog) count(kind uint8) int {
	n := 0
	for i := range l.recs {
		if l.recs[i].Kind == kind {
			n++
		}
	}
	return n
}

func retuneTestConfig() OnlineConfig {
	return OnlineConfig{
		Core: Config{
			Dims: 2, Radius: 0.08, Gamma: 0.8, Seed: 5,
			RetuneEvery: 150, RetuneReservoir: 512,
		},
		Seed: 17,
	}
}

// feedQuadrant applies n ground-truth-labeled quadrant points through the
// write path (Apply), which is where the retune trigger lives.
func feedQuadrant(t *testing.T, o *Online, n int, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		x := []float64{rng.Float64(), rng.Float64()}
		if err := o.LearnValidated(x, quadrantPlan(x), quadrantCost(x)); err != nil {
			t.Fatal(err)
		}
	}
}

func TestOnlineRetuneAdvancesEpochAndStaysAccurate(t *testing.T) {
	env := &quadrantEnv{wrongFactor: 3}
	o := MustNewOnline(retuneTestConfig(), env)
	feedQuadrant(t, o, 700, 41)
	if got := o.RetuneEpoch(); got < 3 {
		t.Fatalf("RetuneEpoch = %d after 700 inserts at RetuneEvery=150, want >= 3", got)
	}
	if o.Predictor().Warps() == nil {
		t.Fatal("no warps installed after retune")
	}
	// The re-mapped synopsis must still predict the quadrant labeling.
	rng := rand.New(rand.NewSource(42))
	correct, predicted := 0, 0
	for i := 0; i < 500; i++ {
		x := []float64{rng.Float64(), rng.Float64()}
		pred, _, _ := o.PredictModel(x)
		if !pred.OK {
			continue
		}
		predicted++
		if pred.Plan == quadrantPlan(x) {
			correct++
		}
	}
	if predicted < 80 {
		t.Fatalf("only %d predictions after retunes", predicted)
	}
	if float64(correct)/float64(predicted) < 0.9 {
		t.Fatalf("post-retune precision %d/%d below 0.9", correct, predicted)
	}
}

func TestRetuneDisabledNeverRetunes(t *testing.T) {
	env := &quadrantEnv{wrongFactor: 3}
	cfg := retuneTestConfig()
	cfg.Core.RetuneEvery = 0
	cfg.Core.RetuneReservoir = 0
	o := MustNewOnline(cfg, env)
	feedQuadrant(t, o, 500, 43)
	if got := o.RetuneEpoch(); got != 0 {
		t.Fatalf("RetuneEpoch = %d with tuning disabled", got)
	}
	if o.Predictor().Warps() != nil || o.Predictor().Tuner() != nil {
		t.Fatal("tuning state materialized despite RetuneEvery=0")
	}
}

// TestRetuneStateRoundTrip: EncodeState/DecodeState must restore the full
// tunable-LSH state — warps, harvest counts, reservoir — so that the
// restored learner not only predicts bit-identically but continues to
// retune bit-identically under further identical feedback.
func TestRetuneStateRoundTrip(t *testing.T) {
	env := &quadrantEnv{wrongFactor: 3}
	a := MustNewOnline(retuneTestConfig(), env)
	feedQuadrant(t, a, 520, 47) // mid-cycle: sinceRetune != 0

	var buf bytes.Buffer
	if err := a.EncodeState(&buf); err != nil {
		t.Fatal(err)
	}
	b := MustNewOnline(retuneTestConfig(), env)
	if err := b.DecodeState(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	if a.RetuneEpoch() != b.RetuneEpoch() || b.RetuneEpoch() == 0 {
		t.Fatalf("retune epoch: leader %d, restored %d", a.RetuneEpoch(), b.RetuneEpoch())
	}
	// Continue both with the identical stream: the next retune must fire at
	// the same insert and land on the same warps, so predictions stay
	// bit-identical through it.
	feedQuadrant(t, a, 200, 53)
	feedQuadrant(t, b, 200, 53)
	if a.RetuneEpoch() != b.RetuneEpoch() {
		t.Fatalf("post-restore retunes diverged: %d vs %d", a.RetuneEpoch(), b.RetuneEpoch())
	}
	rng := rand.New(rand.NewSource(59))
	hits := 0
	for i := 0; i < 600; i++ {
		x := []float64{rng.Float64(), rng.Float64()}
		ap, ac, aok := a.PredictModel(x)
		bp, bc, bok := b.PredictModel(x)
		if ap != bp || ac != bc || aok != bok {
			t.Fatalf("prediction diverged at %v: %+v/%v/%v vs %+v/%v/%v", x, ap, ac, aok, bp, bc, bok)
		}
		if ap.OK {
			hits++
		}
	}
	if hits == 0 {
		t.Fatal("no predictions; round-trip check vacuous")
	}
}

// TestReplicaRetuneReplayParity drives a leader through several re-tunes
// with an in-memory log, replays the captured stream — feedback and retune
// records interleaved in log order — into a replica built from the leader's
// cold snapshot, and requires bit-identical predictions. This is the
// learner-level contract the networked replication layer builds on.
func TestReplicaRetuneReplayParity(t *testing.T) {
	env := &quadrantEnv{wrongFactor: 3}
	leader := MustNewOnline(retuneTestConfig(), env)
	log := &memLog{}
	leader.AttachLog(log)

	// Cold snapshot (tuning armed, nothing learned) seeds the replica.
	var cold bytes.Buffer
	if err := leader.EncodeState(&cold); err != nil {
		t.Fatal(err)
	}
	replica, err := NewReplicaOnline(bytes.NewReader(cold.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if replica.Predictor().Tuner() == nil {
		t.Fatal("replica did not restore the armed tuner")
	}

	feedQuadrant(t, leader, 700, 61)
	if leader.RetuneEpoch() < 3 {
		t.Fatalf("leader retuned only %d times", leader.RetuneEpoch())
	}
	if n := log.count(wal.RecordRetune); n != int(leader.RetuneEpoch()) {
		t.Fatalf("log captured %d retune records, leader epoch %d", n, leader.RetuneEpoch())
	}

	// Replay in log order, one record at a time so that every retune record
	// is seen to apply on its own.
	for i := range log.recs {
		r := log.recs[i : i+1]
		if applied, _, _ := replica.ReplayRecords(r); applied != 1 {
			t.Fatalf("record seq %d kind %d not applied", r[0].Seq, r[0].Kind)
		}
		// Idempotence: a duplicate ship must be a no-op.
		if applied, skipped, _ := replica.ReplayRecords(r); applied != 0 || skipped != 1 {
			t.Fatalf("duplicate record seq %d kind %d: applied %d, skipped %d", r[0].Seq, r[0].Kind, applied, skipped)
		}
	}

	if leader.RetuneEpoch() != replica.RetuneEpoch() {
		t.Fatalf("retune epochs diverged: leader %d, replica %d", leader.RetuneEpoch(), replica.RetuneEpoch())
	}
	if leader.AppliedSeq() != replica.AppliedSeq() {
		t.Fatalf("applied seqs diverged: leader %d, replica %d", leader.AppliedSeq(), replica.AppliedSeq())
	}
	rng := rand.New(rand.NewSource(67))
	hits := 0
	for i := 0; i < 800; i++ {
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
		t.Fatal("no predictions; parity check vacuous")
	}
}

// Serving with warps active must stay allocation-free — the warp lookup is
// pure arithmetic on pooled scratch.
func TestPredictZeroAllocWithWarps(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector bookkeeping inflates allocation counts")
	}
	env := &quadrantEnv{wrongFactor: 3}
	o := MustNewOnline(retuneTestConfig(), env)
	feedQuadrant(t, o, 700, 71)
	if o.RetuneEpoch() == 0 {
		t.Fatal("no retune happened; alloc check would not cover warps")
	}
	// Find a probe point that actually predicts (exercising the full warp
	// path); a NULL-only run would not cover the vote.
	var x []float64
	rng := rand.New(rand.NewSource(79))
	for i := 0; i < 200; i++ {
		cand := []float64{rng.Float64(), rng.Float64()}
		if pred, _, _ := o.PredictModel(cand); pred.OK {
			x = cand
			break
		}
	}
	if x == nil {
		t.Fatal("no predicting probe point found")
	}
	if avg := testing.AllocsPerRun(200, func() {
		o.PredictModel(x)
	}); avg != 0 {
		t.Errorf("PredictModel allocates %.1f per run with warps active", avg)
	}
}

// A drift reset must clear the reservoir (its labels are stale) but keep
// the warps and harvested distribution (the parameter distribution is
// orthogonal to plan boundaries), and retune epochs must stay monotone
// across the reset.
func TestResetKeepsWarpsDropsReservoir(t *testing.T) {
	env := &quadrantEnv{wrongFactor: 3}
	o := MustNewOnline(retuneTestConfig(), env)
	feedQuadrant(t, o, 400, 73)
	p := o.Predictor()
	epoch := p.RetuneEpoch()
	if epoch == 0 || p.Warps() == nil {
		t.Fatal("precondition: no retune happened")
	}
	obs := p.Tuner().Observed()
	p.Reset()
	if p.Warps() == nil || p.RetuneEpoch() != epoch {
		t.Fatal("reset dropped warps or rewound the retune epoch")
	}
	if p.Tuner().Observed() != obs {
		t.Fatal("reset cleared the harvested distribution")
	}
	if len(p.reservoir) != 0 || p.sinceRetune != 0 {
		t.Fatalf("reset kept reservoir (%d samples, sinceRetune %d)", len(p.reservoir), p.sinceRetune)
	}
}

// TestRetuneTailRoundTrip: the retune section of a trained, re-tuned
// predictor must round-trip bit-identically — encode -> decode -> restore
// -> encode gives the same warps, counts, reservoir and cursor bytes.
func TestRetuneTailRoundTrip(t *testing.T) {
	cfg := Config{
		Dims: 2, Radius: 0.08, Gamma: 0.8, Seed: 5,
		RetuneEvery: 50, RetuneReservoir: 128,
	}
	p := MustNewApproxLSHHist(cfg)
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 200; i++ {
		x := []float64{rng.Float64() * 0.4, rng.Float64() * 0.4}
		p.Insert(Sample{Point: x, Plan: i % 4, Cost: float64(i%10 + 1)})
	}
	p.ApplyRetune(1, p.PrepareRetune())
	var tail bytes.Buffer
	if err := p.encodeRetune(&tail); err != nil {
		t.Fatal(err)
	}
	ret, err := decodeRetune(tail.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	back := MustNewApproxLSHHist(cfg)
	if err := back.restoreRetune(ret); err != nil {
		t.Fatal(err)
	}
	var again bytes.Buffer
	if err := back.encodeRetune(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(tail.Bytes(), again.Bytes()) {
		t.Fatalf("retune section round trip not byte-identical: %d vs %d bytes", tail.Len(), again.Len())
	}
	if _, err := decodeRetune(append(tail.Bytes(), 0)); err == nil {
		t.Fatal("a retune section with a trailing byte decoded")
	}
}
