package ppc

// End-to-end tests for tunable LSH on the durable facade: re-tune switches
// are WAL-logged (kind-3 records) before they apply, checkpoints carry the
// retune section inside the learner's EncodeState bytes, and both recovery
// and replication replay them in log order — so a crash image restores the
// re-tuned ensemble exactly, twice over, and a converged replica predicts
// bit-identically to its leader after live re-tunes shipped.

import (
	"testing"

	"repro/internal/netproto"
	"repro/internal/tpch"
)

// mutTunable enables tunable LSH with a low re-tune threshold so the
// durable test workloads cross it several times.
func mutTunable(o *Options) {
	o.TunableLSH = TunableLSHOptions{Enable: true, RetuneEvery: 40, Reservoir: 128}
}

// retuneEpoch reads the leader-side re-tune epoch of one template.
func retuneEpoch(t *testing.T, sys *System, template string) uint64 {
	t.Helper()
	st, err := sys.lookup(template)
	if err != nil {
		t.Fatal(err)
	}
	return st.online.RetuneEpoch()
}

// retuneGauge reads the retune_epoch gauge of one template's metrics.
func retuneGauge(t *testing.T, sys *System, template string) uint64 {
	t.Helper()
	snap, err := sys.MetricsSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	for _, tm := range snap.Templates {
		if tm.Template == template {
			return tm.Counters.RetuneEpoch
		}
	}
	t.Fatalf("no metrics for template %s", template)
	return 0
}

// TestRetuneEpochGaugeSynchronousFeedback: with FeedbackQueue < 0 there is
// no applier goroutine, and every point is applied inline by Deliver — which
// must refresh the retune_epoch gauge as the applier's batches do, or the
// gauge reads 0 on a learner that has re-tuned.
func TestRetuneEpochGaugeSynchronousFeedback(t *testing.T) {
	sys, err := Open(Options{
		TPCH:          tpch.Config{Scale: 2000, Seed: 5},
		Online:        onlineForTest(),
		FeedbackQueue: -1,
		TunableLSH:    TunableLSHOptions{Enable: true, RetuneEvery: 10, Reservoir: 128},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close() //nolint:errcheck
	if err := sys.Register("Q1", mustSQL(t, "Q1")); err != nil {
		t.Fatal(err)
	}
	runDurableWorkload(t, sys, 300, 3)
	epoch := retuneEpoch(t, sys, "Q1")
	if epoch == 0 {
		t.Fatal("learner never re-tuned; the gauge check is vacuous")
	}
	if got := retuneGauge(t, sys, "Q1"); got != epoch {
		t.Errorf("retune_epoch gauge reads %d, learner at %d", got, epoch)
	}
}

// predictParity compares two Systems' learner-state predictions over the
// probe grid and fails on any divergence. It deliberately skips the
// Fingerprint field: plan fingerprints live in the plan-cache registry,
// which a checkpointless crash recovery rebuilds lazily as plans re-intern
// — cache state, not the learned state whose exactness is under test.
// Returns the OK-prediction count so callers can reject vacuous parity.
func predictParity(t *testing.T, label string, a, b *System, template string, dims int) int {
	t.Helper()
	hits := 0
	for i, point := range probeGrid(dims, 12) {
		req := netproto.PredictRequest{ID: uint64(i), Template: template, Point: point}
		l, r := a.PredictRPC(req), b.PredictRPC(req)
		if l.Status != r.Status || l.Plan != r.Plan || l.Confidence != r.Confidence ||
			l.Cost != r.Cost || l.CostKnown != r.CostKnown {
			t.Fatalf("%s diverged at %v:\na %+v\nb %+v", label, point, l, r)
		}
		if l.Status == netproto.StatusOK {
			hits++
		}
	}
	return hits
}

// TestRetuneCrashRecoveryTwice: kill -9 a leader that has re-tuned (crash
// image taken while it runs, WAL tail only — the checkpointer is off), and
// the recovered System must hold the identical re-tuned ensemble: same
// re-tune epoch, bit-identical predictions at every probed point. Then do
// it again from the recovered System, so replay-of-a-replay (checkpointless
// WAL with multiple interleaved kind-3 records) is covered too.
func TestRetuneCrashRecoveryTwice(t *testing.T) {
	dir := t.TempDir()
	sys := openDurable(t, dir, mutTunable)
	defer sys.Close() //nolint:errcheck
	runDurableWorkload(t, sys, 200, 3)
	if _, err := sys.TemplateStats("Q1"); err != nil { // flush the applier
		t.Fatal(err)
	}
	epoch1 := retuneEpoch(t, sys, "Q1")
	if epoch1 == 0 {
		t.Fatal("leader never re-tuned; recovery test is vacuous")
	}
	tmpl, err := sys.Template("Q1")
	if err != nil {
		t.Fatal(err)
	}

	img1 := crashImage(t, dir)
	rec1 := openDurable(t, img1, mutTunable)
	defer rec1.Close() //nolint:errcheck
	if got := retuneEpoch(t, rec1, "Q1"); got != epoch1 {
		t.Fatalf("first recovery restored retune epoch %d, leader at %d", got, epoch1)
	}
	// The metrics gauge must be seeded at recovery, not first re-reported at
	// the next live re-tune.
	if got := retuneGauge(t, rec1, "Q1"); got != epoch1 {
		t.Errorf("recovered metrics report retune_epoch %d, learner at %d", got, epoch1)
	}
	if hits := predictParity(t, "first recovery", sys, rec1, "Q1", tmpl.Degree()); hits == 0 {
		t.Fatal("no OK predictions across the probe grid; parity vacuous")
	}

	// Second crash: keep serving on the recovered System past more re-tunes,
	// then crash and recover again. The warm learner audits only a fraction
	// of runs (floor InvocationProb/2), so the phase is long enough to cross
	// the 40-insert re-tune threshold with margin.
	runDurableWorkload(t, rec1, 400, 5)
	if _, err := rec1.TemplateStats("Q1"); err != nil {
		t.Fatal(err)
	}
	epoch2 := retuneEpoch(t, rec1, "Q1")
	if epoch2 <= epoch1 {
		t.Fatalf("no further re-tune before the second crash (epoch %d -> %d)", epoch1, epoch2)
	}
	img2 := crashImage(t, img1)
	rec2 := openDurable(t, img2, mutTunable)
	defer rec2.Close() //nolint:errcheck
	if got := retuneEpoch(t, rec2, "Q1"); got != epoch2 {
		t.Fatalf("second recovery restored retune epoch %d, leader at %d", got, epoch2)
	}
	if hits := predictParity(t, "second recovery", rec1, rec2, "Q1", tmpl.Degree()); hits == 0 {
		t.Fatal("no OK predictions after the second recovery; parity vacuous")
	}
}

// TestLeaderReplicaRetuneParity mirrors TestLeaderReplicaCorrectionParity
// for the tunable-LSH state: the snapshot ships the retune section inside
// the EncodeState bytes, live re-tunes ship as kind-3 WAL records in stream
// order, and a converged replica holds the leader's re-tune epoch and
// predicts bit-identically.
func TestLeaderReplicaRetuneParity(t *testing.T) {
	sys := openDurable(t, t.TempDir(), mutTunable)
	defer sys.Close() //nolint:errcheck
	runDurableWorkload(t, sys, 150, 17)

	srv := fastServe(t, sys)
	st := fastReplica(t, srv.Addr())
	waitReplica(t, "snapshot install", st.Ready)
	installEpoch := retuneEpoch(t, sys, "Q1")

	// Live re-tunes fire while the replica tails the stream. The warm
	// learner only audits a fraction of runs (the audit floor is
	// InvocationProb/2), so the live phase is long enough to cross the
	// 40-insert re-tune threshold with margin.
	runDurableWorkload(t, sys, 500, 19)
	quiesce(t, sys)
	waitReplica(t, "catch-up", func() bool {
		return st.ReceivedSeq() == sys.WALLastSeq()
	})

	leaderEpoch := retuneEpoch(t, sys, "Q1")
	if leaderEpoch == 0 {
		t.Fatal("leader never re-tuned; parity is vacuous")
	}
	if leaderEpoch <= installEpoch {
		t.Fatalf("no re-tune shipped over the live stream (epoch %d at install, %d now)", installEpoch, leaderEpoch)
	}
	if got := st.RetuneEpoch("Q1"); got != leaderEpoch {
		t.Fatalf("replica retune epoch %d, leader %d", got, leaderEpoch)
	}

	tmpl, err := sys.Template("Q1")
	if err != nil {
		t.Fatal(err)
	}
	hits := 0
	for i, point := range probeGrid(tmpl.Degree(), 12) {
		req := netproto.PredictRequest{ID: uint64(i), Template: "Q1", Point: point}
		l, r := sys.PredictRPC(req), st.PredictRPC(req)
		if l.Status != r.Status || l.Plan != r.Plan || l.Confidence != r.Confidence ||
			l.Cost != r.Cost || l.CostKnown != r.CostKnown ||
			l.Fingerprint != r.Fingerprint || l.Epoch != r.Epoch {
			t.Fatalf("diverged at %v:\nleader  %+v\nreplica %+v", point, l, r)
		}
		if l.Status == netproto.StatusOK {
			hits++
		}
	}
	if hits == 0 {
		t.Fatal("no OK predictions across the probe grid; parity vacuous")
	}
}
