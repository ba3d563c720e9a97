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
	"repro/internal/stats"
	"repro/internal/tpch"
	"repro/internal/wal"
)

// mutTunable enables tunable LSH with a low re-tune threshold so the
// durable test workloads cross it several times.
func mutTunable(o *Options) {
	o.Online.Core.RetuneEvery, o.Online.Core.RetuneReservoir = 40, 128
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
	tm, err := sys.TemplateMetrics(template)
	if err != nil {
		t.Fatal(err)
	}
	return tm.Learner.RetuneEpoch
}

// TestRetuneEpochGaugeSynchronousFeedback: with FeedbackQueue < 0 there is
// no applier goroutine, and every point is applied inline by Deliver. The
// retune_epoch a snapshot reports is read from the published model when the
// snapshot is taken, so it is the learner's whichever path applied the
// points (as a gauge only the applier refreshed, it read 0 here). The
// distorted case is the only place the tree runs tunable LSH over a 6x-biased
// base estimator: the transform grid must re-tune while the adaptive
// corrections move the estimates (and so the plan choices) under it.
func TestRetuneEpochGaugeSynchronousFeedback(t *testing.T) {
	for _, tc := range []struct {
		name      string
		scale     int
		statsWrap func(stats.Provider) stats.Provider
		workload  func(*testing.T, *System, int, int64)
	}{
		{"catalog estimates", 2000, nil, runDurableWorkload},
		{"distorted estimates under correction", 1000, distortLineitem, runSkewed},
	} {
		t.Run(tc.name, func(t *testing.T) {
			online := onlineForTest()
			online.Core.RetuneEvery, online.Core.RetuneReservoir = 10, 128
			sys, err := Open(Options{
				TPCH:          tpch.Config{Scale: tc.scale, Seed: 5},
				Online:        online,
				FeedbackQueue: -1,
				StatsWrap:     tc.statsWrap,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer sys.Close() //nolint:errcheck
			if err := sys.Register("Q1", mustSQL(t, "Q1")); err != nil {
				t.Fatal(err)
			}
			tc.workload(t, sys, 300, 3)
			epoch := retuneEpoch(t, sys, "Q1")
			if epoch == 0 {
				t.Fatal("learner never re-tuned; the gauge check is vacuous")
			}
			if got := retuneGauge(t, sys, "Q1"); got != epoch {
				t.Errorf("retune_epoch gauge reads %d, learner at %d", got, epoch)
			}
			if st, _ := sys.lookup("Q1"); tc.statsWrap != nil && st.corr.Epoch() == 0 {
				t.Error("the corrections never moved under the distortion; the case is the first one again")
			}
		})
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
	if _, err := sys.TemplateMetrics("Q1"); err != nil { // flush the applier
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
	// The metrics report the recovered epoch at once, not first at the next
	// live re-tune.
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
	if _, err := rec1.TemplateMetrics("Q1"); err != nil {
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

// TestDurableReshapedTemplateReplay: a durable leader with tunable LSH on
// crashes before any checkpoint covers Q1 and, restarted from its WAL, is
// handed Q1 again with a third parameter. Every record the log holds for
// the old shape that does not fit the new learner — the two-coordinate
// points, and the re-tune switches, whose warp grid has the old learner's
// axes — is stale, and the template serves cold but correct. Before the
// replay switch asked the retune arm that question, Register succeeded with
// the old warps installed, and the first insert under them indexed past the
// grid: with FeedbackQueue -1 the first Run returned *InternalError having
// panicked under the learner lock (ApplyBatch did not defer its unlock) and
// the second Run never returned; with the default mailbox the panic was the
// applier goroutine's and killed the process. So at the parent commit the
// first arm fails at its first Run and the second arm takes the test binary
// down.
func TestDurableReshapedTemplateReplay(t *testing.T) {
	dir := t.TempDir()
	sys := openDurable(t, dir, mutTunable)
	defer sys.Close() //nolint:errcheck
	runDurableWorkload(t, sys, 200, 3)
	if _, err := sys.TemplateMetrics("Q1"); err != nil { // flush the applier
		t.Fatal(err)
	}
	if retuneEpoch(t, sys, "Q1") == 0 {
		t.Fatal("leader never re-tuned; the log holds no retune record to misfit")
	}
	misfits := 0
	for _, r := range mustScan(t, dir).Records {
		if r.Kind == wal.RecordFeedback || r.Kind == wal.RecordRetune {
			misfits++
		}
	}

	const reshaped = `SELECT s.s_suppkey, COUNT(*)
		FROM supplier s, lineitem l
		WHERE l.l_suppkey = s.s_suppkey AND s.s_date <= ? AND l.l_partkey <= ? AND l.l_shipdate <= ?
		GROUP BY s.s_suppkey`
	for _, arm := range []struct {
		name  string
		queue int
	}{{"synchronous feedback", -1}, {"applier goroutine", 0}} {
		t.Run(arm.name, func(t *testing.T) {
			rec, err := Open(durableOptions(crashImage(t, dir), func(o *Options) {
				mutTunable(o)
				o.FeedbackQueue = arm.queue
			}))
			if err != nil {
				t.Fatal(err)
			}
			if err := rec.Register("Q1", reshaped); err != nil {
				t.Fatal(err)
			}
			rep := rec.LoadStateReport()
			if rep.WALPending != 0 || rep.WALStale < misfits {
				t.Errorf("replay left %d records pending and counted %d stale; the log holds %d points and re-tunes of the old shape",
					rep.WALPending, rep.WALStale, misfits)
			}
			if got := retuneEpoch(t, rec, "Q1"); got != 0 {
				t.Errorf("the reshaped learner is at retune epoch %d: a switch of the old shape was applied", got)
			}
			// A wedged learner lock shows as this hanging until the test
			// binary's timeout.
			runDurableWorkload(t, rec, 50, 7)
			if err := rec.Close(); err != nil {
				t.Fatal(err)
			}
		})
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
	learnerParity(t, sys, st, "Q1") // the retune section included

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
