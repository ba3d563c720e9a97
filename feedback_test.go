package ppc

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/obsv"
	"repro/internal/stats"
	"repro/internal/tpch"
	"repro/internal/wal"
)

// The run's one message to its learner takes one of three routes, each
// counted once: the applier's mailbox (feedback_enqueued), a synchronous
// apply on the serving goroutine (feedback_deferred: mailbox full or
// closed; serial mode's holds nothing), or — for a message of correction observations alone, on a
// free learner lock with no log attached — a fold by the run itself
// (feedback_inline). These tests hold each route to its conditions and
// every observation to exactly one landing.

// feedbackRoutes is how many messages took each route between two counter
// snapshots: inline, enqueued, deferred.
func feedbackRoutes(before, after obsv.CounterSnapshot) [3]uint64 {
	return [3]uint64{
		after.FeedbackInline - before.FeedbackInline,
		after.FeedbackEnqueued - before.FeedbackEnqueued,
		after.FeedbackDeferred - before.FeedbackDeferred,
	}
}

// observedTotal sums the observation counts of a template's correction
// sites. Callers make sure no apply runs concurrently (the applier is
// idle: flushed, or given nothing since).
func observedTotal(st *templateState) (n uint64) {
	_, sites := st.tmpl.Query.Corr.State()
	for _, s := range sites {
		n += s.N
	}
	return n
}

// openWarmQ1 opens a System with the default feedback mailbox and no log,
// registers Q1, warms it on the suite's neighbourhood and flushes its
// applier.
func openWarmQ1(t *testing.T) (*System, *templateState) {
	t.Helper()
	sys, err := Open(Options{TPCH: tpch.Config{Scale: 2000, Seed: 5}, Online: onlineForTest()})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Register("Q1", mustSQL(t, "Q1")); err != nil {
		t.Fatal(err)
	}
	runWarm(t, sys, "Q1", 200, 3)
	st, err := sys.lookup("Q1")
	if err != nil {
		t.Fatal(err)
	}
	st.flush()
	return sys, st
}

// warmValues returns the values of a fresh point in the suite's warm
// neighbourhood.
func warmValues(t *testing.T, sys *System, st *templateState, rng *rand.Rand) []float64 {
	t.Helper()
	point := make([]float64, st.tmpl.Degree())
	for j := range point {
		point[j] = 0.25 + rng.Float64()*0.1
	}
	inst, err := sys.Optimizer().InstanceAt(st.tmpl, point)
	if err != nil {
		t.Fatal(err)
	}
	return inst.Values
}

// TestHitFoldsItsCorrectionsInline: on a template with a mailbox and no
// log, a hit whose message carries no label folds its observations itself
// — feedback_inline moves, nothing is enqueued or deferred, no apply batch
// is counted — and they are in the corrections when Run returns, with no
// flush. A labelled run still takes the mailbox.
func TestHitFoldsItsCorrectionsInline(t *testing.T) {
	sys, st := openWarmQ1(t)
	defer sys.Close() //nolint:errcheck
	rng := rand.New(rand.NewSource(5))
	folds, labelled := 0, 0
	for i := 0; i < 300; i++ {
		values := warmValues(t, sys, st, rng)
		before, n0 := st.obs.Snapshot(), observedTotal(st)
		res, err := sys.Run("Q1", values)
		if err != nil {
			t.Fatal(err)
		}
		after := st.obs.Snapshot()
		routes := feedbackRoutes(before.Counters, after.Counters)
		if !res.CacheHit || res.Invoked {
			// The optimizer's label rides to the applier; wait for it, so the
			// next hit finds the learner lock free.
			if routes != [3]uint64{0, 1, 0} {
				t.Fatalf("run %d (labelled): routes inline/enqueued/deferred %v, want the mailbox", i, routes)
			}
			labelled++
			st.flush()
			continue
		}
		obs := after.EstimationQError.Count - before.EstimationQError.Count
		if want := [3]uint64{min(obs, 1), 0, 0}; routes != want {
			t.Fatalf("run %d (hit, %d observations): routes inline/enqueued/deferred %v, want %v", i, obs, routes, want)
		}
		if after.Counters.ApplyBatches != before.Counters.ApplyBatches {
			t.Fatalf("run %d: a fold counted an apply batch", i)
		}
		if got := observedTotal(st) - n0; got != obs {
			t.Fatalf("run %d: %d of its %d observations are in the corrections when Run returns", i, got, obs)
		}
		if obs > 0 {
			folds++
		}
	}
	if folds < 100 || labelled == 0 {
		t.Fatalf("%d folds and %d labelled runs of 300; the workload is not hit-shaped", folds, labelled)
	}
}

// TestHeldLearnerLockSendsToTheMailbox: a hit that finds its learner lock
// held — here by a large apply batch on another goroutine — does not wait
// for it: its observations take the mailbox exactly as before the fold
// existed, and land once the writer is done.
func TestHeldLearnerLockSendsToTheMailbox(t *testing.T) {
	sys, st := openWarmQ1(t)
	defer sys.Close() //nolint:errcheck
	// The writer: 50,000 validated points at one far corner, a batch whose
	// inserts hold the lock for tens of milliseconds.
	label := core.Feedback{Point: []float64{0.95, 0.95}, Plan: cachedPlanIDs(sys)[0], Cost: 1, Epoch: st.online.Epoch()}
	filler := make([]core.Feedback, 50000)
	for i := range filler {
		filler[i] = label
	}
	// A probe the learner folds to no effect: site 0 is no site.
	probe := []stats.Obs{{Site: 0, LogQ: 1}}
	rng := rand.New(rand.NewSource(6))
	for attempt := 0; attempt < 20; attempt++ {
		values := warmValues(t, sys, st, rng)
		var done atomic.Bool
		finished := make(chan struct{})
		go func() {
			defer close(finished)
			st.online.ApplyBatch(filler, nil)
			done.Store(true)
		}()
		for !done.Load() && st.online.TryObserve(probe) {
		}
		before, n0 := st.obs.Snapshot(), observedTotal(st)
		res, err := sys.Run("Q1", values)
		if err != nil {
			t.Fatal(err)
		}
		held := !done.Load()
		<-finished
		st.flush()
		after := st.obs.Snapshot()
		obs := after.EstimationQError.Count - before.EstimationQError.Count
		if !held || !res.CacheHit || res.Invoked || obs == 0 {
			continue // not a label-free hit under a held lock; try again
		}
		if routes := feedbackRoutes(before.Counters, after.Counters); routes != [3]uint64{0, 1, 0} {
			t.Fatalf("a hit under a held learner lock took routes inline/enqueued/deferred %v, want the mailbox", routes)
		}
		if got := observedTotal(st) - n0; got != obs {
			t.Fatalf("%d of the hit's %d observations landed", got, obs)
		}
		return
	}
	t.Fatal("no label-free hit ran while the learner lock was held in 20 attempts")
}

// TestFlushWaitsForTheBatchInFlight: a flush that finds the mailbox empty
// because the applier has already taken the last run — and is waiting on
// the learner lock to apply it — still returns only once that run is in
// the learner. drainMu, held by a drain from take to apply, is what makes
// the flush wait.
func TestFlushWaitsForTheBatchInFlight(t *testing.T) {
	sys, st := openWarmQ1(t)
	defer sys.Close() //nolint:errcheck
	// The writer holding the learner lock: a batch of 50,000 validated
	// points at one far corner, tens of milliseconds of inserts.
	plan := cachedPlanIDs(sys)[0]
	filler := make([]core.Feedback, 50000)
	for i := range filler {
		filler[i] = core.Feedback{Point: []float64{0.95, 0.95}, Plan: plan, Cost: 1, Epoch: st.online.Epoch()}
	}
	probe := []stats.Obs{{Site: 0, LogQ: 1}}
	queued := func() int {
		st.mailMu.Lock()
		defer st.mailMu.Unlock()
		return len(st.mail)
	}
	for attempt := 0; attempt < 20; attempt++ {
		v0 := st.online.Validated()
		var done atomic.Bool
		finished := make(chan struct{})
		go func() {
			defer close(finished)
			st.online.ApplyBatch(filler, nil)
			done.Store(true)
		}()
		for !done.Load() && st.online.TryObserve(probe) {
		}
		fb, err := st.online.ValidatedFeedback([]float64{0.3, 0.3}, plan, 100)
		if err != nil {
			t.Fatal(err)
		}
		buf := runBufPool.Get().(*runBuf)
		buf.keep(fb)
		st.send(buf)
		// Wait for the applier to take the run off the mailbox; it then
		// blocks on the learner lock, holding the run as its batch.
		for !done.Load() && queued() > 0 {
			runtime.Gosched()
		}
		held := !done.Load()
		st.flush()
		got := st.online.Validated() - v0
		<-finished
		st.flush()
		if !held {
			continue // the writer finished before the flush began; try again
		}
		if want := len(filler) + 1; got != want {
			t.Fatalf("flush returned with %d of %d validated points applied: the batch in flight was not waited for", got, want)
		}
		return
	}
	t.Fatal("the learner lock was never still held when the flush began in 20 attempts")
}

// TestDurableCorrectionsKeepTheApplier: a durable template never folds. Its
// correction-only runs go through the applier like every message, so their
// kind-2 records are written and group-committed there, at most one per
// site an apply batch touched, and every observation the runs made lands
// once. (TestCorrectionCrashRecovery holds what the records replay to.)
// The last 100 runs each start from a drained mailbox, so the learner lock
// is free whenever a hit could fold.
func TestDurableCorrectionsKeepTheApplier(t *testing.T) {
	dir := t.TempDir()
	sys := openDurable(t, dir, nil) // the default mailbox
	defer sys.Close()               //nolint:errcheck
	runDurableWorkload(t, sys, 300, 3)
	st, err := sys.lookup("Q1")
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 100; i++ {
		st.flush()
		if _, err := sys.Run("Q1", warmValues(t, sys, st, rng)); err != nil {
			t.Fatal(err)
		}
	}
	m, err := sys.TemplateMetrics("Q1") // flushes the applier first
	if err != nil {
		t.Fatal(err)
	}
	c := m.Counters
	if c.FeedbackInline != 0 || c.FeedbackEnqueued == 0 {
		t.Errorf("a durable template folded %d messages and enqueued %d; want none folded", c.FeedbackInline, c.FeedbackEnqueued)
	}
	if got, want := observedTotal(st), m.EstimationQError.Count; got != want || want == 0 {
		t.Errorf("the corrections hold %d observations, the runs made %d", got, want)
	}
	corrections, sites := uint64(0), uint64(st.tmpl.Query.Corr.NSites())
	for _, r := range mustScan(t, dir).Records {
		if r.Kind == wal.RecordCorrection {
			corrections++
		}
	}
	if corrections == 0 || corrections > c.ApplyBatches*sites {
		t.Errorf("%d correction records for %d apply batches over %d sites, want some and at most one per site per batch",
			corrections, c.ApplyBatches, sites)
	}
}

// TestSerialModeNeverFolds: with a mailbox of capacity 0 (FeedbackQueue
// -1) every message is applied by its run as an apply batch of its own and
// none is folded, so serial decisions and counters are those of the build before
// the fold: the pinned numbers and the digest of every run's decision and
// of the final correction state were printed by that build on this
// workload.
func TestSerialModeNeverFolds(t *testing.T) {
	sys := openSmall(t)
	defer sys.Close() //nolint:errcheck
	digest := fnv.New64a()
	for _, name := range []string{"Q1", "Q3"} {
		if err := sys.Register(name, mustSQL(t, name)); err != nil {
			t.Fatal(err)
		}
		tmpl, _ := sys.Template(name)
		rng := rand.New(rand.NewSource(17))
		point := make([]float64, tmpl.Degree())
		for i := 0; i < 400; i++ {
			for j := range point {
				point[j] = 0.2 + rng.Float64()*0.2
			}
			inst, err := sys.Optimizer().InstanceAt(tmpl, point)
			if err != nil {
				t.Fatal(err)
			}
			res, err := sys.Run(name, inst.Values)
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintln(digest, res.PlanID, res.CacheHit, res.Invoked, res.RandomInvocation,
				res.FeedbackCorrection, res.DriftReset, math.Float64bits(res.EstimatedCost))
		}
	}
	var got []string
	for _, name := range []string{"Q1", "Q3"} {
		m, err := sys.TemplateMetrics(name)
		if err != nil {
			t.Fatal(err)
		}
		c := m.Counters
		if c.FeedbackInline != 0 || c.FeedbackEnqueued != 0 || c.ApplyBatches != c.FeedbackDeferred {
			t.Errorf("%s: %d inline, %d enqueued, %d deferred in %d apply batches; serial mode applies every message as its own batch",
				name, c.FeedbackInline, c.FeedbackEnqueued, c.FeedbackDeferred, c.ApplyBatches)
		}
		st, _ := sys.lookup(name)
		epoch, sites := st.tmpl.Query.Corr.State()
		for _, s := range sites {
			fmt.Fprintln(digest, math.Float64bits(s.LogC), s.N, math.Float64bits(s.Ref))
		}
		got = append(got, fmt.Sprintf("%s hits %d invocations %d random %d corrections %d batches %d validated %d publishes %d epoch %d",
			name, c.CacheHits, c.OptimizerInvocations, c.RandomInvocations, c.FeedbackCorrections,
			c.ApplyBatches, m.Learner.Validated, m.Learner.SnapshotPublishes, epoch))
	}
	got = append(got, fmt.Sprintf("digest %016x", digest.Sum64()))
	want := []string{
		"Q1 hits 370 invocations 30 random 10 corrections 0 batches 400 validated 30 publishes 30 epoch 0",
		"Q3 hits 128 invocations 272 random 3 corrections 35 batches 400 validated 272 publishes 272 epoch 0",
		"digest e8ba5dd4d06545a5",
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("serial mode moved:\n got %q\nwant %q", got, want)
	}
}
