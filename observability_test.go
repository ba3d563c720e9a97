package ppc

// Integration tests for the observability layer: the metrics snapshot must
// agree exactly with the RunResult ground truth the same workload produced,
// and the latency accounting on each RunResult must obey its invariants.

import (
	"encoding/json"
	"errors"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/queries"
	"repro/internal/stats"
	"repro/internal/tpch"
	"repro/internal/wal"
)

// sqlFor returns the SQL of one standard query template.
func sqlFor(t *testing.T, name string) string {
	t.Helper()
	for _, d := range queries.Defs {
		if d.Name == name {
			return d.SQL
		}
	}
	t.Fatalf("no standard query %s", name)
	return ""
}

// runTally accumulates RunResult ground truth for comparison against a
// CounterSnapshot.
type runTally struct {
	runs, cacheHits, predicted, nulls uint64
	invoked, random, feedback, drift  uint64
	degraded, executed                uint64
	last                              *RunResult
}

func (c *runTally) add(res *RunResult) {
	c.runs++
	if res.CacheHit {
		c.cacheHits++
	}
	if res.Predicted {
		c.predicted++
	} else if !res.Degraded {
		c.nulls++
	}
	if res.Invoked {
		c.invoked++
	}
	if res.RandomInvocation {
		c.random++
	}
	if res.FeedbackCorrection {
		c.feedback++
	}
	if res.DriftReset {
		c.drift++
	}
	if res.Degraded {
		c.degraded++
	}
	if res.Result != nil {
		c.executed++
	}
	c.last = res
}

// drive runs n instances of the template in a drifting selectivity
// neighborhood and tallies the results.
func drive(t *testing.T, sys *System, name string, n int, seed int64) *runTally {
	t.Helper()
	tmpl, err := sys.Template(name)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	tally := &runTally{}
	for i := 0; i < n; i++ {
		point := make([]float64, tmpl.Degree())
		center := 0.2 + 0.5*float64(i)/float64(n)
		for d := range point {
			point[d] = center + rng.Float64()*0.05
		}
		inst, err := sys.Optimizer().InstanceAt(tmpl, point)
		if err != nil {
			t.Fatal(err)
		}
		res, err := sys.Run(name, inst.Values)
		if err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		tally.add(res)
	}
	return tally
}

func TestMetricsSnapshotMatchesRunResults(t *testing.T) {
	sys := openSmall(t)
	for _, name := range []string{"Q0", "Q1"} {
		if err := sys.Register(name, sqlFor(t, name)); err != nil {
			t.Fatal(err)
		}
	}
	tallies := map[string]*runTally{
		"Q0": drive(t, sys, "Q0", 200, 7),
		"Q1": drive(t, sys, "Q1", 200, 8),
	}

	snap, err := sys.MetricsSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	if snap.Schema != MetricsSnapshotSchema {
		t.Fatalf("schema = %q, want %q", snap.Schema, MetricsSnapshotSchema)
	}
	if len(snap.Templates) != 2 {
		t.Fatalf("templates in snapshot = %d, want 2", len(snap.Templates))
	}

	var totalRuns uint64
	for _, tm := range snap.Templates {
		tally := tallies[tm.Template]
		if tally == nil {
			t.Fatalf("unexpected template %q in snapshot", tm.Template)
		}
		totalRuns += tally.runs
		c := tm.Counters
		checks := []struct {
			name string
			got  uint64
			want uint64
		}{
			{"runs", c.Runs, tally.runs},
			{"run_errors", c.RunErrors, 0},
			{"cache_hits", c.CacheHits, tally.cacheHits},
			{"predicted", c.Predicted, tally.predicted},
			{"optimizer_invocations", c.OptimizerInvocations, tally.invoked},
			{"random_invocations", c.RandomInvocations, tally.random},
			{"feedback_corrections", c.FeedbackCorrections, tally.feedback},
			{"degraded_runs", c.DegradedRuns, tally.degraded},
			{"predict_latency.count", tm.PredictLatency.Count, tally.runs},
			{"optimize_latency.count", tm.OptimizeLatency.Count, tally.invoked},
			{"execute_latency.count", tm.ExecuteLatency.Count, tally.executed},
			{"degraded_latency.count", tm.DegradedLatency.Count, tally.degraded},
		}
		for _, ck := range checks {
			if ck.got != ck.want {
				t.Errorf("%s: %s = %d, want %d", tm.Template, ck.name, ck.got, ck.want)
			}
		}
		// The workload exercises the interesting paths; a snapshot full of
		// zeros would vacuously pass the equalities above.
		if tally.cacheHits == 0 || tally.invoked == 0 {
			t.Errorf("%s: degenerate workload (hits=%d invoked=%d)", tm.Template, tally.cacheHits, tally.invoked)
		}
		// The learner's own lifetime counters, held to the same ground
		// truth: every run is one learner step, and with no run failing the
		// learner's NULLs and drift resets are the runs that reported one.
		if got, want := uint64(tm.Learner.Steps), tally.runs; got != want {
			t.Errorf("%s: learner steps = %d, want %d", tm.Template, got, want)
		}
		if got := uint64(tm.Learner.NullPredictions); got != tally.nulls {
			t.Errorf("%s: learner null_predictions = %d, want %d", tm.Template, got, tally.nulls)
		}
		if got := uint64(tm.Learner.Resets); got != tally.drift {
			t.Errorf("%s: learner drift_resets = %d, want %d", tm.Template, got, tally.drift)
		}
	}

	// Every successful Run resolves its plan exactly once: serving-level
	// cache hits and misses must partition the runs.
	if got := snap.Cache.Hits + snap.Cache.Misses; got != totalRuns {
		t.Errorf("cache hits+misses = %d, want %d", got, totalRuns)
	}
	if snap.Cache.Capacity == 0 || snap.Cache.Len == 0 {
		t.Errorf("cache occupancy not reported: %+v", snap.Cache)
	}

	// The snapshot must round-trip through JSON (it is the /metrics payload).
	data, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	var back MetricsSnapshot
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Schema != snap.Schema || len(back.Templates) != len(snap.Templates) {
		t.Errorf("JSON round-trip lost data: %s", data)
	}

	// Trace ring: default size 64, oldest-first, sequence numbers dense and
	// ending at the last run.
	for name, tally := range tallies {
		trace, err := sys.TemplateTrace(name)
		if err != nil {
			t.Fatal(err)
		}
		if len(trace) != 64 {
			t.Fatalf("%s: trace length = %d, want 64", name, len(trace))
		}
		for i := 1; i < len(trace); i++ {
			if trace[i].Seq != trace[i-1].Seq+1 {
				t.Fatalf("%s: non-consecutive seq at %d: %d after %d", name, i, trace[i].Seq, trace[i-1].Seq)
			}
		}
		last := trace[len(trace)-1]
		res := tally.last
		if last.Seq != tally.runs {
			t.Errorf("%s: last trace seq = %d, want %d", name, last.Seq, tally.runs)
		}
		if last.Facts != res.Facts {
			t.Errorf("%s: last trace %+v does not match last result %+v", name, last.Facts, res.Facts)
		}
		vals := last.Values[:last.NumValues]
		if len(vals) != len(res.Values) {
			t.Fatalf("%s: trace values length %d, want %d", name, len(vals), len(res.Values))
		}
		for i := range vals {
			if vals[i] != res.Values[i] {
				t.Errorf("%s: trace values %v != result values %v", name, vals, res.Values)
				break
			}
		}
	}
}

// TestRunResultIsItsTraceRecord: a run's RunResult and its trace record
// carry one value of the run's facts. One seeded serial scenario reaches
// every verdict flag and Degraded — NULL predictions, cache hits and the
// random audit while the learner warms, a window of optimizer errors (a
// failed learner step degrades its run), then a cost-model shift the cost
// check corrects and drift recovery resets — and every completed run's
// result is held to the record the trace ring appended for it.
func TestRunResultIsItsTraceRecord(t *testing.T) {
	scale := 40.0
	inj := faults.New(3)
	sys, err := Open(Options{
		TPCH:                 tpch.Config{Scale: 1000, Seed: 5},
		Online:               onlineForTest(),
		FeedbackQueue:        -1,
		Faults:               inj,
		disableAdaptiveStats: true,
		statsWrap: func(p stats.Provider) stats.Provider {
			return &stats.Distorted{Provider: p, Sel: func(table, col string, sel float64) float64 {
				if table == "lineitem" && col == "l_partkey" {
					return sel * scale
				}
				return sel
			}}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sys.Close() }) //nolint:errcheck
	if err := sys.Register("Q1", sqlFor(t, "Q1")); err != nil {
		t.Fatal(err)
	}
	tmpl, _ := sys.Template("Q1")
	rng := rand.New(rand.NewSource(5))
	seen := map[string]int{}
	var completed uint64
	for i := 0; i < 4000; i++ {
		switch i {
		case 0:
			inj.Enable(faults.OptimizerError, 0.5)
		case 200:
			inj.DisableAll()
		case 2000:
			scale = 0.2
		}
		point := []float64{0.25 + rng.Float64()*0.1, 0.005 + rng.Float64()*0.06}
		inst, err := sys.Optimizer().InstanceAt(tmpl, point)
		if err != nil {
			t.Fatal(err)
		}
		res, err := sys.Run("Q1", inst.Values)
		if errors.Is(err, faults.ErrInjected) {
			continue // the degraded run's own optimizer call failed too
		}
		if err != nil {
			t.Fatal(err)
		}
		completed++
		trace, err := sys.TemplateTrace("Q1")
		if err != nil {
			t.Fatal(err)
		}
		rec := trace[len(trace)-1]
		if rec.Seq != completed || rec.Facts != res.Facts || !rec.Executed ||
			!slices.Equal(rec.Values[:rec.NumValues], res.Values) ||
			!slices.Equal(rec.Point[:rec.NumPoint], res.Point) {
			t.Fatalf("run %d (completed %d): trace record %+v, result %+v", i, completed, rec, res)
		}
		for name, set := range map[string]bool{
			"Predicted": res.Predicted, "CacheHit": res.CacheHit, "Invoked": res.Invoked,
			"RandomInvocation": res.RandomInvocation, "FeedbackCorrection": res.FeedbackCorrection,
			"DriftReset": res.DriftReset, "Degraded": res.Degraded,
		} {
			if set {
				seen[name]++
			}
		}
	}
	t.Logf("%d completed runs, flags set: %v", completed, seen)
	if inj.Fired(faults.OptimizerError) == 0 {
		t.Error("no optimizer error fired")
	}
	for _, name := range []string{"Predicted", "CacheHit", "Invoked", "RandomInvocation", "FeedbackCorrection", "DriftReset", "Degraded"} {
		if seen[name] == 0 {
			t.Errorf("%s never read true: the comparison above is vacuous for it", name)
		}
	}
}

func TestRunLatencyAccounting(t *testing.T) {
	sys := openSmall(t)
	if err := sys.Register("Q1", sqlFor(t, "Q1")); err != nil {
		t.Fatal(err)
	}
	tmpl, _ := sys.Template("Q1")
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 120; i++ {
		point := []float64{0.3 + rng.Float64()*0.1, 0.3 + rng.Float64()*0.1}
		inst, err := sys.Optimizer().InstanceAt(tmpl, point)
		if err != nil {
			t.Fatal(err)
		}
		t0 := time.Now()
		res, err := sys.Run("Q1", inst.Values)
		wall := time.Since(t0)
		if err != nil {
			t.Fatal(err)
		}
		accounted := res.PredictTime + res.OptimizeTime + res.ExecuteTime
		if accounted > wall {
			t.Fatalf("run %d: accounted %v exceeds wall %v (%+v)", i, accounted, wall, res)
		}
		if res.PredictTime < 0 || res.OptimizeTime < 0 || res.ExecuteTime < 0 {
			t.Fatalf("run %d: negative stage time (%+v)", i, res)
		}
		if res.Invoked && res.OptimizeTime <= 0 {
			t.Fatalf("run %d: optimizer invoked but OptimizeTime = %v", i, res.OptimizeTime)
		}
		if !res.Invoked && res.OptimizeTime != 0 {
			t.Fatalf("run %d: optimizer not invoked but OptimizeTime = %v", i, res.OptimizeTime)
		}
		if res.Result != nil && res.ExecuteTime <= 0 {
			t.Fatalf("run %d: executed but ExecuteTime = %v", i, res.ExecuteTime)
		}
	}
}

// TestErrorDegradeAccounting pins the decide() error branch: a run whose
// learner step failed is degraded — it invokes the optimizer directly —
// and still carries the time spent in the failed step, and the snapshot's
// degraded_runs and run_errors are the runs that reported each.
func TestErrorDegradeAccounting(t *testing.T) {
	inj := faults.New(42).Enable(faults.OptimizerError, 0.5)
	sys, err := Open(Options{
		TPCH:   tpch.Config{Scale: 1000, Seed: 5},
		Online: onlineForTest(),
		Faults: inj,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Register("Q1", sqlFor(t, "Q1")); err != nil {
		t.Fatal(err)
	}
	tmpl, _ := sys.Template("Q1")
	rng := rand.New(rand.NewSource(9))

	var degraded, failed uint64
	sawSpentTime := false
	for i := 0; i < 80; i++ {
		point := []float64{0.3 + rng.Float64()*0.2, 0.3 + rng.Float64()*0.2}
		inst, ierr := sys.Optimizer().InstanceAt(tmpl, point)
		if ierr != nil {
			t.Fatal(ierr)
		}
		res, rerr := sys.Run("Q1", inst.Values)
		if rerr != nil {
			// The degraded fallback's own optimizer call hit the fault.
			failed++
			continue
		}
		if res.Degraded {
			degraded++
			if !res.Invoked || res.OptimizeTime <= 0 {
				t.Fatalf("run %d: degraded run must invoke the optimizer (%+v)", i, res)
			}
			if res.PredictTime > 0 {
				sawSpentTime = true
			}
		}
	}
	if degraded == 0 {
		t.Fatal("fault injection produced no degraded runs")
	}
	if !sawSpentTime {
		t.Error("no degraded run carried its failed learner step's time in PredictTime")
	}

	tm, err := sys.TemplateMetrics("Q1")
	if err != nil {
		t.Fatal(err)
	}
	c := tm.Counters
	if got := c.DegradedRuns; got != degraded {
		t.Errorf("snapshot degraded_runs = %d, ground truth %d", got, degraded)
	}
	if got := c.RunErrors; got != failed {
		t.Errorf("snapshot run_errors = %d, ground truth %d", got, failed)
	}
}

// TestMetricsQuiescentIdentities asserts, once, the relations README
// "Observability" states between keys of different owners — what the
// look-alike pairs of ppc-metrics/v1 each restated with a second counter.
// The workload runs serially under a seeded optimizer fault, so the ground
// truth is the RunResults and the injector's own count of fired faults.
func TestMetricsQuiescentIdentities(t *testing.T) {
	inj := faults.New(7).Enable(faults.OptimizerError, 0.3)
	sys, err := Open(Options{
		TPCH:   tpch.Config{Scale: 1000, Seed: 5},
		Online: onlineForTest(),
		Faults: inj,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	if err := sys.Register("Q1", sqlFor(t, "Q1")); err != nil {
		t.Fatal(err)
	}
	tmpl, _ := sys.Template("Q1")
	rng := rand.New(rand.NewSource(9))
	var completed, degraded, failed uint64
	for i := 0; i < 300; i++ {
		point := []float64{0.3 + rng.Float64()*0.2, 0.3 + rng.Float64()*0.2}
		inst, err := sys.Optimizer().InstanceAt(tmpl, point)
		if err != nil {
			t.Fatal(err)
		}
		res, err := sys.Run("Q1", inst.Values)
		switch {
		case err != nil:
			failed++
		case res.Degraded:
			completed, degraded = completed+1, degraded+1
		default:
			completed++
		}
	}
	tm, err := sys.TemplateMetrics("Q1")
	if err != nil {
		t.Fatal(err)
	}
	c, l := tm.Counters, tm.Learner
	if degraded == 0 || failed == 0 {
		t.Fatalf("degenerate workload: degraded %d, failed %d", degraded, failed)
	}
	// Q1's few plans never fill the cache, so a run's resolve never needs
	// an optimizer call of its own: every call is a learner step's or a
	// degraded run's fallback.
	if n := sys.CacheEvictions(); n != 0 {
		t.Fatalf("workload evicted %d plans", n)
	}
	fired := uint64(inj.Fired(faults.OptimizerError))
	for _, ck := range []struct {
		identity  string
		got, want uint64
	}{
		{"counters.runs = completed runs", c.Runs, completed},
		{"counters.run_errors = runs that returned an error", c.RunErrors, failed},
		{"counters.degraded_runs = completed runs whose learner step failed", c.DegradedRuns, degraded},
		// Every run takes one learner step, completed or not.
		{"learner.steps = counters.runs + counters.run_errors", uint64(l.Steps), c.Runs + c.RunErrors},
		// A fired fault fails a learner step, and the run degrades; a run
		// fails only when its fallback's optimizer call fails as well.
		{"injected optimizer faults = degraded_runs + 2 × run_errors", fired, c.DegradedRuns + 2*c.RunErrors},
	} {
		if ck.got != ck.want {
			t.Errorf("%s: %d != %d", ck.identity, ck.got, ck.want)
		}
	}
}

// TestTraceRingOption: the trace ring keeps the 64 most recent records,
// numbered by completion: the last one's Seq is the run count.
func TestTraceRingOption(t *testing.T) {
	sys, err := Open(Options{
		TPCH:   tpch.Config{Scale: 1000, Seed: 5},
		Online: onlineForTest(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Register("Q1", sqlFor(t, "Q1")); err != nil {
		t.Fatal(err)
	}
	tmpl, _ := sys.Template("Q1")
	rng := rand.New(rand.NewSource(4))
	const ring, runs = 64, 70
	for i := 0; i < runs; i++ {
		point := []float64{0.4 + rng.Float64()*0.05, 0.4 + rng.Float64()*0.05}
		inst, err := sys.Optimizer().InstanceAt(tmpl, point)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sys.Run("Q1", inst.Values); err != nil {
			t.Fatal(err)
		}
	}
	trace, err := sys.TemplateTrace("Q1")
	if err != nil {
		t.Fatal(err)
	}
	if len(trace) != ring {
		t.Fatalf("trace length = %d after %d runs, want %d", len(trace), runs, ring)
	}
	if last := trace[len(trace)-1].Seq; last != runs {
		t.Errorf("last trace seq = %d, want %d", last, runs)
	}
}

// metricsKeysV7 is the golden key list of one template's element of a
// ppc-metrics/v7 snapshot: its top-level keys, and every key of the two
// objects named after who counts what is in them. A key is added here on
// purpose or not at all; a removal or a rename is a schema bump.
var metricsKeysV7 = []string{
	"apply_latency",
	"counters",
	"counters.apply_batches",
	"counters.cache_hits",
	"counters.degraded_runs",
	"counters.feedback_corrections",
	"counters.feedback_deferred",
	"counters.feedback_enqueued",
	"counters.feedback_inline",
	"counters.memo_invalidations",
	"counters.optimizer_invocations",
	"counters.predicted",
	"counters.random_invocations",
	"counters.run_errors",
	"counters.runs",
	"degraded_latency",
	"degree",
	"estimation_qerror",
	"execute_latency",
	"learner",
	"learner.applied_seq",
	"learner.beta",
	"learner.beta_known",
	"learner.correction_epoch",
	"learner.correction_sites",
	"learner.drift_resets",
	"learner.feedback_queue_depth",
	"learner.null_predictions",
	"learner.precision",
	"learner.precision_known",
	"learner.recall",
	"learner.recall_known",
	"learner.samples_absorbed",
	"learner.self_labeled_points",
	"learner.snapshot_publishes",
	"learner.stale_feedback_drops",
	"learner.steps",
	"learner.synopsis_bytes",
	"learner.validated_points",
	"learner.window_samples",
	"optimize_latency",
	"predict_latency",
	"template",
}

// TestMetricsOneCounterPerFact is the schema guard: in a populated
// snapshot's JSON, no key name occurs in more than one of a template's
// counters and learner objects — ppc-metrics/v1 printed
// null_predictions, snapshot_publishes and drift_resets twice per template,
// with different values — and the key list is the golden above.
func TestMetricsOneCounterPerFact(t *testing.T) {
	if MetricsSnapshotSchema != "ppc-metrics/v7" {
		t.Fatalf("schema %q: the golden key list above is ppc-metrics/v7's", MetricsSnapshotSchema)
	}
	sys := openSmall(t)
	if err := sys.Register("Q1", sqlFor(t, "Q1")); err != nil {
		t.Fatal(err)
	}
	drive(t, sys, "Q1", 100, 3)
	snap, err := sys.MetricsSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(snap.Templates[0])
	if err != nil {
		t.Fatal(err)
	}
	var tmpl map[string]json.RawMessage
	if err := json.Unmarshal(data, &tmpl); err != nil {
		t.Fatal(err)
	}
	var keys []string
	owner := map[string]string{}
	for key, raw := range tmpl {
		keys = append(keys, key)
		if key != "counters" && key != "learner" {
			continue
		}
		var object map[string]json.RawMessage
		if err := json.Unmarshal(raw, &object); err != nil {
			t.Fatalf("%s is not an object: %v", key, err)
		}
		for leaf := range object {
			keys = append(keys, key+"."+leaf)
			if other, dup := owner[leaf]; dup {
				t.Errorf("key %q occurs under both %s and %s: one counter per fact", leaf, other, key)
			}
			owner[leaf] = key
		}
	}
	sort.Strings(keys)
	if !reflect.DeepEqual(keys, metricsKeysV7) {
		t.Errorf("ppc-metrics/v7 keys moved (update metricsKeysV7 and README \"Observability\" on purpose, or bump the schema):\n got %q\nwant %q", keys, metricsKeysV7)
	}
}

// stalledLog is a wal.Appender whose Append blocks until release closes: a
// disk that has stopped answering, seen from the feedback applier.
type stalledLog struct {
	entered chan struct{}
	release chan struct{}
	once    sync.Once
}

func (l *stalledLog) Append(*wal.Record) (uint64, error) {
	l.once.Do(func() { close(l.entered) })
	<-l.release
	return 0, nil
}

func (l *stalledLog) Commit() error { return nil }

// TestHealthAnswersWhileApplierStalled: the liveness read (ppcserve's
// /health, which serves TemplateNames) must not wait for a feedback applier. Everything that reports
// learner state flushes the template's mailbox first — MetricsSnapshot and
// TemplateMetrics do, and wait here — so a liveness probe built on them
// would hang exactly when an operator needs it.
func TestHealthAnswersWhileApplierStalled(t *testing.T) {
	// The default feedback queue: a background applier per template.
	sys, err := Open(Options{TPCH: tpch.Config{Scale: 1000, Seed: 5}, Online: onlineForTest()})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Register("Q1", sqlFor(t, "Q1")); err != nil {
		t.Fatal(err)
	}
	st, err := sys.lookup("Q1")
	if err != nil {
		t.Fatal(err)
	}
	log := &stalledLog{entered: make(chan struct{}), release: make(chan struct{})}
	st.online.AttachLog(log)
	release := sync.OnceFunc(func() { close(log.release) })
	defer sys.Close() // after the release below: Close drains the applier
	defer release()

	drive(t, sys, "Q1", 1, 3) // a cold run: one validated point for the applier
	select {
	case <-log.entered:
	case <-time.After(10 * time.Second):
		t.Fatal("the applier never reached the log")
	}

	names := make(chan []string, 1)
	go func() { names <- sys.TemplateNames() }()
	select {
	case got := <-names:
		if !reflect.DeepEqual(got, []string{"Q1"}) {
			t.Errorf("TemplateNames = %v, want [Q1]", got)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("TemplateNames waited for a stalled applier")
	}

	// The contrast that makes the above mean something: the flushing read
	// does wait, and completes once the log answers again.
	flushed := make(chan error, 1)
	go func() {
		_, err := sys.TemplateMetrics("Q1")
		flushed <- err
	}()
	select {
	case <-flushed:
		t.Fatal("TemplateMetrics returned while the applier was stalled: the stall is not one")
	case <-time.After(100 * time.Millisecond):
	}
	release()
	if err := <-flushed; err != nil {
		t.Fatal(err)
	}
}
