package ppc

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/netproto"
	"repro/internal/queries"
	"repro/internal/replica"
	"repro/internal/tpch"
)

func warmSystem(t *testing.T, seed int64) (*System, [][]float64) {
	t.Helper()
	return warmSystemWith(t, seed, onlineForTest())
}

// warmSystemWith is warmSystem over a learner configuration of the caller's.
func warmSystemWith(t *testing.T, seed int64, online core.OnlineConfig) (*System, [][]float64) {
	t.Helper()
	sys, err := Open(Options{
		TPCH:   tpch.Config{Scale: 2000, Seed: 5},
		Online: online,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"Q0", "Q1"} {
		var def string
		for _, d := range queries.Defs {
			if d.Name == name {
				def = d.SQL
			}
		}
		if err := sys.Register(name, def); err != nil {
			t.Fatal(err)
		}
	}
	tmpl, _ := sys.Template("Q1")
	rng := rand.New(rand.NewSource(seed))
	var values [][]float64
	for i := 0; i < 120; i++ {
		point := []float64{0.25 + rng.Float64()*0.1, 0.25 + rng.Float64()*0.1}
		inst, err := sys.Optimizer().InstanceAt(tmpl, point)
		if err != nil {
			t.Fatal(err)
		}
		values = append(values, inst.Values)
		if _, err := sys.Run("Q1", inst.Values); err != nil {
			t.Fatal(err)
		}
	}
	return sys, values
}

func TestSaveLoadStateRoundTrip(t *testing.T) {
	warm, values := warmSystem(t, 1)
	var buf bytes.Buffer
	if err := warm.SaveState(&buf); err != nil {
		t.Fatal(err)
	}
	warmStats, _ := warm.TemplateMetrics("Q1")
	if warmStats.Learner.SamplesAbsorbed == 0 {
		t.Fatal("warm system absorbed nothing; test is vacuous")
	}

	cold, err := Open(Options{
		TPCH:   tpch.Config{Scale: 2000, Seed: 5},
		Online: onlineForTest(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := cold.LoadState(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	// Templates and learned samples must be back.
	restored, err := cold.TemplateMetrics("Q1")
	if err != nil {
		t.Fatal(err)
	}
	if restored.Learner.SamplesAbsorbed != warmStats.Learner.SamplesAbsorbed {
		t.Errorf("restored %d samples, want %d", restored.Learner.SamplesAbsorbed, warmStats.Learner.SamplesAbsorbed)
	}
	if cold.CacheLen() == 0 {
		t.Error("restored cache is empty")
	}
	// The restored cache holds the saver's plans in the saver's recency
	// order (no run has touched either cache since the save).
	if got, want := cachedPlanIDs(cold), cachedPlanIDs(warm); !reflect.DeepEqual(got, want) {
		t.Errorf("restored cache order (LRU first) = %v, saver's = %v", got, want)
	}
	// The restored system must serve the warmed neighborhood from cache
	// immediately — no re-learning phase.
	hits := 0
	for _, vals := range values[:40] {
		res, err := cold.Run("Q1", vals)
		if err != nil {
			t.Fatal(err)
		}
		if res.CacheHit {
			hits++
		}
	}
	if hits < 25 {
		t.Errorf("only %d/40 cache hits after restore; warm state lost", hits)
	}
}

func TestLoadStateValidation(t *testing.T) {
	warm, _ := warmSystem(t, 2)
	var buf bytes.Buffer
	if err := warm.SaveState(&buf); err != nil {
		t.Fatal(err)
	}
	// Wrong database configuration must be rejected.
	other, err := Open(Options{TPCH: tpch.Config{Scale: 1000, Seed: 5}, Online: onlineForTest()})
	if err != nil {
		t.Fatal(err)
	}
	if err := other.LoadState(bytes.NewReader(buf.Bytes())); err == nil {
		t.Error("LoadState accepted state from a different database")
	}
	// Non-fresh system must be rejected.
	used, _ := warmSystem(t, 3)
	if err := used.LoadState(bytes.NewReader(buf.Bytes())); err == nil {
		t.Error("LoadState accepted a non-fresh system")
	}
	// Garbage must not be an error: the System degrades to a cold learner
	// and reports the corruption.
	fresh, err := Open(Options{TPCH: tpch.Config{Scale: 2000, Seed: 5}, Online: onlineForTest()})
	if err != nil {
		t.Fatal(err)
	}
	if err := fresh.LoadState(bytes.NewReader([]byte("not a state"))); err != nil {
		t.Errorf("LoadState on garbage must degrade, not fail: %v", err)
	}
	rep := fresh.LoadStateReport()
	if rep == nil || !rep.Corrupt {
		t.Errorf("corruption not reported: %+v", rep)
	}
}

func TestRestoredPredictionsIdentical(t *testing.T) {
	// Predictions of a restored learner must be bit-identical to the
	// original's (the transforms regenerate from the persisted seed).
	warm, _ := warmSystem(t, 4)
	var buf bytes.Buffer
	if err := warm.SaveState(&buf); err != nil {
		t.Fatal(err)
	}
	cold, err := Open(Options{TPCH: tpch.Config{Scale: 2000, Seed: 5}, Online: onlineForTest()})
	if err != nil {
		t.Fatal(err)
	}
	if err := cold.LoadState(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	tmpl, _ := warm.Template("Q1")
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 100; i++ {
		point := []float64{rng.Float64(), rng.Float64()}
		inst, err := warm.Optimizer().InstanceAt(tmpl, point)
		if err != nil {
			t.Fatal(err)
		}
		a, err := warm.Run("Q1", inst.Values)
		if err != nil {
			t.Fatal(err)
		}
		b, err := cold.Run("Q1", inst.Values)
		if err != nil {
			t.Fatal(err)
		}
		// Both systems evolve as they run; compare the executed results,
		// which must agree regardless of plan choice.
		if len(a.Result.Rows) != len(b.Result.Rows) {
			t.Fatalf("row count diverged at %d: %d vs %d", i, len(a.Result.Rows), len(b.Result.Rows))
		}
		if len(a.Result.Rows) > 0 && a.Result.Rows[0][1].Num != b.Result.Rows[0][1].Num {
			t.Fatalf("results diverged at %d", i)
		}
	}
}

// A learner's saved state carries its own shape, and a restore adopts it
// whatever the restoring System was configured with: state saved with seven
// transforms loads cleanly into a default System, whose pooled predict
// scratch was sized for five, and every run after it is served, none
// degraded.
func TestRestoreOtherTransformCount(t *testing.T) {
	online := onlineForTest()
	online.Core.Transforms = 7
	warm, values := warmSystemWith(t, 6, online)
	var buf bytes.Buffer
	if err := warm.SaveState(&buf); err != nil {
		t.Fatal(err)
	}
	cold, err := Open(Options{TPCH: tpch.Config{Scale: 2000, Seed: 5}})
	if err != nil {
		t.Fatal(err)
	}
	if err := cold.LoadState(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	if rep := cold.LoadStateReport(); rep.Corrupt || len(rep.ColdTemplates) != 0 || rep.Templates != 2 {
		t.Fatalf("restore report %+v, want both templates warm and no damage", rep)
	}
	for i, vals := range values[:50] {
		res, err := cold.Run("Q1", vals)
		if err != nil {
			t.Fatalf("run %d after restore: %v", i, err)
		}
		if res.Degraded {
			t.Fatalf("run %d after restore degraded", i)
		}
	}
}

// TestRestoreIntoSmallerCache: a snapshot saved under a large CacheCapacity
// restores into a System with a small one within that System's bound,
// keeping the saver's most recent plans — and stays within it. The cache is
// the only plan index, so a run can only be a CacheHit on a plan the cache
// holds when the run returns.
func TestRestoreIntoSmallerCache(t *testing.T) {
	const small = 4
	opts := Options{
		TPCH:          tpch.Config{Scale: 1000, Seed: 5},
		Online:        onlineForTest(),
		FeedbackQueue: -1, // single goroutine, deterministic
	}
	// Nine templates, in bursts of 20 runs so that a small cache still sees
	// hits, over a neighborhood wide enough for several plans each.
	workload := func(sys *System, n int, seed int64, each func(st *templateState, res *RunResult)) {
		t.Helper()
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < n; i++ {
			name := queries.Defs[i/20%len(queries.Defs)].Name
			st, err := sys.lookup(name)
			if err != nil {
				t.Fatal(err)
			}
			point := make([]float64, st.tmpl.Degree())
			for j := range point {
				point[j] = 0.1 + rng.Float64()*0.5
			}
			inst, err := sys.Optimizer().InstanceAt(st.tmpl, point)
			if err != nil {
				t.Fatal(err)
			}
			res, err := sys.Run(name, inst.Values)
			if err != nil {
				t.Fatal(err)
			}
			if each != nil {
				each(st, res)
			}
		}
	}

	big, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := big.RegisterStandard(); err != nil {
		t.Fatal(err)
	}
	workload(big, 1800, 1, nil)
	saved := cachedPlanIDs(big)
	if len(saved) < 4*small {
		t.Fatalf("saver caches only %d plans; test is vacuous", len(saved))
	}
	var snap bytes.Buffer
	if err := big.SaveState(&snap); err != nil {
		t.Fatal(err)
	}

	opts.CacheCapacity = small
	sys, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.LoadState(&snap); err != nil {
		t.Fatal(err)
	}
	if rep := sys.LoadStateReport(); rep.Corrupt || rep.Plans != len(saved) {
		t.Fatalf("restore report %+v, want %d plans and no damage", rep, len(saved))
	}
	if got, want := cachedPlanIDs(sys), saved[len(saved)-small:]; !reflect.DeepEqual(got, want) {
		t.Fatalf("restored cache = %v, want the saver's %d most recent plans %v", got, small, want)
	}
	hits := 0
	workload(sys, 400, 2, func(st *templateState, res *RunResult) {
		if n := len(cachedPlans(sys)); n > small {
			t.Fatalf("cache holds %d plans, capacity %d", n, small)
		}
		if !res.CacheHit {
			return
		}
		hits++
		if sys.cachedPlanOf(st, res.PlanID) == nil {
			t.Errorf("run on %s reported a CacheHit on plan %d, which the cache does not hold", res.Template, res.PlanID)
		}
	})
	t.Logf("saver cached %d plans; %d of 400 runs after the restore were cache hits", len(saved), hits)
	if hits == 0 {
		t.Fatal("no run after the restore was a cache hit; test is vacuous")
	}
	if snapm, err := sys.MetricsSnapshot(); err != nil {
		t.Fatal(err)
	} else if snapm.Cache.Evictions < uint64(len(saved)-small) {
		t.Errorf("metrics count %d evictions, the restore alone made %d", snapm.Cache.Evictions, len(saved)-small)
	}
}

// TestSnapshotRoundTripIsByteIdentical: the one snapshot is a fixed point.
// A trained multi-template System with a full cache saves, restores into a
// fresh System and saves again to the same bytes. The same snapshot
// restored on a leader and installed on a replica yields byte-equal learner
// state per template. Every restored plan comes back compiled, and the
// first run at a trained point is a cache hit.
func TestSnapshotRoundTripIsByteIdentical(t *testing.T) {
	online := onlineForTest()
	online.InvocationProb = 1e-9 // no random audits: a warm point is a hit
	opts := Options{
		TPCH: tpch.Config{Scale: 2000, Seed: 5}, Online: online, FeedbackQueue: -1, CacheCapacity: 6,
	}
	warm, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	names := []string{"Q0", "Q1", "Q2", "Q3"}
	for _, name := range names {
		if err := warm.Register(name, mustSQL(t, name)); err != nil {
			t.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(3))
	probes := make(map[string][]float64)
	for i := 0; i < 240+len(names); i++ {
		name := names[i%len(names)]
		tmpl, _ := warm.Template(name)
		point := make([]float64, tmpl.Degree())
		for j := range point {
			point[j] = 0.25 + 0.1*rng.Float64()
			if i >= 240 {
				point[j] = 0.3
			}
		}
		inst, err := warm.Optimizer().InstanceAt(tmpl, point)
		if err != nil {
			t.Fatal(err)
		}
		res, err := warm.Run(name, inst.Values)
		if err != nil {
			t.Fatal(err)
		}
		if i >= 240 {
			if !res.CacheHit {
				t.Fatalf("%s misses at its trained point before the save; the test is vacuous", name)
			}
			probes[name] = inst.Values
		}
	}
	if warm.CacheLen() != opts.CacheCapacity {
		t.Fatalf("the saver caches %d of %d plans; the cache is not full", warm.CacheLen(), opts.CacheCapacity)
	}
	var first bytes.Buffer
	if err := warm.SaveState(&first); err != nil {
		t.Fatal(err)
	}

	leader, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := leader.LoadState(bytes.NewReader(first.Bytes())); err != nil {
		t.Fatal(err)
	}
	if rep := leader.LoadStateReport(); rep.Corrupt || rep.Templates != len(names) || rep.Plans != opts.CacheCapacity {
		t.Fatalf("restore report %+v", rep)
	}
	var second bytes.Buffer
	if err := leader.SaveState(&second); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Fatalf("SaveState → LoadState → SaveState moved the bytes (%d → %d)", first.Len(), second.Len())
	}

	snap, err := netproto.ReadSnapshotFile(bytes.NewReader(first.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	rs := replica.NewState(nil)
	if err := rs.Install(snap); err != nil {
		t.Fatal(err)
	}
	for _, name := range names {
		learnerParity(t, leader, rs, name)
	}

	for _, entry := range cachedPlans(leader) {
		if entry.prog == nil || entry.rebind == nil {
			t.Errorf("restored plan %d (%s) is not compiled", entry.id, entry.plan.Fingerprint)
		}
	}
	for _, name := range names {
		res, err := leader.Run(name, probes[name])
		if err != nil {
			t.Fatal(err)
		}
		if !res.CacheHit || res.Invoked {
			t.Errorf("%s: first run at a trained point after restore: hit=%v invoked=%v", name, res.CacheHit, res.Invoked)
		}
	}
}

// A checkpoint whose learner state is checksummed but declares more than it
// holds — one transform whose marginal declares 2^20 buckets, or 2^14
// transforms — restores that template cold through LoadState and names it,
// while the other template restores warm.
func TestLoadStateDegradesOverdeclaredLearner(t *testing.T) {
	warm, _ := warmSystem(t, 4)
	defer warm.Close() //nolint:errcheck
	var saved bytes.Buffer
	if err := warm.SaveState(&saved); err != nil {
		t.Fatal(err)
	}
	// overdeclared keeps Q1's saved config block (85 bytes), declares the
	// transform count in it and after it, and ends in one histogram header
	// (33 bytes) declaring the bucket count, padded to the least one
	// transform takes.
	overdeclared := func(state []byte, transforms, buckets uint32) []byte {
		le := binary.LittleEndian
		body := append([]byte(nil), synopsisBody(state)[:85]...)
		le.PutUint64(body[16:], uint64(transforms))
		le.PutUint32(body[81:], transforms)
		// The histogram: version, max buckets, lo 0, hi 1, total 0, buckets.
		body = le.AppendUint32(append(body, 1), buckets)
		body = le.AppendUint64(le.AppendUint64(le.AppendUint64(body, 0), math.Float64bits(1)), 0)
		body = le.AppendUint32(body, buckets)
		return frameSynopsis(append(body, make([]byte, 36)...))
	}
	for name, counts := range map[string][2]uint32{"2^20 buckets": {1, 1 << 20}, "2^14 transforms": {1 << 14, 1}} {
		t.Run(name, func(t *testing.T) {
			snap, err := netproto.ReadSnapshotFile(bytes.NewReader(saved.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			if snap.Templates[1].Name != "Q1" {
				t.Fatalf("the checkpoint's second template is %q, want Q1", snap.Templates[1].Name)
			}
			snap.Templates[1].State = overdeclared(snap.Templates[1].State, counts[0], counts[1])
			file, err := netproto.AppendSnapshotFile(nil, snap)
			if err != nil {
				t.Fatal(err)
			}
			cold, err := Open(Options{TPCH: tpch.Config{Scale: 2000, Seed: 5}, Online: onlineForTest()})
			if err != nil {
				t.Fatal(err)
			}
			defer cold.Close() //nolint:errcheck
			if err := cold.LoadState(bytes.NewReader(file)); err != nil {
				t.Fatalf("LoadState must degrade, not fail: %v", err)
			}
			rep := cold.LoadStateReport()
			if !rep.Corrupt || !strings.Contains(rep.Reason, "template Q1 synopsis") || !strings.Contains(rep.Reason, "declared") ||
				!reflect.DeepEqual(rep.ColdTemplates, []string{"Q1"}) || rep.Templates != 1 {
				t.Fatalf("report %+v, want Q1 cold and named, Q0 restored", rep)
			}
		})
	}
}

// TestRestoredLearnersKeepTheirDegree: no restore installs a learner whose
// dimensionality differs from its template's degree, so a run's point
// always fits its learner and a degraded run's label is never rejected
// (the reason counters.retrain_drops left the metrics with ppc-metrics/v6).
// The learner is sized to the degree at Register. LoadState of a checkpoint
// whose Q1 learner was saved under a two-parameter Q1 but whose SQL now
// binds one (a constant in place of the other, so the predicate sites and
// with them the saved corrections still fit) restores Q1 cold at degree 1,
// refused by the learner's own dimensionality check; a durable restart
// handed Q1 with a third parameter replays none of its old two-coordinate
// points (TestDurableReshapedTemplateReplay's scenario, held here to the
// learner's shape).
func TestRestoredLearnersKeepTheirDegree(t *testing.T) {
	const narrowed = `SELECT s.s_suppkey, COUNT(*)
		FROM supplier s, lineitem l
		WHERE l.l_suppkey = s.s_suppkey AND s.s_date <= ? AND l.l_partkey <= 5000
		GROUP BY s.s_suppkey`
	const reshaped = `SELECT s.s_suppkey, COUNT(*)
		FROM supplier s, lineitem l
		WHERE l.l_suppkey = s.s_suppkey AND s.s_date <= ? AND l.l_partkey <= ? AND l.l_shipdate <= ?
		GROUP BY s.s_suppkey`
	fits := func(t *testing.T, sys *System, name string, degree int) {
		t.Helper()
		st, err := sys.lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		if got := st.online.Predictor().Config().Dims; st.tmpl.Degree() != degree || got != degree {
			t.Fatalf("%s: degree %d, learner dims %d; want both %d", name, st.tmpl.Degree(), got, degree)
		}
		point := make([]float64, degree)
		for i := range point {
			point[i] = 0.3
		}
		inst, err := sys.Optimizer().InstanceAt(st.tmpl, point)
		if err != nil {
			t.Fatal(err)
		}
		if res, err := sys.Run(name, inst.Values); err != nil || res.Degraded {
			t.Fatalf("%s: a run after the restore failed (%v) or degraded", name, err)
		}
	}

	t.Run("LoadState", func(t *testing.T) {
		warm, _ := warmSystem(t, 4)
		defer warm.Close() //nolint:errcheck
		var saved bytes.Buffer
		if err := warm.SaveState(&saved); err != nil {
			t.Fatal(err)
		}
		snap, err := netproto.ReadSnapshotFile(bytes.NewReader(saved.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		if snap.Templates[1].Name != "Q1" {
			t.Fatalf("the checkpoint's second template is %q, want Q1", snap.Templates[1].Name)
		}
		snap.Templates[1].SQL = narrowed
		file, err := netproto.AppendSnapshotFile(nil, snap)
		if err != nil {
			t.Fatal(err)
		}
		cold, err := Open(Options{TPCH: tpch.Config{Scale: 2000, Seed: 5}, Online: onlineForTest()})
		if err != nil {
			t.Fatal(err)
		}
		defer cold.Close() //nolint:errcheck
		if err := cold.LoadState(bytes.NewReader(file)); err != nil {
			t.Fatalf("LoadState must degrade, not fail: %v", err)
		}
		if rep := cold.LoadStateReport(); !rep.Corrupt || !strings.Contains(rep.Reason, "2 dims, driver expects 1") ||
			!reflect.DeepEqual(rep.ColdTemplates, []string{"Q1"}) {
			t.Fatalf("report %+v, want Q1 cold for its learner's dimensionality", rep)
		}
		fits(t, cold, "Q0", 2)
		fits(t, cold, "Q1", 1)
	})

	t.Run("replay into a reshaped Register", func(t *testing.T) {
		dir := t.TempDir()
		sys := openDurable(t, dir, nil)
		defer sys.Close() //nolint:errcheck
		runDurableWorkload(t, sys, 100, 3)
		if _, err := sys.TemplateMetrics("Q1"); err != nil { // flush the applier
			t.Fatal(err)
		}
		rec, err := Open(durableOptions(crashImage(t, dir), nil))
		if err != nil {
			t.Fatal(err)
		}
		defer rec.Close() //nolint:errcheck
		if err := rec.Register("Q1", reshaped); err != nil {
			t.Fatal(err)
		}
		points, _, _ := logTail(mustScan(t, dir), "Q1")
		st, err := rec.lookup("Q1")
		if err != nil {
			t.Fatal(err)
		}
		if rep := rec.LoadStateReport(); points == 0 || rep.WALStale < points || st.online.Validated() != 0 {
			t.Fatalf("replay into the reshaped Q1: %d stale, %d validated; want all %d old points stale", rep.WALStale, st.online.Validated(), points)
		}
		fits(t, rec, "Q1", 3)
	})
}
