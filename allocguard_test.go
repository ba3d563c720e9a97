package ppc_test

// The allocation guards turn an allocation contract into a failing test
// instead of a benchmark number someone has to remember to read. Most run a
// Benchmark body of bench_suite_test.go under testing.Benchmark.

import (
	"go/ast"
	"go/parser"
	"go/token"
	"math/rand"
	"os"
	"os/exec"
	"path"
	"slices"
	"strings"
	"testing"

	ppc "repro"
	"repro/internal/core"
	"repro/internal/stats"
	"repro/internal/wal"
)

// guarded is one Benchmark body an allocation guard measures.
type guarded struct {
	name string
	body func(*testing.B)
}

// checkAllocs runs each body under testing.Benchmark and fails t for every
// one that allocates more than budget times per op. The guards skip under
// the race detector, whose shadow-memory bookkeeping shows up in the
// allocation counters, and in -short, since each body is a full benchmark.
func checkAllocs(t *testing.T, budget int64, bodies ...guarded) {
	t.Helper()
	if raceEnabled {
		t.Skip("race detector's shadow memory inflates allocation counts")
	}
	if testing.Short() {
		t.Skip("allocation guard runs full benchmarks; skipped in -short")
	}
	for _, g := range bodies {
		r := testing.Benchmark(g.body)
		if r.N == 0 {
			t.Fatalf("%s produced no iterations (setup failure?)", g.name)
		}
		t.Logf("%s: %d allocs/op (%d B/op)", g.name, r.AllocsPerOp(), r.AllocedBytesPerOp())
		if r.AllocsPerOp() > budget {
			t.Errorf("%s allocates past its budget of %d allocs/op", g.name, budget)
		}
	}
}

// TestServingPathZeroAlloc holds the serving path at zero allocations:
// the predictor's steady-state predict and insert, made allocation-free by
// per-predictor scratch buffers. WALAppend runs under the learner's write
// lock, so an allocation there would stall the feedback path the same way a
// predictor allocation would stall serving. ReplicaPredict is here because
// a follower exists to absorb read load, so its serving path carries the
// same contract as the leader's. PredictModelManyPlans' scratch is sized by
// the model's plan count, so it is the entry that would show a per-plan
// allocation. RebindRecost is here because a rebind program resolves its
// statistics handles when it is compiled and walks the cached plan in place
// — there is no pooled private tree — so costing a hit may not allocate,
// and binding cannot hide a per-run allocation.
func TestServingPathZeroAlloc(t *testing.T) {
	checkAllocs(t, 0,
		guarded{"PredictApproxLSHHist", BenchmarkPredictApproxLSHHist},
		guarded{"PredictModelSnapshot", BenchmarkPredictModelSnapshot},
		guarded{"PredictModelManyPlans", BenchmarkPredictModelManyPlans},
		guarded{"InsertApproxLSHHist", BenchmarkInsertApproxLSHHist},
		guarded{"WALAppend", BenchmarkWALAppend},
		guarded{"ReplicaPredict", BenchmarkReplicaPredict},
		guarded{"RebindRecost", BenchmarkRebindRecost},
	)
}

// TestRunPathAllocBudget holds the full Run path to its allocation budget:
// at most 10 allocs/op end to end (predict, rebind, batched execute, result
// materialization), down from ~6,800 in the per-row executor. The measured
// steady state is 6 allocs/op — the plan space point, the run and its
// result, and the executed result's three — so the slack absorbs arena
// growth, snapshot publications and scheduler noise, while a single
// allocation per row or per batch in an executor kernel — thousands per
// run — fails it.
func TestRunPathAllocBudget(t *testing.T) {
	checkAllocs(t, 10, guarded{"EndToEndRun", BenchmarkEndToEndRun})
}

// TestMissPathAllocBudget holds the Run path most miss_optimize runs take —
// NULL predict, OptimizeMemo, naming or interning the winner, execute,
// feedback — to 50 allocs/op. The measured steady state is 28–31 on a
// 2-vCPU host (the run, its point and result, the executed result's
// allocations, and the amortized model publishes and first-sight compiles
// of a learner that is still absorbing misses), so the slack absorbs
// publish timing and scheduler noise, while one allocation per DP entry or
// per join candidate — hundreds per optimization — fails it.
func TestMissPathAllocBudget(t *testing.T) {
	checkAllocs(t, 50, guarded{"MissPathRun", BenchmarkMissPathRun})
}

// TestDurableApplyAllocBudget holds the whole durable write path — learner
// → the facade's per-template sink → wal.Log — to what it allocated before
// the three logger interfaces became one seam: 57 allocations for a batch of
// eight points, all of them the in-memory apply's (histogram growth and the
// snapshot publication; this tree measures 49). The records handed to the
// log live in a field under the learner's lock, so logging adds none: a
// durable batch allocates exactly what the same batch allocates with no log
// attached, whether it carries points alone or points and three runs'
// correction observations (folded and logged once per touched site).
// WALAppend in the zero-alloc guard covers only a bare wal.Log.Append.
func TestDurableApplyAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector's shadow memory inflates allocation counts")
	}
	log, _, err := wal.Open(wal.Options{Dir: t.TempDir(), Sync: wal.SyncInterval, SegmentBytes: 1 << 40})
	if err != nil {
		t.Fatal(err)
	}
	defer log.Close() //nolint:errcheck
	rng := rand.New(rand.NewSource(3))
	batch := make([]core.Feedback, 8)
	for i := range batch {
		batch[i] = core.Feedback{Point: []float64{rng.Float64(), rng.Float64()}, Plan: i % 3, Cost: 10 + float64(i)}
	}
	obs := make([]stats.Obs, 3*4) // three runs over a four-site template
	for i := range obs {
		obs[i] = stats.Obs{Site: 1 + i%4, LogQ: rng.NormFloat64()}
	}
	measure := func(sink wal.Appender, obs []stats.Obs) float64 {
		o, err := core.NewOnline(core.OnlineConfig{Core: core.Config{Dims: 2, Radius: 0.05, Seed: 5}}, nil)
		if err != nil {
			t.Fatal(err)
		}
		o.AttachCorrections(stats.NewCorrections(4))
		o.AttachLog(sink)
		for i := 0; i < 300; i++ { // past histogram warm-up
			o.ApplyBatch(batch, obs)
		}
		return testing.AllocsPerRun(500, func() { o.ApplyBatch(batch, obs) })
	}
	for _, arm := range []struct {
		name string
		obs  []stats.Obs
	}{{"points", nil}, {"points and observations", obs}} {
		before := log.LastSeq()
		durable, inMemory := measure(ppc.TemplateLog(log, "Q1"), arm.obs), measure(nil, arm.obs)
		if logged := log.LastSeq() - before; logged == 0 || (arm.obs != nil && logged < 800*4) {
			t.Fatalf("%s: the durable arm logged %d records; the guard is vacuous", arm.name, logged)
		}
		t.Logf("ApplyBatch of %d %s: %.0f allocs durable, %.0f in memory", len(batch), arm.name, durable, inMemory)
		if durable > 57 {
			t.Errorf("a durable ApplyBatch of %d %s allocates %.0f times, budget 57", len(batch), arm.name, durable)
		}
		if durable > inMemory {
			t.Errorf("logging adds %.0f allocations to an ApplyBatch of %d %s, want none", durable-inMemory, len(batch), arm.name)
		}
	}
}

// TestCommandsLinkNoBenchHarness keeps test code in _test.go files: no
// non-test package of the module imports the testing package, so no
// shipped binary links it or a benchmark harness built on it. The
// two serving binaries are held tighter: what they link of repro/internal
// is exactly the literal set below, so a new dependency fails here and the
// set can only shrink; and they link no reflected gob codec, since
// checkpoints and the wire share one hand-written snapshot codec. The
// paper's offline evaluation stays offline: the bench module links neither
// internal/experiments nor internal/baselines, and no non-test package but
// internal/experiments imports internal/baselines. The durability protocol
// stays in core: internal/stats, whose corrections core's learner logs,
// links no internal/wal.
func TestCommandsLinkNoBenchHarness(t *testing.T) {
	goList := func(args ...string) string {
		t.Helper()
		out, err := exec.Command("go", append([]string{"list"}, args...)...).CombinedOutput()
		if err != nil {
			t.Fatalf("go list %v: %v\n%s", args, err, out)
		}
		return string(out)
	}
	deps := func(patterns ...string) []string {
		return strings.Fields(goList(append([]string{"-deps"}, patterns...)...))
	}
	for _, pkg := range strings.Fields(goList("-C", "bench", "-deps", ".")) {
		if pkg == "repro/internal/experiments" || pkg == "repro/internal/baselines" {
			t.Errorf("the bench module links %s", pkg)
		}
	}
	for _, line := range strings.Split(strings.TrimSpace(goList("-f", "{{.ImportPath}}{{range .Imports}} {{.}}{{end}}", "./...")), "\n") {
		pkg, imports, _ := strings.Cut(line, " ")
		if pkg != "repro/internal/experiments" && slices.Contains(strings.Fields(imports), "repro/internal/baselines") {
			t.Errorf("%s imports repro/internal/baselines; only internal/experiments may", pkg)
		}
		if slices.Contains(strings.Fields(imports), "testing") {
			t.Errorf("%s imports testing; test code belongs in _test.go files", pkg)
		}
	}
	if slices.Contains(deps("./internal/stats"), "repro/internal/wal") {
		t.Error("internal/stats links repro/internal/wal; logging its corrections is core's")
	}

	serving := map[string]bool{
		"catalog":   true,
		"core":      true,
		"disk":      true, // the WAL's and the checkpoint's file seam; disk/simdisk is tests' only
		"executor":  true,
		"faults":    true,
		"geom":      true,
		"histogram": true,
		"lsh":       true,
		"metrics":   true,
		"netproto":  true,
		"obsv":      true,
		"optimizer": true,
		"plancache": true,
		"queries":   true,
		"replica":   true,
		"sqlparse":  true,
		"stats":     true,
		"tpch":      true,
		"wal":       true,
		"workload":  true, // ROADMAP 2(1): ppcserve's built-in load generator
		"zorder":    true,
	}
	linked := map[string]bool{}
	for _, pkg := range deps("./cmd/ppcserve", "./cmd/ppcreplica") {
		if path.Base(pkg) == "gob" {
			t.Errorf("a serving binary links %s", pkg)
		}
		if name, ok := strings.CutPrefix(pkg, "repro/internal/"); ok {
			linked[name] = true
			if !serving[name] {
				t.Errorf("a serving binary links repro/internal/%s, which is not on the allow-list", name)
			}
		}
	}
	for name := range serving {
		if !linked[name] {
			t.Errorf("repro/internal/%s is on the allow-list but no serving binary links it: take it off", name)
		}
	}
}

// TestFacadeOnePathPerJob keeps the serving path to one implementation per
// job, read off the root package's non-test source: a Run works at the
// values its caller bound, so nothing here inverts a plan space point
// (InstanceAt is for workload generators); there is one site that invokes
// the optimizer (run.optimize) and nothing named after a candidate plan set
// beside it; the plan cache is the only plan index; and a template's metrics
// are assembled in one place, which MetricsSnapshot and TemplateMetrics both
// go through — the Stats / Health shapes hand-copied from the same learner
// left with ppc-metrics/v1 and stay out. A run hands its learner one
// message: Run calls templateState.send once, and send holds the one
// channel send (the mailbox's wake token) and the one call of the learner's
// fold (core.Online.TryObserve), the only learner write a serving
// goroutine makes outside a deferred apply.
func TestFacadeOnePathPerJob(t *testing.T) {
	pkgs, err := parser.ParseDir(token.NewFileSet(), ".", func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	pkg := pkgs["ppc"]
	if pkg == nil {
		t.Fatalf("no package ppc among %v", pkgs)
	}
	calls := map[string]int{}
	idents := map[string]int{}
	// assembles[f] counts f's calls of the one assembler, templateState.metrics;
	// builds counts the functions that fill in a TemplateMetrics literal.
	assembles := map[string]int{}
	// optimizeSites[f] counts f's calls of the optimizer.
	optimizeSites := map[string]int{}
	var builds []string
	// sends names the function of each channel send, senders each caller of
	// templateState.send, folders each caller of the fold.
	var sends, senders, folders []string
	ast.Inspect(pkg, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if sel, ok := n.Fun.(*ast.SelectorExpr); ok {
				calls[sel.Sel.Name]++
			}
		case *ast.Ident:
			idents[n.Name]++
		case *ast.FuncDecl:
			if n.Name.Name == "Stats" || n.Name.Name == "Health" {
				t.Errorf("func %s: TemplateMetrics is the one per-template read", n.Name.Name)
			}
			ast.Inspect(n, func(m ast.Node) bool {
				switch m := m.(type) {
				case *ast.CallExpr:
					if sel, ok := m.Fun.(*ast.SelectorExpr); ok {
						switch sel.Sel.Name {
						case "metrics":
							assembles[n.Name.Name]++
						case "OptimizeMemoHeld":
							optimizeSites[n.Name.Name]++
						case "send":
							senders = append(senders, n.Name.Name)
						case "TryObserve":
							folders = append(folders, n.Name.Name)
						}
					}
				case *ast.CompositeLit:
					if id, ok := m.Type.(*ast.Ident); ok && id.Name == "TemplateMetrics" && len(m.Elts) > 0 {
						builds = append(builds, n.Name.Name)
					}
				case *ast.SendStmt:
					sends = append(sends, n.Name.Name)
				}
				return true
			})
		case *ast.TypeSpec:
			switch n.Name.Name {
			case "Stats", "Health":
				t.Errorf("type %s: a template's numbers have one shape, TemplateMetrics", n.Name.Name)
			}
		}
		return true
	})
	// Spelled in halves, like the old index above.
	for _, gone := range []string{"Template" + "Stats", "Template" + "Health"} {
		if n := idents[gone]; n != 0 {
			t.Errorf("identifier %s occurs %d times: TemplateMetrics is the one per-template read", gone, n)
		}
	}
	for _, f := range []string{"MetricsSnapshot", "TemplateMetrics"} {
		if assembles[f] != 1 {
			t.Errorf("%s calls templateState.metrics %d times, want exactly 1: one assembler", f, assembles[f])
		}
	}
	if len(builds) != 1 || builds[0] != "metrics" {
		t.Errorf("TemplateMetrics values are filled in by %v, want only by templateState.metrics", builds)
	}
	if n := calls["InstanceAt"]; n != 0 {
		t.Errorf("%d calls of InstanceAt on the facade, want 0: a run serves the values it was given", n)
	}
	if n := calls["OptimizeMemoHeld"]; n != 1 || optimizeSites["optimize"] != 1 {
		t.Errorf("%d calls of OptimizeMemoHeld on the facade (in %v), want exactly 1, in run.optimize", n, optimizeSites)
	}
	for _, other := range []string{"OptimizeMemo", "Optimize"} {
		if n := calls[other]; n != 0 {
			t.Errorf("%d calls of %s on the facade, want 0: run.optimize's OptimizeMemoHeld is the one optimizer call", n, other)
		}
	}
	// The label has no route of its own beside the run's one message.
	if len(sends) != 1 || sends[0] != "send" {
		t.Errorf("channel sends in %v, want exactly one, in templateState.send", sends)
	}
	if len(senders) != 1 || senders[0] != "Run" {
		t.Errorf("templateState.send called from %v, want once, from Run", senders)
	}
	if len(folders) != 1 || folders[0] != "send" {
		t.Errorf("core.Online.TryObserve called from %v, want once, from templateState.send", folders)
	}
	if n := idents["Deliver"]; n != 0 {
		t.Errorf("identifier Deliver occurs %d times: a run's label rides its one message", n)
	}
	// Spelled in two halves so that a grep for the old index's name over the
	// tree's Go files comes back empty.
	old := "plan" + "ByID"
	if n := idents[old]; n != 0 {
		t.Errorf("identifier %s occurs %d times: the plan cache is the only plan index", old, n)
	}
	// The optimize site has no second answerer: precomputed plan sets that
	// stood in for the optimizer left the tree (ROADMAP 4(4)).
	for name := range idents {
		if lower := strings.ToLower(name); strings.HasPrefix(lower, "cand") || strings.Contains(lower, "candidate") {
			t.Errorf("identifier %s: only the optimizer answers run.optimize", name)
		}
	}
}
