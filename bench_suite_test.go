package ppc_test

// The serving-path benchmarks, at three granularities: the predictor in
// isolation (Predict and Insert on the LSH+histogram synopsis, a frozen
// model snapshot, a replica), the facade's full Run path on one template,
// and the same Run path serialized vs. parallel across a mixed-template
// workload — the last pair is what the sharded lock design is for, and
// until bench/ sweeps GOMAXPROCS it is the only scaling measurement. A
// hit's recost, a WAL append and opening a System complete the set.
//
// The allocation guards (allocguard_test.go) run nine of these bodies under
// testing.Benchmark, and `make profile` profiles EndToEndRun, MissPathRun
// and Open. Timings are for working with on one host; the benchmark that
// compares two builds is bench/.
//
//	go test -bench='Run|ApproxLSHHist' -benchmem
//	go test -bench=BenchmarkRunParallel -cpu 4

import (
	"os"
	"sync"
	"sync/atomic"
	"testing"

	ppc "repro"
	"repro/internal/core"
	"repro/internal/optimizer"
	"repro/internal/queries"
	"repro/internal/tpch"
	"repro/internal/wal"
	"repro/internal/workload"
)

// BenchmarkPredictApproxLSHHist measures one plan-cache lookup decision,
// asked of the live predictor, which answers through its cached frozen
// Model and per-predictor scratch buffers — allocation-free between
// mutations. Its cost is constant in the sample count (Table I) but not in
// the plan count: at most one binary search per (transform, plan) block,
// O(t·n·log b_h) for n plans, and only the blocks of plans their peak
// bounds do not rule out are searched. On this 2-plan model that is all of
// them; on BenchmarkPredictModelManyPlans' several dozen, a fraction.
func BenchmarkPredictApproxLSHHist(b *testing.B) {
	q1 := mustTrain(b, trainedQ1)
	hist := q1.on.Predictor()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hist.Predict(q1.tests[i%len(q1.tests)])
	}
}

// BenchmarkPredictModelSnapshot measures the lock-free serving path in
// isolation: Predict against an immutable frozen Model snapshot with a
// pooled scratch buffer, exactly as Online.StepConcurrent serves it. Like
// BenchmarkPredictApproxLSHHist it must stay allocation-free — the pool
// amortizes the scratch allocation away in steady state.
func BenchmarkPredictModelSnapshot(b *testing.B) {
	q1 := mustTrain(b, trainedQ1)
	hist := q1.on.Predictor()
	model := hist.Freeze()
	cfg := hist.Config()
	pool := sync.Pool{New: func() any { return core.NewPredictScratch(cfg) }}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sc := pool.Get().(*core.PredictScratch)
		model.PredictWithCost(q1.tests[i%len(q1.tests)], sc)
		pool.Put(sc)
	}
}

// BenchmarkPredictModelManyPlans is BenchmarkPredictModelSnapshot on a
// model the size the miss path serves: Q8 (a five-way join) labeled at
// uniform plan-space points, so the snapshot holds several dozen plans,
// most of them noise at any one point — ruled out by their blocks' peak
// bounds, or by the first searches that come back under the noise floor.
// The 2-plan Q1 model measures the fixed cost of a prediction; this one
// measures the per-plan cost, which is what a NULL prediction on a
// multi-join template pays. It reports the share of its predictions that
// are NULL as null/op.
func BenchmarkPredictModelManyPlans(b *testing.B) {
	q8 := mustTrain(b, trainedQ8)
	model := q8.on.Model()
	if model.Plans() < 40 {
		b.Fatalf("Q8 model has %d plans, want >= 40", model.Plans())
	}
	sc := core.NewPredictScratch(model.Config())
	nulls := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if pred, _, _ := model.PredictWithCost(q8.tests[i%len(q8.tests)], sc); !pred.OK {
			nulls++
		}
	}
	b.ReportMetric(float64(nulls)/float64(b.N), "null/op")
}

// BenchmarkInsertApproxLSHHist measures the online insertion path (Section
// IV-D feedback).
func BenchmarkInsertApproxLSHHist(b *testing.B) {
	tmpl := env().Templates["Q1"]
	hist := core.MustNewApproxLSHHist(core.Config{Dims: tmpl.Degree(), Seed: 5})
	points := workload.Uniform(tmpl.Degree(), 4096, 13)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := points[i%len(points)]
		hist.Insert(core.Sample{Point: p, Plan: i % 7, Cost: float64(i % 100)})
	}
}

// replicaQ1 ships the trained Q1 learner through the replication encoding
// — EncodeState (synopsis and counter trailer), decoded into a
// predict-only replica driver — so the three Q1 predict benchmarks (raw
// predictor, leader model snapshot, replica) read identical state.
var replicaQ1 = sync.OnceValues(func() (*core.Online, error) {
	q1, err := trainedQ1()
	if err != nil {
		return nil, err
	}
	return core.NewReplicaOnline(q1.on.EncodeState(nil))
})

// BenchmarkReplicaPredict measures one prediction on a replica built from
// shipped state bytes: PredictModel against the published snapshot,
// exactly what a follower serves between WAL records. It shares the
// zero-allocation contract with the leader's serving path — a replica
// exists to absorb read load, so an allocation here is as much a
// regression as one in BenchmarkPredictModelSnapshot. Catch-up time and
// record lag of a real leader/replica pair are bench/'s
// replica.catchup_ms and replica.lag_records_max.
func BenchmarkReplicaPredict(b *testing.B) {
	q1 := mustTrain(b, trainedQ1)
	on, err := replicaQ1()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		on.PredictModel(q1.tests[i%len(q1.tests)])
	}
}

// BenchmarkWALAppend measures the log's append path in isolation: encode
// one frame into the log's reused scratch buffer and write it to the
// current segment. It never calls Commit, so no fsync — that cost is
// Commit's, and bench/'s serve_durable workload pays it end to end. The
// append runs under the learner's write lock in production, so it must
// stay allocation-free.
func BenchmarkWALAppend(b *testing.B) {
	dir, err := os.MkdirTemp("", "ppcbench-walappend-")
	if err != nil {
		b.Fatal(err)
	}
	defer os.RemoveAll(dir) //nolint:errcheck
	log, _, err := wal.Open(wal.Options{Dir: dir, SegmentBytes: 1 << 40})
	if err != nil {
		b.Fatal(err)
	}
	defer log.Close() //nolint:errcheck
	rec := wal.Record{Epoch: 1, Template: "Q1", Plan: 3, Cost: 1.5, Point: []float64{0.25, 0.3}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := log.Append(&rec); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRebindRecost measures what a cache hit pays to cost its plan:
// one RebindProgram.Recost of a Q1 and of a Q8 plan (two and six
// parameters, one and seven joins) at steady-state values. The program
// binds its statistics handles when it is compiled and walks the cached
// plan in place, so a recost allocates nothing — it is part of the
// zero-alloc guard, which keeps binding from hiding a per-run allocation.
func BenchmarkRebindRecost(b *testing.B) {
	sys, _ := runEnv(b)
	opt := sys.Optimizer()
	var progs [2]*optimizer.RebindProgram
	var vals [2][][]float64
	for k, name := range [2]string{"Q1", "Q8"} {
		// Parsed afresh: Q8 is not among the templates the Run substrate
		// registers, and the optimizer binds a template at first use.
		tmpl, err := queries.ByName(name)
		if err != nil {
			b.Fatal(err)
		}
		points := workload.MustTrajectories(workload.TrajectoryConfig{
			Dims: tmpl.Degree(), NumPoints: 256, Sigma: 0.01, Seed: 3,
		})
		vals[k] = instanceValues(b, opt, tmpl, points, nil)
		plan, err := opt.Optimize(tmpl.Query, vals[k][0])
		if err != nil {
			b.Fatal(err)
		}
		if progs[k], err = opt.CompileRebind(tmpl.Query, plan); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := i & 1
		if _, err := progs[k].Recost(opt, vals[k][(i>>1)%len(vals[k])]); err != nil {
			b.Fatal(err)
		}
	}
}

// --- The Run path -----------------------------------------------------------

// BenchmarkEndToEndRun is the hit_exec shape: the facade's full Run path
// (predict or optimize, rebind, execute) alternating Q0 and Q1 on the
// benchmark's database (scale 1000, seed 2012) along trajectory paths of
// 100 points at sigma 0.02, each point run once — the mix bench/'s
// hit_exec workload gates, so that the profile `make profile` takes of it
// (run.cpu.pprof) ranks what the benchmark measures. Points come 1,000 per
// template at a time, drawn with the timer stopped; the first draw warms
// the learner and the plan cache untimed, as hit_exec's warm-up does. Each
// call opens its own System, so every measurement starts from the same
// state and draws the same points. TestRunPathAllocBudget holds it to its
// allocation budget.
func BenchmarkEndToEndRun(b *testing.B) {
	names := []string{"Q0", "Q1"}
	sys, tmpls := benchSystem(b, benchDB, names)
	defer sys.Close()
	const chunk = 1000
	values := make([][][]float64, len(names))
	draw := func(round int) {
		for k, tm := range tmpls {
			points := workload.MustTrajectories(workload.TrajectoryConfig{
				Dims: tm.Degree(), NumPoints: chunk, NumTrajectories: chunk / 100, Sigma: 0.02, Seed: int64(round*len(names) + k),
			})
			values[k] = instanceValues(b, sys.Optimizer(), tm, points, values[k][:0])
		}
	}
	run := func(i int) {
		k, j := i&1, i>>1
		if _, err := sys.Run(names[k], values[k][j%chunk]); err != nil {
			b.Fatal(err)
		}
	}
	draw(0)
	for i := 0; i < 2*chunk; i++ {
		run(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%(2*chunk) == 0 {
			b.StopTimer()
			draw(1 + i/(2*chunk))
			b.StartTimer()
		}
		run(i)
	}
}

// BenchmarkMissPathRun is the miss_optimize shape: Run on the multi-join
// templates at uniform plan-space points on the benchmark's database,
// where the learner rarely has a confident answer and nearly every run
// pays NULL-predict, OptimizeMemo, intern/compile and feedback. Every run
// gets a fresh point, drawn 512 per template at a time with the timer
// stopped: a pool cycled again is learned, and the share of runs that
// invoke the optimizer (reported as invoked/op, about miss_optimize's
// 0.93) would fall as -benchtime grows. Each call opens its own System, so
// every measurement starts cold and draws the same points. `make profile`
// profiles it beside BenchmarkEndToEndRun so a pass over the miss path
// starts from its own profile, not from the hit path's;
// TestMissPathAllocBudget holds it to its allocation budget.
func BenchmarkMissPathRun(b *testing.B) {
	names := []string{"Q3", "Q4", "Q8"}
	sys, tmpls := benchSystem(b, benchDB, names)
	defer sys.Close()
	const chunk = 512
	values := make([][][]float64, len(names))
	draw := func(round int) {
		for k, tm := range tmpls {
			values[k] = instanceValues(b, sys.Optimizer(), tm, workload.Uniform(tm.Degree(), chunk, int64(round*len(names)+k)), values[k][:0])
		}
	}
	invoked := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k, j := i%len(names), i/len(names)
		if k == 0 && j%chunk == 0 {
			b.StopTimer()
			draw(j / chunk)
			b.StartTimer()
		}
		res, err := sys.Run(names[k], values[k][j%chunk])
		if err != nil {
			b.Fatal(err)
		}
		if res.Invoked {
			invoked++
		}
	}
	b.ReportMetric(float64(invoked)/float64(b.N), "invoked/op")
}

// BenchmarkOpen is what a process pays before it serves — a ppcserve, a
// restarted leader, each bench workload's set-up: ppc.Open on the
// benchmark's database (generate, index, catalog) and RegisterStandard's
// nine templates. Nothing is shared between iterations, so each one opens
// cold. `make profile` profiles it into open.cpu.pprof and open.mem.pprof.
func BenchmarkOpen(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sys, err := ppc.Open(ppc.Options{TPCH: benchDB})
		if err != nil {
			b.Fatal(err)
		}
		if err := sys.RegisterStandard(); err != nil {
			b.Fatal(err)
		}
		if err := sys.Close(); err != nil {
			b.Fatal(err)
		}
	}
}

// benchDB is the benchmark's database, the one bench/'s workloads open.
var benchDB = tpch.Config{Scale: 1000, Seed: 2012}

// benchSystem opens a System on db with the named standard templates
// registered, and returns it with their templates in that order.
func benchSystem(b *testing.B, db tpch.Config, names []string) (*ppc.System, []*optimizer.Template) {
	b.Helper()
	sys, err := ppc.Open(ppc.Options{TPCH: db})
	if err != nil {
		b.Fatal(err)
	}
	tmpls := make([]*optimizer.Template, len(names))
	for k, name := range names {
		tm, err := queries.ByName(name)
		if err != nil {
			b.Fatal(err)
		}
		if err := sys.Register(name, tm.SQL); err != nil {
			b.Fatal(err)
		}
		if tmpls[k], err = sys.Template(name); err != nil {
			b.Fatal(err)
		}
	}
	return sys, tmpls
}

// instanceValues appends to dst the parameter values of the template's
// instance at each plan-space point.
func instanceValues(b *testing.B, opt *optimizer.Optimizer, tm *optimizer.Template, points [][]float64, dst [][]float64) [][]float64 {
	b.Helper()
	for _, point := range points {
		inst, err := opt.InstanceAt(tm, point)
		if err != nil {
			b.Fatal(err)
		}
		dst = append(dst, inst.Values)
	}
	return dst
}

// runTemplates is the mixed workload served by the Run benchmarks below:
// four templates with disjoint learners contending only on the shared plan
// cache.
var runTemplates = []string{"Q0", "Q1", "Q2", "Q3"}

var runSubstrate struct {
	once sync.Once
	sys  *ppc.System
	vals map[string][][]float64
}

// runEnv opens one System, registers the mixed-template workload, and
// warms each template's learner and the shared plan cache on 64 runs of
// its 512 trajectory points, so the benchmarks measure steady state (cache
// hits plus the occasional audit).
func runEnv(b *testing.B) (*ppc.System, map[string][][]float64) {
	b.Helper()
	runSubstrate.once.Do(func() {
		sys, tmpls := benchSystem(b, tpch.Config{Scale: 2000, Seed: 5}, runTemplates)
		vals := make(map[string][][]float64, len(tmpls))
		for k, tm := range tmpls {
			points := workload.MustTrajectories(workload.TrajectoryConfig{
				Dims: tm.Degree(), NumPoints: 512, Sigma: 0.01, Seed: 3,
			})
			pv := instanceValues(b, sys.Optimizer(), tm, points, nil)
			for i := 0; i < 64; i++ {
				if _, err := sys.Run(runTemplates[k], pv[i]); err != nil {
					b.Fatal(err)
				}
			}
			vals[runTemplates[k]] = pv
		}
		runSubstrate.sys, runSubstrate.vals = sys, vals
	})
	if runSubstrate.sys == nil {
		b.Fatal("the Run substrate failed to build")
	}
	return runSubstrate.sys, runSubstrate.vals
}

// BenchmarkRunMixedSerial is the serial baseline for BenchmarkRunParallel:
// the same mixed four-template workload issued from one goroutine.
func BenchmarkRunMixedSerial(b *testing.B) {
	sys, vals := runEnv(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		name := runTemplates[i%len(runTemplates)]
		pts := vals[name]
		if _, err := sys.Run(name, pts[i%len(pts)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRunParallel issues the mixed-template workload from GOMAXPROCS
// goroutines, each pinned to one template — the access pattern the
// per-template locks are sharded for. Against BenchmarkRunMixedSerial it
// measures the scaling the sharded locks provide; on a single-CPU host the
// two coincide.
func BenchmarkRunParallel(b *testing.B) {
	sys, vals := runEnv(b)
	var next atomic.Uint64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		lane := int(next.Add(1)-1) % len(runTemplates)
		name := runTemplates[lane]
		pts := vals[name]
		i := 0
		for pb.Next() {
			if _, err := sys.Run(name, pts[i%len(pts)]); err != nil {
				b.Error(err)
				return
			}
			i++
		}
	})
}

// BenchmarkRunHotTemplateParallel hammers ONE template (Q1) from
// GOMAXPROCS goroutines — the contention pattern per-template sharding
// cannot help with, and the case the read/write split is for: predict runs
// lock-free on an immutable model snapshot, so this scales with
// GOMAXPROCS. Compare its ns/op at -cpu 1, the serial single-template
// baseline, with its ns/op at -cpu N.
func BenchmarkRunHotTemplateParallel(b *testing.B) {
	sys, vals := runEnv(b)
	pts := vals["Q1"]
	var next atomic.Uint64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		// Per-goroutine point offset so lanes walk different parts of the
		// trajectory instead of lock-stepping on identical parameters.
		i := int(next.Add(1)) * 131
		for pb.Next() {
			if _, err := sys.Run("Q1", pts[i%len(pts)]); err != nil {
				b.Error(err)
				return
			}
			i++
		}
	})
}
