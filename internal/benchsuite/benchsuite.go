// Package benchsuite holds the serving-path benchmark bodies that tests
// read: the nine bodies the allocation guards measure (allocguard.go), and
// the Run-path bodies `go test -bench` and `make profile` drive through the
// wrappers in bench_suite_test.go at the repo root. Timings are for working
// with on one host; the benchmark that compares two builds is bench/.
//
// The bodies cover the hot path of the paper's architecture at three
// granularities: the predictor in isolation (Predict/Insert on the
// LSH+histogram synopsis), the facade's full Run path on one template, and
// the same Run path serialized vs. parallel across a mixed-template
// workload — the last pair is what the sharded lock design is for, and
// until bench/ sweeps GOMAXPROCS it is the only scaling measurement.
package benchsuite

import (
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"testing"

	ppc "repro"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/optimizer"
	"repro/internal/queries"
	"repro/internal/tpch"
	"repro/internal/wal"
	"repro/internal/workload"
)

// runTemplates is the mixed workload served by the Run benchmarks: four
// templates with disjoint learners contending only on the shared plan
// cache.
var runTemplates = []string{"Q0", "Q1", "Q2", "Q3"}

// --- Predictor microbenchmark substrate ------------------------------------

var (
	predOnce  sync.Once
	predErr   error
	predEnv   *experiments.Env
	predOn    *core.Online
	predTests [][]float64
)

// predictorEnv trains the LSH+histogram predictor once on the paper's
// running-example template (Q1) and keeps it for every body that asks.
func predictorEnv(b *testing.B) (*core.ApproxLSHHist, [][]float64) {
	b.Helper()
	predOnce.Do(func() {
		env, err := experiments.NewEnv(1000, 2012)
		if err != nil {
			predErr = err
			return
		}
		predEnv = env
		predOn, predTests, predErr = trainOn(env, "Q1")
	})
	if predErr != nil {
		b.Fatal(predErr)
	}
	return predOn.Predictor(), predTests
}

// trainOn trains a learner on 3200 optimizer-labeled uniform points of one
// template and draws 512 uniform test points for it.
func trainOn(env *experiments.Env, name string) (*core.Online, [][]float64, error) {
	tmpl := env.Templates[name]
	samples, err := experiments.NewOracle(env, tmpl).SamplePlanSpace(3200, 3)
	if err != nil {
		return nil, nil, err
	}
	on, err := core.NewOnline(core.OnlineConfig{Core: core.Config{Dims: tmpl.Degree(), Radius: 0.05, Gamma: 0.7, Seed: 5}}, nil)
	if err != nil {
		return nil, nil, err
	}
	for _, s := range samples {
		if err := on.LearnValidated(s.Point, s.Plan, s.Cost); err != nil {
			return nil, nil, err
		}
	}
	return on, workload.Uniform(tmpl.Degree(), 512, 11), nil
}

// PredictApproxLSHHist measures one plan-cache lookup decision, asked of
// the live predictor, which answers through its cached frozen Model and
// per-predictor scratch buffers — allocation-free between mutations. Its
// cost is constant in the sample count (Table I) but not in the plan count:
// at most one binary search per (transform, plan) block, O(t·n·log b_h) for
// n plans, and only the blocks of plans their peak bounds do not rule out
// are searched. On this 2-plan model that is all of them; on
// PredictModelManyPlans' several dozen, a fraction.
func PredictApproxLSHHist(b *testing.B) {
	hist, tests := predictorEnv(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hist.Predict(tests[i%len(tests)])
	}
}

// PredictModelSnapshot measures the PR 4 lock-free serving path in
// isolation: Predict against an immutable frozen Model snapshot with a
// pooled scratch buffer, exactly as Online.StepConcurrent serves it. Like
// PredictApproxLSHHist it must stay allocation-free — the pool amortizes
// the scratch allocation away in steady state.
func PredictModelSnapshot(b *testing.B) {
	hist, tests := predictorEnv(b)
	model := hist.Freeze()
	cfg := hist.Config()
	pool := sync.Pool{New: func() any { return core.NewPredictScratch(cfg) }}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sc := pool.Get().(*core.PredictScratch)
		model.PredictWithCost(tests[i%len(tests)], sc)
		pool.Put(sc)
	}
}

var (
	manyOnce  sync.Once
	manyErr   error
	manyModel *core.Model
	manyTests [][]float64
)

// PredictModelManyPlans is PredictModelSnapshot on a model the size the
// miss path serves: Q8 (a five-way join) labeled at uniform plan-space
// points, so the snapshot holds several dozen plans, most of them noise at
// any one point — ruled out by their blocks' peak bounds, or by the first
// searches that come back under the noise floor. The 2-plan Q1 model above
// measures the fixed cost of a prediction; this one measures the per-plan
// cost, which is what a NULL prediction on a multi-join template pays. It
// reports the share of its predictions that are NULL as null/op.
func PredictModelManyPlans(b *testing.B) {
	env := mustSharedEnv(b)
	manyOnce.Do(func() {
		var on *core.Online
		if on, manyTests, manyErr = trainOn(env, "Q8"); manyErr != nil {
			return
		}
		if manyModel = on.Model(); manyModel.Plans() < 40 {
			manyErr = fmt.Errorf("benchsuite: Q8 model has %d plans, want >= 40", manyModel.Plans())
		}
	})
	if manyErr != nil {
		b.Fatal(manyErr)
	}
	sc := core.NewPredictScratch(manyModel.Config())
	nulls := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if pred, _, _ := manyModel.PredictWithCost(manyTests[i%len(manyTests)], sc); !pred.OK {
			nulls++
		}
	}
	b.ReportMetric(float64(nulls)/float64(b.N), "null/op")
}

// InsertApproxLSHHist measures the online insertion path (Section IV-D
// feedback).
func InsertApproxLSHHist(b *testing.B) {
	env := mustSharedEnv(b)
	tmpl := env.Templates["Q1"]
	hist := core.MustNewApproxLSHHist(core.Config{Dims: tmpl.Degree(), Seed: 5})
	points := workload.Uniform(tmpl.Degree(), 4096, 13)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := points[i%len(points)]
		hist.Insert(core.Sample{Point: p, Plan: i % 7, Cost: float64(i % 100)})
	}
}

// mustSharedEnv returns the lazily built experiment substrate.
func mustSharedEnv(b *testing.B) *experiments.Env {
	b.Helper()
	predictorEnv(b)
	return predEnv
}

// --- End-to-end Run substrate ----------------------------------------------

var (
	runOnce sync.Once
	runErr  error
	runSys  *ppc.System
	runVals map[string][][]float64
)

// runEnv opens one System, registers the mixed-template workload, and warms
// each template's learner and the shared plan cache so the benchmarks
// measure steady state (cache hits plus the occasional audit).
func runEnv(b *testing.B) (*ppc.System, map[string][][]float64) {
	b.Helper()
	runOnce.Do(func() {
		sys, err := ppc.Open(ppc.Options{TPCH: tpch.Config{Scale: 2000, Seed: 5}})
		if err != nil {
			runErr = err
			return
		}
		vals := make(map[string][][]float64, len(runTemplates))
		for _, d := range queries.Defs {
			name := d.Name
			keep := false
			for _, want := range runTemplates {
				if name == want {
					keep = true
				}
			}
			if !keep {
				continue
			}
			if err := sys.Register(name, d.SQL); err != nil {
				runErr = err
				return
			}
			tmpl, err := sys.Template(name)
			if err != nil {
				runErr = err
				return
			}
			points := workload.MustTrajectories(workload.TrajectoryConfig{
				Dims: tmpl.Degree(), NumPoints: 512, Sigma: 0.01, Seed: 3,
			})
			pv := make([][]float64, len(points))
			for i, p := range points {
				inst, err := sys.Optimizer().InstanceAt(tmpl, p)
				if err != nil {
					runErr = err
					return
				}
				pv[i] = inst.Values
			}
			vals[name] = pv
			// Warm the learner so the benchmark reflects steady state.
			for i := 0; i < 64; i++ {
				if _, err := sys.Run(name, pv[i%len(pv)]); err != nil {
					runErr = err
					return
				}
			}
		}
		runSys, runVals = sys, vals
	})
	if runErr != nil {
		b.Fatal(runErr)
	}
	return runSys, runVals
}

// EndToEndRun is the hit_exec shape: the facade's full Run path (predict or
// optimize, rebind, execute) alternating Q0 and Q1 on the benchmark's
// database (scale 1000, seed 2012) along trajectory paths of 100 points at
// sigma 0.02, each point run once — the mix bench/'s hit_exec workload
// gates, so that the profile `make profile` takes of it ranks what the
// benchmark measures. Points come 1,000 per template at a time, drawn with
// the timer stopped; the first draw warms the learner and the plan cache
// untimed, as hit_exec's warm-up does. Each call opens its own System, so
// every measurement starts from the same state and draws the same points.
func EndToEndRun(b *testing.B) {
	names := []string{"Q0", "Q1"}
	sys, tmpls := benchSystem(b, names)
	defer sys.Close()
	const chunk = 1000
	values := make([][][]float64, len(names))
	draw := func(round int) {
		for k, tm := range tmpls {
			points := workload.MustTrajectories(workload.TrajectoryConfig{
				Dims: tm.Degree(), NumPoints: chunk, NumTrajectories: chunk / 100, Sigma: 0.02, Seed: int64(round*len(names) + k),
			})
			values[k] = instanceValues(b, sys, tm, points, values[k][:0])
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

// MissPathRun is the miss_optimize shape: Run on the multi-join templates at
// uniform plan-space points on the benchmark's database (scale 1000, seed
// 2012), where the learner rarely has a confident answer and nearly every
// run pays NULL-predict, OptimizeMemo, intern/compile and feedback. Every
// run gets a fresh point, drawn 512 per template at a time with the timer
// stopped: a pool cycled again is learned, and the share of runs that
// invoke the optimizer (reported as invoked/op, about miss_optimize's 0.93)
// would fall as -benchtime grows. Each call opens its own System, so every
// measurement starts cold and draws the same points.
func MissPathRun(b *testing.B) {
	names := []string{"Q3", "Q4", "Q8"}
	sys, tmpls := benchSystem(b, names)
	defer sys.Close()
	const chunk = 512
	values := make([][][]float64, len(names))
	draw := func(round int) {
		for k, tm := range tmpls {
			values[k] = instanceValues(b, sys, tm, workload.Uniform(tm.Degree(), chunk, int64(round*len(names)+k)), values[k][:0])
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

// Open is what a process pays before it serves: ppc.Open on the
// benchmark's database (scale 1000, seed 2012) — generate, index, catalog —
// and RegisterStandard's nine templates, the System each bench workload sets
// up. Nothing is shared between iterations, so each one opens cold.
func Open(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sys, err := ppc.Open(ppc.Options{TPCH: tpch.Config{Scale: 1000, Seed: 2012}})
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

// benchSystem opens a System on the benchmark's database (scale 1000, seed
// 2012) with the named standard templates registered, and returns it with
// their templates in that order.
func benchSystem(b *testing.B, names []string) (*ppc.System, []*optimizer.Template) {
	b.Helper()
	sys, err := ppc.Open(ppc.Options{TPCH: tpch.Config{Scale: 1000, Seed: 2012}})
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
func instanceValues(b *testing.B, sys *ppc.System, tm *optimizer.Template, points [][]float64, dst [][]float64) [][]float64 {
	b.Helper()
	for _, point := range points {
		inst, err := sys.Optimizer().InstanceAt(tm, point)
		if err != nil {
			b.Fatal(err)
		}
		dst = append(dst, inst.Values)
	}
	return dst
}

// RebindRecost measures what a cache hit pays to cost its plan: one
// RebindProgram.Recost of a Q1 and of a Q8 plan (two and six parameters, one
// and seven joins) at steady-state values. The program binds its statistics
// handles when it is compiled and walks the cached plan in place, so a
// recost allocates nothing — it is part of the zero-alloc guard, which keeps
// binding from hiding a per-run allocation.
func RebindRecost(b *testing.B) {
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
		for _, p := range points {
			inst, err := opt.InstanceAt(tmpl, p)
			if err != nil {
				b.Fatal(err)
			}
			vals[k] = append(vals[k], inst.Values)
		}
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

// WALAppend measures the log's append path in isolation: encode one frame
// into the log's reused scratch buffer and write it to the current segment
// (it never calls Commit, so no fsync — that cost is Commit's, and bench/'s
// serve_durable workload pays it end to end).
// The append runs under the learner's write lock in production, so it must
// stay allocation-free: it is part of the zero-alloc guard.
func WALAppend(b *testing.B) {
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

// RunMixedSerial is the serial baseline for RunParallel: the same mixed
// four-template workload issued from one goroutine.
func RunMixedSerial(b *testing.B) {
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

// RunHotTemplateParallel hammers ONE template (Q1) from GOMAXPROCS
// goroutines — the worst case for any per-template lock, and the case the
// PR 4 read/write split is for. With the PR 3 per-template mutex every
// goroutine serialized on Q1's learner lock, so this benchmark could not
// beat a serial run; with lock-free predict on an immutable model snapshot
// it scales with GOMAXPROCS. Compare its ns/op at -cpu 1, the serial
// single-template baseline, with its ns/op at -cpu N.
func RunHotTemplateParallel(b *testing.B) {
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

// RunParallel issues the mixed-template workload from GOMAXPROCS
// goroutines, each pinned to one template — the access pattern the
// per-template locks are sharded for. Compare its ns/op against
// RunMixedSerial: with the old global mutex the two were equal by
// construction; with sharded locks the parallel form scales with the
// number of distinct templates (up to GOMAXPROCS).
func RunParallel(b *testing.B) {
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
