// Package benchsuite holds the serving-path benchmark bodies that tests
// read: the eight bodies the allocation guards measure (allocguard.go), and
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
	predHist  *core.ApproxLSHHist
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
		predHist, predTests, predErr = trainOn(env, "Q1")
	})
	if predErr != nil {
		b.Fatal(predErr)
	}
	return predHist, predTests
}

// trainOn trains a predictor on 3200 optimizer-labeled uniform points of
// one template and draws 512 uniform test points for it.
func trainOn(env *experiments.Env, name string) (*core.ApproxLSHHist, [][]float64, error) {
	tmpl := env.Templates[name]
	samples, err := experiments.NewOracle(env, tmpl).SamplePlanSpace(3200, 3)
	if err != nil {
		return nil, nil, err
	}
	hist := core.MustNewApproxLSHHist(core.Config{Dims: tmpl.Degree(), Radius: 0.05, Gamma: 0.7, Seed: 5})
	for _, s := range samples {
		hist.Insert(s)
	}
	return hist, workload.Uniform(tmpl.Degree(), 512, 11), nil
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
		var hist *core.ApproxLSHHist
		if hist, manyTests, manyErr = trainOn(env, "Q8"); manyErr != nil {
			return
		}
		if manyModel = hist.Freeze(); manyModel.Plans() < 40 {
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

// EndToEndRun measures the facade's full Run path (predict or optimize,
// rebind, execute) in steady state, alternating Q0 and Q1 along tight
// trajectories — the mix bench/'s hit_exec workload gates, so that the
// profile `make profile` takes of it ranks what the benchmark measures.
func EndToEndRun(b *testing.B) {
	sys, vals := runEnv(b)
	names := [2]string{"Q0", "Q1"}
	pts := [2][][]float64{vals["Q0"], vals["Q1"]}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := i & 1
		if _, err := sys.Run(names[k], pts[k][(i>>1)%len(pts[k])]); err != nil {
			b.Fatal(err)
		}
	}
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
// (SyncNever — fsync cost is Commit's; bench/'s serve_durable workload pays
// it end to end).
// The append runs under the learner's write lock in production, so it must
// stay allocation-free: it is part of the zero-alloc guard.
func WALAppend(b *testing.B) {
	dir, err := os.MkdirTemp("", "ppcbench-walappend-")
	if err != nil {
		b.Fatal(err)
	}
	defer os.RemoveAll(dir) //nolint:errcheck
	log, _, err := wal.Open(wal.Options{Dir: dir, Sync: wal.SyncNever, SegmentBytes: 1 << 40})
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
// beat EndToEndRun; with lock-free predict on an immutable model snapshot
// it scales with GOMAXPROCS. Compare its ns/op against EndToEndRun, the
// serial single-template baseline.
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
