package ppc_test

// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation (each regenerates its experiment at a reduced workload size;
// run cmd/ppcbench for full-size tables), plus microbenchmarks of the
// pipeline's hot operations (optimization, the baseline predictors, the
// reference recost, execution).
//
//	go test -bench=. -benchmem
//	go test -bench=BenchmarkFig08 -benchtime=1x   # one full regeneration

import (
	"sync"
	"testing"

	"repro/internal/baselines"
	"repro/internal/core"
	"repro/internal/executor"
	"repro/internal/experiments"
	"repro/internal/workload"
)

// env is the shared benchmark substrate (TPC-H SF1/1000), built once per
// test binary.
var env = sync.OnceValue(func() *experiments.Env { return experiments.MustNewEnv(1000, 2012) })

// trained is one template's predictor substrate: 3200 optimizer-labelled
// uniform plan-space points, the learner trained on them, and 512 uniform
// test points.
type trained struct {
	cfg     core.Config
	samples []core.Sample
	on      *core.Online
	tests   [][]float64
}

func train(name string) (trained, error) {
	tmpl := env().Templates[name]
	samples, err := experiments.NewOracle(env(), tmpl).SamplePlanSpace(3200, 3)
	if err != nil {
		return trained{}, err
	}
	cfg := core.Config{Dims: tmpl.Degree(), Radius: 0.05, Gamma: 0.7, Seed: 5}
	on, err := core.NewOnline(core.OnlineConfig{Core: cfg}, nil)
	if err != nil {
		return trained{}, err
	}
	for _, s := range samples {
		if err := on.LearnValidated(s.Point, s.Plan, s.Cost); err != nil {
			return trained{}, err
		}
	}
	return trained{cfg: cfg, samples: samples, on: on, tests: workload.Uniform(tmpl.Degree(), 512, 11)}, nil
}

// trainedQ1 is the paper's running example trained once per test binary:
// the one Q1 synopsis every Q1 predictor benchmark reads, the baselines
// below built from its samples. trainedQ8 is the multi-join model of
// BenchmarkPredictModelManyPlans.
var (
	trainedQ1 = sync.OnceValues(func() (trained, error) { return train("Q1") })
	trainedQ8 = sync.OnceValues(func() (trained, error) { return train("Q8") })
)

func mustTrain(b *testing.B, template func() (trained, error)) trained {
	b.Helper()
	t, err := template()
	if err != nil {
		b.Fatal(err)
	}
	return t
}

// benchFrac keeps per-iteration experiment cost low; cmd/ppcbench runs the
// full-size configurations.
const benchFrac = 0.08

// runExperiment benchmarks one registry entry end to end.
func runExperiment(b *testing.B, id string) {
	e := env()
	runner, err := experiments.Find(id)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := runner.Run(e, benchFrac); err != nil {
			b.Fatal(err)
		}
	}
}

// --- One benchmark per paper table/figure ----------------------------------

func BenchmarkFig02PlanSpace(b *testing.B)            { runExperiment(b, "fig2") }
func BenchmarkFig03ClusteringComparison(b *testing.B) { runExperiment(b, "fig3") }
func BenchmarkTab01SpaceTime(b *testing.B)            { runExperiment(b, "tab1") }
func BenchmarkFig08ApproxPrecision(b *testing.B)      { runExperiment(b, "fig8") }
func BenchmarkFig09Histograms(b *testing.B)           { runExperiment(b, "fig9") }
func BenchmarkTab02ConfidenceSweep(b *testing.B)      { runExperiment(b, "tab2") }
func BenchmarkFig10aTransforms(b *testing.B)          { runExperiment(b, "fig10a") }
func BenchmarkFig10bBuckets(b *testing.B)             { runExperiment(b, "fig10b") }
func BenchmarkFig11Online(b *testing.B)               { runExperiment(b, "fig11") }
func BenchmarkFig12Ablations(b *testing.B)            { runExperiment(b, "fig12") }
func BenchmarkFig13Runtime(b *testing.B)              { runExperiment(b, "fig13") }
func BenchmarkFig14Predictability(b *testing.B)       { runExperiment(b, "fig14") }
func BenchmarkTab03Templates(b *testing.B)            { runExperiment(b, "tab3") }
func BenchmarkDriftDetection(b *testing.B)            { runExperiment(b, "drift") }

// --- Microbenchmarks: Table I's complexity claims in the small -------------

// BenchmarkOptimizeQ1 measures the cost a cache hit avoids on the paper's
// running example (two-way join): OptimizeMemo against the template's memo,
// built once, as Run optimizes.
func BenchmarkOptimizeQ1(b *testing.B) { benchOptimize(b, "Q1") }

// BenchmarkOptimizeQ8 measures it on the most expensive template (five-way
// join, six parameters).
func BenchmarkOptimizeQ8(b *testing.B) { benchOptimize(b, "Q8") }

func benchOptimize(b *testing.B, name string) {
	e := env()
	tmpl := e.Templates[name]
	memo, err := e.Opt.NewMemo(tmpl.Query)
	if err != nil {
		b.Fatal(err)
	}
	points := workload.Uniform(tmpl.Degree(), 256, 7)
	values := make([][]float64, len(points))
	for i, p := range points {
		inst, err := e.Opt.InstanceAt(tmpl, p)
		if err != nil {
			b.Fatal(err)
		}
		values[i] = inst.Values
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Opt.OptimizeMemo(memo, values[i%len(values)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPredictBaseline is O(|X|) per prediction (Table I row 1).
func BenchmarkPredictBaseline(b *testing.B) {
	q1 := mustTrain(b, trainedQ1)
	bl := baselines.NewDensity(q1.samples, 0.05, 0.7)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bl.Predict(q1.tests[i%len(q1.tests)])
	}
}

// BenchmarkPredictNaive is O(1) per prediction (Table I row 2).
func BenchmarkPredictNaive(b *testing.B) {
	q1 := mustTrain(b, trainedQ1)
	nv := baselines.MustNewNaive(baselines.Config{Config: q1.cfg})
	for _, s := range q1.samples {
		nv.Insert(s)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nv.Predict(q1.tests[i%len(q1.tests)])
	}
}

// BenchmarkPredictApproxLSH is O(t) per prediction (Table I row 3).
func BenchmarkPredictApproxLSH(b *testing.B) {
	q1 := mustTrain(b, trainedQ1)
	al := baselines.MustNewApproxLSH(baselines.Config{Config: q1.cfg})
	for _, s := range q1.samples {
		al.Insert(s)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		al.Predict(q1.tests[i%len(q1.tests)])
	}
}

// BenchmarkRecost measures the reference recost: Optimizer.Recost deep-copies
// the plan and re-estimates it at the new values. A cache hit does not pay
// this; it pays BenchmarkRebindRecost, a compiled RebindProgram walking the
// cached plan in place.
func BenchmarkRecost(b *testing.B) {
	e := env()
	tmpl := e.Templates["Q8"]
	inst, err := e.Opt.InstanceAt(tmpl, []float64{0.5, 0.5, 0.5, 0.5, 0.5, 0.5})
	if err != nil {
		b.Fatal(err)
	}
	plan, err := e.Opt.OptimizeInstance(inst)
	if err != nil {
		b.Fatal(err)
	}
	other, err := e.Opt.InstanceAt(tmpl, []float64{0.3, 0.4, 0.5, 0.6, 0.7, 0.2})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Opt.Recost(tmpl.Query, plan, other.Values); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExecuteQ1 measures plan execution on the in-memory engine as
// Run executes: the plan compiled once, each iteration one Exec.
func BenchmarkExecuteQ1(b *testing.B) {
	e := env()
	tmpl := e.Templates["Q1"]
	inst, err := e.Opt.InstanceAt(tmpl, []float64{0.3, 0.3})
	if err != nil {
		b.Fatal(err)
	}
	plan, err := e.Opt.OptimizeInstance(inst)
	if err != nil {
		b.Fatal(err)
	}
	cp, err := executor.New(e.DB).Compile(plan, tmpl.Query)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cp.Exec(inst.Values); err != nil {
			b.Fatal(err)
		}
	}
}

// The serving-path benchmarks (predict, insert, a replica's predict, a
// hit's recost, a WAL append, the Run paths and Open) are in
// bench_suite_test.go, beside this file; they read its env and trained Q1
// synopsis.
