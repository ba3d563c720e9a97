package experiments

import (
	"fmt"
	"runtime"
	"time"

	ppc "repro"
	"repro/internal/core"
	"repro/internal/executor"
	"repro/internal/tpch"
	"repro/internal/workload"
)

// Fig13Config configures the end-to-end runtime experiment of Section V-C
// (Figure 13): ONLINE-LSH-HISTOGRAMS vs ALWAYS-OPTIMIZE vs IDEAL on a
// high-locality trajectory workload (r_d = 0.01, b_h = 40, t = 5, γ = 0.8,
// d = 0.01, noise elimination on).
type Fig13Config struct {
	Template       string
	Instances      int
	Sigma          float64
	Radius         float64
	Gamma          float64
	HistBuckets    int
	Transforms     int
	InvocationProb float64
	// SeriesStride downsamples the cumulative curves for printing.
	SeriesStride int
	// EnvScale is the TPC-H scale divisor of the System the three arms run
	// on. Plan caching pays off for queries that are cheap to execute
	// relative to optimization (paper Section I), so the default is a
	// small, cache-resident database (scale 2000 ⇒ ~3000-row lineitem) where
	// the optimizer dominates.
	EnvScale int
	Frac     float64
	Seed     int64
}

func (c Fig13Config) withDefaults() Fig13Config {
	if c.Template == "" {
		// Plan caching pays off when optimization consumes a significant
		// portion of total time (paper Section I); Q8 — the five-way join —
		// is the template where our Selinger DP is costliest relative to
		// execution, matching that regime.
		c.Template = "Q8"
	}
	if c.Instances == 0 {
		// Long enough that steady-state hits dominate the warm-up phase.
		c.Instances = 2000
	}
	if c.Sigma == 0 {
		c.Sigma = 0.01
	}
	if c.Radius == 0 {
		c.Radius = 0.01
	}
	if c.Gamma == 0 {
		c.Gamma = 0.8
	}
	if c.HistBuckets == 0 {
		c.HistBuckets = 40
	}
	if c.Transforms == 0 {
		c.Transforms = 5
	}
	if c.InvocationProb == 0 {
		c.InvocationProb = 0.05
	}
	if c.SeriesStride == 0 {
		c.SeriesStride = 100
	}
	if c.EnvScale == 0 {
		c.EnvScale = 2000
	}
	if c.Seed == 0 {
		c.Seed = 2012
	}
	c.Instances = scaleInt(c.Instances, c.Frac, 200)
	return c
}

// Fig13Step is the three arms' cumulative wall time, in seconds, after one
// instance.
type Fig13Step struct {
	CumAlways, CumPPC, CumIdeal float64
}

// Fig13Result is the outcome of the three arms on one System.
type Fig13Result struct {
	Template string
	Steps    []Fig13Step
	// TotalAlways, TotalPPC and TotalIdeal are the final cumulative seconds.
	TotalAlways, TotalPPC, TotalIdeal float64
	// Invocations counts PPC's optimizer calls and Hits its cache hits.
	// StaleExecutions counts PPC runs whose plan is not the one
	// ALWAYS-OPTIMIZE chose for the same instance.
	Invocations, Hits, StaleExecutions int
	Scale                              int
	Stride                             int
	// Speedup is TotalAlways / TotalPPC; Overhead is TotalPPC / TotalIdeal.
	Speedup  float64
	Overhead float64
}

// RunFig13 reproduces Figure 13 on a real System, timing three arms over
// the same instances:
//
//   - ALWAYS-OPTIMIZE: OptimizeMemo on the template's memo, a Compile the
//     first time a plan fingerprint appears (charged when it happens), then
//     Exec;
//   - IDEAL: the same plan, already compiled, timed over Exec alone;
//   - PPC: the wall time of System.Run.
//
// The System applies feedback inline (FeedbackQueue -1), so PPC's decisions,
// and with them its hit, invocation and stale counts, repeat exactly for a
// seed. ALWAYS-OPTIMIZE and IDEAL run before PPC's first Run, so no learned
// selectivity correction reaches their optimizer.
func RunFig13(env *Env, cfg Fig13Config) (*Fig13Result, error) {
	cfg = cfg.withDefaults()
	base, err := env.Template(cfg.Template)
	if err != nil {
		return nil, err
	}
	sys, err := ppc.Open(ppc.Options{
		TPCH: tpch.Config{Scale: cfg.EnvScale, Seed: env.DB.Seed},
		Online: core.OnlineConfig{
			Core: core.Config{
				Radius: cfg.Radius, Gamma: cfg.Gamma,
				Transforms: cfg.Transforms, HistBuckets: cfg.HistBuckets,
				Seed: cfg.Seed,
			},
			InvocationProb: cfg.InvocationProb,
			Seed:           cfg.Seed + 1,
		},
		FeedbackQueue: -1,
	})
	if err != nil {
		return nil, err
	}
	defer sys.Close()
	if err := sys.Register(cfg.Template, base.SQL); err != nil {
		return nil, err
	}
	tmpl, err := sys.Template(cfg.Template)
	if err != nil {
		return nil, err
	}

	// Workload generation, before any timing: trajectory points to values.
	opt := sys.Optimizer()
	points := workload.MustTrajectories(workload.TrajectoryConfig{
		Dims:      tmpl.Degree(),
		NumPoints: cfg.Instances,
		Sigma:     cfg.Sigma,
		Seed:      cfg.Seed,
	})
	values := make([][]float64, len(points))
	for i, x := range points {
		inst, err := opt.InstanceAt(tmpl, x)
		if err != nil {
			return nil, err
		}
		values[i] = inst.Values
	}
	memo, err := opt.NewMemo(tmpl.Query)
	if err != nil {
		return nil, err
	}
	exec := executor.New(sys.DB())

	res := &Fig13Result{
		Template: cfg.Template, Steps: make([]Fig13Step, len(values)),
		Scale: cfg.EnvScale, Stride: cfg.SeriesStride,
	}
	// ALWAYS-OPTIMIZE.
	compiled := make(map[string]*executor.CompiledPlan)
	optimal := make([]*executor.CompiledPlan, len(values))
	fingerprints := make([]string, len(values))
	var cum float64
	for i, v := range values {
		t0 := time.Now()
		plan, err := opt.OptimizeMemo(memo, v)
		if err != nil {
			return nil, err
		}
		prog := compiled[plan.Fingerprint]
		if prog == nil {
			if prog, err = exec.Compile(plan, tmpl.Query); err != nil {
				return nil, err
			}
			compiled[plan.Fingerprint] = prog
		}
		if _, err := prog.Exec(v); err != nil {
			return nil, err
		}
		cum += time.Since(t0).Seconds()
		res.Steps[i].CumAlways = cum
		optimal[i], fingerprints[i] = prog, plan.Fingerprint
	}
	res.TotalAlways = cum

	// IDEAL.
	runtime.GC()
	cum = 0
	for i, v := range values {
		t0 := time.Now()
		if _, err := optimal[i].Exec(v); err != nil {
			return nil, err
		}
		cum += time.Since(t0).Seconds()
		res.Steps[i].CumIdeal = cum
	}
	res.TotalIdeal = cum

	// PPC.
	runtime.GC()
	cum = 0
	for i, v := range values {
		t0 := time.Now()
		run, err := sys.Run(cfg.Template, v)
		if err != nil {
			return nil, err
		}
		cum += time.Since(t0).Seconds()
		res.Steps[i].CumPPC = cum
		if run.Invoked {
			res.Invocations++
		}
		if run.CacheHit {
			res.Hits++
		}
		if run.Fingerprint != fingerprints[i] {
			res.StaleExecutions++
		}
	}
	res.TotalPPC = cum

	if res.TotalPPC > 0 {
		res.Speedup = res.TotalAlways / res.TotalPPC
	}
	if res.TotalIdeal > 0 {
		res.Overhead = res.TotalPPC / res.TotalIdeal
	}
	return res, nil
}

// Table renders cumulative times and the summary.
func (r *Fig13Result) Table() *Table {
	t := &Table{
		ID:     "fig13",
		Title:  fmt.Sprintf("Runtime performance on %s: ALWAYS-OPTIMIZE vs ONLINE-LSH-HISTOGRAMS vs IDEAL (Figure 13)", r.Template),
		Header: []string{"instance", "cum always-opt (s)", "cum PPC (s)", "cum IDEAL (s)"},
	}
	row := func(i int) {
		s := r.Steps[i]
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(i + 1), fmt.Sprintf("%.4f", s.CumAlways),
			fmt.Sprintf("%.4f", s.CumPPC), fmt.Sprintf("%.4f", s.CumIdeal),
		})
	}
	for i := r.Stride - 1; i < len(r.Steps); i += r.Stride {
		row(i)
	}
	if last := len(r.Steps) - 1; last >= 0 && (last+1)%r.Stride != 0 {
		row(last)
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("speedup over always-optimize: %.2fx; overhead vs IDEAL: %.2fx; invocations: %d; cache hits: %d; stale executions: %d",
			r.Speedup, r.Overhead, r.Invocations, r.Hits, r.StaleExecutions),
		fmt.Sprintf("measured wall time of one System at TPC-H SF1/%d: times depend on the host, the counts do not", r.Scale),
		"paper shape: PPC's cumulative time tracks IDEAL closely and stays well below ALWAYS-OPTIMIZE")
	return t
}
