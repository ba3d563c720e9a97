package experiments

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/workload"
)

// Fig12Config configures the ablation study of Section V-B (Figure 12):
// the contribution of noise elimination, negative feedback and random
// optimizer invocations, each variant executed on the same workloads.
type Fig12Config struct {
	Template  string
	Workloads int // paper: 25
	Instances int
	Sigma     float64
	Radius    float64
	Gamma     float64
	// InvocationRates sweeps the mean random invocation probability
	// (paper: precision increases ≈0.02 per +10%).
	InvocationRates []float64
	Frac            float64
	Seed            int64
}

func (c Fig12Config) withDefaults() Fig12Config {
	if c.Template == "" {
		// The safety rails only matter where mispredictions occur; Q5's
		// degree-4 space is the paper band where they become visible.
		c.Template = "Q5"
	}
	if c.Workloads == 0 {
		c.Workloads = 25
	}
	if c.Instances == 0 {
		c.Instances = 1000
	}
	if c.Sigma == 0 {
		c.Sigma = 0.03
	}
	if c.Radius == 0 {
		c.Radius = 0.1
	}
	if c.Gamma == 0 {
		c.Gamma = 0.8
	}
	if len(c.InvocationRates) == 0 {
		c.InvocationRates = []float64{0, 0.05, 0.1, 0.2}
	}
	if c.Seed == 0 {
		c.Seed = 2012
	}
	c.Workloads = scaleInt(c.Workloads, c.Frac, 3)
	c.Instances = scaleInt(c.Instances, c.Frac, 200)
	return c
}

// Fig12Row summarizes one variant over all workloads.
type Fig12Row struct {
	Variant   string
	Precision float64
	Recall    float64
	// EarlyPrecision and LatePrecision split the workload in half,
	// exposing the gradual decay the paper reports without noise
	// elimination.
	EarlyPrecision float64
	LatePrecision  float64
}

// Fig12Result is the ablation outcome.
type Fig12Result struct {
	Template string
	Rows     []Fig12Row
}

// RunFig12 reproduces Figure 12 and the invocation-rate observation.
func RunFig12(env *Env, cfg Fig12Config) (*Fig12Result, error) {
	cfg = cfg.withDefaults()
	tmpl, err := env.Template(cfg.Template)
	if err != nil {
		return nil, err
	}
	base := core.OnlineConfig{
		Core: core.Config{
			Radius: cfg.Radius, Gamma: cfg.Gamma,
		},
		InvocationProb: 0.05,
	}
	type variant struct {
		name string
		mod  func(core.OnlineConfig) core.OnlineConfig
	}
	variants := []variant{
		{"full (noise elim + neg feedback + 5% invocations)", func(c core.OnlineConfig) core.OnlineConfig { return c }},
		{"without noise elimination", func(c core.OnlineConfig) core.OnlineConfig {
			c.Core.NoiseFraction = -1
			return c
		}},
		{"without negative feedback", func(c core.OnlineConfig) core.OnlineConfig {
			c.CostEpsilon = math.Inf(1)
			return c
		}},
	}
	for _, rate := range cfg.InvocationRates {
		rate := rate
		variants = append(variants, variant{
			fmt.Sprintf("invocation rate %.0f%%", rate*100),
			func(c core.OnlineConfig) core.OnlineConfig {
				c.InvocationProb = rate
				return c
			},
		})
	}

	res := &Fig12Result{Template: cfg.Template}
	// Pre-generate the shared workloads ("for consistency, each variant is
	// executed on the same 25 workloads").
	points := make([][][]float64, cfg.Workloads)
	for w := range points {
		points[w] = workload.MustTrajectories(workload.TrajectoryConfig{
			Dims:      tmpl.Degree(),
			NumPoints: cfg.Instances,
			Sigma:     cfg.Sigma,
			Seed:      cfg.Seed + int64(w)*97,
		})
	}
	half := (cfg.Instances + 1) / 2
	for _, v := range variants {
		var total, early, late metrics.Counter
		for w := range points {
			ocfg := v.mod(base)
			ocfg.Core.Seed = cfg.Seed + int64(w)
			ocfg.Seed = cfg.Seed + int64(w)*3
			t, windows, err := onlineRun(env, cfg.Template, points[w], ocfg, half)
			if err != nil {
				return nil, err
			}
			total.Merge(t)
			if len(windows) > 0 {
				early.Merge(windows[0])
			}
			if len(windows) > 1 {
				late.Merge(windows[1])
			}
		}
		res.Rows = append(res.Rows, Fig12Row{
			Variant:        v.name,
			Precision:      total.Precision(),
			Recall:         total.Recall(),
			EarlyPrecision: early.Precision(),
			LatePrecision:  late.Precision(),
		})
	}
	return res, nil
}

// Table renders the ablations.
func (r *Fig12Result) Table() *Table {
	t := &Table{
		ID:     "fig12",
		Title:  fmt.Sprintf("Ablations on %s: noise elimination, negative feedback, invocation rate (Figure 12)", r.Template),
		Header: []string{"variant", "precision", "recall", "precision 1st half", "precision 2nd half"},
	}
	for _, row := range r.Rows {
		t.Rows = append(t.Rows, []string{
			row.Variant, f3(row.Precision), f3(row.Recall), f3(row.EarlyPrecision), f3(row.LatePrecision),
		})
	}
	t.Notes = append(t.Notes,
		"paper shape: without noise elimination precision decays over time; negative feedback helps precision and recall; precision grows ~0.02 per +10% invocation rate")
	return t
}
