package experiments

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/optimizer"
	"repro/internal/workload"
)

// ExtMemConfig configures the system-context extension study — the first
// future-work item of the paper's Section VII: "modeling the system
// context as optimizer parameters would make the system more robust and
// adaptive to context changes."
//
// Here the context parameter is the working memory available to hash
// operators. Each query instance arrives with a memory level; the
// optimizer's plan choice depends on it (large builds spill, shifting
// hash-vs-alternative crossovers). Two learners compete on the same
// workload:
//
//   - context-aware: its plan space is [0,1]^(r+1) — the r predicate
//     selectivities plus the normalized memory level;
//   - context-blind: the paper's baseline, seeing only the selectivities.
//
// When memory fluctuates, the blind learner sees one plan space
// overwritten by another (label noise at every point), while the aware
// learner separates the regimes.
type ExtMemConfig struct {
	Template  string
	Instances int
	Sigma     float64
	Radius    float64
	Gamma     float64
	// MemLowRows and MemHighRows are the two memory regimes (in tuples)
	// the workload oscillates between.
	MemLowRows  float64
	MemHighRows float64
	// SwitchEvery is the regime oscillation period in instances.
	SwitchEvery int
	Frac        float64
	Seed        int64
}

func (c ExtMemConfig) withDefaults() ExtMemConfig {
	if c.Template == "" {
		c.Template = "Q2"
	}
	if c.Instances == 0 {
		c.Instances = 1500
	}
	if c.Sigma == 0 {
		c.Sigma = 0.04
	}
	if c.Radius == 0 {
		c.Radius = 0.1
	}
	if c.Gamma == 0 {
		c.Gamma = 0.8
	}
	if c.MemLowRows == 0 {
		c.MemLowRows = 32
	}
	if c.MemHighRows == 0 {
		c.MemHighRows = 1 << 20
	}
	if c.SwitchEvery == 0 {
		c.SwitchEvery = 100
	}
	if c.Seed == 0 {
		c.Seed = 2012
	}
	c.Instances = scaleInt(c.Instances, c.Frac, 300)
	return c
}

// ExtMemRow summarizes one learner.
type ExtMemRow struct {
	Learner     string
	Dims        int
	Precision   float64
	Recall      float64
	Invocations int
}

// ExtMemResult is the study outcome.
type ExtMemResult struct {
	Template     string
	PlanCountLow int
	PlanCountHi  int
	Rows         []ExtMemRow
}

// memOracle labels (selectivity..., memory) points: it installs the
// instance's memory level into the cost model before optimizing. Labels
// are memoized on the full context-augmented point.
type memOracle struct {
	env   *Env
	tmpl  *optimizer.Template
	reg   *optimizer.Registry
	memo  map[string]labeled
	plans map[int]*optimizer.Plan
	base  optimizer.CostModel
	low   float64
	high  float64
}

// memRows maps the normalized memory coordinate m ∈ [0,1] onto a
// log-scaled tuple budget between low and high.
func (o *memOracle) memRows(m float64) float64 {
	return o.low * math.Pow(o.high/o.low, m)
}

// label optimizes at the context-augmented point (selectivities + memory).
func (o *memOracle) label(x []float64) (int, float64, error) {
	key := pointKey(x)
	if l, ok := o.memo[key]; ok {
		return l.plan, l.cost, nil
	}
	sel := x[:len(x)-1]
	o.env.Opt.SetModel(o.base.WithMemoryRows(o.memRows(x[len(x)-1])))
	defer o.env.Opt.SetModel(o.base)
	inst, err := o.env.Opt.InstanceAt(o.tmpl, sel)
	if err != nil {
		return 0, 0, err
	}
	plan, err := o.env.Opt.OptimizeInstance(inst)
	if err != nil {
		return 0, 0, err
	}
	id := o.reg.ID(plan.Fingerprint)
	o.plans[id] = plan
	o.memo[key] = labeled{plan: id, cost: plan.Cost}
	return id, plan.Cost, nil
}

// Optimize implements core.Environment over context-augmented points.
func (o *memOracle) Optimize(x []float64) (int, float64, error) {
	return o.label(x)
}

// ExecuteCost implements core.Environment: recost the cached plan under
// the instance's memory level.
func (o *memOracle) ExecuteCost(x []float64, planID int) (float64, error) {
	plan, ok := o.plans[planID]
	if !ok {
		return 0, nil
	}
	sel := x[:len(x)-1]
	o.env.Opt.SetModel(o.base.WithMemoryRows(o.memRows(x[len(x)-1])))
	defer o.env.Opt.SetModel(o.base)
	inst, err := o.env.Opt.InstanceAt(o.tmpl, sel)
	if err != nil {
		return 0, err
	}
	re, err := o.env.Opt.Recost(o.tmpl.Query, plan, inst.Values)
	if err != nil {
		return 0, err
	}
	return re.Cost, nil
}

// blindAdapter presents the context-augmented environment to a learner
// that only sees the selectivity coordinates.
type blindAdapter struct {
	inner *memOracle
	// mem is the true memory coordinate of the instance being processed.
	mem float64
}

// Optimize implements core.Environment for the blind learner.
func (b *blindAdapter) Optimize(sel []float64) (int, float64, error) {
	return b.inner.Optimize(append(append([]float64(nil), sel...), b.mem))
}

// ExecuteCost implements core.Environment for the blind learner.
func (b *blindAdapter) ExecuteCost(sel []float64, planID int) (float64, error) {
	return b.inner.ExecuteCost(append(append([]float64(nil), sel...), b.mem), planID)
}

// RunExtMem runs the context-awareness study.
func RunExtMem(env *Env, cfg ExtMemConfig) (*ExtMemResult, error) {
	cfg = cfg.withDefaults()
	tmpl, err := env.Template(cfg.Template)
	if err != nil {
		return nil, err
	}
	r := tmpl.Degree()
	oracle := &memOracle{
		env: env, tmpl: tmpl,
		reg:   optimizer.NewRegistry(),
		memo:  make(map[string]labeled),
		plans: make(map[int]*optimizer.Plan),
		base:  env.Opt.Model(),
		low:   cfg.MemLowRows,
		high:  cfg.MemHighRows,
	}
	defer env.Opt.SetModel(oracle.base)

	// Shared selectivity workload; the memory coordinate oscillates between
	// regimes every SwitchEvery instances.
	sels := workload.MustTrajectories(workload.TrajectoryConfig{
		Dims: r, NumPoints: cfg.Instances, Sigma: cfg.Sigma, Seed: cfg.Seed,
	})
	memOf := func(i int) float64 {
		if (i/cfg.SwitchEvery)%2 == 0 {
			return 0.0 // low-memory regime
		}
		return 1.0 // high-memory regime
	}

	aware, err := core.NewOnline(core.OnlineConfig{
		Core: core.Config{
			Dims: r + 1, Radius: cfg.Radius, Gamma: cfg.Gamma,
			Seed: cfg.Seed,
		},
		InvocationProb: 0.05, Seed: cfg.Seed + 1,
	}, oracle)
	if err != nil {
		return nil, err
	}
	blindEnv := &blindAdapter{inner: oracle}
	blind, err := core.NewOnline(core.OnlineConfig{
		Core: core.Config{
			Dims: r, Radius: cfg.Radius, Gamma: cfg.Gamma,
			Seed: cfg.Seed,
		},
		InvocationProb: 0.05, Seed: cfg.Seed + 1,
	}, blindEnv)
	if err != nil {
		return nil, err
	}

	var awareC, blindC metrics.Counter
	awareInv, blindInv := 0, 0
	for i, sel := range sels {
		mem := memOf(i)
		full := append(append([]float64(nil), sel...), mem)
		truth, _, err := oracle.label(full)
		if err != nil {
			return nil, err
		}

		da, err := aware.Step(full)
		if err != nil {
			return nil, err
		}
		awareC.RecordTruth(da.Predicted, da.Predicted && da.PredictedPlan == truth)
		if da.Invoked {
			awareInv++
		}

		blindEnv.mem = mem
		db, err := blind.Step(sel)
		if err != nil {
			return nil, err
		}
		blindC.RecordTruth(db.Predicted, db.Predicted && db.PredictedPlan == truth)
		if db.Invoked {
			blindInv++
		}
	}

	// Report how different the two regimes' plan spaces actually are.
	low, hi := regimePlanCounts(oracle, r, cfg.Seed)
	return &ExtMemResult{
		Template:     cfg.Template,
		PlanCountLow: low,
		PlanCountHi:  hi,
		Rows: []ExtMemRow{
			{"context-aware (selectivities + memory)", r + 1, awareC.Precision(), awareC.Recall(), awareInv},
			{"context-blind (selectivities only)", r, blindC.Precision(), blindC.Recall(), blindInv},
		},
	}, nil
}

// regimePlanCounts probes each memory regime's plan space.
func regimePlanCounts(o *memOracle, r int, seed int64) (low, hi int) {
	countFor := func(mem float64) int {
		seen := make(map[int]bool)
		for _, sel := range workload.Uniform(r, 80, seed+11) {
			full := append(append([]float64(nil), sel...), mem)
			if p, _, err := o.label(full); err == nil {
				seen[p] = true
			}
		}
		return len(seen)
	}
	return countFor(0), countFor(1)
}

// Table renders the study.
func (r *ExtMemResult) Table() *Table {
	t := &Table{
		ID: "extmem",
		Title: fmt.Sprintf("System context as an optimizer parameter on %s (paper Section VII future work; %d/%d plans in low/high memory regimes)",
			r.Template, r.PlanCountLow, r.PlanCountHi),
		Header: []string{"learner", "plan space dims", "precision", "recall", "optimizer calls"},
	}
	for _, row := range r.Rows {
		t.Rows = append(t.Rows, []string{
			row.Learner, fmt.Sprint(row.Dims), f3(row.Precision), f3(row.Recall), fmt.Sprint(row.Invocations),
		})
	}
	t.Notes = append(t.Notes,
		"expected: when working memory oscillates, the context-aware learner separates the regimes while the context-blind learner suffers label churn at the same selectivity points")
	return t
}
