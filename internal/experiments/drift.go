package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/workload"
)

// DriftConfig configures the Section V-D experiment: mid-way through the
// workload the plan space is artificially manipulated to violate the plan
// choice and plan cost predictability assumptions (as in the paper), and
// the framework must detect the change through its precision estimations
// and recover by dropping the template's histograms.
type DriftConfig struct {
	Template  string
	Instances int // total; the manipulation happens at the midpoint
	Sigma     float64
	Radius    float64
	Gamma     float64
	WindowK   int
	// CostEpsilon is the negative-feedback bound used by the binary
	// estimator whose accuracy the paper reports (72% at ε = 0.25).
	CostEpsilon float64
	// PrecisionFloor triggers the histogram drop (default 0.7 here — the
	// detection experiment wants recovery to fire before corrective
	// insertions silence the predictor).
	PrecisionFloor float64
	Frac           float64
	Seed           int64
}

func (c DriftConfig) withDefaults() DriftConfig {
	if c.Template == "" {
		c.Template = "Q1"
	}
	if c.Instances == 0 {
		c.Instances = 2000
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
	if c.WindowK == 0 {
		// A tight window makes the estimated-precision drop sharp enough to
		// cross the recovery floor before corrective insertions re-learn
		// the manipulated space.
		c.WindowK = 50
	}
	if c.CostEpsilon == 0 {
		c.CostEpsilon = 0.25
	}
	if c.PrecisionFloor == 0 {
		c.PrecisionFloor = 0.7
	}
	if c.Seed == 0 {
		c.Seed = 2012
	}
	c.Instances = scaleInt(c.Instances, c.Frac, 400)
	return c
}

// DriftResult reports detection and recovery.
type DriftResult struct {
	Template string
	// DriftStep is the instance index at which the plan space changed.
	DriftStep int
	// FirstResetStep is the first drift recovery after the change (-1 if
	// none fired).
	FirstResetStep int
	// Windows holds per-window true precision and the driver's estimated
	// precision, exposing the drop after DriftStep.
	Windows []DriftWindow
	// EstimatorAccuracy is the accuracy of the binary cost-based
	// correctness estimator against ground truth (paper: 72% at ε=0.25).
	EstimatorAccuracy float64
	EstimatorSamples  int
	// PostRecoveryPrecision is the true precision over the final quarter.
	PostRecoveryPrecision float64
}

// DriftWindow is one window of the run.
type DriftWindow struct {
	EndStep        int
	TruePrecision  float64
	EstPrecision   float64
	EstKnown       bool
	ResetsInWindow int
}

// RunDrift reproduces the Section V-D drift experiment.
func RunDrift(env *Env, cfg DriftConfig) (*DriftResult, error) {
	cfg = cfg.withDefaults()
	tmpl, err := env.Template(cfg.Template)
	if err != nil {
		return nil, err
	}
	oracle := NewOracle(env, tmpl)
	points := workload.MustTrajectories(workload.TrajectoryConfig{
		Dims:      tmpl.Degree(),
		NumPoints: cfg.Instances,
		Sigma:     cfg.Sigma,
		Seed:      cfg.Seed,
	})

	res := &DriftResult{Template: cfg.Template, DriftStep: cfg.Instances / 2, FirstResetStep: -1}
	var window, lastQuarter metrics.Counter
	var estMatch, estTotal int
	resetsInWindow := 0

	// The manipulated environment, installed mid-workload: following the
	// paper ("the plan space of Q1 was artificially manipulated to violate
	// the plan choice predictability and plan cost predictability
	// assumptions"), plan labels are scrambled on a fine grid — so nearby
	// points no longer share plans — and costs are perturbed per cell.
	manipulated := &manipulatedEnv{Oracle: oracle, planOffset: 1 << 16, seed: cfg.Seed + 99}
	var active core.Environment = oracle
	driverEnv := &switchableEnv{}
	driverEnv.env = &active

	driver, err := core.NewOnline(core.OnlineConfig{
		Core: core.Config{
			Dims: tmpl.Degree(), Radius: cfg.Radius, Gamma: cfg.Gamma,
			Seed: cfg.Seed,
		},
		InvocationProb: 0.05,
		CostEpsilon:    cfg.CostEpsilon,
		WindowK:        cfg.WindowK,
		PrecisionFloor: cfg.PrecisionFloor,
		Seed:           cfg.Seed + 1,
	}, driverEnv)
	if err != nil {
		return nil, err
	}

	truthLabel := func(x []float64) (int, error) {
		if active == oracle {
			p, _, err := oracle.Label(x)
			return p, err
		}
		p, _, err := manipulated.Optimize(x)
		return p, err
	}

	for i, x := range points {
		if i == res.DriftStep {
			active = manipulated
		}
		d, err := driver.Step(x)
		if err != nil {
			return nil, err
		}
		truth, err := truthLabel(x)
		if err != nil {
			return nil, err
		}
		correct := d.Predicted && d.PredictedPlan == truth
		window.RecordTruth(d.Predicted, correct)
		if i >= cfg.Instances*3/4 {
			lastQuarter.RecordTruth(d.Predicted, correct)
		}
		// The binary estimator classifies served predictions via the cost
		// check; measure its agreement with ground truth.
		if d.Predicted && !d.RandomInvocation {
			classifiedCorrect := !d.FeedbackCorrection
			estTotal++
			if classifiedCorrect == correct {
				estMatch++
			}
		}
		if d.DriftReset {
			resetsInWindow++
			if i >= res.DriftStep && res.FirstResetStep == -1 {
				res.FirstResetStep = i
			}
		}
		if (i+1)%cfg.WindowK == 0 || i == len(points)-1 {
			est, known := driver.Estimator().Precision()
			res.Windows = append(res.Windows, DriftWindow{
				EndStep:        i + 1,
				TruePrecision:  window.Precision(),
				EstPrecision:   est,
				EstKnown:       known,
				ResetsInWindow: resetsInWindow,
			})
			window = metrics.Counter{}
			resetsInWindow = 0
		}
	}
	if estTotal > 0 {
		res.EstimatorAccuracy = float64(estMatch) / float64(estTotal)
	}
	res.EstimatorSamples = estTotal
	res.PostRecoveryPrecision = lastQuarter.Precision()
	return res, nil
}

// Table renders the drift run.
func (r *DriftResult) Table() *Table {
	t := &Table{
		ID:     "drift",
		Title:  fmt.Sprintf("Plan space manipulation mid-workload on %s (Section V-D)", r.Template),
		Header: []string{"window end", "true precision", "estimated precision", "resets"},
	}
	for _, w := range r.Windows {
		est := "-"
		if w.EstKnown {
			est = f3(w.EstPrecision)
		}
		marker := ""
		if w.EndStep > r.DriftStep && w.EndStep-100 <= r.DriftStep {
			marker = "  <- plan space manipulated"
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(w.EndStep) + marker, f3(w.TruePrecision), est, fmt.Sprint(w.ResetsInWindow),
		})
	}
	reset := "never"
	if r.FirstResetStep >= 0 {
		reset = fmt.Sprintf("step %d (%d after the change)", r.FirstResetStep, r.FirstResetStep-r.DriftStep)
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("drift injected at step %d; first recovery reset: %s", r.DriftStep, reset),
		fmt.Sprintf("binary cost-based estimator accuracy: %.3f over %d served predictions (paper: 0.72 at ε=0.25)",
			r.EstimatorAccuracy, r.EstimatorSamples),
		fmt.Sprintf("true precision over the final quarter (post recovery): %.3f", r.PostRecoveryPrecision),
		"paper shape: a sudden drop in estimated precision shortly after the manipulation, then recovery")
	return t
}

// switchableEnv lets the experiment swap the environment under a running
// driver.
type switchableEnv struct {
	env *core.Environment
}

// Optimize implements core.Environment.
func (s *switchableEnv) Optimize(x []float64) (int, float64, error) { return (*s.env).Optimize(x) }

// ExecuteCost implements core.Environment.
func (s *switchableEnv) ExecuteCost(x []float64, plan int) (float64, error) {
	return (*s.env).ExecuteCost(x, plan)
}

// manipulatedEnv is the post-drift plan space: plan identity varies on a
// fine grid (violating plan choice predictability) and costs are scaled by
// a pseudo-random per-cell factor (violating plan cost predictability).
type manipulatedEnv struct {
	*Oracle
	planOffset int
	seed       int64
}

// cellHash quantizes x at resolution 8 and hashes it with the seed.
func (m *manipulatedEnv) cellHash(x []float64) uint64 {
	h := uint64(m.seed)*0x9e3779b97f4a7c15 + 0x2545f4914f6cdd1d
	for _, v := range x {
		c := uint64(v * 8)
		if c > 7 {
			c = 7
		}
		h = (h ^ c) * 0x100000001b3
	}
	return h
}

// Optimize implements core.Environment with scrambled labels and costs.
func (m *manipulatedEnv) Optimize(x []float64) (int, float64, error) {
	base, cost, err := m.Oracle.Optimize(x)
	if err != nil {
		return 0, 0, err
	}
	h := m.cellHash(x)
	plan := m.planOffset + (base+int(h%5))%7 // labels flip cell to cell
	factor := 0.25 + float64(h%16)           // costs jump 0.25x .. 15x
	return plan, cost * factor, nil
}

// ExecuteCost implements core.Environment: executing any pre-drift plan in
// the manipulated space observes a chaotic cost, and the scrambled plans
// behave like their scrambled optima.
func (m *manipulatedEnv) ExecuteCost(x []float64, plan int) (float64, error) {
	truth, cost, err := m.Optimize(x)
	if err != nil {
		return 0, err
	}
	if plan == truth {
		return cost, nil
	}
	h := m.cellHash(x)
	return cost * (2 + float64(h%7)), nil
}
