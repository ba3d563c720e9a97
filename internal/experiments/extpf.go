package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/workload"
)

// ExtPFConfig configures the positive-feedback extension study — the
// second future-work item of the paper's Section VII, implemented here
// with its suggested "checks and balances": a confidence gate and a
// budget tying self-labeled points to optimizer-validated ones.
type ExtPFConfig struct {
	Template  string
	Workloads int
	Instances int
	Sigma     float64
	Radius    float64
	Gamma     float64
	// Ratios sweeps the self-labeling budget (0 = extension off).
	Ratios []float64
	// WindowSize buckets the recall learning curve.
	WindowSize int
	Frac       float64
	Seed       int64
}

func (c ExtPFConfig) withDefaults() ExtPFConfig {
	if c.Template == "" {
		c.Template = "Q5"
	}
	if c.Workloads == 0 {
		c.Workloads = 10
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
	if len(c.Ratios) == 0 {
		c.Ratios = []float64{0, 0.5, 1, 2}
	}
	if c.WindowSize == 0 {
		c.WindowSize = 250
	}
	if c.Seed == 0 {
		c.Seed = 2012
	}
	c.Workloads = scaleInt(c.Workloads, c.Frac, 2)
	c.Instances = scaleInt(c.Instances, c.Frac, 250)
	return c
}

// ExtPFRow summarizes one budget level.
type ExtPFRow struct {
	Ratio     float64
	Precision float64
	Recall    float64
	// WarmupRecall is the recall over the first window — the metric
	// positive feedback is meant to improve.
	WarmupRecall float64
	// Invocations counts optimizer calls (positive feedback should lower
	// them).
	Invocations int
	SelfLabeled int
}

// ExtPFResult is the study outcome.
type ExtPFResult struct {
	Template string
	Rows     []ExtPFRow
}

// RunExtPF runs the positive-feedback study: the same trajectory workloads
// under increasing self-labeling budgets.
func RunExtPF(env *Env, cfg ExtPFConfig) (*ExtPFResult, error) {
	cfg = cfg.withDefaults()
	tmpl, err := env.Template(cfg.Template)
	if err != nil {
		return nil, err
	}
	res := &ExtPFResult{Template: cfg.Template}
	workloads := make([][][]float64, cfg.Workloads)
	for w := range workloads {
		workloads[w] = workload.MustTrajectories(workload.TrajectoryConfig{
			Dims:      tmpl.Degree(),
			NumPoints: cfg.Instances,
			Sigma:     cfg.Sigma,
			Seed:      cfg.Seed + int64(w)*61,
		})
	}
	for _, ratio := range cfg.Ratios {
		var total, warm metrics.Counter
		invocations, selfLabeled := 0, 0
		for w := range workloads {
			oracle := NewOracle(env, tmpl)
			driver, err := core.NewOnline(core.OnlineConfig{
				Core: core.Config{
					Dims: tmpl.Degree(), Radius: cfg.Radius, Gamma: cfg.Gamma,
					Seed: cfg.Seed + int64(w),
				},
				InvocationProb: 0.05,
				PositiveRatio:  ratio,
				Seed:           cfg.Seed + int64(w)*3,
			}, oracle)
			if err != nil {
				return nil, err
			}
			for i, x := range workloads[w] {
				d, err := driver.Step(x)
				if err != nil {
					return nil, err
				}
				truth, _, err := oracle.Label(x)
				if err != nil {
					return nil, err
				}
				correct := d.Predicted && d.PredictedPlan == truth
				total.RecordTruth(d.Predicted, correct)
				if i < cfg.WindowSize {
					warm.RecordTruth(d.Predicted, correct)
				}
				if d.Invoked {
					invocations++
				}
			}
			selfLabeled += driver.SelfLabeled()
		}
		res.Rows = append(res.Rows, ExtPFRow{
			Ratio:        ratio,
			Precision:    total.Precision(),
			Recall:       total.Recall(),
			WarmupRecall: warm.Recall(),
			Invocations:  invocations,
			SelfLabeled:  selfLabeled,
		})
	}
	return res, nil
}

// Table renders the study.
func (r *ExtPFResult) Table() *Table {
	t := &Table{
		ID:     "extpf",
		Title:  fmt.Sprintf("Positive feedback extension on %s (paper Section VII future work)", r.Template),
		Header: []string{"budget ratio", "precision", "recall", "warm-up recall", "optimizer calls", "self-labeled"},
	}
	for _, row := range r.Rows {
		t.Rows = append(t.Rows, []string{
			f2(row.Ratio), f3(row.Precision), f3(row.Recall), f3(row.WarmupRecall),
			fmt.Sprint(row.Invocations), fmt.Sprint(row.SelfLabeled),
		})
	}
	t.Notes = append(t.Notes,
		"expected: higher budgets raise recall (especially during warm-up) and cut optimizer calls; the confidence gate and budget keep precision from spiralling")
	return t
}
