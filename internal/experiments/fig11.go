package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/workload"
)

// Fig11Config configures the online performance experiment of Section V-B
// (Figure 11): ONLINE-APPROXIMATE-LSH-HISTOGRAMS over random-trajectory
// workloads at several locality levels r_d, with noise elimination and 5%
// random optimizer invocations, averaged over query radii d.
type Fig11Config struct {
	// Template (the paper's learning-curve figure uses Q8).
	Template string
	// Sigmas is the r_d sweep (paper: {0.01, 0.02, 0.04, 0.08}).
	Sigmas []float64
	// Instances per workload (paper: 1000).
	Instances int
	// Radii to average over (paper: d = {0.05, 0.1, 0.15, 0.2}).
	Radii []float64
	// HistBuckets, Transforms, Gamma (paper: 40, 5, 0.8).
	HistBuckets int
	Transforms  int
	Gamma       float64
	// InvocationProb (paper: 5%).
	InvocationProb float64
	// WindowSize is the learning-curve bucketing (default 100 steps).
	WindowSize int
	Frac       float64
	Seed       int64
}

func (c Fig11Config) withDefaults() Fig11Config {
	if c.Template == "" {
		c.Template = "Q8"
	}
	if len(c.Sigmas) == 0 {
		c.Sigmas = []float64{0.01, 0.02, 0.04, 0.08}
	}
	if c.Instances == 0 {
		c.Instances = 1000
	}
	if len(c.Radii) == 0 {
		c.Radii = []float64{0.05, 0.1, 0.15, 0.2}
	}
	if c.HistBuckets == 0 {
		c.HistBuckets = 40
	}
	if c.Transforms == 0 {
		c.Transforms = 5
	}
	if c.Gamma == 0 {
		c.Gamma = 0.8
	}
	if c.InvocationProb == 0 {
		c.InvocationProb = 0.05
	}
	if c.WindowSize == 0 {
		c.WindowSize = 100
	}
	if c.Seed == 0 {
		c.Seed = 2012
	}
	c.Instances = scaleInt(c.Instances, c.Frac, 200)
	if c.Frac > 0 && c.Frac < 1 && len(c.Radii) > 2 {
		c.Radii = c.Radii[:2]
	}
	return c
}

// Fig11Row summarizes one r_d level.
type Fig11Row struct {
	Sigma     float64
	Precision float64
	Recall    float64
	// Curve is the per-window recall over the workload (the learning
	// curve), averaged over the radii.
	Curve []float64
	// PrecCurve is the per-window precision.
	PrecCurve []float64
}

// Fig11Result is the online performance outcome.
type Fig11Result struct {
	Template   string
	WindowSize int
	Rows       []Fig11Row
}

// onlineRun drives one online workload and scores each NULL-free prediction
// against the oracle's ground truth. It returns the overall counter and
// per-window counters.
func onlineRun(env *Env, tmplName string, points [][]float64, ocfg core.OnlineConfig, windowSize int) (metrics.Counter, []metrics.Counter, error) {
	tmpl, err := env.Template(tmplName)
	if err != nil {
		return metrics.Counter{}, nil, err
	}
	oracle := NewOracle(env, tmpl)
	ocfg.Core.Dims = tmpl.Degree()
	driver, err := core.NewOnline(ocfg, oracle)
	if err != nil {
		return metrics.Counter{}, nil, err
	}
	var total metrics.Counter
	windows := make([]metrics.Counter, (len(points)+windowSize-1)/windowSize)
	for i, x := range points {
		d, err := driver.Step(x)
		if err != nil {
			return metrics.Counter{}, nil, err
		}
		truth, _, err := oracle.Label(x)
		if err != nil {
			return metrics.Counter{}, nil, err
		}
		correct := d.Predicted && d.PredictedPlan == truth
		total.RecordTruth(d.Predicted, correct)
		windows[i/windowSize].RecordTruth(d.Predicted, correct)
	}
	return total, windows, nil
}

// RunFig11 reproduces Figure 11 and the Section V-B summary numbers.
func RunFig11(env *Env, cfg Fig11Config) (*Fig11Result, error) {
	cfg = cfg.withDefaults()
	res := &Fig11Result{Template: cfg.Template, WindowSize: cfg.WindowSize}
	tmpl, err := env.Template(cfg.Template)
	if err != nil {
		return nil, err
	}
	for si, sigma := range cfg.Sigmas {
		var total metrics.Counter
		nWindows := (cfg.Instances + cfg.WindowSize - 1) / cfg.WindowSize
		aggWindows := make([]metrics.Counter, nWindows)
		for di, d := range cfg.Radii {
			points := workload.MustTrajectories(workload.TrajectoryConfig{
				Dims:      tmpl.Degree(),
				NumPoints: cfg.Instances,
				Sigma:     sigma,
				Seed:      cfg.Seed + int64(si)*31 + int64(di)*7,
			})
			ocfg := core.OnlineConfig{
				Core: core.Config{
					Radius: d, Gamma: cfg.Gamma,
					Transforms: cfg.Transforms, HistBuckets: cfg.HistBuckets,
					Seed: cfg.Seed + int64(di),
				},
				InvocationProb: cfg.InvocationProb,
				Seed:           cfg.Seed + int64(di)*13,
			}
			t, ws, err := onlineRun(env, cfg.Template, points, ocfg, cfg.WindowSize)
			if err != nil {
				return nil, err
			}
			total.Merge(t)
			for i := range ws {
				if i < len(aggWindows) {
					aggWindows[i].Merge(ws[i])
				}
			}
		}
		row := Fig11Row{Sigma: sigma, Precision: total.Precision(), Recall: total.Recall()}
		for _, w := range aggWindows {
			row.Curve = append(row.Curve, w.Recall())
			row.PrecCurve = append(row.PrecCurve, w.Precision())
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// Table renders the summary and learning curves.
func (r *Fig11Result) Table() *Table {
	t := &Table{
		ID:     "fig11",
		Title:  fmt.Sprintf("Online precision/recall on %s over random trajectories (Figure 11)", r.Template),
		Header: []string{"r_d", "precision", "recall", "recall learning curve (per " + fmt.Sprint(r.WindowSize) + " queries)"},
	}
	for _, row := range r.Rows {
		curve := ""
		for i, v := range row.Curve {
			if i > 0 {
				curve += " "
			}
			curve += f2(v)
		}
		t.Rows = append(t.Rows, []string{f2(row.Sigma), f3(row.Precision), f3(row.Recall), curve})
	}
	t.Notes = append(t.Notes,
		"paper shape: recall climbs through a learning phase then plateaus; precision and recall decrease as r_d grows")
	return t
}
