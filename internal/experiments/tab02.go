package experiments

import (
	"fmt"

	"repro/internal/baselines"
	"repro/internal/core"
	"repro/internal/metrics"
)

// Tab2Config configures the confidence-threshold sweep of Table II:
// precision of APPROXIMATE-LSH-HISTOGRAMS on Q1 as γ increases, with
// |X| = 3200, b_h = 40, t = 5, averaged over query radii d.
type Tab2Config struct {
	Template    string
	SampleSize  int
	TestPoints  int
	HistBuckets int
	Transforms  int
	Gammas      []float64
	Radii       []float64
	Frac        float64
	Seed        int64
}

func (c Tab2Config) withDefaults() Tab2Config {
	if c.Template == "" {
		c.Template = "Q1"
	}
	if c.SampleSize == 0 {
		c.SampleSize = 3200
	}
	if c.TestPoints == 0 {
		c.TestPoints = 1000
	}
	if c.HistBuckets == 0 {
		c.HistBuckets = 40
	}
	if c.Transforms == 0 {
		c.Transforms = 5
	}
	if len(c.Gammas) == 0 {
		c.Gammas = []float64{0.5, 0.6, 0.7, 0.8, 0.9, 0.95}
	}
	if len(c.Radii) == 0 {
		c.Radii = []float64{0.05, 0.1, 0.15, 0.2}
	}
	if c.Seed == 0 {
		c.Seed = 2012
	}
	c.SampleSize = scaleInt(c.SampleSize, c.Frac, 200)
	c.TestPoints = scaleInt(c.TestPoints, c.Frac, 100)
	return c
}

// Tab2Row is one γ row, averaged over the radii.
type Tab2Row struct {
	Gamma     float64
	Precision float64
	Recall    float64
}

// Tab2Result is the sweep outcome.
type Tab2Result struct {
	Template string
	Rows     []Tab2Row
}

// RunTab2 reproduces Table II.
func RunTab2(env *Env, cfg Tab2Config) (*Tab2Result, error) {
	cfg = cfg.withDefaults()
	tmpl, err := env.Template(cfg.Template)
	if err != nil {
		return nil, err
	}
	oracle := NewOracle(env, tmpl)
	samples, err := oracle.SamplePlanSpace(cfg.SampleSize, cfg.Seed)
	if err != nil {
		return nil, err
	}
	tests, err := oracle.SamplePlanSpace(cfg.TestPoints, cfg.Seed+7)
	if err != nil {
		return nil, err
	}
	res := &Tab2Result{Template: cfg.Template}
	for _, gamma := range cfg.Gammas {
		var agg metrics.Counter
		for _, d := range cfg.Radii {
			p, err := buildPredictor(kindApproxLSHHist, baselines.Config{Config: core.Config{
				Dims: tmpl.Degree(), Radius: d, Gamma: gamma,
				Transforms: cfg.Transforms, HistBuckets: cfg.HistBuckets,
				Seed: cfg.Seed,
			}}, samples)
			if err != nil {
				return nil, err
			}
			agg.Merge(evalOffline(p, tests))
		}
		res.Rows = append(res.Rows, Tab2Row{Gamma: gamma, Precision: agg.Precision(), Recall: agg.Recall()})
	}
	return res, nil
}

// Table renders the sweep.
func (r *Tab2Result) Table() *Table {
	t := &Table{
		ID:     "tab2",
		Title:  fmt.Sprintf("Precision vs confidence threshold γ on %s (Table II)", r.Template),
		Header: []string{"gamma", "precision", "recall"},
	}
	for _, row := range r.Rows {
		t.Rows = append(t.Rows, []string{f2(row.Gamma), f3(row.Precision), f3(row.Recall)})
	}
	t.Notes = append(t.Notes, "paper shape: precision increases monotonically with γ; recall decreases")
	return t
}
