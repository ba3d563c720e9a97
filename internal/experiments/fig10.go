package experiments

import (
	"fmt"

	"repro/internal/baselines"
	"repro/internal/core"
	"repro/internal/metrics"
)

// Fig10aConfig configures the transform-count sweep of Figure 10(a):
// precision of APPROXIMATE-LSH-HISTOGRAMS as t increases, at γ = 0.7,
// contrasting a low-degree and a high-degree template.
type Fig10aConfig struct {
	Templates   []string
	SampleSize  int
	TestPoints  int
	HistBuckets int
	Transforms  []int
	Gamma       float64
	Radii       []float64
	Frac        float64
	Seed        int64
}

func (c Fig10aConfig) withDefaults() Fig10aConfig {
	if len(c.Templates) == 0 {
		c.Templates = []string{"Q1", "Q7"}
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
	if len(c.Transforms) == 0 {
		c.Transforms = []int{3, 5, 7, 9, 11}
	}
	if c.Gamma == 0 {
		c.Gamma = 0.7
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

// Fig10Row is one sweep cell.
type Fig10Row struct {
	Template  string
	Param     int // t for 10(a), b_h for 10(b)
	Precision float64
	Recall    float64
}

// Fig10aResult is the transform sweep outcome.
type Fig10aResult struct{ Rows []Fig10Row }

// RunFig10a reproduces Figure 10(a).
func RunFig10a(env *Env, cfg Fig10aConfig) (*Fig10aResult, error) {
	cfg = cfg.withDefaults()
	res := &Fig10aResult{}
	for _, name := range cfg.Templates {
		tmpl, err := env.Template(name)
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
		for _, t := range cfg.Transforms {
			var agg metrics.Counter
			for _, d := range cfg.Radii {
				p, err := buildPredictor(kindApproxLSHHist, baselines.Config{Config: core.Config{
					Dims: tmpl.Degree(), Radius: d, Gamma: cfg.Gamma,
					Transforms: t, HistBuckets: cfg.HistBuckets,
					Seed: cfg.Seed,
				}}, samples)
				if err != nil {
					return nil, err
				}
				agg.Merge(evalOffline(p, tests))
			}
			res.Rows = append(res.Rows, Fig10Row{Template: name, Param: t,
				Precision: agg.Precision(), Recall: agg.Recall()})
		}
	}
	return res, nil
}

// Table renders the transform sweep.
func (r *Fig10aResult) Table() *Table {
	t := &Table{
		ID:     "fig10a",
		Title:  "Precision vs number of randomized transformations t (Figure 10(a))",
		Header: []string{"template", "t", "precision", "recall"},
	}
	for _, row := range r.Rows {
		t.Rows = append(t.Rows, []string{row.Template, fmt.Sprint(row.Param), f3(row.Precision), f3(row.Recall)})
	}
	t.Notes = append(t.Notes,
		"paper shape: precision improves with t (more at higher dimension); recall roughly flat")
	return t
}

// Fig10bConfig configures the histogram-bucket sweep of Figure 10(b):
// recall of APPROXIMATE-LSH-HISTOGRAMS as b_h increases, at t = 5.
type Fig10bConfig struct {
	Template    string
	SampleSize  int
	TestPoints  int
	HistBuckets []int
	Transforms  int
	Gamma       float64
	Radii       []float64
	Frac        float64
	Seed        int64
}

func (c Fig10bConfig) withDefaults() Fig10bConfig {
	if c.Template == "" {
		c.Template = "Q5"
	}
	if c.SampleSize == 0 {
		c.SampleSize = 3200
	}
	if c.TestPoints == 0 {
		c.TestPoints = 1000
	}
	if len(c.HistBuckets) == 0 {
		c.HistBuckets = []int{10, 20, 40, 80, 160}
	}
	if c.Transforms == 0 {
		c.Transforms = 5
	}
	if c.Gamma == 0 {
		c.Gamma = 0.7
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

// Fig10bResult is the bucket sweep outcome.
type Fig10bResult struct {
	Template string
	Rows     []Fig10Row
}

// RunFig10b reproduces Figure 10(b).
func RunFig10b(env *Env, cfg Fig10bConfig) (*Fig10bResult, error) {
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
	res := &Fig10bResult{Template: cfg.Template}
	for _, bh := range cfg.HistBuckets {
		var agg metrics.Counter
		for _, d := range cfg.Radii {
			p, err := buildPredictor(kindApproxLSHHist, baselines.Config{Config: core.Config{
				Dims: tmpl.Degree(), Radius: d, Gamma: cfg.Gamma,
				Transforms: cfg.Transforms, HistBuckets: bh,
				Seed: cfg.Seed,
			}}, samples)
			if err != nil {
				return nil, err
			}
			agg.Merge(evalOffline(p, tests))
		}
		res.Rows = append(res.Rows, Fig10Row{Template: cfg.Template, Param: bh,
			Precision: agg.Precision(), Recall: agg.Recall()})
	}
	return res, nil
}

// Table renders the bucket sweep.
func (r *Fig10bResult) Table() *Table {
	t := &Table{
		ID:     "fig10b",
		Title:  fmt.Sprintf("Recall vs histogram buckets b_h on %s (Figure 10(b))", r.Template),
		Header: []string{"b_h", "precision", "recall"},
	}
	for _, row := range r.Rows {
		t.Rows = append(t.Rows, []string{fmt.Sprint(row.Param), f3(row.Precision), f3(row.Recall)})
	}
	t.Notes = append(t.Notes,
		"paper shape: recall increases with b_h while precision stays roughly constant — space is traded for recall, not precision")
	return t
}
