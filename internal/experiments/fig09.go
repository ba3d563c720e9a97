package experiments

import (
	"fmt"

	"repro/internal/baselines"
	"repro/internal/core"
	"repro/internal/metrics"
)

// Fig9Config configures the APPROXIMATE-LSH vs APPROXIMATE-LSH-HISTOGRAMS
// comparison of Figure 9 (template Q5), using the same equal-space-budget
// protocol as Figure 8.
type Fig9Config struct {
	Template    string
	SampleSizes []int
	TestPoints  int
	Transforms  int
	Gamma       float64
	// Radii is the query radius sweep; results aggregate over it (see the
	// Fig8Config note on high-degree plan spaces).
	Radii []float64
	Frac  float64
	Seed  int64
}

func (c Fig9Config) withDefaults() Fig9Config {
	if c.Template == "" {
		c.Template = "Q5"
	}
	if len(c.SampleSizes) == 0 {
		c.SampleSizes = []int{200, 400, 800, 1600, 3200, 6400}
	}
	if c.TestPoints == 0 {
		c.TestPoints = 1000
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
	c.TestPoints = scaleInt(c.TestPoints, c.Frac, 100)
	if c.Frac > 0 && c.Frac < 1 && len(c.SampleSizes) > 3 {
		c.SampleSizes = c.SampleSizes[:3]
	}
	return c
}

// Fig9Row is one (|X|, algorithm) cell.
type Fig9Row struct {
	SampleSize int
	Algorithm  string
	Precision  float64
	Recall     float64
	HistBucket int // b_h granted to the histogram variant (0 for LSH)
}

// Fig9Result is the comparison outcome.
type Fig9Result struct {
	Template string
	Rows     []Fig9Row
}

// RunFig9 reproduces Figure 9.
func RunFig9(env *Env, cfg Fig9Config) (*Fig9Result, error) {
	cfg = cfg.withDefaults()
	tmpl, err := env.Template(cfg.Template)
	if err != nil {
		return nil, err
	}
	oracle := NewOracle(env, tmpl)
	r := tmpl.Degree()
	tests, err := oracle.SamplePlanSpace(cfg.TestPoints, cfg.Seed+7)
	if err != nil {
		return nil, err
	}
	res := &Fig9Result{Template: cfg.Template}
	for _, size := range cfg.SampleSizes {
		samples, err := oracle.SamplePlanSpace(size, cfg.Seed+int64(size))
		if err != nil {
			return nil, err
		}
		n := distinctPlans(samples)
		budget := size * BaselineBytesPerSample(r)
		bg := budgetBuckets(budget, 8*n*cfg.Transforms)
		bh := budgetBuckets(budget, 12*n*cfg.Transforms)
		for _, spec := range []struct {
			kind predictorKind
			bh   int
		}{
			{kindApproxLSH, 0},
			{kindApproxLSHHist, bh},
		} {
			var agg metrics.Counter
			for _, d := range cfg.Radii {
				pcfg := baselines.Config{Config: core.Config{Dims: r, Radius: d, Gamma: cfg.Gamma,
					Transforms: cfg.Transforms, Seed: cfg.Seed}}
				if spec.kind == kindApproxLSH {
					pcfg.GridBuckets = bg
				} else {
					pcfg.HistBuckets = bh
				}
				p, err := buildPredictor(spec.kind, pcfg, samples)
				if err != nil {
					return nil, err
				}
				agg.Merge(evalOffline(p, tests))
			}
			res.Rows = append(res.Rows, Fig9Row{
				SampleSize: size, Algorithm: spec.kind.String(),
				Precision: agg.Precision(), Recall: agg.Recall(), HistBucket: spec.bh,
			})
		}
	}
	return res, nil
}

// Table renders the result.
func (r *Fig9Result) Table() *Table {
	t := &Table{
		ID:     "fig9",
		Title:  fmt.Sprintf("APPROXIMATE-LSH vs APPROXIMATE-LSH-HISTOGRAMS on %s (Section V-A)", r.Template),
		Header: []string{"|X|", "algorithm", "b_h", "precision", "recall"},
	}
	for _, row := range r.Rows {
		bh := "-"
		if row.HistBucket > 0 {
			bh = fmt.Sprint(row.HistBucket)
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(row.SampleSize), row.Algorithm, bh, f3(row.Precision), f3(row.Recall),
		})
	}
	t.Notes = append(t.Notes,
		"paper shape: histograms improve precision (error-minimizing boundaries) at some cost in recall (z-order false negatives)")
	return t
}
