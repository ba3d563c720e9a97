package experiments

import (
	"fmt"

	"repro/internal/baselines"
	"repro/internal/core"
	"repro/internal/metrics"
)

// Fig8Config configures the Section V-A comparison of NAÏVE and
// APPROXIMATE-LSH against BASELINE at equal space budgets (Figure 8),
// contrasting a low-degree template (Q1) with a high-degree one (Q7).
type Fig8Config struct {
	// Templates to compare (paper shows Q1 and Q7 as the two extremes).
	Templates []string
	// SampleSizes is the |X| sweep (paper: 200…6400). Each |X| implies a
	// space budget M = |X| · BaselineBytesPerSample(r); NAÏVE and
	// APPROXIMATE-LSH are granted the same M.
	SampleSizes []int
	// TestPoints is |T| (paper: 1000).
	TestPoints int
	// Transforms is t for APPROXIMATE-LSH (paper sweeps {3,…,11}; the
	// headline figure uses one value — default 5).
	Transforms int
	// Gamma (paper: γ=0.7).
	Gamma float64
	// Radii is the query radius sweep; results aggregate over it. The
	// paper's headline figure uses d=0.05, but on our synthetic substrate
	// the higher-degree plan spaces are so fragmented that a 0.05-ball is
	// empty at every tested |X|, so — like the paper's other Section V-A
	// experiments — we average over d = {0.05, 0.1, 0.15, 0.2}.
	Radii []float64
	Frac  float64
	Seed  int64
}

func (c Fig8Config) withDefaults() Fig8Config {
	if len(c.Templates) == 0 {
		c.Templates = []string{"Q1", "Q7"}
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

// Fig8Row is one (template, |X|, algorithm) cell.
type Fig8Row struct {
	Template   string
	SampleSize int
	Algorithm  string
	Precision  float64
	Recall     float64
	Bytes      int
}

// Fig8Result is the comparison outcome.
type Fig8Result struct {
	Rows []Fig8Row
}

// RunFig8 reproduces Figure 8.
func RunFig8(env *Env, cfg Fig8Config) (*Fig8Result, error) {
	cfg = cfg.withDefaults()
	res := &Fig8Result{}
	for _, name := range cfg.Templates {
		tmpl, err := env.Template(name)
		if err != nil {
			return nil, err
		}
		oracle := NewOracle(env, tmpl)
		r := tmpl.Degree()
		tests, err := oracle.SamplePlanSpace(cfg.TestPoints, cfg.Seed+7)
		if err != nil {
			return nil, err
		}
		for _, size := range cfg.SampleSizes {
			samples, err := oracle.SamplePlanSpace(size, cfg.Seed+int64(size))
			if err != nil {
				return nil, err
			}
			n := distinctPlans(samples)
			budget := size * BaselineBytesPerSample(r)
			for _, kind := range []predictorKind{kindBaseline, kindNaive, kindApproxLSH} {
				var agg metrics.Counter
				for _, d := range cfg.Radii {
					pcfg := baselines.Config{Config: core.Config{Dims: r, Radius: d, Gamma: cfg.Gamma}}
					switch kind {
					case kindNaive:
						pcfg.Seed = cfg.Seed
						pcfg.GridBuckets = budgetBuckets(budget, 8*n)
					case kindApproxLSH:
						pcfg.Seed = cfg.Seed
						pcfg.Transforms = cfg.Transforms
						pcfg.GridBuckets = budgetBuckets(budget, 8*n*cfg.Transforms)
					}
					p, err := buildPredictor(kind, pcfg, samples)
					if err != nil {
						return nil, err
					}
					agg.Merge(evalOffline(p, tests))
				}
				res.Rows = append(res.Rows, Fig8Row{
					Template: name, SampleSize: size, Algorithm: kind.String(),
					Precision: agg.Precision(), Recall: agg.Recall(), Bytes: budget,
				})
			}
		}
	}
	return res, nil
}

// Table renders the result.
func (r *Fig8Result) Table() *Table {
	t := &Table{
		ID:     "fig8",
		Title:  "NAIVE and APPROXIMATE-LSH vs BASELINE at equal space budgets (Section V-A)",
		Header: []string{"template", "|X|", "budget(B)", "algorithm", "precision", "recall"},
	}
	for _, row := range r.Rows {
		t.Rows = append(t.Rows, []string{
			row.Template, fmt.Sprint(row.SampleSize), fmt.Sprint(row.Bytes),
			row.Algorithm, f3(row.Precision), f3(row.Recall),
		})
	}
	t.Notes = append(t.Notes,
		"paper shape: on the low-degree template NAIVE ~ APPROX-LSH; on the high-degree template NAIVE's precision collapses while APPROX-LSH stays near BASELINE (trading recall)")
	return t
}
