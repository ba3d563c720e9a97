package experiments

import (
	"fmt"
	"math/rand"

	"repro/internal/baselines"
	"repro/internal/core"
	"repro/internal/metrics"
)

// Fig3Config configures the Section III clustering-method comparison
// (Figure 3): k-means predict vs single linkage predict vs density predict
// over offline plan space samples.
type Fig3Config struct {
	// Template names the plan space (default Q1, the paper's running
	// example).
	Template string
	// SampleSize is |X| (paper: 1000).
	SampleSize int
	// TestPoints per trial (paper: 1000) and Trials (paper: 20).
	TestPoints int
	Trials     int
	// Radii is the sweep of d values.
	Radii []float64
	// Gammas are the density-predict confidence thresholds (paper:
	// {0.5, 0.75, 0.95}).
	Gammas []float64
	// KMeansClusters is c (paper: 40).
	KMeansClusters int
	// Frac scales sizes down for smoke tests.
	Frac float64
	Seed int64
}

func (c Fig3Config) withDefaults() Fig3Config {
	if c.Template == "" {
		c.Template = "Q1"
	}
	if c.SampleSize == 0 {
		c.SampleSize = 1000
	}
	if c.TestPoints == 0 {
		c.TestPoints = 1000
	}
	if c.Trials == 0 {
		c.Trials = 20
	}
	if len(c.Radii) == 0 {
		c.Radii = []float64{0.05, 0.1, 0.15, 0.2}
	}
	if len(c.Gammas) == 0 {
		c.Gammas = []float64{0.5, 0.75, 0.95}
	}
	if c.KMeansClusters == 0 {
		c.KMeansClusters = 40
	}
	if c.Seed == 0 {
		c.Seed = 2012
	}
	c.SampleSize = scaleInt(c.SampleSize, c.Frac, 100)
	c.TestPoints = scaleInt(c.TestPoints, c.Frac, 100)
	c.Trials = scaleInt(c.Trials, c.Frac, 2)
	return c
}

// Fig3Row is one (algorithm, d) cell of Figure 3.
type Fig3Row struct {
	Algorithm string
	Radius    float64
	Precision float64
	Recall    float64
}

// Fig3Result is the comparison outcome.
type Fig3Result struct {
	Rows []Fig3Row
}

// RunFig3 reproduces Figure 3: for each radius d, initialize each
// clustering algorithm with |X| labeled samples and measure precision and
// recall over fresh test points, averaged over the configured trials.
func RunFig3(env *Env, cfg Fig3Config) (*Fig3Result, error) {
	cfg = cfg.withDefaults()
	tmpl, err := env.Template(cfg.Template)
	if err != nil {
		return nil, err
	}
	oracle := NewOracle(env, tmpl)

	type algo struct {
		name string
		mk   func(samples []core.Sample, d float64, rng *rand.Rand) baselines.Predictor
	}
	algos := []algo{
		{"kmeans(c=" + fmt.Sprint(cfg.KMeansClusters) + ")", func(s []core.Sample, d float64, rng *rand.Rand) baselines.Predictor {
			return baselines.NewKMeans(s, cfg.KMeansClusters, d, rng)
		}},
		{"single-linkage", func(s []core.Sample, d float64, _ *rand.Rand) baselines.Predictor {
			return baselines.NewSingleLinkage(s, d)
		}},
	}
	for _, g := range cfg.Gammas {
		g := g
		algos = append(algos, algo{
			fmt.Sprintf("density(γ=%.2f)", g),
			func(s []core.Sample, d float64, _ *rand.Rand) baselines.Predictor {
				return baselines.NewDensity(s, d, g)
			},
		})
	}

	res := &Fig3Result{}
	for _, d := range cfg.Radii {
		counters := make([]metrics.Counter, len(algos))
		for trial := 0; trial < cfg.Trials; trial++ {
			seed := cfg.Seed + int64(trial)*101
			samples, err := oracle.SamplePlanSpace(cfg.SampleSize, seed)
			if err != nil {
				return nil, err
			}
			tests, err := oracle.SamplePlanSpace(cfg.TestPoints, seed+50)
			if err != nil {
				return nil, err
			}
			rng := rand.New(rand.NewSource(seed + 99))
			for ai, a := range algos {
				p := a.mk(samples, d, rng)
				for _, tp := range tests {
					got := p.Predict(tp.Point)
					counters[ai].RecordTruth(got.OK, got.OK && got.Plan == tp.Plan)
				}
			}
		}
		for ai, a := range algos {
			res.Rows = append(res.Rows, Fig3Row{
				Algorithm: a.name,
				Radius:    d,
				Precision: counters[ai].Precision(),
				Recall:    counters[ai].Recall(),
			})
		}
	}
	return res, nil
}

// Table renders the result.
func (r *Fig3Result) Table() *Table {
	t := &Table{
		ID:     "fig3",
		Title:  "Quantitative comparison of k-means, single linkage and density predict (Section III-A)",
		Header: []string{"algorithm", "d", "precision", "recall"},
	}
	for _, row := range r.Rows {
		t.Rows = append(t.Rows, []string{row.Algorithm, f2(row.Radius), f3(row.Precision), f3(row.Recall)})
	}
	t.Notes = append(t.Notes,
		"paper shape: density >= single-linkage >> k-means on precision; higher γ trades recall for precision")
	return t
}
