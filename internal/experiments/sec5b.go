package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/workload"
)

// Sec5bConfig configures the Section V-B headline summary: online
// precision and recall of every template Q0–Q8 over random trajectories at
// one locality level (the paper quotes the r_d = 0.08 numbers: precision
// > 90% for Q0–Q3 and Q6–Q7; recall > 70% for Q0–Q3, > 55% for Q6–Q8,
// > 35% for Q4–Q5).
type Sec5bConfig struct {
	Sigma          float64
	Instances      int
	Radii          []float64
	HistBuckets    int
	Transforms     int
	Gamma          float64
	InvocationProb float64
	Frac           float64
	Seed           int64
}

func (c Sec5bConfig) withDefaults() Sec5bConfig {
	if c.Sigma == 0 {
		c.Sigma = 0.08
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
	if c.Seed == 0 {
		c.Seed = 2012
	}
	c.Instances = scaleInt(c.Instances, c.Frac, 200)
	if c.Frac > 0 && c.Frac < 1 && len(c.Radii) > 2 {
		c.Radii = c.Radii[:2]
	}
	return c
}

// Sec5bRow is one template's summary.
type Sec5bRow struct {
	Template  string
	Degree    int
	Precision float64
	Recall    float64
}

// Sec5bResult is the summary outcome.
type Sec5bResult struct {
	Sigma float64
	Rows  []Sec5bRow
}

// RunSec5b reproduces the Section V-B per-template summary.
func RunSec5b(env *Env, cfg Sec5bConfig) (*Sec5bResult, error) {
	cfg = cfg.withDefaults()
	res := &Sec5bResult{Sigma: cfg.Sigma}
	for _, name := range sortedKeys(env.Templates) {
		tmpl := env.Templates[name]
		var total metrics.Counter
		for di, d := range cfg.Radii {
			points := workload.MustTrajectories(workload.TrajectoryConfig{
				Dims:      tmpl.Degree(),
				NumPoints: cfg.Instances,
				Sigma:     cfg.Sigma,
				Seed:      cfg.Seed + int64(di)*7,
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
			t, _, err := onlineRun(env, name, points, ocfg, cfg.Instances)
			if err != nil {
				return nil, err
			}
			total.Merge(t)
		}
		res.Rows = append(res.Rows, Sec5bRow{
			Template: name, Degree: tmpl.Degree(),
			Precision: total.Precision(), Recall: total.Recall(),
		})
	}
	return res, nil
}

// Table renders the summary.
func (r *Sec5bResult) Table() *Table {
	t := &Table{
		ID:     "sec5b",
		Title:  fmt.Sprintf("Online precision/recall per template at r_d = %.2f (Section V-B summary)", r.Sigma),
		Header: []string{"template", "degree", "precision", "recall"},
	}
	for _, row := range r.Rows {
		t.Rows = append(t.Rows, []string{row.Template, fmt.Sprint(row.Degree), f3(row.Precision), f3(row.Recall)})
	}
	t.Notes = append(t.Notes,
		"paper claims at r_d=0.08: precision > 0.90 for Q0-Q3, Q6-Q7; recall > 0.70 for Q0-Q3, > 0.55 for Q6-Q8, > 0.35 for Q4-Q5")
	return t
}
