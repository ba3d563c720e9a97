package experiments

import (
	"fmt"
	"time"

	"repro/internal/baselines"
	"repro/internal/core"
	"repro/internal/workload"
)

// Tab1Config configures the complexity/space validation of Table I:
// asymptotic prediction complexity and space formulas of the four
// algorithms, backed by measured bytes and per-prediction latency at the
// standard configuration.
type Tab1Config struct {
	Template    string
	SampleSize  int
	TestPoints  int
	Transforms  int
	GridBuckets int
	HistBuckets int
	Radius      float64
	Gamma       float64
	Frac        float64
	Seed        int64
}

func (c Tab1Config) withDefaults() Tab1Config {
	if c.Template == "" {
		c.Template = "Q1"
	}
	if c.SampleSize == 0 {
		c.SampleSize = 3200
	}
	if c.TestPoints == 0 {
		c.TestPoints = 2000
	}
	if c.Transforms == 0 {
		c.Transforms = 5
	}
	if c.GridBuckets == 0 {
		c.GridBuckets = 4096
	}
	if c.HistBuckets == 0 {
		c.HistBuckets = 40
	}
	if c.Radius == 0 {
		c.Radius = 0.05
	}
	if c.Gamma == 0 {
		c.Gamma = 0.7
	}
	if c.Seed == 0 {
		c.Seed = 2012
	}
	c.SampleSize = scaleInt(c.SampleSize, c.Frac, 200)
	c.TestPoints = scaleInt(c.TestPoints, c.Frac, 200)
	return c
}

// Tab1Row describes one algorithm.
type Tab1Row struct {
	Algorithm     string
	Complexity    string
	SpaceFormula  string
	MeasuredBytes int
	NsPerPredict  float64
}

// Tab1Result is the validation outcome.
type Tab1Result struct {
	Template   string
	SampleSize int
	Rows       []Tab1Row
}

// RunTab1 reproduces Table I with measurements.
func RunTab1(env *Env, cfg Tab1Config) (*Tab1Result, error) {
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
	r := tmpl.Degree()
	coreCfg := baselines.Config{Config: core.Config{
		Dims: r, Radius: cfg.Radius, Gamma: cfg.Gamma,
		Transforms: cfg.Transforms, HistBuckets: cfg.HistBuckets,
		Seed: cfg.Seed,
	}, GridBuckets: cfg.GridBuckets}
	tests := workload.Uniform(r, cfg.TestPoints, cfg.Seed+7)

	res := &Tab1Result{Template: cfg.Template, SampleSize: cfg.SampleSize}
	specs := []struct {
		kind       predictorKind
		complexity string
		space      string
		bytes      func() int
	}{
		{kindBaseline, "O(|X|) per prediction", "|X| * (4r+8)",
			func() int { return cfg.SampleSize * BaselineBytesPerSample(r) }},
		{kindNaive, "O(1) per prediction", "n * b_g * 8", nil},
		{kindApproxLSH, "O(t) per prediction", "t * n * b_g * 8", nil},
		{kindApproxLSHHist, "O(t * log b_h) per prediction", "t * n * b_h * 12", nil},
	}
	for _, spec := range specs {
		p, err := buildPredictor(spec.kind, coreCfg, samples)
		if err != nil {
			return nil, err
		}
		var bytes int
		if spec.bytes != nil {
			bytes = spec.bytes()
		} else if mb, ok := p.(interface{ MemoryBytes() int }); ok {
			bytes = mb.MemoryBytes()
		}
		t0 := time.Now()
		for _, x := range tests {
			p.Predict(x)
		}
		ns := float64(time.Since(t0).Nanoseconds()) / float64(len(tests))
		res.Rows = append(res.Rows, Tab1Row{
			Algorithm:     spec.kind.String(),
			Complexity:    spec.complexity,
			SpaceFormula:  spec.space,
			MeasuredBytes: bytes,
			NsPerPredict:  ns,
		})
	}
	return res, nil
}

// Table renders the validation.
func (r *Tab1Result) Table() *Table {
	t := &Table{
		ID:     "tab1",
		Title:  fmt.Sprintf("Complexity and space of the algorithms (Table I), measured on %s with |X|=%d", r.Template, r.SampleSize),
		Header: []string{"algorithm", "prediction complexity", "space (bytes)", "measured bytes", "measured ns/prediction"},
	}
	for _, row := range r.Rows {
		t.Rows = append(t.Rows, []string{
			row.Algorithm, row.Complexity, row.SpaceFormula,
			fmt.Sprint(row.MeasuredBytes), fmt.Sprintf("%.0f", row.NsPerPredict),
		})
	}
	t.Notes = append(t.Notes,
		"paper shape: BASELINE's latency grows with |X| while the approximations are |X|-independent; histograms need the least space")
	return t
}
