package workload

// A non-stationary workload generator. Its only user is the benchmark
// harness: bench/'s serve_durable workload drives all nine templates along
// the diagonal with it, so the plan cache sees its working set move.

import (
	"fmt"
	"math"
	"math/rand"
)

// DriftConfig configures the temporally drifting workload: a Gaussian whose
// center translates linearly from Start to End over the stream, modelling a
// parameter distribution that shifts over time.
type DriftConfig struct {
	// Dims is the plan space dimensionality.
	Dims int
	// NumPoints is the number of instances (default 1000).
	NumPoints int
	// Start and End are the mode's centers at the stream's first and last
	// point (defaults 0.2 and 0.8 on every axis). Length must equal Dims
	// when set.
	Start []float64
	End   []float64
	// Sigma is the mode's standard deviation (default 0.05).
	Sigma float64
	// Seed drives all randomness.
	Seed int64
}

func (c DriftConfig) withDefaults() (DriftConfig, error) {
	if c.Dims <= 0 {
		return c, fmt.Errorf("workload: Dims must be positive, got %d", c.Dims)
	}
	if c.NumPoints == 0 {
		c.NumPoints = 1000
	}
	if c.NumPoints < 1 {
		return c, fmt.Errorf("workload: NumPoints must be positive, got %d", c.NumPoints)
	}
	if c.Start == nil {
		c.Start = constantPoint(c.Dims, 0.2)
	}
	if c.End == nil {
		c.End = constantPoint(c.Dims, 0.8)
	}
	if len(c.Start) != c.Dims || len(c.End) != c.Dims {
		return c, fmt.Errorf("workload: Start/End have %d/%d coordinates, Dims is %d",
			len(c.Start), len(c.End), c.Dims)
	}
	if c.Sigma == 0 {
		c.Sigma = 0.05
	}
	if c.Sigma < 0 {
		return c, fmt.Errorf("workload: Sigma must be non-negative, got %v", c.Sigma)
	}
	return c, nil
}

// Drifting generates the temporally drifting workload: point i is a
// Gaussian draw around the center interpolated i/(n-1) of the way from
// Start to End.
func Drifting(cfg DriftConfig) ([][]float64, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	out := make([][]float64, cfg.NumPoints)
	denom := math.Max(1, float64(cfg.NumPoints-1))
	for i := range out {
		frac := float64(i) / denom
		p := make([]float64, cfg.Dims)
		for j := range p {
			center := cfg.Start[j] + (cfg.End[j]-cfg.Start[j])*frac
			p[j] = clamp01(center + rng.NormFloat64()*cfg.Sigma)
		}
		out[i] = p
	}
	return out, nil
}

// MustDrifting is like Drifting but panics on error.
func MustDrifting(cfg DriftConfig) [][]float64 {
	pts, err := Drifting(cfg)
	if err != nil {
		panic(err)
	}
	return pts
}

func constantPoint(dims int, v float64) []float64 {
	p := make([]float64, dims)
	for j := range p {
		p[j] = v
	}
	return p
}
