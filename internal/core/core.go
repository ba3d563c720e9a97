// Package core implements the paper's primary contribution: the parametric
// plan caching (PPC) framework built on online density-based plan space
// clustering with locality-sensitive hashing and database-histogram
// synopses (Sections IV and V).
//
// It holds the one predictor the system serves, ApproxLSHHist
// (APPROXIMATE-LSH-HISTOGRAMS, Section IV-C): t randomized
// locality-preserving transformations whose grids are linearized with a
// z-order curve and summarized in database histograms — one per
// (transform, plan) pair — with noise elimination. Online wraps it with the
// full online protocol (Section IV-D): warm-up, randomized optimizer
// invocations, negative feedback via the plan cost predictability check,
// sliding-window precision/recall estimation and drift detection. The
// offline references it approximates — BASELINE, NAÏVE, APPROXIMATE-LSH —
// live in package baselines.
package core

import (
	"fmt"
	"math"

	"repro/internal/lsh"
)

// Config parameterizes the approximate predictors. The defaults mirror the
// paper's experimental configuration.
type Config struct {
	// Dims is the plan space dimensionality r (the template's parameter
	// degree). Required.
	Dims int
	// OutDims is the intermediate dimensionality s of the LSH transforms;
	// 0 selects the paper's default (s = r up to 6 dimensions).
	OutDims int
	// Transforms is the number of randomized transformations t (default 5).
	Transforms int
	// HistBuckets is the per-histogram bucket budget b_h (default 40).
	HistBuckets int
	// Radius is the query radius d (default 0.1).
	Radius float64
	// Gamma is the confidence threshold γ (default 0.8).
	Gamma float64
	// NoiseFraction is the Section IV-C noise elimination threshold: plan
	// densities below this fraction of the point mass in the query range
	// are discarded (default 0.05; negative disables the check, since a
	// floor at or under zero discards no density).
	NoiseFraction float64
	// MinSamples delays predictions until at least this many labeled
	// points have been absorbed (Section IV-D: "plan predictions are
	// delayed until the algorithm has obtained sufficient input").
	// Default 20; set negative to disable.
	MinSamples int
	// Seed drives the randomized transformations.
	Seed int64
}

// maxProjectionWeights bounds Transforms × OutDims × Dims, the weights the
// LSH ensemble draws (8 MB of them); the paper's configurations use a few
// hundred.
const maxProjectionWeights = 1 << 20

// WithDefaults fills zero fields with the paper's defaults, or reports the
// first invalid field.
func (c Config) WithDefaults() (Config, error) {
	if c.Dims <= 0 {
		return c, fmt.Errorf("core: Dims must be positive, got %d", c.Dims)
	}
	// A point is at most as wide as the u16 dimension count the WAL's
	// feedback record and a predict request carry.
	if c.Dims > math.MaxUint16 {
		return c, fmt.Errorf("core: Dims %d exceeds %d", c.Dims, math.MaxUint16)
	}
	if c.OutDims == 0 {
		c.OutDims = lsh.DefaultOutputDims(c.Dims)
	}
	if c.OutDims < 0 || c.OutDims > c.Dims {
		return c, fmt.Errorf("core: OutDims %d out of range [1,%d]", c.OutDims, c.Dims)
	}
	if c.Transforms == 0 {
		c.Transforms = 5
	}
	if c.Transforms < 0 {
		return c, fmt.Errorf("core: Transforms must be positive, got %d", c.Transforms)
	}
	// The transforms' projection weights are drawn from the seed, never
	// stored, so this bound is what keeps a decoded synopsis from sizing
	// them by its config alone.
	if c.Transforms > maxProjectionWeights/(c.Dims*c.OutDims) {
		return c, fmt.Errorf("core: %d transforms of %d×%d projection weights exceed %d", c.Transforms, c.OutDims, c.Dims, maxProjectionWeights)
	}
	if c.HistBuckets == 0 {
		c.HistBuckets = 40
	}
	if c.HistBuckets < 1 {
		return c, fmt.Errorf("core: HistBuckets must be positive, got %d", c.HistBuckets)
	}
	if c.Radius == 0 {
		c.Radius = 0.1
	}
	if c.Radius < 0 || c.Radius > 1 {
		return c, fmt.Errorf("core: Radius %v out of (0,1]", c.Radius)
	}
	if c.Gamma == 0 {
		c.Gamma = 0.8
	}
	if c.Gamma < 0 || c.Gamma > 1 {
		return c, fmt.Errorf("core: Gamma %v out of [0,1]", c.Gamma)
	}
	if c.NoiseFraction == 0 {
		c.NoiseFraction = 0.05
	}
	if math.IsNaN(c.NoiseFraction) {
		return c, fmt.Errorf("core: NoiseFraction is NaN")
	}
	if c.MinSamples == 0 {
		c.MinSamples = 20
	}
	if c.MinSamples < 0 {
		c.MinSamples = 0
	}
	return c, nil
}

// clampPointInto clamps x into [0,1] coordinate-wise, writing into dst
// (which must have length len(x)) without allocating.
func clampPointInto(dst, x []float64) {
	for i, v := range x {
		dst[i] = math.Max(0, math.Min(1, v))
	}
}
