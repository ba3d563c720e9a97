// Package baselines holds the paper's offline reference predictors, which
// the evaluation compares the served predictor against but no serving path
// runs:
//
//   - the three candidate clustering methods of Section III — k-means
//     predict, single-linkage predict and density predict (Algorithm 1,
//     BASELINE) — over the raw sample set;
//   - the two approximations of BASELINE that Section IV-B builds on the way
//     to the histograms: NAÏVE, one fixed grid, and APPROXIMATE-LSH, t
//     randomized grids whose per-plan densities are median-combined;
//   - SegmentConfidence, the exact circular-segment form of the Section IV-A
//     confidence model.
//
// The vocabulary they share with the served learner — Sample, Prediction,
// the confidence model and the Algorithm 1 vote — lives in package core,
// which holds APPROXIMATE-LSH-HISTOGRAMS, the one predictor the system
// serves. Only the experiments import this package.
package baselines

import (
	"fmt"
	"math"

	"repro/internal/core"
)

// Predictor is the common interface of the offline algorithms.
type Predictor interface {
	// Predict returns the plan prediction for plan space point x, or a
	// NULL prediction (OK == false) when the algorithm declines.
	Predict(x []float64) core.Prediction
}

// Config parameterizes NAÏVE and APPROXIMATE-LSH: the served predictor's
// configuration plus the grid bucket budget they partition a space with.
type Config struct {
	core.Config
	// GridBuckets is the per-grid bucket budget b_g (default 4096).
	GridBuckets int
}

// withDefaults fills zero fields with the paper's defaults.
func (c Config) withDefaults() (Config, error) {
	var err error
	if c.Config, err = c.Config.WithDefaults(); err != nil {
		return c, err
	}
	if c.GridBuckets == 0 {
		c.GridBuckets = 4096
	}
	if c.GridBuckets < 1 {
		return c, fmt.Errorf("baselines: GridBuckets must be positive, got %d", c.GridBuckets)
	}
	return c, nil
}

// SegmentConfidence is the exact circular-segment variant of the model: it
// inverts the segment-area formula to recover sin(θ) from the minority
// area fraction. Stricter than core.Confidence at every purity level.
func SegmentConfidence(countMax, countTotal float64) float64 {
	if countTotal <= 0 || countMax <= 0 {
		return 0
	}
	if countMax >= countTotal {
		return 1
	}
	fMin := (countTotal - countMax) / countTotal
	if fMin >= 0.5 {
		return 0
	}
	return chordOffsetForMinorityFraction(fMin)
}

// chordOffsetForMinorityFraction inverts the circular-segment area formula:
// a chord at normalized distance u from the center of a unit disk cuts off
// a segment of area fraction g(u) = (acos(u) − u·sqrt(1−u²))/π. Given the
// minority fraction fMin ∈ (0, 0.5), it returns u = sin(θ) ∈ (0, 1).
func chordOffsetForMinorityFraction(fMin float64) float64 {
	g := func(u float64) float64 {
		return (math.Acos(u) - u*math.Sqrt(1-u*u)) / math.Pi
	}
	lo, hi := 0.0, 1.0
	for i := 0; i < 60; i++ {
		mid := (lo + hi) / 2
		if g(mid) > fMin {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2
}
