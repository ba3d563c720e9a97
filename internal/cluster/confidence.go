// Package cluster implements the three candidate clustering methods of the
// paper's Section III — k-means predict, single-linkage predict, and
// density predict (Algorithm 1, BASELINE): the reference algorithms the
// efficient NAÏVE / APPROXIMATE-LSH / APPROXIMATE-LSH-HISTOGRAMS predictors
// in package core approximate. The vocabulary they share with the learner —
// Sample, Prediction, the Section IV-A confidence model and the Algorithm 1
// vote — lives in package core, so the serving binaries link the learner
// without linking this package; only the experiments import it.
package cluster

import (
	"math"

	"repro/internal/core"
)

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

// Predictor is the common interface of the Section III algorithms.
type Predictor interface {
	// Predict returns the plan prediction for plan space point x, or a
	// NULL prediction (OK == false) when the algorithm declines.
	Predict(x []float64) core.Prediction
}
