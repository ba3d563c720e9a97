package core

import "sort"

// Sample is one labeled plan space point: the selectivity vector of a query
// instance, the identifier of the optimizer's chosen plan, and the
// execution cost of that plan at that point.
type Sample struct {
	Point []float64
	Plan  int
	Cost  float64
}

// Prediction is a plan prediction. OK is false for a NULL prediction
// (Definition 4: the algorithm may decline to predict).
type Prediction struct {
	Plan       int
	Confidence float64
	OK         bool
}

// Confidence implements the geometric confidence model of Section IV-A.
//
// Within the query ball of radius d around x, countMax samples carry the
// majority plan and countTotal samples exist in total. The model assumes
// the plan boundary is a chord splitting the ball into a majority region
// (area fraction countMax/countTotal) and a minority region; the chord's
// distance t from the center gives the angle θ with sin(θ) = t/d, and the
// confidence is sin(θ).
//
// The area split is translated to the chord offset with the diameter-split
// approximation — the chord at offset t divides the diameter in proportion
// (1+t/d):(1−t/d), so sin(θ) ≈ 2·(countMax/countTotal) − 1. (The exact
// circular-segment inversion, baselines.SegmentConfidence, is retained for
// reference; both agree at the endpoints, and the linear form is the
// "reasonable simplification" consistent with the paper's reported
// operating points.) The confidence is 1 when the ball is pure, 0 when the
// center lies on the boundary, and 0 (unsafe) when the majority holds less
// than half the ball.
func Confidence(countMax, countTotal float64) float64 {
	if countTotal <= 0 || countMax <= 0 {
		return 0
	}
	if countMax >= countTotal {
		return 1
	}
	c := 2*countMax/countTotal - 1
	if c < 0 {
		return 0
	}
	return c
}

// PredictFromDensityList applies lines 6–16 of Algorithm 1 — the one vote
// every density predictor ends in: find the highest-density plan and emit
// it iff the confidence meets gamma. plans must be sorted ascending and
// densities[i] is the density of plans[i], so float accumulation and tie
// breaking (the lower plan id wins) are deterministic across runs. Entries
// with density <= 0 are ignored. It allocates nothing, so the serving path
// can vote from reusable scratch buffers.
func PredictFromDensityList(plans []int, densities []float64, gamma float64) Prediction {
	var total, maxCount float64
	maxPlan := -1
	for i, plan := range plans {
		c := densities[i]
		if c <= 0 {
			continue
		}
		total += c
		if c > maxCount || (c == maxCount && (maxPlan == -1 || plan < maxPlan)) {
			maxCount, maxPlan = c, plan
		}
	}
	if maxPlan == -1 {
		return Prediction{OK: false}
	}
	conf := Confidence(maxCount, total)
	if conf < gamma {
		return Prediction{Confidence: conf, OK: false}
	}
	return Prediction{Plan: maxPlan, Confidence: conf, OK: true}
}

// PredictFromDensities is PredictFromDensityList over a plan → density map:
// it sorts the keys and calls the list vote. The offline predictors (NAÏVE,
// APPROXIMATE-LSH, BASELINE) accumulate into maps; the serving path never
// does.
func PredictFromDensities(density map[int]float64, gamma float64) Prediction {
	plans := make([]int, 0, len(density))
	for plan := range density {
		plans = append(plans, plan)
	}
	sort.Ints(plans)
	densities := make([]float64, len(plans))
	for i, plan := range plans {
		densities[i] = density[plan]
	}
	return PredictFromDensityList(plans, densities, gamma)
}
