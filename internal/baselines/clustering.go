package baselines

import (
	"math"
	"math/rand"
	"sort"

	"repro/internal/core"
	"repro/internal/geom"
)

// Density is the BASELINE algorithm (Section III-A(c), Algorithm 1):
// density-based plan prediction over the raw sample set. For a test point
// it counts the samples of each plan within radius d and returns the
// majority plan if the confidence sanity check passes the threshold γ.
type Density struct {
	samples []core.Sample
	d       float64
	gamma   float64
}

// NewDensity creates a BASELINE predictor with query radius d and
// confidence threshold gamma.
func NewDensity(samples []core.Sample, d, gamma float64) *Density {
	return &Density{samples: samples, d: d, gamma: gamma}
}

// Predict implements Predictor. It runs in O(|X|) per call, which is why
// the paper replaces BASELINE with the constant-time approximations.
func (p *Density) Predict(x []float64) core.Prediction {
	density := make(map[int]float64)
	for _, s := range p.samples {
		if geom.Dist(s.Point, x) <= p.d {
			density[s.Plan]++
		}
	}
	return core.PredictFromDensities(density, p.gamma)
}

// SingleLinkage is the single-linkage predictor (Section III-A(b)): the
// plan label of the nearest sample point, NULL beyond radius d.
type SingleLinkage struct {
	samples []core.Sample
	d       float64
}

// NewSingleLinkage creates a single-linkage predictor with cutoff radius d.
func NewSingleLinkage(samples []core.Sample, d float64) *SingleLinkage {
	return &SingleLinkage{samples: samples, d: d}
}

// Predict implements Predictor.
func (p *SingleLinkage) Predict(x []float64) core.Prediction {
	best := -1
	bestDist := math.Inf(1)
	for i, s := range p.samples {
		if dd := geom.Dist(s.Point, x); dd < bestDist {
			bestDist, best = dd, i
		}
	}
	if best == -1 || bestDist > p.d {
		return core.Prediction{OK: false}
	}
	// Distance-based sanity check only; confidence decays linearly with
	// distance for reporting purposes.
	return core.Prediction{Plan: p.samples[best].Plan, Confidence: 1 - bestDist/p.d, OK: true}
}

// KMeans is the k-means predictor (Section III-A(a)): samples are grouped
// by plan label, each group is clustered into c centroids with Lloyd's
// algorithm, and a test point takes the plan of the nearest centroid, NULL
// beyond radius d.
type KMeans struct {
	centroids [][]float64
	plans     []int
	d         float64
}

// NewKMeans builds the per-plan k-means predictor. c is the cluster count
// per plan group; rng seeds the centroid initialization.
func NewKMeans(samples []core.Sample, c int, d float64, rng *rand.Rand) *KMeans {
	groups := make(map[int][][]float64)
	for _, s := range samples {
		groups[s.Plan] = append(groups[s.Plan], s.Point)
	}
	km := &KMeans{d: d}
	// Deterministic plan order for reproducibility.
	planIDs := make([]int, 0, len(groups))
	for plan := range groups {
		planIDs = append(planIDs, plan)
	}
	sort.Ints(planIDs)
	for _, plan := range planIDs {
		pts := groups[plan]
		k := c
		if k > len(pts) {
			k = len(pts)
		}
		for _, centroid := range lloyd(pts, k, rng) {
			km.centroids = append(km.centroids, centroid)
			km.plans = append(km.plans, plan)
		}
	}
	return km
}

// Predict implements Predictor.
func (p *KMeans) Predict(x []float64) core.Prediction {
	best := -1
	bestDist := math.Inf(1)
	for i, c := range p.centroids {
		if dd := geom.Dist(c, x); dd < bestDist {
			bestDist, best = dd, i
		}
	}
	if best == -1 || bestDist > p.d {
		return core.Prediction{OK: false}
	}
	return core.Prediction{Plan: p.plans[best], Confidence: 1 - bestDist/p.d, OK: true}
}

// NumCentroids returns the total number of centroids (for space accounting).
func (p *KMeans) NumCentroids() int { return len(p.centroids) }

// lloyd runs Lloyd's k-means iteration on pts until assignment convergence
// or an iteration cap.
func lloyd(pts [][]float64, k int, rng *rand.Rand) [][]float64 {
	if k <= 0 || len(pts) == 0 {
		return nil
	}
	if k >= len(pts) {
		out := make([][]float64, len(pts))
		for i, p := range pts {
			out[i] = geom.Clone(p)
		}
		return out
	}
	// k-means++ style seeding: first centroid random, then farthest-point.
	centroids := make([][]float64, 0, k)
	centroids = append(centroids, geom.Clone(pts[rng.Intn(len(pts))]))
	for len(centroids) < k {
		bestIdx, bestDist := 0, -1.0
		for i, p := range pts {
			d := math.Inf(1)
			for _, c := range centroids {
				d = math.Min(d, geom.DistSq(p, c))
			}
			if d > bestDist {
				bestDist, bestIdx = d, i
			}
		}
		centroids = append(centroids, geom.Clone(pts[bestIdx]))
	}
	assign := make([]int, len(pts))
	for iter := 0; iter < 50; iter++ {
		changed := false
		for i, p := range pts {
			best, bestDist := 0, math.Inf(1)
			for j, c := range centroids {
				if d := geom.DistSq(p, c); d < bestDist {
					bestDist, best = d, j
				}
			}
			if assign[i] != best {
				assign[i] = best
				changed = true
			}
		}
		if !changed && iter > 0 {
			break
		}
		counts := make([]int, k)
		sums := make([][]float64, k)
		for j := range sums {
			sums[j] = make([]float64, len(pts[0]))
		}
		for i, p := range pts {
			counts[assign[i]]++
			for dim, v := range p {
				sums[assign[i]][dim] += v
			}
		}
		for j := range centroids {
			if counts[j] == 0 {
				continue // keep empty centroid where it is
			}
			for dim := range centroids[j] {
				centroids[j][dim] = sums[j][dim] / float64(counts[j])
			}
		}
	}
	return centroids
}
