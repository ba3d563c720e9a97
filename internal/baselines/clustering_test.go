package baselines

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
)

func TestSegmentConfidenceGeometry(t *testing.T) {
	// A chord through u = sin(θ) = 0.5 cuts a segment of fraction
	// (acos(0.5) − 0.5·sqrt(0.75))/π ≈ 0.19550; so with that minority
	// fraction the exact segment confidence must be 0.5.
	fMin := (math.Acos(0.5) - 0.5*math.Sqrt(0.75)) / math.Pi
	got := SegmentConfidence(1000*(1-fMin), 1000)
	if math.Abs(got-0.5) > 1e-6 {
		t.Errorf("segment confidence = %v, want 0.5", got)
	}
	// The segment model is stricter than the linear model everywhere
	// strictly between the endpoints.
	for p := 0.55; p < 1.0; p += 0.05 {
		if SegmentConfidence(p*1000, 1000) >= core.Confidence(p*1000, 1000) {
			t.Errorf("segment not stricter at purity %v", p)
		}
	}
}

// twoRegionSamples builds a synthetic 2-D plan space split at x=0.5:
// plan 0 on the left, plan 1 on the right.
func twoRegionSamples(n int, rng *rand.Rand) []core.Sample {
	out := make([]core.Sample, n)
	for i := range out {
		p := []float64{rng.Float64(), rng.Float64()}
		plan := 0
		if p[0] >= 0.5 {
			plan = 1
		}
		out[i] = core.Sample{Point: p, Plan: plan, Cost: 1}
	}
	return out
}

func TestDensityPredictInterior(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	samples := twoRegionSamples(2000, rng)
	p := NewDensity(samples, 0.1, 0.7)
	// Deep inside each region: confident and correct.
	if got := p.Predict([]float64{0.2, 0.5}); !got.OK || got.Plan != 0 {
		t.Errorf("left interior: %+v", got)
	}
	if got := p.Predict([]float64{0.8, 0.5}); !got.OK || got.Plan != 1 {
		t.Errorf("right interior: %+v", got)
	}
	// On the boundary: must refuse at high γ.
	if got := p.Predict([]float64{0.5, 0.5}); got.OK {
		t.Errorf("boundary should be NULL, got %+v", got)
	}
	// Far outside the sampled space: no samples in radius, NULL.
	if got := p.Predict([]float64{5, 5}); got.OK {
		t.Errorf("empty ball should be NULL, got %+v", got)
	}
}

func TestDensityGammaTradeoff(t *testing.T) {
	// Lower γ must answer at least as often as higher γ.
	rng := rand.New(rand.NewSource(6))
	samples := twoRegionSamples(1000, rng)
	low := NewDensity(samples, 0.1, 0.5)
	high := NewDensity(samples, 0.1, 0.95)
	lowAns, highAns := 0, 0
	for i := 0; i < 500; i++ {
		x := []float64{rng.Float64(), rng.Float64()}
		if low.Predict(x).OK {
			lowAns++
		}
		if high.Predict(x).OK {
			highAns++
		}
	}
	if lowAns < highAns {
		t.Errorf("γ=0.5 answered %d, γ=0.95 answered %d", lowAns, highAns)
	}
	if highAns == 0 {
		t.Error("high γ never answered")
	}
}

func TestSingleLinkagePredict(t *testing.T) {
	samples := []core.Sample{
		{Point: []float64{0.1, 0.1}, Plan: 7},
		{Point: []float64{0.9, 0.9}, Plan: 8},
	}
	p := NewSingleLinkage(samples, 0.3)
	if got := p.Predict([]float64{0.15, 0.12}); !got.OK || got.Plan != 7 {
		t.Errorf("near first: %+v", got)
	}
	if got := p.Predict([]float64{0.85, 0.95}); !got.OK || got.Plan != 8 {
		t.Errorf("near second: %+v", got)
	}
	if got := p.Predict([]float64{0.5, 0.5}); got.OK {
		t.Errorf("beyond radius should be NULL: %+v", got)
	}
	empty := NewSingleLinkage(nil, 0.3)
	if got := empty.Predict([]float64{0, 0}); got.OK {
		t.Errorf("empty sample set should be NULL: %+v", got)
	}
}

func TestKMeansPredict(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	samples := twoRegionSamples(1500, rng)
	p := NewKMeans(samples, 10, 0.5, rng)
	if p.NumCentroids() == 0 || p.NumCentroids() > 20 {
		t.Fatalf("centroids = %d", p.NumCentroids())
	}
	correct, total := 0, 0
	for i := 0; i < 500; i++ {
		x := []float64{rng.Float64(), rng.Float64()}
		want := 0
		if x[0] >= 0.5 {
			want = 1
		}
		got := p.Predict(x)
		if got.OK {
			total++
			if got.Plan == want {
				correct++
			}
		}
	}
	if total < 400 {
		t.Errorf("k-means answered only %d/500", total)
	}
	if float64(correct)/float64(total) < 0.85 {
		t.Errorf("k-means precision %v too low even on a trivial space", float64(correct)/float64(total))
	}
	if got := p.Predict([]float64{10, 10}); got.OK {
		t.Errorf("beyond radius should be NULL: %+v", got)
	}
}

func TestKMeansDegenerateGroups(t *testing.T) {
	// Fewer points than clusters: centroids equal the points.
	rng := rand.New(rand.NewSource(8))
	samples := []core.Sample{
		{Point: []float64{0.2, 0.2}, Plan: 1},
		{Point: []float64{0.8, 0.8}, Plan: 2},
	}
	p := NewKMeans(samples, 40, 0.5, rng)
	if p.NumCentroids() != 2 {
		t.Errorf("centroids = %d, want 2", p.NumCentroids())
	}
	if got := p.Predict([]float64{0.21, 0.19}); !got.OK || got.Plan != 1 {
		t.Errorf("predict = %+v", got)
	}
}

// The paper's Section III finding, in miniature: on a space with a curved
// boundary and an outlier-contaminated sample, density predict at high γ
// achieves higher precision than single linkage, which in turn beats
// k-means with few clusters.
func TestSectionIIIQualitativeOrdering(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	// Curved boundary: plan = inside/outside a disc — poorly approximated
	// by centroids.
	label := func(x []float64) int {
		if geom2(x[0]-0.5, x[1]-0.5) < 0.09 { // radius 0.3 disc
			return 0
		}
		return 1
	}
	n := 1500
	samples := make([]core.Sample, 0, n)
	for i := 0; i < n; i++ {
		p := []float64{rng.Float64(), rng.Float64()}
		plan := label(p)
		// 3% label noise (mis-sampled outliers).
		if rng.Float64() < 0.03 {
			plan = 1 - plan
		}
		samples = append(samples, core.Sample{Point: p, Plan: plan})
	}
	precision := func(p Predictor) float64 {
		correct, answered := 0, 0
		test := rand.New(rand.NewSource(10))
		for i := 0; i < 2000; i++ {
			x := []float64{test.Float64(), test.Float64()}
			got := p.Predict(x)
			if !got.OK {
				continue
			}
			answered++
			if got.Plan == label(x) {
				correct++
			}
		}
		if answered == 0 {
			return 0
		}
		return float64(correct) / float64(answered)
	}
	pDensity := precision(NewDensity(samples, 0.08, 0.9))
	pLinkage := precision(NewSingleLinkage(samples, 0.08))
	pKMeans := precision(NewKMeans(samples, 4, 0.3, rng))
	t.Logf("precision: density=%.3f linkage=%.3f kmeans=%.3f", pDensity, pLinkage, pKMeans)
	if pDensity <= pLinkage {
		t.Errorf("density (%.3f) should beat single linkage (%.3f) on noisy data", pDensity, pLinkage)
	}
	if pLinkage <= pKMeans {
		t.Errorf("single linkage (%.3f) should beat k-means (%.3f) on curved regions", pLinkage, pKMeans)
	}
}

func geom2(a, b float64) float64 { return a*a + b*b }
