package baselines

import (
	"math/rand"
	"testing"

	"repro/internal/core"
)

// quadrantPlan labels [0,1]^2 with four quadrant plans — a simple space
// with known boundaries.
func quadrantPlan(x []float64) int {
	p := 0
	if x[0] >= 0.5 {
		p |= 1
	}
	if x[1] >= 0.5 {
		p |= 2
	}
	return p
}

// quadrantCost is smooth within each region (plan cost predictability).
func quadrantCost(x []float64) float64 {
	return 10*float64(quadrantPlan(x)+1) + x[0] + x[1]
}

func fillQuadrants(p interface{ Insert(core.Sample) }, n int, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		x := []float64{rng.Float64(), rng.Float64()}
		p.Insert(core.Sample{Point: x, Plan: quadrantPlan(x), Cost: quadrantCost(x)})
	}
}

// precisionRecall evaluates a predictor over a uniform test set.
func precisionRecall(p Predictor, n int, seed int64, label func([]float64) int) (prec, rec float64) {
	rng := rand.New(rand.NewSource(seed))
	correct, answered := 0, 0
	for i := 0; i < n; i++ {
		x := []float64{rng.Float64(), rng.Float64()}
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
		return 1, 0
	}
	return float64(correct) / float64(answered), float64(correct) / float64(n)
}

func TestNaivePredictQuadrants(t *testing.T) {
	p := MustNewNaive(Config{Config: core.Config{Dims: 2, Radius: 0.08, Gamma: 0.7}, GridBuckets: 1024})
	fillQuadrants(p, 4000, 1)
	if p.TotalPoints() != 4000 {
		t.Fatalf("TotalPoints = %d", p.TotalPoints())
	}
	for _, tc := range []struct {
		x    []float64
		want int
	}{
		{[]float64{0.25, 0.25}, 0},
		{[]float64{0.75, 0.25}, 1},
		{[]float64{0.25, 0.75}, 2},
		{[]float64{0.75, 0.75}, 3},
	} {
		got := p.Predict(tc.x)
		if !got.OK || got.Plan != tc.want {
			t.Errorf("Predict(%v) = %+v, want plan %d", tc.x, got, tc.want)
		}
	}
	// Exactly on the crossing of both boundaries: unsafe.
	if got := p.Predict([]float64{0.5, 0.5}); got.OK {
		t.Errorf("center should be NULL, got %+v", got)
	}
}

func TestNaiveCostEstimate(t *testing.T) {
	p := MustNewNaive(Config{Config: core.Config{Dims: 2, Radius: 0.08, Gamma: 0.7}, GridBuckets: 1024})
	fillQuadrants(p, 4000, 2)
	pred, cost, ok := p.PredictWithCost([]float64{0.25, 0.25})
	if !pred.OK || !ok {
		t.Fatalf("prediction failed: %+v %v", pred, ok)
	}
	// True cost near (0.25,0.25) is ~10.5; the bucket average should be in
	// the plan-0 cost band [10, 12].
	if cost < 10 || cost > 12 {
		t.Errorf("cost estimate = %v, want ~10.5", cost)
	}
}

func TestNaiveMemoryAccounting(t *testing.T) {
	p := MustNewNaive(Config{Config: core.Config{Dims: 2}, GridBuckets: 1000})
	fillQuadrants(p, 100, 3)
	// 4 plans seen: 4 * 1000 * 8.
	if got := p.MemoryBytes(); got != 4*1000*8 {
		t.Errorf("MemoryBytes = %d, want %d", got, 4*1000*8)
	}
	p.Reset()
	if p.TotalPoints() != 0 {
		t.Error("Reset failed")
	}
	if got := p.Predict([]float64{0.25, 0.25}); got.OK {
		t.Error("prediction after Reset should be NULL")
	}
}

func TestApproxLSHPredictQuadrants(t *testing.T) {
	p := MustNewApproxLSH(Config{Config: core.Config{Dims: 2, Radius: 0.08, Gamma: 0.7, Seed: 5}, GridBuckets: 1024})
	fillQuadrants(p, 4000, 4)
	prec, rec := precisionRecall(p, 2000, 99, quadrantPlan)
	if prec < 0.93 {
		t.Errorf("precision = %v, want >= 0.93", prec)
	}
	if rec < 0.5 {
		t.Errorf("recall = %v, want >= 0.5", rec)
	}
}

func TestApproxLSHMemoryAccounting(t *testing.T) {
	p := MustNewApproxLSH(Config{Config: core.Config{Dims: 2, Transforms: 7, Seed: 5}, GridBuckets: 512})
	fillQuadrants(p, 200, 5)
	if got := p.MemoryBytes(); got != 7*4*512*8 {
		t.Errorf("MemoryBytes = %d, want %d", got, 7*4*512*8)
	}
}

func TestApproxLSHDeterministicWithSeed(t *testing.T) {
	mk := func() *ApproxLSH {
		p := MustNewApproxLSH(Config{Config: core.Config{Dims: 2, Seed: 42}})
		fillQuadrants(p, 1000, 6)
		return p
	}
	a, b := mk(), mk()
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 200; i++ {
		x := []float64{rng.Float64(), rng.Float64()}
		pa, pb := a.Predict(x), b.Predict(x)
		if pa != pb {
			t.Fatalf("nondeterministic at %v: %+v vs %+v", x, pa, pb)
		}
	}
}

func TestGridConfig(t *testing.T) {
	cfg, err := Config{Config: core.Config{Dims: 5}}.withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.GridBuckets != 4096 || cfg.Transforms != 5 || cfg.Radius != 0.1 {
		t.Errorf("defaults = %+v", cfg)
	}
	for i, bad := range []Config{
		{Config: core.Config{Dims: 2}, GridBuckets: -4},
		{Config: core.Config{Dims: 0}},
	} {
		if _, err := bad.withDefaults(); err == nil {
			t.Errorf("config %d should fail: %+v", i, bad)
		}
	}
}

// Insert with mismatched dimensionality must panic loudly (programming
// error), not corrupt state.
func TestGridInsertDimensionMismatchPanics(t *testing.T) {
	for name, p := range map[string]interface{ Insert(core.Sample) }{
		"naive": MustNewNaive(Config{Config: core.Config{Dims: 3}}),
		"lsh":   MustNewApproxLSH(Config{Config: core.Config{Dims: 3, Seed: 1}}),
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic on dimension mismatch", name)
				}
			}()
			p.Insert(core.Sample{Point: []float64{0.5, 0.5}, Plan: 1})
		}()
	}
}
