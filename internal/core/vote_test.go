package core

import (
	"math"
	"testing"
	"testing/quick"
)

func TestConfidenceEndpoints(t *testing.T) {
	tests := []struct {
		name     string
		max, tot float64
		want     float64
		tol      float64
	}{
		{"pure", 10, 10, 1, 0},
		{"empty", 0, 0, 0, 0},
		{"no-max", 0, 10, 0, 0},
		{"exact-half", 5, 10, 0, 1e-9},
		{"minority", 3, 10, 0, 0},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if got := Confidence(tc.max, tc.tot); math.Abs(got-tc.want) > tc.tol {
				t.Errorf("Confidence(%v,%v) = %v, want %v", tc.max, tc.tot, got, tc.want)
			}
		})
	}
}

func TestConfidenceMonotoneInPurity(t *testing.T) {
	prev := -1.0
	for f := 0.5; f <= 1.0001; f += 0.01 {
		c := Confidence(f*1000, 1000)
		if c < prev {
			t.Fatalf("confidence not monotone at purity %v: %v < %v", f, c, prev)
		}
		prev = c
	}
}

// Property: confidence is scale-invariant in the counts.
func TestConfidenceScaleInvariant(t *testing.T) {
	f := func(maxRaw, scaleRaw uint16) bool {
		max := float64(maxRaw%100) + 1
		total := max + float64(scaleRaw%50)
		k := 1 + float64(scaleRaw%7)
		return math.Abs(Confidence(max, total)-Confidence(max*k, total*k)) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestConfidenceLinearChord(t *testing.T) {
	// Diameter-split model: purity p gives confidence 2p − 1.
	for _, tc := range []struct{ purity, want float64 }{
		{0.75, 0.5}, {0.85, 0.7}, {0.9, 0.8}, {1.0, 1.0}, {0.5, 0.0},
	} {
		got := Confidence(tc.purity*1000, 1000)
		if math.Abs(got-tc.want) > 1e-9 {
			t.Errorf("Confidence at purity %v = %v, want %v", tc.purity, got, tc.want)
		}
	}
}

func TestPredictFromDensitiesTieBreak(t *testing.T) {
	// Equal densities: deterministic lowest-plan tie break, confidence 0
	// (exactly on the modeled boundary) so the prediction is NULL at any
	// positive γ.
	pred := PredictFromDensities(map[int]float64{3: 5, 1: 5}, 0.0)
	if !pred.OK || pred.Plan != 1 {
		t.Errorf("tie break = %+v, want plan 1 at γ=0", pred)
	}
	if pred.Confidence != 0 {
		t.Errorf("tie confidence = %v, want 0", pred.Confidence)
	}
	if got := PredictFromDensities(map[int]float64{3: 5, 1: 5}, 0.1); got.OK {
		t.Errorf("tie at γ=0.1 should be NULL: %+v", got)
	}
}
