package workload

import (
	"math"
	"testing"
)

func inUnitCube(t *testing.T, pts [][]float64, dims int) {
	t.Helper()
	for i, p := range pts {
		if len(p) != dims {
			t.Fatalf("point %d has %d coordinates, want %d", i, len(p), dims)
		}
		for j, v := range p {
			if v < 0 || v > 1 || math.IsNaN(v) {
				t.Fatalf("point %d coordinate %d = %v outside [0,1]", i, j, v)
			}
		}
	}
}

func TestDriftingMovesOverTime(t *testing.T) {
	pts, err := Drifting(DriftConfig{Dims: 2, NumPoints: 1000, Sigma: 0.02, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	inUnitCube(t, pts, 2)
	early, late := mean(pts[:100]), mean(pts[900:])
	for j := 0; j < 2; j++ {
		if math.Abs(early[j]-0.2) > 0.05 {
			t.Fatalf("early mean[%d] = %.3f, want near Start 0.2", j, early[j])
		}
		if math.Abs(late[j]-0.8) > 0.05 {
			t.Fatalf("late mean[%d] = %.3f, want near End 0.8", j, late[j])
		}
	}
}

func mean(pts [][]float64) []float64 {
	m := make([]float64, len(pts[0]))
	for _, p := range pts {
		for j, v := range p {
			m[j] += v
		}
	}
	for j := range m {
		m[j] /= float64(len(pts))
	}
	return m
}

func TestSkewedConfigValidation(t *testing.T) {
	if _, err := Drifting(DriftConfig{Dims: 0}); err == nil {
		t.Error("Drifting accepted Dims=0")
	}
	if _, err := Drifting(DriftConfig{Dims: 2, Start: []float64{0.1}}); err == nil {
		t.Error("Drifting accepted mismatched Start length")
	}
}
