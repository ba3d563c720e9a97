package geom

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestDist(t *testing.T) {
	tests := []struct {
		name string
		a, b Vector
		want float64
	}{
		{"zero", Vector{0, 0}, Vector{0, 0}, 0},
		{"unit-x", Vector{0, 0}, Vector{1, 0}, 1},
		{"pythagoras", Vector{0, 0}, Vector{3, 4}, 5},
		{"1d", Vector{2}, Vector{-1}, 3},
		{"3d", Vector{1, 2, 3}, Vector{1, 2, 3}, 0},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if got := Dist(tc.a, tc.b); !almostEq(got, tc.want, 1e-12) {
				t.Errorf("Dist(%v,%v) = %v, want %v", tc.a, tc.b, got, tc.want)
			}
		})
	}
}

func TestDistPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on dimension mismatch")
		}
	}()
	Dist(Vector{1}, Vector{1, 2})
}

func TestDotAndNorm(t *testing.T) {
	if got := Norm(Vector{3, 4}); !almostEq(got, 5, 1e-12) {
		t.Errorf("Norm = %v, want 5", got)
	}
}

func TestNormalize(t *testing.T) {
	v := Normalize(Vector{3, 4})
	if !almostEq(Norm(v), 1, 1e-12) {
		t.Errorf("normalized norm = %v, want 1", Norm(v))
	}
	z := Normalize(Vector{0, 0})
	if z[0] != 0 || z[1] != 0 {
		t.Errorf("Normalize(zero) = %v, want zero", z)
	}
}

func TestAddScaleClone(t *testing.T) {
	a, b := Vector{1, 2}, Vector{3, 4}
	sum := Add(a, b)
	if sum[0] != 4 || sum[1] != 6 {
		t.Errorf("Add = %v", sum)
	}
	sc := Scale(a, 2)
	if sc[0] != 2 || sc[1] != 4 {
		t.Errorf("Scale = %v", sc)
	}
	c := Clone(a)
	c[0] = 99
	if a[0] == 99 {
		t.Error("Clone aliases input")
	}
}

func TestMean(t *testing.T) {
	m := Mean([]Vector{{0, 0}, {2, 4}})
	if m[0] != 1 || m[1] != 2 {
		t.Errorf("Mean = %v", m)
	}
}

func TestUnitBallVolume(t *testing.T) {
	tests := []struct {
		r    int
		want float64
	}{
		{0, 1},
		{1, 2},
		{2, math.Pi},
		{3, 4 * math.Pi / 3},
		{4, math.Pi * math.Pi / 2},
	}
	for _, tc := range tests {
		if got := UnitBallVolume(tc.r); !almostEq(got, tc.want, 1e-9) {
			t.Errorf("UnitBallVolume(%d) = %v, want %v", tc.r, got, tc.want)
		}
	}
}

func TestSphereRadiusForCube(t *testing.T) {
	for r := 1; r <= 8; r++ {
		lambda := SphereRadiusForCube(r)
		vol := BallVolume(r, lambda)
		want := math.Pow(2, float64(r))
		if !almostEq(vol/want, 1, 1e-9) {
			t.Errorf("r=%d: ball volume %v, want %v", r, vol, want)
		}
		// The sphere must contain the cube's vertices? No — equal volume
		// means λ is strictly larger than the inradius 1 and smaller than
		// the circumradius sqrt(r) for r >= 2.
		if r >= 2 && (lambda <= 1 || lambda >= math.Sqrt(float64(r))+1e-9) {
			t.Errorf("r=%d: λ=%v out of (1, sqrt(r)]", r, lambda)
		}
	}
}

// Property: distance is a metric (symmetry, identity, triangle inequality).
func TestDistMetricProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	randVec := func(n int) Vector {
		v := make(Vector, n)
		for i := range v {
			v[i] = rng.Float64()*2 - 1
		}
		return v
	}
	for i := 0; i < 200; i++ {
		n := 1 + rng.Intn(6)
		a, b, c := randVec(n), randVec(n), randVec(n)
		if d := Dist(a, a); d != 0 {
			t.Fatalf("Dist(a,a) = %v", d)
		}
		if d1, d2 := Dist(a, b), Dist(b, a); !almostEq(d1, d2, 1e-12) {
			t.Fatalf("asymmetric: %v vs %v", d1, d2)
		}
		if Dist(a, c) > Dist(a, b)+Dist(b, c)+1e-12 {
			t.Fatalf("triangle inequality violated")
		}
	}
}

// Property: Normalize yields a unit vector for any non-zero input.
func TestNormalizeQuick(t *testing.T) {
	f := func(x, y, z float64) bool {
		if math.IsNaN(x) || math.IsNaN(y) || math.IsNaN(z) ||
			math.IsInf(x, 0) || math.IsInf(y, 0) || math.IsInf(z, 0) {
			return true
		}
		v := Vector{x, y, z}
		if Norm(v) == 0 || math.IsInf(Norm(v), 0) {
			return true
		}
		return almostEq(Norm(Normalize(v)), 1, 1e-6)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestUnitBallVolumePeaksAtFive(t *testing.T) {
	// Known fact: unit ball volume is maximized at r = 5.
	v5 := UnitBallVolume(5)
	for r := 1; r <= 12; r++ {
		if r != 5 && UnitBallVolume(r) >= v5 {
			t.Errorf("UnitBallVolume(%d) >= UnitBallVolume(5)", r)
		}
	}
}
