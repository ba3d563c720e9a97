package optimizer

import (
	"math"
	"math/rand"
	"testing"
)

// TestFloorRowsIsMathMax holds floorRows to math.Max(x, 1e-6) bit for bit:
// on NaNs of either sign and any payload, signed zeros and infinities, the
// neighbours of the floor, subnormals and random magnitudes.
func TestFloorRowsIsMathMax(t *testing.T) {
	xs := []float64{
		math.NaN(), -math.NaN(), math.Float64frombits(0x7ff0000000000001), math.Float64frombits(0xfff8000000000000),
		0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1),
		1e-6, math.Nextafter(1e-6, 0), math.Nextafter(1e-6, 1), -1e-6,
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, math.MaxFloat64, -math.MaxFloat64, 1, -1,
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 10000; i++ {
		xs = append(xs, math.Float64frombits(rng.Uint64()), rng.NormFloat64()*1e-6)
	}
	for _, x := range xs {
		if got, want := floorRows(x), math.Max(x, 1e-6); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("floorRows(%v = %#x) = %#x, math.Max gives %#x", x, math.Float64bits(x), math.Float64bits(got), math.Float64bits(want))
		}
	}
}
