package zorder

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewValidation(t *testing.T) {
	tests := []struct {
		name       string
		dims, bits int
		wantErr    bool
	}{
		{"ok-2x8", 2, 8, false},
		{"ok-6x10", 6, 10, false},
		{"zero-dims", 0, 8, true},
		{"neg-dims", -1, 8, true},
		{"zero-bits", 2, 0, true},
		{"too-many-bits", 7, 9, true}, // 63 > 62
		{"max-bits", 2, 31, false},    // 62 ok
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			_, err := New(tc.dims, tc.bits)
			if (err != nil) != tc.wantErr {
				t.Errorf("New(%d,%d) err = %v, wantErr %v", tc.dims, tc.bits, err, tc.wantErr)
			}
		})
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MustNew(0, 1)
}

func TestEncodeKnownValues(t *testing.T) {
	c := MustNew(2, 2)
	// Classic 2-D Morton order on a 4x4 grid.
	tests := []struct {
		x, y uint32
		z    uint64
	}{
		{0, 0, 0},
		{1, 0, 1},
		{0, 1, 2},
		{1, 1, 3},
		{2, 0, 4},
		{3, 3, 15},
	}
	for _, tc := range tests {
		if got := c.Encode([]uint32{tc.x, tc.y}); got != tc.z {
			t.Errorf("Encode(%d,%d) = %d, want %d", tc.x, tc.y, got, tc.z)
		}
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, cfg := range []struct{ dims, bits int }{{1, 16}, {2, 10}, {3, 8}, {4, 8}, {6, 10}} {
		c := MustNew(cfg.dims, cfg.bits)
		for i := 0; i < 500; i++ {
			cell := make([]uint32, cfg.dims)
			for j := range cell {
				cell[j] = uint32(rng.Intn(int(c.CellsPerAxis())))
			}
			z := c.Encode(cell)
			back := c.Decode(z)
			for j := range cell {
				if back[j] != cell[j] {
					t.Fatalf("dims=%d bits=%d cell=%v decoded=%v", cfg.dims, cfg.bits, cell, back)
				}
			}
		}
	}
}

// Property: Encode is injective — two distinct cells map to distinct z-values.
func TestEncodeInjective(t *testing.T) {
	c := MustNew(3, 4)
	seen := make(map[uint64][]uint32)
	for x := uint32(0); x < 16; x++ {
		for y := uint32(0); y < 16; y++ {
			for w := uint32(0); w < 16; w++ {
				z := c.Encode([]uint32{x, y, w})
				if prev, ok := seen[z]; ok {
					t.Fatalf("collision: %v and %v -> %d", prev, []uint32{x, y, w}, z)
				}
				seen[z] = []uint32{x, y, w}
			}
		}
	}
	if len(seen) != 16*16*16 {
		t.Fatalf("expected 4096 distinct values, got %d", len(seen))
	}
}

func TestNormalizeDenormalize(t *testing.T) {
	c := MustNew(2, 8)
	for _, z := range []uint64{0, 1, 100, c.TotalCells() - 1} {
		v := c.Normalize(z)
		if v < 0 || v >= 1 {
			t.Errorf("Normalize(%d) = %v out of [0,1)", z, v)
		}
		if got := uint64(v * float64(c.TotalCells())); got != z {
			t.Errorf("Normalize(%d) = %v places the cell at %d", z, v, got)
		}
	}
}

func TestCellOfClamping(t *testing.T) {
	c := MustNew(2, 4)
	cell := c.CellOf([]float64{-0.3, 1.7})
	if cell[0] != 0 || cell[1] != 15 {
		t.Errorf("CellOf clamping = %v", cell)
	}
	cell = c.CellOf([]float64{1.0, 0.999999})
	if cell[0] != 15 || cell[1] != 15 {
		t.Errorf("CellOf(1.0, ~1) = %v, want [15 15]", cell)
	}
}

func TestValueMonotoneOnDiagonal(t *testing.T) {
	// Along the main diagonal the z-order value must be non-decreasing
	// (cells (k,k) have increasing Morton codes).
	c := MustNew(2, 6)
	prev := -1.0
	for i := 0; i < 64; i++ {
		p := (float64(i) + 0.5) / 64
		v := c.Value([]float64{p, p})
		if v <= prev {
			t.Fatalf("diagonal not strictly increasing at i=%d: %v <= %v", i, v, prev)
		}
		prev = v
	}
}

// Property: z-order locality — points in the same cell map to the same
// value, and nearby points are on average much closer on the curve than
// random point pairs. This is the property Section IV-C relies on to store
// plan clusters in few histogram buckets.
func TestLocalityPreservation(t *testing.T) {
	c := MustNew(2, 8)
	rng := rand.New(rand.NewSource(42))
	const n = 4000
	var nearSum, farSum float64
	for i := 0; i < n; i++ {
		x := []float64{rng.Float64(), rng.Float64()}
		// Near neighbor: within one cell width.
		eps := c.CellWidth() * 200 // 2^-16 total cells; use small spatial offset
		_ = eps
		near := []float64{x[0] + (rng.Float64()-0.5)*0.01, x[1] + (rng.Float64()-0.5)*0.01}
		far := []float64{rng.Float64(), rng.Float64()}
		nearSum += math.Abs(c.Value(x) - c.Value(near))
		farSum += math.Abs(c.Value(x) - c.Value(far))
	}
	if nearSum >= farSum/4 {
		t.Errorf("z-order locality too weak: near avg %v vs far avg %v", nearSum/n, farSum/n)
	}
}

// Property (testing/quick): round trip holds for arbitrary coordinates.
func TestRoundTripQuick(t *testing.T) {
	c := MustNew(3, 10)
	f := func(a, b, d uint32) bool {
		cell := []uint32{a % 1024, b % 1024, d % 1024}
		back := c.Decode(c.Encode(cell))
		return back[0] == cell[0] && back[1] == cell[1] && back[2] == cell[2]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestEncodePanicsOutOfRange(t *testing.T) {
	c := MustNew(2, 4)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for out-of-range coordinate")
		}
	}()
	c.Encode([]uint32{16, 0})
}

func TestEncodePanicsWrongDims(t *testing.T) {
	c := MustNew(2, 4)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for wrong dimension count")
		}
	}()
	c.Encode([]uint32{1})
}

// encodeBitByBit is the per-bit interleaving Encode replaced: coordinate i's
// bit k goes to position k*dims + i, one shift per bit.
func encodeBitByBit(c *Curve, cell []uint32) uint64 {
	if len(cell) != c.dims {
		panic(fmt.Sprintf("zorder: expected %d coordinates, got %d", c.dims, len(cell)))
	}
	limit := c.CellsPerAxis()
	var z uint64
	for i, x := range cell {
		if x >= limit {
			panic(fmt.Sprintf("zorder: coordinate %d = %d out of range [0,%d)", i, x, limit))
		}
		for k := 0; k < c.bits; k++ {
			z |= uint64(x>>uint(k)&1) << uint(k*c.dims+i)
		}
	}
	return z
}

// TestEncodeMatchesBitByBit holds the table-driven Encode to the per-bit loop
// at random cells — the corners of the grid among them — of every curve New
// accepts: the same z-value, or the same panic. A coordinate of a curve with
// 32 or more bits per axis is out of range by CellsPerAxis, which wraps to 0.
func TestEncodeMatchesBitByBit(t *testing.T) {
	rng := rand.New(rand.NewSource(38))
	outcome := func(encode func() uint64) (z uint64, panicked any) {
		defer func() { panicked = recover() }()
		return encode(), nil
	}
	for dims := 1; dims <= MaxTotalBits; dims++ {
		for bits := 1; dims*bits <= MaxTotalBits; bits++ {
			c := MustNew(dims, bits)
			mask := uint32(1<<min(bits, 32) - 1)
			cell := make([]uint32, dims)
			for trial := 0; trial < 64; trial++ {
				for j := range cell {
					switch trial {
					case 0:
						cell[j] = 0
					case 1:
						cell[j] = mask
					default:
						cell[j] = rng.Uint32() & mask
					}
				}
				got, gotPanic := outcome(func() uint64 { return c.Encode(cell) })
				want, wantPanic := outcome(func() uint64 { return encodeBitByBit(c, cell) })
				if got != want || fmt.Sprint(gotPanic) != fmt.Sprint(wantPanic) {
					t.Fatalf("dims=%d bits=%d cell=%v: Encode = %#x (panic %v), per-bit loop %#x (panic %v)", dims, bits, cell, got, gotPanic, want, wantPanic)
				}
			}
		}
	}
}
