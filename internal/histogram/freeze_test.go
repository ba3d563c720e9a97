package histogram

import (
	"math"
	"math/rand"
	"testing"
)

// Freeze caches the immutable block across unmutated generations: two
// Freeze calls without an intervening write return the identical pointer,
// and any Insert or Reset invalidates the cache. The frozen block must also
// be a faithful image of the moment it was taken, and stay unchanged — it
// shares no memory with the live buckets — while the histogram moves on.
func TestFreezeCaching(t *testing.T) {
	d, err := NewDynamic(16, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 200; i++ {
		d.Insert(rng.Float64(), rng.Float64()*10)
	}

	f1 := d.Freeze()
	if f2 := d.Freeze(); f2 != f1 {
		t.Fatal("Freeze without mutation rebuilt the snapshot")
	}
	if f1.TotalCount() != d.TotalCount() || f1.NumBuckets() != d.NumBuckets() {
		t.Fatalf("frozen block (total %v, %d buckets) != live (total %v, %d buckets)",
			f1.TotalCount(), f1.NumBuckets(), d.TotalCount(), d.NumBuckets())
	}

	total, mass := f1.TotalCount(), f1.RangeCount(0, 2)
	for i := 0; i < 100; i++ {
		d.Insert(0.5, 5)
	}
	if f1.TotalCount() != total || f1.RangeCount(0, 2) != mass {
		t.Error("frozen block changed after live Inserts")
	}
	f3 := d.Freeze()
	if f3 == f1 {
		t.Fatal("Freeze after Insert returned the stale snapshot")
	}
	if f3.TotalCount() != total+100 {
		t.Errorf("re-frozen total = %v, want %v", f3.TotalCount(), total+100)
	}

	d.Reset()
	if f4 := d.Freeze(); f4 == f3 {
		t.Fatal("Freeze after Reset returned the stale snapshot")
	}
}

// A frozen block answers every query with the float operations of the live
// histogram in the same order, so the answers agree to the last bit — over
// ranges inside, across, on the edges of and beyond the domain, for bucket
// budgets from one to many and fill levels from empty to split-and-merged.
func TestFrozenMatchesDynamicBitForBit(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	up := func(v float64) float64 { return math.Nextafter(v, math.Inf(1)) }
	for _, maxBuckets := range []int{1, 2, 7, 40} {
		for _, n := range []int{0, 1, 9, 300, 5000} {
			d := MustNewDynamic(maxBuckets, 0, 1)
			for i := 0; i < n; i++ {
				v := rng.Float64()
				if i%3 == 0 {
					v = v * v * v // skew, so some buckets split deep
				}
				d.Insert(v, rng.NormFloat64()*50)
			}
			f := d.Freeze()
			points := []float64{-0.5, 0, up(0), 0.25, 0.5, 1, up(1), 1.5}
			for _, b := range d.Buckets() {
				points = append(points, b.Hi, up(b.Hi), math.Nextafter(b.Hi, 0))
			}
			for i := 0; i < 200; i++ {
				points = append(points, rng.Float64()*1.2-0.1)
			}
			for _, lo := range points {
				for _, hi := range points {
					wc, wn := d.RangeCost(lo, hi)
					gc, gn := f.RangeCost(lo, up(hi))
					if gc != wc || gn != wn || f.RangeCount(lo, up(hi)) != d.RangeCount(lo, hi) {
						t.Fatalf("b=%d n=%d [%v,%v]: frozen (%v,%v) != live (%v,%v)", maxBuckets, n, lo, hi, gc, gn, wc, wn)
					}
				}
			}
			// Rank and Quantile against the scans they replace.
			quantile := func(p float64) float64 {
				if p <= 0 {
					return 0
				}
				var cum float64
				for _, b := range d.Buckets() {
					if cum+b.Count >= p*d.TotalCount() && p < 1 {
						if b.Count <= 0 {
							return b.Lo
						}
						return b.Lo + (p*d.TotalCount()-cum)/b.Count*b.Width()
					}
					cum += b.Count
				}
				return 1
			}
			for _, v := range points {
				want := 0.0
				if d.TotalCount() > 0 {
					want = d.RangeCount(0, v) / d.TotalCount()
				}
				if got := f.Rank(v); got != want {
					t.Fatalf("b=%d n=%d Rank(%v) = %v, want %v", maxBuckets, n, v, got, want)
				}
				if got, want := f.Quantile(v), quantile(v); got != want {
					t.Fatalf("b=%d n=%d Quantile(%v) = %v, want %v", maxBuckets, n, v, got, want)
				}
			}
		}
	}
}
