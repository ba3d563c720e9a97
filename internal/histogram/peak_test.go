package histogram

import (
	"math"
	"math/rand"
	"testing"
)

// genFrozen draws one frozen block of the kinds a synopsis can hold: empty,
// grown by inserts over [0, 1) or a shifted domain (split and merged,
// skewed so some buckets split deep), or decoded from a bucket chain of
// arbitrary widths — some a millionth of their neighbours — and counts,
// zero, fractional or large.
func genFrozen(tb testing.TB, rng *rand.Rand) *Frozen {
	tb.Helper()
	lo, hi := 0.0, 1.0
	if rng.Intn(2) == 0 {
		lo = rng.Float64()*20 - 10
		hi = lo + math.Ldexp(1+rng.Float64(), rng.Intn(12)-6)
	}
	switch rng.Intn(3) {
	case 0:
		d := MustNewDynamic(1+rng.Intn(64), lo, hi)
		if rng.Intn(8) == 0 {
			return d.Freeze()
		}
		skew := 1 + 4*rng.Float64()
		for i, n := 0, rng.Intn(3000); i < n; i++ {
			d.Insert(lo+math.Pow(rng.Float64(), skew)*(hi-lo), rng.Float64())
		}
		return d.Freeze()
	default:
		n := 1 + rng.Intn(50)
		widths := make([]float64, n)
		var sum float64
		for i := range widths {
			widths[i] = rng.ExpFloat64()
			if rng.Intn(6) == 0 {
				widths[i] *= 1e-6
			}
			sum += widths[i]
		}
		d := MustNewDynamic(n, lo, hi)
		d.buckets = make([]Bucket, n)
		at := lo
		for i := range d.buckets {
			next := at + widths[i]/sum*(hi-lo)
			if i == n-1 || !(next < hi) {
				next = hi
			}
			if !(next > at) {
				d.buckets = d.buckets[:i]
				d.buckets[i-1].Hi = hi
				break
			}
			d.buckets[i] = Bucket{Lo: at, Hi: next}
			if rng.Intn(3) > 0 {
				d.buckets[i].Count = rng.ExpFloat64() * math.Pow(10, float64(rng.Intn(10)-3))
			}
			d.total += d.buckets[i].Count
			at = next
		}
		back, _, err := DecodeDynamic(d.Encode(nil))
		if err != nil {
			tb.Fatal(err)
		}
		return back.Freeze()
	}
}

// checkPeakBound holds RangeCount(lo, end) to Peak()·(end−lo)·PeakSlack,
// for a non-empty range of more than subnormal width (see PeakSlack).
func checkPeakBound(tb testing.TB, f *Frozen, lo, end float64) bool {
	tb.Helper()
	if !(lo < end) || !(end-lo >= 0x1p-1000) || math.IsInf(end-lo, 0) {
		return false
	}
	count, bound := f.RangeCount(lo, end), f.Peak()*(end-lo)*PeakSlack
	if !(count <= bound) {
		tb.Fatalf("[%v, %v): RangeCount %v above Peak %v × width %v × slack = %v (buckets hi %v, counts %v)",
			lo, end, count, f.Peak(), end-lo, bound, f.hi, f.count)
	}
	return true
}

// Peak()·(end−lo) bounds what a block counts in [lo, end), up to
// PeakSlack: over generated and decoded blocks, for ranges inside, across,
// on the edges of and outside the domain, and one-ulp ranges at every
// bucket bound and at points inside the buckets.
func TestPeakBoundsRangeCount(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	checked := 0
	for k := 0; k < 150; k++ {
		f := genFrozen(t, rng)
		dlo, dhi := f.lo, f.hi[len(f.hi)-1]
		points := []float64{dlo, dhi, dlo - 1, dhi + 1, ulpDown(dlo), ulpUp(dhi), dlo + (dhi-dlo)/2}
		for i, b := range f.hi {
			points = append(points, b, ulpDown(b), ulpUp(b), f.lower(i)+(b-f.lower(i))*rng.Float64())
		}
		for i := 0; i < 20; i++ {
			points = append(points, dlo-0.5+(dhi-dlo+1)*rng.Float64())
		}
		for _, a := range points {
			if checkPeakBound(t, f, a, ulpUp(a)) {
				checked++
			}
			for _, b := range points {
				if checkPeakBound(t, f, a, b) {
					checked++
				}
			}
		}
	}
	if checked < 100000 {
		t.Errorf("only %d ranges checked", checked)
	}
}

// The peak is the largest count per unit of width: 0 for an empty block, the
// one bucket's density for a single bucket, and +Inf when a bucket of zero
// width holds a count — which bounds nothing, so no block is ruled out on
// it. A zero-width bucket that holds nothing leaves the peak alone.
func TestPeakDensity(t *testing.T) {
	if p := MustNewDynamic(8, 0, 1).Freeze().Peak(); p != 0 {
		t.Errorf("empty block: Peak %v, want 0", p)
	}
	d := MustNewDynamic(8, 0, 4)
	d.Insert(1, 0)
	d.Insert(2, 0)
	if p := d.Freeze().Peak(); p != 0.5 {
		t.Errorf("two points over a width of 4: Peak %v, want 0.5", p)
	}
	for _, tc := range []struct {
		count float64
		want  float64
	}{{3, math.Inf(1)}, {0, 2}} {
		d := MustNewDynamic(8, 0, 1)
		d.buckets = []Bucket{{Lo: 0, Hi: 0.5, Count: 1}, {Lo: 0.5, Hi: 0.5, Count: tc.count}, {Lo: 0.5, Hi: 1}}
		d.gen++
		if p := d.Freeze().Peak(); p != tc.want {
			t.Errorf("zero-width bucket holding %v: Peak %v, want %v", tc.count, p, tc.want)
		}
	}
}

// FuzzPeakBoundsRangeCount lets the fuzzer pick the block and the range.
func FuzzPeakBoundsRangeCount(f *testing.F) {
	f.Add(int64(1), 0.25, 0.5)
	f.Add(int64(2), -3.0, 0.0)
	f.Add(int64(3), 0.5, math.Nextafter(0.5, 1))
	f.Add(int64(4), 1e-12, 0.999999)
	f.Fuzz(func(t *testing.T, seed int64, lo, end float64) {
		block := genFrozen(t, rand.New(rand.NewSource(seed)))
		checkPeakBound(t, block, lo, end)
		checkPeakBound(t, block, lo, ulpUp(lo))
	})
}
