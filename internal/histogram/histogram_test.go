package histogram

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

func TestBuildEquiDepthBalance(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	values := make([]float64, 1000)
	for i := range values {
		values[i] = rng.NormFloat64() // skewed vs uniform buckets
	}
	slices.Sort(values)
	h, err := BuildEquiDepth(values, 20)
	if err != nil {
		t.Fatal(err)
	}
	if h.TotalCount() != 1000 {
		t.Fatalf("TotalCount = %v", h.TotalCount())
	}
	for i, b := range h.Buckets() {
		if b.Count < 20 || b.Count > 120 {
			t.Errorf("bucket %d count %v far from equi-depth target 50", i, b.Count)
		}
	}
}

func TestBuildEquiDepthFewValues(t *testing.T) {
	h, err := BuildEquiDepth([]float64{1, 2}, 10)
	if err != nil {
		t.Fatal(err)
	}
	if h.NumBuckets() > 2 {
		t.Errorf("NumBuckets = %d, want <= 2", h.NumBuckets())
	}
	if _, err := BuildEquiDepth(nil, 10); err == nil {
		t.Error("expected error for no values")
	}
}

func TestHistogramQuantileRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	values := make([]float64, 5000)
	for i := range values {
		values[i] = rng.Float64() * 100
	}
	slices.Sort(values)
	h, err := BuildEquiDepth(values, 50)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []float64{0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99} {
		v := h.Quantile(p)
		back := h.FractionLE(v)
		if math.Abs(back-p) > 0.03 {
			t.Errorf("Quantile/FractionLE round trip at p=%v: got %v", p, back)
		}
	}
	lo, hi := h.Domain()
	if h.Quantile(0) != lo || h.Quantile(1) != hi {
		t.Errorf("Quantile endpoints wrong")
	}
	if h.Quantile(-1) != lo || h.Quantile(2) != hi {
		t.Errorf("Quantile clamping wrong")
	}
}

func TestRangeCountConservation(t *testing.T) {
	// Full-domain range query must return the total count exactly at every
	// resolution.
	rng := rand.New(rand.NewSource(4))
	values := make([]float64, 777)
	for i := range values {
		values[i] = rng.Float64()
	}
	slices.Sort(values)
	for _, nbuckets := range []int{1, 7, 32, 777, 1000} {
		name := fmt.Sprintf("%d buckets", nbuckets)
		h, err := BuildEquiDepth(values, nbuckets)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		lo, hi := h.Domain()
		if lo != values[0] || hi < values[776] {
			t.Errorf("%s: domain [%v, %v] does not cover [%v, %v]", name, lo, hi, values[0], values[776])
		}
		if got := h.RangeCount(lo-1, hi+1); !almost(got, 777, 1e-6) {
			t.Errorf("%s: full range count = %v, want 777", name, got)
		}
	}
}

func TestRangeCountAccuracy(t *testing.T) {
	// Against uniform data, interpolated range counts should track the true
	// count closely.
	rng := rand.New(rand.NewSource(5))
	values := make([]float64, 10000)
	for i := range values {
		values[i] = rng.Float64()
	}
	slices.Sort(values)
	h, err := BuildEquiDepth(values, 40)
	if err != nil {
		t.Fatal(err)
	}
	trueCount := func(lo, hi float64) float64 {
		l := sort.SearchFloat64s(values, lo)
		r := sort.SearchFloat64s(values, hi)
		return float64(r - l)
	}
	for i := 0; i < 100; i++ {
		lo := rng.Float64() * 0.9
		hi := lo + rng.Float64()*(1-lo)
		got := h.RangeCount(lo, hi)
		want := trueCount(lo, hi)
		if math.Abs(got-want) > 0.02*10000 {
			t.Errorf("RangeCount(%v,%v) = %v, want ~%v", lo, hi, got, want)
		}
	}
}

func TestRangeEmptyAndInverted(t *testing.T) {
	// Two buckets, [0.1, 0.2] and [0.8, 0.9], and a gap between them.
	h, err := BuildEquiDepth([]float64{0.1, 0.2, 0.8, 0.9}, 2)
	if err != nil {
		t.Fatal(err)
	}
	want := []Bucket{{Lo: 0.1, Hi: 0.2, Count: 2}, {Lo: 0.8, Hi: 0.9, Count: 2}}
	if got := h.Buckets(); !slices.Equal(got, want) {
		t.Errorf("buckets = %v, want %v", got, want)
	}
	if got := h.RangeCount(0.9, 0.1); got != 0 {
		t.Errorf("inverted range count = %v", got)
	}
	if got := h.RangeCount(0.4, 0.6); got != 0 {
		t.Errorf("RangeCount over the gap = %v, want 0", got)
	}
	if got := h.RangeCount(0, 0.5); !almost(got, 2, 1e-9) {
		t.Errorf("RangeCount(0,0.5) = %v, want 2", got)
	}
	if _, err := BuildEquiDepth([]float64{1}, 0); err == nil {
		t.Error("expected error for 0 buckets")
	}
}

// TestBuildEquiDepthWantsAscending: the builder cuts the order it is given,
// so it refuses values out of order and NaN wherever it stands, and takes
// ties, -0 beside +0 and the infinities.
func TestBuildEquiDepthWantsAscending(t *testing.T) {
	nan, negZero := math.NaN(), math.Copysign(0, -1)
	for _, bad := range [][]float64{{2, 1}, {1, 3, 2}, {nan}, {nan, 1}, {1, nan}, {1, nan, 2}} {
		if _, err := BuildEquiDepth(bad, 4); err == nil {
			t.Errorf("BuildEquiDepth(%v) took values not in ascending order", bad)
		}
	}
	for _, good := range [][]float64{{1}, {1, 1, 1}, {negZero, 0, negZero}, {math.Inf(-1), 0, math.Inf(1)}} {
		if _, err := BuildEquiDepth(good, 4); err != nil {
			t.Errorf("BuildEquiDepth(%v): %v", good, err)
		}
	}
}

func TestMemoryAccounting(t *testing.T) {
	values := make([]float64, 400)
	for i := range values {
		values[i] = float64(i)
	}
	h, err := BuildEquiDepth(values, 40)
	if err != nil {
		t.Fatal(err)
	}
	if got := h.MemoryBytes(); got != 40*BytesPerBucket {
		t.Errorf("MemoryBytes = %d, want %d", got, 40*BytesPerBucket)
	}
}

// Property: FractionLE is monotone non-decreasing for any histogram.
func TestFractionLEMonotoneQuick(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	values := make([]float64, 500)
	for i := range values {
		values[i] = rng.ExpFloat64()
	}
	slices.Sort(values)
	h, err := BuildEquiDepth(values, 16)
	if err != nil {
		t.Fatal(err)
	}
	f := func(a, b float64) bool {
		if math.IsNaN(a) || math.IsNaN(b) || math.IsInf(a, 0) || math.IsInf(b, 0) {
			return true
		}
		if a > b {
			a, b = b, a
		}
		return h.FractionLE(a) <= h.FractionLE(b)+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// The written-out binary searches must land where sort.Search did, on the
// boundaries where an off-by-one would hide: a probe equal to a bucket's Hi
// (the bucket is half-open, so the next one is the first to overlap), the
// one-ulp buckets sealBoundaries makes for duplicate values, a probe beyond
// either end, and no buckets at all.
func TestBucketSearchBoundaries(t *testing.T) {
	up := func(v float64) float64 { return math.Nextafter(v, math.Inf(1)) }
	dup, err := BuildEquiDepth([]float64{2, 2, 2, 5, 5, 5, 9, 9, 9}, 3) // three one-ulp buckets
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name    string
		buckets []Bucket
	}{
		{"empty", nil},
		{"single", []Bucket{{Lo: 0, Hi: 1}}},
		{"tiled", []Bucket{{Lo: 0, Hi: 0.25}, {Lo: 0.25, Hi: 0.5}, {Lo: 0.5, Hi: 0.75}, {Lo: 0.75, Hi: 1}, {Lo: 1, Hi: 2}}},
		{"one-ulp duplicates", dup.Buckets()},
	}
	for _, c := range cases {
		probes := []float64{math.Inf(-1), -1, 0, math.Inf(1), math.NaN()}
		for _, b := range c.buckets {
			probes = append(probes, b.Lo, b.Hi, up(b.Hi), math.Nextafter(b.Hi, math.Inf(-1)))
		}
		his := make([]float64, len(c.buckets))
		for i, b := range c.buckets {
			his[i] = b.Hi
		}
		for _, v := range probes {
			want := sort.Search(len(c.buckets), func(i int) bool { return c.buckets[i].Hi > v })
			if got := bucketSearch(c.buckets, v); got != want {
				t.Errorf("%s: bucketSearch(%v) = %d, want %d", c.name, v, got, want)
			}
			if got := searchGT(his, v); got != want {
				t.Errorf("%s: searchGT(%v) = %d, want %d", c.name, v, got, want)
			}
		}
	}
	// The range queries over the same boundaries: the duplicate value's
	// one-ulp bucket is counted whole by the closed query that ends on it.
	if got := dup.RangeCount(2, 2); got != 3 {
		t.Errorf("RangeCount(2,2) over one-ulp bucket = %v, want 3", got)
	}
	if got := dup.RangeCount(up(2), 5); got != 3 {
		t.Errorf("RangeCount(2+ulp,5) = %v, want 3", got)
	}
	if got := (&Histogram{}).RangeCount(0, 1); got != 0 {
		t.Errorf("empty histogram RangeCount = %v", got)
	}
}

func almost(a, b, tol float64) bool { return math.Abs(a-b) <= tol }
