package histogram

import (
	"math"
	"math/rand"
	"testing"
)

func TestNewDynamicValidation(t *testing.T) {
	if _, err := NewDynamic(0, 0, 1); err == nil {
		t.Error("expected error for 0 buckets")
	}
	if _, err := NewDynamic(10, 1, 1); err == nil {
		t.Error("expected error for empty domain")
	}
	d, err := NewDynamic(10, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if d.NumBuckets() != 1 || d.TotalCount() != 0 {
		t.Errorf("fresh dynamic: %d buckets, %v total", d.NumBuckets(), d.TotalCount())
	}
}

func TestMustNewDynamicPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MustNewDynamic(0, 0, 1)
}

func TestDynamicInsertCountConservation(t *testing.T) {
	d := MustNewDynamic(16, 0, 1)
	rng := rand.New(rand.NewSource(11))
	var wantCost float64
	for i := 0; i < 5000; i++ {
		c := rng.Float64()
		d.Insert(rng.Float64(), c)
		wantCost += c
	}
	if d.TotalCount() != 5000 {
		t.Fatalf("TotalCount = %v", d.TotalCount())
	}
	if got := d.RangeCount(0, 1); !almost(got, 5000, 1e-6) {
		t.Errorf("full range count = %v, want 5000", got)
	}
	cost, count := d.RangeCost(0, 1)
	if !almost(count, 5000, 1e-6) || !almost(cost, wantCost, 1e-6) {
		t.Errorf("full range cost = %v,%v want %v,5000", cost, count, wantCost)
	}
}

func TestDynamicBucketBudgetInvariant(t *testing.T) {
	for _, max := range []int{1, 2, 8, 40} {
		d := MustNewDynamic(max, 0, 1)
		rng := rand.New(rand.NewSource(int64(max)))
		for i := 0; i < 3000; i++ {
			d.Insert(rng.Float64(), 1)
			if d.NumBuckets() > max {
				t.Fatalf("max=%d: %d buckets after %d inserts", max, d.NumBuckets(), i+1)
			}
			// Buckets must tile the domain contiguously and in order.
			bs := d.Buckets()
			if bs[0].Lo != 0 || bs[len(bs)-1].Hi != 1 {
				t.Fatalf("domain not covered: [%v, %v]", bs[0].Lo, bs[len(bs)-1].Hi)
			}
			for j := 1; j < len(bs); j++ {
				if bs[j].Lo != bs[j-1].Hi {
					t.Fatalf("gap between buckets %d and %d", j-1, j)
				}
			}
		}
	}
}

func TestDynamicAdaptsToSkew(t *testing.T) {
	// All mass in [0, 0.1): the histogram should allocate most buckets there.
	d := MustNewDynamic(32, 0, 1)
	rng := rand.New(rand.NewSource(13))
	for i := 0; i < 10000; i++ {
		d.Insert(rng.Float64()*0.1, 1)
	}
	dense := 0
	for _, b := range d.Buckets() {
		if b.Hi <= 0.1+1e-9 {
			dense++
		}
	}
	if dense < 16 {
		t.Errorf("only %d of %d buckets in the dense decile", dense, d.NumBuckets())
	}
	// Density estimate in the empty region must be ~0.
	if got := d.RangeCount(0.5, 0.9); got > 100 {
		t.Errorf("empty region count = %v, want ~0", got)
	}
	// Density estimate in the dense region must be ~10000.
	if got := d.RangeCount(0, 0.1); math.Abs(got-10000) > 500 {
		t.Errorf("dense region count = %v, want ~10000", got)
	}
}

func TestDynamicClampsOutOfDomain(t *testing.T) {
	d := MustNewDynamic(8, 0, 1)
	d.Insert(-3, 1)
	d.Insert(42, 1)
	if d.TotalCount() != 2 {
		t.Fatalf("TotalCount = %v", d.TotalCount())
	}
	if got := d.RangeCount(0, 1); !almost(got, 2, 1e-9) {
		t.Errorf("count = %v", got)
	}
}

func TestDynamicReset(t *testing.T) {
	d := MustNewDynamic(8, 0, 1)
	for i := 0; i < 100; i++ {
		d.Insert(float64(i)/100, 1)
	}
	d.Reset()
	if d.TotalCount() != 0 || d.NumBuckets() != 1 {
		t.Errorf("after Reset: %v total, %d buckets", d.TotalCount(), d.NumBuckets())
	}
}

func TestDynamicAvgCostTracking(t *testing.T) {
	d := MustNewDynamic(16, 0, 1)
	// Left half: cost 10. Right half: cost 20.
	rng := rand.New(rand.NewSource(17))
	for i := 0; i < 2000; i++ {
		d.Insert(rng.Float64()*0.5, 10)
		d.Insert(0.5+rng.Float64()*0.5, 20)
	}
	cost, count := d.RangeCost(0.05, 0.45)
	if left := cost / count; count <= 0 || math.Abs(left-10) > 1.5 {
		t.Errorf("left avg cost = %v over %v points, want ~10", left, count)
	}
	cost, count = d.RangeCost(0.55, 0.95)
	if right := cost / count; count <= 0 || math.Abs(right-20) > 1.5 {
		t.Errorf("right avg cost = %v over %v points, want ~20", right, count)
	}
}

func TestDynamicMemoryBytes(t *testing.T) {
	d := MustNewDynamic(40, 0, 1)
	if got := d.MemoryBytes(); got != 40*BytesPerBucket {
		t.Errorf("MemoryBytes = %d, want %d", got, 40*BytesPerBucket)
	}
}

func TestDynamicSingleBucketDegenerate(t *testing.T) {
	// With a budget of 1 the histogram can never split but must stay correct.
	d := MustNewDynamic(1, 0, 1)
	for i := 0; i < 1000; i++ {
		d.Insert(0.25, 2)
	}
	if d.NumBuckets() != 1 {
		t.Fatalf("NumBuckets = %d", d.NumBuckets())
	}
	cost, count := d.RangeCost(0, 1)
	if avg := cost / count; count <= 0 || !almost(avg, 2, 1e-9) {
		t.Errorf("avg cost = %v over %v points", avg, count)
	}
}
