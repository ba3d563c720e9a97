package histogram

import (
	"math"
	"math/rand"
	"testing"
)

func TestDynamicEncodeDecodeRoundTrip(t *testing.T) {
	d := MustNewDynamic(24, 0, 1)
	rng := rand.New(rand.NewSource(77))
	for i := 0; i < 4000; i++ {
		d.Insert(rng.Float64(), rng.Float64()*10)
	}
	enc := d.Encode(nil)
	// The encoding is self-delimiting: what follows it is not read.
	back, n, err := DecodeDynamic(append(enc, 0xAA))
	if err != nil {
		t.Fatal(err)
	}
	if n != len(enc) {
		t.Fatalf("decode read %d bytes of a %d-byte encoding", n, len(enc))
	}
	if back.TotalCount() != d.TotalCount() || back.NumBuckets() != d.NumBuckets() {
		t.Fatalf("shape changed: %v/%d vs %v/%d",
			back.TotalCount(), back.NumBuckets(), d.TotalCount(), d.NumBuckets())
	}
	// Identical range query answers across the whole domain.
	for i := 0; i < 200; i++ {
		lo := rng.Float64()
		hi := lo + rng.Float64()*(1-lo)
		if a, b := d.RangeCount(lo, hi), back.RangeCount(lo, hi); a != b {
			t.Fatalf("RangeCount(%v,%v) = %v vs %v", lo, hi, a, b)
		}
		ca, na := d.RangeCost(lo, hi)
		cb, nb := back.RangeCost(lo, hi)
		if ca != cb || na != nb {
			t.Fatalf("RangeCost(%v,%v) diverged", lo, hi)
		}
	}
	// The restored histogram must keep accepting inserts.
	back.Insert(0.5, 1)
	if back.TotalCount() != d.TotalCount()+1 {
		t.Error("restored histogram does not accept inserts")
	}
}

func TestDecodeDynamicRejectsCorruption(t *testing.T) {
	d := MustNewDynamic(8, 0, 1)
	for i := 0; i < 100; i++ {
		d.Insert(float64(i)/100, 1)
	}
	good := d.Encode(nil)

	// Truncations anywhere must fail, not panic.
	for _, cut := range []int{0, 1, 5, len(good) / 2, len(good) - 3} {
		if _, _, err := DecodeDynamic(good[:cut]); err == nil {
			t.Errorf("truncation at %d accepted", cut)
		}
	}
	// A flipped count byte must fail the checksum-style validation.
	bad := append([]byte(nil), good...)
	bad[len(bad)-10] ^= 0xFF
	if _, _, err := DecodeDynamic(bad); err == nil {
		t.Error("corrupt payload accepted")
	}
	// Wrong version must be rejected.
	bad2 := append([]byte(nil), good...)
	bad2[0] = 99
	if _, _, err := DecodeDynamic(bad2); err == nil {
		t.Error("unknown version accepted")
	}
}

// The frozen blocks store only upper bounds, so a decoded histogram must
// tile its domain: the chain starts at lo, every width is positive, it ends
// at hi, and counts are finite. Each violation is its own corrupt image.
func TestDecodeDynamicRejectsBrokenTiling(t *testing.T) {
	good := []Bucket{{Lo: 0, Hi: 0.5, Count: 3, CostSum: 6}, {Lo: 0.5, Hi: 1, Count: 1, CostSum: 2}}
	encode := func(buckets []Bucket) []byte {
		d := MustNewDynamic(8, 0, 1)
		d.buckets, d.total = buckets, 0
		for _, b := range buckets {
			d.total += b.Count
		}
		return d.Encode(nil)
	}
	if _, _, err := DecodeDynamic(encode(good)); err != nil {
		t.Fatalf("well-formed image rejected: %v", err)
	}
	for name, buckets := range map[string][]Bucket{
		"starts above lo":  {{Lo: 0.1, Hi: 0.5, Count: 3}, {Lo: 0.5, Hi: 1, Count: 1}},
		"gap in chain":     {{Lo: 0, Hi: 0.4, Count: 3}, {Lo: 0.5, Hi: 1, Count: 1}},
		"zero width":       {{Lo: 0, Hi: 0.5, Count: 3}, {Lo: 0.5, Hi: 0.5, Count: 0}, {Lo: 0.5, Hi: 1, Count: 1}},
		"NaN bound":        {{Lo: 0, Hi: math.NaN(), Count: 3}, {Lo: math.NaN(), Hi: 1, Count: 1}},
		"ends below hi":    {{Lo: 0, Hi: 0.5, Count: 3}, {Lo: 0.5, Hi: 0.9, Count: 1}},
		"infinite count":   {{Lo: 0, Hi: 0.5, Count: math.Inf(1)}, {Lo: 0.5, Hi: 1, Count: 1}},
		"negative count":   {{Lo: 0, Hi: 0.5, Count: -1}, {Lo: 0.5, Hi: 1, Count: 1}},
		"not-a-number cnt": {{Lo: 0, Hi: 0.5, Count: math.NaN()}, {Lo: 0.5, Hi: 1, Count: 1}},
	} {
		if _, _, err := DecodeDynamic(encode(buckets)); err == nil {
			t.Errorf("%s: corrupt image accepted", name)
		}
	}
}

func TestDynamicEncodeEmpty(t *testing.T) {
	d := MustNewDynamic(8, 0, 1)
	back, _, err := DecodeDynamic(d.Encode(nil))
	if err != nil {
		t.Fatal(err)
	}
	if back.TotalCount() != 0 || back.NumBuckets() != 1 {
		t.Errorf("empty round trip: %v/%d", back.TotalCount(), back.NumBuckets())
	}
}
