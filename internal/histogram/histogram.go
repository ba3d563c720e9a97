// Package histogram implements the "database histograms" of Section IV-C:
// unidimensional synopses that store, per bucket, a point count and an
// average plan cost. The PPC framework allocates one histogram per
// (randomized transformation, query plan) pair and answers density and
// cost queries with range lookups over the z-order-linearized coordinate.
//
// Two families are provided:
//
//   - Static equi-depth construction from values already in ascending
//     order: the column statistics of the catalog substrate, which count
//     points and carry no costs.
//
//   - Dynamic, a bounded-bucket histogram supporting online insertion with
//     split/merge maintenance, used by ONLINE-APPROXIMATE-LSH-HISTOGRAMS
//     where plan space points arrive one at a time.
//
// All histograms expose interpolated range queries under the standard
// uniform-within-bucket assumption, and report their storage footprint
// using the paper's accounting (Section IV-C: 12 bytes per bucket — a
// 32-bit boundary, a 32-bit count and a 32-bit average cost).
package histogram

import (
	"fmt"
	"math"
)

// Bucket is a half-open interval [Lo, Hi) with a point count and the sum of
// the costs of the points that fell in it. The average cost of the bucket
// is CostSum/Count.
type Bucket struct {
	Lo, Hi  float64
	Count   float64
	CostSum float64
}

// Width returns Hi - Lo.
func (b Bucket) Width() float64 { return b.Hi - b.Lo }

// BytesPerBucket is the paper's storage accounting for one histogram
// bucket: a 4-byte boundary, a 4-byte count and a 4-byte average cost.
const BytesPerBucket = 12

// Histogram is an immutable static histogram over a closed domain of finite
// width.
//
// cum carries the running count: cum[i] = Count of buckets [0, i), added
// left to right exactly as a scan over the buckets adds them, so a query
// counted from the lower edge of the domain — FractionLE, RangeCount from at
// or below it, Quantile — is one binary search plus the bucket(s) the range
// ends in, and equals the scan to the last bit. A bucket the range covers
// whole has overlap fraction w/w = 1 (a zero-width or one-ulp duplicate
// bucket is whole or absent: overlapFrac returns exactly 1 or 0) and
// contributes Count·1 = Count, which is why its min, max and divide can be
// skipped. reference_test.go keeps the scans as the oracle.
type Histogram struct {
	buckets []Bucket
	cum     []float64 // len(buckets)+1
	total   float64
}

// newHistogram seals a builder's buckets into a Histogram.
func newHistogram(buckets []Bucket, total float64) *Histogram {
	cum := make([]float64, len(buckets)+1)
	for i, b := range buckets {
		cum[i+1] = cum[i] + b.Count
	}
	return &Histogram{buckets: buckets, cum: cum, total: total}
}

// Buckets returns the bucket slice (callers must not modify it).
func (h *Histogram) Buckets() []Bucket { return h.buckets }

// NumBuckets returns the number of buckets.
func (h *Histogram) NumBuckets() int { return len(h.buckets) }

// TotalCount returns the total number of points summarized.
func (h *Histogram) TotalCount() float64 { return h.total }

// MemoryBytes returns the storage footprint under the paper's accounting.
func (h *Histogram) MemoryBytes() int { return len(h.buckets) * BytesPerBucket }

// Domain returns the histogram's [lo, hi] domain. It returns zeros for an
// empty histogram.
func (h *Histogram) Domain() (lo, hi float64) {
	if len(h.buckets) == 0 {
		return 0, 0
	}
	return h.buckets[0].Lo, h.buckets[len(h.buckets)-1].Hi
}

// RangeCount estimates the number of points in [lo, hi] by summing fully
// covered buckets and linearly interpolating partially covered ones. A range
// that starts at or below the domain's lower edge — what a selectivity
// estimate asks — reads the buckets below hi's from cum; one that starts
// mid-domain scans from lo's bucket.
func (h *Histogram) RangeCount(lo, hi float64) float64 {
	bs := h.buckets
	if hi < lo || len(bs) == 0 {
		return 0
	}
	// The scan starts at the first bucket reaching past lo. When that is
	// bucket 0 and lo does not cut it, every bucket ending at or below end is
	// covered whole and the scan's running sum on leaving them is cum.
	if !(lo <= bs[0].Lo && bs[0].Hi > lo) {
		return rangeCount(bs, lo, hi)
	}
	end := math.Nextafter(hi, math.Inf(1))
	i := bucketSearch(bs, end)
	sum := h.cum[i]
	for ; i < len(bs) && !(bs[i].Lo > end); i++ {
		sum += bs[i].Count * overlapFrac(bs[i], lo, end)
	}
	return sum
}

// FractionLE estimates the fraction of points with value <= v — the
// selectivity of a range predicate under this histogram.
func (h *Histogram) FractionLE(v float64) float64 {
	if h.total <= 0 {
		return 0
	}
	lo, _ := h.Domain()
	return h.RangeCount(lo, v) / h.total
}

// Quantile returns the smallest value v such that approximately a fraction
// p of points satisfy value <= v, using in-bucket linear interpolation.
// p is clamped to [0, 1].
func (h *Histogram) Quantile(p float64) float64 {
	lo, hi := h.Domain()
	if h.total <= 0 || len(h.buckets) == 0 {
		return lo
	}
	if p <= 0 {
		return lo
	}
	if p >= 1 {
		return hi
	}
	target := p * h.total
	// The first bucket whose running count reaches target: no float lies
	// between target and its predecessor, so "at least target" is "greater
	// than the predecessor".
	i := searchGT(h.cum[1:], math.Nextafter(target, math.Inf(-1)))
	if i == len(h.buckets) {
		return hi
	}
	b := h.buckets[i]
	if b.Count <= 0 {
		return b.Lo
	}
	frac := (target - h.cum[i]) / b.Count
	return b.Lo + frac*b.Width()
}

// shared range arithmetic over a sorted bucket slice.

func overlapFrac(b Bucket, lo, hi float64) float64 {
	if b.Width() <= 0 {
		// Degenerate bucket: counts fully if its point lies in range.
		if b.Lo >= lo && b.Lo <= hi {
			return 1
		}
		return 0
	}
	l := math.Max(b.Lo, lo)
	r := math.Min(b.Hi, hi)
	if r <= l {
		return 0
	}
	return (r - l) / b.Width()
}

func rangeCount(buckets []Bucket, lo, hi float64) float64 {
	if hi < lo {
		return 0
	}
	// Treat the closed query [lo, hi] as [lo, hi+ulp) so that one-ulp
	// buckets created for duplicate values at hi are fully counted.
	hi = math.Nextafter(hi, math.Inf(1))
	var sum float64
	for i := bucketSearch(buckets, lo); i < len(buckets); i++ {
		b := buckets[i]
		if b.Lo > hi {
			break
		}
		sum += b.Count * overlapFrac(b, lo, hi)
	}
	return sum
}

func rangeCost(buckets []Bucket, lo, hi float64) (cost, count float64) {
	if hi < lo {
		return 0, 0
	}
	hi = math.Nextafter(hi, math.Inf(1))
	for i := bucketSearch(buckets, lo); i < len(buckets); i++ {
		b := buckets[i]
		if b.Lo > hi {
			break
		}
		f := overlapFrac(b, lo, hi)
		count += b.Count * f
		cost += b.CostSum * f
	}
	return cost, count
}

// bucketSearch returns the index of the first bucket whose Hi > lo, i.e.
// the first bucket that can overlap a range starting at lo. It is searchGT
// over the Hi field: written out so that it inlines into the range queries
// and the comparison is not a closure call per step.
func bucketSearch(buckets []Bucket, lo float64) int {
	i, n := 0, len(buckets)
	for n > 0 {
		h := n >> 1
		if buckets[i+h].Hi > lo {
			n = h
		} else {
			i += h + 1
			n -= h + 1
		}
	}
	return i
}

// --- Static builder --------------------------------------------------------

// BuildEquiDepth builds a histogram over sorted — values in ascending order,
// with no NaN — whose buckets each hold approximately the same number of
// points: it cuts the order into nbuckets runs. It requires at least one
// value and returns an error on a NaN or on values out of order.
func BuildEquiDepth(sorted []float64, nbuckets int) (*Histogram, error) {
	if nbuckets <= 0 {
		return nil, fmt.Errorf("histogram: nbuckets must be positive, got %d", nbuckets)
	}
	n := len(sorted)
	if n == 0 {
		return nil, fmt.Errorf("histogram: no values")
	}
	for i, v := range sorted {
		if v != v || i > 0 && v < sorted[i-1] {
			return nil, fmt.Errorf("histogram: value %d (%v) is NaN or below its predecessor", i, v)
		}
	}
	if nbuckets > n {
		nbuckets = n
	}
	buckets := make([]Bucket, 0, nbuckets)
	per := float64(n) / float64(nbuckets)
	start := 0
	for k := 0; k < nbuckets; k++ {
		end := int(math.Round(per * float64(k+1)))
		if k == nbuckets-1 {
			end = n
		}
		if end <= start {
			continue
		}
		buckets = append(buckets, Bucket{Lo: sorted[start], Hi: sorted[end-1], Count: float64(end - start)})
		start = end
	}
	sealBoundaries(buckets)
	return newHistogram(buckets, float64(n)), nil
}

// sealBoundaries fixes up buckets built from point sets. Buckets keep the
// extent of the values they actually contain (leaving gaps between buckets,
// so sparse regions estimate to zero), and zero-width buckets caused by
// duplicate values are widened by one ulp so the half-open interval
// contains its value.
func sealBoundaries(buckets []Bucket) {
	for i := range buckets {
		if buckets[i].Hi <= buckets[i].Lo {
			buckets[i].Hi = math.Nextafter(buckets[i].Lo, math.Inf(1))
		}
	}
}
