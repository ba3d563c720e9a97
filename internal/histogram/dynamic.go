package histogram

import (
	"fmt"
	"math"
)

// Dynamic is a bounded-bucket histogram supporting online insertion, used
// by ONLINE-APPROXIMATE-LSH-HISTOGRAMS (Section IV-D): plan space points
// arrive one at a time and must be folded into the synopsis without
// retaining the raw points.
//
// Maintenance policy: the domain starts as a single bucket. When a bucket's
// count exceeds a depth threshold (proportional to total/maxBuckets) it is
// split at its midpoint under the uniform assumption; when the bucket count
// would exceed the budget, the adjacent pair with the smallest combined
// count is merged. The result approximates an equi-depth histogram whose
// boundaries track the dense regions of the distribution — the behaviour
// the paper attributes to "standard histogram construction techniques that
// choose boundaries to minimize estimation error".
//
// Dynamic is not safe for concurrent use; the framework serializes access
// per query template.
type Dynamic struct {
	buckets    []Bucket
	total      float64
	maxBuckets int
	lo, hi     float64
	minDepth   float64 // never split a bucket below this count

	// gen counts mutations (Insert/Reset); frozen caches the immutable image
	// published at frozenGen so Freeze is a pointer return for histograms
	// untouched since the last publication.
	gen       uint64
	frozen    *Frozen
	frozenGen uint64
}

// NewDynamic creates a dynamic histogram over the domain [lo, hi) with at
// most maxBuckets buckets.
func NewDynamic(maxBuckets int, lo, hi float64) (*Dynamic, error) {
	if maxBuckets <= 0 {
		return nil, fmt.Errorf("histogram: maxBuckets must be positive, got %d", maxBuckets)
	}
	if hi <= lo {
		return nil, fmt.Errorf("histogram: invalid domain [%v, %v)", lo, hi)
	}
	d := &Dynamic{maxBuckets: maxBuckets, lo: lo, hi: hi, minDepth: 4}
	d.Reset()
	return d, nil
}

// MustNewDynamic is like NewDynamic but panics on error.
func MustNewDynamic(maxBuckets int, lo, hi float64) *Dynamic {
	d, err := NewDynamic(maxBuckets, lo, hi)
	if err != nil {
		panic(err)
	}
	return d
}

// Reset drops all contents, returning the histogram to a single empty
// bucket. Used when drift detection discards a template's synopses.
func (d *Dynamic) Reset() {
	d.buckets = []Bucket{{Lo: d.lo, Hi: d.hi}}
	d.total = 0
	d.gen++
}

// NumBuckets returns the current number of buckets.
func (d *Dynamic) NumBuckets() int { return len(d.buckets) }

// TotalCount returns the number of points inserted since the last Reset.
func (d *Dynamic) TotalCount() float64 { return d.total }

// MemoryBytes returns the storage footprint under the paper's accounting
// of 12 bytes per bucket, charged at the full budget (the space is
// allocated up front by the cache).
func (d *Dynamic) MemoryBytes() int { return d.maxBuckets * BytesPerBucket }

// Buckets returns the current buckets (callers must not modify them).
func (d *Dynamic) Buckets() []Bucket { return d.buckets }

// Insert adds a point with the given value and cost. Values outside the
// domain are clamped to its edges.
func (d *Dynamic) Insert(value, cost float64) {
	if value < d.lo {
		value = d.lo
	}
	if value >= d.hi {
		value = math.Nextafter(d.hi, math.Inf(-1))
	}
	i := d.find(value)
	d.buckets[i].Count++
	d.buckets[i].CostSum += cost
	d.total++
	d.gen++
	d.maybeSplit(i)
}

// find returns the index of the bucket containing value.
func (d *Dynamic) find(value float64) int {
	i := bucketSearch(d.buckets, value)
	if i >= len(d.buckets) {
		i = len(d.buckets) - 1
	}
	return i
}

// splitThreshold is the bucket depth beyond which a split is attempted.
func (d *Dynamic) splitThreshold() float64 {
	t := 2 * d.total / float64(d.maxBuckets)
	if t < 2*d.minDepth {
		t = 2 * d.minDepth
	}
	return t
}

func (d *Dynamic) maybeSplit(i int) {
	b := d.buckets[i]
	if b.Count <= d.splitThreshold() {
		return
	}
	mid := b.Lo + b.Width()/2
	if mid <= b.Lo || mid >= b.Hi {
		return // width exhausted by floating point; cannot split further
	}
	left := Bucket{Lo: b.Lo, Hi: mid, Count: b.Count / 2, CostSum: b.CostSum / 2}
	right := Bucket{Lo: mid, Hi: b.Hi, Count: b.Count / 2, CostSum: b.CostSum / 2}
	d.buckets = append(d.buckets, Bucket{})
	copy(d.buckets[i+2:], d.buckets[i+1:])
	d.buckets[i] = left
	d.buckets[i+1] = right
	if len(d.buckets) > d.maxBuckets {
		d.mergeCheapestPair()
	}
}

// mergeCheapestPair merges the adjacent bucket pair with the smallest
// combined count, losing the least resolution.
func (d *Dynamic) mergeCheapestPair() {
	if len(d.buckets) < 2 {
		return
	}
	best, bestCost := 0, math.Inf(1)
	for i := 0; i < len(d.buckets)-1; i++ {
		c := d.buckets[i].Count + d.buckets[i+1].Count
		if c < bestCost {
			best, bestCost = i, c
		}
	}
	d.buckets[best] = Bucket{
		Lo:      d.buckets[best].Lo,
		Hi:      d.buckets[best+1].Hi,
		Count:   d.buckets[best].Count + d.buckets[best+1].Count,
		CostSum: d.buckets[best].CostSum + d.buckets[best+1].CostSum,
	}
	d.buckets = append(d.buckets[:best+1], d.buckets[best+2:]...)
}

// RangeCount estimates the number of points in [lo, hi] with in-bucket
// linear interpolation.
func (d *Dynamic) RangeCount(lo, hi float64) float64 {
	return rangeCount(d.buckets, lo, hi)
}

// RangeCost estimates the total cost and count of points in [lo, hi].
func (d *Dynamic) RangeCost(lo, hi float64) (cost, count float64) {
	return rangeCost(d.buckets, lo, hi)
}
