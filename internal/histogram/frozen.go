package histogram

import "math"

// Frozen is the immutable image of a Dynamic histogram that the serving
// path reads: a struct of arrays in one allocation. The buckets of a
// Dynamic tile its domain, so bucket i is [hi[i-1], hi[i]) (bucket 0 starts
// at lo) and only the upper bounds are stored; counts and cost sums sit
// beside them, and cum carries the running count (cum[i] = count[0] + … +
// count[i-1], added left to right exactly as a scan over the buckets adds
// them) so that Rank and Quantile are one binary search each.
//
// Every query performs, in the same order, the float operations of the
// corresponding Dynamic query, so an answer from a frozen block equals the
// live histogram's to the last bit: a bucket the range covers whole has
// overlap fraction w/w = 1 and contributes Count·1 = Count, which is why
// it can be added without the min, max and divide.
//
// Range queries take the half-open range [lo, end). The closed query
// [lo, hi] of Dynamic.RangeCost is end = math.Nextafter(hi, +Inf); a caller
// probing many blocks with one range computes that successor once.
type Frozen struct {
	lo    float64
	hi    []float64
	count []float64
	cost  []float64
	cum   []float64
	total float64
	peak  float64
}

// PeakSlack is the rounding margin of the peak bound: for lo < end,
//
//	RangeCount(lo, end) <= Peak()·(end−lo)·PeakSlack
//
// In exact arithmetic the bound holds with no margin — every bucket adds
// its count times the fraction of its width the range covers, at most
// Peak() per unit of width covered, and the covered widths sum to at most
// end−lo. The margin absorbs the few ulps by which RangeCost's
// subtractions, divisions and sum, one per bucket, can exceed that, for any
// bucket budget below a million, as long as no fraction underflows: the
// range and the bucket widths are of the magnitudes a histogram over a
// unit domain meets, not within a subnormal of each other.
const PeakSlack = 1 + 1e-9

// Freeze returns an immutable image of the current contents. Consecutive
// calls without an intervening mutation return the SAME *Frozen, so a
// copy-on-write publisher pays the copy only for the histograms actually
// touched since its last publication — publish cost is proportional to
// buckets written, not to model size. The returned block is never mutated
// afterwards and is safe to share across goroutines.
func (d *Dynamic) Freeze() *Frozen {
	if d.frozen == nil || d.frozenGen != d.gen {
		n := len(d.buckets)
		buf := make([]float64, 4*n+1)
		f := &Frozen{
			lo:    d.buckets[0].Lo,
			hi:    buf[:n:n],
			count: buf[n : 2*n : 2*n],
			cost:  buf[2*n : 3*n : 3*n],
			cum:   buf[3*n:],
			total: d.total,
		}
		var cum float64
		for i, b := range d.buckets {
			f.hi[i], f.count[i], f.cost[i] = b.Hi, b.Count, b.CostSum
			cum += b.Count
			f.cum[i+1] = cum
			if b.Count > 0 {
				density := math.Inf(1) // a count on no width bounds nothing
				if w := b.Hi - b.Lo; w > 0 {
					density = b.Count / w
				}
				if density > f.peak {
					f.peak = density
				}
			}
		}
		d.frozen, d.frozenGen = f, d.gen
	}
	return d.frozen
}

// NumBuckets returns the number of buckets.
func (f *Frozen) NumBuckets() int { return len(f.hi) }

// Peak returns the block's largest density, count ÷ width over its
// buckets: +Inf when a bucket of zero width holds a count, 0 for an empty
// block. Peak()·(end−lo) bounds what RangeCount(lo, end) can count (see
// PeakSlack), so a caller holding a floor can rule a block out without
// searching it.
func (f *Frozen) Peak() float64 { return f.peak }

// TotalCount returns the number of points summarized.
func (f *Frozen) TotalCount() float64 { return f.total }

// searchGT returns the first index of ascending a whose element exceeds v,
// len(a) when none does. Written out rather than through sort.Search so
// that it inlines and the comparison is not a closure call per step.
func searchGT(a []float64, v float64) int {
	i, n := 0, len(a)
	for n > 0 {
		h := n >> 1
		if a[i+h] > v {
			n = h
		} else {
			i += h + 1
			n -= h + 1
		}
	}
	return i
}

// lower returns the lower bound of bucket i.
func (f *Frozen) lower(i int) float64 {
	if i == 0 {
		return f.lo
	}
	return f.hi[i-1]
}

// RangeCost estimates the total cost and count of points in [lo, end) with
// in-bucket linear interpolation.
func (f *Frozen) RangeCost(lo, end float64) (cost, count float64) {
	hi := f.hi
	i := searchGT(hi, lo)
	if i == len(hi) || end <= lo {
		return 0, 0
	}
	// Bucket i is the first that reaches past lo; it alone can be cut on
	// the left, every later one starts inside the range.
	bLo := f.lower(i)
	l := lo
	if bLo > lo {
		l = bLo
	}
	for {
		bHi := hi[i]
		if bHi > end {
			// The range ends inside this bucket (or, when end <= l, below
			// the domain): the last contribution.
			frac := 0.0
			if end > l {
				frac = (end - l) / (bHi - bLo)
			}
			return cost + f.cost[i]*frac, count + f.count[i]*frac
		}
		if l == bLo {
			count += f.count[i]
			cost += f.cost[i]
		} else {
			frac := (bHi - l) / (bHi - bLo)
			count += f.count[i] * frac
			cost += f.cost[i] * frac
		}
		if i++; i == len(hi) {
			return cost, count
		}
		bLo, l = bHi, bHi
	}
}

// RangeCount estimates the number of points in [lo, end).
func (f *Frozen) RangeCount(lo, end float64) float64 {
	_, count := f.RangeCost(lo, end)
	return count
}

// Rank estimates the fraction of points with value <= v, counting from the
// lower edge of the domain: the buckets below v's are summed in cum.
func (f *Frozen) Rank(v float64) float64 {
	if f.total <= 0 || v < f.lo {
		return 0
	}
	end := math.Nextafter(v, math.Inf(1))
	i := searchGT(f.hi, end)
	c := f.cum[i]
	if i < len(f.hi) {
		bLo := f.lower(i)
		frac := 0.0
		if end > bLo {
			frac = (end - bLo) / (f.hi[i] - bLo)
		}
		c += f.count[i] * frac
	}
	return c / f.total
}

// Quantile inverts Rank: the smallest value below which approximately a
// fraction p of the points lie, by linear interpolation inside the bucket
// where the running count first reaches p·total. p is clamped to [0, 1].
func (f *Frozen) Quantile(p float64) float64 {
	n := len(f.hi)
	if p <= 0 {
		return f.lo
	}
	if p >= 1 {
		return f.hi[n-1]
	}
	target := p * f.total
	// The first bucket whose running count reaches target: no float lies
	// between target and its predecessor, so "at least target" is "greater
	// than the predecessor".
	i := searchGT(f.cum[1:], math.Nextafter(target, math.Inf(-1)))
	if i == n {
		return f.hi[n-1]
	}
	bLo := f.lower(i)
	if f.count[i] <= 0 {
		return bLo
	}
	frac := (target - f.cum[i]) / f.count[i]
	return bLo + frac*(f.hi[i]-bLo)
}
