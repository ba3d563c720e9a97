package histogram

import "math"

// The bucket scans Histogram answered its queries with before it carried
// running counts, kept as the oracle the probes are held to, bit for bit:
// every bucket from the first that reaches past lo is visited, clipped with
// a max, a min and a divide, and added. They share no code with the probes —
// the clipping and the search for the first bucket are written out again
// here — so a change to either side shows up as a difference.

// refOverlapFrac is the fraction of b that [lo, hi) covers.
func refOverlapFrac(b Bucket, lo, hi float64) float64 {
	if b.Hi-b.Lo <= 0 {
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
	return (r - l) / (b.Hi - b.Lo)
}

// refRangeCount is the scan behind the old RangeCount.
func refRangeCount(h *Histogram, lo, hi float64) float64 {
	if hi < lo {
		return 0
	}
	hi = math.Nextafter(hi, math.Inf(1))
	i := 0
	for i < len(h.buckets) && !(h.buckets[i].Hi > lo) {
		i++
	}
	var sum float64
	for ; i < len(h.buckets); i++ {
		b := h.buckets[i]
		if b.Lo > hi {
			break
		}
		sum += b.Count * refOverlapFrac(b, lo, hi)
	}
	return sum
}

// refFractionLE is the old FractionLE: the scan from the domain's lower edge.
func refFractionLE(h *Histogram, v float64) float64 {
	if h.total <= 0 {
		return 0
	}
	lo, _ := h.Domain()
	return refRangeCount(h, lo, v) / h.total
}

// refQuantile is the old Quantile: the running count, bucket by bucket.
func refQuantile(h *Histogram, p float64) float64 {
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
	var cum float64
	for _, b := range h.buckets {
		if cum+b.Count >= target {
			if b.Count <= 0 {
				return b.Lo
			}
			frac := (target - cum) / b.Count
			return b.Lo + frac*b.Width()
		}
		cum += b.Count
	}
	return hi
}
