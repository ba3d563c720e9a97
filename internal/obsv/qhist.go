package obsv

import (
	"math"
	"math/bits"
	"sync/atomic"
)

// qhistBuckets is the fixed bucket count of a q-error histogram. Bucket 0
// holds q-errors in [1, 2); bucket i (0 < i < qhistBuckets-1) holds q in
// [2^i, 2^(i+1)); the last bucket is the unbounded overflow. 2^15 = 32768x
// is far beyond any estimation error the corrections leave standing, so the
// overflow bucket stays empty in healthy operation.
const qhistBuckets = 16

// QHist is a bounded, allocation-free histogram of estimation q-errors
// (max(est/obs, obs/est), always >= 1) with power-of-two buckets. Like
// Hist it is an obsv leaf: every update is a handful of atomic operations,
// safe under any serving-path lock.
//
// The zero value is ready to use.
type QHist struct {
	count   atomic.Uint64
	sumQ    atomic.Uint64 // float64 bits, CAS-accumulated
	maxQ    atomic.Uint64 // float64 bits
	buckets [qhistBuckets]atomic.Uint64
}

// qBucketIndex maps a q-error (>= 1) to its bucket.
func qBucketIndex(q float64) int {
	i := bits.Len64(uint64(q)) - 1
	if i < 0 {
		i = 0
	}
	if i >= qhistBuckets {
		i = qhistBuckets - 1
	}
	return i
}

// QBucketUpper is the exclusive upper bound of bucket i; 0 marks the
// unbounded overflow bucket.
func QBucketUpper(i int) float64 {
	if i >= qhistBuckets-1 {
		return 0
	}
	return float64(uint64(1) << uint(i+1))
}

// Record adds one q-error observation. Values below 1 (or NaN) are clamped
// to 1 — a q-error cannot be better than exact.
func (h *QHist) Record(q float64) {
	if !(q >= 1) {
		q = 1
	}
	h.count.Add(1)
	for {
		cur := h.sumQ.Load()
		if h.sumQ.CompareAndSwap(cur, math.Float64bits(math.Float64frombits(cur)+q)) {
			break
		}
	}
	for {
		cur := h.maxQ.Load()
		if q <= math.Float64frombits(cur) || h.maxQ.CompareAndSwap(cur, math.Float64bits(q)) {
			break
		}
	}
	h.buckets[qBucketIndex(q)].Add(1)
}

// QHistBucket is one non-empty q-error bucket in a snapshot.
type QHistBucket struct {
	// Upper is the bucket's exclusive upper bound; 0 marks the unbounded
	// overflow bucket.
	Upper float64 `json:"upper"`
	Count uint64  `json:"count"`
}

// QHistSnapshot is a JSON-serializable copy of a q-error histogram. Only
// non-empty buckets are materialized, in ascending bound order.
type QHistSnapshot struct {
	Count   uint64        `json:"count"`
	Sum     float64       `json:"sum"`
	Max     float64       `json:"max"`
	Buckets []QHistBucket `json:"buckets,omitempty"`
}

// Snapshot copies the histogram's current state.
func (h *QHist) Snapshot() QHistSnapshot {
	s := QHistSnapshot{
		Count: h.count.Load(),
		Sum:   math.Float64frombits(h.sumQ.Load()),
		Max:   math.Float64frombits(h.maxQ.Load()),
	}
	for i := range h.buckets {
		if n := h.buckets[i].Load(); n > 0 {
			s.Buckets = append(s.Buckets, QHistBucket{Upper: QBucketUpper(i), Count: n})
		}
	}
	return s
}

// Quantile returns an upper bound for the q-quantile (q in [0,1]) from the
// bucket boundaries, mirroring HistSnapshot.Quantile. The overflow bucket
// reports the observed maximum. Returns 0 when empty.
func (s QHistSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	target := uint64(math.Ceil(q * float64(s.Count)))
	if target == 0 {
		target = 1
	}
	var cum uint64
	for _, b := range s.Buckets {
		cum += b.Count
		if cum >= target {
			if b.Upper == 0 {
				return s.Max
			}
			return b.Upper
		}
	}
	return s.Max
}
