package obsv

import (
	"encoding/json"
	"sync"
)

// MaxTraceDims bounds the parameter/point coordinates a trace record can
// carry inline. It exceeds the largest template degree (6), so records never
// truncate in practice; fixed-size arrays keep the append path free of
// allocations.
const MaxTraceDims = 8

// TraceRecord is one completed Run through the serving path: the run's
// Facts, its completion number and the instance's coordinates inline, a
// fixed-size value type, so appending it to a ring copies plain memory and
// never allocates.
type TraceRecord struct {
	// Seq is the per-template completion sequence number (1-based).
	Seq uint64 `json:"seq"`
	Facts
	// Executed is true when the plan ran against the database.
	Executed bool `json:"executed"`

	// Values/Point hold the instance's parameter values and plan space
	// point, inline up to MaxTraceDims coordinates.
	NumValues int                   `json:"-"`
	Values    [MaxTraceDims]float64 `json:"-"`
	NumPoint  int                   `json:"-"`
	Point     [MaxTraceDims]float64 `json:"-"`
}

// SetValues copies up to MaxTraceDims parameter values into the record.
func (r *TraceRecord) SetValues(vals []float64) {
	r.NumValues = copy(r.Values[:], vals)
}

// SetPoint copies up to MaxTraceDims plan space coordinates into the record.
func (r *TraceRecord) SetPoint(pt []float64) {
	r.NumPoint = copy(r.Point[:], pt)
}

// MarshalJSON emits the fixed-size coordinate arrays as trimmed slices.
// Marshaling allocates; it runs only on export paths, never while serving.
func (r TraceRecord) MarshalJSON() ([]byte, error) {
	type alias TraceRecord // drops MarshalJSON, keeps field tags
	return json.Marshal(struct {
		alias
		Values []float64 `json:"values"`
		Point  []float64 `json:"point"`
	}{
		alias:  alias(r),
		Values: r.Values[:r.NumValues],
		Point:  r.Point[:r.NumPoint],
	})
}

// traceRingSize is how many of a template's most recent records its ring
// holds.
const traceRingSize = 64

// traceRing is a fixed-capacity ring of the most recent trace records; its
// zero value is empty and ready. Its mutex guards only plain-memory copies
// in and out of the inline buffer, making it a leaf lock: Append never
// allocates and never calls anything that could take another lock.
type traceRing struct {
	mu  sync.Mutex
	buf [traceRingSize]TraceRecord
	n   uint64 // total records ever appended
}

// Append copies one record into the ring, overwriting the oldest.
func (r *traceRing) Append(rec *TraceRecord) {
	r.mu.Lock()
	r.buf[r.n%traceRingSize] = *rec
	r.n++
	r.mu.Unlock()
}

// Snapshot copies the retained records, oldest first.
func (r *traceRing) Snapshot() []TraceRecord {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := min(r.n, traceRingSize)
	out := make([]TraceRecord, 0, n)
	for seq := r.n - n; seq < r.n; seq++ {
		out = append(out, r.buf[seq%traceRingSize])
	}
	return out
}
