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

// TraceRecord is one completed Run through the serving path, in the shape
// of a ppc.RunResult but flattened to a fixed-size value type: appending it
// to a ring copies plain memory and never allocates. Durations are raw
// nanoseconds to keep the JSON form explicit.
type TraceRecord struct {
	// Seq is the per-template completion sequence number (1-based).
	Seq      uint64 `json:"seq"`
	Template string `json:"template"`
	// PlanID and Fingerprint identify the executed plan.
	PlanID      int    `json:"plan_id"`
	Fingerprint string `json:"fingerprint"`
	// Predicted is true when the learner emitted a NULL-free prediction.
	Predicted bool `json:"predicted"`
	// CacheHit is true when the predicted plan was served without optimizing.
	CacheHit bool `json:"cache_hit"`
	// Invoked is true when the optimizer ran.
	Invoked bool `json:"invoked"`
	// RandomInvocation / FeedbackCorrection / DriftReset mirror the online
	// driver's Section IV-D/E decision flags.
	RandomInvocation   bool `json:"random_invocation"`
	FeedbackCorrection bool `json:"feedback_correction"`
	DriftReset         bool `json:"drift_reset"`
	// Degraded marks a run whose learner step failed and that invoked the
	// optimizer directly.
	Degraded bool `json:"degraded"`
	// Executed is true when the plan ran against the database.
	Executed bool `json:"executed"`
	// Stage latencies in nanoseconds.
	PredictNs  int64 `json:"predict_ns"`
	OptimizeNs int64 `json:"optimize_ns"`
	ExecuteNs  int64 `json:"execute_ns"`
	// EstimatedCost is the cost model's estimate for the executed plan.
	EstimatedCost float64 `json:"estimated_cost"`

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

// ValuesSlice returns the populated prefix of Values (aliases the record).
func (r *TraceRecord) ValuesSlice() []float64 { return r.Values[:r.NumValues] }

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

// TraceRing is a fixed-capacity ring of the most recent trace records. Its
// mutex guards only plain-memory copies in and out of the preallocated
// buffer, making it a leaf lock: Append never allocates and never calls
// anything that could take another lock.
type TraceRing struct {
	mu  sync.Mutex
	buf []TraceRecord
	n   uint64 // total records ever appended
}

// NewTraceRing creates a ring holding the last size records; size <= 0
// returns nil (tracing disabled — all methods are nil-safe).
func NewTraceRing(size int) *TraceRing {
	if size <= 0 {
		return nil
	}
	return &TraceRing{buf: make([]TraceRecord, size)}
}

// Append copies one record into the ring, overwriting the oldest.
func (r *TraceRing) Append(rec *TraceRecord) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.buf[int(r.n%uint64(len(r.buf)))] = *rec
	r.n++
	r.mu.Unlock()
}

// Len reports how many records the ring currently holds.
func (r *TraceRing) Len() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.n < uint64(len(r.buf)) {
		return int(r.n)
	}
	return len(r.buf)
}

// Snapshot copies the retained records, oldest first.
func (r *TraceRing) Snapshot() []TraceRecord {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	size := uint64(len(r.buf))
	n := r.n
	if n > size {
		n = size
	}
	out := make([]TraceRecord, 0, n)
	start := r.n - n
	for i := uint64(0); i < n; i++ {
		out = append(out, r.buf[int((start+i)%size)])
	}
	return out
}
