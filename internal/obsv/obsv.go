// Package obsv is the serving path's observability layer: an atomic,
// allocation-conscious metrics registry (per-template counters and bounded
// latency histograms), per-template rings of recent decision traces, and
// the JSON-serializable snapshot types the facade and cmd/ppcserve export.
//
// The paper's online framework (Section IV-E) is driven entirely by
// feedback signals — sliding-window precision/recall, negative feedback,
// drift recovery, and (in this runtime) the per-run optimizer fallback. This
// package makes those signals continuously observable instead of
// poll-only: every counter and histogram is updated with a single atomic
// operation, so instrumentation may run under any serving-path lock
// without extending hold times, and never allocates.
//
// Lock-hierarchy position (DESIGN.md §9): obsv is a leaf. Counters and
// histograms are lock-free atomics; the trace ring's mutex guards only
// plain-memory copies into a preallocated buffer and calls nothing. No
// obsv operation acquires — or can wait on — any other lock in the
// system, so it is safe to update from code holding regMu, a template
// lock, or cacheMu.
package obsv

import (
	"sync"
	"sync/atomic"
	"time"
)

// Registry is the process-wide metrics registry: one TemplateObs per
// registered template plus the shared plan cache's counters. Template
// registration is rare; the hot path holds a *TemplateObs directly and
// never goes through the registry map.
type Registry struct {
	mu        sync.RWMutex
	templates map[string]*TemplateObs
	cache     CacheObs
	wal       WALObs
	repl      ReplObs
}

// NewRegistry creates a registry whose templates keep their last 64 trace
// records each.
func NewRegistry() *Registry {
	return &Registry{templates: make(map[string]*TemplateObs)}
}

// Template returns the named template's metrics, creating them on first
// use. Re-registering a template (e.g. a snapshot restore) keeps the
// existing counters: they describe this process's serving history.
func (r *Registry) Template(name string) *TemplateObs {
	r.mu.RLock()
	t := r.templates[name]
	r.mu.RUnlock()
	if t != nil {
		return t
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if t = r.templates[name]; t == nil {
		t = &TemplateObs{name: name}
		r.templates[name] = t
	}
	return t
}

// Cache returns the shared plan cache's counters.
func (r *Registry) Cache() *CacheObs { return &r.cache }

// WAL returns the durability layer's counters.
func (r *Registry) WAL() *WALObs { return &r.wal }

// Repl returns the replication layer's counters (leader shipping on a
// leader, stream consumption on a replica).
func (r *Registry) Repl() *ReplObs { return &r.repl }

// CacheObs counts shared-plan-cache traffic at the serving level: a hit is
// a plan-tree resolution served from the cached tree, a miss is a
// re-optimization because the tree was evicted, foreign or unusable. (The
// learner-level cache_hits counter on TemplateObs is stricter: it also
// requires that the optimizer was bypassed.)
type CacheObs struct {
	hits, misses, puts, evictions atomic.Uint64
}

// CountHit records a plan resolution served from the cache.
func (c *CacheObs) CountHit() { c.hits.Add(1) }

// CountMiss records a plan resolution that had to re-optimize.
func (c *CacheObs) CountMiss() { c.misses.Add(1) }

// CountPut records a plan insertion.
func (c *CacheObs) CountPut() { c.puts.Add(1) }

// CountEviction records an eviction caused by an insertion.
func (c *CacheObs) CountEviction() { c.evictions.Add(1) }

// CacheSnapshot is the JSON form of the cache counters.
type CacheSnapshot struct {
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Puts      uint64 `json:"puts"`
	Evictions uint64 `json:"evictions"`
}

// Snapshot copies the cache counters.
func (c *CacheObs) Snapshot() CacheSnapshot {
	return CacheSnapshot{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Puts:      c.puts.Load(),
		Evictions: c.evictions.Load(),
	}
}

// TemplateObs holds one template's serving-path metrics: counters for
// every decision outcome, latency histograms for the predict, optimize,
// execute and degraded stages, and the ring of recent traces. All counter
// updates are single atomic adds.
type TemplateObs struct {
	name string

	runs                atomic.Uint64
	runErrors           atomic.Uint64
	cacheHits           atomic.Uint64
	predicted           atomic.Uint64
	invocations         atomic.Uint64
	randomInvocations   atomic.Uint64
	feedbackCorrections atomic.Uint64
	degradedRuns        atomic.Uint64

	// Feedback-pipeline health: messages enqueued to the background applier,
	// messages applied synchronously because the mailbox was full, closed or
	// absent (deferred — never lost), correction-only messages the run folded
	// itself (inline), and apply batches.
	feedbackEnqueued atomic.Uint64
	feedbackDeferred atomic.Uint64
	feedbackInline   atomic.Uint64
	applyBatches     atomic.Uint64

	// Adaptive-statistics health: per-run estimation q-errors (estimated
	// vs. observed operator cardinalities, attributed to predicate sites).
	qerror QHist

	predict  Hist
	optimize Hist
	execute  Hist
	degraded Hist
	apply    Hist

	ring traceRing
}

// Observe ingests one completed run: it assigns the record's sequence
// number, updates every counter and histogram the record implies, and
// appends the record to the trace ring. The caller passes a stack-built
// record; Observe copies it and retains nothing.
func (t *TemplateObs) Observe(rec *TraceRecord) {
	rec.Seq = t.runs.Add(1)
	if rec.CacheHit {
		t.cacheHits.Add(1)
	}
	if rec.Predicted {
		t.predicted.Add(1)
	}
	if rec.Invoked {
		t.invocations.Add(1)
		t.optimize.Record(rec.OptimizeTime)
	}
	if rec.RandomInvocation {
		t.randomInvocations.Add(1)
	}
	if rec.FeedbackCorrection {
		t.feedbackCorrections.Add(1)
	}
	if rec.Degraded {
		t.degradedRuns.Add(1)
		// Degraded-path service time: decide + direct optimize + execute.
		t.degraded.Record(rec.PredictTime + rec.OptimizeTime + rec.ExecuteTime)
	}
	t.predict.Record(rec.PredictTime)
	if rec.Executed {
		t.execute.Record(rec.ExecuteTime)
	}
	t.ring.Append(rec)
}

// CountRunError records a Run that returned an error after template
// resolution (recovered panics are not counted — they bypass the serving
// path's accounting entirely).
func (t *TemplateObs) CountRunError() { t.runErrors.Add(1) }

// CountFeedbackEnqueued records a run's message handed to the background
// applier's mailbox.
func (t *TemplateObs) CountFeedbackEnqueued() { t.feedbackEnqueued.Add(1) }

// CountFeedbackDeferred records a run's message applied synchronously on
// the serving goroutine because the mailbox was full, closed or absent
// (serial mode). Deferred messages are never lost — backpressure degrades
// latency, not durability.
func (t *TemplateObs) CountFeedbackDeferred() { t.feedbackDeferred.Add(1) }

// CountFeedbackInline records a correction-only message the run folded into
// its learner itself, on a free learner lock, instead of enqueueing it. A
// fold is not an apply batch: it moves neither apply_batches nor
// apply_latency.
func (t *TemplateObs) CountFeedbackInline() { t.feedbackInline.Add(1) }

// RecordApply ingests one apply batch and its latency. What the batch did to
// the synopsis — points absorbed, a model published, points dropped as stale
// — is the learner's to count (core.Online), not the registry's.
func (t *TemplateObs) RecordApply(d time.Duration) {
	t.applyBatches.Add(1)
	t.apply.Record(d)
}

// RecordQError records one estimation q-error (estimated vs. observed rows
// for an operator attributed to a template predicate site).
func (t *TemplateObs) RecordQError(q float64) { t.qerror.Record(q) }

// Trace returns the template's recent trace records, oldest first.
func (t *TemplateObs) Trace() []TraceRecord { return t.ring.Snapshot() }

// CounterSnapshot is the JSON form of a template's counters: what the
// registry itself counts, each from completed runs (Observe) or from the
// feedback pipeline's own calls. Facts another component owns — the
// learner's NULL predictions, publications, drift resets and stale drops,
// the mailbox's depth — are read from that owner by the facade's snapshot
// assembly and appear under learner.*, never here: one counter per fact.
type CounterSnapshot struct {
	// Runs counts completed (successful) Runs, whichever path served them —
	// a run that fails after its learner step is a step without a completed
	// run, so runs and learner.steps are different facts. RunErrors counts
	// Runs that returned a typed error after template resolution.
	Runs      uint64 `json:"runs"`
	RunErrors uint64 `json:"run_errors"`
	// CacheHits counts runs served from the cache without optimizing.
	CacheHits uint64 `json:"cache_hits"`
	// Predicted counts completed runs whose learner decision was a NULL-free
	// prediction.
	Predicted uint64 `json:"predicted"`
	// OptimizerInvocations counts runs where the optimizer ran, with the
	// Section IV-D/E causes broken out.
	OptimizerInvocations uint64 `json:"optimizer_invocations"`
	RandomInvocations    uint64 `json:"random_invocations"`
	FeedbackCorrections  uint64 `json:"feedback_corrections"`
	// DegradedRuns counts runs whose learner step failed and that invoked
	// the optimizer directly instead.
	DegradedRuns uint64 `json:"degraded_runs"`
	// Feedback-pipeline counters, one per message a run sends its learner:
	// enqueued to the background applier, deferred to a synchronous apply
	// under backpressure (mailbox full or closed) or in serial mode (no
	// mailbox), or folded inline (correction observations alone, on a free
	// learner lock, no log attached). ApplyBatches counts the learner's
	// apply batches — the applier's and the deferred runs'; a fold is none.
	FeedbackEnqueued uint64 `json:"feedback_enqueued"`
	FeedbackDeferred uint64 `json:"feedback_deferred"`
	FeedbackInline   uint64 `json:"feedback_inline"`
	ApplyBatches     uint64 `json:"apply_batches"`
	// MemoInvalidations is always 0: a memo reads correction factors per
	// call and is never rebuilt. The key stays in ppc-metrics/v6 for the
	// readers that still name it (ROADMAP item 1).
	MemoInvalidations uint64 `json:"memo_invalidations"`
}

// TemplateSnapshot is the JSON form of one template's metrics.
type TemplateSnapshot struct {
	Template        string          `json:"template"`
	Counters        CounterSnapshot `json:"counters"`
	PredictLatency  HistSnapshot    `json:"predict_latency"`
	OptimizeLatency HistSnapshot    `json:"optimize_latency"`
	ExecuteLatency  HistSnapshot    `json:"execute_latency"`
	DegradedLatency HistSnapshot    `json:"degraded_latency"`
	ApplyLatency    HistSnapshot    `json:"apply_latency"`
	// EstimationQError is the distribution of per-operator estimation
	// q-errors observed by executed runs (empty when execution or the
	// adaptive statistics layer is disabled).
	EstimationQError QHistSnapshot `json:"estimation_qerror"`
}

// Snapshot copies the template's counters and histograms.
func (t *TemplateObs) Snapshot() TemplateSnapshot {
	counters := CounterSnapshot{
		Runs:                 t.runs.Load(),
		RunErrors:            t.runErrors.Load(),
		CacheHits:            t.cacheHits.Load(),
		Predicted:            t.predicted.Load(),
		OptimizerInvocations: t.invocations.Load(),
		RandomInvocations:    t.randomInvocations.Load(),
		FeedbackCorrections:  t.feedbackCorrections.Load(),
		DegradedRuns:         t.degradedRuns.Load(),
		FeedbackEnqueued:     t.feedbackEnqueued.Load(),
		FeedbackDeferred:     t.feedbackDeferred.Load(),
		FeedbackInline:       t.feedbackInline.Load(),
		ApplyBatches:         t.applyBatches.Load(),
	}
	return TemplateSnapshot{
		Template:         t.name,
		Counters:         counters,
		PredictLatency:   t.predict.Snapshot(),
		OptimizeLatency:  t.optimize.Snapshot(),
		ExecuteLatency:   t.execute.Snapshot(),
		DegradedLatency:  t.degraded.Snapshot(),
		ApplyLatency:     t.apply.Snapshot(),
		EstimationQError: t.qerror.Snapshot(),
	}
}
