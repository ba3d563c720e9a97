package core

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/faults"
	"repro/internal/metrics"
	"repro/internal/obsv"
	"repro/internal/stats"
	"repro/internal/wal"
)

// Environment is the online driver's view of the RDBMS: it can invoke the
// optimizer at a plan space point, and it can observe the execution cost of
// a given (possibly stale) plan at a point. Experiment harnesses implement
// it on top of the optimizer and executor substrates.
//
// Both calls return real errors: an optimizer or recosting failure
// propagates out of Step instead of being smuggled through a side channel,
// so callers (in particular ppc.System's Run) can observe learner-path
// failures and fall back to direct optimization for that run.
type Environment interface {
	// Optimize returns the optimizer's plan choice at point x and that
	// plan's execution cost at x.
	Optimize(x []float64) (plan int, cost float64, err error)
	// ExecuteCost returns the execution cost of running the given plan at
	// point x (the observable the negative-feedback detector compares
	// against the histogram cost estimate). A plan the environment no
	// longer knows reports cost 0 with a nil error — a violent cost
	// surprise the negative-feedback detector corrects.
	ExecuteCost(x []float64, plan int) (cost float64, err error)
}

// OnlineConfig configures the ONLINE-APPROXIMATE-LSH-HISTOGRAMS driver.
type OnlineConfig struct {
	// Core configures the underlying ApproxLSHHist predictor.
	Core Config
	// InvocationProb is the mean random optimizer invocation probability
	// (Section IV-D; the paper uses 5–10%). 0 disables random invocations.
	InvocationProb float64
	// CostEpsilon is the Section IV-E error detector's relative cost error
	// bound ε: a prediction whose observed execution cost deviates from the
	// histogram cost estimate by more than ε times that estimate triggers an
	// immediate optimizer call and corrective insertion (default 0.25;
	// math.Inf(1) disables the detector, since no deviation exceeds it).
	CostEpsilon float64
	// WindowK is the sliding-window length k for the precision/recall
	// estimators (default 100).
	WindowK int
	// PrecisionFloor triggers drift recovery: when the estimated template
	// precision over a full window falls below this value, all histograms
	// are dropped and sampling restarts (default 0.5; set negative to
	// disable).
	PrecisionFloor float64

	// PositiveRatio is the self-labeling budget of the positive feedback
	// extension sketched in the paper's Section VII: predictions the
	// framework is highly confident about are inserted back into the
	// histograms as if optimizer-validated, shortening the training period
	// and improving recall. Two checks and balances prevent the feedback
	// spiral the paper warns against: insertions require confidence >=
	// 0.95, and the number of self-labeled points may never exceed
	// PositiveRatio times the number of optimizer-validated points. The
	// default 0 admits no self-label, which keeps the extension off.
	PositiveRatio float64
	// Seed drives the random invocation coin.
	Seed int64
}

// positiveConfidence is the confidence a prediction needs before positive
// feedback inserts it as a self-labeled point.
const positiveConfidence = 0.95

func (c OnlineConfig) withDefaults() (OnlineConfig, error) {
	var err error
	c.Core, err = c.Core.WithDefaults()
	if err != nil {
		return c, err
	}
	if c.InvocationProb < 0 || c.InvocationProb > 1 {
		return c, fmt.Errorf("core: InvocationProb %v out of [0,1]", c.InvocationProb)
	}
	if c.CostEpsilon == 0 {
		c.CostEpsilon = 0.25
	}
	if !(c.CostEpsilon > 0) {
		return c, fmt.Errorf("core: CostEpsilon must be positive, got %v", c.CostEpsilon)
	}
	if c.WindowK == 0 {
		c.WindowK = 100
	}
	if c.WindowK < 1 {
		return c, fmt.Errorf("core: WindowK must be positive, got %d", c.WindowK)
	}
	if c.PrecisionFloor == 0 {
		c.PrecisionFloor = 0.5
	}
	if !(c.PositiveRatio >= 0) {
		return c, fmt.Errorf("core: PositiveRatio must be non-negative, got %v", c.PositiveRatio)
	}
	return c, nil
}

// Decision describes what the driver did for one query instance: the
// verdict every consumer of a run reads, and what only the driver's own
// callers need.
type Decision struct {
	obsv.Verdict
	// PredictedPlan is the predictor's plan (meaningful when Predicted);
	// experiment harnesses compare it against ground truth.
	PredictedPlan int
	// Plan is the plan that was (or would be) executed.
	Plan int
	// Confidence is the predictor's confidence (0 when NULL).
	Confidence float64
	// PositiveInsertion marks a high-confidence prediction returned as a
	// self-labeled Label. It enters the histograms when the caller applies
	// the label (Step does before it returns).
	PositiveInsertion bool
	// Label is the labeled point the step produced, for the caller to apply:
	// the optimizer's answer on a NULL, an audit or a cost-check
	// correction, or a positive self-label — at most one per step. Its
	// Point aliases the step's x, and is nil when the step produced none.
	Label Feedback
}

// Feedback is one labeled plan space point on its way into the histograms.
// Point aliases the point the label was made at: whoever retains it beyond
// the call that produced it (the facade's mailbox does) copies it. Epoch is
// the learner's drift-reset epoch at creation time: a point labeled before a
// drift reset must not pollute the fresh synopsis, so Apply drops feedback
// whose epoch is stale — also the label of the very step whose verdict
// tripped the reset, which the reset would erase anyway.
type Feedback struct {
	Point       []float64
	Plan        int
	Cost        float64
	SelfLabeled bool
	Epoch       int64
}

// Online is the ONLINE-APPROXIMATE-LSH-HISTOGRAMS driver for one query
// template (Sections IV-D and IV-E), split RCU-style into a lock-free read
// path and a serialized write path:
//
//   - Readers (StepConcurrent) load the current immutable *Model from an
//     atomic pointer and predict with scratch buffers drawn from a pool —
//     no lock is taken on the serving path, so any number of goroutines can
//     predict on one template concurrently. A step returns its label; it
//     never writes.
//   - Writers (Apply/ApplyBatch/ReplayRecords/DecodeState/drift reset)
//     serialize on mu, mutate the live ApproxLSHHist and the attached
//     corrections, and publish a fresh snapshot with copy-on-write at
//     histogram granularity (Freeze reuses every frozen histogram untouched
//     since the previous publication). TryObserve is the one writer that
//     never waits for mu: it folds correction observations only when it can
//     take the lock at once.
//
// Step (the serial entry point used by experiments) is StepConcurrent
// followed by Apply of the returned label: the label is applied and
// published before the call returns, so the next step predicts on it.
type Online struct {
	cfg OnlineConfig
	env Environment
	est *metrics.TemplateEstimator

	// mu serializes the write path: pred and corr mutation, snapshot
	// publication, and state encode/decode. It is never taken by
	// StepConcurrent's serving path (predict, coin, labeling), and a serving
	// goroutine that folds its run's observations takes it only by TryLock.
	mu   sync.Mutex
	pred *ApproxLSHHist

	// snap is the published immutable model; readers load it lock-free.
	snap      atomic.Pointer[Model]
	publishes atomic.Int64

	// rngMu guards the random-invocation coin so concurrent steps draw
	// from one deterministic sequence (serial callers see the exact
	// pre-split sequence).
	rngMu sync.Mutex
	rng   *rand.Rand

	// scratch pools predict working memory across concurrent readers.
	scratch sync.Pool

	faults *faults.Injector

	// log, when set, durably records every learner event — applied feedback
	// points and correction site updates — before the learner lock is
	// released. Written once at registration (before the template serves).
	// rec is the record handed to it: a field, guarded by mu, so the record
	// has a stable address and a durable apply allocates nothing for it.
	log wal.Appender
	rec wal.Record
	// corr, when set, is the template's adaptive-statistics correction
	// state, written only under mu (ApplyBatch, ReplayRecords, install). The
	// driver does not consult it for predictions — corrections move
	// optimizer costing, not plan-space points — but it rides along in
	// EncodeState/DecodeState so checkpoints and replica state shipping
	// carry one self-contained learned state per template. Written once at
	// registration, before the template serves.
	corr *stats.Corrections
	// appliedSeq is the WAL sequence number of the newest record, of any
	// kind, reflected in the learner's state. Persisted by EncodeState so
	// recovery can replay exactly the records the checkpoint misses.
	appliedSeq atomic.Uint64

	// resets counts drift recoveries; it doubles as the feedback epoch.
	resets atomic.Int64
	// validated and selfLabeled count insertions by provenance, enforcing
	// the positive-feedback budget.
	validated   atomic.Int64
	selfLabeled atomic.Int64
	// staleDrops counts feedback discarded because a drift reset happened
	// between its creation and its application.
	staleDrops atomic.Int64
	// steps and nulls are lifetime observability counters: steps counts
	// Step calls that passed validation, nulls the subset whose prediction
	// was NULL. Unlike the estimator windows they never slide or reset, and
	// unlike validated/selfLabeled they are not learned state — EncodeState
	// deliberately omits them (a restarted process starts counting fresh).
	steps atomic.Int64
	nulls atomic.Int64
}

// NewOnline creates an online driver for one template. env is what Step
// steps against; callers that only use StepConcurrent (which is handed its
// environment per call) or never step at all (replicas) pass nil.
func NewOnline(cfg OnlineConfig, env Environment) (*Online, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	pred, err := NewApproxLSHHist(cfg.Core)
	if err != nil {
		return nil, err
	}
	o := &Online{
		cfg:  cfg,
		pred: pred,
		env:  env,
		rng:  rand.New(rand.NewSource(cfg.Seed)),
		est:  metrics.NewTemplateEstimator(cfg.WindowK),
	}
	scratchCfg := pred.Config()
	o.scratch.New = func() any { return NewPredictScratch(scratchCfg) }
	o.snap.Store(pred.Freeze())
	return o, nil
}

// MustNewOnline is like NewOnline but panics on error.
func MustNewOnline(cfg OnlineConfig, env Environment) *Online {
	o, err := NewOnline(cfg, env)
	if err != nil {
		panic(err)
	}
	return o
}

// Step processes one query instance at plan space point x and returns the
// decision taken. The protocol of Section IV-D:
//
//  1. Ask the predictor for a plan (with its cost estimate).
//  2. On NULL: invoke the optimizer, execute its plan, insert the labeled
//     point into the histograms.
//  3. On a prediction: optionally still invoke the optimizer with a
//     probability that decreases with the prediction's confidence
//     (randomized invocations shorten warm-up and audit the predictor);
//     otherwise execute the predicted plan and run the negative-feedback
//     check — if the observed cost deviates from the histogram estimate by
//     more than ε, assume a misprediction, invoke the optimizer now and
//     insert the corrected point.
//
// By default only optimizer-validated points enter the histograms; a
// positive PositiveRatio additionally reinforces very confident,
// cost-consistent predictions within that budget.
//
// The step's label is applied before the call returns, so its insertion is
// visible to the very next prediction. A label whose step tripped a drift
// reset is stale by then and dropped (StaleFeedbackDrops counts it): the
// reset would have erased it from the synopsis anyway.
//
// A non-nil error reports a failed Environment call (optimizer or
// recosting); the returned Decision describes how far the step got. The
// driver's learned state is never corrupted by a failed step — the labeled
// point is simply not inserted. A driver built without an environment
// cannot Step at all.
func (o *Online) Step(x []float64) (Decision, error) {
	if o.env == nil {
		return Decision{}, fmt.Errorf("core: Step on a driver built without an environment")
	}
	d, err := o.StepConcurrent(x, o.env)
	if d.Label.Point != nil {
		o.Apply(d.Label)
	}
	return d, err
}

// StepConcurrent is the prediction protocol of Step against an explicit
// environment, without the apply: the step's label comes back in the
// Decision for the caller to apply. It is safe for any number of concurrent
// callers — the prediction runs lock-free on the published snapshot with
// pooled scratch buffers — and a NULL step costs the model query and the
// optimizer call alone: it allocates nothing.
func (o *Online) StepConcurrent(x []float64, env Environment) (Decision, error) {
	var d Decision
	if len(x) != o.cfg.Core.Dims {
		return d, fmt.Errorf("core: point has %d coordinates, driver expects %d", len(x), o.cfg.Core.Dims)
	}
	o.steps.Add(1)
	model := o.snap.Load()
	sc := o.scratch.Get().(*PredictScratch)
	pred, costEst, costOK := model.PredictWithCost(x, sc)
	o.scratch.Put(sc)
	// Injected learner misprediction: garble the plan choice, simulating a
	// corrupted synopsis. The safety rails (negative feedback, drift reset)
	// must contain it.
	if pred.OK && o.faults.Should(faults.LearnerMisprediction) {
		pred.Plan += 1 + o.faults.Intn(7)
	}
	d.Predicted = pred.OK
	d.PredictedPlan = pred.Plan
	d.Confidence = pred.Confidence

	if !pred.OK {
		o.nulls.Add(1)
		o.est.RecordNull()
		if err := o.optimize(&d, x, env); err != nil {
			return d, err
		}
		o.maybeReset(&d)
		return d, nil
	}

	// Random invocation: probability scales down with confidence so highly
	// confident predictions are audited least.
	if o.cfg.InvocationProb > 0 {
		p := o.cfg.InvocationProb * 2 * (1 - pred.Confidence)
		if p > 1 {
			p = 1
		}
		// Keep a floor so even confident predictions are occasionally
		// audited at the configured mean rate.
		if p < o.cfg.InvocationProb/2 {
			p = o.cfg.InvocationProb / 2
		}
		o.rngMu.Lock()
		coin := o.rng.Float64()
		o.rngMu.Unlock()
		if coin < p {
			if err := o.optimize(&d, x, env); err != nil {
				return d, err
			}
			d.RandomInvocation = true
			// The audit reveals ground truth for the estimator.
			o.est.RecordPrediction(pred.Plan, d.Plan == pred.Plan)
			o.maybeReset(&d)
			return d, nil
		}
	}

	// Serve the cached plan and watch its cost.
	d.Plan = pred.Plan
	d.CacheHit = true
	observed, err := env.ExecuteCost(x, pred.Plan)
	if err != nil {
		return d, err
	}
	correct := true
	if costOK && costEst > 0 {
		if math.Abs(observed-costEst) > o.cfg.CostEpsilon*costEst {
			// Plan cost predictability violated: treat as misprediction
			// (Section IV-E contrapositive), correct immediately.
			correct = false
			if err := o.optimize(&d, x, env); err != nil {
				return d, err
			}
			d.FeedbackCorrection = true
			d.CacheHit = false
		}
	}
	// Positive feedback (Section VII extension): reinforce very confident,
	// cost-consistent predictions, within the self-labeling budget (none
	// at a ratio of 0).
	if correct &&
		pred.Confidence >= positiveConfidence &&
		float64(o.selfLabeled.Load()) < o.cfg.PositiveRatio*float64(o.validated.Load()) {
		d.Label = o.label(x, pred.Plan, observed, true)
		d.PositiveInsertion = true
	}
	o.est.RecordPrediction(pred.Plan, correct)
	o.maybeReset(&d)
	return d, nil
}

// optimize invokes the optimizer at x and makes its answer the step's plan
// and its label.
func (o *Online) optimize(d *Decision, x []float64, env Environment) error {
	plan, cost, err := env.Optimize(x)
	if err != nil {
		return fmt.Errorf("core: optimize at %v: %w", x, err)
	}
	d.Plan, d.Invoked = plan, true
	d.Label = o.label(x, plan, cost, false)
	return nil
}

// label stamps a labeled point at x with the current drift-reset epoch. Its
// Point aliases x.
func (o *Online) label(x []float64, plan int, cost float64, selfLabeled bool) Feedback {
	return Feedback{Point: x, Plan: plan, Cost: cost, SelfLabeled: selfLabeled, Epoch: o.resets.Load()}
}

// ValidatedFeedback builds an optimizer-validated feedback point for x,
// checking dimensionality; its Point aliases x. A run whose learner step
// failed uses it to label the plan the optimizer chose for it instead.
func (o *Online) ValidatedFeedback(x []float64, plan int, cost float64) (Feedback, error) {
	if len(x) != o.cfg.Core.Dims {
		return Feedback{}, fmt.Errorf("core: point has %d coordinates, driver expects %d", len(x), o.cfg.Core.Dims)
	}
	return o.label(x, plan, cost, false), nil
}

// LearnValidated inserts an optimizer-validated labeled point synchronously,
// bypassing the prediction protocol. A dimensionality mismatch is reported
// as an error — a dropped retraining point must be observable, not silent.
func (o *Online) LearnValidated(x []float64, plan int, cost float64) error {
	fb, err := o.ValidatedFeedback(x, plan, cost)
	if err != nil {
		return err
	}
	o.Apply(fb)
	return nil
}

// Apply inserts one feedback point into the live synopsis and publishes a
// fresh snapshot. It returns false (and counts a stale drop) when the
// point's epoch predates the current drift-reset epoch. Safe for concurrent
// use; writers serialize on the learner lock.
func (o *Online) Apply(fb Feedback) bool {
	return o.ApplyBatch([]Feedback{fb}, nil) == 1
}

// ApplyBatch is the learner's one write path for what serving learned: it
// inserts a batch of feedback points and folds a batch of cardinality
// observations (runs' observations concatenated in arrival order) into the
// attached corrections, under one hold of the learner lock. Every event is
// logged before the lock is released: each point before it enters the
// synopsis, and each site the observations touched once, with its
// post-batch state. At most one snapshot is published, amortizing the
// copy-on-write cost over the whole batch, and one WAL group commit covers
// it all. It returns how many points entered the synopsis; the rest were
// stale (StaleFeedbackDrops counts them). Observations are ignored without
// attached corrections.
func (o *Online) ApplyBatch(points []Feedback, obs []stats.Obs) (applied int) {
	if len(points) == 0 && len(obs) == 0 {
		return 0
	}
	// Deferred first, so it runs last: the group commit stays outside the
	// lock (an fsync must not stall concurrent writers), and the lock is
	// released even when an insert panics (Run absorbs the panic; a lock left
	// held would wedge the template). Commit errors are counted by the log's
	// observer and retried with the next batch; the state is already applied.
	if o.log != nil {
		defer o.log.Commit() //nolint:errcheck
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	for _, fb := range points {
		if o.applyLocked(fb) {
			applied++
		}
	}
	if applied > 0 {
		o.publishLocked()
	}
	if o.corr != nil && len(obs) > 0 {
		for _, site := range o.corr.Apply(obs) {
			if o.log != nil {
				o.rec = correctionRecord(site, o.corr.Site(site), o.corr.Epoch())
				o.logLocked()
			}
		}
	}
	return applied
}

// TryObserve folds one run's cardinality observations into the attached
// corrections on the calling goroutine: ApplyBatch's correction half — the
// same Corrections.Apply, so the same per-batch epoch rule — under the
// learner lock, taken with TryLock so the caller never waits behind a
// publish, a restore or another fold. It reports false and touches nothing
// when there is nothing to fold, no corrections or a log are attached (a
// durable learner's correction records and group commit stay with
// ApplyBatch's caller), or the lock is held; the caller then hands the
// observations to ApplyBatch as before. It allocates nothing.
func (o *Online) TryObserve(obs []stats.Obs) bool {
	if len(obs) == 0 || !o.mu.TryLock() {
		return false
	}
	defer o.mu.Unlock()
	if o.corr == nil || o.log != nil {
		return false
	}
	o.corr.Apply(obs)
	return true
}

func (o *Online) applyLocked(fb Feedback) bool {
	if fb.Epoch != o.resets.Load() {
		o.staleDrops.Add(1)
		return false
	}
	if o.log != nil {
		o.rec = feedbackRecord(fb)
		o.logLocked()
	}
	o.pred.Insert(Sample{Point: fb.Point, Plan: fb.Plan, Cost: fb.Cost})
	if fb.SelfLabeled {
		o.selfLabeled.Add(1)
	} else {
		o.validated.Add(1)
	}
	return true
}

// logLocked appends o.rec and advances the learner's watermark — under the
// same lock as the change, so a checkpoint's watermark and its state always
// agree. Append failures are counted by the log's observer and degrade
// durability only: the event still applies in memory. Callers hold mu.
func (o *Online) logLocked() {
	if seq, err := o.log.Append(&o.rec); err == nil && seq > 0 {
		o.appliedSeq.Store(seq)
	}
}

// publishLocked freezes the live synopsis and publishes it. Callers hold mu.
func (o *Online) publishLocked() {
	o.snap.Store(o.pred.Freeze())
	o.publishes.Add(1)
}

// SetFaults attaches a fault injector (nil disables injection).
func (o *Online) SetFaults(inj *faults.Injector) { o.faults = inj }

// AttachLog attaches the durable log every learner event is appended to
// before it applies (nil disables durable logging). Must be called before
// the driver starts applying feedback — registration time, not mid-flight.
func (o *Online) AttachLog(l wal.Appender) {
	o.mu.Lock()
	o.log = l
	o.mu.Unlock()
}

// AttachCorrections hands the driver the template's correction state so it
// is persisted and shipped with the learner. Must be called before the
// driver starts serving — registration time, not mid-flight.
func (o *Online) AttachCorrections(c *stats.Corrections) {
	o.mu.Lock()
	o.corr = c
	o.mu.Unlock()
}

// AppliedSeq returns the WAL sequence number of the newest record, of any
// kind, reflected in the learner's state (0 when nothing was ever logged).
// Checkpoint compaction uses it as the safe lower bound: every record at or
// below it is covered by a SaveState taken afterwards.
func (o *Online) AppliedSeq() uint64 { return o.appliedSeq.Load() }

// maybeReset performs drift recovery when the estimated precision over a
// full window drops below the floor. The cheap checks run lock-free; the
// reset itself re-verifies under the learner lock so concurrent steps
// cannot double-reset on the same window.
func (o *Online) maybeReset(d *Decision) {
	if o.cfg.PrecisionFloor <= 0 {
		return
	}
	if o.est.SampleCount() < o.cfg.WindowK {
		return
	}
	prec, ok := o.est.Precision()
	if !ok || prec >= o.cfg.PrecisionFloor {
		return
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.est.SampleCount() < o.cfg.WindowK {
		return
	}
	prec, ok = o.est.Precision()
	if !ok || prec >= o.cfg.PrecisionFloor {
		return
	}
	o.pred.Reset()
	o.est.Reset()
	o.resets.Add(1)
	o.publishLocked()
	d.DriftReset = true
}

// Model returns the current published snapshot. Lock-free; the returned
// model is immutable and safe to read from any goroutine.
func (o *Online) Model() *Model { return o.snap.Load() }

// Predictor exposes the underlying live histogram predictor (for
// inspection). Callers must not race it with concurrent steps — serial
// harnesses (the experiments) are its intended audience.
func (o *Online) Predictor() *ApproxLSHHist { return o.pred }

// Estimator exposes the sliding-window estimators (Section IV-E).
func (o *Online) Estimator() *metrics.TemplateEstimator { return o.est }

// Epoch returns the current drift-reset epoch, the number of drift
// recoveries so far (the value stamped into new feedback points).
func (o *Online) Epoch() int64 { return o.resets.Load() }

// Publishes returns how many model snapshots have been published.
func (o *Online) Publishes() int64 { return o.publishes.Load() }

// StaleFeedbackDrops returns how many feedback points were discarded
// because a drift reset intervened between creation and application.
func (o *Online) StaleFeedbackDrops() int64 { return o.staleDrops.Load() }

// Steps returns the lifetime number of Step calls that passed validation
// (including steps that later failed in the Environment).
func (o *Online) Steps() int { return int(o.steps.Load()) }

// NullPredictions returns the lifetime number of steps whose prediction
// was NULL (warm-up, low confidence, or noise elimination).
func (o *Online) NullPredictions() int { return int(o.nulls.Load()) }

// SelfLabeled returns how many points entered the histograms through
// positive feedback (0 unless the extension is enabled).
func (o *Online) SelfLabeled() int { return int(o.selfLabeled.Load()) }

// Validated returns how many optimizer-validated points were inserted.
func (o *Online) Validated() int { return int(o.validated.Load()) }

// EncodeState appends the driver's learned state (the histogram synopsis,
// insertion counters, drift epoch and WAL watermark) to dst. The sliding
// estimator windows are deliberately not persisted — after a restart the
// framework re-estimates precision from fresh predictions. Callers that
// queue labels for an asynchronous apply must drain the queue first so
// they are included.
//
// The trailer is [4]int64{validated, selfLabeled, epoch, appliedSeq}.
// Epoch and appliedSeq make a checkpoint self-describing for recovery: the
// WAL replays only records past appliedSeq, interpreting their epochs
// relative to the checkpoint's. The optional sections of stateSections
// follow the trailer.
func (o *Online) EncodeState(dst []byte) []byte {
	le := binary.LittleEndian
	o.mu.Lock()
	defer o.mu.Unlock()
	dst = o.pred.Encode(dst)
	for _, v := range [...]int64{o.validated.Load(), o.selfLabeled.Load(), o.resets.Load(), int64(o.appliedSeq.Load())} {
		dst = le.AppendUint64(dst, uint64(v))
	}
	for _, sec := range stateSections {
		start := len(dst)
		dst = sec.encode(o, le.AppendUint64(dst, 0)) // tag and length, set below
		if len(dst) == start+8 {
			dst = dst[:start] // the learner has no such section
			continue
		}
		le.PutUint32(dst[start:], sec.tag)
		le.PutUint32(dst[start+4:], uint32(len(dst)-start-8))
	}
	return dst
}

// stateSection is one optional section of an EncodeState stream: encode
// appends the learner's body to dst (nothing when it has none), decode
// reads a body into the state being decoded.
type stateSection struct {
	tag    uint32
	encode func(o *Online, dst []byte) []byte
	decode func(st *onlineState, body []byte) error
}

// stateSections is the one table of an EncodeState stream's optional
// sections. Each follows the counter trailer as `u32 tag | u32 len | body`,
// in table order, when encode writes a body. The decoder reads every
// section through this table: an unknown tag, or one out of order or
// repeated, is an error.
var stateSections = [...]stateSection{
	// Corrections: present exactly when the adaptive statistics layer is
	// attached. A stream without the section restores correction-cold.
	{tag: 1,
		encode: func(o *Online, dst []byte) []byte {
			if o.corr != nil {
				dst = o.corr.Encode(dst)
			}
			return dst
		},
		decode: func(st *onlineState, body []byte) (err error) {
			st.corr, err = stats.DecodeCorrections(body)
			return err
		}},
}

// onlineState is an EncodeState stream decoded and validated, not yet
// installed in a driver.
type onlineState struct {
	// pred is the synopsis.
	pred *ApproxLSHHist
	// counters is the trailer: validated, selfLabeled, epoch, appliedSeq.
	counters [4]int64
	// corr is the corrections section (nil when the stream has none:
	// adaptive stats off at save time).
	corr *stats.Corrections
}

// decodeOnlineState decodes one EncodeState stream. It is the one decoder
// behind DecodeState (checkpoint restore on the leader) and
// NewReplicaOnline (snapshot install on a replica), so both sides accept
// and reject exactly the same bytes.
func decodeOnlineState(b []byte) (*onlineState, error) {
	le := binary.LittleEndian
	pred, n, err := DecodeApproxLSHHist(b)
	if err != nil {
		return nil, err
	}
	st := &onlineState{pred: pred}
	b = b[n:]
	if len(b) < 8*len(st.counters) {
		return nil, fmt.Errorf("core: truncated state trailer (%d of %d bytes)", len(b), 8*len(st.counters))
	}
	for i := range st.counters {
		st.counters[i] = int64(le.Uint64(b[8*i:]))
	}
	b = b[8*len(st.counters):]
	if st.counters[3] < 0 {
		return nil, fmt.Errorf("core: restored state has negative applied sequence %d", st.counters[3])
	}
	var last uint32
	for len(b) > 0 {
		if len(b) < 8 {
			return nil, fmt.Errorf("core: truncated state section header (%d of 8 bytes)", len(b))
		}
		tag, n := le.Uint32(b), le.Uint32(b[4:])
		i := slices.IndexFunc(stateSections[:], func(sec stateSection) bool { return sec.tag == tag })
		if i < 0 || tag <= last {
			return nil, fmt.Errorf("core: state section tag %d unknown, repeated or out of order", tag)
		}
		last = tag
		if uint64(n) > uint64(len(b)-8) {
			return nil, fmt.Errorf("core: state section %d: truncated body (%d of %d bytes)", tag, len(b)-8, n)
		}
		if err := stateSections[i].decode(st, b[8:8+n]); err != nil {
			return nil, err
		}
		b = b[8+n:]
	}
	return st, nil
}

// DecodeState restores a driver state written by EncodeState and publishes
// the restored model. The restored predictor must match this driver's plan
// space dimensionality. The whole state is decoded and checked before any
// of it is installed, so a state it rejects leaves the driver untouched.
func (o *Online) DecodeState(b []byte) error {
	st, err := decodeOnlineState(b)
	if err != nil {
		return err
	}
	return o.install(st)
}

// install adopts a decoded state and publishes its model.
func (o *Online) install(st *onlineState) error {
	pred := st.pred
	if pred.Config().Dims != o.cfg.Core.Dims {
		return fmt.Errorf("core: restored state has %d dims, driver expects %d",
			pred.Config().Dims, o.cfg.Core.Dims)
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.corr != nil {
		// Adopt the optional correction section; a snapshot without one
		// resets the corrections to cold rather than keeping unrelated state.
		if err := o.corr.Adopt(st.corr); err != nil {
			return err
		}
	}
	o.pred = pred
	o.validated.Store(st.counters[0])
	o.selfLabeled.Store(st.counters[1])
	o.resets.Store(st.counters[2])
	o.appliedSeq.Store(uint64(st.counters[3]))
	o.est.Reset()
	o.publishLocked()
	return nil
}
