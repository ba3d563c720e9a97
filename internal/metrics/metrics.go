// Package metrics implements the sliding-window precision and recall
// estimators of Section IV-E: prec_k[P_i] tracks the estimated precision of
// the last k predictions of each query plan, while prec_k[Q_i] and
// rec_k[Q_i] track the overall precision and recall of the last k
// predictions made for a query template. The recall identity
// rec_k = β · prec_k (β = fraction of NULL-free predictions) is exposed
// directly.
package metrics

import "sync"

// Window is a fixed-capacity sliding window over boolean outcomes.
// The zero value is unusable; use NewWindow.
type Window struct {
	buf   []bool
	size  int
	next  int
	count int
	trues int
}

// NewWindow creates a window over the last k outcomes. k must be positive.
func NewWindow(k int) *Window {
	if k <= 0 {
		panic("metrics: window size must be positive")
	}
	return &Window{buf: make([]bool, k), size: k}
}

// Add records an outcome, evicting the oldest if the window is full.
func (w *Window) Add(v bool) {
	if w.count == w.size {
		if w.buf[w.next] {
			w.trues--
		}
	} else {
		w.count++
	}
	w.buf[w.next] = v
	if v {
		w.trues++
	}
	w.next = (w.next + 1) % w.size
}

// Rate returns the fraction of true outcomes in the window, and false if
// the window is empty.
func (w *Window) Rate() (float64, bool) {
	if w.count == 0 {
		return 0, false
	}
	return float64(w.trues) / float64(w.count), true
}

// Len returns the number of recorded outcomes (≤ k).
func (w *Window) Len() int { return w.count }

// Reset clears the window.
func (w *Window) Reset() {
	w.next, w.count, w.trues = 0, 0, 0
}

// TemplateEstimator maintains the Section IV-E estimations for one query
// template: per-plan precision windows, a template precision window over
// NULL-free predictions, and an answered-window measuring β (the NULL-free
// fraction), from which recall is derived.
//
// TemplateEstimator is safe for concurrent use. It is the one leaf of the
// serving path's lock hierarchy that is internally synchronized: updates
// arrive from the owning template's learner (under the template lock) while
// reads arrive from the shared plan cache's eviction scoring (under the
// cache lock), and those two paths must never have to take each other's
// locks. No TemplateEstimator method acquires any other lock.
type TemplateEstimator struct {
	mu       sync.Mutex
	k        int
	perPlan  map[int]*Window
	prec     *Window // correctness of NULL-free predictions
	answered *Window // NULL-free? over all predictions
}

// NewTemplateEstimator creates estimators with window size k.
func NewTemplateEstimator(k int) *TemplateEstimator {
	return &TemplateEstimator{
		k:        k,
		perPlan:  make(map[int]*Window),
		prec:     NewWindow(k),
		answered: NewWindow(k),
	}
}

// RecordNull records a NULL prediction (no plan emitted).
func (e *TemplateEstimator) RecordNull() {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.answered.Add(false)
}

// RecordPrediction records a NULL-free prediction of plan and whether it
// was (estimated to be) correct.
func (e *TemplateEstimator) RecordPrediction(plan int, correct bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.answered.Add(true)
	e.prec.Add(correct)
	w := e.perPlan[plan]
	if w == nil {
		w = NewWindow(e.k)
		e.perPlan[plan] = w
	}
	w.Add(correct)
}

// Precision returns prec_k[Q]: the estimated precision over the last k
// NULL-free predictions, and false when no predictions have been made.
//
// No-data convention: an empty window means the estimate does not exist,
// reported as (0, false). This is deliberately the opposite of
// Counter.Precision's vacuous 1.0 — the estimator feeds operational
// signals (drift recovery, eviction scoring, metrics snapshots), where a
// fabricated "perfect" value would mask a template that has never
// successfully predicted. Callers that need a number for display must
// branch on ok, as ppc.LearnerMetrics does with its Known flags.
func (e *TemplateEstimator) Precision() (float64, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.prec.Rate()
}

// Beta returns the NULL-free fraction β over the last k predictions.
func (e *TemplateEstimator) Beta() (float64, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.answered.Rate()
}

// Recall returns rec_k[Q] = β · prec_k[Q] (Section IV-E identity), and
// false when nothing has been recorded.
func (e *TemplateEstimator) Recall() (float64, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	beta, ok1 := e.answered.Rate()
	if !ok1 {
		return 0, false
	}
	prec, ok2 := e.prec.Rate()
	if !ok2 {
		// Predictions exist but all were NULL: recall estimate is 0.
		return 0, true
	}
	return beta * prec, true
}

// PlanPrecision returns prec_k[P] for one plan, and false if that plan has
// no recorded predictions.
func (e *TemplateEstimator) PlanPrecision(plan int) (float64, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	w := e.perPlan[plan]
	if w == nil {
		return 0, false
	}
	return w.Rate()
}

// SampleCount returns how many predictions (NULL or not) are in the window.
func (e *TemplateEstimator) SampleCount() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.answered.Len()
}

// Reset clears all windows (used when drift detection restarts a template).
func (e *TemplateEstimator) Reset() {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.perPlan = make(map[int]*Window)
	e.prec.Reset()
	e.answered.Reset()
}

// Counter accumulates exact precision/recall over a whole run (Definition
// 4) — used by the experiment harness where ground truth is known.
type Counter struct {
	Correct   int // correct NULL-free predictions
	Incorrect int // incorrect NULL-free predictions
	Nulls     int // NULL predictions
}

// RecordTruth tallies one prediction against ground truth. ok marks a
// NULL-free prediction; correct is its correctness.
func (c *Counter) RecordTruth(ok, correct bool) {
	switch {
	case !ok:
		c.Nulls++
	case correct:
		c.Correct++
	default:
		c.Incorrect++
	}
}

// Precision is correct / NULL-free (Definition 4); 1 when no NULL-free
// predictions were made.
//
// No-data convention: the vacuous 1.0 is the convention the paper's plots
// use for empty cells ("no NULL-free predictions" literally means no
// prediction was wrong), and the experiment harness relies on it when
// aggregating sparse sweeps. It is a plotting convention only: operational
// consumers must not interpret it as evidence of a healthy predictor: the
// serving path's estimator (TemplateEstimator.Precision) distinguishes the
// no-data case with its ok=false return.
func (c *Counter) Precision() float64 {
	nf := c.Correct + c.Incorrect
	if nf == 0 {
		return 1
	}
	return float64(c.Correct) / float64(nf)
}

// Recall is correct / total predictions (Definition 4).
func (c *Counter) Recall() float64 {
	total := c.Correct + c.Incorrect + c.Nulls
	if total == 0 {
		return 0
	}
	return float64(c.Correct) / float64(total)
}

// Total returns the number of recorded predictions.
func (c *Counter) Total() int { return c.Correct + c.Incorrect + c.Nulls }

// Merge adds another counter's tallies into c.
func (c *Counter) Merge(o Counter) {
	c.Correct += o.Correct
	c.Incorrect += o.Incorrect
	c.Nulls += o.Nulls
}
