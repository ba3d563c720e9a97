package obsv

import "time"

// Verdict is what the learner decided for one query instance (the paper's
// Algorithm 1 with the random audit of Section IV-D and the cost check of
// Section IV-E). It is declared once: core.Decision fills it, and a run's
// Facts, the facade's RunResult and the trace record carry it as filled.
type Verdict struct {
	// Predicted is true when the learner emitted a NULL-free prediction.
	Predicted bool `json:"predicted"`
	// CacheHit is true when a predicted plan was served without optimizing.
	CacheHit bool `json:"cache_hit"`
	// Invoked is true when the optimizer ran (NULL prediction, random
	// invocation, negative-feedback correction or a degraded run).
	Invoked bool `json:"invoked"`
	// RandomInvocation marks an invocation forced by the random audit coin
	// despite a usable prediction (Section IV-D).
	RandomInvocation bool `json:"random_invocation"`
	// FeedbackCorrection marks a prediction rejected post-execution by the
	// cost-based negative-feedback detector (Section IV-E).
	FeedbackCorrection bool `json:"feedback_correction"`
	// DriftReset is true when drift recovery dropped the template's
	// histograms during this step.
	DriftReset bool `json:"drift_reset"`
}

// Facts is what one completed run served: the plan, the learner's verdict,
// the stage times and the cost estimate. The facade's RunResult and the
// trace record both embed it, so a run's trace record is its facts copied
// in one assignment. The stage times marshal as nanosecond counts.
type Facts struct {
	Template string `json:"template"`
	// PlanID and Fingerprint identify the executed plan.
	PlanID      int    `json:"plan_id"`
	Fingerprint string `json:"fingerprint"`
	// Verdict is the learner's decision; on a degraded run it is the zero
	// verdict but Invoked.
	Verdict
	// Degraded is true when the run's learner step failed and the optimizer
	// was invoked directly for this run. The time spent in the failed step
	// stays in PredictTime.
	Degraded bool `json:"degraded"`
	// PredictTime is the learner's decision time, OptimizeTime the wall
	// time spent in the optimizer (0 on hits), ExecuteTime the plan's.
	PredictTime  time.Duration `json:"predict_ns"`
	OptimizeTime time.Duration `json:"optimize_ns"`
	ExecuteTime  time.Duration `json:"execute_ns"`
	// EstimatedCost is the cost model's estimate for the executed plan at
	// this instance.
	EstimatedCost float64 `json:"estimated_cost"`
}
