package ppc

import "repro/internal/obsv"

// The metrics surface: one snapshot shape, assembled in one place, with one
// counter per fact. A template's numbers come in two objects named after
// who counts them — counters (the metrics registry: completed runs and the
// feedback pipeline's own calls) and learner (core.Online, its published
// model, its estimator windows, the mailbox in front of it and the
// correction state behind it) — and a fact is read from its one owner when
// the snapshot is assembled: nothing is mirrored into a second object, and
// no key name occurs in both (README "Observability" has
// the table; TestMetricsOneCounterPerFact holds the shape).

// LearnerMetrics is the learner-owned slice of a template's metrics: the
// online driver's lifetime counters, the synopsis it publishes, the Section
// IV-E sliding-window estimates, the feedback mailbox's depth and the
// adaptive correction state. Estimates that do not exist (empty window) are
// reported as value 0 with the matching Known flag false — never as the
// vacuous-precision 1.0 that metrics.Counter.Precision uses for the paper's
// plots: an operator reading "1.0" for a template that has never predicted
// would conclude the opposite of the truth.
type LearnerMetrics struct {
	// Steps counts learner protocol steps — one per run that reached its
	// learner, whether or not it went on to complete (counters.runs counts
	// completed runs: different facts). NullPredictions is the subset of
	// steps that emitted no plan.
	// Both are lifetime totals, unlike the bounded estimator windows below.
	Steps           int `json:"steps"`
	NullPredictions int `json:"null_predictions"`
	// SamplesAbsorbed and SynopsisBytes describe the published synopsis.
	SamplesAbsorbed int `json:"samples_absorbed"`
	SynopsisBytes   int `json:"synopsis_bytes"`
	// Validated and SelfLabeled count insertions by provenance (lifetime,
	// checkpoint-restored; crash-recovery audits compare them against the
	// acknowledged feedback history); Resets counts drift recoveries.
	Validated   int `json:"validated_points"`
	SelfLabeled int `json:"self_labeled_points"`
	Resets      int `json:"drift_resets"`
	// SnapshotPublishes counts immutable model publications, whatever
	// caused them (an apply batch, a drift reset, a restore);
	// StaleFeedbackDrops counts feedback discarded because a drift reset
	// intervened between its creation and its application.
	SnapshotPublishes  int64 `json:"snapshot_publishes"`
	StaleFeedbackDrops int64 `json:"stale_feedback_drops"`
	// QueueDepth is the feedback mailbox's length when the snapshot was
	// taken, read just before the flush that makes the rest of this struct
	// current.
	QueueDepth int `json:"feedback_queue_depth"`
	// AppliedSeq is the learner's watermark: the WAL sequence number of the
	// newest record, feedback or correction, its state reflects (0 when
	// durability is disabled or nothing was logged).
	AppliedSeq uint64 `json:"applied_seq"`
	// CorrectionEpoch and CorrectionSites report the adaptive statistics
	// layer's state for this template: the correction epoch and the number
	// of predicate sites whose factor is past cold start. Both zero when
	// the layer is disabled.
	CorrectionEpoch uint64 `json:"correction_epoch"`
	CorrectionSites int    `json:"correction_sites"`
	// WindowSamples is the number of predictions in the sliding window.
	WindowSamples  int     `json:"window_samples"`
	Precision      float64 `json:"precision"`
	PrecisionKnown bool    `json:"precision_known"`
	Recall         float64 `json:"recall"`
	RecallKnown    bool    `json:"recall_known"`
	Beta           float64 `json:"beta"`
	BetaKnown      bool    `json:"beta_known"`
}

// TemplateMetrics is one template's slice of a MetricsSnapshot: the
// registry's counters and latency histograms and the learner's state.
type TemplateMetrics struct {
	obsv.TemplateSnapshot
	Degree  int            `json:"degree"`
	Learner LearnerMetrics `json:"learner"`
}

// CacheMetrics is the shared plan cache's slice of a MetricsSnapshot.
type CacheMetrics struct {
	Len      int `json:"len"`
	Capacity int `json:"capacity"`
	obsv.CacheSnapshot
}

// MetricsSnapshotSchema identifies the MetricsSnapshot JSON format; bump
// on incompatible changes. v2 removed every key that repeated a fact under a
// second name (README "Observability" lists each and what replaces it); v3
// removed the learner's tunable-LSH epoch gauge with the feature; v4 removed
// two per-cause trip counters with the precision trip; v5 removed the
// per-template trip state with the trip itself, and
// counters.degraded_by_error, which equals counters.degraded_runs now that
// every degraded run is a failed learner step; v6 removed
// counters.retrain_drops, which no run could move (a degraded run's point
// always has its learner's dimensionality), and added
// counters.feedback_inline, the correction-only messages runs fold
// themselves; v7 removed wal.tear_drops, which counted the appends a log
// silenced by an injected torn tail dropped: no log drops an append now,
// and a failed one is an error counted in wal.append_errors.
const MetricsSnapshotSchema = "ppc-metrics/v7"

// MetricsSnapshot is a stable, JSON-serializable copy of the System's
// serving-path metrics: per-template counters and latency histograms,
// learner state, and the shared plan cache's counters.
type MetricsSnapshot struct {
	Schema    string            `json:"schema"`
	Templates []TemplateMetrics `json:"templates"`
	Cache     CacheMetrics      `json:"cache"`
	// WAL carries the durability layer's counters; nil (omitted) when
	// durability is disabled.
	WAL *obsv.WALSnapshot `json:"wal,omitempty"`
	// Replication carries the replication layer's counters (leader
	// shipping gauges, or a replica's lag and stream counters); nil when
	// the process neither ships nor consumes state.
	Replication *obsv.ReplSnapshot `json:"replication,omitempty"`
}

// metrics assembles the template's metrics: the one place a TemplateMetrics
// is built. The feedback mailbox is flushed first (its depth read just
// before), so the learner numbers reflect every point already acknowledged
// by Run; everything else is an atomic read, so assembling never stalls the
// serving path. Each number is read from whoever owns it.
func (st *templateState) metrics() TemplateMetrics {
	st.mailMu.Lock()
	depth := len(st.mail)
	st.mailMu.Unlock()
	st.flush()
	model := st.online.Model()
	est := st.online.Estimator()
	tm := TemplateMetrics{
		TemplateSnapshot: st.obs.Snapshot(),
		Degree:           st.tmpl.Degree(),
		Learner: LearnerMetrics{
			Steps:              st.online.Steps(),
			NullPredictions:    st.online.NullPredictions(),
			SamplesAbsorbed:    model.TotalPoints(),
			SynopsisBytes:      model.MemoryBytes(),
			Validated:          st.online.Validated(),
			SelfLabeled:        st.online.SelfLabeled(),
			Resets:             int(st.online.Epoch()),
			SnapshotPublishes:  st.online.Publishes(),
			StaleFeedbackDrops: st.online.StaleFeedbackDrops(),
			QueueDepth:         depth,
			AppliedSeq:         st.online.AppliedSeq(),
			WindowSamples:      est.SampleCount(),
		},
	}
	l := &tm.Learner
	l.Precision, l.PrecisionKnown = est.Precision()
	l.Recall, l.RecallKnown = est.Recall()
	l.Beta, l.BetaKnown = est.Beta()
	if corr := st.tmpl.Query.Corr; corr != nil {
		l.CorrectionEpoch = corr.Epoch()
		l.CorrectionSites = corr.ActiveSites()
	}
	return tm
}

// MetricsSnapshot assembles the current metrics across all templates, plus
// the shared plan cache's, the WAL's and the replication layer's.
func (s *System) MetricsSnapshot() (snap MetricsSnapshot, err error) {
	defer capturePanic("ppc.MetricsSnapshot", &err)
	snap.Schema = MetricsSnapshotSchema
	for _, st := range s.statesByName() {
		snap.Templates = append(snap.Templates, st.metrics())
	}
	s.cacheMu.RLock()
	snap.Cache.Len = s.cache.Len()
	snap.Cache.Capacity = s.cache.Capacity()
	s.cacheMu.RUnlock()
	snap.Cache.CacheSnapshot = s.cacheObs.Snapshot()
	snap.WAL = s.WALMetrics()
	snap.Replication = s.ReplMetrics()
	return snap, nil
}

// TemplateMetrics reports one template's metrics: exactly the element
// MetricsSnapshot would carry for it. Like MetricsSnapshot it flushes the
// template's feedback mailbox first, so the reported synopsis reflects every
// point already acknowledged by Run.
func (s *System) TemplateMetrics(template string) (tm TemplateMetrics, err error) {
	defer capturePanic("ppc.TemplateMetrics", &err)
	st, err := s.lookup(template)
	if err != nil {
		return TemplateMetrics{}, err
	}
	return st.metrics(), nil
}

// TemplateTrace returns the template's most recent decision traces (at
// most 64), oldest first.
func (s *System) TemplateTrace(template string) ([]obsv.TraceRecord, error) {
	st, err := s.lookup(template)
	if err != nil {
		return nil, err
	}
	return st.obs.Trace(), nil
}
