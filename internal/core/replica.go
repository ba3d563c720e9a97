package core

// Replica-side construction and the shared predict-only entry point. A
// predict-only replica holds the same Online driver as the leader but never
// calls Step: it installs shipped EncodeState bytes, applies shipped WAL
// records through ReplayRecords, and serves predictions from the published
// snapshot. Because both sides decode the identical state bytes and apply
// the identical record stream, a replica's PredictModel output is
// bit-identical to the leader's for the same snapshot epoch.

import (
	"fmt"
	"io"
	"math"

	"repro/internal/netproto"
)

// PredictModel predicts at plan-space point x against the current published
// model snapshot: lock-free, zero allocations (scratch buffers are pooled).
// This is exactly the prediction the serving path (StepConcurrent) computes
// before deciding whether to invoke the optimizer — the leader's predict
// RPC and the replicas share it, which is what makes leader and replica
// answers comparable bit for bit.
func (o *Online) PredictModel(x []float64) (Prediction, float64, bool) {
	model := o.snap.Load()
	sc := o.scratch.Get().(*PredictScratch)
	pred, costEst, costOK := model.PredictWithCost(x, sc)
	o.scratch.Put(sc)
	return pred, costEst, costOK
}

// AnswerPredict serves one wire predict request for this driver's template:
// the body the leader's and the replica's PredictRPC share once each has
// resolved req.Template to its driver. fingerprint resolves a plan id
// against the caller's copy of the dense fingerprint table ("" when the id
// is unknown there). A point of the wrong dimension, or with a NaN
// coordinate — no plan-space point — is a StatusBadRequest. Never invokes
// the optimizer and never feeds the learner: an RPC is a read.
func (o *Online) AnswerPredict(req netproto.PredictRequest, fingerprint func(plan int) string) netproto.PredictResult {
	res := netproto.PredictResult{ID: req.ID}
	if len(req.Point) != o.Dims() {
		res.Status = netproto.StatusBadRequest
		res.ErrMsg = fmt.Sprintf("point has %d coordinates, template %s expects %d",
			len(req.Point), req.Template, o.Dims())
		return res
	}
	for i, x := range req.Point {
		if math.IsNaN(x) {
			res.Status = netproto.StatusBadRequest
			res.ErrMsg = fmt.Sprintf("point coordinate %d is NaN", i)
			return res
		}
	}
	pred, costEst, costOK := o.PredictModel(req.Point)
	res.Epoch = o.Epoch()
	res.ModelVersion = o.Model().Version()
	if !pred.OK {
		res.Status = netproto.StatusNoPrediction
		return res
	}
	res.Status = netproto.StatusOK
	res.Plan = int64(pred.Plan)
	res.Confidence = pred.Confidence
	res.Cost, res.CostKnown = costEst, costOK
	res.Fingerprint = fingerprint(pred.Plan)
	return res
}

// Dims returns the plan-space dimensionality the driver expects.
func (o *Online) Dims() int { return o.cfg.Core.Dims }

// NewReplicaOnline constructs a predict-only driver directly from an
// EncodeState stream, with no prior knowledge of the template's
// configuration — the predictor's own encoded config is the source of
// truth. The driver has no environment: it can install state, replay
// shipped WAL records and predict, and Step — the one path that would
// invoke an optimizer or executor a replica does not have — is an error.
func NewReplicaOnline(r io.Reader) (*Online, error) {
	st, err := decodeOnlineState(r)
	if err != nil {
		return nil, err
	}
	o, err := NewOnline(OnlineConfig{Core: st.pred.Config()}, nil)
	if err != nil {
		return nil, err
	}
	if err := o.install(st); err != nil {
		return nil, err
	}
	// The corrections ship with the learner so replica state stays in
	// lockstep with the leader's per epoch (nil when the leader runs without
	// adaptive stats). A replica has no registered correction state to adopt
	// them into: the decoded section is the state.
	o.corr = st.corr
	return o, nil
}
