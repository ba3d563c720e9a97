package core

import (
	"errors"
	"math/rand"
	"testing"

	"repro/internal/faults"
)

// degenerateEnv is a single-plan environment: whatever the point, the same
// plan is optimal. The learner should converge to near-zero invocations.
type degenerateEnv struct{ calls int }

func (e *degenerateEnv) Optimize(x []float64) (int, float64, error) {
	e.calls++
	return 42, 100 + x[0], nil
}

func (e *degenerateEnv) ExecuteCost(x []float64, plan int) (float64, error) {
	return 100 + x[0], nil
}

func TestOnlineSinglePlanSpace(t *testing.T) {
	env := &degenerateEnv{}
	o := MustNewOnline(OnlineConfig{
		Core: Config{Dims: 2, Radius: 0.1, Gamma: 0.9, Seed: 5},
		Seed: 41,
	}, env)
	rng := rand.New(rand.NewSource(43))
	for i := 0; i < 800; i++ {
		x := []float64{rng.Float64(), rng.Float64()}
		d := mustStep(t, o, x)
		if d.Predicted && d.PredictedPlan != 42 {
			t.Fatalf("predicted plan %d in a single-plan space", d.PredictedPlan)
		}
	}
	// After warm-up the whole space is one cluster; beyond the warm-up
	// samples almost no invocations should remain.
	if env.calls > 150 {
		t.Errorf("optimizer called %d times in a single-plan space", env.calls)
	}
}

// zeroCostEnv reports execution cost 0 (e.g. a plan whose tree was evicted
// from the cache): the cost check must treat it as a violent mismatch and
// re-optimize rather than crash or accept it.
type zeroCostEnv struct {
	degenerateEnv
	corrections int
}

func (e *zeroCostEnv) ExecuteCost(x []float64, plan int) (float64, error) { return 0, nil }

func TestOnlineZeroCostObservationTriggersCorrection(t *testing.T) {
	env := &zeroCostEnv{}
	o := MustNewOnline(OnlineConfig{
		Core: Config{Dims: 2, Radius: 0.1, Gamma: 0.9, Seed: 5},
		Seed: 47,
	}, env)
	rng := rand.New(rand.NewSource(53))
	corrections := 0
	for i := 0; i < 300; i++ {
		x := []float64{rng.Float64(), rng.Float64()}
		if mustStep(t, o, x).FeedbackCorrection {
			corrections++
		}
	}
	if corrections == 0 {
		t.Error("zero-cost observations never triggered feedback corrections")
	}
}

// Insert with mismatched dimensionality must panic loudly (programming
// error), not corrupt state.
func TestInsertDimensionMismatchPanics(t *testing.T) {
	p := MustNewApproxLSHHist(Config{Dims: 3, Seed: 1})
	defer func() {
		if recover() == nil {
			t.Error("no panic on dimension mismatch")
		}
	}()
	p.Insert(Sample{Point: []float64{0.5, 0.5}, Plan: 1})
}

// Predictions on out-of-range points must clamp, not panic.
func TestPredictOutOfRangePointsClamp(t *testing.T) {
	p := MustNewApproxLSHHist(Config{Dims: 2, Radius: 0.1, Gamma: 0.5, Seed: 5, MinSamples: -1})
	rng := rand.New(rand.NewSource(59))
	for i := 0; i < 500; i++ {
		p.Insert(Sample{Point: []float64{rng.Float64(), rng.Float64()}, Plan: 3, Cost: 1})
	}
	for _, x := range [][]float64{{-5, 0.5}, {0.5, 99}, {-1, -1}, {2, 2}} {
		got := p.Predict(x)
		if got.OK && got.Plan != 3 {
			t.Errorf("Predict(%v) = %+v", x, got)
		}
	}
}

// MinSamples gate: no predictions until the threshold, predictions after.
func TestMinSamplesGate(t *testing.T) {
	p := MustNewApproxLSHHist(Config{Dims: 2, Radius: 0.1, Gamma: 0.5, Seed: 5, MinSamples: 50})
	rng := rand.New(rand.NewSource(61))
	for i := 0; i < 49; i++ {
		p.Insert(Sample{Point: []float64{rng.Float64(), rng.Float64()}, Plan: 1, Cost: 1})
		if got := p.Predict([]float64{0.5, 0.5}); got.OK {
			t.Fatalf("prediction after only %d samples", i+1)
		}
	}
	p.Insert(Sample{Point: []float64{0.5, 0.5}, Plan: 1, Cost: 1})
	if got := p.Predict([]float64{0.5, 0.5}); !got.OK {
		t.Error("no prediction after reaching MinSamples on a pure space")
	}
}

// flakyEnv fails optimizer calls on demand (the injected-fault path).
type flakyEnv struct {
	degenerateEnv
	fail bool
}

func (e *flakyEnv) Optimize(x []float64) (int, float64, error) {
	if e.fail {
		return 0, 0, errTestOptimizer
	}
	return e.degenerateEnv.Optimize(x)
}

var errTestOptimizer = errors.New("optimizer down")

// Environment errors must propagate out of Step without corrupting the
// learned state; the driver keeps working once the environment heals.
func TestOnlineStepPropagatesEnvironmentErrors(t *testing.T) {
	env := &flakyEnv{}
	o := MustNewOnline(OnlineConfig{
		Core: Config{Dims: 2, Radius: 0.1, Gamma: 0.9, Seed: 5},
		Seed: 61,
	}, env)
	env.fail = true
	before := o.Predictor().TotalPoints()
	if _, err := o.Step([]float64{0.5, 0.5}); !errors.Is(err, errTestOptimizer) {
		t.Fatalf("Step error = %v, want wrapped optimizer error", err)
	}
	if o.Predictor().TotalPoints() != before {
		t.Error("failed step mutated the synopsis")
	}
	if o.Validated() != 0 {
		t.Error("failed step counted as validated insertion")
	}
	env.fail = false
	d, err := o.Step([]float64{0.5, 0.5})
	if err != nil || !d.Invoked {
		t.Fatalf("driver did not recover: d=%+v err=%v", d, err)
	}
}

// A wrong-dimensional point must be a typed error, not a panic.
func TestOnlineStepRejectsWrongDims(t *testing.T) {
	o := MustNewOnline(OnlineConfig{Core: Config{Dims: 3, Seed: 1}, Seed: 1}, &degenerateEnv{})
	if _, err := o.Step([]float64{0.5}); err == nil {
		t.Fatal("wrong-dimensional point accepted")
	}
}

// An injected learner misprediction must be caught by negative feedback:
// the garbled plan's observed cost misses the histogram estimate and the
// driver corrects via the optimizer.
func TestOnlineInjectedMispredictionIsCorrected(t *testing.T) {
	env := &quadrantEnv{wrongFactor: 5}
	o := MustNewOnline(OnlineConfig{
		Core:           Config{Dims: 2, Radius: 0.08, Gamma: 0.8, Seed: 5},
		PrecisionFloor: -1,
		Seed:           19,
	}, env)
	rng := rand.New(rand.NewSource(23))
	for i := 0; i < 1200; i++ {
		mustStep(t, o, []float64{rng.Float64(), rng.Float64()})
	}
	inj := faults.New(7).Enable(faults.LearnerMisprediction, 1)
	o.SetFaults(inj)
	corrections, served := 0, 0
	for i := 0; i < 200; i++ {
		d := mustStep(t, o, []float64{rng.Float64(), rng.Float64()})
		if d.Predicted {
			served++
			if d.FeedbackCorrection {
				corrections++
			}
		}
	}
	if served == 0 || inj.Fired(faults.LearnerMisprediction) == 0 {
		t.Fatal("no predictions served or garbled; test is vacuous")
	}
	if corrections < served/2 {
		t.Errorf("only %d/%d garbled predictions corrected", corrections, served)
	}
}
