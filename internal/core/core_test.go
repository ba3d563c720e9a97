package core

import (
	"math"
	"math/rand"
	"testing"
)

// quadrantPlan labels [0,1]^2 with four quadrant plans — a simple space
// with known boundaries.
func quadrantPlan(x []float64) int {
	p := 0
	if x[0] >= 0.5 {
		p |= 1
	}
	if x[1] >= 0.5 {
		p |= 2
	}
	return p
}

// quadrantCost is smooth within each region (plan cost predictability).
func quadrantCost(x []float64) float64 {
	return 10*float64(quadrantPlan(x)+1) + x[0] + x[1]
}

func fillQuadrants(p *ApproxLSHHist, n int, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		x := []float64{rng.Float64(), rng.Float64()}
		p.Insert(Sample{Point: x, Plan: quadrantPlan(x), Cost: quadrantCost(x)})
	}
}

// precisionRecall evaluates a predictor over a uniform test set.
func precisionRecall(p *ApproxLSHHist, n int, seed int64, label func([]float64) int) (prec, rec float64) {
	rng := rand.New(rand.NewSource(seed))
	correct, answered := 0, 0
	for i := 0; i < n; i++ {
		x := []float64{rng.Float64(), rng.Float64()}
		got := p.Predict(x)
		if !got.OK {
			continue
		}
		answered++
		if got.Plan == label(x) {
			correct++
		}
	}
	if answered == 0 {
		return 1, 0
	}
	return float64(correct) / float64(answered), float64(correct) / float64(n)
}

func TestConfigDefaults(t *testing.T) {
	cfg, err := Config{Dims: 5}.WithDefaults()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.OutDims != 5 || cfg.Transforms != 5 || cfg.HistBuckets != 40 ||
		cfg.Radius != 0.1 || cfg.Gamma != 0.8 {
		t.Errorf("defaults = %+v", cfg)
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{Dims: 0},
		{Dims: 2, OutDims: 3},
		{Dims: 2, Transforms: -1},
		{Dims: 2, Radius: 1.5},
		{Dims: 2, Gamma: 2},
		{Dims: 2, HistBuckets: -1},
		{Dims: 1 << 16},
		{Dims: 1 << 10, OutDims: 2, Transforms: 1 << 10},
	}
	for i, cfg := range bad {
		if _, err := cfg.WithDefaults(); err == nil {
			t.Errorf("config %d should fail: %+v", i, cfg)
		}
	}
}

func TestApproxLSHHistPredictQuadrants(t *testing.T) {
	p := MustNewApproxLSHHist(Config{Dims: 2, Radius: 0.08, Gamma: 0.7, Seed: 5})
	fillQuadrants(p, 4000, 8)
	prec, rec := precisionRecall(p, 2000, 100, quadrantPlan)
	if prec < 0.9 {
		t.Errorf("precision = %v, want >= 0.9", prec)
	}
	if rec < 0.4 {
		t.Errorf("recall = %v, want >= 0.4", rec)
	}
}

func TestApproxLSHHistCostTracking(t *testing.T) {
	p := MustNewApproxLSHHist(Config{Dims: 2, Radius: 0.08, Gamma: 0.7, Seed: 5})
	fillQuadrants(p, 5000, 9)
	pred, cost, ok := p.PredictWithCost([]float64{0.2, 0.2})
	if !pred.OK || !ok {
		t.Fatalf("prediction failed: %+v %v", pred, ok)
	}
	if cost < 9 || cost > 13 {
		t.Errorf("cost estimate = %v, want ~10.4", cost)
	}
}

func TestApproxLSHHistMemoryAccounting(t *testing.T) {
	p := MustNewApproxLSHHist(Config{Dims: 4, Transforms: 5, HistBuckets: 40, Seed: 1})
	rng := rand.New(rand.NewSource(10))
	for i := 0; i < 500; i++ {
		x := []float64{rng.Float64(), rng.Float64(), rng.Float64(), rng.Float64()}
		plan := 0
		if x[0] > 0.5 {
			plan = 1
		}
		p.Insert(Sample{Point: x, Plan: plan, Cost: 1})
	}
	// 2 plans plus 1 marginal per transform: 5 * (2+1) * 40 * 12 bytes.
	if got := p.MemoryBytes(); got != 5*3*40*12 {
		t.Errorf("MemoryBytes = %d, want %d", got, 5*3*40*12)
	}
	// The histogram footprint must be far below the raw sample footprint
	// (the point of the paper): 500 samples * (4 dims * 8 + 8) = 20k bytes.
	if got := p.MemoryBytes(); got >= 500*(4*8+8) {
		t.Errorf("histogram synopsis (%d B) not smaller than raw samples", got)
	}
}

func TestApproxLSHHistReset(t *testing.T) {
	p := MustNewApproxLSHHist(Config{Dims: 2, Seed: 5})
	fillQuadrants(p, 1000, 11)
	p.Reset()
	if p.TotalPoints() != 0 {
		t.Error("TotalPoints after Reset")
	}
	if got := p.Predict([]float64{0.25, 0.25}); got.OK {
		t.Error("prediction after Reset should be NULL")
	}
}

func TestNoiseEliminationSuppressesStragglers(t *testing.T) {
	// A dense plan plus a single mislabeled point: with noise elimination
	// the straggler cannot block predictions near it.
	withNoise := MustNewApproxLSHHist(Config{Dims: 2, Radius: 0.1, Gamma: 0.9, Seed: 5, NoiseFraction: 0.005})
	without := MustNewApproxLSHHist(Config{Dims: 2, Radius: 0.1, Gamma: 0.9, Seed: 5, NoiseFraction: -1})
	rng := rand.New(rand.NewSource(12))
	for i := 0; i < 3000; i++ {
		x := []float64{rng.Float64(), rng.Float64()}
		for _, p := range []*ApproxLSHHist{withNoise, without} {
			p.Insert(Sample{Point: x, Plan: 0, Cost: 1})
		}
	}
	// One rogue point of plan 1 in the middle.
	for _, p := range []*ApproxLSHHist{withNoise, without} {
		p.Insert(Sample{Point: []float64{0.5, 0.5}, Plan: 1, Cost: 1})
	}
	got := withNoise.Predict([]float64{0.5, 0.5})
	if !got.OK || got.Plan != 0 {
		t.Errorf("noise elimination failed to suppress straggler: %+v", got)
	}
}

// --- Online driver ---------------------------------------------------------

// quadrantEnv implements Environment over the quadrant space. Executing a
// non-optimal plan costs a configurable factor more than the optimal one.
type quadrantEnv struct {
	optimizeCalls int
	wrongFactor   float64
	// shift relabels the space (for drift tests).
	shift bool
}

func (e *quadrantEnv) plan(x []float64) int {
	p := quadrantPlan(x)
	if e.shift {
		p = 3 - p // all regions change identity
	}
	return p
}

func (e *quadrantEnv) Optimize(x []float64) (int, float64, error) {
	e.optimizeCalls++
	return e.plan(x), quadrantCost(x), nil
}

func (e *quadrantEnv) ExecuteCost(x []float64, plan int) (float64, error) {
	if plan == e.plan(x) {
		return quadrantCost(x), nil
	}
	return quadrantCost(x) * e.wrongFactor, nil
}

// mustStep runs one driver step, failing the test on an environment error.
func mustStep(t *testing.T, o *Online, x []float64) Decision {
	t.Helper()
	d, err := o.Step(x)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestOnlineWarmUpAndSteadyState(t *testing.T) {
	env := &quadrantEnv{wrongFactor: 3}
	o := MustNewOnline(OnlineConfig{
		Core:           Config{Dims: 2, Radius: 0.08, Gamma: 0.8, Seed: 5},
		InvocationProb: 0.05,
		Seed:           17,
	}, env)
	rng := rand.New(rand.NewSource(13))
	var earlyInvocations, lateInvocations, lateHits int
	const n = 2000
	for i := 0; i < n; i++ {
		x := []float64{rng.Float64(), rng.Float64()}
		d := mustStep(t, o, x)
		if d.Invoked && i < n/4 {
			earlyInvocations++
		}
		if i >= 3*n/4 {
			if d.Invoked {
				lateInvocations++
			}
			if d.CacheHit {
				lateHits++
			}
		}
	}
	if lateInvocations >= earlyInvocations {
		t.Errorf("no learning: early invocations %d, late invocations %d", earlyInvocations, lateInvocations)
	}
	if lateHits < n/4/3 {
		t.Errorf("steady-state cache hit rate too low: %d of %d", lateHits, n/4)
	}
	// The optimizer must have been called far less than once per query in
	// steady state.
	if env.optimizeCalls > 3*n/4 {
		t.Errorf("optimizer called %d times over %d queries", env.optimizeCalls, n)
	}
}

func TestOnlinePredictionsAreAccurate(t *testing.T) {
	env := &quadrantEnv{wrongFactor: 3}
	o := MustNewOnline(OnlineConfig{
		Core: Config{Dims: 2, Radius: 0.08, Gamma: 0.8, Seed: 5},
		Seed: 18,
	}, env)
	rng := rand.New(rand.NewSource(14))
	correct, predicted := 0, 0
	for i := 0; i < 3000; i++ {
		x := []float64{rng.Float64(), rng.Float64()}
		d := mustStep(t, o, x)
		if i > 1000 && d.Predicted && d.CacheHit {
			predicted++
			if d.Plan == env.plan(x) {
				correct++
			}
		}
	}
	if predicted == 0 {
		t.Fatal("no steady-state predictions")
	}
	prec := float64(correct) / float64(predicted)
	if prec < 0.93 {
		t.Errorf("online precision = %v over %d predictions, want >= 0.93", prec, predicted)
	}
}

func TestOnlineNegativeFeedbackCorrects(t *testing.T) {
	// Train on the quadrant space, then silently shift the labels. With
	// negative feedback the cost mismatch must trigger corrections; the
	// driver may also drop the synopsis entirely via the precision floor.
	env := &quadrantEnv{wrongFactor: 5}
	o := MustNewOnline(OnlineConfig{
		Core:           Config{Dims: 2, Radius: 0.08, Gamma: 0.8, Seed: 5},
		WindowK:        50,
		PrecisionFloor: 0.5,
		Seed:           19,
	}, env)
	rng := rand.New(rand.NewSource(15))
	for i := 0; i < 1500; i++ {
		x := []float64{rng.Float64(), rng.Float64()}
		mustStep(t, o, x)
	}
	env.shift = true
	var corrections, resets int
	for i := 0; i < 600; i++ {
		x := []float64{rng.Float64(), rng.Float64()}
		d := mustStep(t, o, x)
		if d.FeedbackCorrection {
			corrections++
		}
		if d.DriftReset {
			resets++
		}
	}
	if corrections == 0 {
		t.Error("negative feedback never fired after the plan space shifted")
	}
	if resets == 0 {
		t.Error("drift recovery never fired after the plan space shifted")
	}
	// After recovery, the driver must re-learn the shifted space.
	correct, predicted := 0, 0
	for i := 0; i < 2000; i++ {
		x := []float64{rng.Float64(), rng.Float64()}
		d := mustStep(t, o, x)
		if i > 1000 && d.CacheHit {
			predicted++
			if d.Plan == env.plan(x) {
				correct++
			}
		}
	}
	if predicted == 0 {
		t.Fatal("no predictions after recovery")
	}
	if prec := float64(correct) / float64(predicted); prec < 0.9 {
		t.Errorf("post-recovery precision = %v", prec)
	}
}

// An ε of +Inf is never exceeded: the same label shift that makes negative
// feedback fire above serves its stale plans uncorrected.
func TestInfiniteCostEpsilonNeverCorrects(t *testing.T) {
	env := &quadrantEnv{wrongFactor: 5}
	o := MustNewOnline(OnlineConfig{
		Core:           Config{Dims: 2, Radius: 0.08, Gamma: 0.8, Seed: 5},
		CostEpsilon:    math.Inf(1),
		PrecisionFloor: -1,
		Seed:           19,
	}, env)
	rng := rand.New(rand.NewSource(15))
	for i := 0; i < 1500; i++ {
		mustStep(t, o, []float64{rng.Float64(), rng.Float64()})
	}
	env.shift = true
	stale := 0
	for i := 0; i < 600; i++ {
		x := []float64{rng.Float64(), rng.Float64()}
		d := mustStep(t, o, x)
		if d.FeedbackCorrection {
			t.Fatalf("step %d: FeedbackCorrection under CostEpsilon = +Inf", i)
		}
		if d.CacheHit && d.Plan != env.plan(x) {
			stale++
		}
	}
	if stale == 0 {
		t.Error("no stale plan was served after the shift; the test is vacuous")
	}
}

func TestOnlineRandomInvocationsAudit(t *testing.T) {
	env := &quadrantEnv{wrongFactor: 3}
	o := MustNewOnline(OnlineConfig{
		Core:           Config{Dims: 2, Radius: 0.08, Gamma: 0.8, Seed: 5},
		InvocationProb: 0.3,
		Seed:           20,
	}, env)
	rng := rand.New(rand.NewSource(16))
	randomInvocations := 0
	for i := 0; i < 1500; i++ {
		x := []float64{rng.Float64(), rng.Float64()}
		if mustStep(t, o, x).RandomInvocation {
			randomInvocations++
		}
	}
	if randomInvocations == 0 {
		t.Error("random invocations never fired at 30% mean probability")
	}
}

func TestOnlineConfigValidation(t *testing.T) {
	env := &quadrantEnv{wrongFactor: 2}
	if _, err := NewOnline(OnlineConfig{Core: Config{Dims: 0}}, env); err == nil {
		t.Error("expected error for bad core config")
	}
	if _, err := NewOnline(OnlineConfig{Core: Config{Dims: 2}, InvocationProb: 2}, env); err == nil {
		t.Error("expected error for bad invocation probability")
	}
	// A driver without an environment is legal — the facade hands
	// StepConcurrent a per-run one, replicas never step — but cannot Step.
	o, err := NewOnline(OnlineConfig{Core: Config{Dims: 2}}, nil)
	if err != nil {
		t.Fatalf("nil environment rejected: %v", err)
	}
	if _, err := o.Step([]float64{0.5, 0.5}); err == nil {
		t.Error("Step on a driver without an environment must fail")
	}
	if o.Steps() != 0 {
		t.Errorf("refused Step was counted: Steps = %d", o.Steps())
	}
	if _, err := NewOnline(OnlineConfig{Core: Config{Dims: 2}, WindowK: -1}, env); err == nil {
		t.Error("expected error for bad window")
	}
	// Each switch is a value of its parameter, so a value that means
	// nothing is refused rather than read as on or off.
	for name, cfg := range map[string]OnlineConfig{
		"NaN NoiseFraction":      {Core: Config{Dims: 2, NoiseFraction: math.NaN()}},
		"negative CostEpsilon":   {Core: Config{Dims: 2}, CostEpsilon: -0.25},
		"NaN CostEpsilon":        {Core: Config{Dims: 2}, CostEpsilon: math.NaN()},
		"negative PositiveRatio": {Core: Config{Dims: 2}, PositiveRatio: -1},
		"NaN PositiveRatio":      {Core: Config{Dims: 2}, PositiveRatio: math.NaN()},
	} {
		if _, err := NewOnline(cfg, env); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

func TestOnlineEstimatorTracksPrecision(t *testing.T) {
	env := &quadrantEnv{wrongFactor: 3}
	o := MustNewOnline(OnlineConfig{
		Core:           Config{Dims: 2, Radius: 0.08, Gamma: 0.8, Seed: 5},
		InvocationProb: 0.1,
		Seed:           21,
	}, env)
	rng := rand.New(rand.NewSource(17))
	for i := 0; i < 2500; i++ {
		x := []float64{rng.Float64(), rng.Float64()}
		mustStep(t, o, x)
	}
	prec, ok := o.Estimator().Precision()
	if !ok {
		t.Fatal("no precision estimate")
	}
	if prec < 0.8 {
		t.Errorf("estimated precision = %v on a stable space", prec)
	}
	rec, ok := o.Estimator().Recall()
	if !ok || rec <= 0 {
		t.Errorf("estimated recall = %v,%v", rec, ok)
	}
}

func TestPositiveFeedbackBudgetAndSafety(t *testing.T) {
	env := &quadrantEnv{wrongFactor: 3}
	o := MustNewOnline(OnlineConfig{
		Core:          Config{Dims: 2, Radius: 0.08, Gamma: 0.8, Seed: 5},
		PositiveRatio: 0.5,
		Seed:          23,
	}, env)
	rng := rand.New(rand.NewSource(29))
	insertions := 0
	for i := 0; i < 2000; i++ {
		x := []float64{rng.Float64(), rng.Float64()}
		if mustStep(t, o, x).PositiveInsertion {
			insertions++
		}
	}
	if insertions == 0 {
		t.Error("positive feedback never fired on a smooth space")
	}
	if o.SelfLabeled() != insertions {
		t.Errorf("SelfLabeled = %d, want %d", o.SelfLabeled(), insertions)
	}
	// Budget: self-labeled points never exceed PositiveRatio × validated.
	if float64(o.SelfLabeled()) > 0.5*float64(o.Validated())+1 {
		t.Errorf("budget violated: %d self-labeled vs %d validated", o.SelfLabeled(), o.Validated())
	}
	// Safety: precision must remain high with feedback enabled.
	prec, ok := o.Estimator().Precision()
	if !ok || prec < 0.9 {
		t.Errorf("precision with positive feedback = %v,%v", prec, ok)
	}
}

func TestPositiveFeedbackDisabledByDefault(t *testing.T) {
	env := &quadrantEnv{wrongFactor: 3}
	o := MustNewOnline(OnlineConfig{
		Core: Config{Dims: 2, Radius: 0.08, Gamma: 0.8, Seed: 5},
		Seed: 31,
	}, env)
	rng := rand.New(rand.NewSource(37))
	for i := 0; i < 500; i++ {
		x := []float64{rng.Float64(), rng.Float64()}
		if mustStep(t, o, x).PositiveInsertion {
			t.Fatal("positive insertion without the extension enabled")
		}
	}
	if o.SelfLabeled() != 0 {
		t.Errorf("SelfLabeled = %d", o.SelfLabeled())
	}
}

// fixedEnv answers every optimizer call with one plan and cost. A driver
// whose labels are never applied learns nothing from it, so every step it
// takes predicts NULL.
type fixedEnv struct{}

func (fixedEnv) Optimize([]float64) (int, float64, error)    { return 1, 10, nil }
func (fixedEnv) ExecuteCost([]float64, int) (float64, error) { return 10, nil }

// TestNullStepZeroAlloc: a NULL step is the model query and the optimizer
// call. Its label comes back in the Decision aliasing the step's point —
// no owned copy, no delivery — so the step allocates nothing.
func TestNullStepZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector's shadow memory inflates allocation counts")
	}
	o := MustNewOnline(OnlineConfig{Core: Config{Dims: 2, Seed: 5}}, nil)
	x := []float64{0.3, 0.4}
	var d Decision
	var err error
	step := func() { d, err = o.StepConcurrent(x, fixedEnv{}) }
	step()
	if err != nil {
		t.Fatal(err)
	}
	if d.Predicted || !d.Invoked || d.Label.Point == nil || &d.Label.Point[0] != &x[0] || d.Label.Plan != 1 || d.Label.SelfLabeled {
		t.Fatalf("NULL step decided %+v, want an invocation labeled at plan 1 whose point aliases x", d)
	}
	if allocs := testing.AllocsPerRun(500, step); allocs != 0 {
		t.Errorf("NULL StepConcurrent allocates %v per step, want 0", allocs)
	}
	if o.Validated() != 0 || o.NullPredictions() != o.Steps() {
		t.Errorf("StepConcurrent applied a label (validated %d) or predicted (%d NULLs of %d steps)", o.Validated(), o.NullPredictions(), o.Steps())
	}
}
