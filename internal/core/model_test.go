package core

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/histogram"
)

// trainedPredictor builds a live predictor over the quadrant plan space.
func trainedPredictor(t *testing.T, n int) *ApproxLSHHist {
	t.Helper()
	p := MustNewApproxLSHHist(Config{Dims: 2, Radius: 0.05, Gamma: 0.7, Seed: 5})
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < n; i++ {
		x := []float64{rng.Float64(), rng.Float64()}
		p.Insert(Sample{Point: x, Plan: quadrantPlan(x), Cost: quadrantCost(x)})
	}
	return p
}

// genState is one generated synopsis state for the differential tests:
// every knob the block layout could be sensitive to, drawn from one seed.
type genState struct {
	dims    int
	planIDs []int // sparse, non-contiguous, possibly negative
	inserts int   // before the optional reset
	reset   bool  // Reset, then a few fresh inserts (possibly under MinSamples)
	skew    float64
	// transforms and noise, when set, override the drawn transform count
	// and force noise elimination on.
	transforms int
	noise      bool
}

// missState is the shape a miss-heavy template's learner takes: many plans
// labelled at uniform points, noise elimination on, t transforms — where
// most plans are noise at any one point and the vote rules them out.
func missState(rng *rand.Rand, t int) genState {
	g := genState{dims: 3 + rng.Intn(4), inserts: 6000, skew: 1, transforms: t, noise: true}
	for n := 60 + rng.Intn(30); len(g.planIDs) < n; {
		g.planIDs = append(g.planIDs, 7*len(g.planIDs)-40)
	}
	return g
}

func genStateFrom(rng *rand.Rand) genState {
	g := genState{
		dims:    2 + rng.Intn(5),
		inserts: []int{0, 5, 19, 20, 60, 400, 1500, 6000}[rng.Intn(8)],
		reset:   rng.Intn(4) == 0,
		skew:    1 + 3*rng.Float64(),
	}
	seen := map[int]bool{}
	n := 1 + rng.Intn(60)
	if rng.Intn(2) == 0 {
		n = 1 + rng.Intn(6) // few plans: confident predictions, so costs get compared
	}
	for len(g.planIDs) < n {
		id := rng.Intn(2000) - 200
		if rng.Intn(8) == 0 {
			id *= 1 << 20
		}
		if !seen[id] {
			seen[id] = true
			g.planIDs = append(g.planIDs, id)
		}
	}
	return g
}

// build trains a predictor into the generated state. Plans own regions of
// the first coordinate so that some queries have a clear winner, some sit
// on a boundary and some see noise only.
func (g genState) build(tb testing.TB, rng *rand.Rand) *ApproxLSHHist {
	tb.Helper()
	radius, gamma := 0.05+0.1*rng.Float64(), 0.3+0.5*rng.Float64()
	noise := rng.Intn(2) == 0
	cfg := Config{Dims: g.dims, Radius: radius, Gamma: gamma, Seed: rng.Int63n(1 << 30)}
	if rng.Intn(3) == 0 {
		cfg.Transforms = 1 + rng.Intn(8) // even counts average the two middle densities
	}
	if g.transforms > 0 {
		cfg.Transforms = g.transforms
	}
	if !noise && !g.noise {
		// Noise elimination off: a negative fraction, of a magnitude the
		// seed picks, so a floor under zero of any size is exercised.
		cfg.NoiseFraction = -[]float64{0.05, 1, 1e-9}[cfg.Seed%3]
	}
	p := MustNewApproxLSHHist(cfg)
	insert := func(n int) {
		for i := 0; i < n; i++ {
			x := make([]float64, g.dims)
			for d := range x {
				x[d] = math.Pow(rng.Float64(), g.skew)
			}
			plan := g.planIDs[int(x[0]*float64(len(g.planIDs)))%len(g.planIDs)]
			if rng.Intn(10) == 0 {
				plan = g.planIDs[rng.Intn(len(g.planIDs))]
			}
			p.Insert(Sample{Point: x, Plan: plan, Cost: 10 + 1000*x[0] + rng.NormFloat64()})
			if rng.Intn(50) == 0 {
				p.Freeze() // publish mid-stream, so later freezes patch a previous index
			}
		}
	}
	insert(g.inserts)
	if g.reset {
		p.Reset()
		insert([]int{0, 7, 30, 200}[rng.Intn(4)])
	}
	return p
}

// checkAgainstReference holds the frozen Model, and the live predictor that
// answers through it, to the map-walking reference at the given points:
// prediction, confidence, cost estimate and ok flag, bit for bit. It returns
// how the votes went (voteShape, summed over the points).
func checkAgainstReference(tb testing.TB, p *ApproxLSHHist, points [][]float64) (bounded, early int) {
	tb.Helper()
	m := p.Freeze()
	sc := NewPredictScratch(p.Config())
	for _, x := range points {
		wp, wc, wok := refPredict(p, x)
		gp, gc, gok := m.PredictWithCost(x, sc)
		if gok != wok || gp != wp || math.Float64bits(gc) != math.Float64bits(wc) {
			tb.Fatalf("point %v: model (%+v, %v, %v) != reference (%+v, %v, %v)", x, gp, gc, gok, wp, wc, wok)
		}
		if m.total >= m.cfg.MinSamples && len(x) == m.cfg.Dims {
			b, e := voteShape(m, sc)
			bounded, early = bounded+b, early+e
		}
		lp, lc, lok := p.PredictWithCost(x)
		if lok != wok || lp != wp || math.Float64bits(lc) != math.Float64bits(wc) {
			tb.Fatalf("point %v: live (%+v, %v, %v) != reference (%+v, %v, %v)", x, lp, lc, lok, wp, wc, wok)
		}
	}
	if m.TotalPoints() != p.TotalPoints() || m.MemoryBytes() != p.MemoryBytes() || m.Plans() != len(p.plans) {
		tb.Errorf("model accounting (%d pts, %d B, %d plans) != live (%d pts, %d B, %d plans)",
			m.TotalPoints(), m.MemoryBytes(), m.Plans(), p.TotalPoints(), p.MemoryBytes(), len(p.plans))
	}
	return bounded, early
}

// voteShape reads how the vote of the query sc last answered on m went, from
// the ranges and masses it left in sc: how many plans more than half their
// blocks' peak bounds ruled out unsearched, and how many of the rest had
// their search stopped before the last transform.
func voteShape(m *Model, sc *PredictScratch) (bounded, early int) {
	t := len(m.marginals)
	floor := m.cfg.NoiseFraction * median(append([]float64(nil), sc.localMass...))
	for j := range m.planIDs {
		blocks, under := m.blocks[j*t:j*t+t], 0
		for i, b := range blocks {
			if b.peak*(sc.end[i]-sc.lo[i])*histogram.PeakSlack < floor {
				under++
			}
		}
		if under > t/2 {
			bounded++
			continue
		}
		light := 0
		for i, b := range blocks {
			count := 0.0
			if b.f != nil {
				count = b.f.RangeCount(sc.lo[i], sc.end[i])
			}
			if count < floor {
				if light++; light > t/2 && i < t-1 {
					early++
					break
				}
			}
		}
	}
	return bounded, early
}

// queryPoints draws test points: uniform, on the training skew, at the
// corners, outside the unit cube (clamped by the query) and of the wrong
// dimensionality (answered NULL).
func queryPoints(rng *rand.Rand, g genState, n int) [][]float64 {
	var out [][]float64
	for i := 0; i < n; i++ {
		x := make([]float64, g.dims)
		for d := range x {
			switch i % 4 {
			case 0:
				x[d] = rng.Float64()
			case 1:
				x[d] = math.Pow(rng.Float64(), g.skew)
			case 2:
				x[d] = float64(rng.Intn(2))
			default:
				x[d] = rng.Float64()*1.4 - 0.2
			}
		}
		out = append(out, x)
	}
	return append(out, make([]float64, g.dims+1))
}

// The block layout is not allowed to change a single prediction: over
// generated states — dims 2–6, 1–60 sparse plan ids, before MinSamples,
// after Reset, with mid-stream publishes so freezes patch earlier indexes — and over miss-shaped ones —
// 60–90 plans at uniform points under noise elimination, odd and even t —
// and at both signs of the noise fraction, Model.PredictWithCost equals the
// map-walking reference bit for bit. The
// vote's two shortcuts must both be taken: plans ruled out by their peak
// bounds before any search, and searches stopped early.
func TestModelPredictMatchesReference(t *testing.T) {
	states := 120
	if testing.Short() {
		states = 30
	}
	covered := map[string]int{}
	for seed := int64(0); seed < int64(states); seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := genStateFrom(rng)
		if seed%10 == 9 {
			g = missState(rng, 4+int(seed/10)%2)
		}
		p := g.build(t, rng)
		bounded, early := checkAgainstReference(t, p, queryPoints(rng, g, 60))
		covered["ruled out by bound"] += bounded
		covered["early exit"] += early
		if g.transforms > 0 {
			covered[fmt.Sprintf("miss-shaped, t=%d", g.transforms)]++
		}
		if p.TotalPoints() < p.Config().MinSamples {
			covered["under MinSamples"]++
		}
		if g.reset {
			covered["after Reset"]++
		}
		if len(p.plans) >= 40 {
			covered["40+ plans"]++
		}
		if p.Config().NoiseFraction > 0 {
			covered["noise elimination on"]++
		} else {
			covered["noise elimination off"]++
		}
	}
	for _, want := range []string{"under MinSamples", "after Reset", "40+ plans",
		"ruled out by bound", "early exit", "miss-shaped, t=4", "miss-shaped, t=5",
		"noise elimination on", "noise elimination off"} {
		if covered[want] == 0 {
			t.Errorf("no generated state was %s", want)
		}
	}
}

// FuzzModelPredictMatchesReference lets the fuzzer pick the state seed and
// the query point.
func FuzzModelPredictMatchesReference(f *testing.F) {
	f.Add(int64(1), 0.3, 0.4, 0.5)
	f.Add(int64(7), 0.0, 1.0, 0.999)
	f.Add(int64(42), -3.0, 0.5, 7.5)
	f.Fuzz(func(t *testing.T, seed int64, a, b, c float64) {
		rng := rand.New(rand.NewSource(seed))
		g := genStateFrom(rng)
		if g.inserts > 400 {
			g.inserts = 400 // keep one execution cheap
		}
		p := g.build(t, rng)
		x := make([]float64, g.dims)
		for d := range x {
			x[d] = []float64{a, b, c}[d%3] * float64(1+d/3)
		}
		checkAgainstReference(t, p, [][]float64{x})
	})
}

// Freeze is copy-on-write: an unchanged predictor returns the identical
// *Model, and after a mutation only the blocks the insert actually touched
// are re-frozen — every other (transform, plan) block pointer, and the plan
// index itself, is shared with the previous snapshot.
func TestFreezeCopyOnWrite(t *testing.T) {
	p := trainedPredictor(t, 800)
	m1 := p.Freeze()
	if m2 := p.Freeze(); m2 != m1 {
		t.Fatal("Freeze without mutation rebuilt the model")
	}

	// Mutate exactly one plan's histograms (plan 0 in every transform, plus
	// the marginals, which every insert touches).
	p.Insert(Sample{Point: []float64{0.1, 0.1}, Plan: 0, Cost: 1})
	m3 := p.Freeze()
	if m3 == m1 {
		t.Fatal("Freeze after mutation returned the stale model")
	}
	if m3.Version() <= m1.Version() {
		t.Errorf("version did not advance: %d -> %d", m1.Version(), m3.Version())
	}
	if &m3.planIDs[0] != &m1.planIDs[0] {
		t.Error("plan index was copied although no plan appeared")
	}
	tr := len(m3.marginals)
	for i := 0; i < tr; i++ {
		for j, plan := range m3.planIDs {
			b, old := m3.blocks[j*tr+i], m1.blocks[j*tr+i]
			if plan == 0 && b == old {
				t.Errorf("transform %d: touched plan 0 block was not re-frozen", i)
			}
			if plan != 0 && b != old {
				t.Errorf("transform %d plan %d: untouched block was copied, not shared", i, plan)
			}
		}
		if m3.marginals[i] == m1.marginals[i] {
			t.Errorf("transform %d: marginal absorbed the insert but was not re-frozen", i)
		}
	}

	// A new plan rebuilds the index; the untouched blocks are still shared.
	p.Insert(Sample{Point: []float64{0.9, 0.1}, Plan: 77, Cost: 1})
	m4 := p.Freeze()
	if m4.Plans() != m3.Plans()+1 || m4.planIDs[m4.Plans()-1] != 77 {
		t.Fatalf("new plan not indexed: %v", m4.planIDs)
	}
	for i := 0; i < tr; i++ {
		for j, plan := range m3.planIDs {
			if m4.blocks[j*tr+i] != m3.blocks[j*tr+i] {
				t.Errorf("transform %d plan %d: block copied when plan 77 appeared", i, plan)
			}
		}
	}
	// The earlier snapshots are untouched by all of this.
	if m1.Plans() != 4 || len(m1.blocks) != 4*tr || m3.Plans() != 4 {
		t.Errorf("published snapshots changed: %d/%d plans", m1.Plans(), m3.Plans())
	}
}

// The publish cost guard: after one Insert, Freeze allocates the Model, its
// per-transform marginal slice, the block index (one entry per plan and
// transform, in one array) and 2t blocks (the plan's and the marginal's in
// each transform, two allocations each) — nothing per untouched plan but its
// t index entries.
func TestFreezePublishCost(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated under the race detector")
	}
	publish := func(plans int) (allocs float64, bytes uint64) {
		p := MustNewApproxLSHHist(Config{Dims: 3, Transforms: 5, Seed: 3})
		rng := rand.New(rand.NewSource(1))
		for i := 0; i < 40*plans; i++ {
			x := []float64{rng.Float64(), rng.Float64(), rng.Float64()}
			p.Insert(Sample{Point: x, Plan: 3 * (i % plans), Cost: float64(i % 9)})
		}
		p.Freeze()
		i := 0
		step := func() {
			p.Insert(Sample{Point: []float64{0.5, 0.5, 0.5}, Plan: 3 * (i % plans), Cost: 1})
			i++
			if m := p.Freeze(); m.Plans() != plans {
				t.Fatalf("model has %d plans, want %d", m.Plans(), plans)
			}
		}
		const runs = 200
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		allocs = testing.AllocsPerRun(runs, step)
		runtime.ReadMemStats(&after)
		return allocs, (after.TotalAlloc - before.TotalAlloc) / (runs + 1)
	}
	const tr = 5
	small, smallBytes := publish(10)
	large, largeBytes := publish(50)
	// The index used to be t slices (28 allocations at t = 5); it is one.
	if budget := float64(3 + 2*2*tr); large > budget || small > budget {
		t.Errorf("Freeze after one insert: %v allocs at 10 plans, %v at 50, budget %v", small, large, budget)
	}
	// 40 more plans may cost their 40 index entries per transform, not
	// their histograms: a pointer (with 2× for the allocator's size
	// classes) plus the one word of its peak density beside it.
	if extra := int64(largeBytes) - int64(smallBytes); extra > 2*tr*40*8+tr*40*8 {
		t.Errorf("Freeze bytes grew by %d for 40 untouched plans (10 plans: %d B, 50 plans: %d B)", extra, smallBytes, largeBytes)
	}
}

// A drift reset between a feedback point's creation and its application
// invalidates the point: the histograms it was measured against are gone.
// Apply must drop it (counted, not silent) instead of polluting the fresh
// epoch.
func TestApplyStaleEpochDrop(t *testing.T) {
	o, err := NewOnline(OnlineConfig{Core: Config{Dims: 2, Seed: 1}, Seed: 2}, &quadrantEnv{})
	if err != nil {
		t.Fatal(err)
	}
	fb, err := o.ValidatedFeedback([]float64{0.3, 0.4}, 1, 10)
	if err != nil {
		t.Fatal(err)
	}
	stale := fb
	stale.Epoch++
	if o.Apply(stale) {
		t.Error("Apply accepted feedback from a different epoch")
	}
	if got := o.StaleFeedbackDrops(); got != 1 {
		t.Errorf("StaleFeedbackDrops = %d, want 1", got)
	}
	if got := o.Validated(); got != 0 {
		t.Errorf("Validated = %d after stale drop, want 0", got)
	}

	// The same point at the current epoch applies and republishes.
	v0 := o.Model().Version()
	if !o.Apply(fb) {
		t.Fatal("Apply rejected current-epoch feedback")
	}
	if got := o.Validated(); got != 1 {
		t.Errorf("Validated = %d, want 1", got)
	}
	if o.Model().Version() <= v0 {
		t.Error("Apply did not publish a new model snapshot")
	}
	if o.Publishes() == 0 {
		t.Error("publish counter did not advance")
	}
}
