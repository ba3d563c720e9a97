package core

import (
	"fmt"
	"math"
	"math/rand"
	"slices"

	"repro/internal/geom"
	"repro/internal/histogram"
	"repro/internal/lsh"
	"repro/internal/zorder"
)

// ApproxLSHHist is the APPROXIMATE-LSH-HISTOGRAMS algorithm of Section
// IV-C: each intermediate LSH space is linearized with a z-order
// space-filling curve, and the distribution of plan space points along the
// curve is summarized in database histograms — one histogram per
// (transformation, plan) pair, each holding at most b_h buckets of a point
// count and an average execution cost.
//
// A density (or cost) query for plan P in space I_j is a histogram range
// query on [T_j(x)−δ, T_j(x)+δ], where 2δ equals the volume of the query
// hypersphere of radius d (translated into the intermediate space). Two
// sanity checks guard the z-order's lossiness: noise elimination discards
// plan densities below a fixed fraction of the total point count, and the
// confidence check of Section IV-A suppresses predictions near apparent
// boundaries (including spurious ones created by buckets that span
// non-contiguous curve intervals).
type ApproxLSHHist struct {
	cfg      Config
	ensemble *lsh.Ensemble
	curves   []*zorder.Curve
	hists    []map[int]*histogram.Dynamic // per transform: plan -> histogram
	// marginals summarize the total point distribution along each curve;
	// they anchor the rank-measure component of the query range so that 2δ
	// covers at least the ball-volume fraction of the observed points
	// regardless of how the randomized projection distorts the value
	// distribution.
	marginals []*histogram.Dynamic
	// valueDeltas is the geometric half-range per transform: the z-measure
	// of the image of the query ball.
	valueDeltas []float64
	// ballFrac is the plan-space volume fraction of the query ball — the
	// paper's "2δ equal to the volume of a hypersphere with radius d".
	ballFrac float64
	total    int
	plans    map[int]bool
	// scr holds the reusable buffers of the allocation-free serving path.
	// The live predictor is not safe for concurrent use — its owner
	// (core.Online's learner lock) serializes Insert/Predict — so a single
	// scratch per predictor suffices. Lock-free readers instead call
	// Model.PredictWithCost with pooled scratches.
	scr *PredictScratch

	// gen counts mutations (Insert/Reset); frozen caches the Model
	// published at frozenGen so Freeze after a quiet period is a pointer
	// return, and otherwise copies only the histograms touched since the
	// previous publication (each Dynamic caches its own frozen block).
	gen       uint64
	frozen    *Model
	frozenGen uint64
	// dirty lists the plans inserted into since frozen was published (with
	// repeats): the blocks the next Freeze must replace in its copy of
	// frozen's index. Reset replaces every histogram and drops frozen with
	// it.
	dirty []int
}

// PredictScratch is the working memory of one in-flight predict call,
// reused across calls so the steady-state serving path performs no heap
// allocation. The live predictor owns one; lock-free snapshot readers draw
// them from a sync.Pool. The per-plan buffers are dense — indexed like
// Model.planIDs and written before they are read by every call, so nothing
// is cleared — and only grow while new plans appear.
type PredictScratch struct {
	x         []float64 // clamped input point
	proj      []float64 // one transform's projection output
	cell      []uint32  // z-order cell coordinates
	lo, end   []float64 // per-transform query range [lo, end)
	localMass []float64 // per-transform marginal mass in the query range
	tmp       []float64 // median working buffer (length t)
	med       []float64 // [plan] median density
	counts    []float64 // [plan×t] in-range count (0 = none)
	costs     []float64 // [plan×t] in-range cost sum
}

// NewPredictScratch allocates scratch buffers sized for cfg. cfg must be an
// effective (defaulted) configuration, e.g. from Model.Config.
func NewPredictScratch(cfg Config) *PredictScratch {
	s := new(PredictScratch)
	s.fit(&cfg, 0)
	return s
}

// fit sizes every buffer for a model of configuration cfg holding n plans.
// A pooled scratch outlives the model it was made for — a restore installs
// whatever transform count and output dimensionality the saved learner had
// — so each call checks the buffers against the model it asks about. The
// buffers of one kind are sized together, so one length stands for each.
func (s *PredictScratch) fit(cfg *Config, n int) (med, counts, costs []float64) {
	if t := cfg.Transforms; len(s.x) != cfg.Dims || len(s.proj) != cfg.OutDims || len(s.lo) != t || len(s.med) != n {
		s.x = resize(s.x, cfg.Dims)
		s.proj, s.cell = resize(s.proj, cfg.OutDims), resize(s.cell, cfg.OutDims)
		s.lo, s.end = resize(s.lo, t), resize(s.end, t)
		s.localMass, s.tmp = resize(s.localMass, t), resize(s.tmp, t)
		s.med, s.counts, s.costs = resize(s.med, n), resize(s.counts, n*t), resize(s.costs, n*t)
	}
	return s.med, s.counts, s.costs
}

// resize returns b at length n, reallocated only when it lacks the capacity.
func resize[T float64 | uint32](b []T, n int) []T {
	if cap(b) < n {
		return make([]T, n)
	}
	return b[:n]
}

// scratch lazily creates the predictor's scratch buffers (decoded
// predictors arrive without them).
func (p *ApproxLSHHist) scratch() *PredictScratch {
	if p.scr == nil {
		p.scr = NewPredictScratch(p.cfg)
	}
	return p.scr
}

// NewApproxLSHHist creates an APPROXIMATE-LSH-HISTOGRAMS predictor.
func NewApproxLSHHist(cfg Config) (*ApproxLSHHist, error) {
	cfg, err := cfg.WithDefaults()
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	bits := zBitsFor(cfg.OutDims)
	curve, err := zorder.New(cfg.OutDims, bits)
	if err != nil {
		return nil, err
	}
	ens, err := lsh.NewEnsemble(cfg.Transforms, cfg.Dims, cfg.OutDims, int(curve.CellsPerAxis()), rng)
	if err != nil {
		return nil, err
	}
	p := &ApproxLSHHist{
		cfg:         cfg,
		ensemble:    ens,
		curves:      make([]*zorder.Curve, cfg.Transforms),
		hists:       make([]map[int]*histogram.Dynamic, cfg.Transforms),
		marginals:   make([]*histogram.Dynamic, cfg.Transforms),
		valueDeltas: make([]float64, cfg.Transforms),
		ballFrac:    math.Min(geom.BallVolume(cfg.Dims, cfg.Radius), 0.5),
		plans:       make(map[int]bool),
	}
	for i := range p.curves {
		p.curves[i] = curve
		p.hists[i] = make(map[int]*histogram.Dynamic)
		p.marginals[i] = histogram.MustNewDynamic(cfg.HistBuckets, 0, 1)
		tr := ens.Transform(i)
		delta := geom.BallVolume(cfg.OutDims, cfg.Radius*tr.AxisScale()) / 2
		delta = math.Max(delta, curve.CellWidth())
		p.valueDeltas[i] = math.Min(delta, 0.5)
	}
	return p, nil
}

// MustNewApproxLSHHist is like NewApproxLSHHist but panics on error.
func MustNewApproxLSHHist(cfg Config) *ApproxLSHHist {
	p, err := NewApproxLSHHist(cfg)
	if err != nil {
		panic(err)
	}
	return p
}

// zBitsFor picks the z-order per-axis bit depth for an s-dimensional grid:
// fine enough that histogram buckets, not grid cells, limit resolution.
func zBitsFor(s int) int {
	bits := 30 / s
	if bits > 10 {
		bits = 10
	}
	if bits < 3 {
		bits = 3
	}
	return bits
}

// Insert folds one labeled sample into the synopsis; its Point is not
// retained, so callers may reuse the backing array. The point is pushed
// through every transformation and its z-order coordinate is inserted into
// the histogram of its plan in every intermediate space.
func (p *ApproxLSHHist) Insert(s Sample) {
	if len(s.Point) != p.cfg.Dims {
		panic(fmt.Sprintf("core: expected %d dims, got %d", p.cfg.Dims, len(s.Point)))
	}
	sc := p.scratch()
	clampPointInto(sc.x, s.Point)
	for i := range p.hists {
		if err := p.ensemble.Transform(i).ApplyInto(sc.proj, sc.x); err != nil {
			panic(err) // dims validated above
		}
		z := p.curves[i].ValueWith(sc.cell, sc.proj)
		h := p.hists[i][s.Plan]
		if h == nil {
			h = histogram.MustNewDynamic(p.cfg.HistBuckets, 0, 1)
			p.hists[i][s.Plan] = h
		}
		h.Insert(z, s.Cost)
		p.marginals[i].Insert(z, 0)
	}
	p.plans[s.Plan] = true
	p.total++
	if p.frozen != nil {
		if len(p.dirty) < len(p.frozen.planIDs) {
			p.dirty = append(p.dirty, s.Plan)
		} else {
			// More inserts than the index has entries: rebuilding it costs
			// no more than patching it, and dirty stays bounded however
			// long the owner goes without freezing.
			p.dropFrozen()
		}
	}
	p.gen++
}

// dropFrozen forgets the published Model, so the next Freeze rebuilds the
// block index from the live histograms instead of patching the previous one.
func (p *ApproxLSHHist) dropFrozen() {
	p.frozen, p.dirty = nil, p.dirty[:0]
}

// Predict returns the plan prediction at x (possibly NULL).
func (p *ApproxLSHHist) Predict(x []float64) Prediction {
	pred, _, _ := p.PredictWithCost(x)
	return pred
}

// PredictWithCost returns the prediction and, when OK, the estimated
// average execution cost of that plan near x (the negative-feedback
// detector's estimate, Section IV-E), by asking the frozen image of the
// current state — Model.PredictWithCost is the one implementation of
// the query. Freeze is a pointer return until the next mutation, so a run
// of predictions allocates nothing; a prediction right after an Insert pays
// that insert's publish (the touched blocks), as the serving path does.
func (p *ApproxLSHHist) PredictWithCost(x []float64) (Prediction, float64, bool) {
	return p.Freeze().PredictWithCost(x, p.scratch())
}

// Freeze publishes an immutable Model of the current state. Consecutive
// calls without an intervening mutation return the SAME *Model. Otherwise
// it is copy-on-write at histogram granularity: the new Model takes a copy
// of the previous one's block index (one pointer and its peak density per
// plan and transform) and re-freezes only the blocks of the plans inserted
// into since — found through p.dirty, not by walking the synopsis — and the
// marginals; every other block is shared. The index is rebuilt from the
// live maps only when there is no previous Model to patch (first freeze,
// Reset, more inserts than plans since) or a plan appeared.
func (p *ApproxLSHHist) Freeze() *Model {
	if p.frozen != nil && p.frozenGen == p.gen {
		return p.frozen
	}
	t := len(p.hists)
	m := &Model{
		cfg:         p.cfg,
		ensemble:    p.ensemble,
		curves:      p.curves,
		marginals:   make([]*histogram.Frozen, t),
		valueDeltas: p.valueDeltas,
		ballFrac:    p.ballFrac,
		total:       p.total,
		version:     p.gen,
	}
	prev, refreeze := p.frozen, p.dirty
	if prev != nil && len(prev.planIDs) == len(p.plans) {
		m.planIDs = prev.planIDs
	} else {
		prev = nil
		m.planIDs = make([]int, 0, len(p.plans))
		for plan := range p.plans {
			m.planIDs = append(m.planIDs, plan)
		}
		slices.Sort(m.planIDs)
		refreeze = m.planIDs
	}
	m.blocks = make([]block, len(m.planIDs)*t)
	if prev != nil {
		copy(m.blocks, prev.blocks)
	}
	for i := range m.marginals {
		m.marginals[i] = p.marginals[i].Freeze()
	}
	for _, plan := range refreeze {
		j, _ := slices.BinarySearch(m.planIDs, plan)
		for i, hists := range p.hists {
			// A decoded synopsis may hold a plan in some transforms only.
			if h := hists[plan]; h != nil {
				f := h.Freeze()
				m.blocks[j*t+i] = block{f: f, peak: f.Peak()}
			}
		}
	}
	p.frozen, p.frozenGen, p.dirty = m, p.gen, p.dirty[:0]
	return m
}

// TotalPoints returns the number of inserted samples.
func (p *ApproxLSHHist) TotalPoints() int { return p.total }

// MemoryBytes is the storage footprint under the paper's accounting
// (Table I), t·n·b_h·12, plus one marginal histogram per transformation.
func (p *ApproxLSHHist) MemoryBytes() int {
	n := len(p.plans)
	if n == 0 {
		n = 1
	}
	return p.cfg.Transforms * (n + 1) * p.cfg.HistBuckets * histogram.BytesPerBucket
}

// Reset is drift recovery: all histograms are dropped, matching the
// Section IV-E recovery action ("we drop all histograms created for that
// query template and start accumulating sample points from scratch").
func (p *ApproxLSHHist) Reset() {
	for i := range p.hists {
		p.hists[i] = make(map[int]*histogram.Dynamic)
		p.marginals[i].Reset()
	}
	p.plans = make(map[int]bool)
	p.total = 0
	p.dropFrozen()
	p.gen++
}

// Config returns the effective (defaulted) configuration.
func (p *ApproxLSHHist) Config() Config { return p.cfg }
