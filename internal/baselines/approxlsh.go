package baselines

import (
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/core"
	"repro/internal/lsh"
)

// ApproxLSH is the APPROXIMATE-LSH algorithm of Section IV-B: t randomized
// locality-preserving transformations map the plan space into t
// intermediate spaces, each partitioned by a fixed grid; a prediction
// estimates per-plan densities independently in every intermediate space
// and takes the median estimate per plan. Bucket misalignment errors are
// uncorrelated across the randomized grids, so the median is far more
// robust than any single grid — at t times the space (t·n·b_g·8 bytes).
type ApproxLSH struct {
	cfg      Config
	ensemble *lsh.Ensemble
	grids    []*grid
	total    int
	plans    map[int]bool
}

// NewApproxLSH creates an APPROXIMATE-LSH predictor.
func NewApproxLSH(cfg Config) (*ApproxLSH, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	cells := gridCellsPerAxis(cfg.GridBuckets, cfg.OutDims)
	ens, err := lsh.NewEnsemble(cfg.Transforms, cfg.Dims, cfg.OutDims, cells, rng)
	if err != nil {
		return nil, err
	}
	p := &ApproxLSH{cfg: cfg, ensemble: ens, plans: make(map[int]bool)}
	p.grids = make([]*grid, cfg.Transforms)
	for i := range p.grids {
		p.grids[i] = newGrid(cfg.GridBuckets, cfg.OutDims)
	}
	return p, nil
}

// MustNewApproxLSH is like NewApproxLSH but panics on error.
func MustNewApproxLSH(cfg Config) *ApproxLSH {
	p, err := NewApproxLSH(cfg)
	if err != nil {
		panic(err)
	}
	return p
}

// Insert folds one labeled sample into every grid.
func (p *ApproxLSH) Insert(s core.Sample) {
	if len(s.Point) != p.cfg.Dims {
		panic(fmt.Sprintf("baselines: expected %d dims, got %d", p.cfg.Dims, len(s.Point)))
	}
	x := clampPoint(s.Point)
	for i, g := range p.grids {
		g.insert(applyTransform(p.ensemble.Transform(i), x), s.Plan, s.Cost)
	}
	p.plans[s.Plan] = true
	p.total++
}

// Predict implements Predictor.
func (p *ApproxLSH) Predict(x []float64) core.Prediction {
	pred, _, _ := p.PredictWithCost(x)
	return pred
}

// PredictWithCost returns the prediction and, when OK, the predicted plan's
// average cost: the per-plan density (and cost) is the median of the t
// per-grid estimates.
func (p *ApproxLSH) PredictWithCost(x []float64) (core.Prediction, float64, bool) {
	if p.total < p.cfg.MinSamples || len(x) != p.cfg.Dims {
		return core.Prediction{}, 0, false
	}
	x = clampPoint(x)
	t := len(p.grids)
	countEst := make(map[int][]float64)
	costEst := make(map[int][]float64)
	for i, g := range p.grids {
		tr := p.ensemble.Transform(i)
		y := applyTransform(tr, x)
		w := p.cfg.Radius * tr.AxisScale()
		counts, costs := g.boxDensities(y, w)
		for plan, c := range counts {
			countEst[plan] = append(countEst[plan], c)
			avg := 0.0
			if c > 0 {
				avg = costs[plan] / c
			}
			costEst[plan] = append(costEst[plan], avg)
		}
	}
	med := make(map[int]float64, len(countEst))
	for plan, ests := range countEst {
		// Transforms that saw no density contribute zeros.
		for len(ests) < t {
			ests = append(ests, 0)
		}
		med[plan] = median(ests)
	}
	pred := core.PredictFromDensities(med, p.cfg.Gamma)
	if !pred.OK {
		return pred, 0, false
	}
	costs := costEst[pred.Plan]
	if len(costs) == 0 {
		return pred, 0, false
	}
	return pred, median(costs), true
}

// MemoryBytes is the paper's space accounting: t·n·b_g·8.
func (p *ApproxLSH) MemoryBytes() int {
	n := len(p.plans)
	if n == 0 {
		n = 1
	}
	return p.cfg.Transforms * n * p.cfg.GridBuckets * 8
}

// median returns the median of vs (vs is modified by sorting).
func median(vs []float64) float64 {
	n := len(vs)
	if n == 0 {
		return 0
	}
	sort.Float64s(vs)
	if n%2 == 1 {
		return vs[n/2]
	}
	return (vs[n/2-1] + vs[n/2]) / 2
}

// applyTransform applies tr to a point whose dimensionality the caller has
// already validated; an error here is a programming bug, reported as a
// panic exactly like the pre-validation Insert contract.
func applyTransform(tr *lsh.Transform, x []float64) []float64 {
	y, err := tr.Apply(x)
	if err != nil {
		panic(err)
	}
	return y
}
