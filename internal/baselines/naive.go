package baselines

import (
	"fmt"
	"math"

	"repro/internal/core"
)

// planCell accumulates per-plan statistics within one grid bucket: the
// 32-bit count and 32-bit average cost of the paper's accounting.
type planCell struct {
	count   float64
	costSum float64
}

// grid is a fixed uniform grid over [0,1]^dims storing per-plan cells.
// Cells are stored sparsely but space is accounted densely (the paper's
// formulas assume preallocated arrays).
type grid struct {
	dims   int
	cells  int // per axis
	data   map[uint64]map[int]*planCell
	plans  map[int]bool
	total  int
	budget int // configured b_g, for space accounting
}

func newGrid(budget, dims int) *grid {
	return &grid{
		dims:   dims,
		cells:  gridCellsPerAxis(budget, dims),
		data:   make(map[uint64]map[int]*planCell),
		plans:  make(map[int]bool),
		budget: budget,
	}
}

// cellID flattens grid coordinates of a point in [0,1]^dims.
func (g *grid) cellID(x []float64) uint64 {
	var id uint64
	for _, v := range x {
		c := int(v * float64(g.cells))
		if c < 0 {
			c = 0
		}
		if c >= g.cells {
			c = g.cells - 1
		}
		id = id*uint64(g.cells) + uint64(c)
	}
	return id
}

func (g *grid) insert(x []float64, plan int, cost float64) {
	id := g.cellID(x)
	m := g.data[id]
	if m == nil {
		m = make(map[int]*planCell)
		g.data[id] = m
	}
	c := m[plan]
	if c == nil {
		c = &planCell{}
		m[plan] = c
	}
	c.count++
	c.costSum += cost
	g.plans[plan] = true
	g.total++
}

// boxDensities estimates per-plan sample counts within the axis-aligned box
// [x−w, x+w]^dims: every grid bucket intersecting the box contributes its
// full counts — "locating the grid bucket that contains x [and] the
// neighboring buckets if necessary" (Section IV-B). Counting whole buckets
// is exactly the source of NAÏVE's misalignment error the paper describes:
// when buckets are coarse relative to the query ball, densities from far
// parts of the bucket alias into the estimate.
func (g *grid) boxDensities(x []float64, w float64) (map[int]float64, map[int]float64) {
	lo := make([]int, g.dims)
	hi := make([]int, g.dims)
	for i, v := range x {
		lo[i] = clampCell(int(math.Floor((v-w)*float64(g.cells))), g.cells)
		hi[i] = clampCell(int(math.Floor((v+w)*float64(g.cells))), g.cells)
	}
	counts := make(map[int]float64)
	costs := make(map[int]float64)
	cell := make([]int, g.dims)
	copy(cell, lo)
	for {
		var id uint64
		for _, c := range cell {
			id = id*uint64(g.cells) + uint64(c)
		}
		if m := g.data[id]; m != nil {
			for plan, pc := range m {
				counts[plan] += pc.count
				costs[plan] += pc.costSum
			}
		}
		// Advance the odometer.
		i := g.dims - 1
		for ; i >= 0; i-- {
			cell[i]++
			if cell[i] <= hi[i] {
				break
			}
			cell[i] = lo[i]
		}
		if i < 0 {
			break
		}
	}
	return counts, costs
}

func clampCell(c, cells int) int {
	if c < 0 {
		return 0
	}
	if c >= cells {
		return cells - 1
	}
	return c
}

// gridCellsPerAxis returns the per-axis resolution of a grid of dims
// dimensions within a total bucket budget.
func gridCellsPerAxis(budget, dims int) int {
	c := int(math.Floor(math.Pow(float64(budget), 1/float64(dims))))
	if c < 1 {
		c = 1
	}
	return c
}

// clampPoint copies x with every coordinate clamped into [0,1].
func clampPoint(x []float64) []float64 {
	out := make([]float64, len(x))
	for i, v := range x {
		out[i] = math.Max(0, math.Min(1, v))
	}
	return out
}

func (g *grid) reset() {
	g.data = make(map[uint64]map[int]*planCell)
	g.plans = make(map[int]bool)
	g.total = 0
}

// Naive is the NAÏVE algorithm of Section IV-B: a single fixed-orientation
// grid over the plan space. O(1) prediction, n·b_g·8 bytes of space, but
// its density estimates suffer from bucket misalignment — the effect the
// LSH ensemble corrects.
type Naive struct {
	cfg  Config
	grid *grid
}

// NewNaive creates a NAÏVE predictor.
func NewNaive(cfg Config) (*Naive, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	return &Naive{cfg: cfg, grid: newGrid(cfg.GridBuckets, cfg.Dims)}, nil
}

// MustNewNaive is like NewNaive but panics on error.
func MustNewNaive(cfg Config) *Naive {
	p, err := NewNaive(cfg)
	if err != nil {
		panic(err)
	}
	return p
}

// Insert folds one labeled sample into the grid.
func (p *Naive) Insert(s core.Sample) {
	if len(s.Point) != p.cfg.Dims {
		panic(fmt.Sprintf("baselines: expected %d dims, got %d", p.cfg.Dims, len(s.Point)))
	}
	p.grid.insert(clampPoint(s.Point), s.Plan, s.Cost)
}

// Predict implements Predictor.
func (p *Naive) Predict(x []float64) core.Prediction {
	pred, _, _ := p.PredictWithCost(x)
	return pred
}

// PredictWithCost returns the prediction and, when OK, the predicted plan's
// average cost over the buckets the query box touches.
func (p *Naive) PredictWithCost(x []float64) (core.Prediction, float64, bool) {
	if p.grid.total < p.cfg.MinSamples || len(x) != p.cfg.Dims {
		return core.Prediction{}, 0, false
	}
	counts, costs := p.grid.boxDensities(clampPoint(x), p.cfg.Radius)
	pred := core.PredictFromDensities(counts, p.cfg.Gamma)
	if !pred.OK {
		return pred, 0, false
	}
	if counts[pred.Plan] <= 0 {
		return pred, 0, false
	}
	return pred, costs[pred.Plan] / counts[pred.Plan], true
}

// TotalPoints returns the number of inserted samples.
func (p *Naive) TotalPoints() int { return p.grid.total }

// MemoryBytes is the paper's space accounting: n·b_g·8.
func (p *Naive) MemoryBytes() int {
	n := len(p.grid.plans)
	if n == 0 {
		n = 1
	}
	return n * p.cfg.GridBuckets * 8
}

// Reset discards every inserted sample.
func (p *Naive) Reset() { p.grid.reset() }
