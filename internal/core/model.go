package core

import (
	"math"
	"slices"

	"repro/internal/histogram"
	"repro/internal/lsh"
	"repro/internal/zorder"
)

// Model is an immutable snapshot of one template's learned plan space
// model: the LSH ensemble and z-order curves (shared with the live
// predictor — they are fixed at construction), plus a dense, plan-ordered
// index of frozen histogram blocks. A Model is published through an atomic
// pointer and read lock-free by any number of concurrent predictors; it is
// never mutated after Freeze builds it.
//
// The freeze is copy-on-write at histogram granularity: Freeze shares the
// frozen block of every (transform, plan) pair untouched since the previous
// publication, so publish cost is the buckets a feedback batch actually
// wrote plus one index entry (a pointer and its peak density) per plan and
// transform, not the size of the model.
type Model struct {
	cfg      Config
	ensemble *lsh.Ensemble
	curves   []*zorder.Curve
	// planIDs lists the snapshot's plans in ascending order; blocks[j*t+i]
	// holds the frozen histogram of plan planIDs[j] in transform i, so a
	// plan's t blocks are contiguous in the order the vote reads them.
	// Ascending order is the vote's accumulation and tie-breaking order, so
	// predictions need no sort.
	planIDs     []int
	blocks      []block
	marginals   []*histogram.Frozen // one per transform
	valueDeltas []float64
	ballFrac    float64
	total       int
	// version is the predictor's mutation generation at freeze time; it
	// increases with every publication of changed state.
	version uint64
}

// block is one (transform, plan) histogram with its peak density kept
// beside the pointer, so the vote can rule a block out without loading it.
type block struct {
	f    *histogram.Frozen // nil when the transform never saw the plan
	peak float64           // f.Peak(); 0 for nil
}

// TotalPoints returns the number of points the snapshot summarizes.
func (m *Model) TotalPoints() int { return m.total }

// Plans returns the number of distinct plans in the snapshot.
func (m *Model) Plans() int { return len(m.planIDs) }

// Version is the learner's mutation generation at freeze time.
func (m *Model) Version() uint64 { return m.version }

// Config returns the effective predictor configuration.
func (m *Model) Config() Config { return m.cfg }

// MemoryBytes reports the snapshot's footprint with the paper's accounting
// (t·n·b_h·12 plus one marginal per transformation).
func (m *Model) MemoryBytes() int {
	n := len(m.planIDs)
	if n == 0 {
		n = 1
	}
	return m.cfg.Transforms * (n + 1) * m.cfg.HistBuckets * histogram.BytesPerBucket
}

// PredictWithCost is the APPROXIMATE-LSH-HISTOGRAMS density/cost query of
// Section IV-C: a plan prediction and histogram cost estimate from the
// snapshot. It is lock-free and safe for any number of concurrent callers,
// provided each call uses its own PredictScratch (readers draw one from a
// pool), and the steady-state call performs no heap allocation: every
// temporary lives in sc. It is the only implementation of the query — the
// live predictor answers through its cached Freeze.
//
// The order of every float operation here is contract: it is the order of
// the map-walking reference the tests keep, so that a leader, a recovered
// leader and a replica that hold the same synopsis give the same answer to
// the last bit.
func (m *Model) PredictWithCost(x []float64, sc *PredictScratch) (Prediction, float64, bool) {
	if m.total < m.cfg.MinSamples || len(x) != m.cfg.Dims {
		// A malformed point answers NULL — the facade's capturePanic guard
		// must not be bypassable through the predictor boundary.
		return Prediction{}, 0, false
	}
	t := len(m.marginals)
	med, counts, costs := sc.fit(&m.cfg, len(m.planIDs))
	clampPointInto(sc.x, x)
	for i := range m.marginals {
		if err := m.ensemble.Transform(i).ApplyInto(sc.proj, sc.x); err != nil {
			panic(err) // dims validated above
		}
		z := m.curves[i].ValueWith(sc.cell, sc.proj)
		lo, hi := queryRange(m.marginals[i], m.valueDeltas[i], m.ballFrac, z)
		end := math.Nextafter(hi, math.Inf(1))
		sc.lo[i], sc.end[i] = lo, end
		sc.localMass[i] = m.marginals[i].RangeCount(lo, end)
	}
	// Noise elimination (Section IV-C): plan densities below a fixed
	// fraction of the plan space point mass found in the query range are
	// assumed to be z-order false positives and are excluded from the
	// vote. (The paper states the threshold as a constant factor of the
	// total point count; we apply it to the local in-range mass so the
	// check stays meaningful for sub-bucket interpolated queries.) A
	// negative fraction puts the floor at or under zero, where no count,
	// peak bound or median — all non-negative — falls below it.
	floor := m.cfg.NoiseFraction * median(sc.localMass)
	// Per-plan density: the median over the transforms, a transform that
	// saw nothing of the plan contributing its zero. Most plans are noise
	// at any one point, and that shows without sorting: once more than half
	// of a plan's counts are under the floor, so is the upper middle one,
	// and with it the median. A block whose peak density times the range
	// width is under the floor counts under it too (histogram.PeakSlack), so
	// a plan is ruled out before any search when more than half its blocks
	// are bounded under the floor, and its search stops at the first light
	// count past half. A plan that survives has all t counts searched, and
	// its median is taken over exactly the values the full scan would sort.
	lo, end := sc.lo[:t], sc.end[:t]
	for j := range med {
		med[j] = 0
		blocks := m.blocks[j*t:][:t]
		bounded := 0
		for i, b := range blocks {
			if b.peak*(end[i]-lo[i])*histogram.PeakSlack < floor {
				bounded++
			}
		}
		if bounded > t/2 {
			continue
		}
		row, rowCost, light := counts[j*t:][:t], costs[j*t:][:t], 0
		for i, b := range blocks {
			var count, cost float64
			if b.f != nil {
				if s, c := b.f.RangeCost(lo[i], end[i]); !(c <= 0) {
					count, cost = c, s
				}
			}
			row[i], rowCost[i] = count, cost
			if count < floor {
				if light++; light > t/2 {
					break
				}
			}
		}
		if light > t/2 {
			continue
		}
		copy(sc.tmp, row)
		if c := median(sc.tmp); !(c < floor) {
			med[j] = c
		}
	}
	pred := PredictFromDensityList(m.planIDs, med, m.cfg.Gamma)
	if !pred.OK {
		return pred, 0, false
	}
	// Median cost over the transforms that actually saw the winning plan.
	row, _ := slices.BinarySearch(m.planIDs, pred.Plan)
	row *= t
	k := 0
	for i := 0; i < t; i++ {
		if counts[row+i] > 0 {
			sc.tmp[k] = costs[row+i] / counts[row+i]
			k++
		}
	}
	if k == 0 {
		return pred, 0, false
	}
	return pred, median(sc.tmp[:k]), true
}

// queryRange computes the curve interval around z that realizes the
// paper's δ (half of the query sphere's volume) for one transform. Two
// measures are combined:
//
//   - the geometric value range [z ± δ_i], where 2δ_i is the z-measure of
//     the image of the query ball — exact when the workload is locally
//     dense (the online, trajectory case);
//   - the rank range covering the ball-volume fraction of the observed
//     points around z's rank in the marginal distribution — an adaptive
//     floor that keeps high-dimensional queries meaningful when the
//     geometric ball is so small that it would be empty under any
//     realistic sample size.
//
// The returned interval is the union of the two.
func queryRange(m *histogram.Frozen, valueDelta, ballFrac, z float64) (lo, hi float64) {
	lo, hi = z-valueDelta, z+valueDelta
	if m.TotalCount() > 0 {
		rank := m.Rank(z)
		f := ballFrac / 2
		if rlo := m.Quantile(math.Max(0, rank-f)); rlo < lo {
			lo = rlo
		}
		if rhi := m.Quantile(math.Min(1, rank+f)); rhi > hi {
			hi = rhi
		}
	}
	if hi <= lo {
		hi = math.Nextafter(lo, math.Inf(1))
	}
	return lo, hi
}

// median returns the median of vs (vs is modified by sorting). The inputs
// are one value per transform, so an insertion sort — with sort.Float64s'
// ordering, NaNs first — beats the sort package's dispatch on the predict
// path, which calls this once per plan.
func median(vs []float64) float64 {
	n := len(vs)
	if n == 0 {
		return 0
	}
	for i := 1; i < n; i++ {
		for j := i; j > 0 && (vs[j] < vs[j-1] || (vs[j] != vs[j] && vs[j-1] == vs[j-1])); j-- {
			vs[j], vs[j-1] = vs[j-1], vs[j]
		}
	}
	if n%2 == 1 {
		return vs[n/2]
	}
	return (vs[n/2-1] + vs[n/2]) / 2
}
