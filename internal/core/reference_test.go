package core

import (
	"math"
	"sort"

	"repro/internal/histogram"
	"repro/internal/lsh"
	"repro/internal/zorder"
)

// The map-walking predict query as it stood before the block layout: the
// bit-identity oracle for Model.PredictWithCost. It reads the LIVE synopsis
// (per-transform map of *histogram.Dynamic, closed-range queries, linear
// quantile scan, sort-package sorts), shares no arithmetic with the frozen
// blocks, and must not be "kept in sync" with model.go — a divergence is
// the finding.

// refScratch is the reference's working memory: rows of counts/costs
// recycled through a plan→row map.
type refScratch struct {
	x, proj   []float64
	cell      []uint32
	localMass []float64
	tmp       []float64
	planRow   map[int]int
	planIDs   []int
	med       []float64
	counts    [][]float64
	costs     [][]float64
}

func newRefScratch(cfg Config) *refScratch {
	t := cfg.Transforms
	return &refScratch{
		x:         make([]float64, cfg.Dims),
		proj:      make([]float64, cfg.OutDims),
		cell:      make([]uint32, cfg.OutDims),
		localMass: make([]float64, t),
		tmp:       make([]float64, t),
		planRow:   make(map[int]int),
	}
}

func (s *refScratch) addPlan(plan, t int) int {
	row := len(s.planIDs)
	s.planIDs = append(s.planIDs, plan)
	s.planRow[plan] = row
	if row == len(s.counts) {
		s.counts = append(s.counts, make([]float64, t))
		s.costs = append(s.costs, make([]float64, t))
	} else {
		for i := range s.counts[row] {
			s.counts[row][i] = 0
			s.costs[row][i] = 0
		}
	}
	return row
}

func refMedian(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	sort.Float64s(vs)
	n := len(vs)
	if n%2 == 1 {
		return vs[n/2]
	}
	return (vs[n/2-1] + vs[n/2]) / 2
}

// refPredict answers the predict query from the live synopsis of p.
func refPredict(p *ApproxLSHHist, x []float64) (Prediction, float64, bool) {
	if p.total < p.cfg.MinSamples || len(x) != p.cfg.Dims {
		return Prediction{}, 0, false
	}
	return refPredictOn(&p.cfg, p.ensemble, p.curves, p.hists, p.marginals,
		p.valueDeltas, p.ballFrac, x, newRefScratch(p.cfg))
}

func refPredictOn(cfg *Config, ens *lsh.Ensemble, curves []*zorder.Curve,
	hists []map[int]*histogram.Dynamic, marginals []*histogram.Dynamic, valueDeltas []float64,
	ballFrac float64, x []float64, sc *refScratch) (Prediction, float64, bool) {
	clampPointInto(sc.x, x)
	t := len(hists)
	sc.planIDs = sc.planIDs[:0]
	clear(sc.planRow)
	for i := range hists {
		if err := ens.Transform(i).ApplyInto(sc.proj, sc.x); err != nil {
			panic(err)
		}
		z := curves[i].ValueWith(sc.cell, sc.proj)
		lo, hi := refQueryRange(marginals[i], valueDeltas[i], ballFrac, z)
		sc.localMass[i] = marginals[i].RangeCount(lo, hi)
		for plan, h := range hists[i] {
			cost, count := h.RangeCost(lo, hi)
			if count <= 0 {
				continue
			}
			row, ok := sc.planRow[plan]
			if !ok {
				row = sc.addPlan(plan, t)
			}
			sc.counts[row][i] = count
			sc.costs[row][i] = cost / count
		}
	}
	sort.Ints(sc.planIDs)
	sc.med = sc.med[:0]
	for _, plan := range sc.planIDs {
		copy(sc.tmp, sc.counts[sc.planRow[plan]])
		sc.med = append(sc.med, refMedian(sc.tmp))
	}
	if cfg.NoiseFraction > 0 {
		floor := cfg.NoiseFraction * refMedian(sc.localMass)
		for i, c := range sc.med {
			if c < floor {
				sc.med[i] = 0
			}
		}
	}
	pred := PredictFromDensityList(sc.planIDs, sc.med, cfg.Gamma)
	if !pred.OK {
		return pred, 0, false
	}
	row := sc.planRow[pred.Plan]
	k := 0
	for i := 0; i < t; i++ {
		if sc.counts[row][i] > 0 {
			sc.tmp[k] = sc.costs[row][i]
			k++
		}
	}
	if k == 0 {
		return pred, 0, false
	}
	return pred, refMedian(sc.tmp[:k]), true
}

func refQueryRange(m *histogram.Dynamic, valueDelta, ballFrac, z float64) (lo, hi float64) {
	lo, hi = z-valueDelta, z+valueDelta
	if m.TotalCount() > 0 {
		rank := refRank(m, z)
		f := ballFrac / 2
		if rlo := refQuantile(m, math.Max(0, rank-f)); rlo < lo {
			lo = rlo
		}
		if rhi := refQuantile(m, math.Min(1, rank+f)); rhi > hi {
			hi = rhi
		}
	}
	if hi <= lo {
		hi = math.Nextafter(lo, math.Inf(1))
	}
	return lo, hi
}

func refRank(h *histogram.Dynamic, z float64) float64 {
	c := h.RangeCount(0, z)
	t := h.TotalCount()
	if t <= 0 {
		return 0
	}
	return c / t
}

func refQuantile(h *histogram.Dynamic, p float64) float64 {
	if p <= 0 {
		return 0
	}
	if p >= 1 {
		return 1
	}
	target := p * h.TotalCount()
	var cum float64
	for _, b := range h.Buckets() {
		if cum+b.Count >= target {
			if b.Count <= 0 {
				return b.Lo
			}
			frac := (target - cum) / b.Count
			return b.Lo + frac*b.Width()
		}
		cum += b.Count
	}
	return 1
}
