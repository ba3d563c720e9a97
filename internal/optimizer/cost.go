package optimizer

import "math"

// CostModel holds the constants of the CPU+IO cost model, in abstract cost
// units (one unit ≈ one sequential page read). The defaults are tuned so
// that the classic crossovers appear at realistic selectivities: index
// scans beat sequential scans below roughly 5–10% selectivity, index
// nested-loop joins beat hash joins for small outer cardinalities, and
// merge joins win when both inputs arrive pre-sorted on the join columns.
// These crossovers are what carve the plan space into the multiple
// optimality regions of Figure 2.
type CostModel struct {
	RowsPerPage float64 // tuples per page for IO accounting

	SeqPage  float64 // sequential page read
	RandPage float64 // random page read (uncorrelated index match)
	CorrPage float64 // page cost per match via a correlated (clustered) index

	CPUTuple  float64 // per-tuple processing
	CPUFilter float64 // per-tuple per-predicate evaluation
	CPUHash   float64 // per-tuple hash build insert
	CPUProbe  float64 // per-tuple hash probe
	CPUMerge  float64 // per-tuple merge step
	CPUSortK  float64 // n·log2(n) sort constant
	CPUGroup  float64 // per-group aggregate maintenance

	IndexLookup float64 // B-tree descend per probe
	CPUOutput   float64 // per output row of a join

	// MemoryRows models the working memory available to hash operators,
	// in tuples. A hash build larger than this spills and pays SpillPage
	// IO per overflowing tuple (both on build and probe). This is the
	// "system context" optimizer parameter of the paper's Section VII
	// extension discussion: changing it moves hash-vs-merge/index
	// crossovers, adding a dimension to the plan space.
	MemoryRows float64
	SpillPage  float64 // per-tuple spill IO once a hash build overflows
}

// DefaultCostModel returns the cost model used across the experiments.
func DefaultCostModel() CostModel {
	return CostModel{
		RowsPerPage: 64,
		SeqPage:     1.0,
		RandPage:    0.90,
		CorrPage:    0.05,
		CPUTuple:    0.01,
		CPUFilter:   0.002,
		CPUHash:     0.015,
		CPUProbe:    0.012,
		CPUMerge:    0.008,
		CPUSortK:    0.012,
		CPUGroup:    0.005,
		IndexLookup: 0.08,
		CPUOutput:   0.004,
		MemoryRows:  1 << 30, // effectively unbounded unless configured
		SpillPage:   0.03,
	}
}

// WithMemoryRows returns a copy of the model with the hash working memory
// set to rows tuples.
func (m CostModel) WithMemoryRows(rows float64) CostModel {
	m.MemoryRows = rows
	return m
}

// pages returns the page count of a relation with the given cardinality.
func (m *CostModel) pages(rows float64) float64 {
	return math.Ceil(rows / m.RowsPerPage)
}

// seqScanCost is the cost of scanning rows tuples with nfilters residual
// predicates each.
func (m *CostModel) seqScanCost(rows float64, nfilters int) float64 {
	return m.pages(rows)*m.SeqPage + rows*(m.CPUTuple+float64(nfilters)*m.CPUFilter)
}

// indexScanCost is the cost of an index range scan matching `matches` of
// `rows` tuples. correlated marks clustered-like indexes whose matches are
// physically adjacent.
func (m *CostModel) indexScanCost(rows, matches float64, nfilters int, correlated bool) float64 {
	return m.indexCost(descendDepth(rows), matches, nfilters, correlated)
}

// descendDepth is the depth factor of a B-tree descend into rows tuples. It
// depends on no cost constant, so the enumeration reads each relation's
// from its memo.
func descendDepth(rows float64) float64 { return math.Log2(rows + 2) }

// indexCost is the cost of one B-tree descend of the given depth
// (descendDepth) plus fetching matches tuples through nfilters residual
// filters: an index range scan, or one probe of an index nested-loop join.
func (m *CostModel) indexCost(depth, matches float64, nfilters int, correlated bool) float64 {
	perMatch := m.RandPage
	if correlated {
		perMatch = m.CorrPage
	}
	return m.IndexLookup*depth + matches*(perMatch+m.CPUTuple+float64(nfilters)*m.CPUFilter)
}

// hashJoinCost is the incremental cost of a hash join with the given build
// and probe cardinalities producing out rows (children costs excluded).
// Builds beyond MemoryRows spill: the overflow fraction of both inputs
// pays SpillPage IO (Grace-hash-style partitioning).
func (m *CostModel) hashJoinCost(build, probe, out float64) float64 {
	cost := build*m.CPUHash + probe*m.CPUProbe + out*m.CPUOutput
	if m.MemoryRows > 0 && build > m.MemoryRows {
		overflow := (build - m.MemoryRows) / build
		cost += (build + probe) * overflow * m.SpillPage
	}
	return cost
}

// sortCost is the cost of sorting n tuples.
func (m *CostModel) sortCost(n float64) float64 {
	if n <= 1 {
		return 0
	}
	return n * math.Log2(n+1) * m.CPUSortK
}

// mergeJoinCost is the incremental cost of merging two sorted inputs.
// Unsorted inputs pay sortCost first (added by the caller).
func (m *CostModel) mergeJoinCost(left, right, out float64) float64 {
	return (left+right)*m.CPUMerge + out*m.CPUOutput
}

// indexProbeCost is the cost of one probe of an index nested-loop join:
// a B-tree descend sized by innerRows plus fetching matchesPerOuter inner
// tuples through nfilters residual inner filters. It does not depend on the
// outer input, so the enumeration computes it once per join step.
func (m *CostModel) indexProbeCost(innerRows, matchesPerOuter float64, nfilters int, correlated bool) float64 {
	return m.indexCost(descendDepth(innerRows), matchesPerOuter, nfilters, correlated)
}

// indexNLJoinCost is the incremental cost of probing an inner index once
// per outer row at perProbe (indexProbeCost) each, producing out rows.
func (m *CostModel) indexNLJoinCost(outer, perProbe, out float64) float64 {
	return outer*perProbe + out*m.CPUOutput
}

// nlJoinCost is the cost of a naive nested-loop join that rescans the inner
// once per outer row. rescan is the inner's scan cost.
func (m *CostModel) nlJoinCost(outer, rescan, out float64) float64 {
	return outer*rescan + out*m.CPUOutput
}

// hashAggCost is the cost of hash aggregation over rows input tuples into
// groups output groups. Group states beyond MemoryRows spill like a hash
// join build.
func (m *CostModel) hashAggCost(rows, groups float64) float64 {
	cost := rows*m.CPUHash + groups*m.CPUGroup
	if m.MemoryRows > 0 && groups > m.MemoryRows {
		cost += rows * ((groups - m.MemoryRows) / groups) * m.SpillPage
	}
	return cost
}
