package optimizer

// The string-keyed estimators and the recost walk this package shipped
// before estimation went through bound column handles, kept as test-only
// references: every question resolves its table and column by name, and
// reads the query's correction factor, every time it is asked. The reference enumerator (reference_test.go)
// estimates through them, and TestRecostMatchesReference holds both Recost
// and RebindProgram.Recost to ReferenceRecost bit for bit.

import (
	"fmt"
	"math"

	"repro/internal/stats"
)

// WithStats returns a shallow clone of the optimizer that estimates through
// the given provider instead, sharing the database, catalog, cost model and
// fault injector. Memos, rebind programs and templates hold the handles of
// the provider that bound them, so build them through the clone.
func (o *Optimizer) WithStats(p stats.Provider) *Optimizer {
	c := *o
	c.stats = p
	return &c
}

func (o *Optimizer) distinct(table, col string) (float64, error) {
	c, err := o.stats.Column(table, col)
	if err != nil {
		return 0, err
	}
	return c.DistinctCount(), nil
}

// selectivity estimates one instantiated single-table predicate, then
// applies the site's learned correction; nil corrections keep the base
// estimate.
func (o *Optimizer) selectivity(corr *stats.Corrections, table string, p Predicate) (float64, error) {
	if err := checkEstimable(&p); err != nil {
		return 0, err
	}
	c, err := o.stats.Column(table, p.Col.Column)
	if err != nil {
		return 0, err
	}
	var s float64
	switch p.Kind {
	case PredCmpNum:
		switch p.Op {
		case OpLE, OpLT:
			s = c.SelectivityLE(p.Value)
		case OpGE, OpGT:
			s = c.SelectivityLE(p.Value)
			s = 1 - s
		case OpEq:
			s = c.SelectivityEq(p.Value)
		}
	case PredCmpStr:
		s = c.SelectivityEqString(p.StrValue)
	case PredBetween:
		s = c.SelectivityRange(p.Lo, p.Hi)
	}
	return corr.CorrectSel(p.Site, s), nil
}

// selProduct multiplies the selectivities of single-table predicates.
func (o *Optimizer) selProduct(corr *stats.Corrections, table string, preds []Predicate) (float64, error) {
	sel := 1.0
	for _, p := range preds {
		s, err := o.selectivity(corr, table, p)
		if err != nil {
			return 0, err
		}
		sel *= s
	}
	return sel, nil
}

// refBaseJoinSelectivity is 1/max(distinct_left, distinct_right).
func (o *Optimizer) refBaseJoinSelectivity(q *Query, j Predicate) (float64, error) {
	lt := q.Binding(j.Col.Alias)
	rt := q.Binding(j.RightCol.Alias)
	if lt == nil || rt == nil {
		return 0, fmt.Errorf("optimizer: unbound join %s", j)
	}
	ld, err := o.distinct(lt.Table, j.Col.Column)
	if err != nil {
		return 0, err
	}
	rd, err := o.distinct(rt.Table, j.RightCol.Column)
	if err != nil {
		return 0, err
	}
	d := math.Max(ld, rd)
	if d < 1 {
		d = 1
	}
	return 1 / d, nil
}

// joinSelectivity is the base join selectivity corrected by the join
// predicate's current site factor when the query carries corrections.
func (o *Optimizer) joinSelectivity(q *Query, j Predicate) (float64, error) {
	s, err := o.refBaseJoinSelectivity(q, j)
	if err != nil {
		return 0, err
	}
	return q.Corr.CorrectSel(j.Site, s), nil
}

// refBaseRangeSelectivity estimates P(lo <= col <= hi) without corrections,
// clamping infinite bounds to the column's value range.
func (o *Optimizer) refBaseRangeSelectivity(table, col string, lo, hi float64) (float64, error) {
	c, err := o.stats.Column(table, col)
	if err != nil {
		return 0, err
	}
	cLo, cHi := c.Bounds()
	if math.IsInf(lo, -1) {
		lo = cLo
	}
	if math.IsInf(hi, 1) {
		hi = cHi
	}
	return c.SelectivityRange(lo, hi), nil
}

// groupEstimate estimates the number of output groups of the aggregation
// over inputRows rows.
func (o *Optimizer) groupEstimate(q *Query, inputRows float64) float64 {
	groups := 1.0
	for _, g := range q.GroupBy {
		t := q.Binding(g.Alias)
		if t == nil {
			continue
		}
		if d, err := o.distinct(t.Table, g.Column); err == nil {
			groups *= math.Max(d, 1)
		}
	}
	return math.Max(math.Min(groups, inputRows), 1)
}

// ReferenceRecost is the old Recost: clone, rebind, and the walk below.
func (o *Optimizer) ReferenceRecost(q *Query, plan *Plan, params []float64) (*Plan, error) {
	if got, want := len(params), q.ParamDegree(); got != want {
		return nil, fmt.Errorf("optimizer: got %d parameters, want %d", got, want)
	}
	root := cloneTree(plan.Root)
	if err := rebind(root, q, params); err != nil {
		return nil, err
	}
	if _, _, err := o.refRecostNode(root, q); err != nil {
		return nil, err
	}
	return &Plan{Root: root, Cost: root.EstCost, Fingerprint: FingerprintOf(root)}, nil
}

// refRecostNode recomputes EstRows and EstCost bottom-up. It returns the
// node's output cardinality and cumulative cost.
func (o *Optimizer) refRecostNode(n *Node, q *Query) (rows, cost float64, err error) {
	switch n.Op {
	case OpSeqScan, OpIndexScan:
		return o.refRecostScan(n, q)
	case OpHashJoin, OpMergeJoin, OpIndexNLJoin, OpNLJoin:
		return o.refRecostJoin(n, q)
	case OpHashAgg:
		childRows, childCost, err := o.refRecostNode(n.Left, q)
		if err != nil {
			return 0, 0, err
		}
		groups := o.groupEstimate(q, childRows)
		n.EstRows = groups
		n.EstCost = childCost + o.model.hashAggCost(childRows, groups)
		return n.EstRows, n.EstCost, nil
	default:
		return 0, 0, fmt.Errorf("optimizer: cannot recost operator %v", n.Op)
	}
}

func (o *Optimizer) refRecostScan(n *Node, q *Query) (float64, float64, error) {
	table := o.db.Table(n.Table)
	if table == nil {
		return 0, 0, fmt.Errorf("optimizer: unknown table %s", n.Table)
	}
	baseRows := float64(table.NumRows())
	selResidual, err := o.selProduct(q.Corr, n.Table, n.Filters)
	if err != nil {
		return 0, 0, err
	}
	switch n.Op {
	case OpSeqScan:
		n.EstRows = math.Max(baseRows*selResidual, 1e-6)
		n.EstCost = o.model.seqScanCost(baseRows, len(n.Filters))
	case OpIndexScan:
		matchSel := 1.0
		if !math.IsInf(n.IndexLo, -1) || !math.IsInf(n.IndexHi, 1) {
			s, err := o.refBaseRangeSelectivity(n.Table, n.IndexCol, n.IndexLo, n.IndexHi)
			if err != nil {
				return 0, 0, err
			}
			matchSel = q.Corr.CorrectSel(n.IndexSite, s)
		}
		matches := math.Max(baseRows*matchSel, 1e-6)
		n.EstRows = math.Max(matches*selResidual, 1e-6)
		n.EstCost = o.model.indexScanCost(baseRows, matches, len(n.Filters), n.IndexCol == clusteredColumn(table))
	}
	return n.EstRows, n.EstCost, nil
}

func (o *Optimizer) refRecostJoin(n *Node, q *Query) (float64, float64, error) {
	leftRows, leftCost, err := o.refRecostNode(n.Left, q)
	if err != nil {
		return 0, 0, err
	}
	switch n.Op {
	case OpNLJoin:
		rightRows, rightCost, err := o.refRecostNode(n.Right, q)
		if err != nil {
			return 0, 0, err
		}
		n.EstRows = math.Max(leftRows*rightRows, 1e-6)
		n.EstCost = leftCost + rightCost + o.model.nlJoinCost(leftRows, rightCost, n.EstRows)
		return n.EstRows, n.EstCost, nil
	case OpIndexNLJoin:
		inner := n.Right
		table := o.db.Table(inner.Table)
		if table == nil {
			return 0, 0, fmt.Errorf("optimizer: unknown table %s", inner.Table)
		}
		innerRows := float64(table.NumRows())
		innerDistinct, err := o.distinct(inner.Table, inner.IndexCol)
		if err != nil {
			return 0, 0, err
		}
		innerSel, err := o.selProduct(q.Corr, inner.Table, inner.Filters)
		if err != nil {
			return 0, 0, err
		}
		joinSel, err := o.joinSelectivity(q, Predicate{Kind: PredJoin, Col: n.LeftCol, RightCol: n.RightCol, Site: n.JoinSite})
		if err != nil {
			return 0, 0, err
		}
		matchesPerOuter := innerRows / math.Max(innerDistinct, 1)
		outRows := math.Max(leftRows*(innerRows*innerSel)*joinSel, 1e-6)
		inner.EstRows = matchesPerOuter
		correlated := inner.IndexCol == clusteredColumn(table)
		n.EstRows = outRows
		perProbe := o.model.indexProbeCost(innerRows, matchesPerOuter, len(inner.Filters), correlated)
		n.EstCost = leftCost + o.model.indexNLJoinCost(leftRows, perProbe, outRows)
		return n.EstRows, n.EstCost, nil
	}

	// Hash and merge joins: cost both children.
	rightRows, rightCost, err := o.refRecostNode(n.Right, q)
	if err != nil {
		return 0, 0, err
	}
	joinSel, err := o.joinSelectivity(q, Predicate{Kind: PredJoin, Col: n.LeftCol, RightCol: n.RightCol, Site: n.JoinSite})
	if err != nil {
		return 0, 0, err
	}
	outRows := math.Max(leftRows*rightRows*joinSel, 1e-6)
	for _, f := range n.Filters {
		if f.Kind == PredJoin {
			s, err := o.joinSelectivity(q, f)
			if err != nil {
				return 0, 0, err
			}
			outRows = math.Max(outRows*s, 1e-6)
		}
	}
	switch n.Op {
	case OpHashJoin:
		build, probe := rightRows, leftRows
		if n.BuildLeft {
			build, probe = leftRows, rightRows
		}
		n.EstRows = outRows
		n.EstCost = leftCost + rightCost + o.model.hashJoinCost(build, probe, outRows)
	case OpMergeJoin:
		sortLeft, sortRight := 0.0, 0.0
		if n.Left.SortedOn != n.LeftCol {
			sortLeft = o.model.sortCost(leftRows)
		}
		if n.Right.SortedOn != n.RightCol {
			sortRight = o.model.sortCost(rightRows)
		}
		n.EstRows = outRows
		n.EstCost = leftCost + rightCost + sortLeft + sortRight + o.model.mergeJoinCost(leftRows, rightRows, outRows)
	}
	return n.EstRows, n.EstCost, nil
}
