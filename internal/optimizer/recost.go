package optimizer

import (
	"fmt"
	"math"
)

// Recost rebinds a cached plan to new parameter values: it deep-copies the
// plan tree, re-instantiates parameterized literals (filter values and
// index scan bounds), and recomputes cardinality and cost estimates bottom
// up under the current statistics — without re-running plan enumeration.
//
// This is what a plan cache does on a hit, and it doubles as the cost
// oracle for the negative-feedback detector: the recosted Cost of a cached
// plan at a new plan space point is the execution cost the paper's
// prototype would observe when running that (possibly stale) plan there.
// The serving path does both through RebindProgram.Recost, which binds in
// place; Recost is the reference RebindProgram is held to, and what
// experiments and the benchmark call.
func (o *Optimizer) Recost(q *Query, plan *Plan, params []float64) (*Plan, error) {
	if got, want := len(params), q.ParamDegree(); got != want {
		return nil, fmt.Errorf("optimizer: got %d parameters, want %d", got, want)
	}
	root := cloneTree(plan.Root)
	if err := rebind(root, q, params); err != nil {
		return nil, err
	}
	if _, _, err := o.recostNode(root, q); err != nil {
		return nil, err
	}
	return &Plan{Root: root, Cost: root.EstCost, Fingerprint: FingerprintOf(root)}, nil
}

func cloneTree(n *Node) *Node {
	if n == nil {
		return nil
	}
	c := *n
	c.Filters = append([]Predicate(nil), n.Filters...)
	c.Left = cloneTree(n.Left)
	c.Right = cloneTree(n.Right)
	return &c
}

// rebind re-instantiates parameterized literals throughout the tree. A tree
// referencing parameter indexes the query does not have (a plan cached for a
// different template) is rejected rather than letting the index panic.
func rebind(n *Node, q *Query, params []float64) error {
	if n == nil {
		return nil
	}
	for i := range n.Filters {
		if n.Filters[i].Kind == PredCmpNum && n.Filters[i].ParamIdx >= 0 {
			if n.Filters[i].ParamIdx >= len(params) {
				return fmt.Errorf("optimizer: plan references parameter %d, query has %d (foreign plan)",
					n.Filters[i].ParamIdx, len(params))
			}
			n.Filters[i].Value = params[n.Filters[i].ParamIdx]
		}
	}
	if n.Op == OpIndexScan {
		// The driving predicate, if parameterized, re-derives the bounds.
		for _, p := range q.Preds {
			if p.Kind != PredCmpNum || p.ParamIdx < 0 {
				continue
			}
			if p.Col.Alias != n.Alias || p.Col.Column != n.IndexCol {
				continue
			}
			// Only rebind if this predicate is the scan's driving predicate
			// (i.e. it is not among the residual filters).
			residual := false
			for _, f := range n.Filters {
				if f.Kind == PredCmpNum && f.ParamIdx == p.ParamIdx {
					residual = true
					break
				}
			}
			if residual {
				continue
			}
			inst := p
			inst.Value = params[p.ParamIdx]
			n.IndexLo, n.IndexHi = sargBounds(inst)
		}
	}
	if err := rebind(n.Left, q, params); err != nil {
		return err
	}
	return rebind(n.Right, q, params)
}

// recostNode recomputes EstRows and EstCost bottom-up. It returns the
// node's output cardinality and cumulative cost.
func (o *Optimizer) recostNode(n *Node, q *Query) (rows, cost float64, err error) {
	switch n.Op {
	case OpSeqScan, OpIndexScan:
		return o.recostScan(n, q)
	case OpHashJoin, OpMergeJoin, OpIndexNLJoin, OpNLJoin:
		return o.recostJoin(n, q)
	case OpHashAgg:
		childRows, childCost, err := o.recostNode(n.Left, q)
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

func (o *Optimizer) recostScan(n *Node, q *Query) (float64, float64, error) {
	table := o.db.Table(n.Table)
	if table == nil {
		return 0, 0, fmt.Errorf("optimizer: unknown table %s", n.Table)
	}
	baseRows := float64(table.NumRows())
	selResidual, err := o.selProduct(q.Template, n.Table, n.Filters)
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
			s, err := o.BaseRangeSelectivity(n.Table, n.IndexCol, n.IndexLo, n.IndexHi)
			if err != nil {
				return 0, 0, err
			}
			matchSel = o.stats.Correct(q.Template, n.IndexSite, s)
		}
		matches := math.Max(baseRows*matchSel, 1e-6)
		n.EstRows = math.Max(matches*selResidual, 1e-6)
		n.EstCost = o.model.indexScanCost(baseRows, matches, len(n.Filters), n.IndexCol == clusteredColumn(table))
	}
	return n.EstRows, n.EstCost, nil
}

func (o *Optimizer) recostJoin(n *Node, q *Query) (float64, float64, error) {
	leftRows, leftCost, err := o.recostNode(n.Left, q)
	if err != nil {
		return 0, 0, err
	}
	switch n.Op {
	case OpNLJoin:
		rightRows, rightCost, err := o.recostNode(n.Right, q)
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
		innerDistinct, err := o.stats.Distinct(inner.Table, inner.IndexCol)
		if err != nil {
			return 0, 0, err
		}
		innerSel, err := o.selProduct(q.Template, inner.Table, inner.Filters)
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
	rightRows, rightCost, err := o.recostNode(n.Right, q)
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
