package optimizer

import (
	"fmt"
	"math"

	"repro/internal/stats"
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
// The serving path does both through RebindProgram.Recost, which binds the
// plan's statistics once when the plan is compiled; Recost binds its private
// copy on every call and runs the same cost walk over it. It is the
// reference RebindProgram is held to, and what experiments and the
// benchmark call.
func (o *Optimizer) Recost(q *Query, plan *Plan, params []float64) (*Plan, error) {
	if got, want := len(params), q.ParamDegree(); got != want {
		return nil, fmt.Errorf("optimizer: got %d parameters, want %d", got, want)
	}
	root := cloneTree(plan.Root)
	if err := rebind(root, q, params); err != nil {
		return nil, err
	}
	rp, err := o.bind(q, root)
	if err != nil {
		return nil, err
	}
	w := costWalk{model: o.model, corr: rp.corr, params: params, store: true}
	w.node(&rp.nodes[len(rp.nodes)-1])
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

// costWalk is one bottom-up costing of a bound plan at one instantiation:
// the single recost, shared by Recost (over its private clone, estimates
// stored into the tree) and RebindProgram.Recost (over the cached plan,
// nothing stored). Parameterized literals are read from params, never from
// the tree, so the walk mutates nothing it does not own.
type costWalk struct {
	model  CostModel
	corr   *stats.Corrections
	params []float64
	// store writes each node's EstRows/EstCost into its Node.
	store bool
}

// node returns the node's output cardinality and cumulative cost.
func (w *costWalk) node(b *boundNode) (rows, cost float64) {
	switch b.n.Op {
	case OpSeqScan, OpIndexScan:
		rows, cost = w.scan(b)
	case OpHashAgg:
		childRows, childCost := w.node(b.left)
		rows = math.Max(math.Min(b.groups, childRows), 1)
		cost = childCost + w.model.hashAggCost(childRows, rows)
	default:
		rows, cost = w.join(b)
	}
	if w.store {
		b.n.EstRows, b.n.EstCost = rows, cost
	}
	return rows, cost
}

// filterSel multiplies the corrected selectivities of a scan's residual
// single-table predicates.
func (w *costWalk) filterSel(b *boundNode) float64 {
	sel := 1.0
	for i := range b.n.Filters {
		f := &b.n.Filters[i]
		sel *= w.corr.CorrectSel(f.Site, predSel(b.cols[i], f, w.params))
	}
	return sel
}

func (w *costWalk) scan(b *boundNode) (rows, cost float64) {
	n := b.n
	selResidual := w.filterSel(b)
	if n.Op == OpSeqScan {
		return math.Max(b.rows*selResidual, 1e-6), w.model.seqScanCost(b.rows, len(n.Filters))
	}
	lo, hi := n.IndexLo, n.IndexHi
	if b.derive != nil {
		lo, hi = SargBoundsFor(b.derive.Op, w.params[b.derive.ParamIdx])
	}
	matchSel := 1.0
	if !math.IsInf(lo, -1) || !math.IsInf(hi, 1) {
		matchSel = w.corr.CorrectSel(n.IndexSite, rangeSel(b.index, lo, hi))
	}
	matches := math.Max(b.rows*matchSel, 1e-6)
	return math.Max(matches*selResidual, 1e-6), w.model.indexScanCost(b.rows, matches, len(n.Filters), b.clustered)
}

func (w *costWalk) join(b *boundNode) (rows, cost float64) {
	n := b.n
	leftRows, leftCost := w.node(b.left)
	switch n.Op {
	case OpNLJoin:
		rightRows, rightCost := w.node(b.right)
		rows = math.Max(leftRows*rightRows, 1e-6)
		return rows, leftCost + rightCost + w.model.nlJoinCost(leftRows, rightCost, rows)
	case OpIndexNLJoin:
		inner := b.right
		innerSel := w.filterSel(inner)
		joinSel := w.corr.CorrectSel(n.JoinSite, b.joinSel)
		rows = math.Max(leftRows*(inner.rows*innerSel)*joinSel, 1e-6)
		if w.store {
			inner.n.EstRows = b.matchesPerOuter
		}
		perProbe := w.model.indexProbeCost(inner.rows, b.matchesPerOuter, len(inner.n.Filters), inner.clustered)
		return rows, leftCost + w.model.indexNLJoinCost(leftRows, perProbe, rows)
	}

	// Hash and merge joins: cost both children.
	rightRows, rightCost := w.node(b.right)
	rows = math.Max(leftRows*rightRows*w.corr.CorrectSel(n.JoinSite, b.joinSel), 1e-6)
	for i := range n.Filters {
		if f := &n.Filters[i]; f.Kind == PredJoin {
			rows = math.Max(rows*w.corr.CorrectSel(f.Site, b.filterSel[i]), 1e-6)
		}
	}
	if n.Op == OpHashJoin {
		build, probe := rightRows, leftRows
		if n.BuildLeft {
			build, probe = leftRows, rightRows
		}
		return rows, leftCost + rightCost + w.model.hashJoinCost(build, probe, rows)
	}
	sortLeft, sortRight := 0.0, 0.0
	if n.Left.SortedOn != n.LeftCol {
		sortLeft = w.model.sortCost(leftRows)
	}
	if n.Right.SortedOn != n.RightCol {
		sortRight = w.model.sortCost(rightRows)
	}
	return rows, leftCost + rightCost + sortLeft + sortRight + w.model.mergeJoinCost(leftRows, rightRows, rows)
}
