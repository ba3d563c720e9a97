package optimizer

import (
	"fmt"
	"math"

	"repro/internal/stats"
)

// BoundDerive describes how one template parameter drives an index scan's
// bounds: at bind time the bounds become SargBoundsFor(Op, params[ParamIdx]).
type BoundDerive struct {
	Op       CmpOp
	ParamIdx int
}

// IndexBoundDerives returns the parameterized predicates that drive the
// bounds of an index scan node, in q.Preds order — later entries win,
// matching the rebind pass Recost applies on every cache hit. A predicate
// that appears among the node's residual filters is not a driving
// predicate and is excluded.
func IndexBoundDerives(q *Query, n *Node) []BoundDerive {
	var out []BoundDerive
	for _, p := range q.Preds {
		if p.Kind != PredCmpNum || p.ParamIdx < 0 {
			continue
		}
		if p.Col.Alias != n.Alias || p.Col.Column != n.IndexCol {
			continue
		}
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
		out = append(out, BoundDerive{Op: p.Op, ParamIdx: p.ParamIdx})
	}
	return out
}

// SargBoundsFor converts a comparison against value v into the inclusive
// index scan bounds that select exactly the keys satisfying it. The driving
// predicate is not among the scan's residual filters, so a strict bound
// must itself exclude v: it moves to the adjacent float on the open side,
// or to the empty range when nothing lies beyond v.
func SargBoundsFor(op CmpOp, v float64) (lo, hi float64) {
	switch op {
	case OpEq:
		return v, v
	case OpLE:
		return math.Inf(-1), v
	case OpGE:
		return v, math.Inf(1)
	case OpLT:
		if math.IsInf(v, -1) {
			return math.Inf(1), math.Inf(-1)
		}
		return math.Inf(-1), math.Nextafter(v, math.Inf(-1))
	case OpGT:
		if math.IsInf(v, 1) {
			return math.Inf(1), math.Inf(-1)
		}
		return math.Nextafter(v, math.Inf(1)), math.Inf(1)
	}
	return math.Inf(-1), math.Inf(1)
}

// RebindProgram is the memoized form of Recost for one cached plan: the
// plan is bound once — per node the table's row count, each filter's and
// index's column handle, each join's base selectivity, the template's
// correction state, the index-bound derivation — so each subsequent recost
// is the cost walk alone: it reads parameter values straight from the
// caller's slice and performs no table, column or template lookup, no tree
// clone and no allocation. A program is immutable after CompileRebind, so
// it is safe for concurrent use from the lock-free serving path. It holds
// the handles of the provider that compiled it.
type RebindProgram struct {
	degree int
	// corr is the template's correction state (nil: identity).
	corr *stats.Corrections
	// nodes holds the bound plan in post-order; the root is last.
	nodes []boundNode
}

// boundNode is one plan node with every statistic the cost walk and the
// cardinality attribution read from it resolved. n is shared with the plan
// cache in a compiled program (read-only) and private in Recost's clone.
type boundNode struct {
	n           *Node
	left, right *boundNode

	// Scans, and the inner index scan of an index nested-loop join.
	rows      float64        // the table's row count
	cols      []stats.Column // handle of each n.Filters[i]'s column
	index     stats.Column   // index scans: handle of n.IndexCol
	clustered bool           // index on the column the table is ordered by
	// derive, when set, re-derives the index bounds from a parameter on
	// every walk; otherwise n.IndexLo/IndexHi hold.
	derive *BoundDerive

	// Joins: the base (uncorrected) selectivity of the driving equi-join and
	// of each extra join predicate in n.Filters, and for an index
	// nested-loop join the inner matches per probe.
	joinSel         float64
	filterSel       []float64
	matchesPerOuter float64

	// Aggregation: the product of the GROUP BY columns' distinct counts.
	groups float64
}

// CompileRebind builds the rebind program for a cached plan under a
// template's query. A tree referencing parameters the query does not have
// (a foreign plan), tables or columns without statistics, or a predicate
// with no estimate is rejected here, once, instead of on every recost.
func (o *Optimizer) CompileRebind(q *Query, plan *Plan) (*RebindProgram, error) {
	if plan == nil || plan.Root == nil {
		return nil, fmt.Errorf("optimizer: nil plan")
	}
	if err := checkForeignParams(plan.Root, q.ParamDegree()); err != nil {
		return nil, err
	}
	return o.bind(q, plan.Root)
}

func checkForeignParams(n *Node, degree int) error {
	if n == nil {
		return nil
	}
	for i := range n.Filters {
		if n.Filters[i].Kind == PredCmpNum && n.Filters[i].ParamIdx >= degree {
			return fmt.Errorf("optimizer: plan references parameter %d, query has %d (foreign plan)",
				n.Filters[i].ParamIdx, degree)
		}
	}
	if err := checkForeignParams(n.Left, degree); err != nil {
		return err
	}
	return checkForeignParams(n.Right, degree)
}

func countNodes(n *Node) int {
	if n == nil {
		return 0
	}
	return 1 + countNodes(n.Left) + countNodes(n.Right)
}

// bind resolves the tree under q through the optimizer's statistics
// provider. This is the only place recosting looks anything up by name.
func (o *Optimizer) bind(q *Query, root *Node) (*RebindProgram, error) {
	rp := &RebindProgram{
		degree: q.ParamDegree(),
		corr:   o.corrections(q),
		// Exact capacity: nodes point at each other inside the slice.
		nodes: make([]boundNode, 0, countNodes(root)),
	}
	if _, err := o.bindNode(rp, q, root); err != nil {
		return nil, err
	}
	return rp, nil
}

func (o *Optimizer) bindNode(rp *RebindProgram, q *Query, n *Node) (*boundNode, error) {
	if n == nil {
		return nil, fmt.Errorf("optimizer: malformed plan: operator without its input")
	}
	b := boundNode{n: n}
	var err error
	switch n.Op {
	case OpSeqScan, OpIndexScan:
		err = o.bindScan(&b, q)
	case OpHashAgg:
		b.groups = o.groupDistinct(q)
		b.left, err = o.bindNode(rp, q, n.Left)
	case OpHashJoin, OpMergeJoin, OpNLJoin, OpIndexNLJoin:
		err = o.bindJoin(rp, &b, q)
	default:
		err = fmt.Errorf("optimizer: cannot recost operator %v", n.Op)
	}
	if err != nil {
		return nil, err
	}
	rp.nodes = append(rp.nodes, b)
	return &rp.nodes[len(rp.nodes)-1], nil
}

func (o *Optimizer) bindScan(b *boundNode, q *Query) error {
	n := b.n
	table := o.db.Table(n.Table)
	if table == nil {
		return fmt.Errorf("optimizer: unknown table %s", n.Table)
	}
	b.rows = float64(table.NumRows())
	var err error
	if b.cols, err = o.predColumns(n.Table, n.Filters); err != nil {
		return err
	}
	if n.Op == OpIndexScan {
		if b.index, err = o.stats.Column(n.Table, n.IndexCol); err != nil {
			return err
		}
		b.clustered = n.IndexCol == clusteredColumn(table)
		if d := IndexBoundDerives(q, n); len(d) > 0 {
			b.derive = &d[len(d)-1] // later entries win
		}
	}
	return nil
}

func (o *Optimizer) bindJoin(rp *RebindProgram, b *boundNode, q *Query) error {
	n := b.n
	var err error
	if b.left, err = o.bindNode(rp, q, n.Left); err != nil {
		return err
	}
	if b.right, err = o.bindNode(rp, q, n.Right); err != nil {
		return err
	}
	switch n.Op {
	case OpNLJoin:
		return nil
	case OpIndexNLJoin:
		// The inner index scan is probed, never costed as a scan of its own:
		// the walk reads its row count, filters and key distinct count.
		if n.Right.Op != OpIndexScan {
			return fmt.Errorf("optimizer: malformed plan: index nested-loop join without an inner index scan")
		}
		b.matchesPerOuter = b.right.rows / math.Max(b.right.index.DistinctCount(), 1)
	}
	if b.joinSel, err = o.baseJoinSelectivity(q, &Predicate{Kind: PredJoin, Col: n.LeftCol, RightCol: n.RightCol}); err != nil {
		return err
	}
	b.filterSel = make([]float64, len(n.Filters))
	for i := range n.Filters {
		if f := &n.Filters[i]; f.Kind == PredJoin {
			if b.filterSel[i], err = o.baseJoinSelectivity(q, f); err != nil {
				return err
			}
		}
	}
	return nil
}

// Recost re-costs the plan at the given parameter values — the hit-path
// replacement for the clone-and-rebind Recost, producing the identical
// cost. o supplies the cost model; the statistics are the ones bound by
// CompileRebind.
func (rp *RebindProgram) Recost(o *Optimizer, params []float64) (float64, error) {
	if len(params) != rp.degree {
		return 0, fmt.Errorf("optimizer: got %d parameters, want %d", len(params), rp.degree)
	}
	w := costWalk{model: o.model, corr: rp.corr, params: params}
	_, cost := w.node(&rp.nodes[len(rp.nodes)-1])
	return cost, nil
}
