package optimizer

import (
	"fmt"
	"math"
	"sync"
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
// plan is compiled once — parameter slots resolved to value pointers,
// index-bound derivations precomputed — so each subsequent recost does
// O(params) binding plus the in-place cost walk, with no tree clone and no
// allocation in steady state. Bound instances are pooled, so the program
// is safe for concurrent use from the lock-free serving path.
type RebindProgram struct {
	q    *Query
	pool sync.Pool
}

// valSlot binds one parameterized filter literal in the private tree.
type valSlot struct {
	ptr   *float64
	param int
}

// scanSlot binds one index scan whose bounds a parameter drives.
type scanSlot struct {
	node   *Node
	derive []BoundDerive
}

// boundTree is one pooled bindable instance: a private clone of the source
// tree plus its parameter slots.
type boundTree struct {
	root  *Node
	vals  []valSlot
	scans []scanSlot
}

// CompileRebind builds the rebind program for a cached plan under a
// template's query. A tree referencing parameters the query does not have
// (a foreign plan) is rejected here, once, instead of on every recost.
func (o *Optimizer) CompileRebind(q *Query, plan *Plan) (*RebindProgram, error) {
	if plan == nil || plan.Root == nil {
		return nil, fmt.Errorf("optimizer: nil plan")
	}
	degree := q.ParamDegree()
	if err := checkForeignParams(plan.Root, degree); err != nil {
		return nil, err
	}
	rp := &RebindProgram{q: q}
	root := plan.Root
	rp.pool.New = func() any { return newBoundTree(root, q) }
	return rp, nil
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

func newBoundTree(root *Node, q *Query) *boundTree {
	bt := &boundTree{root: cloneTree(root)}
	var walk func(n *Node)
	walk = func(n *Node) {
		if n == nil {
			return
		}
		for i := range n.Filters {
			if n.Filters[i].Kind == PredCmpNum && n.Filters[i].ParamIdx >= 0 {
				bt.vals = append(bt.vals, valSlot{ptr: &n.Filters[i].Value, param: n.Filters[i].ParamIdx})
			}
		}
		if n.Op == OpIndexScan {
			if d := IndexBoundDerives(q, n); len(d) > 0 {
				bt.scans = append(bt.scans, scanSlot{node: n, derive: d})
			}
		}
		walk(n.Left)
		walk(n.Right)
	}
	walk(bt.root)
	return bt
}

// Recost binds the parameter values into a pooled instance and recomputes
// the plan's cost bottom-up in place — the O(params)+O(nodes) hit-path
// replacement for the clone-and-rebind Recost, producing the identical
// cost.
func (rp *RebindProgram) Recost(o *Optimizer, params []float64) (float64, error) {
	if got, want := len(params), rp.q.ParamDegree(); got != want {
		return 0, fmt.Errorf("optimizer: got %d parameters, want %d", got, want)
	}
	bt := rp.pool.Get().(*boundTree)
	for _, s := range bt.vals {
		*s.ptr = params[s.param]
	}
	for _, s := range bt.scans {
		for _, d := range s.derive {
			s.node.IndexLo, s.node.IndexHi = SargBoundsFor(d.Op, params[d.ParamIdx])
		}
	}
	_, _, err := o.recostNode(bt.root, rp.q)
	cost := bt.root.EstCost
	rp.pool.Put(bt)
	if err != nil {
		return 0, err
	}
	return cost, nil
}
