// Plan compilation: a cached plan is compiled once into a CompiledPlan —
// a tree of pre-resolved operators over column pointers and arena slots —
// and then executed many times with only the parameter values changing.
// All name resolution, schema construction, type checking and parameter
// slot assignment happens here, at intern time; Exec does O(params) binding
// work and touches no maps, schemas or interface values on the hot path.
//
// The compiled engine is columnar with late materialization: intermediate
// results are selection vectors of int32 row ids per base relation, and
// full rows are only materialized once, into the final Result. The
// compiler expresses every plan the optimizer emits — the optimizer's type
// rule (optimizer.TypeError) turns away the queries it could not, and
// costs no merge join on a string key — so the serving path runs this
// engine only. The row-at-a-time engine in executor.go is the semantic
// reference the equivalence suites and the benchmark's answer oracle
// compare against.
package executor

import (
	"fmt"
	"sync"

	"repro/internal/optimizer"
	"repro/internal/tpch"
)

// CompiledPlan is an executable compiled form of one physical plan. It is
// immutable after Compile and safe for concurrent Exec calls: every
// execution checks a private Arena out of the pool.
type CompiledPlan struct {
	exec    *Executor
	root    *cNode
	agg     *cAgg  // non-nil when the plan aggregates at the root
	schema  Schema // result schema, shared by every Result (read-only)
	outCols []colSrc
	nParams int

	nSlots    int
	needHTStr bool

	pool sync.Pool
}

// colSrc maps one output column to its base column and arena slot.
type colSrc struct {
	col  *tpch.Column
	slot int
}

// relBind is one base relation in a node's output tuple, in output order.
type relBind struct {
	table *tpch.Table
	alias string
}

// cNode is one compiled operator.
type cNode struct {
	op    optimizer.OpKind
	left  *cNode
	right *cNode // nil for scans and index-nested-loop joins

	// lineage is the plan node this operator was compiled from. It ties
	// observed cardinalities (ExecObserve) back to the optimizer's
	// estimates and, through Node.IndexSite/JoinSite, to the template
	// predicate sites the adaptive statistics layer corrects.
	lineage *optimizer.Node

	rels  []relBind
	slots []int // arena slot per relation, parallel to rels

	// Scans (and the inner side of index-nested-loop joins).
	table   *tpch.Table
	index   *tpch.Index
	lo, hi  float64
	derive  []optimizer.BoundDerive
	filters []cPred

	// Joins.
	leftKey     *tpch.Column
	rightKey    *tpch.Column
	leftSlot    int
	rightSlot   int
	buildLeft   bool
	strKey      bool
	joinFilters []cPred

	// Index-nested-loop joins: the inner relation's residual filters; the
	// probe index and table live in index/table above.
	innerFilters []cPred
}

// cAgg is the compiled root aggregation.
type cAgg struct {
	groupCols []aggCol
	specs     []aggColSpec
	outSchema Schema
}

// numKey reports whether grouping can use the single-numeric-column fast
// path: the raw float bits are then the group key, sidestepping the byte
// encoding (bit equality matches the encoded-key equality exactly).
func (a *cAgg) numKey() bool {
	return len(a.groupCols) == 1 && a.groupCols[0].col.Kind != tpch.KindString
}

type aggCol struct {
	col  *tpch.Column
	slot int
}

type aggColSpec struct {
	fn   optimizer.AggFunc
	col  *tpch.Column // nil for COUNT(*)
	slot int
}

// cPred is one compiled predicate. In scan context it is evaluated against
// a direct row id; in join context slot/side locate the relation vector of
// each referenced column (side 0 = left input tuple, side 1 = right).
type cPred struct {
	kind     optimizer.PredKind
	op       optimizer.CmpOp
	value    float64
	paramIdx int // >= 0: bind value from params at execution time
	lo, hi   float64
	strValue string

	col  *tpch.Column
	side int
	slot int

	// PredJoin second column.
	col2  *tpch.Column
	side2 int
	slot2 int
}

// rhs resolves the comparison constant, binding a parameter slot if one was
// assigned at compile time.
func (p *cPred) rhs(params []float64) float64 {
	if p.paramIdx >= 0 {
		return params[p.paramIdx]
	}
	return p.value
}

// Compile translates a physical plan into its compiled form. q supplies
// the template's parameter layout so literal slots can be bound per
// execution; a nil q compiles every literal as baked (plans outside a
// template, e.g. hand-built test plans). It compiles every plan the
// optimizer emits for a query that passed its type rule
// (optimizer.TypeError); an error means a hand-built or foreign tree.
func (e *Executor) Compile(plan *optimizer.Plan, q *optimizer.Query) (*CompiledPlan, error) {
	if plan == nil || plan.Root == nil {
		return nil, fmt.Errorf("executor: nil plan")
	}
	cp := &CompiledPlan{exec: e}
	if q != nil {
		cp.nParams = q.ParamDegree()
	}
	c := &compiler{e: e, q: q, cp: cp}
	root := plan.Root
	if root.Op == optimizer.OpHashAgg {
		child, err := c.node(root.Left)
		if err != nil {
			return nil, err
		}
		agg, err := c.agg(root, child)
		if err != nil {
			return nil, err
		}
		cp.root, cp.agg, cp.schema = child, agg, agg.outSchema
	} else {
		cn, err := c.node(root)
		if err != nil {
			return nil, err
		}
		cp.root = cn
		// Hoist the output schema and column sources: the seed engine built
		// these per operator per run (concatRows/schema appends); they are
		// template-constant and live for the plan's lifetime.
		for i, r := range cn.rels {
			slot := cn.slots[i]
			for _, col := range r.table.Columns {
				cp.schema = append(cp.schema, optimizer.ColRef{Alias: r.alias, Column: col.Name})
				cp.outCols = append(cp.outCols, colSrc{col: col, slot: slot})
			}
		}
	}
	cp.nSlots = c.nSlots
	cp.pool.New = func() any { return newArena(cp) }
	return cp, nil
}

// compiler carries compile-time state: the slot allocator and which shared
// scratch structures the plan needs.
type compiler struct {
	e      *Executor
	q      *optimizer.Query
	cp     *CompiledPlan
	nSlots int
}

func (c *compiler) alloc() int {
	s := c.nSlots
	c.nSlots++
	return s
}

func (c *compiler) node(n *optimizer.Node) (*cNode, error) {
	switch n.Op {
	case optimizer.OpSeqScan, optimizer.OpIndexScan:
		return c.scan(n)
	case optimizer.OpHashJoin, optimizer.OpMergeJoin, optimizer.OpNLJoin:
		return c.join(n)
	case optimizer.OpIndexNLJoin:
		return c.inlJoin(n)
	default:
		return nil, fmt.Errorf("executor: cannot compile operator %v", n.Op)
	}
}

func (c *compiler) scan(n *optimizer.Node) (*cNode, error) {
	t := c.e.db.Table(n.Table)
	if t == nil {
		return nil, fmt.Errorf("executor: unknown table %s", n.Table)
	}
	cn := &cNode{
		op:      n.Op,
		lineage: n,
		table:   t,
		rels:    []relBind{{table: t, alias: n.Alias}},
		slots:   []int{c.alloc()},
	}
	if n.Op == optimizer.OpIndexScan {
		ix := t.Indexes[n.IndexCol]
		if ix == nil {
			return nil, fmt.Errorf("executor: no index on %s.%s", n.Table, n.IndexCol)
		}
		cn.index = ix
		cn.lo, cn.hi = n.IndexLo, n.IndexHi
		if c.q != nil {
			cn.derive = optimizer.IndexBoundDerives(c.q, n)
			for _, d := range cn.derive {
				if d.ParamIdx >= c.cp.nParams {
					return nil, fmt.Errorf("executor: plan references parameter %d, template has %d", d.ParamIdx, c.cp.nParams)
				}
			}
		}
	}
	var err error
	cn.filters, err = c.preds(n.Filters, cn.rels, cn.slots, nil, nil)
	if err != nil {
		return nil, err
	}
	return cn, nil
}

func (c *compiler) join(n *optimizer.Node) (*cNode, error) {
	left, err := c.node(n.Left)
	if err != nil {
		return nil, err
	}
	right, err := c.node(n.Right)
	if err != nil {
		return nil, err
	}
	cn := &cNode{op: n.Op, lineage: n, left: left, right: right}
	cn.rels = append(append(make([]relBind, 0, len(left.rels)+len(right.rels)), left.rels...), right.rels...)
	cn.slots = make([]int, len(cn.rels))
	for i := range cn.slots {
		cn.slots[i] = c.alloc()
	}
	if n.Op != optimizer.OpNLJoin {
		cn.leftKey, cn.leftSlot, err = c.keyCol(n.LeftCol, left)
		if err != nil {
			return nil, err
		}
		cn.rightKey, cn.rightSlot, err = c.keyCol(n.RightCol, right)
		if err != nil {
			return nil, err
		}
		if cn.leftKey.Kind != cn.rightKey.Kind {
			return nil, fmt.Errorf("executor: mixed-type join key %s = %s", n.LeftCol, n.RightCol)
		}
		cn.strKey = cn.leftKey.Kind == tpch.KindString
		switch n.Op {
		case optimizer.OpHashJoin:
			cn.buildLeft = n.BuildLeft
			c.cp.needHTStr = c.cp.needHTStr || cn.strKey
		case optimizer.OpMergeJoin:
			if cn.strKey {
				return nil, fmt.Errorf("executor: merge join on string key %s", n.LeftCol)
			}
		}
	}
	cn.joinFilters, err = c.preds(n.Filters, left.rels, left.slots, right.rels, right.slots)
	if err != nil {
		return nil, err
	}
	return cn, nil
}

func (c *compiler) inlJoin(n *optimizer.Node) (*cNode, error) {
	left, err := c.node(n.Left)
	if err != nil {
		return nil, err
	}
	inner := n.Right
	t := c.e.db.Table(inner.Table)
	if t == nil {
		return nil, fmt.Errorf("executor: unknown table %s", inner.Table)
	}
	ix := t.Indexes[inner.IndexCol]
	if ix == nil {
		return nil, fmt.Errorf("executor: no index on %s.%s", inner.Table, inner.IndexCol)
	}
	cn := &cNode{op: n.Op, lineage: n, left: left, table: t, index: ix}
	cn.rels = append(append(make([]relBind, 0, len(left.rels)+1), left.rels...), relBind{table: t, alias: inner.Alias})
	cn.slots = make([]int, len(cn.rels))
	for i := range cn.slots {
		cn.slots[i] = c.alloc()
	}
	cn.leftKey, cn.leftSlot, err = c.keyCol(n.LeftCol, left)
	if err != nil {
		return nil, err
	}
	if cn.leftKey.Kind != tpch.KindNumeric {
		return nil, fmt.Errorf("executor: index-nested-loop probe on string key %s", n.LeftCol)
	}
	innerRels := []relBind{{table: t, alias: inner.Alias}}
	cn.innerFilters, err = c.preds(inner.Filters, innerRels, []int{-1}, nil, nil)
	if err != nil {
		return nil, err
	}
	// Join-level filters: inner-side columns are evaluated against the
	// direct probed row id (slot -1), outer columns against the left tuple.
	cn.joinFilters, err = c.preds(n.Filters, left.rels, left.slots, innerRels, []int{-1})
	if err != nil {
		return nil, err
	}
	return cn, nil
}

func (c *compiler) agg(n *optimizer.Node, child *cNode) (*cAgg, error) {
	agg := &cAgg{}
	for _, g := range n.GroupBy {
		col, slot, _, err := c.resolve(g, child.rels, child.slots, nil, nil)
		if err != nil {
			return nil, fmt.Errorf("executor: group-by column %s not in input", g)
		}
		agg.groupCols = append(agg.groupCols, aggCol{col: col, slot: slot})
		agg.outSchema = append(agg.outSchema, g)
	}
	for _, item := range n.Aggs {
		if item.Agg == optimizer.AggNone {
			continue // plain group-by column, already emitted
		}
		spec := aggColSpec{fn: item.Agg, slot: -1}
		if !(item.Agg == optimizer.AggCount && item.Col.Column == "") {
			col, slot, _, err := c.resolve(item.Col, child.rels, child.slots, nil, nil)
			if err != nil {
				return nil, fmt.Errorf("executor: aggregate column %s not in input", item.Col)
			}
			if item.Agg != optimizer.AggCount && col.Kind != tpch.KindNumeric {
				return nil, fmt.Errorf("executor: aggregate over string column %s", item.Col)
			}
			spec.col, spec.slot = col, slot
		}
		agg.specs = append(agg.specs, spec)
		agg.outSchema = append(agg.outSchema, optimizer.ColRef{Column: item.String()})
	}
	return agg, nil
}

// keyCol resolves a join key column within one input subtree.
func (c *compiler) keyCol(ref optimizer.ColRef, in *cNode) (*tpch.Column, int, error) {
	col, slot, _, err := c.resolve(ref, in.rels, in.slots, nil, nil)
	if err != nil {
		return nil, 0, fmt.Errorf("executor: join column %s not in input", ref)
	}
	return col, slot, nil
}

// resolve locates a column reference among the left (side 0) and right
// (side 1) relation lists.
func (c *compiler) resolve(ref optimizer.ColRef, lrels []relBind, lslots []int, rrels []relBind, rslots []int) (*tpch.Column, int, int, error) {
	for i, r := range lrels {
		if r.alias == ref.Alias {
			if col := r.table.Column(ref.Column); col != nil {
				return col, lslots[i], 0, nil
			}
		}
	}
	for i, r := range rrels {
		if r.alias == ref.Alias {
			if col := r.table.Column(ref.Column); col != nil {
				return col, rslots[i], 1, nil
			}
		}
	}
	return nil, 0, 0, fmt.Errorf("executor: column %s not in schema", ref)
}

// preds compiles a filter list against a (left, right) input context. Scan
// contexts pass only the left side with slot -1 or the scan's slot; the
// slot value is irrelevant for scans because scan evaluation uses direct
// row ids.
func (c *compiler) preds(preds []optimizer.Predicate, lrels []relBind, lslots []int, rrels []relBind, rslots []int) ([]cPred, error) {
	if len(preds) == 0 {
		return nil, nil
	}
	out := make([]cPred, 0, len(preds))
	for _, p := range preds {
		col, slot, side, err := c.resolve(p.Col, lrels, lslots, rrels, rslots)
		if err != nil {
			return nil, err
		}
		cpd := cPred{
			kind: p.Kind, op: p.Op, value: p.Value, paramIdx: -1,
			lo: p.Lo, hi: p.Hi, strValue: p.StrValue,
			col: col, slot: slot, side: side,
		}
		switch p.Kind {
		case optimizer.PredCmpNum:
			if col.Kind != tpch.KindNumeric {
				return nil, fmt.Errorf("executor: numeric predicate over string column %s", p.Col)
			}
			if c.q != nil && p.ParamIdx >= 0 {
				if p.ParamIdx >= c.cp.nParams {
					return nil, fmt.Errorf("executor: plan references parameter %d, template has %d", p.ParamIdx, c.cp.nParams)
				}
				cpd.paramIdx = p.ParamIdx
			}
		case optimizer.PredBetween:
			if col.Kind != tpch.KindNumeric {
				return nil, fmt.Errorf("executor: numeric predicate over string column %s", p.Col)
			}
		case optimizer.PredCmpStr:
			if col.Kind != tpch.KindString {
				return nil, fmt.Errorf("executor: string predicate over numeric column %s", p.Col)
			}
		case optimizer.PredJoin:
			col2, slot2, side2, err := c.resolve(p.RightCol, lrels, lslots, rrels, rslots)
			if err != nil {
				return nil, err
			}
			cpd.col2, cpd.slot2, cpd.side2 = col2, slot2, side2
		default:
			return nil, fmt.Errorf("executor: cannot compile predicate %s", p)
		}
		out = append(out, cpd)
	}
	return out, nil
}
