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
	"slices"
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
	nNodes    int
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

// kernel is the implementation Compile put a key-consuming operator on,
// chosen from the facts of its key columns (facts.go).
type kernel uint8

const (
	// kernGeneric hashes (hash join, GROUP BY), sorts (merge join) or binary-
	// searches (index-nested-loop join) its keys. It serves what addressing
	// cannot: a string key, a column holding a fraction, NaN or -0, a span
	// much wider than the column, a multi-column GROUP BY.
	kernGeneric kernel = iota
	// kernAddressed uses key - keyLo as the position in a direct table.
	kernAddressed
	// kernAddressedOnce is kernAddressed for a hash join whose build input
	// holds every key at most once (a scan of a column with no repeated
	// value), so a probe finds at most one match and does not branch on it.
	kernAddressedOnce
)

func (k kernel) String() string {
	return [...]string{"generic", "addressed", "addressed-once"}[k]
}

// gatherOp builds one live output vector of a join from a child's vector
// and the join's match pairs. src -1 is the inner relation of an index-
// nested-loop join, whose matched row ids are the right halves themselves.
type gatherOp struct {
	dst, src int
	right    bool // index through matchR rather than matchL
}

// cNode is one compiled operator.
type cNode struct {
	op    optimizer.OpKind
	left  *cNode
	right *cNode // nil for scans and index-nested-loop joins

	// ord numbers the operators of a plan; Arena.nrows[ord] is the operator's
	// output tuple count, which is all a dead slot keeps.
	ord int

	// unordered: nothing above observes the order of the operator's output
	// tuples (cNode.orderLiveness).
	unordered bool

	// lineage is the plan node this operator was compiled from. It ties
	// observed cardinalities (ExecObserve) back to the optimizer's
	// estimates and, through Node.IndexSite/JoinSite, to the template
	// predicate sites the adaptive statistics layer corrects.
	lineage *optimizer.Node

	rels  []relBind
	slots []int // arena slot per relation, parallel to rels

	// Scans (and the inner side of index-nested-loop joins). ranges holds the
	// relation's range filters, evaluated on the columns' bitmaps; filters
	// (innerFilters below for the join) the ones that read the column.
	// fromRun marks an unordered sequential scan whose one range filter passes
	// a run of its column's value order (cPred.isRun): it reads its rows off
	// that run and builds no bitmap. streamed marks a sequential scan whose
	// rows are its range filters' bitmap and whose one reader reads them once,
	// in ascending order (cNode.streams): it hands that reader the bitmap
	// (Arena.sets) and extracts no vector.
	table    *tpch.Table
	index    *tpch.Index
	lo, hi   float64
	derive   []optimizer.BoundDerive
	ranges   []cPred
	filters  []cPred
	fromRun  bool
	streamed bool

	// Joins.
	leftKey     *tpch.Column
	rightKey    *tpch.Column
	leftSlot    int
	rightSlot   int
	buildLeft   bool
	strKey      bool
	joinFilters []cPred

	// Key addressing (kernel != kernGeneric): the table covers the keySpan
	// keys from keyLo up — the build column's span for a hash join, the
	// intersection of both columns' spans for a merge join, the index's span
	// (as the directory dir) for an index-nested-loop join.
	kernel  kernel
	keyLo   int
	keySpan int
	dir     []int32

	// gathers lists the output vectors something above this join reads — a
	// join key, a residual filter, a group or aggregate column, the result.
	// The other slots are dead: nothing is gathered into them. A join with
	// none live is countOnly: it counts its matches into Arena.nrows and
	// records no pair (a root join under a COUNT(*) that reads no column).
	gathers   []gatherOp
	countOnly bool

	// Index-nested-loop joins: the inner relation's residual filters other
	// than ranges; the probe index and table live in index/table above.
	innerFilters []cPred
}

// cAgg is the compiled root aggregation.
type cAgg struct {
	groupCols []aggCol
	specs     []aggColSpec
	outSchema Schema

	// kernel is kernAddressed when the one group column is dense integers:
	// group ids then come from a direct table over [keyLo, keyLo+keySpan).
	kernel  kernel
	keyLo   int
	keySpan int
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

	// rb is the column's bitmaps, for a range filter of a scan or of an
	// index-nested-loop join's inner relation (cNode.ranges).
	rb *rangeBits

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
		for _, g := range agg.groupCols {
			c.live[g.slot] = true
		}
		for _, sp := range agg.specs {
			if sp.col != nil {
				c.live[sp.slot] = true
			}
		}
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
			c.live[slot] = true
		}
	}
	c.gathers(cp.root)
	// The root observes the order of its tuples — a bare result lists them,
	// GROUP BY numbers its groups in first-seen order, SUM and AVG add in tuple
	// order, MIN and MAX keep the first of two equal zeros — unless it is a
	// global aggregate of COUNTs alone.
	cp.root.orderLiveness(cp.agg == nil || len(cp.agg.groupCols) > 0 ||
		slices.ContainsFunc(cp.agg.specs, func(sp aggColSpec) bool { return sp.fn != optimizer.AggCount }))
	// A global aggregate folds its input's tuples once, in order, and COUNT is
	// their number: a scan beneath it can hand it the bitmap.
	cp.root.streams(cp.agg != nil && len(cp.agg.groupCols) == 0)
	cp.nSlots, cp.nNodes = c.nSlots, c.nNodes
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
	nNodes int
	live   []bool // per slot: something reads the vector
}

func (c *compiler) alloc() int {
	s := c.nSlots
	c.nSlots++
	c.live = append(c.live, false)
	return s
}

// newNode numbers a compiled operator.
func (c *compiler) newNode(n cNode) *cNode {
	n.ord = c.nNodes
	c.nNodes++
	return &n
}

// gathers decides slot liveness, top down: the root's readers have marked
// their slots; a join gathers the output vectors that are marked, which in
// turn marks the child vectors they are gathered from, and marks what the
// join itself reads of its inputs — its keys and its residual filters'
// columns. A scan always produces its one vector (the filter kernels write
// it as they go), so only joins have dead slots, and a join whose slots are
// all dead only counts.
func (c *compiler) gathers(n *cNode) {
	if n.left == nil {
		return
	}
	nl := len(n.left.slots)
	for x, dst := range n.slots {
		if !c.live[dst] {
			continue
		}
		g := gatherOp{dst: dst, src: -1, right: x >= nl}
		if !g.right {
			g.src = n.left.slots[x]
		} else if n.right != nil {
			g.src = n.right.slots[x-nl]
		}
		if g.src >= 0 {
			c.live[g.src] = true
		}
		n.gathers = append(n.gathers, g)
	}
	n.countOnly = len(n.gathers) == 0
	if n.leftKey != nil {
		c.live[n.leftSlot] = true
	}
	if n.rightKey != nil {
		c.live[n.rightSlot] = true
	}
	for _, p := range n.joinFilters {
		// Slot -1 is an index-nested-loop join's directly probed inner row.
		if p.slot >= 0 {
			c.live[p.slot] = true
		}
		if p.kind == optimizer.PredJoin && p.slot2 >= 0 {
			c.live[p.slot2] = true
		}
	}
	c.gathers(n.left)
	if n.right != nil {
		c.gathers(n.right)
	}
}

// orderLiveness decides, top down beside slot liveness, which operators'
// output order something observes. A join observes its inputs' order when
// something observes its own — which pairs match, and so the count, does not
// depend on it — except a sort-based merge join, which always does: its
// stable sort is no total order over NaN keys, so which keys meet depends on
// the order they arrived in. An unordered sequential scan with one range
// filter that passes a run of its column's value order takes the run.
func (n *cNode) orderLiveness(observed bool) {
	n.unordered = !observed
	if n.left == nil {
		n.fromRun = n.unordered && n.op == optimizer.OpSeqScan && len(n.ranges) == 1 && n.ranges[0].isRun()
		return
	}
	observed = observed || n.op == optimizer.OpMergeJoin && n.kernel == kernGeneric
	n.left.orderLiveness(observed)
	if n.right != nil {
		n.right.orderLiveness(observed)
	}
}

// streams decides, top down after slot and order liveness, which sequential
// scans hand their reader the range bitmap instead of extracting it: a scan
// whose rows are exactly the bitmap — range filters, no other filter, no run
// — when its vector has one reader, which reads it once in ascending row
// order. readOnce says the operator's output has such a reader: the root,
// when it is a global aggregate, which folds its input, or a hash join's
// probe loop, when the join neither gathers from nor filters on the probe
// side's vector, so the probe key is all it reads of it. Every other scan
// extracts its vector.
func (n *cNode) streams(readOnce bool) {
	if n.left == nil {
		n.streamed = readOnce && n.op == optimizer.OpSeqScan && len(n.ranges) > 0 && len(n.filters) == 0 && !n.fromRun
		return
	}
	probe, slot := n.left, n.leftSlot
	if n.buildLeft {
		probe, slot = n.right, n.rightSlot
	}
	readsProbe := n.op != optimizer.OpHashJoin ||
		slices.ContainsFunc(n.gathers, func(g gatherOp) bool { return g.src == slot }) ||
		slices.ContainsFunc(n.joinFilters, func(p cPred) bool {
			return p.slot == slot || p.kind == optimizer.PredJoin && p.slot2 == slot
		})
	n.left.streams(n.left == probe && !readsProbe)
	if n.right != nil {
		n.right.streams(n.right == probe && !readsProbe)
	}
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
	cn := c.newNode(cNode{
		op:      n.Op,
		lineage: n,
		table:   t,
		rels:    []relBind{{table: t, alias: n.Alias}},
		slots:   []int{c.alloc()},
	})
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
	filters, err := c.preds(n.Filters, cn.rels, cn.slots, nil, nil)
	if err != nil {
		return nil, err
	}
	cn.ranges, cn.filters = c.splitRanges(t, filters)
	return cn, nil
}

// splitRanges separates one relation's range filters, which run first and
// on bitmaps, from the rest, and binds each to its column's bitmaps.
func (c *compiler) splitRanges(t *tpch.Table, filters []cPred) (ranges, rest []cPred) {
	for _, p := range filters {
		if p.isRange() {
			p.bindRange(c.e.rangeFor(t, p.col))
			ranges = append(ranges, p)
		} else {
			rest = append(rest, p)
		}
	}
	return ranges, rest
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
	cn := c.newNode(cNode{op: n.Op, lineage: n, left: left, right: right})
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
		lf, rf := c.e.factsFor(cn.leftKey), c.e.factsFor(cn.rightKey)
		switch n.Op {
		case optimizer.OpHashJoin:
			cn.buildLeft = n.BuildLeft
			c.cp.needHTStr = c.cp.needHTStr || cn.strKey
			build, bf, pf := right, rf, lf
			if n.BuildLeft {
				build, bf, pf = left, lf, rf
			}
			// The table spans the build column; a probe key outside it misses
			// on the bounds check, so the probe column need only be integral.
			if bf.dense && pf.integral {
				cn.kernel, cn.keyLo, cn.keySpan = kernAddressed, bf.lo, bf.span()
				if bf.unique && build.left == nil {
					cn.kernel = kernAddressedOnce
				}
			}
		case optimizer.OpMergeJoin:
			if cn.strKey {
				return nil, fmt.Errorf("executor: merge join on string key %s", n.LeftCol)
			}
			// Only keys both columns hold can match: the tables span the
			// intersection, which is no wider than the dense side's span.
			if lf.integral && rf.integral && (lf.dense || rf.dense) {
				cn.kernel, cn.keyLo = kernAddressed, max(lf.lo, rf.lo)
				cn.keySpan = max(0, min(lf.hi, rf.hi)-cn.keyLo+1)
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
	cn := c.newNode(cNode{op: n.Op, lineage: n, left: left, table: t, index: ix})
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
	if c.e.factsFor(cn.leftKey).integral {
		if d := c.e.dirFor(ix); d.off != nil {
			cn.kernel, cn.keyLo, cn.dir = kernAddressed, d.lo, d.off
		}
	}
	innerRels := []relBind{{table: t, alias: inner.Alias}}
	innerFilters, err := c.preds(inner.Filters, innerRels, []int{-1}, nil, nil)
	if err != nil {
		return nil, err
	}
	cn.ranges, cn.innerFilters = c.splitRanges(t, innerFilters)
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
	if len(agg.groupCols) == 1 {
		if f := c.e.factsFor(agg.groupCols[0].col); f.dense {
			agg.kernel, agg.keyLo, agg.keySpan = kernAddressed, f.lo, f.span()
		}
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
