package optimizer

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"

	"repro/internal/faults"
	"repro/internal/stats"
	"repro/internal/tpch"
)

// maxJoinRelations bounds the FROM list of an optimizable query. The
// enumeration keeps one candidate set per relation subset, so its scratch
// grows as 2^n; twelve relations (4096 subsets) is past anything the
// templates need and keeps a hostile FROM list from sizing allocations.
const maxJoinRelations = 12

// JoinLimitError reports a query whose FROM list exceeds the enumeration's
// relation limit.
type JoinLimitError struct {
	Relations int // relations in the rejected query
	Limit     int
}

func (e *JoinLimitError) Error() string {
	return fmt.Sprintf("optimizer: query joins %d relations, limit is %d", e.Relations, e.Limit)
}

// TypeError reports a query the execution engines cannot type: a numeric
// comparison or BETWEEN over a string column, a string equality over a
// numeric column, an equi-join between a numeric and a string column, or a
// SUM/AVG/MIN/MAX over a string column. NewMemo rejects such a query, so
// every plan the optimizer emits compiles (Executor.Compile,
// CompileRebind) — which is what lets the serving path hold compiled plans
// only.
type TypeError struct {
	Expr   string // the offending predicate or select item, as written
	Reason string
}

func (e *TypeError) Error() string {
	return fmt.Sprintf("optimizer: %s: %s", e.Expr, e.Reason)
}

// colKind looks up the kind of a column of a bound alias in the catalog.
func (o *Optimizer) colKind(q *Query, c ColRef) (tpch.ColKind, error) {
	cs, err := o.cat.Column(q.Binding(c.Alias).Table, c.Column)
	if err != nil {
		return 0, err
	}
	return cs.Kind, nil
}

// checkTypes applies the type rule TypeError documents.
func (o *Optimizer) checkTypes(q *Query) error {
	for _, p := range q.Preds {
		k, err := o.colKind(q, p.Col)
		if err != nil {
			return err
		}
		switch p.Kind {
		case PredCmpNum, PredBetween:
			if k != tpch.KindNumeric {
				return &TypeError{Expr: p.String(), Reason: "numeric comparison over a string column"}
			}
		case PredCmpStr:
			if k != tpch.KindString {
				return &TypeError{Expr: p.String(), Reason: "string comparison over a numeric column"}
			}
		case PredJoin:
			rk, err := o.colKind(q, p.RightCol)
			if err != nil {
				return err
			}
			if rk != k {
				return &TypeError{Expr: p.String(), Reason: "join between a numeric and a string column"}
			}
		}
	}
	for _, s := range q.Select {
		if s.Agg == AggNone || s.Agg == AggCount {
			continue
		}
		if k, err := o.colKind(q, s.Col); err != nil {
			return err
		} else if k != tpch.KindNumeric {
			return &TypeError{Expr: s.String(), Reason: "aggregate over a string column"}
		}
	}
	return nil
}

// Memo is the per-template optimization memo: every piece of the
// Selinger-style enumeration that does not depend on parameter values is
// computed once per template and reused across all of its optimizations.
// It has two parts. The shape — table binding, access paths, the oriented
// join steps with their fingerprint headers, the output-order table — is a
// function of the query and the database alone and is shared by every
// refresh of the memo. The join selectivities embed the template's
// correction factors, so they are per correction epoch: RefreshMemo
// re-derives them and nothing else.
//
// A Memo is immutable; the pooled enumeration scratch hangs off the shape.
// It is safe for concurrent OptimizeMemo calls (misses and audits on one
// hot template race freely).
//
// Everything parameter-free is read from the optimizer that calls NewMemo
// and frozen in the shape: table row counts, distinct counts (base join
// selectivities, matches per index-NL probe, the GROUP BY product), and the
// handles the per-call estimates probe — each predicate's column and the
// template's correction state. A memo therefore estimates through the
// statistics provider that was in place at NewMemo; only the per-epoch join
// correction factors are asked of the optimizer that refreshes it.
type Memo struct {
	shape *memoShape

	// joinSel[j] is the corrected selectivity of shape.joins[j].
	joinSel []float64

	// StatsEpoch is the template's correction epoch captured when the join
	// selectivities were derived. Every plan the memo produces embeds that
	// epoch's join correction factors; holders compare it against
	// Stats().Epoch(template) and call RefreshMemo when it moves.
	StatsEpoch uint64
}

// memoShape is the parameter-free, epoch-free part of a Memo.
type memoShape struct {
	q      *Query
	hasAgg bool
	// groups is the product of the GROUP BY columns' distinct counts (1
	// without GROUP BY): the parameter-free part of the group estimate.
	groups float64

	// corr is the template's correction state (nil: identity), resolved
	// once so that neither a call's estimates nor a refresh look it up.
	corr *stats.Corrections

	rels  []relShape
	joins []Predicate // join predicates in WHERE order
	// joinBase[j] is the base (uncorrected) selectivity of joins[j].
	joinBase []float64
	// steps holds two oriented copies of every join predicate: steps[2j]
	// as written (attaching the right column's relation), steps[2j+1]
	// flipped.
	steps []joinStep

	// orders interns every output order an entry can have; id 0 is the
	// zero ColRef (no order). orderRank[id] is the id's position in
	// ascending ColRef.String() order, the order the final pick visits
	// candidate sets in.
	orders    []ColRef
	orderRank []int16

	// aggHead is the fingerprint header of the aggregate over the join
	// tree, "Agg[cols](" ("" without one).
	aggHead string
	// prints memoizes a winner's fingerprint by its DP chain, which
	// determines it as a function of the shape alone, like heads and print.
	printsMu sync.RWMutex
	prints   map[chainKey]string

	scratch sync.Pool // *dpScratch
}

// chainKey identifies a plan of a shape by its DP chain, one word per entry
// from the root down: relation, method, access path and driving step. Words
// past the leaf scan are zero; no entry's word is (a scan's step is -1).
type chainKey [maxJoinRelations]uint64

// relShape is one FROM entry: its template predicates and access paths.
type relShape struct {
	ref      TableRef
	baseRows float64
	preds    []Predicate    // single-table template predicates, WHERE order
	cols     []stats.Column // statistics handle of each pred's column
	paths    []pathShape    // [0] sequential scan, then one per index column ascending
	pathOff  int            // offset of paths in the flat per-call cost array
	// steps lists, in WHERE order, the oriented joins that attach this
	// relation to a subset containing the step's left relation.
	steps []int32
}

// pathShape is one access path of a relation.
type pathShape struct {
	col       string // index column; "" for the sequential scan
	order     int16  // output order id
	driving   int    // index into relShape.preds of the sargable predicate driving the index range, -1 if none
	clustered bool   // index on the column the table is physically ordered by
	print     string // the scan's fingerprint, "Seq(a)" or "Idx(a.col)"
}

// joinStep is a join predicate oriented for one DP step: pred.Col is on the
// already-joined (left) side, pred.RightCol on the relation being attached.
type joinStep struct {
	pred       Predicate
	join       int // index into memoShape.joins / Memo.joinSel
	leftRel    int
	rightRel   int
	leftOrder  int16 // order id of pred.Col
	rightOrder int16 // order id of pred.RightCol
	// strKey marks a join on string columns: it hashes but never merges
	// (merge join compares numeric keys).
	strKey bool
	// heads are the fingerprint headers of the step's join methods,
	// indexed by method-methodHashJoin: "HJ[l=r](", "HJ^[l=r](",
	// "MJ[l=r](", "INL[l=r](".
	heads [4]string
	// Index nested-loop: inlPath is the attached relation's access path
	// over pred.RightCol's index (-1 when the column has none).
	inlPath         int
	matchesPerOuter float64
}

// Join methods of a dpEntry. The four predicate joins are contiguous and in
// the order candidates are offered.
const (
	methodScan uint8 = iota
	methodHashJoin
	methodHashJoinBuildLeft
	methodMergeJoin
	methodIndexNLJoin
	methodNLJoin
)

const nlHead = "NL("

// dpEntry is one DP candidate: the cheapest known way to produce a relation
// subset in one output order. It is a small value record; the plan it
// stands for is recovered by walking parent pointers.
type dpEntry struct {
	cost   float64
	rows   float64
	parent int32 // arena index of the left input's entry; -1 for a base scan
	step   int32 // driving oriented join; -1 for scans and cross products
	order  int16 // output order id
	path   int16 // access path of rel: the scan itself, or the join's right input
	rel    uint8 // the relation scanned, or attached by this join
	method uint8
}

// dpScratch is the pooled per-call enumeration state. Nothing in it
// outlives the call: the winner is copied out into fresh plan nodes.
type dpScratch struct {
	// entries is the candidate arena. Subsets are filled in ascending mask
	// order, each one completely before the next, so subset T's candidate
	// set is entries[setOff[T]:setOff[T+1]].
	entries []dpEntry
	setOff  []int32
	// leftSort[i] is the cost of sorting entries[i]'s output, for merge
	// joins that take it as an unsorted left input.
	leftSort []float64

	sels     []float64 // selectivities of the predicates of the relation being costed
	pathCost []float64 // per access path (relShape.pathOff)
	relRows  []float64 // per relation: output rows of any of its scans
	relSort  []float64 // per relation: cost of sorting a scan's output
	cheapest []int16   // per relation: its cheapest access path
	probe    []float64 // per join step: index nested-loop cost per outer row

	conn  []int32 // joins connecting the current (subset, relation) step
	visit []int32 // final set in canonical order
}

// NewMemo validates the query once and precomputes its parameter-
// independent optimization state.
func (o *Optimizer) NewMemo(q *Query) (*Memo, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	n := len(q.Tables)
	if n > maxJoinRelations {
		return nil, &JoinLimitError{Relations: n, Limit: maxJoinRelations}
	}
	sh := &memoShape{q: q, hasAgg: len(q.GroupBy) > 0 || hasAggregates(q), groups: o.groupDistinct(q),
		prints: make(map[chainKey]string)}
	if sh.hasAgg {
		var b strings.Builder
		writeAggHead(&b, q.GroupBy)
		sh.aggHead = b.String()
	}

	orderIDs := map[ColRef]int16{{}: 0}
	sh.orders = []ColRef{{}}
	orderID := func(c ColRef) int16 {
		id, ok := orderIDs[c]
		if !ok {
			id = int16(len(sh.orders))
			orderIDs[c] = id
			sh.orders = append(sh.orders, c)
		}
		return id
	}

	aliasIdx := make(map[string]int, n)
	sh.rels = make([]relShape, n)
	for i, t := range q.Tables {
		aliasIdx[t.Alias] = i
		sh.rels[i].ref = t
	}
	for _, p := range q.Preds {
		if p.Kind == PredJoin {
			sh.joins = append(sh.joins, p)
		} else {
			r := &sh.rels[aliasIdx[p.Col.Alias]]
			r.preds = append(r.preds, p)
		}
	}

	npaths := 0
	for i := range sh.rels {
		r := &sh.rels[i]
		table := o.db.Table(r.ref.Table)
		if table == nil {
			return nil, fmt.Errorf("optimizer: unknown table %s", r.ref.Table)
		}
		r.baseRows = float64(table.NumRows())
		r.pathOff = npaths
		clustered := clusteredColumn(table)
		// Generated tables are physically ordered by their first (key)
		// column, so a sequential scan provides that order.
		r.paths = append(r.paths, pathShape{
			order:   orderID(ColRef{Alias: r.ref.Alias, Column: clustered}),
			driving: -1,
			print:   "Seq(" + r.ref.Alias + ")",
		})
		// One path per index: a range scan when a sargable predicate can
		// drive it, otherwise a full-range scan that provides sort order.
		idxCols := make([]string, 0, len(table.Indexes))
		for col := range table.Indexes {
			idxCols = append(idxCols, col)
		}
		sort.Strings(idxCols)
		for _, col := range idxCols {
			r.paths = append(r.paths, pathShape{
				col:       col,
				order:     orderID(ColRef{Alias: r.ref.Alias, Column: col}),
				driving:   sargable(r.preds, col),
				clustered: col == clustered,
				print:     "Idx(" + r.ref.Alias + "." + col + ")",
			})
		}
		npaths += len(r.paths)
	}
	if err := o.checkTypes(q); err != nil {
		return nil, err
	}
	if err := o.bindShape(sh); err != nil {
		return nil, err
	}

	sh.steps = make([]joinStep, 0, 2*len(sh.joins))
	for j, p := range sh.joins {
		// The flipped copy carries the site along: a join predicate's
		// correction identity does not depend on which side ends up left.
		flipped := Predicate{Kind: PredJoin, Col: p.RightCol, RightCol: p.Col, ParamIdx: -1, Site: p.Site}
		for _, pred := range []Predicate{p, flipped} {
			left, right := aliasIdx[pred.Col.Alias], aliasIdx[pred.RightCol.Alias]
			st := joinStep{
				pred: pred, join: j, leftRel: left, rightRel: right,
				leftOrder: orderID(pred.Col), rightOrder: orderID(pred.RightCol),
				inlPath: -1,
			}
			// checkTypes vouched for the column, and for both sides being
			// of one kind.
			if k, _ := o.colKind(q, pred.Col); k == tpch.KindString {
				st.strKey = true
			}
			for m, tag := range [4]string{"HJ", "HJ^", "MJ", "INL"} {
				var b strings.Builder
				writeJoinHead(&b, tag, pred.Col, pred.RightCol)
				st.heads[m] = b.String()
			}
			rr := &sh.rels[right]
			for k, path := range rr.paths {
				if k > 0 && path.col == pred.RightCol.Column {
					col, err := o.stats.Column(rr.ref.Table, path.col)
					if err != nil {
						return nil, err
					}
					st.inlPath = k
					st.matchesPerOuter = rr.baseRows / math.Max(col.DistinctCount(), 1)
				}
			}
			rr.steps = append(rr.steps, int32(len(sh.steps)))
			sh.steps = append(sh.steps, st)
		}
	}

	byName := make([]int16, len(sh.orders))
	for i := range byName {
		byName[i] = int16(i)
	}
	sort.SliceStable(byName, func(a, b int) bool {
		return sh.orders[byName[a]].String() < sh.orders[byName[b]].String()
	})
	sh.orderRank = make([]int16, len(sh.orders))
	for rank, id := range byName {
		sh.orderRank[id] = int16(rank)
	}

	nsteps := len(sh.steps)
	sh.scratch.New = func() any {
		return &dpScratch{
			setOff:   make([]int32, (1<<uint(n))+1),
			pathCost: make([]float64, npaths),
			relRows:  make([]float64, n),
			relSort:  make([]float64, n),
			cheapest: make([]int16, n),
			probe:    make([]float64, nsteps),
		}
	}
	return o.deriveMemo(sh), nil
}

// bindShape resolves what the per-call estimates and the per-epoch join
// selectivities read: each single-table predicate's column handle, each
// join's base selectivity and the template's correction state. After it, no
// OptimizeMemo or RefreshMemo looks a table, column or template up by name.
func (o *Optimizer) bindShape(sh *memoShape) error {
	sh.corr = o.corrections(sh.q)
	var err error
	for i := range sh.rels {
		r := &sh.rels[i]
		if r.cols, err = o.predColumns(r.ref.Table, r.preds); err != nil {
			return err
		}
	}
	sh.joinBase = make([]float64, len(sh.joins))
	for j := range sh.joins {
		if sh.joinBase[j], err = o.baseJoinSelectivity(sh.q, &sh.joins[j]); err != nil {
			return err
		}
	}
	return nil
}

// RefreshMemo returns a memo for the same template at the provider's
// current correction epoch. It re-derives the join selectivities — the only
// memoized state corrections reach — from the shape's base selectivities,
// resolving no column, and shares the shape and the scratch pool with m,
// which stays valid. The error is always nil.
func (o *Optimizer) RefreshMemo(m *Memo) (*Memo, error) {
	return o.deriveMemo(m.shape), nil
}

// deriveMemo computes the per-epoch half of a memo over a shape. Join
// selectivities are parameter-free (the shape's 1/max distinct, corrected by
// the site factor), so they hold until the correction epoch moves. The epoch
// is read first: a correction landing mid-derivation leaves the memo stamped
// older than its contents and it is refreshed once more, never served stale.
func (o *Optimizer) deriveMemo(sh *memoShape) *Memo {
	tmpl := sh.q.Template
	m := &Memo{shape: sh, StatsEpoch: o.stats.Epoch(tmpl), joinSel: make([]float64, len(sh.joins))}
	for j := range sh.joins {
		m.joinSel[j] = o.stats.Correct(tmpl, sh.joins[j].Site, sh.joinBase[j])
	}
	return m
}

// sargable picks the predicate usable as an index range on col: the first
// numeric comparison or BETWEEN on the column, except that an equality
// (the most selective) takes over from a range. -1 when there is none.
func sargable(preds []Predicate, col string) int {
	best := -1
	for i, p := range preds {
		if p.Col.Column != col {
			continue
		}
		switch p.Kind {
		case PredCmpNum, PredBetween:
			if best == -1 || (p.Kind == PredCmpNum && p.Op == OpEq) {
				best = i
			}
		}
	}
	return best
}

// connecting appends to dst the oriented joins linking relation r to the
// subset mask, in WHERE order. The first is the step's driving predicate;
// the rest filter its output.
func (sh *memoShape) connecting(dst []int32, mask, r int) []int32 {
	for _, s := range sh.rels[r].steps {
		if mask&(1<<uint(sh.steps[s].leftRel)) != 0 {
			dst = append(dst, s)
		}
	}
	return dst
}

// OptimizeMemo selects the cheapest plan for the memoized template at the
// given parameter values. It produces the identical plan Optimize would —
// both run the same enumeration core — while skipping all per-call
// template analysis.
func (o *Optimizer) OptimizeMemo(m *Memo, params []float64) (*Plan, error) {
	return o.OptimizeMemoHeld(m, params, nil)
}

// OptimizeMemoHeld is OptimizeMemo for a caller that may hold the winner
// already: once the enumeration has picked it, its fingerprint is asked of
// held, and when held answers true the plan comes back named and costed —
// Fingerprint and Cost bit-equal to OptimizeMemo's — with a nil Root and no
// tree built. A nil held builds every winner.
func (o *Optimizer) OptimizeMemoHeld(m *Memo, params []float64, held func(fingerprint string) bool) (*Plan, error) {
	o.faults.Sleep(faults.OptimizerLatency)
	if err := o.faults.Fail(faults.OptimizerError); err != nil {
		return nil, fmt.Errorf("optimizer: %w", err)
	}
	return o.optimizeCore(m, params, held)
}

// fingerprint returns the fingerprint of the entry's plan: rendered from its
// segments on the chain's first sight, read from the shape's memo after.
func (sh *memoShape) fingerprint(sc *dpScratch, e *dpEntry) string {
	var key chainKey
	for d, x := 0, e; ; d++ {
		key[d] = uint64(x.rel) | uint64(x.method)<<8 | uint64(uint16(x.path))<<16 | uint64(uint32(x.step))<<32
		if x.parent < 0 {
			break
		}
		x = &sc.entries[x.parent]
	}
	sh.printsMu.RLock()
	fp, ok := sh.prints[key]
	sh.printsMu.RUnlock()
	if ok {
		return fp
	}
	var b strings.Builder
	b.WriteString(sh.aggHead)
	var segs [maxPrintSegs]string
	for _, s := range sc.printSegments(sh, segs[:0], e) {
		b.WriteString(s)
	}
	if sh.hasAgg {
		b.WriteByte(')')
	}
	fp = b.String()
	sh.printsMu.Lock()
	sh.prints[key] = fp
	sh.printsMu.Unlock()
	return fp
}
