package optimizer

import (
	"fmt"
	"math"
	"math/bits"
	"slices"

	"repro/internal/catalog"
	"repro/internal/faults"
	"repro/internal/stats"
	"repro/internal/tpch"
)

// Optimizer is a cost-based query optimizer over a tpch database and its
// catalog statistics. It is deterministic: equal queries, statistics and
// parameter values yield identical plans (including tie-breaking), which
// the plan-space framework relies on.
//
// All base selectivity estimation goes through the stats.Provider, by
// default the static base provider over the catalog. Every estimate of a
// predicate that carries a template site is then multiplied by the site's
// current factor in the template's corrections (Query.Corr), so learned
// cardinality corrections move plan choice without touching the cost model.
type Optimizer struct {
	db     *tpch.Database
	cat    *catalog.Catalog
	stats  stats.Provider
	model  CostModel
	faults *faults.Injector
}

// New creates an optimizer. A nil model uses DefaultCostModel.
func New(db *tpch.Database, cat *catalog.Catalog) *Optimizer {
	return &Optimizer{db: db, cat: cat, stats: stats.NewBase(cat), model: DefaultCostModel()}
}

// NewWithModel creates an optimizer with a custom cost model (used by the
// drift experiments, which perturb the model mid-workload to shift plan
// spaces).
func NewWithModel(db *tpch.Database, cat *catalog.Catalog, model CostModel) *Optimizer {
	return &Optimizer{db: db, cat: cat, stats: stats.NewBase(cat), model: model}
}

// SetModel replaces the cost model. Subsequent optimizations see the new
// model; this is how the drift experiment manipulates the plan space.
func (o *Optimizer) SetModel(model CostModel) { o.model = model }

// Model returns the current cost model.
func (o *Optimizer) Model() CostModel { return o.model }

// SetStats replaces the selectivity provider. Set at construction time,
// before any Memo or RebindProgram is built: they hold the handles of the
// provider that built them.
func (o *Optimizer) SetStats(p stats.Provider) { o.stats = p }

// SetFaults attaches a fault injector (nil disables injection). Chaos tests
// use it to simulate optimizer outages and latency spikes.
func (o *Optimizer) SetFaults(inj *faults.Injector) { o.faults = inj }

// Optimize selects the cheapest plan for the query instantiated with the
// given parameter values (one per placeholder, in placeholder order). It
// builds a transient per-call Memo and runs the same enumeration core as
// OptimizeMemo, so one-shot and memoized optimization can never diverge in
// plan choice. Callers that optimize one template repeatedly should hold a
// Memo (NewMemo) and call OptimizeMemo to skip the per-call analysis.
func (o *Optimizer) Optimize(q *Query, params []float64) (*Plan, error) {
	o.faults.Sleep(faults.OptimizerLatency)
	if err := o.faults.Fail(faults.OptimizerError); err != nil {
		return nil, fmt.Errorf("optimizer: %w", err)
	}
	m, err := o.NewMemo(q)
	if err != nil {
		return nil, err
	}
	return o.optimizeCore(m, params, nil)
}

// nearTieFraction is the plan-stability window: two candidates whose costs
// differ by less than this fraction are considered tied, and the tie is
// broken canonically (smallest fingerprint). Commercial optimizers apply
// similar thresholds so that meaningless sub-percent cost differences do
// not flip plan choice; without it the plan space dissolves into
// salt-and-pepper fragments that violate the plan choice predictability
// assumption the paper validates in Appendix B.
const nearTieFraction = 0.05

// nearTie reports whether two costs fall inside the plan-stability window.
// The comparison is negated rather than flipped so that a NaN cost ties
// with everything and the fingerprint decides.
func nearTie(a, b float64) bool {
	lo, hi := a, b
	if lo > hi {
		lo, hi = hi, lo
	}
	return !(hi-lo > nearTieFraction*lo)
}

func hasAggregates(q *Query) bool {
	for _, s := range q.Select {
		if s.Agg != AggNone {
			return true
		}
	}
	return false
}

// clusteredColumn returns the column the table is physically ordered by —
// the generator emits rows in ascending order of the first (key) column.
func clusteredColumn(t *tpch.Table) string {
	if len(t.Columns) == 0 {
		return ""
	}
	return t.Columns[0].Name
}

// sargBounds converts a sargable predicate into index scan bounds.
func sargBounds(p Predicate) (lo, hi float64) {
	switch p.Kind {
	case PredBetween:
		return p.Lo, p.Hi
	case PredCmpNum:
		return SargBoundsFor(p.Op, p.Value)
	}
	return math.Inf(-1), math.Inf(1)
}

// instantiate substitutes the parameter value into a template predicate.
func instantiate(p Predicate, params []float64) Predicate {
	if p.Kind == PredCmpNum && p.ParamIdx >= 0 {
		p.Value = params[p.ParamIdx]
	}
	return p
}

// optimizeCore is the enumeration shared by Optimize and OptimizeMemo. No
// plan node exists until the winner is known, and no fingerprint string is
// rendered but the winner's, once per memo; buildPlan then materialises
// its tree once — unless held names it as a plan the caller has already.
func (o *Optimizer) optimizeCore(m *Memo, params []float64, held func(string) bool) (*Plan, error) {
	if got, want := len(params), m.q.ParamDegree(); got != want {
		return nil, fmt.Errorf("optimizer: got %d parameters, want %d", got, want)
	}
	sc := m.scratch.Get().(*dpScratch)
	defer m.scratch.Put(sc)
	o.enumerate(m, sc, params)
	best := &sc.entries[sc.best(m, int(sc.setOff[1<<uint(len(m.rels))-1]))]
	fp := m.fingerprint(sc, best)
	if held != nil && held(fp) {
		cost := best.cost
		if m.hasAgg {
			_, cost = o.aggregate(m, best.rows, best.cost)
		}
		return &Plan{Cost: cost, Fingerprint: fp}, nil
	}
	return o.buildPlan(m, sc, params, best, fp), nil
}

// aggregate estimates the memo's aggregate over a join tree of the given
// rows and cumulative cost: its groups, and the plan's cost with it.
func (o *Optimizer) aggregate(m *Memo, rows, cost float64) (groups, total float64) {
	groups = math.Max(math.Min(m.groups, rows), 1)
	return groups, cost + o.model.hashAggCost(rows, groups)
}

// enumerate runs the left-deep dynamic programming over relation subsets,
// on dpEntry value records in sc.
//
// Which candidate survives in a set depends on the sequence candidates are
// offered in, because the near-tie rule makes "better" non-transitive. The
// sequence per set is part of the contract: for subset T, relations r of T
// in descending order (the ascending order of the subsets T&^r they
// extend), left entries in slot order, then hash join building right, hash
// join building left, merge join per right access path, index nested-loop.
func (o *Optimizer) enumerate(m *Memo, sc *dpScratch, params []float64) {
	sc.entries = sc.entries[:0]
	sc.sortRows = math.NaN() // equal to no rows: the model may have changed
	sc.offers, sc.segCmps = 0, 0
	model := o.model
	costAccessPaths(m, sc, &model, params)
	for j := range m.joins {
		sc.joinSel[j] = m.q.Corr.CorrectSel(m.joins[j].Site, m.joinBase[j])
	}
	for s := range m.steps {
		if st := &m.steps[s]; st.inlPath >= 0 {
			inner := &m.rels[st.rightRel]
			sc.probe[s] = model.indexCost(inner.depth, st.matchesPerOuter, len(inner.preds), inner.paths[st.inlPath].clustered)
		}
	}

	n := len(m.rels)
	full := 1<<uint(n) - 1
	for T := 1; T <= full; T++ {
		sc.setOff[T] = int32(len(sc.entries))
		// A set holds at most one entry per output order. With that much
		// room reserved nothing appends past the capacity while it fills,
		// so entries of earlier sets are read in place.
		sc.entries = slices.Grow(sc.entries, len(m.orders))
		for i := range sc.slot {
			sc.slot[i] = -1
		}
		if T&(T-1) == 0 {
			// Single relation: its access paths, one entry per output order.
			i := bits.TrailingZeros(uint(T))
			r := &m.rels[i]
			for k := range r.paths {
				sc.offer(m, &dpEntry{
					cost: sc.pathCost[r.pathOff+k], rows: sc.relRows[i], parent: -1, step: -1,
					order: r.paths[k].order, path: int16(k), rel: uint8(i), method: methodScan,
				})
			}
		} else {
			for r := n - 1; r >= 0; r-- {
				if T&(1<<uint(r)) != 0 {
					o.joinCandidates(m, sc, &model, T&^(1<<uint(r)), r)
				}
			}
		}
	}
	sc.setOff[full+1] = int32(len(sc.entries))
}

// floorRows is math.Max(rows, 1e-6) as one comparison on the path every
// estimate takes; rows below the floor, and NaNs, take math.Max itself, so
// the result is its bits on every architecture.
func floorRows(rows float64) float64 {
	if rows >= 1e-6 {
		return rows
	}
	return math.Max(rows, 1e-6)
}

// costAccessPaths fills the per-call, per-relation state: predicate
// selectivities at the parameter values (the only estimates that depend on
// them — one probe of the memo's bound handle each), output rows, the cost
// of every access path and which is cheapest.
func costAccessPaths(m *Memo, sc *dpScratch, model *CostModel, params []float64) {
	for i := range m.rels {
		r := &m.rels[i]
		sels := sc.sels[:0]
		selAll := 1.0
		for j := range r.preds {
			p := &r.preds[j]
			s := m.q.Corr.CorrectSel(p.Site, predSel(r.cols[j], p, params))
			sels = append(sels, s)
			selAll *= s
		}
		sc.sels = sels
		sc.relRows[i] = floorRows(r.baseRows * selAll)
		sc.relSort[i] = model.sortCost(sc.relRows[i])

		costs := sc.pathCost[r.pathOff : r.pathOff+len(r.paths)]
		costs[0] = model.seqScanCost(r.baseRows, len(r.preds))
		cheapest := 0
		for k := 1; k < len(r.paths); k++ {
			path := &r.paths[k]
			matchSel, residual := 1.0, len(r.preds)
			if path.driving >= 0 {
				matchSel, residual = sels[path.driving], residual-1
			}
			matches := floorRows(r.baseRows * matchSel)
			costs[k] = model.indexCost(r.depth, matches, residual, path.clustered)
			if nearTie(costs[k], costs[cheapest]) {
				if path.print < r.paths[cheapest].print {
					cheapest = k
				}
			} else if costs[k] < costs[cheapest] {
				cheapest = k
			}
		}
		sc.cheapest[i] = int16(cheapest)
	}
}

// joinCandidates offers to the filling set every way of attaching relation
// r to each entry of subset mask.
func (o *Optimizer) joinCandidates(m *Memo, sc *dpScratch, model *CostModel, mask, r int) {
	rel := &m.rels[r]
	rightRows, rightSort := sc.relRows[r], sc.relSort[r]
	costs := sc.pathCost[rel.pathOff : rel.pathOff+len(rel.paths)]
	cheap := sc.cheapest[r]
	cheapCost := costs[cheap]
	sc.conn = m.connecting(sc.conn[:0], mask, r)

	for li := sc.setOff[mask]; li < sc.setOff[mask+1]; li++ {
		left := &sc.entries[li] // in place: the filling set's room is reserved
		c := dpEntry{parent: li, step: -1, path: cheap, rel: uint8(r)}
		if len(sc.conn) == 0 {
			// Cross product: nested-loop join over the cheapest right scan.
			c.method = methodNLJoin
			c.rows = floorRows(left.rows * rightRows)
			c.cost = left.cost + cheapCost + model.nlJoinCost(left.rows, cheapCost, c.rows)
			sc.offer(m, &c)
			continue
		}
		c.step = sc.conn[0]
		st := &m.steps[c.step]
		c.rows = floorRows(left.rows * rightRows * sc.joinSel[st.join])
		// Additional join predicates between r and the subset filter the output.
		for _, s := range sc.conn[1:] {
			c.rows = floorRows(c.rows * sc.joinSel[m.steps[s].join])
		}

		// Hash join over the cheapest right access path (order is destroyed
		// on the build side), building on either side; probing preserves
		// the probe input's order.
		c.method, c.order = methodHashJoin, left.order
		c.cost = left.cost + cheapCost + model.hashJoinCost(rightRows, left.rows, c.rows)
		sc.offer(m, &c)
		c.method, c.order = methodHashJoinBuildLeft, rel.paths[cheap].order
		c.cost = left.cost + cheapCost + model.hashJoinCost(left.rows, rightRows, c.rows)
		sc.offer(m, &c)

		// Merge join: requires both inputs ordered on the join columns;
		// unsorted inputs pay an explicit sort. Numeric keys only.
		if !st.strKey {
			c.method, c.order = methodMergeJoin, st.leftOrder
			sortLeft := 0.0
			if left.order != st.leftOrder {
				sortLeft = sc.leftSortCost(model, left.rows)
			}
			merge := model.mergeJoinCost(left.rows, rightRows, c.rows)
			for k := range rel.paths {
				sortRight := 0.0
				if rel.paths[k].order != st.rightOrder {
					sortRight = rightSort
				}
				c.path = int16(k)
				c.cost = left.cost + costs[k] + sortLeft + sortRight + merge
				sc.offer(m, &c)
			}
		}

		// Index nested-loop join: inner index on the join column, probed
		// per outer row; residual inner predicates filter fetched tuples.
		if st.inlPath >= 0 {
			c.method, c.order, c.path = methodIndexNLJoin, left.order, int16(st.inlPath)
			c.cost = left.cost + model.indexNLJoinCost(left.rows, sc.probe[c.step], c.rows)
			sc.offer(m, &c)
		}
	}
}

// leftSortCost is model.sortCost(rows) for an unsorted merge-join left
// input, computed again only when rows differ from the last call's: a
// joinCandidates call reads the entries of one subset, which mostly share
// their rows.
func (sc *dpScratch) leftSortCost(model *CostModel, rows float64) float64 {
	if rows != sc.sortRows {
		sc.sortRows, sc.sortCost = rows, model.sortCost(rows)
	}
	return sc.sortCost
}

// offer adds a candidate to the filling set: the set keeps one entry per
// output order, replaced when the newcomer is better (as better decides).
func (sc *dpScratch) offer(m *Memo, c *dpEntry) {
	sc.offers++
	i := sc.slot[c.order]
	if i < 0 {
		sc.slot[c.order] = int32(len(sc.entries))
		sc.entries = append(sc.entries, *c)
		return
	}
	// better's rule, written out: better does not inline (its cost is 104
	// of the compiler's 80), and calling it here reads
	// BenchmarkOptimizeMemo/{Q3,Q4,Q8}/held 2,204 / 1,560 / 6,215 ns against
	// 2,070 / 1,519 / 5,785 inline (medians of six alternated runs, 2-vCPU
	// host).
	x := &sc.entries[i]
	if !nearTie(c.cost, x.cost) {
		if c.cost < x.cost {
			*x = *c
		}
	} else if sc.printLess(m, c, x) {
		*x = *c
	}
}

// better is the candidate order: outside the near-tie window the cheaper
// entry wins, inside it the one whose plan has the smaller fingerprint.
func (sc *dpScratch) better(m *Memo, a, b *dpEntry) bool {
	if !nearTie(a.cost, b.cost) {
		return a.cost < b.cost
	}
	return sc.printLess(m, a, b)
}

// best picks the winner of the final set (arena from start on), visiting
// its entries in canonical output-order rank.
func (sc *dpScratch) best(m *Memo, start int) int32 {
	sc.visit = sc.visit[:0]
	for i := start; i < len(sc.entries); i++ {
		sc.visit = append(sc.visit, int32(i))
		rank := m.orderRank[sc.entries[i].order]
		for j := len(sc.visit) - 1; j > 0 && m.orderRank[sc.entries[sc.visit[j-1]].order] > rank; j-- {
			sc.visit[j], sc.visit[j-1] = sc.visit[j-1], sc.visit[j]
		}
	}
	best := sc.visit[0]
	for _, i := range sc.visit[1:] {
		if sc.better(m, &sc.entries[i], &sc.entries[best]) {
			best = i
		}
	}
	return best
}

// maxPrintSegs bounds the segment list of one entry's fingerprint: per join
// a header, a comma, the right scan and a parenthesis, plus the leaf scan.
const maxPrintSegs = 4*(maxJoinRelations-1) + 1

// printLess orders two entries exactly as FingerprintOf(a) <
// FingerprintOf(b) orders their plans, without building either string.
// NewMemo refuses a query one of whose segments prefixes another, so
// fingerprints order as their sequences of segment ranks do. The top-level
// header's rank decides first: it differs in 70% of Q8's near-ties (99 per
// call; Q3 67%, Q4 58%, Q1 39%), and without the shortcut
// BenchmarkOptimizeMemo/Q8/held reads 7.9 instead of 5.9 µs on a 2-vCPU
// host (Q3/held 2.27 vs 2.10). Otherwise both fingerprints are laid out as
// rank sequences and compared as integers.
func (sc *dpScratch) printLess(m *Memo, a, b *dpEntry) bool {
	sc.segCmps++
	if ha, hb := m.head(a), m.head(b); ha != hb {
		return ha < hb
	}
	var bufA, bufB [maxPrintSegs]uint32
	ra, rb := sc.printRanks(m, bufA[:0], a), sc.printRanks(m, bufB[:0], b)
	for i := 1; i < min(len(ra), len(rb)); i++ {
		sc.segCmps++
		if ra[i] != rb[i] {
			return ra[i] < rb[i]
		}
	}
	return len(ra) < len(rb)
}

// head returns the rank of the entry's leading fingerprint segment: the
// join header, or the whole fingerprint of a scan.
func (m *Memo) head(e *dpEntry) uint32 {
	switch e.method {
	case methodScan:
		return m.rels[e.rel].paths[e.path].rank
	case methodNLJoin:
		return m.nlRank
	}
	return m.steps[e.step].heads[e.method-methodHashJoin]
}

// printRanks appends the entry's fingerprint as segment ranks: join headers
// from the top down, the leaf scan, then each join's ",right)" bottom up.
func (sc *dpScratch) printRanks(m *Memo, dst []uint32, e *dpEntry) []uint32 {
	var chain [maxJoinRelations]*dpEntry
	depth := 0
	for ; e.parent >= 0; e = &sc.entries[e.parent] {
		dst = append(dst, m.head(e))
		chain[depth] = e
		depth++
	}
	dst = append(dst, m.head(e))
	for depth--; depth >= 0; depth-- {
		j := chain[depth]
		dst = append(dst, m.commaRank, m.rels[j.rel].paths[j.path].rank, m.closeRank)
	}
	return dst
}

// buildPlan materialises the winning entry, whose fingerprint is fp: n
// scans, n-1 joins and the optional aggregate in one node array, the
// instantiated predicates of all scans in one predicate array.
func (o *Optimizer) buildPlan(m *Memo, sc *dpScratch, params []float64, e *dpEntry, fp string) *Plan {
	var chain [maxJoinRelations]*dpEntry
	depth := 0
	for ; e.parent >= 0; e = &sc.entries[e.parent] {
		chain[depth] = e
		depth++
	}
	nodes := make([]Node, 0, 2*depth+2)
	newNode := func(n Node) *Node {
		nodes = append(nodes, n)
		return &nodes[len(nodes)-1]
	}
	npreds := 0
	for i := range m.rels {
		npreds += len(m.rels[i].preds)
	}
	var filters []Predicate
	if npreds > 0 {
		filters = make([]Predicate, 0, npreds)
	}
	// scanFilters instantiates relation r's predicates except the one at
	// index skip. A relation without predicates filters through nil; a scan
	// whose only predicate drives its index filters through an empty list.
	scanFilters := func(r *relShape, skip int) []Predicate {
		if len(r.preds) == 0 {
			return nil
		}
		from := len(filters)
		for j, p := range r.preds {
			if j != skip {
				filters = append(filters, instantiate(p, params))
			}
		}
		return filters[from:len(filters):len(filters)]
	}
	scan := func(rel uint8, path int16) *Node {
		r, p := &m.rels[rel], &m.rels[rel].paths[path]
		n := Node{
			Op: OpSeqScan, Table: r.ref.Table, Alias: r.ref.Alias,
			Filters: scanFilters(r, p.driving), EstRows: sc.relRows[rel],
			EstCost: sc.pathCost[r.pathOff+int(path)], SortedOn: m.orders[p.order],
		}
		if path > 0 {
			n.Op, n.IndexCol = OpIndexScan, p.col
			n.IndexLo, n.IndexHi = math.Inf(-1), math.Inf(1)
			if p.driving >= 0 {
				driving := instantiate(r.preds[p.driving], params)
				n.IndexLo, n.IndexHi = sargBounds(driving)
				n.IndexSite = driving.Site
			}
		}
		return newNode(n)
	}

	root := scan(e.rel, e.path)
	mask := 1 << uint(e.rel)
	for depth--; depth >= 0; depth-- {
		j := chain[depth]
		n := Node{Left: root, EstRows: j.rows, EstCost: j.cost, SortedOn: m.orders[j.order]}
		if j.method == methodNLJoin {
			n.Op, n.Right = OpNLJoin, scan(j.rel, j.path)
		} else {
			st := &m.steps[j.step]
			n.LeftCol, n.RightCol, n.JoinSite = st.pred.Col, st.pred.RightCol, st.pred.Site
			for _, s := range m.connecting(sc.conn[:0], mask, int(j.rel))[1:] {
				n.Filters = append(n.Filters, m.steps[s].pred)
			}
			switch j.method {
			case methodHashJoin, methodHashJoinBuildLeft:
				n.Op, n.BuildLeft, n.Right = OpHashJoin, j.method == methodHashJoinBuildLeft, scan(j.rel, j.path)
			case methodMergeJoin:
				n.Op, n.Right = OpMergeJoin, scan(j.rel, j.path)
			case methodIndexNLJoin:
				r := &m.rels[j.rel]
				n.Op = OpIndexNLJoin
				n.Right = newNode(Node{
					Op: OpIndexScan, Table: r.ref.Table, Alias: r.ref.Alias,
					IndexCol: st.pred.RightCol.Column, Filters: scanFilters(r, -1),
					EstRows: st.matchesPerOuter,
				})
			}
		}
		root = newNode(n)
		mask |= 1 << uint(j.rel)
	}

	if m.hasAgg {
		groups, cost := o.aggregate(m, root.EstRows, root.EstCost)
		root = newNode(Node{
			Op:      OpHashAgg,
			GroupBy: m.q.GroupBy,
			Aggs:    m.q.Select,
			Left:    root,
			EstRows: groups,
			EstCost: cost,
		})
	}
	return &Plan{Root: root, Cost: root.EstCost, Fingerprint: fp}
}
