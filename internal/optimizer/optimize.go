package optimizer

import (
	"fmt"
	"math"
	"math/bits"

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
// All selectivity estimation goes through the stats.Provider: the default
// is the static base provider over the catalog, and the facade layers the
// adaptive correction provider on top. Every estimate of a predicate that
// carries a template site is passed through Provider.Correct, so learned
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

// Catalog returns the statistics catalog the optimizer estimates from.
func (o *Optimizer) Catalog() *catalog.Catalog { return o.cat }

// SetStats replaces the selectivity provider. Set at construction time
// (before any Memo is built); memos stamp the provider's correction epoch.
func (o *Optimizer) SetStats(p stats.Provider) { o.stats = p }

// Stats returns the selectivity provider.
func (o *Optimizer) Stats() stats.Provider { return o.stats }

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
// rendered but the winner's, once per shape; buildPlan then materialises
// its tree once — unless held names it as a plan the caller has already.
func (o *Optimizer) optimizeCore(m *Memo, params []float64, held func(string) bool) (*Plan, error) {
	sh := m.shape
	if got, want := len(params), sh.q.ParamDegree(); got != want {
		return nil, fmt.Errorf("optimizer: got %d parameters, want %d", got, want)
	}
	sc := sh.scratch.Get().(*dpScratch)
	defer sh.scratch.Put(sc)
	o.enumerate(m, sc, params)
	best := &sc.entries[sc.best(sh, int(sc.setOff[1<<uint(len(sh.rels))-1]))]
	fp := sh.fingerprint(sc, best)
	if held != nil && held(fp) {
		cost := best.cost
		if sh.hasAgg {
			_, cost = o.aggregate(sh, best.rows, best.cost)
		}
		return &Plan{Cost: cost, Fingerprint: fp}, nil
	}
	return o.buildPlan(m, sc, params, best, fp), nil
}

// aggregate estimates the shape's aggregate over a join tree of the given
// rows and cumulative cost: its groups, and the plan's cost with it.
func (o *Optimizer) aggregate(sh *memoShape, rows, cost float64) (groups, total float64) {
	groups = math.Max(math.Min(sh.groups, rows), 1)
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
	sh := m.shape
	sc.entries, sc.leftSort = sc.entries[:0], sc.leftSort[:0]
	model := o.model
	costAccessPaths(sh, sc, &model, params)
	for s := range sh.steps {
		if st := &sh.steps[s]; st.inlPath >= 0 {
			inner := &sh.rels[st.rightRel]
			sc.probe[s] = model.indexProbeCost(inner.baseRows, st.matchesPerOuter, len(inner.preds), inner.paths[st.inlPath].clustered)
		}
	}

	n := len(sh.rels)
	full := 1<<uint(n) - 1
	for T := 1; T <= full; T++ {
		start := len(sc.entries)
		sc.setOff[T] = int32(start)
		if T&(T-1) == 0 {
			// Single relation: its access paths, one entry per output order.
			i := bits.TrailingZeros(uint(T))
			r := &sh.rels[i]
			for k := range r.paths {
				sc.offer(sh, start, dpEntry{
					cost: sc.pathCost[r.pathOff+k], rows: sc.relRows[i], parent: -1, step: -1,
					order: r.paths[k].order, path: int16(k), rel: uint8(i), method: methodScan,
				})
			}
		} else {
			for r := n - 1; r >= 0; r-- {
				if T&(1<<uint(r)) != 0 {
					o.joinCandidates(m, sc, &model, T&^(1<<uint(r)), r, start)
				}
			}
		}
		if T != full {
			for _, e := range sc.entries[start:] {
				sc.leftSort = append(sc.leftSort, model.sortCost(e.rows))
			}
		}
	}
	sc.setOff[full+1] = int32(len(sc.entries))
}

// costAccessPaths fills the per-call, per-relation state: predicate
// selectivities at the parameter values (the only estimates that depend on
// them — one probe of the shape's bound handle each), output rows, the cost
// of every access path and which is cheapest.
func costAccessPaths(sh *memoShape, sc *dpScratch, model *CostModel, params []float64) {
	for i := range sh.rels {
		r := &sh.rels[i]
		sels := sc.sels[:0]
		selAll := 1.0
		for j := range r.preds {
			p := &r.preds[j]
			s := sh.corr.CorrectSel(p.Site, predSel(r.cols[j], p, params))
			sels = append(sels, s)
			selAll *= s
		}
		sc.sels = sels
		sc.relRows[i] = math.Max(r.baseRows*selAll, 1e-6)
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
			matches := math.Max(r.baseRows*matchSel, 1e-6)
			costs[k] = model.indexScanCost(r.baseRows, matches, residual, path.clustered)
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

// joinCandidates offers to the set starting at arena index start every way
// of attaching relation r to each entry of subset mask.
func (o *Optimizer) joinCandidates(m *Memo, sc *dpScratch, model *CostModel, mask, r, start int) {
	sh := m.shape
	rel := &sh.rels[r]
	rightRows, rightSort := sc.relRows[r], sc.relSort[r]
	costs := sc.pathCost[rel.pathOff : rel.pathOff+len(rel.paths)]
	cheap := sc.cheapest[r]
	cheapCost := costs[cheap]
	sc.conn = sh.connecting(sc.conn[:0], mask, r)

	for li := sc.setOff[mask]; li < sc.setOff[mask+1]; li++ {
		left := sc.entries[li] // by value: offer may grow the arena
		c := dpEntry{parent: li, step: -1, path: cheap, rel: uint8(r)}
		if len(sc.conn) == 0 {
			// Cross product: nested-loop join over the cheapest right scan.
			c.method = methodNLJoin
			c.rows = math.Max(left.rows*rightRows, 1e-6)
			c.cost = left.cost + cheapCost + model.nlJoinCost(left.rows, cheapCost, c.rows)
			sc.offer(sh, start, c)
			continue
		}
		c.step = sc.conn[0]
		st := &sh.steps[c.step]
		c.rows = math.Max(left.rows*rightRows*m.joinSel[st.join], 1e-6)
		// Additional join predicates between r and the subset filter the output.
		for _, s := range sc.conn[1:] {
			c.rows = math.Max(c.rows*m.joinSel[sh.steps[s].join], 1e-6)
		}

		// Hash join over the cheapest right access path (order is destroyed
		// on the build side), building on either side; probing preserves
		// the probe input's order.
		c.method, c.order = methodHashJoin, left.order
		c.cost = left.cost + cheapCost + model.hashJoinCost(rightRows, left.rows, c.rows)
		sc.offer(sh, start, c)
		c.method, c.order = methodHashJoinBuildLeft, rel.paths[cheap].order
		c.cost = left.cost + cheapCost + model.hashJoinCost(left.rows, rightRows, c.rows)
		sc.offer(sh, start, c)

		// Merge join: requires both inputs ordered on the join columns;
		// unsorted inputs pay an explicit sort. Numeric keys only.
		if !st.strKey {
			c.method, c.order = methodMergeJoin, st.leftOrder
			sortLeft := 0.0
			if left.order != st.leftOrder {
				sortLeft = sc.leftSort[li]
			}
			merge := model.mergeJoinCost(left.rows, rightRows, c.rows)
			for k := range rel.paths {
				sortRight := 0.0
				if rel.paths[k].order != st.rightOrder {
					sortRight = rightSort
				}
				c.path = int16(k)
				c.cost = left.cost + costs[k] + sortLeft + sortRight + merge
				sc.offer(sh, start, c)
			}
		}

		// Index nested-loop join: inner index on the join column, probed
		// per outer row; residual inner predicates filter fetched tuples.
		if st.inlPath >= 0 {
			c.method, c.order, c.path = methodIndexNLJoin, left.order, int16(st.inlPath)
			c.cost = left.cost + model.indexNLJoinCost(left.rows, sc.probe[c.step], c.rows)
			sc.offer(sh, start, c)
		}
	}
}

// offer adds a candidate to the set occupying the arena from start on: the
// set keeps one entry per output order, replaced when the newcomer is
// better.
func (sc *dpScratch) offer(sh *memoShape, start int, c dpEntry) {
	set := sc.entries[start:]
	for i := range set {
		if set[i].order == c.order {
			if sc.better(sh, &c, &set[i]) {
				set[i] = c
			}
			return
		}
	}
	sc.entries = append(sc.entries, c)
}

// better is the candidate order: outside the near-tie window the cheaper
// entry wins, inside it the one whose plan has the smaller fingerprint.
func (sc *dpScratch) better(sh *memoShape, a, b *dpEntry) bool {
	if !nearTie(a.cost, b.cost) {
		return a.cost < b.cost
	}
	return sc.printLess(sh, a, b)
}

// best picks the winner of the final set (arena from start on), visiting
// its entries in canonical output-order rank.
func (sc *dpScratch) best(sh *memoShape, start int) int32 {
	sc.visit = sc.visit[:0]
	for i := start; i < len(sc.entries); i++ {
		sc.visit = append(sc.visit, int32(i))
		rank := sh.orderRank[sc.entries[i].order]
		for j := len(sc.visit) - 1; j > 0 && sh.orderRank[sc.entries[sc.visit[j-1]].order] > rank; j-- {
			sc.visit[j], sc.visit[j-1] = sc.visit[j-1], sc.visit[j]
		}
	}
	best := sc.visit[0]
	for _, i := range sc.visit[1:] {
		if sc.better(sh, &sc.entries[i], &sc.entries[best]) {
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
// The top-level header decides first: it differs in 70% of Q8's near-ties
// (99 per call; Q3 67%, Q4 58%, Q1 39%), and without the shortcut
// BenchmarkOptimizeMemo/Q8 reads 27.5 instead of 21.5 µs (Q3 9.7 vs 8.2).
// Otherwise both fingerprints are laid out as sequences of interned
// segments and compared as the concatenations they stand for.
func (sc *dpScratch) printLess(sh *memoShape, a, b *dpEntry) bool {
	ha, hb := sh.head(a), sh.head(b)
	if n := min(len(ha), len(hb)); ha[:n] != hb[:n] {
		return ha[:n] < hb[:n]
	}
	var bufA, bufB [maxPrintSegs]string
	return segmentsLess(sc.printSegments(sh, bufA[:0], a), sc.printSegments(sh, bufB[:0], b))
}

// head returns the entry's leading fingerprint segment: the join header,
// or the whole fingerprint of a scan.
func (sh *memoShape) head(e *dpEntry) string {
	switch e.method {
	case methodScan:
		return sh.rels[e.rel].paths[e.path].print
	case methodNLJoin:
		return nlHead
	}
	return sh.steps[e.step].heads[e.method-methodHashJoin]
}

// printSegments appends the entry's fingerprint as segments: join headers
// from the top down, the leaf scan, then each join's ",right)" bottom up.
func (sc *dpScratch) printSegments(sh *memoShape, dst []string, e *dpEntry) []string {
	var chain [maxJoinRelations]*dpEntry
	depth := 0
	for ; e.parent >= 0; e = &sc.entries[e.parent] {
		dst = append(dst, sh.head(e))
		chain[depth] = e
		depth++
	}
	dst = append(dst, sh.head(e))
	for depth--; depth >= 0; depth-- {
		j := chain[depth]
		dst = append(dst, ",", sh.rels[j.rel].paths[j.path].print, ")")
	}
	return dst
}

// segmentsLess reports whether the concatenation of a sorts before the
// concatenation of b.
func segmentsLess(a, b []string) bool {
	var sa, sb string
	for {
		for sa == "" && len(a) > 0 {
			sa, a = a[0], a[1:]
		}
		for sb == "" && len(b) > 0 {
			sb, b = b[0], b[1:]
		}
		if sa == "" || sb == "" {
			return sa == "" && sb != ""
		}
		n := min(len(sa), len(sb))
		if sa[:n] != sb[:n] {
			return sa[:n] < sb[:n]
		}
		sa, sb = sa[n:], sb[n:]
	}
}

// buildPlan materialises the winning entry, whose fingerprint is fp: n
// scans, n-1 joins and the optional aggregate in one node array, the
// instantiated predicates of all scans in one predicate array.
func (o *Optimizer) buildPlan(m *Memo, sc *dpScratch, params []float64, e *dpEntry, fp string) *Plan {
	sh := m.shape
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
	for i := range sh.rels {
		npreds += len(sh.rels[i].preds)
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
		r, p := &sh.rels[rel], &sh.rels[rel].paths[path]
		n := Node{
			Op: OpSeqScan, Table: r.ref.Table, Alias: r.ref.Alias,
			Filters: scanFilters(r, p.driving), EstRows: sc.relRows[rel],
			EstCost: sc.pathCost[r.pathOff+int(path)], SortedOn: sh.orders[p.order],
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
		n := Node{Left: root, EstRows: j.rows, EstCost: j.cost, SortedOn: sh.orders[j.order]}
		if j.method == methodNLJoin {
			n.Op, n.Right = OpNLJoin, scan(j.rel, j.path)
		} else {
			st := &sh.steps[j.step]
			n.LeftCol, n.RightCol, n.JoinSite = st.pred.Col, st.pred.RightCol, st.pred.Site
			for _, s := range sh.connecting(sc.conn[:0], mask, int(j.rel))[1:] {
				n.Filters = append(n.Filters, sh.steps[s].pred)
			}
			switch j.method {
			case methodHashJoin, methodHashJoinBuildLeft:
				n.Op, n.BuildLeft, n.Right = OpHashJoin, j.method == methodHashJoinBuildLeft, scan(j.rel, j.path)
			case methodMergeJoin:
				n.Op, n.Right = OpMergeJoin, scan(j.rel, j.path)
			case methodIndexNLJoin:
				r := &sh.rels[j.rel]
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

	if sh.hasAgg {
		groups, cost := o.aggregate(sh, root.EstRows, root.EstCost)
		root = newNode(Node{
			Op:      OpHashAgg,
			GroupBy: sh.q.GroupBy,
			Aggs:    sh.q.Select,
			Left:    root,
			EstRows: groups,
			EstCost: cost,
		})
	}
	return &Plan{Root: root, Cost: root.EstCost, Fingerprint: fp}
}
