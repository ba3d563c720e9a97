package optimizer

// The node-building join enumerator this package shipped before the
// cost-first rewrite, kept verbatim (but for the string-key merge join
// guard in refJoinCandidates) as a test-only reference: every
// candidate is a heap-allocated *Node and every near-tie renders two full
// fingerprints. TestOptimizeMatchesReference holds the production
// enumerator to it plan for plan, bit for bit. It lives in the package (not
// the _test package) because it needs the optimizer's unexported
// estimators; the exported hooks at the bottom are how the external tests
// reach it.

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"repro/internal/tpch"
)

// refCandidate is a DP entry: a partial plan with its cost, cardinality and
// output order.
type refCandidate struct {
	node     *Node
	cost     float64
	rows     float64
	sortedOn ColRef
}

func refBetterThan(a, b refCandidate) bool {
	lo, hi := a.cost, b.cost
	if lo > hi {
		lo, hi = hi, lo
	}
	if hi-lo > nearTieFraction*lo {
		return a.cost < b.cost
	}
	return FingerprintOf(a.node) < FingerprintOf(b.node)
}

// refConnecting returns the join predicates linking relation r to the
// subset mask, normalized so Col is on the mask (left) side.
func refConnecting(joins []Predicate, aliasIdx map[string]int, mask, r int) []Predicate {
	var out []Predicate
	for _, j := range joins {
		li, ri := aliasIdx[j.Col.Alias], aliasIdx[j.RightCol.Alias]
		if li == r && mask&(1<<uint(ri)) != 0 {
			out = append(out, Predicate{Kind: PredJoin, Col: j.RightCol, RightCol: j.Col, ParamIdx: -1, Site: j.Site})
		} else if ri == r && mask&(1<<uint(li)) != 0 {
			out = append(out, j)
		}
	}
	return out
}

// refAccessPaths builds the scan candidates for one relation with its
// instantiated single-table predicates.
func (o *Optimizer) refAccessPaths(tmpl string, t TableRef, preds []Predicate) ([]refCandidate, error) {
	table := o.db.Table(t.Table)
	if table == nil {
		return nil, fmt.Errorf("optimizer: unknown table %s", t.Table)
	}
	baseRows := float64(table.NumRows())
	selAll, err := o.selProduct(tmpl, t.Table, preds)
	if err != nil {
		return nil, err
	}
	outRows := math.Max(baseRows*selAll, 1e-6)
	clustered := clusteredColumn(table)

	var cands []refCandidate
	seq := &Node{
		Op: OpSeqScan, Table: t.Table, Alias: t.Alias, Filters: preds,
		EstRows: outRows,
		EstCost: o.model.seqScanCost(baseRows, len(preds)),
	}
	seq.SortedOn = ColRef{Alias: t.Alias, Column: clustered}
	cands = append(cands, refCandidate{node: seq, cost: seq.EstCost, rows: outRows, sortedOn: seq.SortedOn})

	idxCols := make([]string, 0, len(table.Indexes))
	for col := range table.Indexes {
		idxCols = append(idxCols, col)
	}
	sort.Strings(idxCols)
	for _, col := range idxCols {
		driving, residual := splitSargable(preds, col)
		lo, hi := math.Inf(-1), math.Inf(1)
		matchSel := 1.0
		site := 0
		if driving != nil {
			lo, hi = sargBounds(*driving)
			s, err := o.selectivity(tmpl, t.Table, *driving)
			if err != nil {
				return nil, err
			}
			matchSel = s
			site = driving.Site
		}
		matches := math.Max(baseRows*matchSel, 1e-6)
		node := &Node{
			Op: OpIndexScan, Table: t.Table, Alias: t.Alias, IndexCol: col,
			IndexLo: lo, IndexHi: hi, Filters: residual, IndexSite: site,
			EstRows:  outRows,
			EstCost:  o.model.indexScanCost(baseRows, matches, len(residual), col == clustered),
			SortedOn: ColRef{Alias: t.Alias, Column: col},
		}
		cands = append(cands, refCandidate{node: node, cost: node.EstCost, rows: outRows, sortedOn: node.SortedOn})
	}
	return cands, nil
}

// splitSargable extracts the best predicate usable as an index range on
// col, returning it (or nil) and the residual predicates.
func splitSargable(preds []Predicate, col string) (*Predicate, []Predicate) {
	best := -1
	for i, p := range preds {
		if p.Col.Column != col {
			continue
		}
		switch p.Kind {
		case PredCmpNum, PredBetween:
			// Prefer equality (most selective), then keep the first found.
			if best == -1 || (preds[i].Kind == PredCmpNum && preds[i].Op == OpEq) {
				best = i
			}
		}
	}
	if best == -1 {
		return nil, preds
	}
	residual := make([]Predicate, 0, len(preds)-1)
	residual = append(residual, preds[:best]...)
	residual = append(residual, preds[best+1:]...)
	p := preds[best]
	return &p, residual
}

// refJoinCandidates enumerates join methods attaching relation r to the
// partial plan `left`. sels carries the catalog join selectivities for conn.
func (o *Optimizer) refJoinCandidates(q *Query, left refCandidate, r int, rightBase []refCandidate, conn []Predicate, sels []float64, rightPreds []Predicate) ([]refCandidate, error) {
	tRef := q.Tables[r]
	table := o.db.Table(tRef.Table)
	innerRows := float64(table.NumRows())
	var out []refCandidate

	if len(conn) == 0 {
		right := refCheapest(rightBase)
		rows := math.Max(left.rows*right.rows, 1e-6)
		node := &Node{
			Op: OpNLJoin, Left: left.node, Right: right.node,
			EstRows: rows,
			EstCost: left.cost + right.node.EstCost + o.model.nlJoinCost(left.rows, right.node.EstCost, rows),
		}
		out = append(out, refCandidate{node: node, cost: node.EstCost, rows: rows})
		return out, nil
	}

	driving := conn[0]
	extra := conn[1:]
	rightRows := refCheapest(rightBase).rows
	outRows := math.Max(left.rows*rightRows*sels[0], 1e-6)
	for _, s := range sels[1:] {
		outRows = math.Max(outRows*s, 1e-6)
	}

	extraFilters := append([]Predicate(nil), extra...)

	{
		right := refCheapest(rightBase)
		for _, buildLeft := range []bool{false, true} {
			build, probe := right, left
			if buildLeft {
				build, probe = left, right
			}
			node := &Node{
				Op: OpHashJoin, Left: left.node, Right: right.node,
				LeftCol: driving.Col, RightCol: driving.RightCol, BuildLeft: buildLeft,
				Filters: extraFilters, JoinSite: driving.Site,
				EstRows: outRows,
				EstCost: left.cost + right.node.EstCost + o.model.hashJoinCost(build.rows, probe.rows, outRows),
			}
			node.SortedOn = probe.sortedOn
			out = append(out, refCandidate{node: node, cost: node.EstCost, rows: outRows, sortedOn: node.SortedOn})
		}
	}

	// Not verbatim: like the production enumerator, no merge join on a
	// string key (it compares numeric keys).
	mergeBase := rightBase
	if table.Column(driving.RightCol.Column).Kind == tpch.KindString {
		mergeBase = nil
	}
	for _, right := range mergeBase {
		sortLeft, sortRight := 0.0, 0.0
		if left.sortedOn != driving.Col {
			sortLeft = o.model.sortCost(left.rows)
		}
		if right.sortedOn != driving.RightCol {
			sortRight = o.model.sortCost(right.rows)
		}
		node := &Node{
			Op: OpMergeJoin, Left: left.node, Right: right.node,
			LeftCol: driving.Col, RightCol: driving.RightCol,
			Filters: extraFilters, JoinSite: driving.Site,
			EstRows: outRows,
			EstCost: left.cost + right.node.EstCost + sortLeft + sortRight +
				o.model.mergeJoinCost(left.rows, right.rows, outRows),
			SortedOn: driving.Col,
		}
		out = append(out, refCandidate{node: node, cost: node.EstCost, rows: outRows, sortedOn: node.SortedOn})
	}

	if table.HasIndex(driving.RightCol.Column) {
		innerDistinct, err := o.distinct(tRef.Table, driving.RightCol.Column)
		if err != nil {
			return nil, err
		}
		matchesPerOuter := innerRows / math.Max(innerDistinct, 1)
		inner := &Node{
			Op: OpIndexScan, Table: tRef.Table, Alias: tRef.Alias,
			IndexCol: driving.RightCol.Column, Filters: rightPreds,
			EstRows: matchesPerOuter,
		}
		correlated := driving.RightCol.Column == clusteredColumn(table)
		perProbe := o.model.indexProbeCost(innerRows, matchesPerOuter, len(rightPreds), correlated)
		node := &Node{
			Op: OpIndexNLJoin, Left: left.node, Right: inner,
			LeftCol: driving.Col, RightCol: driving.RightCol,
			Filters: extraFilters, JoinSite: driving.Site,
			EstRows:  outRows,
			EstCost:  left.cost + o.model.indexNLJoinCost(left.rows, perProbe, outRows),
			SortedOn: left.sortedOn,
		}
		out = append(out, refCandidate{node: node, cost: node.EstCost, rows: outRows, sortedOn: node.SortedOn})
	}
	return out, nil
}

func refCheapest(cands []refCandidate) refCandidate {
	best := cands[0]
	for _, c := range cands[1:] {
		if refBetterThan(c, best) {
			best = c
		}
	}
	return best
}

// ReferenceMemo is the reference enumerator's per-template memo: the
// connectivity lists and join selectivities for every (subset, relation) DP
// step, all derived at once — so it is rebuilt whole on an epoch bump.
type ReferenceMemo struct {
	q *Query
	n int

	joins      []Predicate
	singleTmpl [][]Predicate // per relation: template single-table preds
	conn       [][]Predicate // (mask*n + r) -> connecting join preds
	connSel    [][]float64   // parallel join selectivities
	hasAgg     bool

	StatsEpoch uint64

	scratch sync.Pool // *refScratch
}

type refScratch struct {
	sets []refCandSet
}

// refCandSet keeps the best candidate per output order.
type refCandSet struct {
	orders []ColRef
	cands  []refCandidate
}

func (s *refCandSet) reset() {
	s.orders = s.orders[:0]
	s.cands = s.cands[:0]
}

func (s *refCandSet) add(c refCandidate) {
	for i := range s.orders {
		if s.orders[i] == c.sortedOn {
			if refBetterThan(c, s.cands[i]) {
				s.cands[i] = c
			}
			return
		}
	}
	s.orders = append(s.orders, c.sortedOn)
	s.cands = append(s.cands, c)
}

// best returns the overall winner, iterating orders in ascending canonical
// key order.
func (s *refCandSet) best() refCandidate {
	keys := make([]string, len(s.orders))
	for i, o := range s.orders {
		keys[i] = o.String()
	}
	idx := make([]int, len(keys))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return keys[idx[a]] < keys[idx[b]] })
	best := s.cands[idx[0]]
	for _, i := range idx[1:] {
		if refBetterThan(s.cands[i], best) {
			best = s.cands[i]
		}
	}
	return best
}

// NewReferenceMemo is the former NewMemo.
func (o *Optimizer) NewReferenceMemo(q *Query) (*ReferenceMemo, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	n := len(q.Tables)
	m := &ReferenceMemo{q: q, n: n, hasAgg: len(q.GroupBy) > 0 || hasAggregates(q)}
	for _, t := range q.Tables {
		if o.db.Table(t.Table) == nil {
			return nil, fmt.Errorf("optimizer: unknown table %s", t.Table)
		}
	}
	aliasIdx := make(map[string]int, n)
	for i, t := range q.Tables {
		aliasIdx[t.Alias] = i
	}
	m.singleTmpl = make([][]Predicate, n)
	for _, p := range q.Preds {
		if p.Kind == PredJoin {
			m.joins = append(m.joins, p)
		} else {
			i, ok := aliasIdx[p.Col.Alias]
			if !ok {
				return nil, fmt.Errorf("optimizer: unbound alias %s", p.Col.Alias)
			}
			m.singleTmpl[i] = append(m.singleTmpl[i], p)
		}
	}
	m.StatsEpoch = o.stats.Epoch(q.Template)
	m.conn = make([][]Predicate, (1<<uint(n))*n)
	m.connSel = make([][]float64, (1<<uint(n))*n)
	for mask := 1; mask < 1<<uint(n); mask++ {
		for r := 0; r < n; r++ {
			if mask&(1<<uint(r)) != 0 {
				continue
			}
			conn := refConnecting(m.joins, aliasIdx, mask, r)
			if len(conn) == 0 {
				continue
			}
			sels := make([]float64, len(conn))
			for i, j := range conn {
				s, err := o.joinSelectivity(q, j)
				if err != nil {
					return nil, err
				}
				sels[i] = s
			}
			m.conn[mask*n+r] = conn
			m.connSel[mask*n+r] = sels
		}
	}
	m.scratch.New = func() any {
		return &refScratch{sets: make([]refCandSet, 1<<uint(n))}
	}
	return m, nil
}

// ReferenceOptimize is the former optimizeCore.
func (o *Optimizer) ReferenceOptimize(m *ReferenceMemo, params []float64) (*Plan, error) {
	if got, want := len(params), m.q.ParamDegree(); got != want {
		return nil, fmt.Errorf("optimizer: got %d parameters, want %d", got, want)
	}
	n := m.n
	sc := m.scratch.Get().(*refScratch)
	defer m.scratch.Put(sc)
	for i := range sc.sets {
		sc.sets[i].reset()
	}

	single := make([][]Predicate, n)
	base := make([][]refCandidate, n)
	for i, t := range m.q.Tables {
		single[i] = instantiateSingle(m.singleTmpl[i], params)
		cands, err := o.refAccessPaths(m.q.Template, t, single[i])
		if err != nil {
			return nil, err
		}
		base[i] = cands
		for _, c := range cands {
			sc.sets[1<<uint(i)].add(c)
		}
	}

	for mask := 1; mask < 1<<uint(n); mask++ {
		set := &sc.sets[mask]
		if len(set.cands) == 0 {
			continue
		}
		for r := 0; r < n; r++ {
			bit := 1 << uint(r)
			if mask&bit != 0 {
				continue
			}
			conn, sels := m.conn[mask*n+r], m.connSel[mask*n+r]
			for ci := range set.cands {
				cands, err := o.refJoinCandidates(m.q, set.cands[ci], r, base[r], conn, sels, single[r])
				if err != nil {
					return nil, err
				}
				for _, c := range cands {
					sc.sets[mask|bit].add(c)
				}
			}
		}
	}

	full := &sc.sets[1<<uint(n)-1]
	if len(full.cands) == 0 {
		return nil, fmt.Errorf("optimizer: no plan found")
	}
	best := full.best()

	root := best.node
	if m.hasAgg {
		groups := o.groupEstimate(m.q, best.rows)
		root = &Node{
			Op:      OpHashAgg,
			GroupBy: m.q.GroupBy,
			Aggs:    m.q.Select,
			Left:    root,
			EstRows: groups,
			EstCost: root.EstCost + o.model.hashAggCost(best.rows, groups),
		}
	}
	return &Plan{Root: root, Cost: root.EstCost, Fingerprint: FingerprintOf(root)}, nil
}

// instantiateSingle substitutes parameter values into a fresh copy of one
// relation's template predicates (nil when the relation has none).
func instantiateSingle(tmpl []Predicate, params []float64) []Predicate {
	if len(tmpl) == 0 {
		return nil
	}
	out := make([]Predicate, len(tmpl))
	copy(out, tmpl)
	for i := range out {
		if out[i].Kind == PredCmpNum && out[i].ParamIdx >= 0 {
			out[i].Value = params[out[i].ParamIdx]
		}
	}
	return out
}

// CheckPrintOrder runs the production enumeration at params and holds the
// structural near-tie order to the strings it stands for: for every pair of
// surviving entries, printLess must agree with comparing the fingerprints
// of the two materialised trees. Every entry's fingerprint as the shape
// names it (its segments, or the memo) must be its tree's. It also returns
// how many pairs it checked.
func (o *Optimizer) CheckPrintOrder(m *Memo, params []float64) (int, error) {
	sh := m.shape
	sc := sh.scratch.Get().(*dpScratch)
	defer sh.scratch.Put(sc)
	o.enumerate(m, sc, params)
	prints := make([]string, len(sc.entries))
	for i := range sc.entries {
		e := &sc.entries[i]
		root := o.buildPlan(m, sc, params, e, "").Root
		if named, fp := sh.fingerprint(sc, e), FingerprintOf(root); named != fp {
			return 0, fmt.Errorf("entry %d named %q, its tree prints %q", i, named, fp)
		}
		if root.Op == OpHashAgg {
			root = root.Left
		}
		prints[i] = FingerprintOf(root)
	}
	pairs := 0
	for i := range sc.entries {
		for j := range sc.entries {
			got := sc.printLess(sh, &sc.entries[i], &sc.entries[j])
			if want := prints[i] < prints[j]; got != want {
				return pairs, fmt.Errorf("printLess(%q, %q) = %v, strings order %v", prints[i], prints[j], got, want)
			}
			pairs++
		}
	}
	return pairs, nil
}
