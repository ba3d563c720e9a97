package optimizer

import (
	"fmt"
	"math"
	"sort"

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

// WithStats returns a shallow clone of the optimizer that estimates through
// the given provider instead. The clone shares the database, catalog, cost
// model and fault injector; it exists so callers can optimize the same
// query under perturbed statistics (candidate-plan enumeration) without
// mutating the shared optimizer other goroutines are using.
func (o *Optimizer) WithStats(p stats.Provider) *Optimizer {
	c := *o
	c.stats = p
	return &c
}

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
	return o.optimizeCore(m, params)
}

// candidate is a DP entry: a partial plan with its cost, cardinality and
// output order.
type candidate struct {
	node     *Node
	cost     float64
	rows     float64
	sortedOn ColRef
}

// nearTieFraction is the plan-stability window: two candidates whose costs
// differ by less than this fraction are considered tied, and the tie is
// broken canonically (smallest fingerprint). Commercial optimizers apply
// similar thresholds so that meaningless sub-percent cost differences do
// not flip plan choice; without it the plan space dissolves into
// salt-and-pepper fragments that violate the plan choice predictability
// assumption the paper validates in Appendix B.
const nearTieFraction = 0.05

func betterThan(a, b candidate) bool {
	lo, hi := a.cost, b.cost
	if lo > hi {
		lo, hi = hi, lo
	}
	if hi-lo > nearTieFraction*lo {
		return a.cost < b.cost
	}
	return FingerprintOf(a.node) < FingerprintOf(b.node)
}

func hasAggregates(q *Query) bool {
	for _, s := range q.Select {
		if s.Agg != AggNone {
			return true
		}
	}
	return false
}

// connecting returns the join predicates linking relation r to the subset
// mask, normalized so Col is on the mask (left) side.
func connecting(joins []Predicate, aliasIdx map[string]int, mask, r int) []Predicate {
	var out []Predicate
	for _, j := range joins {
		li, ri := aliasIdx[j.Col.Alias], aliasIdx[j.RightCol.Alias]
		if li == r && mask&(1<<uint(ri)) != 0 {
			// Flip so the left side references the existing subset. The site
			// rides along: a join predicate's correction identity does not
			// depend on which side ends up left.
			out = append(out, Predicate{Kind: PredJoin, Col: j.RightCol, RightCol: j.Col, ParamIdx: -1, Site: j.Site})
		} else if ri == r && mask&(1<<uint(li)) != 0 {
			out = append(out, j)
		}
	}
	return out
}

// accessPaths builds the scan candidates for one relation with its
// instantiated single-table predicates. tmpl keys adaptive corrections
// (empty = base estimates only).
func (o *Optimizer) accessPaths(tmpl string, t TableRef, preds []Predicate) ([]candidate, error) {
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

	var cands []candidate
	// Sequential scan. Generated tables are physically ordered by their
	// first (key) column, so a sequential scan provides that order.
	seq := &Node{
		Op: OpSeqScan, Table: t.Table, Alias: t.Alias, Filters: preds,
		EstRows: outRows,
		EstCost: o.model.seqScanCost(baseRows, len(preds)),
	}
	seq.SortedOn = ColRef{Alias: t.Alias, Column: clustered}
	cands = append(cands, candidate{node: seq, cost: seq.EstCost, rows: outRows, sortedOn: seq.SortedOn})

	// Index scans: one candidate per index with a sargable predicate, plus
	// full-range index scans that provide sort order for merge joins.
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
		cands = append(cands, candidate{node: node, cost: node.EstCost, rows: outRows, sortedOn: node.SortedOn})
	}
	return cands, nil
}

// clusteredColumn returns the column the table is physically ordered by —
// the generator emits rows in ascending order of the first (key) column.
func clusteredColumn(t *tpch.Table) string {
	if len(t.Columns) == 0 {
		return ""
	}
	return t.Columns[0].Name
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

// joinCandidates enumerates join methods attaching relation r to the
// partial plan `left`. sels carries the catalog join selectivities for conn
// (parallel slices, precomputed once per template in NewMemo).
func (o *Optimizer) joinCandidates(q *Query, left candidate, r int, rightBase []candidate, conn []Predicate, sels []float64, rightPreds []Predicate) ([]candidate, error) {
	tRef := q.Tables[r]
	table := o.db.Table(tRef.Table)
	innerRows := float64(table.NumRows())
	var out []candidate

	if len(conn) == 0 {
		// Cross product: nested-loop join over the cheapest right scan.
		right := cheapest(rightBase)
		rows := math.Max(left.rows*right.rows, 1e-6)
		node := &Node{
			Op: OpNLJoin, Left: left.node, Right: right.node,
			EstRows: rows,
			EstCost: left.cost + right.node.EstCost + o.model.nlJoinCost(left.rows, right.node.EstCost, rows),
		}
		out = append(out, candidate{node: node, cost: node.EstCost, rows: rows})
		return out, nil
	}

	driving := conn[0]
	extra := conn[1:]
	rightRows := cheapest(rightBase).rows
	outRows := math.Max(left.rows*rightRows*sels[0], 1e-6)
	// Additional join predicates between r and the subset filter the output.
	for _, s := range sels[1:] {
		outRows = math.Max(outRows*s, 1e-6)
	}

	extraFilters := append([]Predicate(nil), extra...)

	// Hash join over the cheapest right access path (order is destroyed on
	// the build side), building on either side; probing preserves the probe
	// input's order.
	{
		right := cheapest(rightBase)
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
			out = append(out, candidate{node: node, cost: node.EstCost, rows: outRows, sortedOn: node.SortedOn})
		}
	}

	// Merge join: requires both inputs ordered on the join columns; unsorted
	// inputs pay an explicit sort.
	for _, right := range rightBase {
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
		out = append(out, candidate{node: node, cost: node.EstCost, rows: outRows, sortedOn: node.SortedOn})
	}

	// Index nested-loop join: inner index on the join column, probed per
	// outer row; residual inner predicates filter fetched tuples.
	if table.HasIndex(driving.RightCol.Column) {
		innerDistinct, err := o.stats.Distinct(tRef.Table, driving.RightCol.Column)
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
		node := &Node{
			Op: OpIndexNLJoin, Left: left.node, Right: inner,
			LeftCol: driving.Col, RightCol: driving.RightCol,
			Filters: extraFilters, JoinSite: driving.Site,
			EstRows: outRows,
			EstCost: left.cost + o.model.indexNLJoinCost(left.rows, innerRows, matchesPerOuter,
				len(rightPreds), correlated, outRows),
			SortedOn: left.sortedOn,
		}
		out = append(out, candidate{node: node, cost: node.EstCost, rows: outRows, sortedOn: node.SortedOn})
	}
	return out, nil
}

func cheapest(cands []candidate) candidate {
	best := cands[0]
	for _, c := range cands[1:] {
		if betterThan(c, best) {
			best = c
		}
	}
	return best
}

// BaseJoinSelectivity estimates the selectivity of an equi-join predicate
// using the standard 1/max(distinct_left, distinct_right) formula, without
// corrections — the reference the feedback loop measures observed join
// selectivities against.
func (o *Optimizer) BaseJoinSelectivity(q *Query, j Predicate) (float64, error) {
	lt := q.Binding(j.Col.Alias)
	rt := q.Binding(j.RightCol.Alias)
	if lt == nil || rt == nil {
		return 0, fmt.Errorf("optimizer: unbound join %s", j)
	}
	ld, err := o.stats.Distinct(lt.Table, j.Col.Column)
	if err != nil {
		return 0, err
	}
	rd, err := o.stats.Distinct(rt.Table, j.RightCol.Column)
	if err != nil {
		return 0, err
	}
	d := math.Max(ld, rd)
	if d < 1 {
		d = 1
	}
	return 1 / d, nil
}

// joinSelectivity is BaseJoinSelectivity corrected by the join predicate's
// site factor when the query belongs to a template.
func (o *Optimizer) joinSelectivity(q *Query, j Predicate) (float64, error) {
	s, err := o.BaseJoinSelectivity(q, j)
	if err != nil {
		return 0, err
	}
	return o.stats.Correct(q.Template, j.Site, s), nil
}

// BaseSelectivity estimates one instantiated single-table predicate without
// corrections — the reference estimate the feedback loop compares observed
// cardinalities against.
func (o *Optimizer) BaseSelectivity(table string, p Predicate) (float64, error) {
	return o.selectivity("", table, p)
}

// BaseRangeSelectivity estimates P(lo <= col <= hi) without corrections,
// clamping infinite bounds to the column's value range — the same clamping
// recost applies to index scan bounds.
func (o *Optimizer) BaseRangeSelectivity(table, col string, lo, hi float64) (float64, error) {
	cLo, cHi, err := o.stats.Bounds(table, col)
	if err != nil {
		return 0, err
	}
	if math.IsInf(lo, -1) {
		lo = cLo
	}
	if math.IsInf(hi, 1) {
		hi = cHi
	}
	return o.stats.SelRange(table, col, lo, hi)
}

// selProduct multiplies the selectivities of single-table predicates.
func (o *Optimizer) selProduct(tmpl, table string, preds []Predicate) (float64, error) {
	sel := 1.0
	for _, p := range preds {
		s, err := o.selectivity(tmpl, table, p)
		if err != nil {
			return 0, err
		}
		sel *= s
	}
	return sel, nil
}

// selectivity estimates one instantiated single-table predicate through the
// stats provider — the same estimation the PPC framework's f functions use —
// then applies the site's learned correction. tmpl == "" (or Site 0) keeps
// the base estimate; the learner's SelectivityPoint deliberately passes ""
// so plan-space geometry is not re-shaped by the corrections it feeds.
func (o *Optimizer) selectivity(tmpl, table string, p Predicate) (float64, error) {
	var s float64
	var err error
	switch p.Kind {
	case PredCmpNum:
		switch p.Op {
		case OpLE, OpLT:
			s, err = o.stats.SelLE(table, p.Col.Column, p.Value)
		case OpGE, OpGT:
			s, err = o.stats.SelLE(table, p.Col.Column, p.Value)
			s = 1 - s
		case OpEq:
			s, err = o.stats.SelEq(table, p.Col.Column, p.Value)
		default:
			return 0, fmt.Errorf("optimizer: cannot estimate %s", p)
		}
	case PredCmpStr:
		s, err = o.stats.SelEqString(table, p.Col.Column, p.StrValue)
	case PredBetween:
		s, err = o.stats.SelRange(table, p.Col.Column, p.Lo, p.Hi)
	default:
		return 0, fmt.Errorf("optimizer: cannot estimate %s", p)
	}
	if err != nil {
		return 0, err
	}
	if tmpl == "" {
		return s, nil
	}
	return o.stats.Correct(tmpl, p.Site, s), nil
}

// groupEstimate estimates the number of output groups of the aggregation.
// Group counts stay uncorrected: corrections model predicate selectivity
// error, not grouping-key cardinality.
func (o *Optimizer) groupEstimate(q *Query, inputRows float64) float64 {
	if len(q.GroupBy) == 0 {
		return 1
	}
	groups := 1.0
	for _, g := range q.GroupBy {
		t := q.Binding(g.Alias)
		if t == nil {
			continue
		}
		if d, err := o.stats.Distinct(t.Table, g.Column); err == nil {
			groups *= math.Max(d, 1)
		}
	}
	return math.Max(math.Min(groups, inputRows), 1)
}
