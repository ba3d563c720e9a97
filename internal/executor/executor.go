// Package executor runs physical plans produced by the optimizer against
// the in-memory tpch database. It is a bulk (operator-at-a-time) engine:
// each operator materializes its full output, which keeps the
// implementation compact while providing genuinely measurable execution
// times for the runtime-performance simulation (paper Section V-C).
//
// Supported operators mirror the optimizer's plan algebra: sequential and
// index-range scans with residual filter evaluation, hash / merge /
// index-nested-loop / nested-loop joins, and hash aggregation.
package executor

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"repro/internal/faults"
	"repro/internal/optimizer"
	"repro/internal/tpch"
)

// Value is one field of a row: numeric or string.
type Value struct {
	Num   float64
	Str   string
	IsStr bool
}

// Row is a tuple of values, positionally matched to a Schema.
type Row []Value

// Schema names the columns of a row set.
type Schema []optimizer.ColRef

// Pos returns the position of a column in the schema, or -1.
func (s Schema) Pos(c optimizer.ColRef) int {
	for i, sc := range s {
		if sc == c {
			return i
		}
	}
	return -1
}

// Result is a fully materialized query result.
type Result struct {
	Schema Schema
	Rows   []Row
}

// Executor evaluates plans against a database. The database must not change
// once the executor has compiled a plan against it: Compile learns facts
// about the key columns (facts.go) and builds bitmaps of the filtered ones and
// of a counted join's probe keys (rangebits.go) that every later execution
// relies on.
type Executor struct {
	db     *tpch.Database
	faults *faults.Injector

	// Column facts, index key directories, range bitmaps and equality
	// bitmaps, learned by the first Compile that keys, filters or counts on
	// the column and kept for the executor's life. factScans counts the scans
	// made, so a test can show a second Compile makes none.
	factMu    sync.Mutex
	facts     map[*tpch.Column]colFacts
	dirs      map[*tpch.Index]keyDir
	ranges    map[*tpch.Column]*rangeBits
	eqs       map[*tpch.Column]*eqBits
	factScans int
}

// New creates an executor over db.
func New(db *tpch.Database) *Executor {
	return &Executor{
		db:     db,
		facts:  make(map[*tpch.Column]colFacts),
		dirs:   make(map[*tpch.Index]keyDir),
		ranges: make(map[*tpch.Column]*rangeBits),
		eqs:    make(map[*tpch.Column]*eqBits),
	}
}

// SetFaults attaches a fault injector (nil disables injection).
func (e *Executor) SetFaults(inj *faults.Injector) { e.faults = inj }

// Run executes a complete plan and returns its result.
func (e *Executor) Run(plan *optimizer.Plan) (*Result, error) {
	if err := e.faults.Fail(faults.ExecutorError); err != nil {
		return nil, fmt.Errorf("executor: %w", err)
	}
	if plan == nil || plan.Root == nil {
		return nil, fmt.Errorf("executor: nil plan")
	}
	schema, rows, err := e.exec(plan.Root)
	if err != nil {
		return nil, err
	}
	return &Result{Schema: schema, Rows: rows}, nil
}

func (e *Executor) exec(n *optimizer.Node) (Schema, []Row, error) {
	switch n.Op {
	case optimizer.OpSeqScan:
		return e.seqScan(n)
	case optimizer.OpIndexScan:
		return e.indexScan(n)
	case optimizer.OpHashJoin:
		return e.hashJoin(n)
	case optimizer.OpMergeJoin:
		return e.mergeJoin(n)
	case optimizer.OpIndexNLJoin:
		return e.indexNLJoin(n)
	case optimizer.OpNLJoin:
		return e.nlJoin(n)
	case optimizer.OpHashAgg:
		return e.hashAgg(n)
	default:
		return nil, nil, fmt.Errorf("executor: unsupported operator %v", n.Op)
	}
}

// tableSchema builds the schema of a base table scan under an alias.
func tableSchema(t *tpch.Table, alias string) Schema {
	s := make(Schema, len(t.Columns))
	for i, c := range t.Columns {
		s[i] = optimizer.ColRef{Alias: alias, Column: c.Name}
	}
	return s
}

// readRow materializes one base-table row.
func readRow(t *tpch.Table, idx int32) Row {
	row := make(Row, len(t.Columns))
	for i, c := range t.Columns {
		if c.Kind == tpch.KindNumeric {
			row[i] = Value{Num: c.Nums[idx]}
		} else {
			row[i] = Value{Str: c.Strs[idx], IsStr: true}
		}
	}
	return row
}

func (e *Executor) table(n *optimizer.Node) (*tpch.Table, error) {
	t := e.db.Table(n.Table)
	if t == nil {
		return nil, fmt.Errorf("executor: unknown table %s", n.Table)
	}
	return t, nil
}

func (e *Executor) seqScan(n *optimizer.Node) (Schema, []Row, error) {
	t, err := e.table(n)
	if err != nil {
		return nil, nil, err
	}
	schema := tableSchema(t, n.Alias)
	filter, err := compileFilters(n.Filters, schema)
	if err != nil {
		return nil, nil, err
	}
	var rows []Row
	for i := int32(0); i < int32(t.NumRows()); i++ {
		row := readRow(t, i)
		if filter(row) {
			rows = append(rows, row)
		}
	}
	return schema, rows, nil
}

func (e *Executor) indexScan(n *optimizer.Node) (Schema, []Row, error) {
	t, err := e.table(n)
	if err != nil {
		return nil, nil, err
	}
	ix := t.Indexes[n.IndexCol]
	if ix == nil {
		return nil, nil, fmt.Errorf("executor: no index on %s.%s", n.Table, n.IndexCol)
	}
	schema := tableSchema(t, n.Alias)
	filter, err := compileFilters(n.Filters, schema)
	if err != nil {
		return nil, nil, err
	}
	lo, hi := n.IndexLo, n.IndexHi
	if math.IsInf(lo, -1) {
		lo = -math.MaxFloat64
	}
	if math.IsInf(hi, 1) {
		hi = math.MaxFloat64
	}
	var rows []Row
	for _, r := range ix.RangeRows(lo, hi) {
		row := readRow(t, r)
		if filter(row) {
			rows = append(rows, row)
		}
	}
	return schema, rows, nil
}

func (e *Executor) hashJoin(n *optimizer.Node) (Schema, []Row, error) {
	ls, lrows, err := e.exec(n.Left)
	if err != nil {
		return nil, nil, err
	}
	rs, rrows, err := e.exec(n.Right)
	if err != nil {
		return nil, nil, err
	}
	schema := append(append(Schema{}, ls...), rs...)
	filter, err := compileFilters(n.Filters, schema)
	if err != nil {
		return nil, nil, err
	}
	lpos := ls.Pos(n.LeftCol)
	rpos := rs.Pos(n.RightCol)
	if lpos < 0 || rpos < 0 {
		return nil, nil, fmt.Errorf("executor: join columns %s/%s not in inputs", n.LeftCol, n.RightCol)
	}

	// Build on the configured side, probe with the other; output column
	// order is always left ++ right.
	buildRows, probeRows := rrows, lrows
	buildPos, probePos := rpos, lpos
	buildIsLeft := false
	if n.BuildLeft {
		buildRows, probeRows = lrows, rrows
		buildPos, probePos = lpos, rpos
		buildIsLeft = true
	}
	// Key on the full typed Value, not Value.Num alone: string join keys
	// would otherwise all collide on Num==0 and silently cross-product.
	ht := make(map[Value][]int, len(buildRows))
	for i, row := range buildRows {
		ht[row[buildPos]] = append(ht[row[buildPos]], i)
	}
	var out []Row
	for _, probe := range probeRows {
		for _, bi := range ht[probe[probePos]] {
			build := buildRows[bi]
			var combined Row
			if buildIsLeft {
				combined = concatRows(build, probe)
			} else {
				combined = concatRows(probe, build)
			}
			if filter(combined) {
				out = append(out, combined)
			}
		}
	}
	return schema, out, nil
}

func (e *Executor) mergeJoin(n *optimizer.Node) (Schema, []Row, error) {
	ls, lrows, err := e.exec(n.Left)
	if err != nil {
		return nil, nil, err
	}
	rs, rrows, err := e.exec(n.Right)
	if err != nil {
		return nil, nil, err
	}
	schema := append(append(Schema{}, ls...), rs...)
	filter, err := compileFilters(n.Filters, schema)
	if err != nil {
		return nil, nil, err
	}
	lpos := ls.Pos(n.LeftCol)
	rpos := rs.Pos(n.RightCol)
	if lpos < 0 || rpos < 0 {
		return nil, nil, fmt.Errorf("executor: join columns %s/%s not in inputs", n.LeftCol, n.RightCol)
	}
	// Bulk engine: sort both sides (even if upstream order exists, the sort
	// is a stable no-op cost-wise at these scales).
	sort.SliceStable(lrows, func(a, b int) bool { return lrows[a][lpos].Num < lrows[b][lpos].Num })
	sort.SliceStable(rrows, func(a, b int) bool { return rrows[a][rpos].Num < rrows[b][rpos].Num })
	var out []Row
	i, j := 0, 0
	for i < len(lrows) && j < len(rrows) {
		lv, rv := lrows[i][lpos].Num, rrows[j][rpos].Num
		switch {
		case lv < rv:
			i++
		case lv > rv:
			j++
		case lv != rv:
			// Unordered: one key is NaN, which joins nothing. Step past it
			// (without this the merge never advances).
			if math.IsNaN(lv) {
				i++
			} else {
				j++
			}
		default:
			// Emit the cross product of the equal runs.
			jEnd := j
			for jEnd < len(rrows) && rrows[jEnd][rpos].Num == lv {
				jEnd++
			}
			for ; i < len(lrows) && lrows[i][lpos].Num == lv; i++ {
				for k := j; k < jEnd; k++ {
					combined := concatRows(lrows[i], rrows[k])
					if filter(combined) {
						out = append(out, combined)
					}
				}
			}
			j = jEnd
		}
	}
	return schema, out, nil
}

func (e *Executor) indexNLJoin(n *optimizer.Node) (Schema, []Row, error) {
	ls, lrows, err := e.exec(n.Left)
	if err != nil {
		return nil, nil, err
	}
	inner := n.Right
	t := e.db.Table(inner.Table)
	if t == nil {
		return nil, nil, fmt.Errorf("executor: unknown table %s", inner.Table)
	}
	ix := t.Indexes[inner.IndexCol]
	if ix == nil {
		return nil, nil, fmt.Errorf("executor: no index on %s.%s", inner.Table, inner.IndexCol)
	}
	rs := tableSchema(t, inner.Alias)
	schema := append(append(Schema{}, ls...), rs...)
	innerFilter, err := compileFilters(inner.Filters, rs)
	if err != nil {
		return nil, nil, err
	}
	joinFilter, err := compileFilters(n.Filters, schema)
	if err != nil {
		return nil, nil, err
	}
	lpos := ls.Pos(n.LeftCol)
	if lpos < 0 {
		return nil, nil, fmt.Errorf("executor: join column %s not in outer input", n.LeftCol)
	}
	var out []Row
	for _, outer := range lrows {
		v := outer[lpos].Num
		for _, ri := range ix.RangeRows(v, v) {
			row := readRow(t, ri)
			if !innerFilter(row) {
				continue
			}
			combined := concatRows(outer, row)
			if joinFilter(combined) {
				out = append(out, combined)
			}
		}
	}
	return schema, out, nil
}

func (e *Executor) nlJoin(n *optimizer.Node) (Schema, []Row, error) {
	ls, lrows, err := e.exec(n.Left)
	if err != nil {
		return nil, nil, err
	}
	rs, rrows, err := e.exec(n.Right)
	if err != nil {
		return nil, nil, err
	}
	schema := append(append(Schema{}, ls...), rs...)
	filter, err := compileFilters(n.Filters, schema)
	if err != nil {
		return nil, nil, err
	}
	var out []Row
	for _, l := range lrows {
		for _, r := range rrows {
			combined := concatRows(l, r)
			if filter(combined) {
				out = append(out, combined)
			}
		}
	}
	return schema, out, nil
}

func concatRows(a, b Row) Row {
	out := make(Row, 0, len(a)+len(b))
	out = append(out, a...)
	return append(out, b...)
}

// compileFilters resolves predicate columns against a schema once and
// returns a row predicate. Join-kind predicates compare two columns.
func compileFilters(preds []optimizer.Predicate, schema Schema) (func(Row) bool, error) {
	if len(preds) == 0 {
		return func(Row) bool { return true }, nil
	}
	type compiled struct {
		pred optimizer.Predicate
		pos  int
		pos2 int
	}
	cs := make([]compiled, len(preds))
	for i, p := range preds {
		pos := schema.Pos(p.Col)
		if pos < 0 {
			return nil, fmt.Errorf("executor: filter column %s not in schema", p.Col)
		}
		c := compiled{pred: p, pos: pos, pos2: -1}
		if p.Kind == optimizer.PredJoin {
			c.pos2 = schema.Pos(p.RightCol)
			if c.pos2 < 0 {
				return nil, fmt.Errorf("executor: filter column %s not in schema", p.RightCol)
			}
		}
		cs[i] = c
	}
	return func(row Row) bool {
		for _, c := range cs {
			v := row[c.pos]
			switch c.pred.Kind {
			case optimizer.PredCmpNum:
				if !cmpNum(v.Num, c.pred.Op, c.pred.Value) {
					return false
				}
			case optimizer.PredCmpStr:
				if v.Str != c.pred.StrValue {
					return false
				}
			case optimizer.PredBetween:
				if v.Num < c.pred.Lo || v.Num > c.pred.Hi {
					return false
				}
			case optimizer.PredJoin:
				// Typed comparison: string columns compare strings, numeric
				// columns numbers; a type mismatch is unequal rather than a
				// zero-collision.
				b := row[c.pos2]
				if v.IsStr || b.IsStr {
					if v.IsStr != b.IsStr || v.Str != b.Str {
						return false
					}
				} else if v.Num != b.Num {
					return false
				}
			}
		}
		return true
	}, nil
}

func cmpNum(v float64, op optimizer.CmpOp, rhs float64) bool {
	switch op {
	case optimizer.OpEq:
		return v == rhs
	case optimizer.OpLE:
		return v <= rhs
	case optimizer.OpGE:
		return v >= rhs
	case optimizer.OpLT:
		return v < rhs
	case optimizer.OpGT:
		return v > rhs
	}
	return false
}

func (e *Executor) hashAgg(n *optimizer.Node) (Schema, []Row, error) {
	cs, crows, err := e.exec(n.Left)
	if err != nil {
		return nil, nil, err
	}
	// Output schema: group-by columns then one column per aggregate.
	outSchema := make(Schema, 0, len(n.GroupBy)+len(n.Aggs))
	gpos := make([]int, len(n.GroupBy))
	for i, g := range n.GroupBy {
		p := cs.Pos(g)
		if p < 0 {
			return nil, nil, fmt.Errorf("executor: group-by column %s not in input", g)
		}
		gpos[i] = p
		outSchema = append(outSchema, g)
	}
	type aggSpec struct {
		fn  optimizer.AggFunc
		pos int // -1 for COUNT(*)
	}
	var specs []aggSpec
	for _, item := range n.Aggs {
		if item.Agg == optimizer.AggNone {
			continue // plain group-by column, already emitted
		}
		pos := -1
		if !(item.Agg == optimizer.AggCount && item.Col.Column == "") {
			pos = cs.Pos(item.Col)
			if pos < 0 {
				return nil, nil, fmt.Errorf("executor: aggregate column %s not in input", item.Col)
			}
		}
		specs = append(specs, aggSpec{fn: item.Agg, pos: pos})
		outSchema = append(outSchema, optimizer.ColRef{Column: item.String()})
	}

	type aggState struct {
		key   Row
		count float64
		sums  []float64
		mins  []float64
		maxs  []float64
	}
	groups := make(map[string]*aggState)
	var order []string
	for _, row := range crows {
		key := make(Row, len(gpos))
		kb := make([]byte, 0, 16*len(gpos))
		for i, p := range gpos {
			key[i] = row[p]
			if row[p].IsStr {
				kb = append(kb, row[p].Str...)
			} else {
				kb = appendFloat(kb, row[p].Num)
			}
			kb = append(kb, 0)
		}
		ks := string(kb)
		st := groups[ks]
		if st == nil {
			st = &aggState{
				key:  key,
				sums: make([]float64, len(specs)),
				mins: make([]float64, len(specs)),
				maxs: make([]float64, len(specs)),
			}
			for i := range st.mins {
				st.mins[i] = math.Inf(1)
				st.maxs[i] = math.Inf(-1)
			}
			groups[ks] = st
			order = append(order, ks)
		}
		st.count++
		for i, sp := range specs {
			if sp.pos < 0 {
				continue
			}
			v := row[sp.pos].Num
			st.sums[i] += v
			if v < st.mins[i] {
				st.mins[i] = v
			}
			if v > st.maxs[i] {
				st.maxs[i] = v
			}
		}
	}
	out := make([]Row, 0, len(order))
	for _, ks := range order {
		st := groups[ks]
		row := make(Row, 0, len(outSchema))
		row = append(row, st.key...)
		for i, sp := range specs {
			var v float64
			switch sp.fn {
			case optimizer.AggCount:
				v = st.count
			case optimizer.AggSum:
				v = st.sums[i]
			case optimizer.AggAvg:
				v = st.sums[i] / st.count
			case optimizer.AggMin:
				v = st.mins[i]
			case optimizer.AggMax:
				v = st.maxs[i]
			}
			row = append(row, Value{Num: v})
		}
		out = append(out, row)
	}
	// A global aggregate over zero rows still yields one row of zeros.
	if len(gpos) == 0 && len(out) == 0 {
		row := make(Row, len(specs))
		for i, sp := range specs {
			switch sp.fn {
			case optimizer.AggMin:
				row[i] = Value{Num: math.Inf(1)}
			case optimizer.AggMax:
				row[i] = Value{Num: math.Inf(-1)}
			default:
				_ = sp
				row[i] = Value{Num: 0}
			}
		}
		out = append(out, row)
	}
	return outSchema, out, nil
}

func appendFloat(b []byte, f float64) []byte {
	bits := math.Float64bits(f)
	for i := 0; i < 8; i++ {
		b = append(b, byte(bits>>(8*uint(i))))
	}
	return b
}
