package executor

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"repro/internal/optimizer"
	"repro/internal/queries"
)

// assertSameResult requires bit-identical output from the compiled engine
// and the tree-walk engine: same schema, same row order, same cell values
// (including float bit patterns — the compiled operators are written to
// accumulate in the exact order the tree-walk engine does).
func assertSameResult(t *testing.T, label string, want, got *Result) {
	t.Helper()
	if len(got.Schema) != len(want.Schema) {
		t.Fatalf("%s: schema length %d, want %d", label, len(got.Schema), len(want.Schema))
	}
	for i := range want.Schema {
		if got.Schema[i] != want.Schema[i] {
			t.Fatalf("%s: schema[%d] = %v, want %v", label, i, got.Schema[i], want.Schema[i])
		}
	}
	if len(got.Rows) != len(want.Rows) {
		t.Fatalf("%s: %d rows, want %d", label, len(got.Rows), len(want.Rows))
	}
	for i := range want.Rows {
		for j := range want.Rows[i] {
			if got.Rows[i][j] != want.Rows[i][j] {
				t.Fatalf("%s: row %d col %d = %v, want %v", label, i, j, got.Rows[i][j], want.Rows[i][j])
			}
		}
	}
}

// TestCompiledMatchesTreeWalk is the batch-vs-row property suite over the
// standard templates: every registered TPC-H template, compiled once per
// plan shape and probed at several parameter points, must reproduce the
// tree-walk engine's output exactly. The compiled Exec runs BEFORE the
// plan tree is reinstantiated for the tree-walk run, so any aliasing of
// plan-tree literals inside the compiled program shows up as a mismatch.
func TestCompiledMatchesTreeWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for _, d := range queries.Defs {
		d := d
		t.Run(d.Name, func(t *testing.T) {
			tm, err := queries.ByName(d.Name)
			if err != nil {
				t.Fatal(err)
			}
			for shape := 0; shape < 3; shape++ {
				point := make([]float64, tm.Degree())
				for j := range point {
					point[j] = 0.05 + rng.Float64()*0.9
				}
				inst, err := opt.InstanceAt(tm, point)
				if err != nil {
					t.Fatal(err)
				}
				plan, err := opt.OptimizeInstance(inst)
				if err != nil {
					t.Fatal(err)
				}
				cp, err := exec.Compile(plan, tm.Query)
				if err != nil {
					t.Fatalf("shape %d: Compile: %v", shape, err)
				}
				probes := [][]float64{point}
				for p := 0; p < 2; p++ {
					pr := make([]float64, tm.Degree())
					for j := range pr {
						pr[j] = rng.Float64()
					}
					probes = append(probes, pr)
				}
				for pi, probe := range probes {
					pInst, err := opt.InstanceAt(tm, probe)
					if err != nil {
						t.Fatal(err)
					}
					got, err := cp.Exec(pInst.Values)
					if err != nil {
						t.Fatalf("shape %d probe %d: Exec: %v", shape, pi, err)
					}
					reinstantiate(plan.Root, tm, pInst.Values)
					want, err := exec.Run(plan)
					if err != nil {
						t.Fatalf("shape %d probe %d: Run: %v", shape, pi, err)
					}
					assertSameResult(t, fmt.Sprintf("%s shape %d probe %d", d.Name, shape, pi), want, got)
				}
			}
		})
	}
}

// fuzzQuery generates a random literal-only query (no parameters) over the
// standard schema: one or two tables, a random mix of numeric comparisons,
// BETWEEN ranges and string equality filters, optionally grouped.
func fuzzQuery(rng *rand.Rand) string {
	type rel struct {
		table, alias string
		numCols      []string // non-negative numeric columns only, so the
		// emitted literal never needs a sign the SQL lexer can't read
		strCols []string
	}
	rels := []rel{
		{"nation", "n", []string{"n_nationkey", "n_regionkey", "n_date"}, []string{"n_name"}},
		{"supplier", "s", []string{"s_suppkey", "s_nationkey", "s_date"}, nil},
		{"part", "p", []string{"p_partkey", "p_size", "p_retailprice", "p_date"}, []string{"p_brand", "p_type"}},
		{"customer", "c", []string{"c_custkey", "c_nationkey", "c_date"}, []string{"c_mktsegment"}},
		{"orders", "o", []string{"o_orderkey", "o_custkey", "o_totalprice", "o_orderdate"}, []string{"o_orderpriority"}},
		{"lineitem", "l", []string{"l_orderkey", "l_quantity", "l_extendedprice", "l_shipdate"}, nil},
	}
	joins := map[string][2]string{ // child alias -> parent alias, "childcol=parentcol"
		"s": {"n", "s.s_nationkey = n.n_nationkey"},
		"c": {"n", "c.c_nationkey = n.n_nationkey"},
		"o": {"c", "o.o_custkey = c.c_custkey"},
		"l": {"o", "l.l_orderkey = o.o_orderkey"},
	}
	find := func(alias string) rel {
		for _, r := range rels {
			if r.alias == alias {
				return r
			}
		}
		panic("unknown alias " + alias)
	}

	chosen := []rel{rels[rng.Intn(len(rels))]}
	var joinPred string
	if j, ok := joins[chosen[0].alias]; ok && rng.Intn(2) == 0 {
		chosen = append(chosen, find(j[0]))
		joinPred = j[1]
	}

	var preds []string
	if joinPred != "" {
		preds = append(preds, joinPred)
	}
	numLit := func(r rel, col string) string {
		q := testCat.MustColumn(r.table, col).Quantile(rng.Float64())
		return fmt.Sprintf("%.4f", q)
	}
	for _, r := range chosen {
		for _, col := range r.numCols {
			switch rng.Intn(4) {
			case 0:
				op := []string{"<=", ">=", "<", ">"}[rng.Intn(4)]
				preds = append(preds, fmt.Sprintf("%s.%s %s %s", r.alias, col, op, numLit(r, col)))
			case 1:
				lo, hi := numLit(r, col), numLit(r, col)
				preds = append(preds, fmt.Sprintf("%s.%s BETWEEN %s AND %s", r.alias, col, lo, hi))
			}
		}
		for _, col := range r.strCols {
			if rng.Intn(3) == 0 {
				strs := testDB.MustTable(r.table).MustColumn(col).Strs
				preds = append(preds, fmt.Sprintf("%s.%s = '%s'", r.alias, col, strs[rng.Intn(len(strs))]))
			}
		}
	}

	sel := "COUNT(*)"
	groupBy := ""
	first := chosen[0]
	switch rng.Intn(3) {
	case 1:
		sel = fmt.Sprintf("COUNT(*), SUM(%s.%s)", first.alias, first.numCols[rng.Intn(len(first.numCols))])
	case 2:
		g := fmt.Sprintf("%s.%s", first.alias, first.numCols[rng.Intn(len(first.numCols))])
		sel = fmt.Sprintf("%s, COUNT(*)", g)
		groupBy = " GROUP BY " + g
	}

	var from []string
	for _, r := range chosen {
		from = append(from, fmt.Sprintf("%s %s", r.table, r.alias))
	}
	sql := fmt.Sprintf("SELECT %s FROM %s", sel, strings.Join(from, ", "))
	if len(preds) > 0 {
		sql += " WHERE " + strings.Join(preds, " AND ")
	}
	return sql + groupBy
}

// TestCompiledMatchesTreeWalkFuzzed drives both engines over fuzzer-
// generated predicate sets. Every query the optimizer accepts must compile:
// the serving path has no other engine to fall back to.
func TestCompiledMatchesTreeWalkFuzzed(t *testing.T) {
	rng := rand.New(rand.NewSource(97))
	for i := 0; i < 60; i++ {
		sql := fuzzQuery(rng)
		q, err := parseSQL(sql)
		if err != nil {
			t.Fatalf("trial %d: %q: %v", i, sql, err)
		}
		plan, err := opt.Optimize(q, nil)
		if err != nil {
			t.Fatalf("trial %d: optimize %q: %v", i, sql, err)
		}
		want, err := exec.Run(plan)
		if err != nil {
			t.Fatalf("trial %d: run %q: %v", i, sql, err)
		}
		cp, err := exec.Compile(plan, q)
		if err != nil {
			t.Fatalf("trial %d: compile %q: %v", i, sql, err)
		}
		got, err := cp.Exec(nil)
		if err != nil {
			t.Fatalf("trial %d: compiled exec %q: %v", i, sql, err)
		}
		assertSameResult(t, sql, want, got)
	}
}

// TestCompiledArenaParallel stress-tests arena checkout under concurrent
// execution of a single compiled plan (the production shape: one cached
// program, many serving goroutines). Run with -race. Expected outputs are
// precomputed with the tree-walk engine so every concurrent result is
// checked for corruption, not just for absence of data races.
func TestCompiledArenaParallel(t *testing.T) {
	tm, err := queries.ByName("Q2")
	if err != nil {
		t.Fatal(err)
	}
	inst, err := opt.InstanceAt(tm, []float64{0.4, 0.4})
	if err != nil {
		t.Fatal(err)
	}
	plan, err := opt.OptimizeInstance(inst)
	if err != nil {
		t.Fatal(err)
	}
	cp, err := exec.Compile(plan, tm.Query)
	if err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(13))
	type probe struct {
		values []float64
		want   *Result
	}
	var probes []probe
	for i := 0; i < 6; i++ {
		pInst, err := opt.InstanceAt(tm, []float64{rng.Float64(), rng.Float64()})
		if err != nil {
			t.Fatal(err)
		}
		reinstantiate(plan.Root, tm, pInst.Values)
		want, err := exec.Run(plan)
		if err != nil {
			t.Fatal(err)
		}
		probes = append(probes, probe{pInst.Values, want})
	}

	const workers = 8
	iters := 40
	if testing.Short() {
		iters = 10
	}
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(100 + w)))
			for i := 0; i < iters; i++ {
				p := probes[r.Intn(len(probes))]
				got, err := cp.Exec(p.values)
				if err != nil {
					errs <- fmt.Errorf("worker %d iter %d: %v", w, i, err)
					return
				}
				if len(got.Rows) != len(p.want.Rows) {
					errs <- fmt.Errorf("worker %d iter %d: %d rows, want %d", w, i, len(got.Rows), len(p.want.Rows))
					return
				}
				for ri := range p.want.Rows {
					for ci := range p.want.Rows[ri] {
						if got.Rows[ri][ci] != p.want.Rows[ri][ci] {
							errs <- fmt.Errorf("worker %d iter %d: row %d col %d = %v, want %v",
								w, i, ri, ci, got.Rows[ri][ci], p.want.Rows[ri][ci])
							return
						}
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestIndexScanStrictBounds is the differential test for comparison
// predicates that drive an index scan: the driving predicate is dropped from
// the scan's residual filters, so the bounds alone must give it its exact
// meaning — strict for < and >. For every operator on an indexed column with
// duplicate keys, at values on and between keys, the index-scan plan and a
// sequential-scan plan must agree, under both engines and however the
// parameter reaches the bounds (planned in, rebound by Recost, derived by the
// compiled scan), with a count taken directly over the column.
func TestIndexScanStrictBounds(t *testing.T) {
	keys := testDB.MustTable("lineitem").MustColumn("l_partkey").Nums
	lo, hi := keys[0], keys[0]
	for _, k := range keys {
		lo, hi = min(lo, k), max(hi, k)
	}
	// The column holds whole numbers, so the halves lie between keys.
	values := []float64{lo - 1, lo, lo + 0.5, lo + 1, lo + 2, hi - 1.5, hi - 1, hi, hi + 1}
	for _, tc := range []struct {
		op      string
		planAt  float64 // a value selective enough that the optimizer picks the index
		matches func(k, v float64) bool
	}{
		{"<", lo + 2, func(k, v float64) bool { return k < v }},
		{"<=", lo + 2, func(k, v float64) bool { return k <= v }},
		{">", hi - 2, func(k, v float64) bool { return k > v }},
		{">=", hi - 2, func(k, v float64) bool { return k >= v }},
		{"=", lo + 2, func(k, v float64) bool { return k == v }},
	} {
		q, err := parseSQL("SELECT COUNT(*) FROM lineitem WHERE l_partkey " + tc.op + " ?")
		if err != nil {
			t.Fatal(err)
		}
		idxPlan, err := opt.Optimize(q, []float64{tc.planAt})
		if err != nil {
			t.Fatal(err)
		}
		if scan := idxPlan.Root.Left; scan.Op != optimizer.OpIndexScan || scan.IndexCol != "l_partkey" {
			t.Fatalf("%s: optimizer chose %s, want an index scan on l_partkey", tc.op, idxPlan.Fingerprint)
		}
		seqRoot := *idxPlan.Root
		seqRoot.Left = &optimizer.Node{Op: optimizer.OpSeqScan, Table: "lineitem", Alias: idxPlan.Root.Left.Alias, Filters: q.Preds}
		seqPlan := &optimizer.Plan{Root: &seqRoot}

		for _, v := range values {
			want := 0.0
			for _, k := range keys {
				if tc.matches(k, v) {
					want++
				}
			}
			check := func(path string, res *Result, err error) {
				t.Helper()
				if err != nil {
					t.Fatalf("l_partkey %s %v, %s: %v", tc.op, v, path, err)
				}
				if got := res.Rows[0][0].Num; got != want {
					t.Errorf("l_partkey %s %v, %s: COUNT(*) = %v, want %v", tc.op, v, path, got, want)
				}
			}
			for _, p := range []struct {
				name string
				plan *optimizer.Plan
			}{{"index scan", idxPlan}, {"seq scan", seqPlan}} {
				cp, err := exec.Compile(p.plan, q)
				if err != nil {
					t.Fatal(err)
				}
				res, err := cp.Exec([]float64{v})
				check(p.name+", compiled", res, err)
				bound, err := opt.Recost(q, p.plan, []float64{v})
				if err != nil {
					t.Fatal(err)
				}
				res, err = exec.Run(bound)
				check(p.name+", rebound tree-walk", res, err)
			}
			fresh, err := opt.Optimize(q, []float64{v})
			if err != nil {
				t.Fatal(err)
			}
			res, err := exec.Run(fresh)
			check("optimizer's plan "+fresh.Fingerprint, res, err)
		}
	}
}
