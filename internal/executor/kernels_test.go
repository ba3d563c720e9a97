package executor

import (
	"fmt"
	"maps"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"repro/internal/optimizer"
	"repro/internal/queries"
	"repro/internal/tpch"
)

// TestScanKernelsMatchTestRow holds every scan kernel to cPred.testRow, the
// row-at-a-time form of every predicate. The range shapes — the four
// inequalities (literal and parameter-bound) and BETWEEN (NaN and inverted
// bounds among them) — go through the bitmaps: alone and in conjunctions of
// two to four, extracted in row order and as the bit test over a permuted id
// vector, on bitmaps that alias an ordered index and on ones that sorted the
// column themselves. Equality, string equality and the same-row column
// comparison go through selectAll over the contiguous column and refine over
// a gathered id vector. Columns carry NaN, ±Inf and ±0 among ordinary values;
// right-hand sides are chosen so that selectivities of exactly 0 and exactly
// 1 occur as well as everything in between; table sizes straddle 0, 1 and
// 1024.
func TestScanKernelsMatchTestRow(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	negZero := math.Copysign(0, -1)
	specials := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, negZero}
	rhs := append([]float64{-2, -0.3, 0.25, 2}, specials...)
	ops := []optimizer.CmpOp{optimizer.OpEq, optimizer.OpLE, optimizer.OpGE, optimizer.OpLT, optimizer.OpGT}

	for _, n := range []int{0, 1, 1023, 1024, 1025} {
		// plain holds only ordinary values in [-1, 1), so a comparison can
		// pass every row; special mixes the edge values in; other gives the
		// column comparison something to be equal to now and then.
		plain := &tpch.Column{Name: "plain", Kind: tpch.KindNumeric, Nums: make([]float64, n)}
		special := &tpch.Column{Name: "special", Kind: tpch.KindNumeric, Nums: make([]float64, n)}
		other := &tpch.Column{Name: "other", Kind: tpch.KindNumeric, Nums: make([]float64, n)}
		strs := &tpch.Column{Name: "strs", Kind: tpch.KindString, Strs: make([]string, n)}
		same := &tpch.Column{Name: "same", Kind: tpch.KindString, Strs: make([]string, n)}
		for i := 0; i < n; i++ {
			plain.Nums[i] = rng.Float64()*2 - 1
			special.Nums[i] = plain.Nums[i]
			if rng.Intn(4) == 0 {
				special.Nums[i] = specials[rng.Intn(len(specials))]
			}
			other.Nums[i] = special.Nums[i]
			if rng.Intn(2) == 0 {
				other.Nums[i] = rng.Float64()
			}
			strs.Strs[i] = []string{"a", "b", "c"}[rng.Intn(3)]
			same.Strs[i] = "a"
		}
		// Each numeric column's bitmaps twice: over an ordered index (aliased
		// for plain; special's holds NaN keys, which no sort places, so it must
		// be passed over) and over the bare column.
		tbl := tpch.NewTable("t", plain, special)
		bitmaps := map[*tpch.Column][2]*rangeBits{}
		for _, col := range []*tpch.Column{plain, special} {
			if err := tbl.BuildIndex(col.Name); err != nil {
				t.Fatal(err)
			}
			bitmaps[col] = [2]*rangeBits{newRangeBits(col.Nums, tbl.Indexes[col.Name]), newRangeBits(col.Nums, nil)}
		}

		var preds []cPred
		for _, col := range []*tpch.Column{plain, special} {
			for _, op := range ops {
				for _, v := range rhs {
					preds = append(preds,
						cPred{kind: optimizer.PredCmpNum, op: op, value: v, paramIdx: -1, col: col},
						cPred{kind: optimizer.PredCmpNum, op: op, value: math.NaN(), paramIdx: 0, col: col})
				}
			}
			for _, b := range [][2]float64{
				{math.Inf(-1), math.Inf(1)}, {1, -1}, {-0.5, 0.5}, {0, 0}, {negZero, 0.25},
				{math.NaN(), math.NaN()}, {math.Inf(1), math.Inf(1)}, {math.NaN(), 0.25}, {-0.3, math.NaN()},
			} {
				preds = append(preds, cPred{kind: optimizer.PredBetween, lo: b[0], hi: b[1], col: col})
			}
			preds = append(preds, cPred{kind: optimizer.PredJoin, col: col, col2: other})
		}
		for _, col := range []*tpch.Column{strs, same} {
			for _, s := range []string{"a", "b", "zzz", ""} {
				preds = append(preds, cPred{kind: optimizer.PredCmpStr, strValue: s, col: col})
			}
		}

		// Index scan candidates arrive in key order, not row order, and a
		// refined vector is any subsequence of them.
		ids := make([]int32, 0, n)
		for _, i := range rng.Perm(n) {
			if rng.Intn(3) > 0 {
				ids = append(ids, int32(i))
			}
		}

		// check holds a pair of kernels — all computes the passing rows of the
		// whole table into its argument, some keeps the passing ids of its
		// argument in place — to the conjunction of the predicates' testRow,
		// and returns how many rows of the table pass.
		check := func(label string, all, some func([]int32) int, oracle []*cPred, params []float64) int {
			t.Helper()
			pass := func(id int32) bool {
				for _, p := range oracle {
					if !p.testRow(params, id) {
						return false
					}
				}
				return true
			}
			var want []int32
			for id := int32(0); id < int32(n); id++ {
				if pass(id) {
					want = append(want, id)
				}
			}
			out := make([]int32, n)
			if got := out[:all(out)]; !slices.Equal(got, want) {
				t.Fatalf("%s: over the table the kernel kept %d rows, testRow %d (first difference at %d)", label, len(got), len(want), firstDiff(got, want))
			}
			kept := len(want)
			want = want[:0]
			for _, id := range ids {
				if pass(id) {
					want = append(want, id)
				}
			}
			in := slices.Clone(ids)
			if got := in[:some(in)]; !slices.Equal(got, want) {
				t.Fatalf("%s: over the id vector the kernel kept %d ids, testRow %d (first difference at %d)", label, len(got), len(want), firstDiff(got, want))
			}
			return kept
		}
		// checkSet is check for a bitmap: extracted, and tested against ids.
		checkSet := func(label string, set []uint64, oracle []*cPred, params []float64) int {
			t.Helper()
			return check(label,
				func(out []int32) int { return extract(set, out) },
				func(in []int32) int { return refineSet(set, in) }, oracle, params)
		}

		ar := &Arena{}
		sawNone, sawAll := false, false
		var ranges []int // the range shapes, by position in preds
		for pi := range preds {
			p := &preds[pi]
			// The rhs values cycle through the parameter-bound twins in step
			// with their literal siblings.
			params := []float64{rhs[(pi/2)%len(rhs)]}
			label := fmt.Sprintf("n=%d pred %d (kind %d op %d lo %v hi %v col %s params %v)", n, pi, p.kind, p.op, p.lo, p.hi, p.col.Name, params)

			if !p.isRange() {
				check(label,
					func(out []int32) int { return p.selectAll(params, out) },
					func(in []int32) int { return p.refine(params, in) }, []*cPred{p}, params)
				continue
			}
			ranges = append(ranges, pi)
			for v, rb := range bitmaps[p.col] {
				bound := *p // testRow keeps judging the bounds as written
				bound.bindRange(rb)
				kept := checkSet(fmt.Sprintf("%s bitmaps %d", label, v), ar.rangeSet([]cPred{bound}, params, n), []*cPred{p}, params)
				sawNone = sawNone || kept == 0
				sawAll = sawAll || kept == n
			}
		}
		if !sawNone || !sawAll {
			t.Errorf("n=%d: range predicates reached selectivity 0: %v, selectivity 1: %v; want both", n, sawNone, sawAll)
		}

		// Conjunctions of two to four range shapes drawn across both columns
		// and both kinds of bitmaps, one parameter value shared by the
		// parameter-bound ones.
		for trial := 0; trial < 400; trial++ {
			params := []float64{rhs[rng.Intn(len(rhs))]}
			var conj []cPred
			var oracle []*cPred
			label := fmt.Sprintf("n=%d conjunction of preds", n)
			for k := 2 + rng.Intn(3); k > 0; k-- {
				pi := ranges[rng.Intn(len(ranges))]
				bound := preds[pi]
				bound.bindRange(bitmaps[bound.col][rng.Intn(2)])
				conj, oracle = append(conj, bound), append(oracle, &preds[pi])
				label += fmt.Sprintf(" %d", pi)
			}
			checkSet(fmt.Sprintf("%s at %v", label, params), ar.rangeSet(conj, params, n), oracle, params)
		}
	}
}

func firstDiff(a, b []int32) int {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	return min(len(a), len(b))
}

// TestCompiledMatchesTreeWalkAggregateEdges extends the equivalence suite to
// the two aggregation shapes the templates never produce: a global aggregate
// no row qualifies for (one row: zero counts and sums, the MIN/MAX
// identities) and a GROUP BY over a key column holding both +0 and -0, which
// the row engine's byte-encoded keys keep apart and float equality would
// merge. It runs over a private database so the key column can be doctored.
func TestCompiledMatchesTreeWalkAggregateEdges(t *testing.T) {
	db := tpch.MustGenerate(tpch.Config{Scale: 2000, Seed: 11})
	ex := New(db)
	region := db.MustTable("nation").MustColumn("n_regionkey").Nums
	for i := range region {
		if region[i] <= 1 {
			region[i] = math.Copysign(0, float64(i%2)-0.5) // -0 on even rows, +0 on odd
		}
	}
	// The range bitmaps alias the column's ordered index: it must hold the
	// doctored values.
	if err := db.MustTable("nation").BuildIndex("n_regionkey"); err != nil {
		t.Fatal(err)
	}
	col := func(name string) optimizer.ColRef { return optimizer.ColRef{Alias: "n", Column: name} }
	aggs := []optimizer.SelectItem{
		{Agg: optimizer.AggCount},
		{Agg: optimizer.AggSum, Col: col("n_nationkey")},
		{Agg: optimizer.AggAvg, Col: col("n_nationkey")},
		{Agg: optimizer.AggMin, Col: col("n_date")},
		{Agg: optimizer.AggMax, Col: col("n_date")},
		{Agg: optimizer.AggMin, Col: col("n_regionkey")},
		{Agg: optimizer.AggMax, Col: col("n_regionkey")},
	}
	none := optimizer.Predicate{Kind: optimizer.PredCmpNum, Col: col("n_nationkey"), Op: optimizer.OpLT, Value: 0, ParamIdx: -1}
	zeros := optimizer.Predicate{Kind: optimizer.PredCmpNum, Col: col("n_regionkey"), Op: optimizer.OpLE, Value: 0, ParamIdx: -1}

	for _, tc := range []struct {
		name    string
		groupBy []optimizer.ColRef
		filters []optimizer.Predicate
		rows    int
	}{
		{"global aggregate over zero rows", nil, []optimizer.Predicate{none}, 1},
		{"global aggregate", nil, nil, 1},
		// The scan hands the aggregate its bitmap: MIN and MAX must keep the
		// first zero in row order, as a fold over the extracted rows does.
		{"global aggregate over both zeros", nil, []optimizer.Predicate{zeros}, 1},
		{"grouped aggregate over zero rows", []optimizer.ColRef{col("n_regionkey")}, []optimizer.Predicate{none}, 0},
		{"group key with +0 and -0", []optimizer.ColRef{col("n_regionkey")}, nil, 5},
	} {
		items := aggs
		if tc.groupBy != nil {
			items = append([]optimizer.SelectItem{{Col: tc.groupBy[0]}}, aggs...)
		}
		plan := &optimizer.Plan{Root: &optimizer.Node{
			Op: optimizer.OpHashAgg, GroupBy: tc.groupBy, Aggs: items,
			Left: &optimizer.Node{Op: optimizer.OpSeqScan, Table: "nation", Alias: "n", Filters: tc.filters},
		}}
		want, err := ex.Run(plan)
		if err != nil {
			t.Fatalf("%s: Run: %v", tc.name, err)
		}
		if len(want.Rows) != tc.rows {
			t.Fatalf("%s: tree-walk engine returned %d rows, want %d", tc.name, len(want.Rows), tc.rows)
		}
		cp, err := ex.Compile(plan, nil)
		if err != nil {
			t.Fatalf("%s: Compile: %v", tc.name, err)
		}
		// Twice, so the second run reuses the arena the first one sized.
		for run := 0; run < 2; run++ {
			got, err := cp.Exec(nil)
			if err != nil {
				t.Fatalf("%s: Exec: %v", tc.name, err)
			}
			// On the cells' bits: float == cannot tell the zeros apart.
			assertBitIdentical(t, tc.name, want, got)
			if (got.Rows == nil) != (want.Rows == nil) {
				t.Errorf("%s: compiled Rows nil = %v, tree-walk %v", tc.name, got.Rows == nil, want.Rows == nil)
			}
		}
	}
}

// The differential suite for the key-consuming kernels. Every join operator
// and the grouped aggregate run compiled against tree-walk over customer ⋈
// orders with the two key columns doctored into each shape that decides a
// kernel: the addressed kernels must be bit-identical where Compile chooses
// them, the generic ones where it must not, and the test asserts which one
// it was, so nothing passes by taking the generic path throughout. The scans
// beneath filter through range bitmaps, so the suite doctors their filter
// columns as well and runs all four inequalities.

// keyShape doctors the join's key columns: left is customer.c_custkey (75
// rows at scale 2000), right is orders.o_custkey (750 rows).
type keyShape struct {
	name string
	fill func(rng *rand.Rand, left, right []float64)
	// The kernel Compile must choose for a hash join building on the left
	// and on the right input, a merge join, an index-nested-loop join probing
	// the index on the right column, and GROUP BY the left and the right
	// column.
	hashL, hashR, merge, inl, groupL, groupR kernel
}

// fillRange fills col with whole numbers drawn from [lo, hi]: a shuffled run
// of consecutive values when unique (the column must fit), uniform draws
// otherwise.
func fillRange(rng *rand.Rand, col []float64, lo, hi int, unique bool) {
	perm := rng.Perm(hi - lo + 1)
	for i := range col {
		if unique {
			col[i] = float64(lo + perm[i])
		} else {
			col[i] = float64(lo + rng.Intn(hi-lo+1))
		}
	}
}

// withSpecial is a dense shape with one value of one column replaced by v,
// which takes that column's facts away.
func withSpecial(name string, v float64, inLeft bool) keyShape {
	s := keyShape{name: name, fill: func(rng *rand.Rand, left, right []float64) {
		fillRange(rng, left, 0, 40, false)
		fillRange(rng, right, 0, 40, false)
		col := right
		if inLeft {
			col = left
		}
		col[rng.Intn(len(col))] = v
	}}
	// Every join reads both columns; only GROUP BY the untouched one addresses.
	if inLeft {
		s.groupR = kernAddressed
	} else {
		s.groupL = kernAddressed
	}
	return s
}

var keyShapes = []keyShape{
	{"dense unique", func(rng *rand.Rand, left, right []float64) {
		fillRange(rng, left, 1, len(left), true)
		fillRange(rng, right, 1, len(left), false)
	}, kernAddressedOnce, kernAddressed, kernAddressed, kernAddressed, kernAddressed, kernAddressed},
	{"dense with duplicates on both sides", func(rng *rand.Rand, left, right []float64) {
		fillRange(rng, left, 1, 20, false)
		fillRange(rng, right, 1, 25, false)
	}, kernAddressed, kernAddressed, kernAddressed, kernAddressed, kernAddressed, kernAddressed},
	{"negative integers", func(rng *rand.Rand, left, right []float64) {
		fillRange(rng, left, -40, len(left)-41, true)
		fillRange(rng, right, -50, 50, false)
	}, kernAddressedOnce, kernAddressed, kernAddressed, kernAddressed, kernAddressed, kernAddressed},
	{"probe keys outside the build span", func(rng *rand.Rand, left, right []float64) {
		fillRange(rng, left, 100, 99+len(left), true)
		fillRange(rng, right, 0, 300, false)
	}, kernAddressedOnce, kernAddressed, kernAddressed, kernAddressed, kernAddressed, kernAddressed},
	withSpecial("-0 in the left column", math.Copysign(0, -1), true),
	withSpecial("-0 in the right column", math.Copysign(0, -1), false),
	withSpecial("NaN in the left column", math.NaN(), true),
	withSpecial("NaN in the right column", math.NaN(), false),
	withSpecial("fraction in the left column", 7.5, true),
	withSpecial("fraction in the right column", 7.5, false),
	{"sparse span on both sides", func(rng *rand.Rand, left, right []float64) {
		for _, col := range [][]float64{left, right} {
			for i := range col {
				col[i] = 7 + 1e7*float64(rng.Intn(2))
			}
		}
	}, kernGeneric, kernGeneric, kernGeneric, kernGeneric, kernGeneric, kernGeneric},
	// The left column's span is too wide for a table, but its values are
	// whole, so it can probe one built over the dense right column.
	{"sparse left, dense right", func(rng *rand.Rand, left, right []float64) {
		for i := range left {
			left[i] = 7 + 1e7*float64(rng.Intn(2))
		}
		fillRange(rng, right, 1, 40, false)
	}, kernGeneric, kernAddressed, kernAddressed, kernAddressed, kernGeneric, kernAddressed},
}

// kernelDB is the suite's private database: the key columns are rewritten
// for every shape, and the two string columns share a small domain so that a
// string-keyed join matches.
type kernelDB struct {
	db          *tpch.Database
	left, right []float64
	cDate       [2]float64 // value range of each parameter's column
	oDate       [2]float64
	oPrice      [2]float64
	// The scans' filter columns, c_date and o_orderdate, and the values the
	// generator gave them.
	filterCols [2]*tpch.Column
	generated  [2][]float64
}

func newKernelDB(scale int) *kernelDB {
	db := tpch.MustGenerate(tpch.Config{Scale: scale, Seed: 23})
	c, o := db.MustTable("customer"), db.MustTable("orders")
	domain := []string{"AUTO", "BUILD", "HOUSE", "NONE"}
	for i, col := range []*tpch.Column{c.MustColumn("c_mktsegment"), o.MustColumn("o_orderpriority")} {
		for r := range col.Strs {
			col.Strs[r] = domain[(r*7+i)%(len(domain)-i)]
		}
	}
	span := func(nums []float64) [2]float64 {
		return [2]float64{slices.Min(nums), slices.Max(nums)}
	}
	cDate, oDate := c.MustColumn("c_date"), o.MustColumn("o_orderdate")
	return &kernelDB{
		db: db, left: c.MustColumn("c_custkey").Nums, right: o.MustColumn("o_custkey").Nums,
		cDate: span(cDate.Nums), oDate: span(oDate.Nums), oPrice: span(o.MustColumn("o_totalprice").Nums),
		filterCols: [2]*tpch.Column{cDate, oDate},
		generated:  [2][]float64{slices.Clone(cDate.Nums), slices.Clone(oDate.Nums)},
	}
}

// doctor rewrites the key columns into the shape and, on an odd seed, a
// quarter of each filter column into NaN, ±Inf, ±0 and repeats of other rows'
// values (an even seed restores what the generator wrote, which an ordered
// index can hold, so the range bitmaps alias it). It rebuilds the indexes over
// the rewritten columns and returns a fresh Executor: facts and bitmaps are
// learned once per Executor, so a doctored database needs a new one.
func (k *kernelDB) doctor(t testing.TB, shape keyShape, seed int64) *Executor {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	shape.fill(rng, k.left, k.right)
	specials := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1)}
	for i, col := range k.filterCols {
		copy(col.Nums, k.generated[i])
		if seed&1 == 0 {
			continue
		}
		for r := range col.Nums {
			switch rng.Intn(8) {
			case 0:
				col.Nums[r] = specials[rng.Intn(len(specials))]
			case 1:
				col.Nums[r] = col.Nums[rng.Intn(len(col.Nums))]
			}
		}
	}
	for _, ix := range [][2]string{{"customer", "c_date"}, {"orders", "o_orderdate"}, {"orders", "o_custkey"}} {
		if err := k.db.MustTable(ix[0]).BuildIndex(ix[1]); err != nil {
			t.Fatal(err)
		}
	}
	return New(k.db)
}

// kernelCase is one plan over the doctored database: a join of customer c
// (left) and orders o (right) on the key columns, or no join at all, under
// one of five tops. Parameter 0 bounds c.c_date, parameter 1 o.o_orderdate
// (the inner relation's filter under an index-nested-loop join), parameter 2
// o.o_totalprice (which has no index), as the residual join filter and as a
// second filter of the orders scan. A scan case aggregates the customer scan
// under tops 1 and 2 (top 1 folds c_acctbal and the filter column c_date,
// whose doctored zeros MIN and MAX keep the first of) and the orders scan
// under tops 3 and 4.
type kernelCase struct {
	op        optimizer.OpKind // a join operator, or OpSeqScan: aggregate one scan
	buildLeft bool
	residual  bool
	multi     bool // the orders scan filters on o_totalprice as well
	strKey    bool // join and group on the string columns instead
	top       int  // 0 rows, 1 global aggregate, 2 GROUP BY the left key, 3 the right key, 4 a bare COUNT(*)
	cmp       int  // the parameter predicates' comparison, of rangeOps
}

// rangeOps are the comparisons a kernelCase's parameters bound their columns
// by; the zero kernelCase uses <=, as the standard templates do.
var rangeOps = [4]optimizer.CmpOp{optimizer.OpLE, optimizer.OpGE, optimizer.OpLT, optimizer.OpGT}

func (kc kernelCase) String() string {
	return fmt.Sprintf("%v buildLeft=%v residual=%v multi=%v strKey=%v top=%d cmp=%v",
		kc.op, kc.buildLeft, kc.residual, kc.multi, kc.strKey, kc.top, rangeOps[kc.cmp])
}

func (kc kernelCase) plan() (*optimizer.Plan, *optimizer.Query) {
	ref := func(alias, col string) optimizer.ColRef { return optimizer.ColRef{Alias: alias, Column: col} }
	param := func(col optimizer.ColRef, idx int) optimizer.Predicate {
		return optimizer.Predicate{Kind: optimizer.PredCmpNum, Col: col, Op: rangeOps[kc.cmp], ParamIdx: idx}
	}
	lkey, rkey := ref("c", "c_custkey"), ref("o", "o_custkey")
	if kc.strKey {
		lkey, rkey = ref("c", "c_mktsegment"), ref("o", "o_orderpriority")
	}
	q := &optimizer.Query{Preds: []optimizer.Predicate{param(ref("c", "c_date"), 0), param(ref("o", "o_orderdate"), 1)}}
	if kc.multi || kc.residual && kc.op != optimizer.OpSeqScan {
		q.Preds = append(q.Preds, param(ref("o", "o_totalprice"), 2))
	}
	left := &optimizer.Node{Op: optimizer.OpSeqScan, Table: "customer", Alias: "c", Filters: q.Preds[:1]}
	right := &optimizer.Node{Op: optimizer.OpSeqScan, Table: "orders", Alias: "o", Filters: q.Preds[1:2]}
	if kc.multi {
		right.Filters = q.Preds[1:3]
	}
	var root *optimizer.Node
	switch kc.op {
	case optimizer.OpSeqScan:
		root = left
		if kc.top >= 3 {
			root = right
		}
	default:
		if kc.op == optimizer.OpIndexNLJoin {
			right.Op, right.IndexCol = optimizer.OpIndexScan, rkey.Column
		}
		root = &optimizer.Node{Op: kc.op, Left: left, Right: right, LeftCol: lkey, RightCol: rkey, BuildLeft: kc.buildLeft}
		if kc.residual {
			root.Filters = []optimizer.Predicate{q.Preds[2], {Kind: optimizer.PredJoin, Col: lkey, RightCol: rkey}}
		}
	}
	price, bal := ref("o", "o_totalprice"), ref("c", "c_acctbal")
	switch kc.top {
	case 1, 4:
		// Top 1 reads a column of each relation beneath it; top 4 reads none,
		// so the join below it only counts.
		aggs := []optimizer.SelectItem{{Agg: optimizer.AggCount}}
		switch {
		case kc.top == 4:
		case kc.op != optimizer.OpSeqScan:
			aggs = append(aggs, optimizer.SelectItem{Agg: optimizer.AggSum, Col: price}, optimizer.SelectItem{Agg: optimizer.AggAvg, Col: bal},
				optimizer.SelectItem{Agg: optimizer.AggMin, Col: price}, optimizer.SelectItem{Agg: optimizer.AggMax, Col: bal})
		default:
			date := ref("c", "c_date")
			aggs = append(aggs, optimizer.SelectItem{Agg: optimizer.AggSum, Col: bal}, optimizer.SelectItem{Agg: optimizer.AggAvg, Col: bal},
				optimizer.SelectItem{Agg: optimizer.AggMin, Col: date}, optimizer.SelectItem{Agg: optimizer.AggMax, Col: date})
		}
		root = &optimizer.Node{Op: optimizer.OpHashAgg, Left: root, Aggs: aggs}
	case 2, 3:
		g, sum := lkey, bal
		if kc.top == 3 {
			g, sum = rkey, price
		}
		root = &optimizer.Node{Op: optimizer.OpHashAgg, Left: root, GroupBy: []optimizer.ColRef{g},
			Aggs: []optimizer.SelectItem{{Col: g}, {Agg: optimizer.AggCount}, {Agg: optimizer.AggSum, Col: sum}}}
	}
	return &optimizer.Plan{Root: root}, q
}

// bindLiterals writes the parameter values into the plan's filters, which is
// where the tree-walk engine reads them.
func bindLiterals(n *optimizer.Node, params []float64) {
	if n == nil {
		return
	}
	for i := range n.Filters {
		if n.Filters[i].Kind == optimizer.PredCmpNum && n.Filters[i].ParamIdx >= 0 {
			n.Filters[i].Value = params[n.Filters[i].ParamIdx]
		}
	}
	bindLiterals(n.Left, params)
	bindLiterals(n.Right, params)
}

// assertBitIdentical is assertSameResult on the cells' bits, so that it tells
// the zeros apart and accepts a NaN that equals itself.
func assertBitIdentical(t testing.TB, label string, want, got *Result) {
	t.Helper()
	if !slices.Equal(got.Schema, want.Schema) {
		t.Fatalf("%s: schema %v, want %v", label, got.Schema, want.Schema)
	}
	if len(got.Rows) != len(want.Rows) {
		t.Fatalf("%s: %d rows, want %d", label, len(got.Rows), len(want.Rows))
	}
	for i := range want.Rows {
		for j, w := range want.Rows[i] {
			g := got.Rows[i][j]
			if g.IsStr != w.IsStr || g.Str != w.Str || math.Float64bits(g.Num) != math.Float64bits(w.Num) {
				t.Fatalf("%s: row %d col %d = %v (%#x), want %v (%#x)", label, i, j, g, math.Float64bits(g.Num), w, math.Float64bits(w.Num))
			}
		}
	}
}

// check compiles the case, runs it twice (the second run reuses the arena
// the first one sized) against the tree-walk engine, and returns the kernels
// Compile chose for the join and for the GROUP BY. Under a bare COUNT(*) a
// join must be count-only, a scan unordered unless a sort-based merge join is
// above it, and an unordered scan must read its run exactly when it has one
// range filter; the plan must harvest the cardinalities of the same operators
// under a top that reads their vectors in order (top 1 for a join, top 3 for
// the orders scan).
func (kc kernelCase) check(t testing.TB, ex *Executor, label string, params []float64) (join, group kernel) {
	t.Helper()
	plan, q := kc.plan()
	params = params[:q.ParamDegree()]
	cp, err := ex.Compile(plan, q)
	if err != nil {
		t.Fatalf("%s: Compile: %v", label, err)
	}
	eachScan(cp.root, false, func(s *cNode, _ bool) {
		if want := kc.streamed(s.rels[0].alias); s.streamed != want {
			t.Fatalf("%s: scan of %s hands its reader the bitmap = %v, want %v", label, s.rels[0].alias, s.streamed, want)
		}
	})
	bindLiterals(plan.Root, params)
	want, err := ex.Run(plan)
	if err != nil {
		t.Fatalf("%s: Run: %v", label, err)
	}
	var obs []CardObservation
	for run := 0; run < 2; run++ {
		obs = obs[:0]
		got, err := cp.ExecObserve(params, &obs)
		if err != nil {
			t.Fatalf("%s: Exec: %v", label, err)
		}
		assertBitIdentical(t, fmt.Sprintf("%s run %d", label, run), want, got)
	}
	if kc.top == 4 {
		isScan := kc.op == optimizer.OpSeqScan
		if !isScan && !cp.root.countOnly {
			t.Fatalf("%s: the join under a bare COUNT(*) is not count-only", label)
		}
		eachScan(cp.root, false, func(s *cNode, underSort bool) {
			if s.unordered == underSort || s.fromRun != (s.unordered && len(s.ranges) == 1) {
				t.Fatalf("%s: scan of %s with %d range filters (below a sort-based merge join: %v) is unordered = %v, reads its run = %v",
					label, s.rels[0].alias, len(s.ranges), underSort, s.unordered, s.fromRun)
			}
		})
		twin := kc
		twin.top = 1
		if isScan {
			twin.top = 3
		}
		tplan, tq := twin.plan()
		tcp, err := ex.Compile(tplan, tq)
		if err != nil {
			t.Fatalf("%s: Compile top %d: %v", label, twin.top, err)
		}
		if tcp.root.countOnly {
			t.Fatalf("%s: the join under top %d is count-only", label, twin.top)
		}
		eachScan(tcp.root, false, func(s *cNode, _ bool) {
			if s.unordered {
				t.Fatalf("%s: scan of %s under top %d is unordered", label, s.rels[0].alias, twin.top)
			}
		})
		var want []CardObservation
		if _, err := tcp.ExecObserve(params, &want); err != nil {
			t.Fatalf("%s: Exec top %d: %v", label, twin.top, err)
		}
		assertSameCards(t, label, obs, want)
	}
	if cp.agg != nil {
		group = cp.agg.kernel
	}
	return cp.root.kernel, group
}

// streamed reports whether the case's scan of alias hands its one reader the
// bitmap instead of a vector (cNode.streams): the scan under a global
// aggregate, unless it reads a run — a bare COUNT(*) over one range filter
// does — and a hash join's probe side when no residual filter reads it and
// the top reads only the build side's columns, or none.
func (kc kernelCase) streamed(alias string) bool {
	switch kc.op {
	case optimizer.OpSeqScan:
		return kc.top == 1 || kc.top == 4 && kc.multi
	case optimizer.OpHashJoin:
		probe := "c"
		if kc.buildLeft {
			probe = "o"
		}
		if alias != probe || kc.residual {
			return false
		}
		switch kc.top {
		case 2:
			return probe == "o"
		case 3:
			return probe == "c"
		case 4:
			return probe == "o" && kc.multi
		}
	}
	return false
}

// assertSameCards holds two harvests of one plan shape (compiled from two
// plans, so the nodes differ) to the same operators and counts.
func assertSameCards(t testing.TB, label string, got, want []CardObservation) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d observations, want %d", label, len(got), len(want))
	}
	for i, w := range want {
		g := got[i]
		if g.Node.Op != w.Node.Op || g.Rows != w.Rows || g.LeftRows != w.LeftRows || g.RightRows != w.RightRows || g.Lo != w.Lo || g.Hi != w.Hi {
			t.Fatalf("%s: observation %d is %v rows=%v left=%v right=%v [%v, %v], want %v rows=%v left=%v right=%v [%v, %v]", label, i,
				g.Node.Op, g.Rows, g.LeftRows, g.RightRows, g.Lo, g.Hi, w.Node.Op, w.Rows, w.LeftRows, w.RightRows, w.Lo, w.Hi)
		}
	}
}

// quantiles places each parameter at the given fraction of its column's
// value range.
func (k *kernelDB) quantiles(f0, f1, f2 float64) []float64 {
	at := func(r [2]float64, f float64) float64 { return r[0] + f*(r[1]-r[0]) }
	return []float64{at(k.cDate, f0), at(k.oDate, f1), at(k.oPrice, f2)}
}

func TestKernelChoiceMatchesTreeWalk(t *testing.T) {
	k := newKernelDB(2000)
	// Mid-range, everything (under <=; nothing under >), nothing on one side,
	// nothing on the other.
	points := [][3]float64{{0.6, 0.5, 0.7}, {1, 1, 1}, {-0.1, 0.5, 0.5}, {0.5, -0.1, 0.5}}
	sawRows := false
	for si, shape := range keyShapes {
		// The seeds alternate, and with them doctored and generated filter
		// columns.
		ex := k.doctor(t, shape, int64(100+si))
		for ci, tc := range []struct {
			kc   kernelCase
			join kernel
		}{
			{kernelCase{op: optimizer.OpHashJoin, buildLeft: true}, shape.hashL},
			{kernelCase{op: optimizer.OpHashJoin, buildLeft: true, residual: true}, shape.hashL},
			{kernelCase{op: optimizer.OpHashJoin, buildLeft: true, multi: true}, shape.hashL},
			{kernelCase{op: optimizer.OpHashJoin}, shape.hashR},
			{kernelCase{op: optimizer.OpHashJoin, residual: true}, shape.hashR},
			{kernelCase{op: optimizer.OpHashJoin, multi: true}, shape.hashR},
			{kernelCase{op: optimizer.OpMergeJoin}, shape.merge},
			{kernelCase{op: optimizer.OpMergeJoin, residual: true}, shape.merge},
			{kernelCase{op: optimizer.OpIndexNLJoin}, shape.inl},
			{kernelCase{op: optimizer.OpIndexNLJoin, residual: true}, shape.inl},
			{kernelCase{op: optimizer.OpIndexNLJoin, multi: true}, shape.inl},
			{kernelCase{op: optimizer.OpSeqScan}, kernGeneric},
			{kernelCase{op: optimizer.OpSeqScan, multi: true}, kernGeneric},
		} {
			for top, group := range []kernel{kernGeneric, kernGeneric, shape.groupL, shape.groupR, kernGeneric} {
				kc := tc.kc
				kc.top = top
				// A scan runs under the aggregating tops only.
				if kc.op == optimizer.OpSeqScan && top == 0 {
					continue
				}
				for pi, p := range points {
					// Every (case, top) meets all four comparisons over its points.
					kc.cmp = (ci + top + pi) % len(rangeOps)
					label := fmt.Sprintf("%s: %v at %v", shape.name, kc, p)
					join, grp := kc.check(t, ex, label, k.quantiles(p[0], p[1], p[2]))
					if join != tc.join || grp != group {
						t.Errorf("%s: Compile chose the %v join kernel and the %v group kernel, want %v and %v", label, join, grp, tc.join, group)
					}
				}
			}
		}
		plan, _ := kernelCase{op: optimizer.OpHashJoin}.plan()
		params := k.quantiles(1, 1, 1)[:2]
		bindLiterals(plan.Root, params)
		if res, err := ex.Run(plan); err != nil {
			t.Fatal(err)
		} else if len(res.Rows) > 0 {
			sawRows = true
		} else if shape.hashR != kernGeneric {
			t.Errorf("%s: the unfiltered join is empty, so the addressed kernels matched nothing", shape.name)
		}
	}
	if !sawRows {
		t.Error("no shape's join produced a row")
	}

	// A string key has no facts: hash join and GROUP BY stay generic, and
	// the compiler refuses the other two operators.
	ex := New(k.db)
	for _, kc := range []kernelCase{
		{op: optimizer.OpHashJoin, strKey: true, buildLeft: true},
		{op: optimizer.OpHashJoin, strKey: true, buildLeft: true, residual: true},
		{op: optimizer.OpHashJoin, strKey: true},
		{op: optimizer.OpHashJoin, strKey: true, residual: true},
		{op: optimizer.OpSeqScan, strKey: true},
	} {
		for top := 0; top < 5; top++ {
			kc.top = top
			if kc.op == optimizer.OpSeqScan && top == 0 {
				continue
			}
			label := fmt.Sprintf("string key: %v", kc)
			if join, grp := kc.check(t, ex, label, k.quantiles(0.6, 0.5, 0.7)); join != kernGeneric || grp != kernGeneric {
				t.Errorf("%s: Compile chose the %v join kernel and the %v group kernel, want generic", label, join, grp)
			}
		}
	}
	for _, op := range []optimizer.OpKind{optimizer.OpMergeJoin, optimizer.OpIndexNLJoin} {
		plan, q := kernelCase{op: op, strKey: true}.plan()
		if _, err := ex.Compile(plan, q); err == nil {
			t.Errorf("%v on a string key compiled", op)
		}
	}
}

// TestAddressedKernelsYieldToSmallInputs covers the Exec-time half of the
// kernel choice: over a key span much wider than the tuples that reach the
// operator, clearing (and, for a merge join, walking) the table would cost
// more than hashing or sorting them, so the run takes the generic kernel —
// and the same compiled plan addresses again when the inputs are large. The
// arena shows which ran: only an addressed kernel sizes dirA.
func TestAddressedKernelsYieldToSmallInputs(t *testing.T) {
	k := newKernelDB(200) // 750 customers, 7500 orders
	const span = 2900     // within maxSpanPerRow of either column, far above addrSpanFloor
	ex := k.doctor(t, keyShape{fill: func(rng *rand.Rand, left, right []float64) {
		fillRange(rng, left, 1, span, true)
		fillRange(rng, right, 1, span, false)
		left[0], left[1], right[0], right[1] = 1, span, 1, span
	}}, 4) // an even seed: the tuple counts below are quantiles of the generated filter columns
	few, all := k.quantiles(0.02, 0.02, 1), k.quantiles(1, 1, 1)
	for _, kc := range []kernelCase{
		{op: optimizer.OpHashJoin},
		{op: optimizer.OpMergeJoin},
		{op: optimizer.OpSeqScan, top: 3},
	} {
		kc.check(t, ex, kc.String()+", few", few)
		kc.check(t, ex, kc.String()+", all", all)
		plan, q := kc.plan()
		cp, err := ex.Compile(plan, q)
		if err != nil {
			t.Fatal(err)
		}
		for _, tc := range []struct {
			params    []float64
			addressed bool
		}{{few, false}, {all, true}} {
			ar := newArena(cp)
			cp.run(cp.root, ar, tc.params[:cp.nParams])
			tuples := ar.nrows[cp.root.ord]
			if cp.agg != nil {
				cp.agg.assignGroups(ar, tuples)
			} else {
				tuples = ar.nrows[cp.root.left.ord] + ar.nrows[cp.root.right.ord]
			}
			if tuples == 0 || addressable(span, tuples) != tc.addressed {
				t.Fatalf("%v at %v: %d input tuples; the case does not test what it says", kc, tc.params, tuples)
			}
			if got := cap(ar.dirA) > 0; got != tc.addressed {
				t.Errorf("%v at %v: addressed kernel ran = %v, want %v", kc, tc.params, got, tc.addressed)
			}
		}
	}
}

// TestExecSteadyStateAllocs: once an arena has been sized, an execution
// allocates its result — the Result, the Value backing array and the Row
// headers — and nothing else, whichever kernel runs: the direct tables and
// chains, and the bitmap the scans' range predicates are ANDed into, live in
// the pooled Arena like every other scratch vector.
func TestExecSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector's shadow memory inflates allocation counts")
	}
	k := newKernelDB(2000)
	ex := k.doctor(t, keyShapes[0], 1)
	params := k.quantiles(0.6, 0.5, 0.7)
	for _, kc := range []kernelCase{
		{op: optimizer.OpHashJoin, buildLeft: true},
		{op: optimizer.OpHashJoin, residual: true},
		{op: optimizer.OpMergeJoin},
		{op: optimizer.OpIndexNLJoin},
		{op: optimizer.OpIndexNLJoin, multi: true}, // two ranged inner filters
		{op: optimizer.OpHashJoin, top: 3},
		{op: optimizer.OpSeqScan, top: 3},
		{op: optimizer.OpSeqScan, top: 3, multi: true}, // a two-predicate scan
	} {
		plan, q := kc.plan()
		cp, err := ex.Compile(plan, q)
		if err != nil {
			t.Fatal(err)
		}
		if kc.op != optimizer.OpSeqScan && cp.root.kernel == kernGeneric || cp.agg != nil && cp.agg.kernel == kernGeneric {
			t.Fatalf("%v: compiled onto a generic kernel; the guard is for the addressed ones", kc)
		}
		exec := func() {
			if res, err := cp.Exec(params[:cp.nParams]); err != nil || len(res.Rows) == 0 {
				t.Fatalf("%v: %d rows, err %v", kc, len(res.Rows), err)
			}
		}
		exec()
		if allocs := testing.AllocsPerRun(100, exec); allocs > 3 {
			t.Errorf("%v: %v allocations per warmed Exec, want at most the result's 3", kc, allocs)
		}
	}
}

// TestCountOnlyJoinRecordsNoPairs: a join of which nothing above reads a
// vector — here, under a bare COUNT(*) — counts its matches on every kernel,
// with and without a residual filter. After warmed executions its arena has
// never held a match pair or a group id, and an execution allocates its
// result's three objects and nothing else.
func TestCountOnlyJoinRecordsNoPairs(t *testing.T) {
	k := newKernelDB(2000)
	params := k.quantiles(0.6, 0.5, 0.7)
	// Dense unique keys put every keyed operator on an addressed kernel, the
	// sparse span on a generic one.
	for _, shape := range []keyShape{keyShapes[0], keyShapes[10]} {
		ex := k.doctor(t, shape, 2)
		for _, tc := range []struct {
			kc   kernelCase
			join kernel
		}{
			{kernelCase{op: optimizer.OpHashJoin, buildLeft: true}, shape.hashL},
			{kernelCase{op: optimizer.OpHashJoin}, shape.hashR},
			{kernelCase{op: optimizer.OpHashJoin, strKey: true}, kernGeneric},
			{kernelCase{op: optimizer.OpMergeJoin}, shape.merge},
			{kernelCase{op: optimizer.OpIndexNLJoin}, shape.inl},
			{kernelCase{op: optimizer.OpNLJoin}, kernGeneric},
		} {
			for _, residual := range []bool{false, true} {
				kc := tc.kc
				kc.residual, kc.top = residual, 4
				label := fmt.Sprintf("%s: %v", shape.name, kc)
				if join, _ := kc.check(t, ex, label, params); join != tc.join {
					t.Errorf("%s: Compile chose the %v join kernel, want %v", label, join, tc.join)
				}
				plan, q := kc.plan()
				cp, err := ex.Compile(plan, q)
				if err != nil {
					t.Fatal(err)
				}
				// Every execution checks out this one arena.
				ar := newArena(cp)
				cp.pool.New = func() any { return ar }
				var obs []CardObservation
				count := 0.0
				exec := func() {
					obs = obs[:0]
					res, err := cp.ExecObserve(params[:cp.nParams], &obs)
					if err != nil || len(res.Rows) != 1 {
						t.Fatalf("%s: %d rows, err %v", label, len(res.Rows), err)
					}
					count = res.Rows[0][0].Num
				}
				exec()
				exec()
				if count == 0 || count != float64(ar.nrows[cp.root.ord]) {
					t.Fatalf("%s: COUNT(*) %v, the arena's root count %d; want the same, above 0", label, count, ar.nrows[cp.root.ord])
				}
				if !raceEnabled {
					if allocs := testing.AllocsPerRun(50, exec); allocs > 3 {
						t.Errorf("%s: %v allocations per warmed ExecObserve, want at most the result's 3", label, allocs)
					}
				}
				if cap(ar.matchL) != 0 || cap(ar.matchR) != 0 || cap(ar.gids) != 0 {
					t.Errorf("%s: the arena holds match pairs (capacity %d, %d) and group ids (%d); want none", label, cap(ar.matchL), cap(ar.matchR), cap(ar.gids))
				}
			}
		}
	}
}

// TestColumnFactsLearnedOnce: the facts of a key column, and the range
// bitmaps of a filtered one, cost one scan (or sort) per Executor, paid by the
// first plan that keys or filters on it — one, also when the first plans
// compile at once, as interned plans do. Compiling the standard templates'
// plans again scans nothing and builds nothing.
func TestColumnFactsLearnedOnce(t *testing.T) {
	var plans []*optimizer.Plan
	var tmpls []*optimizer.Template
	for _, d := range queries.Defs {
		tm, err := queries.ByName(d.Name)
		if err != nil {
			t.Fatal(err)
		}
		point := make([]float64, tm.Degree())
		for j := range point {
			point[j] = 0.5
		}
		inst, err := opt.InstanceAt(tm, point)
		if err != nil {
			t.Fatal(err)
		}
		plan, err := opt.OptimizeInstance(inst)
		if err != nil {
			t.Fatal(err)
		}
		plans, tmpls = append(plans, plan), append(tmpls, tm)
	}
	ex := New(testDB)
	compileAll := func() {
		for i, plan := range plans {
			if _, err := ex.Compile(plan, tmpls[i].Query); err != nil {
				t.Error(err)
			}
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			compileAll()
		}()
	}
	wg.Wait()
	first, bitmaps := ex.factScans, maps.Clone(ex.ranges)
	if len(ex.facts) == 0 || len(bitmaps) == 0 {
		t.Fatalf("compiling Q0..Q8 learned the facts of %d columns and the bitmaps of %d; want both", len(ex.facts), len(bitmaps))
	}
	if learned := len(ex.facts) + len(ex.dirs) + len(bitmaps); first != learned {
		t.Errorf("four concurrent compilations of Q0..Q8 made %d scans for %d facts, directories and bitmaps", first, learned)
	}
	compileAll()
	if ex.factScans != first {
		t.Errorf("another Compile of the same plans scanned %d more columns", ex.factScans-first)
	}
	if !maps.Equal(ex.ranges, bitmaps) {
		t.Errorf("another Compile of the same plans rebuilt range bitmaps: %d columns, were %d", len(ex.ranges), len(bitmaps))
	}
}

// TestRangeBitsFootprint: the bitmaps of a column cost its own size — 64
// checkpoints of one bit per row, 8 bytes per row — when the column has an
// ordered index free of NaN to alias, and 12 bytes per row more for a sorted
// copy of the values and their row ids when it has not.
func TestRangeBitsFootprint(t *testing.T) {
	li := testDB.MustTable("lineitem")
	n := li.NumRows()
	const rounding = 8 * rangeCheckpoints // the checkpoints are whole words
	for _, tc := range []struct {
		col    string
		alias  bool
		perRow int
	}{
		{"l_shipdate", true, 8},
		{"l_quantity", false, 20},
	} {
		rb := New(testDB).rangeFor(li, li.MustColumn(tc.col))
		ix := li.Indexes[tc.col]
		aliased := ix != nil && &rb.keys[0] == &ix.Keys[0] && &rb.rows[0] == &ix.Rows[0]
		if aliased != tc.alias {
			t.Errorf("%s: bitmaps alias the column's index = %v, want %v", tc.col, aliased, tc.alias)
		}
		size := 8 * (len(rb.cps) + len(rb.nan))
		if !aliased {
			size += 8*len(rb.keys) + 4*len(rb.rows)
		}
		if size > tc.perRow*n+rounding {
			t.Errorf("%s: bitmaps take %d bytes over %d rows, want at most %d per row", tc.col, size, n, tc.perRow)
		}
		if len(rb.keys) != n || len(rb.rows) != n || rb.nan != nil {
			t.Errorf("%s: %d keys, %d rows, NaN bitmap %v over a NaN-free column of %d rows", tc.col, len(rb.keys), len(rb.rows), rb.nan != nil, n)
		}
	}
}
