package executor

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/optimizer"
	"repro/internal/tpch"
)

// TestScanKernelsMatchTestRow holds both scan kernels — selectAll over the
// contiguous column and refine over a gathered id vector — to cPred.testRow,
// the row-at-a-time form of every predicate, for every comparison shape:
// each CmpOp (literal and parameter-bound), BETWEEN, string equality and the
// same-row column comparison of the generic fallback. Columns carry NaN,
// ±Inf and ±0 among ordinary values; right-hand sides are chosen so that
// selectivities of exactly 0 and exactly 1 occur as well as everything in
// between; table sizes straddle 0, 1 and 1024.
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
				{math.NaN(), math.NaN()}, {math.Inf(1), math.Inf(1)},
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

		sawNone, sawAll := false, false
		for pi := range preds {
			p := &preds[pi]
			// The rhs values cycle through the parameter-bound twins in step
			// with their literal siblings.
			params := []float64{rhs[(pi/2)%len(rhs)]}
			label := fmt.Sprintf("n=%d pred %d (kind %d op %d col %s params %v)", n, pi, p.kind, p.op, p.col.Name, params)

			var want []int32
			for id := int32(0); id < int32(n); id++ {
				if p.testRow(params, id) {
					want = append(want, id)
				}
			}
			out := make([]int32, n)
			got := out[:p.selectAll(params, out)]
			if !slices.Equal(got, want) {
				t.Fatalf("%s: selectAll kept %d rows, testRow %d (first difference at %d)", label, len(got), len(want), firstDiff(got, want))
			}
			sawNone = sawNone || len(want) == 0
			sawAll = sawAll || len(want) == n

			want = want[:0]
			for _, id := range ids {
				if p.testRow(params, id) {
					want = append(want, id)
				}
			}
			in := slices.Clone(ids)
			got = in[:p.refine(params, in)]
			if !slices.Equal(got, want) {
				t.Fatalf("%s: refine kept %d ids, testRow %d (first difference at %d)", label, len(got), len(want), firstDiff(got, want))
			}
		}
		if !sawNone || !sawAll {
			t.Errorf("n=%d: predicates reached selectivity 0: %v, selectivity 1: %v; want both", n, sawNone, sawAll)
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
	col := func(name string) optimizer.ColRef { return optimizer.ColRef{Alias: "n", Column: name} }
	aggs := []optimizer.SelectItem{
		{Agg: optimizer.AggCount},
		{Agg: optimizer.AggSum, Col: col("n_nationkey")},
		{Agg: optimizer.AggAvg, Col: col("n_nationkey")},
		{Agg: optimizer.AggMin, Col: col("n_date")},
		{Agg: optimizer.AggMax, Col: col("n_date")},
	}
	none := optimizer.Predicate{Kind: optimizer.PredCmpNum, Col: col("n_nationkey"), Op: optimizer.OpLT, Value: 0, ParamIdx: -1}

	for _, tc := range []struct {
		name    string
		groupBy []optimizer.ColRef
		filters []optimizer.Predicate
		rows    int
	}{
		{"global aggregate over zero rows", nil, []optimizer.Predicate{none}, 1},
		{"global aggregate", nil, nil, 1},
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
			assertSameResult(t, tc.name, want, got)
			if (got.Rows == nil) != (want.Rows == nil) {
				t.Errorf("%s: compiled Rows nil = %v, tree-walk %v", tc.name, got.Rows == nil, want.Rows == nil)
			}
			// assertSameResult compares floats by ==, which cannot tell the
			// zeros apart (or see a NaN); the bits can.
			for i := range want.Rows {
				for j := range want.Rows[i] {
					if w, g := math.Float64bits(want.Rows[i][j].Num), math.Float64bits(got.Rows[i][j].Num); w != g {
						t.Errorf("%s: row %d col %d bits = %#x, want %#x", tc.name, i, j, g, w)
					}
				}
			}
		}
	}
}
