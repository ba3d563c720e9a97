package tpch

import (
	"cmp"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

func testDB(t *testing.T) *Database {
	t.Helper()
	db, err := Generate(Config{Scale: 400, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func TestGenerateValidation(t *testing.T) {
	if _, err := Generate(Config{Scale: 0}); err == nil {
		t.Error("expected error for scale 0")
	}
}

func TestGenerateCardinalities(t *testing.T) {
	db := testDB(t)
	tests := []struct {
		table string
		want  int
	}{
		{"region", 5},
		{"nation", 25},
		{"supplier", sf1Supplier / 400},
		{"part", sf1Part / 400},
		{"partsupp", sf1PartSupp / 400},
		{"customer", sf1Customer / 400},
		{"orders", sf1Orders / 400},
	}
	for _, tc := range tests {
		if got := db.MustTable(tc.table).NumRows(); got != tc.want {
			t.Errorf("%s rows = %d, want %d", tc.table, got, tc.want)
		}
	}
	// lineitem is generated order-by-order; it must be close to the target
	// and every line must reference a valid order.
	li := db.MustTable("lineitem")
	if n := li.NumRows(); n < sf1Lineitem/400*8/10 || n > sf1Lineitem/400 {
		t.Errorf("lineitem rows = %d, want within [%d, %d]", n, sf1Lineitem/400*8/10, sf1Lineitem/400)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := MustGenerate(Config{Scale: 400, Seed: 99})
	b := MustGenerate(Config{Scale: 400, Seed: 99})
	ca := a.MustTable("lineitem").MustColumn("l_shipdate").Nums
	cb := b.MustTable("lineitem").MustColumn("l_shipdate").Nums
	if len(ca) != len(cb) {
		t.Fatalf("row counts differ: %d vs %d", len(ca), len(cb))
	}
	for i := range ca {
		if ca[i] != cb[i] {
			t.Fatalf("row %d differs: %v vs %v", i, ca[i], cb[i])
		}
	}
	c := MustGenerate(Config{Scale: 400, Seed: 100})
	cc := c.MustTable("lineitem").MustColumn("l_shipdate").Nums
	same := 0
	for i := range cc {
		if i < len(ca) && ca[i] == cc[i] {
			same++
		}
	}
	if same == len(cc) {
		t.Error("different seeds produced identical data")
	}
}

func TestForeignKeysResolve(t *testing.T) {
	db := testDB(t)
	fk := []struct {
		childTable, childCol, parentTable, parentCol string
	}{
		{"nation", "n_regionkey", "region", "r_regionkey"},
		{"supplier", "s_nationkey", "nation", "n_nationkey"},
		{"customer", "c_nationkey", "nation", "n_nationkey"},
		{"orders", "o_custkey", "customer", "c_custkey"},
		{"lineitem", "l_orderkey", "orders", "o_orderkey"},
		{"lineitem", "l_partkey", "part", "p_partkey"},
		{"lineitem", "l_suppkey", "supplier", "s_suppkey"},
		{"partsupp", "ps_partkey", "part", "p_partkey"},
		{"partsupp", "ps_suppkey", "supplier", "s_suppkey"},
	}
	for _, f := range fk {
		parent := db.MustTable(f.parentTable).MustColumn(f.parentCol).Nums
		valid := make(map[float64]bool, len(parent))
		for _, v := range parent {
			valid[v] = true
		}
		child := db.MustTable(f.childTable).MustColumn(f.childCol).Nums
		for i, v := range child {
			if !valid[v] {
				t.Fatalf("%s.%s row %d = %v has no parent in %s.%s",
					f.childTable, f.childCol, i, v, f.parentTable, f.parentCol)
			}
		}
	}
}

func TestPrimaryKeysUnique(t *testing.T) {
	db := testDB(t)
	for _, pk := range []struct{ table, col string }{
		{"region", "r_regionkey"}, {"nation", "n_nationkey"},
		{"supplier", "s_suppkey"}, {"part", "p_partkey"},
		{"customer", "c_custkey"}, {"orders", "o_orderkey"},
	} {
		col := db.MustTable(pk.table).MustColumn(pk.col).Nums
		seen := make(map[float64]bool, len(col))
		for _, v := range col {
			if seen[v] {
				t.Fatalf("%s.%s: duplicate key %v", pk.table, pk.col, v)
			}
			seen[v] = true
		}
	}
}

func TestDateColumnsGaussian(t *testing.T) {
	db := testDB(t)
	// Every table has an added date column; its values must lie in the date
	// window and be concentrated around the middle (Gaussian, not uniform).
	dateCols := map[string]string{
		"region": "r_date", "nation": "n_date", "supplier": "s_date",
		"part": "p_date", "partsupp": "ps_date", "customer": "c_date",
		"orders": "o_date", "lineitem": "l_date",
	}
	for table, col := range dateCols {
		nums := db.MustTable(table).MustColumn(col).Nums
		mid := (DateMin + DateMax) / 2
		within := 0
		for _, v := range nums {
			if v < DateMin || v > DateMax {
				t.Fatalf("%s.%s value %v outside window", table, col, v)
			}
			if math.Abs(v-mid) < (DateMax-DateMin)/6 {
				within++
			}
		}
		// For a Gaussian with σ = range/6, ~68% lies within ±σ of the mean;
		// a uniform would put only ~33% there. Only check the larger tables.
		if len(nums) >= 100 && float64(within)/float64(len(nums)) < 0.55 {
			t.Errorf("%s.%s looks uniform: %.2f within ±σ", table, col, float64(within)/float64(len(nums)))
		}
	}
}

func TestStandardIndexesBuilt(t *testing.T) {
	db := testDB(t)
	for table, cols := range StandardIndexColumns {
		tb := db.MustTable(table)
		for _, col := range cols {
			if !tb.HasIndex(col) {
				t.Errorf("missing index %s.%s", table, col)
			}
		}
	}
}

func TestIndexRangeRows(t *testing.T) {
	db := testDB(t)
	li := db.MustTable("lineitem")
	ix := li.Indexes["l_shipdate"]
	if ix == nil {
		t.Fatal("no l_shipdate index")
	}
	col := li.MustColumn("l_shipdate").Nums
	lo, hi := 500.0, 800.0
	rows := ix.RangeRows(lo, hi)
	want := 0
	for _, v := range col {
		if v >= lo && v <= hi {
			want++
		}
	}
	if len(rows) != want {
		t.Fatalf("RangeRows returned %d rows, want %d", len(rows), want)
	}
	prev := math.Inf(-1)
	for _, r := range rows {
		v := col[r]
		if v < lo || v > hi {
			t.Fatalf("row %d key %v outside [%v,%v]", r, v, lo, hi)
		}
		if v < prev {
			t.Fatal("rows not in key order")
		}
		prev = v
	}
	// Empty and inverted ranges.
	if got := ix.RangeRows(1e9, 2e9); len(got) != 0 {
		t.Errorf("out-of-domain range returned %d rows", len(got))
	}
	if got := ix.RangeRows(800, 500); len(got) != 0 {
		t.Errorf("inverted range returned %d rows", len(got))
	}
}

func TestBuildIndexErrors(t *testing.T) {
	db := testDB(t)
	tb := db.MustTable("customer")
	if err := tb.BuildIndex("no_such_column"); err == nil {
		t.Error("expected error for unknown column")
	}
	if err := tb.BuildIndex("c_mktsegment"); err == nil {
		t.Error("expected error for string column")
	}
}

func TestTableAccessors(t *testing.T) {
	db := testDB(t)
	if db.Table("nope") != nil {
		t.Error("Table(nope) should be nil")
	}
	names := db.TableNames()
	if len(names) != 8 {
		t.Errorf("TableNames = %v", names)
	}
	defer func() {
		if recover() == nil {
			t.Error("MustTable should panic for unknown table")
		}
	}()
	db.MustTable("nope")
}

func TestColumnAccessors(t *testing.T) {
	db := testDB(t)
	tb := db.MustTable("part")
	if tb.Column("nope") != nil {
		t.Error("Column(nope) should be nil")
	}
	c := tb.MustColumn("p_brand")
	if c.Kind != KindString || c.Len() != tb.NumRows() {
		t.Errorf("p_brand kind=%v len=%d", c.Kind, c.Len())
	}
	defer func() {
		if recover() == nil {
			t.Error("MustColumn should panic")
		}
	}()
	tb.MustColumn("nope")
}

// TestSortRowsMatchesItsCallersOldSorts: SortRows is the one sort of an
// index and of the executor's range bitmaps, and each sorted with its own
// call before — BuildIndex with sort.Slice over the row ids (NaNs and all),
// the bitmaps with slices.SortFunc over the NaN-free row ids by
// cmp.Compare. The permutation must be the one each produced, ties, -0
// beside +0 and NaN included.
func TestSortRowsMatchesItsCallersOldSorts(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	specials := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1), 1, 1, 2}
	for _, n := range []int{0, 1, 2, 12, 13, 50, 1000, 6000} {
		for trial := 0; trial < 4; trial++ {
			nums := make([]float64, n)
			for i := range nums {
				switch trial {
				case 0:
					nums[i] = rng.Float64()
				case 1:
					nums[i] = float64(rng.Intn(1 + n/8))
				default:
					nums[i] = specials[rng.Intn(len(specials))]
				}
			}
			all := make([]int32, n)
			var finite []int32
			for i := range all {
				all[i] = int32(i)
				if nums[i] == nums[i] {
					finite = append(finite, int32(i))
				}
			}
			want := slices.Clone(all)
			sort.Slice(want, func(a, b int) bool { return nums[want[a]] < nums[want[b]] })
			wantFinite := slices.Clone(finite)
			slices.SortFunc(wantFinite, func(a, b int32) int { return cmp.Compare(nums[a], nums[b]) })
			for _, c := range []struct {
				rows, want []int32
			}{{all, want}, {finite, wantFinite}} {
				keys := SortRows(nums, c.rows)
				if !slices.Equal(c.rows, c.want) {
					t.Fatalf("n=%d trial %d: SortRows over %d rows moved them as no old sort did", n, trial, len(c.rows))
				}
				for i, r := range c.rows {
					if math.Float64bits(keys[i]) != math.Float64bits(nums[r]) {
						t.Fatalf("n=%d trial %d: key %d is not its row's value", n, trial, i)
					}
				}
			}
		}
	}
}
