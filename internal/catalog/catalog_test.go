package catalog

import (
	"math"
	"sort"
	"testing"

	"repro/internal/tpch"
)

var testDB = tpch.MustGenerate(tpch.Config{Scale: 400, Seed: 7})

func testCatalog(t *testing.T) *Catalog {
	t.Helper()
	c, err := Build(testDB, 0)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestBuildCoversAllTablesAndColumns(t *testing.T) {
	c := testCatalog(t)
	for _, name := range testDB.TableNames() {
		ts := c.Table(name)
		if ts == nil {
			t.Fatalf("no stats for table %s", name)
		}
		tb := testDB.MustTable(name)
		if ts.RowCount != tb.NumRows() {
			t.Errorf("%s rowcount = %d, want %d", name, ts.RowCount, tb.NumRows())
		}
		for _, col := range tb.Columns {
			if ts.Columns[col.Name] == nil {
				t.Errorf("no stats for %s.%s", name, col.Name)
			}
		}
	}
}

func TestNumericStats(t *testing.T) {
	c := testCatalog(t)
	cs := c.MustColumn("orders", "o_orderkey")
	n := testDB.MustTable("orders").NumRows()
	if cs.Min != 1 || cs.Max != float64(n) {
		t.Errorf("o_orderkey min/max = %v/%v, want 1/%d", cs.Min, cs.Max, n)
	}
	if cs.Distinct != n {
		t.Errorf("o_orderkey distinct = %d, want %d", cs.Distinct, n)
	}
}

func TestSelectivityLEAccuracy(t *testing.T) {
	c := testCatalog(t)
	cs := c.MustColumn("lineitem", "l_shipdate")
	nums := append([]float64(nil), testDB.MustTable("lineitem").MustColumn("l_shipdate").Nums...)
	sort.Float64s(nums)
	for _, p := range []float64{0.05, 0.25, 0.5, 0.75, 0.95} {
		v := nums[int(p*float64(len(nums)))]
		got := cs.SelectivityLE(v)
		if math.Abs(got-p) > 0.04 {
			t.Errorf("SelectivityLE at true p=%v: got %v", p, got)
		}
	}
	if got := cs.SelectivityLE(cs.Min - 1); got != 0 {
		t.Errorf("below min: %v", got)
	}
	if got := cs.SelectivityLE(cs.Max + 1); got != 1 {
		t.Errorf("above max: %v", got)
	}
}

func TestQuantileInvertsSelectivity(t *testing.T) {
	// This is the round trip the workload generator depends on: choose a
	// selectivity, invert to a parameter value, re-estimate the selectivity.
	c := testCatalog(t)
	for _, colRef := range []struct{ table, col string }{
		{"lineitem", "l_shipdate"},
		{"lineitem", "l_partkey"},
		{"orders", "o_totalprice"},
		{"supplier", "s_date"},
		{"part", "p_date"},
	} {
		cs := c.MustColumn(colRef.table, colRef.col)
		for _, p := range []float64{0.02, 0.1, 0.3, 0.5, 0.7, 0.9, 0.98} {
			v := cs.Quantile(p)
			back := cs.SelectivityLE(v)
			if math.Abs(back-p) > 0.05 {
				t.Errorf("%s.%s: quantile(%v) -> selectivity %v", colRef.table, colRef.col, p, back)
			}
		}
	}
}

func TestSelectivityRange(t *testing.T) {
	c := testCatalog(t)
	cs := c.MustColumn("lineitem", "l_quantity")
	full := cs.SelectivityRange(cs.Min, cs.Max)
	if math.Abs(full-1) > 0.01 {
		t.Errorf("full range selectivity = %v", full)
	}
	if got := cs.SelectivityRange(10, 5); got != 0 {
		t.Errorf("inverted range = %v", got)
	}
	half := cs.SelectivityRange(cs.Min, (cs.Min+cs.Max)/2)
	if half < 0.3 || half > 0.7 {
		t.Errorf("half range selectivity = %v, want ~0.5 for uniform quantity", half)
	}
}

func TestSelectivityEq(t *testing.T) {
	c := testCatalog(t)
	cs := c.MustColumn("customer", "c_custkey")
	want := 1 / float64(cs.Distinct)
	if got := cs.SelectivityEq(10); math.Abs(got-want) > 1e-12 {
		t.Errorf("SelectivityEq = %v, want %v", got, want)
	}
	if got := cs.SelectivityEq(-5); got != 0 {
		t.Errorf("out-of-domain eq = %v", got)
	}
}

func TestStringStats(t *testing.T) {
	c := testCatalog(t)
	cs := c.MustColumn("customer", "c_mktsegment")
	if cs.Kind != tpch.KindString {
		t.Fatal("expected string column")
	}
	if cs.Distinct != 5 {
		t.Errorf("segments distinct = %d, want 5", cs.Distinct)
	}
	var total float64
	for s := range cs.Freq {
		total += cs.SelectivityEqString(s)
	}
	if math.Abs(total-1) > 1e-9 {
		t.Errorf("segment selectivities sum to %v", total)
	}
	if got := cs.SelectivityEqString("NO SUCH SEGMENT"); got != 0 {
		t.Errorf("unknown string selectivity = %v", got)
	}
	// String columns have no numeric estimates.
	if cs.SelectivityLE(10) != 0 || cs.Quantile(0.5) != 0 {
		t.Error("string column answered numeric queries")
	}
}

func TestColumnErrors(t *testing.T) {
	c := testCatalog(t)
	if _, err := c.Column("nope", "x"); err == nil {
		t.Error("expected error for unknown table")
	}
	if _, err := c.Column("orders", "nope"); err == nil {
		t.Error("expected error for unknown column")
	}
	if c.RowCount("nope") != 0 {
		t.Error("RowCount for unknown table should be 0")
	}
	defer func() {
		if recover() == nil {
			t.Error("MustColumn should panic")
		}
	}()
	c.MustColumn("nope", "x")
}
