package catalog

import (
	"testing"
	"time"

	"repro/internal/tpch"
)

// TestCatalogBuildAllocBudget holds Build on the benchmark's database (scale
// 1000, seed 2012) to 300 allocations and 0.5 MB. It measures 212 and
// 0.32 MB: per column its statistics and histogram, per string column its
// frequency map, and a transient sorted copy of each of the 11 numeric
// columns no index orders. A set of distinct values per column, or a copy
// of a column its index already orders, goes past the budget.
func TestCatalogBuildAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector's shadow memory inflates allocation counts")
	}
	if testing.Short() {
		t.Skip("allocation guard runs a full benchmark; skipped in -short")
	}
	db := tpch.MustGenerate(tpch.Config{Scale: 1000, Seed: 2012})
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := Build(db, 0); err != nil {
				b.Fatal(err)
			}
		}
	})
	allocs, bytes := res.AllocsPerOp(), res.AllocedBytesPerOp()
	t.Logf("catalog.Build: %d allocs, %d bytes per op (%s)", allocs, bytes, res.T/time.Duration(res.N))
	if allocs > 300 || bytes > 512<<10 {
		t.Errorf("catalog.Build allocates %d times and %d bytes; the budget is 300 and %d", allocs, bytes, 512<<10)
	}
}
