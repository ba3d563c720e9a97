package histogram_test

import (
	"math"
	"testing"

	"repro/internal/catalog"
	"repro/internal/histogram"
	"repro/internal/tpch"
)

// TestCatalogProbesBitIdentical holds the probes to the reference scans on
// the histograms the optimizer actually estimates from: every numeric column
// of the benchmark's catalog (scale 1000, seed 2012), at every distinct
// value and its two ulp neighbours, counting from the column minimum as
// recost's clamped range does. Several of these columns hold few distinct
// values, so their histograms are made of one-ulp duplicate buckets.
func TestCatalogProbesBitIdentical(t *testing.T) {
	db, err := tpch.Generate(tpch.Config{Scale: 1000, Seed: 2012})
	if err != nil {
		t.Fatal(err)
	}
	cat, err := catalog.Build(db, 0)
	if err != nil {
		t.Fatal(err)
	}
	columns, oneUlp := 0, 0
	for _, name := range db.TableNames() {
		for _, col := range db.MustTable(name).Columns {
			if col.Kind != tpch.KindNumeric {
				continue
			}
			cs := cat.MustColumn(name, col.Name)
			seen := make(map[float64]bool)
			var probes []float64
			for _, v := range col.Nums {
				if !seen[v] {
					seen[v] = true
					probes = append(probes, v, math.Nextafter(v, math.Inf(-1)), math.Nextafter(v, math.Inf(1)))
				}
			}
			histogram.CheckProbes(t, cs.Hist, []float64{cs.Min}, probes, nil)
			columns++
			for _, b := range cs.Hist.Buckets() {
				if b.Hi == math.Nextafter(b.Lo, math.Inf(1)) {
					oneUlp++
					break
				}
			}
		}
	}
	if columns == 0 || oneUlp == 0 {
		t.Fatalf("%d numeric columns, %d with a one-ulp bucket: the catalog no longer exercises the duplicate-bucket prefix", columns, oneUlp)
	}
	t.Logf("%d numeric columns, %d with one-ulp duplicate buckets", columns, oneUlp)
}
