package catalog

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"sort"
	"testing"

	"repro/internal/histogram"
	"repro/internal/tpch"
)

// The statistics as Build computed them before it read each column off its
// ascending order, kept as the oracle: the index sorted its row ids with
// sort.Slice, gathering the column on every comparison; the catalog scanned
// the column for its ends, hashed it into a set for its distinct count
// (which stopped growing at 2^20) and handed it to the histogram, which
// sorted a copy of (value, cost) pairs through sort.Slice and cut the order
// into equi-depth buckets. None of it shares code with the catalog or the
// index builder.

// refIndex is BuildIndex's order as sort.Slice produced it.
func refIndex(nums []float64) (keys []float64, rows []int32) {
	rows = make([]int32, len(nums))
	for i := range rows {
		rows[i] = int32(i)
	}
	sort.Slice(rows, func(a, b int) bool { return nums[rows[a]] < nums[rows[b]] })
	keys = make([]float64, len(rows))
	for i, r := range rows {
		keys[i] = nums[r]
	}
	return keys, rows
}

// refSorted is the value order the histogram's pairAndSort cut, with nil
// costs.
func refSorted(values []float64) []float64 {
	idx := make([]int, len(values))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return values[idx[a]] < values[idx[b]] })
	sv := make([]float64, len(values))
	for i, j := range idx {
		sv[i] = values[j]
	}
	return sv
}

// refEquiDepth is the equi-depth cut over refSorted's order, point by point,
// with each zero-width bucket widened by one ulp.
func refEquiDepth(sv []float64, nbuckets int) []histogram.Bucket {
	n := len(sv)
	if nbuckets > n {
		nbuckets = n
	}
	var buckets []histogram.Bucket
	per := float64(n) / float64(nbuckets)
	start := 0
	for k := 0; k < nbuckets; k++ {
		end := int(math.Round(per * float64(k+1)))
		if k == nbuckets-1 {
			end = n
		}
		if end <= start {
			continue
		}
		b := histogram.Bucket{Lo: sv[start], Hi: sv[end-1]}
		for i := start; i < end; i++ {
			b.Count++
			b.CostSum += 0
		}
		if b.Hi <= b.Lo {
			b.Hi = math.Nextafter(b.Lo, math.Inf(1))
		}
		buckets = append(buckets, b)
		start = end
	}
	return buckets
}

// refStats is what the old buildColumn computed for a non-empty numeric
// column.
type refStats struct {
	min, max float64
	distinct int
	sorted   []float64 // the histogram's input order, NaNs included
}

func refColumn(nums []float64) refStats {
	r := refStats{min: math.Inf(1), max: math.Inf(-1)}
	distinct := make(map[float64]struct{})
	for _, v := range nums {
		if v < r.min {
			r.min = v
		}
		if v > r.max {
			r.max = v
		}
		if len(distinct) < 1<<20 {
			distinct[v] = struct{}{}
		}
	}
	r.distinct = len(distinct)
	r.sorted = refSorted(nums)
	return r
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// checkIndex holds an index to refIndex's keys and rows, bit for bit.
func checkIndex(t *testing.T, name string, ix *tpch.Index, nums []float64) {
	t.Helper()
	keys, rows := refIndex(nums)
	if !slices.Equal(ix.Rows, rows) || !slices.EqualFunc(ix.Keys, keys, sameBits) {
		t.Errorf("%s: index order differs from sort.Slice's", name)
	}
}

// checkExact holds a column's statistics to the reference bit for bit: on a
// generated database, which holds no NaN and no -0, every one of them is
// defined and byte-identical.
func checkExact(t *testing.T, name string, cs *ColumnStats, nums []float64, buckets int) {
	t.Helper()
	ref := refColumn(nums)
	if !sameBits(cs.Min, ref.min) || !sameBits(cs.Max, ref.max) || cs.Distinct != ref.distinct {
		t.Errorf("%s: min/max/distinct = %v/%v/%d, reference %v/%v/%d", name, cs.Min, cs.Max, cs.Distinct, ref.min, ref.max, ref.distinct)
	}
	want := refEquiDepth(ref.sorted, buckets)
	got := cs.Hist.Buckets()
	same := len(got) == len(want) && cs.Hist.TotalCount() == float64(len(nums))
	for i := 0; same && i < len(got); i++ {
		same = sameBits(got[i].Lo, want[i].Lo) && sameBits(got[i].Hi, want[i].Hi) &&
			sameBits(got[i].Count, want[i].Count) && sameBits(got[i].CostSum, want[i].CostSum)
	}
	if !same {
		t.Errorf("%s: histogram differs from the reference's", name)
	}
}

// checkRule holds a column of any values to the rule the catalog states:
// Min and Max ignore NaN and Distinct counts each NaN once, as the reference
// did; the histogram is the reference's cut of the values that are not NaN,
// numerically equal bound for bound (-0 and +0 may trade places), so no NaN
// is ever a bound; and its probes equal, where they are defined, those of
// the histogram built over the reference's order.
func checkRule(t *testing.T, name string, cs *ColumnStats, nums []float64, buckets int) {
	t.Helper()
	ref := refColumn(nums)
	if cs.Min != ref.min || cs.Max != ref.max || cs.Distinct != ref.distinct {
		t.Errorf("%s: min/max/distinct = %v/%v/%d, reference %v/%v/%d", name, cs.Min, cs.Max, cs.Distinct, ref.min, ref.max, ref.distinct)
	}
	var finite []float64
	for _, v := range nums {
		if v == v {
			finite = append(finite, v)
		}
	}
	if len(finite) == 0 {
		if cs.Hist != nil {
			t.Errorf("%s: a column of NaNs has a histogram", name)
		}
		return
	}
	sv := refSorted(finite)
	want := refEquiDepth(sv, buckets)
	got := cs.Hist.Buckets()
	if len(got) != len(want) || cs.Hist.TotalCount() != float64(len(finite)) {
		t.Fatalf("%s: %d buckets over %v points, reference %d over %d", name, len(got), cs.Hist.TotalCount(), len(want), len(finite))
	}
	for i := range got {
		if got[i].Lo != want[i].Lo || got[i].Hi != want[i].Hi || got[i].Count != want[i].Count || got[i].CostSum != 0 {
			t.Fatalf("%s: bucket %d = %+v, reference %+v", name, i, got[i], want[i])
		}
	}
	h, err := histogram.BuildEquiDepth(sv, buckets)
	if err != nil {
		t.Fatal(err)
	}
	differs := func(a, b float64) bool { return b == b && a != b }
	for _, v := range finite {
		for _, p := range []float64{v, math.Nextafter(v, math.Inf(-1)), math.Nextafter(v, math.Inf(1))} {
			if a, b := cs.Hist.FractionLE(p), h.FractionLE(p); differs(a, b) {
				t.Errorf("%s: FractionLE(%v) = %v, reference order %v", name, p, a, b)
			}
			if a, b := cs.Hist.RangeCount(cs.Min, p), h.RangeCount(ref.min, p); differs(a, b) {
				t.Errorf("%s: RangeCount(min, %v) = %v, reference order %v", name, p, a, b)
			}
		}
	}
	for _, q := range []float64{0, 0.1, 0.25, 0.5, 0.75, 0.9, 1} {
		if a, b := cs.Hist.Quantile(q), h.Quantile(q); differs(a, b) {
			t.Errorf("%s: Quantile(%v) = %v, reference order %v", name, q, a, b)
		}
	}
}

// TestStatisticsMatchReference: on generated databases at three seeds and
// two scales, every index's keys and rows and every numeric column's Min,
// Max, Distinct and histogram are the reference's, bit for bit.
func TestStatisticsMatchReference(t *testing.T) {
	for _, cfg := range []tpch.Config{
		{Scale: 1000, Seed: 2012}, {Scale: 1000, Seed: 1}, {Scale: 1000, Seed: 7},
		{Scale: 200, Seed: 2012}, {Scale: 200, Seed: 1}, {Scale: 200, Seed: 7},
	} {
		db := tpch.MustGenerate(cfg)
		c, err := Build(db, 0)
		if err != nil {
			t.Fatal(err)
		}
		indexed, columns := 0, 0
		for _, name := range db.TableNames() {
			tb := db.MustTable(name)
			for _, col := range tb.Columns {
				if col.Kind != tpch.KindNumeric {
					continue
				}
				where := fmt.Sprintf("scale %d seed %d %s.%s", cfg.Scale, cfg.Seed, name, col.Name)
				if ix := tb.Indexes[col.Name]; ix != nil {
					checkIndex(t, where, ix, col.Nums)
					indexed++
				}
				checkExact(t, where, c.MustColumn(name, col.Name), col.Nums, DefaultColumnBuckets)
				columns++
			}
		}
		if indexed != 25 || columns != 36 {
			t.Errorf("scale %d seed %d: %d numeric columns, %d indexed; want 36 and 25", cfg.Scale, cfg.Seed, columns, indexed)
		}
	}
}

// handBuilt builds the catalog of a one-table database over the given
// numeric columns, each indexed when asked, and returns it with the table.
func handBuilt(t testing.TB, indexed bool, buckets int, cols ...*tpch.Column) (*Catalog, *tpch.Table) {
	t.Helper()
	tb := tpch.NewTable("t", cols...)
	if indexed {
		for _, col := range cols {
			if err := tb.BuildIndex(col.Name); err != nil {
				t.Fatal(err)
			}
		}
	}
	c, err := Build(&tpch.Database{Tables: map[string]*tpch.Table{"t": tb}}, buckets)
	if err != nil {
		t.Fatal(err)
	}
	return c, tb
}

// TestHandBuiltColumnsFollowTheRule: the shapes no generated column has —
// ties, -0 beside +0, the infinities, one value, all values equal, and NaN
// among values, alone and throughout — indexed and not, at bucket counts
// above and below the number of values.
func TestHandBuiltColumnsFollowTheRule(t *testing.T) {
	nan, negZero, inf := math.NaN(), math.Copysign(0, -1), math.Inf(1)
	shapes := map[string][]float64{
		"ties":        {3, 1, 2, 3, 1, 3, 2, 2, 3, 1, 1, 1},
		"signed zero": {0, negZero, 1, negZero, 0, -1, negZero, 0},
		"infinities":  {inf, -inf, 0, 5, inf, -inf, -2},
		"single":      {42},
		"all equal":   {7, 7, 7, 7, 7, 7, 7},
		"nan among":   {2, nan, 1, nan, 3, 1, nan, negZero, 0},
		"nan first":   {nan, 5, 4},
		"all nan":     {nan, nan, nan},
		"single nan":  {nan},
	}
	for name, nums := range shapes {
		for _, indexed := range []bool{false, true} {
			for _, buckets := range []int{1, 3, 64} {
				col := &tpch.Column{Name: "v", Kind: tpch.KindNumeric, Nums: slices.Clone(nums)}
				c, tb := handBuilt(t, indexed, buckets, col)
				where := fmt.Sprintf("%s indexed=%v buckets=%d", name, indexed, buckets)
				checkRule(t, where, c.MustColumn("t", "v"), nums, buckets)
				if indexed {
					checkIndex(t, where, tb.Indexes["v"], nums)
				}
			}
		}
	}
}

// fuzzColumn decodes 9-byte records into a column: a float64, any bits at
// all (NaN payloads, -0, the infinities, denormals), repeated one to four
// times as the record's last byte says, so the fuzzer reaches ties by
// repeating a record and runs by the count.
func fuzzColumn(data []byte) []float64 {
	var nums []float64
	for ; len(data) >= 9 && len(nums) < 512; data = data[9:] {
		v := math.Float64frombits(binary.LittleEndian.Uint64(data))
		for r := 0; r <= int(data[8]%4); r++ {
			nums = append(nums, v)
		}
	}
	return nums
}

func fuzzRecord(v float64, repeat byte) []byte {
	var rec [9]byte
	binary.LittleEndian.PutUint64(rec[:], math.Float64bits(v))
	rec[8] = repeat
	return rec[:]
}

// FuzzColumnStatsMatchReference holds a fuzzer-chosen column, indexed or
// not, at a fuzzer-chosen bucket count, to the reference: its index's keys
// and rows bit for bit (NaNs included: both sorts compare with <), and its
// statistics to checkRule.
func FuzzColumnStatsMatchReference(f *testing.F) {
	join := func(recs ...[]byte) []byte {
		var out []byte
		for _, r := range recs {
			out = append(out, r...)
		}
		return out
	}
	nan, negZero := math.NaN(), math.Copysign(0, -1)
	f.Add(join(fuzzRecord(3, 2), fuzzRecord(1, 1), fuzzRecord(2, 3), fuzzRecord(1, 0)), true, uint8(2))
	f.Add(join(fuzzRecord(0, 1), fuzzRecord(negZero, 2), fuzzRecord(0, 0), fuzzRecord(-1, 0)), false, uint8(3))
	f.Add(join(fuzzRecord(math.Inf(1), 0), fuzzRecord(math.Inf(-1), 1), fuzzRecord(5, 0)), true, uint8(63))
	f.Add(join(fuzzRecord(nan, 1), fuzzRecord(2, 0), fuzzRecord(nan, 0), fuzzRecord(1, 2)), true, uint8(1))
	f.Add(join(fuzzRecord(nan, 3)), false, uint8(0))
	f.Add(join(fuzzRecord(7, 3), fuzzRecord(7, 3)), true, uint8(5))
	f.Fuzz(func(t *testing.T, data []byte, indexed bool, nbuckets uint8) {
		nums := fuzzColumn(data)
		if len(nums) == 0 {
			return
		}
		buckets := 1 + int(nbuckets%64)
		col := &tpch.Column{Name: "v", Kind: tpch.KindNumeric, Nums: slices.Clone(nums)}
		c, tb := handBuilt(t, indexed, buckets, col)
		if indexed {
			checkIndex(t, "fuzzed", tb.Indexes["v"], nums)
		}
		checkRule(t, "fuzzed", c.MustColumn("t", "v"), nums, buckets)
	})
}

// TestDistinctCountHasNoCap: the set the catalog once counted distinct
// values in stopped growing at 2^20, so at scale 1 the order keys' 1.5 M
// values read as 1,048,576 and every join estimated at 1/distinct over them
// came out 1.43 times too large. Runs of the ascending order have no cap,
// read off an index or off a sorted copy.
func TestDistinctCountHasNoCap(t *testing.T) {
	if testing.Short() {
		t.Skip("sorts two columns of a million values")
	}
	const n = 1<<20 + 3
	keys := make([]float64, n)
	for i := range keys {
		keys[i] = float64((i * 7919) % n) // a permutation: 7919 is prime, n is not a multiple of it
	}
	indexed := &tpch.Column{Name: "indexed", Kind: tpch.KindNumeric, Nums: keys}
	plain := &tpch.Column{Name: "plain", Kind: tpch.KindNumeric, Nums: slices.Clone(keys)}
	tb := tpch.NewTable("t", indexed, plain)
	if err := tb.BuildIndex("indexed"); err != nil {
		t.Fatal(err)
	}
	c, err := Build(&tpch.Database{Tables: map[string]*tpch.Table{"t": tb}}, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"indexed", "plain"} {
		cs := c.MustColumn("t", name)
		if cs.Distinct != n || cs.Min != 0 || cs.Max != n-1 {
			t.Errorf("%s: distinct %d over [%v, %v], want %d over [0, %d]", name, cs.Distinct, cs.Min, cs.Max, n, n-1)
		}
	}
}
