// Column facts: what a cached plan may rely on about a key column for as
// long as it stays cached. A compiled plan runs thousands of times over the
// same data with only the parameters moving, so a property of the data —
// every join and GROUP BY key of the standard templates is a column of small
// consecutive integers — is learned once, at the first Compile that keys on
// the column, and lets every later execution address by key - lo instead of
// hashing, sorting or searching. The database is therefore immutable once an
// Executor has compiled against it: the facts are never re-learned.
package executor

import (
	"math"

	"repro/internal/tpch"
)

const (
	// maxSpanPerRow bounds the key span Compile will address: a direct table
	// has one int32 entry per key of the span, so no table is larger than
	// this many entries per row of the column it was learned from. A column
	// whose span is wider (two keys 1e7 apart) stays on the generic kernels.
	maxSpanPerRow = 4

	// An addressed kernel clears its span-sized tables on every execution, and
	// the merge join walks the span; both are worth it only while the span is
	// within a few entries per input tuple. Exec falls back to the generic
	// kernel when span > addrSpanPerTuple*tuples + addrSpanFloor (a selective
	// index scan feeding a join over a wide key column). The floor is a table
	// that clears in well under the time of one hash insert per tuple.
	addrSpanPerTuple = 8
	addrSpanFloor    = 1024

	// maxIntegral is 2^53: below it every whole number is a float64 and
	// int(v) is exact.
	maxIntegral = 1 << 53
)

// colFacts is what one scan of a numeric column (or of an index's sorted
// keys) establishes.
type colFacts struct {
	// integral: every value is a whole number of magnitude below 2^53 — no
	// NaN, no infinity, no fraction and no -0 (which float equality merges
	// with +0 and GROUP BY's bit-equal keys keep apart). int(v) then maps
	// values to keys one to one, in order.
	integral bool
	// lo and hi are the smallest and largest value of an integral column;
	// lo > hi when the column is empty.
	lo, hi int
	// dense: integral, and the span is at most maxSpanPerRow entries per row,
	// so a table addressed by v - lo is affordable.
	dense bool
	// unique: no value repeats. Learned only for a dense column.
	unique bool
}

func (f colFacts) span() int { return f.hi - f.lo + 1 }

// factsOf scans nums once for integrality and span, and a dense column a
// second time, over a scratch table, for a repeated value (stopping at the
// first).
func factsOf(nums []float64) colFacts {
	f := colFacts{integral: true, lo: 0, hi: -1, dense: true, unique: true}
	if len(nums) == 0 {
		return f
	}
	lo, hi := math.MaxInt, math.MinInt
	for _, v := range nums {
		// A NaN, an infinity or a fraction does not survive the round trip
		// through int; -0 does.
		k := int(v)
		if float64(k) != v || (k == 0 && math.Signbit(v)) {
			return colFacts{}
		}
		lo, hi = min(lo, k), max(hi, k)
	}
	if lo <= -maxIntegral || hi >= maxIntegral {
		return colFacts{}
	}
	f.lo, f.hi = lo, hi
	if f.span() > maxSpanPerRow*len(nums) {
		f.dense, f.unique = false, false
		return f
	}
	if len(nums) > f.span() {
		f.unique = false
		return f
	}
	seen := make([]bool, f.span())
	for _, v := range nums {
		k := int(v) - f.lo
		if seen[k] {
			f.unique = false
			break
		}
		seen[k] = true
	}
	return f
}

// factsFor returns the facts of a key column, scanning it the first time
// any plan keys on it. A string column has none.
func (e *Executor) factsFor(col *tpch.Column) colFacts {
	if col.Kind != tpch.KindNumeric {
		return colFacts{}
	}
	e.factMu.Lock()
	defer e.factMu.Unlock()
	f, ok := e.facts[col]
	if !ok {
		f = factsOf(col.Nums)
		e.facts[col] = f
		e.factScans++
	}
	return f
}

// keyDir is the key directory of an ordered index over a dense column: the
// rows holding key k are rows[off[k-lo]:off[k-lo+1]], in index order, so an
// index-nested-loop probe is two loads where Index.RangeRows is two binary
// searches.
type keyDir struct {
	lo  int
	off []int32 // span+1 offsets into Index.Rows; nil when the keys are not dense
}

// dirFor returns the index's key directory, building it from the sorted
// keys the first time a plan probes the index.
func (e *Executor) dirFor(ix *tpch.Index) keyDir {
	e.factMu.Lock()
	defer e.factMu.Unlock()
	d, ok := e.dirs[ix]
	if !ok {
		if f := factsOf(ix.Keys); f.dense {
			d.lo = f.lo
			d.off = make([]int32, f.span()+1)
			// off[k] counts the keys below lo+k: count each key one slot up,
			// then prefix-sum.
			for _, v := range ix.Keys {
				d.off[int(v)-f.lo+1]++
			}
			for k := 1; k < len(d.off); k++ {
				d.off[k] += d.off[k-1]
			}
		}
		e.dirs[ix] = d
		e.factScans++
	}
	return d
}
