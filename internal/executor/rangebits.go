// Range bitmaps: what a cached plan may rely on about a filtered column. A
// range comparison of a cached plan — col <= ?, col > ?, col BETWEEN a AND b
// — meets the same column on every execution and only the bound moves, so the
// column is sorted once, at the first Compile that filters on it, and the
// rows below every 64th part of that order are kept as bitmaps. An execution
// then finds its bound's position with one binary search and reads the
// qualifying rows off the nearest checkpoint instead of off the column; a
// conjunction is a word-wise AND; and the set bits come out in ascending
// row-id order, which is the order a pass over the column produced, so no
// operator that observes order can tell the difference. A scan extracts them
// into a row-id vector only when some reader needs the vector: a reader that
// reads the rows once, in that order — a global aggregate's fold, a hash
// join's probe — walks the set bits itself. Where no operator observes order (a
// scan under a global aggregate of COUNTs alone), one range predicate needs
// no bitmap: the rows it passes are a run of the row ids in value order, read
// off in place (cPred.run). A join key column of at most 64 keys keeps one
// more kind, for the join that counts its matches by bitmap (cNode.counted):
// one bitmap per key, of the rows holding it. Like the column facts (facts.go)
// the bitmaps are never re-learned: the database is immutable once an
// Executor has compiled against it.
package executor

import (
	"math"
	"math/bits"
	"slices"
	"sort"

	"repro/internal/optimizer"
	"repro/internal/tpch"
)

// rangeCheckpoints is how many prefix bitmaps a column keeps. Each is one bit
// per row, so together they take 8 bytes per row — the size of the column —
// and a bound is never more than 1/64th of the rows away from one.
const rangeCheckpoints = 64

// rangeBits is the range-encoded bitmap index of one numeric column.
type rangeBits struct {
	// keys holds the column's values other than NaN in ascending order and
	// rows the row id of each; they alias the column's ordered index when it
	// has one and holds no NaN (which no sort places).
	keys []float64
	rows []int32
	// words is the length of one bitmap, ⌈n/64⌉ for an n-row column, and
	// step the distance in value order between two checkpoints — the same
	// number, but at least 1.
	words, step int
	// cps holds the checkpoints back to back: checkpoint c, of 1 to
	// rangeCheckpoints, is cps[(c-1)*words : c*words] and has the bits of
	// rows[:c*step] set. The last one is every row that is not NaN.
	cps []uint64
	// nan has the bits of the NaN rows set; nil when the column has none.
	nan []uint64
}

// newRangeBits builds the bitmaps of a column; ix is its ordered index, or
// nil.
func newRangeBits(nums []float64, ix *tpch.Index) *rangeBits {
	rb := &rangeBits{words: (len(nums) + 63) / 64}
	rb.step = max(1, rb.words)
	if ix != nil && !slices.ContainsFunc(ix.Keys, math.IsNaN) {
		rb.keys, rb.rows = ix.Keys, ix.Rows
	} else {
		rb.rows = make([]int32, 0, len(nums))
		for i, v := range nums {
			if v != v {
				if rb.nan == nil {
					rb.nan = make([]uint64, rb.words)
				}
				rb.nan[i>>6] |= 1 << (i & 63)
				continue
			}
			rb.rows = append(rb.rows, int32(i))
		}
		rb.keys = tpch.SortRows(nums, rb.rows)
	}
	rb.cps = make([]uint64, rangeCheckpoints*rb.words)
	for c := 0; c < rangeCheckpoints; c++ {
		cp := rb.cps[c*rb.words : (c+1)*rb.words]
		if c > 0 {
			copy(cp, rb.cps[(c-1)*rb.words:])
		}
		for _, id := range rb.rows[min(c*rb.step, len(rb.rows)):min((c+1)*rb.step, len(rb.rows))] {
			cp[id>>6] |= 1 << (id & 63)
		}
	}
	return rb
}

// rangeFor returns the bitmaps of a numeric column of t, building them the
// first time any plan filters on it.
func (e *Executor) rangeFor(t *tpch.Table, col *tpch.Column) *rangeBits {
	e.factMu.Lock()
	defer e.factMu.Unlock()
	rb := e.ranges[col]
	if rb == nil {
		rb = newRangeBits(col.Nums, t.Indexes[col.Name])
		e.ranges[col] = rb
		e.factScans++
	}
	return rb
}

// maxEqKeys bounds the keys a column gets equality bitmaps for. Each is one
// bit per row, so together they take at most 8 bytes per row, rangeBits'
// budget.
const maxEqKeys = 64

// countedWordsPerProbe is a counted join's guard (countable): it counts by
// bitmap while its build tuples times the probe bitmap's words are at most
// this many per probe tuple. Q1's plan run both ways on a 2-vCPU host broke
// even at 4–6 words per probe tuple over 94-word bitmaps (4 and 10 build
// tuples) and below 7 over 469-word ones; the guard takes the low end.
const countedWordsPerProbe = 4

// eqBits is the equality-encoded bitmap index of an integral column of at most
// maxEqKeys keys: one bitmap per key of its span, of the rows holding it. A
// counted join (cNode.counted) ANDs its probe side's bitmap with them, one key
// at a time.
type eqBits struct {
	lo, span, words int
	// bits holds the bitmaps back to back: key lo+k's is bits[k*words:][:words].
	bits []uint64
}

// newEqBits builds the equality bitmaps of a column whose facts are f.
func newEqBits(nums []float64, f colFacts) *eqBits {
	eb := &eqBits{lo: f.lo, span: f.span(), words: (len(nums) + 63) / 64}
	eb.bits = make([]uint64, eb.span*eb.words)
	for i, v := range nums {
		eb.bits[(int(v)-eb.lo)*eb.words+i>>6] |= 1 << (i & 63)
	}
	return eb
}

// of returns the bitmap of the rows holding v, a whole number; nil when v lies
// outside the column's span.
func (eb *eqBits) of(v float64) []uint64 {
	k := uint(int(v) - eb.lo)
	if k >= uint(eb.span) {
		return nil
	}
	return eb.bits[int(k)*eb.words:][:eb.words]
}

// eqFor returns the equality bitmaps of a numeric column, building them the
// first time a counted join probes it; nil when its facts are not dense or its
// span is wider than maxEqKeys.
func (e *Executor) eqFor(col *tpch.Column) *eqBits {
	f := e.factsFor(col)
	if !f.dense || f.span() > maxEqKeys {
		return nil
	}
	e.factMu.Lock()
	defer e.factMu.Unlock()
	eb := e.eqs[col]
	if eb == nil {
		eb = newEqBits(col.Nums, f)
		e.eqs[col] = eb
		e.factScans++
	}
	return eb
}

// below and through are the positions of a bound in value order: how many
// values are less than v, and how many are at most v.
func (rb *rangeBits) below(v float64) int { return sort.SearchFloat64s(rb.keys, v) }
func (rb *rangeBits) through(v float64) int {
	return sort.Search(len(rb.keys), func(i int) bool { return rb.keys[i] > v })
}

// keepFirst narrows set to its rows among the first pos in value order and,
// when nan is set, its NaN rows: an AND with the checkpoint at or above pos,
// then at most step bits cleared for the rows between pos and the checkpoint.
func (rb *rangeBits) keepFirst(set []uint64, pos int, nan bool) {
	c := min(pos/rb.step+1, rangeCheckpoints)
	cp := rb.cps[(c-1)*rb.words:][:len(set)]
	if nan && rb.nan != nil {
		for w, x := range rb.nan[:len(set)] {
			set[w] &= cp[w] | x
		}
	} else {
		for w, x := range cp {
			set[w] &= x
		}
	}
	for _, id := range rb.rows[pos:min(c*rb.step, len(rb.rows))] {
		set[id>>6] &^= 1 << (id & 63)
	}
}

// dropFirst removes from set the first pos rows in value order and, unless
// nan is set, the NaN rows: an AND-NOT with the checkpoint at or below pos,
// then at most step bits cleared for the rows between the checkpoint and pos.
func (rb *rangeBits) dropFirst(set []uint64, pos int, nan bool) {
	c := pos / rb.step
	if c > 0 {
		for w, x := range rb.cps[(c-1)*rb.words:][:len(set)] {
			set[w] &^= x
		}
	}
	for _, id := range rb.rows[c*rb.step : pos] {
		set[id>>6] &^= 1 << (id & 63)
	}
	if !nan && rb.nan != nil {
		for w, x := range rb.nan[:len(set)] {
			set[w] &^= x
		}
	}
}

// isRange reports whether the predicate is evaluated on its column's bitmaps:
// the four inequalities and BETWEEN. Equality, string equality and the
// same-row column comparison read the column.
func (p *cPred) isRange() bool {
	return p.kind == optimizer.PredBetween || p.kind == optimizer.PredCmpNum && p.op != optimizer.OpEq
}

// bindRange attaches the column's bitmaps to a range predicate. A BETWEEN
// bound that is NaN rejects no value (!(v < NaN || v > hi) is !(v > hi)),
// which is what the infinity on its side does; no position stands for that.
func (p *cPred) bindRange(rb *rangeBits) {
	p.rb = rb
	if p.lo != p.lo {
		p.lo = math.Inf(-1)
	}
	if p.hi != p.hi {
		p.hi = math.Inf(1)
	}
}

// span returns the positions [lo, hi) in value order of the values other than
// NaN that a range predicate passes. The row engine's positive comparisons
// fail every row when the bound is NaN; inverted BETWEEN bounds pass no value.
func (p *cPred) span(params []float64) (lo, hi int) {
	rb := p.rb
	if p.kind == optimizer.PredBetween {
		lo = rb.below(p.lo)
		return lo, max(lo, rb.through(p.hi))
	}
	v := p.rhs(params)
	switch {
	case v != v:
		return 0, 0
	case p.op == optimizer.OpLE:
		return 0, rb.through(v)
	case p.op == optimizer.OpLT:
		return 0, rb.below(v)
	case p.op == optimizer.OpGE:
		return rb.below(v), len(rb.rows)
	}
	return rb.through(v), len(rb.rows) // OpGT
}

// narrow ANDs a range predicate into set: the rows of its span, and the NaN
// rows for a BETWEEN, whose !(v < lo || v > hi) passes a NaN value where the
// row engine's positive comparisons fail it.
func (p *cPred) narrow(params []float64, set []uint64) {
	lo, hi := p.span(params)
	nan := p.kind == optimizer.PredBetween
	p.rb.keepFirst(set, hi, nan)
	p.rb.dropFirst(set, lo, nan)
}

// isRun reports whether the rows a range predicate passes are its span of
// rb.rows. They are but for a BETWEEN over a column with NaN rows: it passes
// them, and no sort places them.
func (p *cPred) isRun() bool {
	return p.kind != optimizer.PredBetween || p.rb.nan == nil
}

// run returns the predicate's span of rb.rows: where isRun, the rows it
// passes, in value order. It aliases the bitmaps' row ids: the caller must not
// write to it.
func (p *cPred) run(params []float64) []int32 {
	lo, hi := p.span(params)
	return p.rb.rows[lo:hi:hi]
}

// rangeSet evaluates the conjunction of range predicates over an n-row table
// into the arena's shared bitmap.
func (ar *Arena) rangeSet(ranges []cPred, params []float64, n int) []uint64 {
	ar.bits = fillRangeSet(ar.bits, ranges, params, n)
	return ar.bits
}

// fillRangeSet evaluates the conjunction of range predicates over an n-row
// table into set, resized to the table, and returns it: bit id is set when row
// id passes them all.
func fillRangeSet(set []uint64, ranges []cPred, params []float64, n int) []uint64 {
	set = sized(set, (n+63)/64)
	for w := range set {
		set[w] = ^uint64(0)
	}
	if r := n & 63; r != 0 {
		set[len(set)-1] = 1<<r - 1
	}
	for i := range ranges {
		ranges[i].narrow(params, set)
	}
	return set
}

// extract writes the set's row ids to the front of out in ascending order —
// the order selectAll writes them in — and returns how many there are.
func extract(set []uint64, out []int32) int {
	k := 0
	for w, x := range set {
		for ; x != 0; x &= x - 1 {
			out[k] = int32(w<<6 + bits.TrailingZeros64(x))
			k++
		}
	}
	return k
}

// popcount returns how many bits of the set are set: the number of rows
// extract would write.
func popcount(set []uint64) int {
	k := 0
	for _, x := range set {
		k += bits.OnesCount64(x)
	}
	return k
}

// refineSet is refine against a bitmap: it keeps, in place and in order, the
// ids whose bit is set, and returns how many were.
func refineSet(set []uint64, ids []int32) int {
	k := 0
	for _, id := range ids {
		ids[k] = id
		k += int(set[id>>6] >> (id & 63) & 1)
	}
	return k
}
