package executor

import (
	"math"
	"math/bits"
	"slices"
	"sort"

	"repro/internal/tpch"
)

// Arena is the per-execution scratch of one CompiledPlan: tuple selection
// vectors, join match pairs, hash tables and sort permutations, and
// aggregation accumulators. Arenas are checked out of the plan's
// sync.Pool for the duration of one Exec, so concurrent executions never
// share one; all slices retain their capacity across executions, which is
// what drives steady-state allocations toward zero.
//
// Join and sort scratch is shared by every join in the plan rather than
// allocated per operator: execution is strictly sequential bottom-up, and a
// join's hash table or permutation is dead once the join has produced its
// output vectors, so the next join can reuse the same buffers.
type Arena struct {
	// vecs holds one row-id vector per compile-time slot. A node's output
	// tuple t is the cross-section vecs[slot][t] over the node's slots (one
	// slot per base relation, late materialization). A scan sizes its vector
	// to its candidate count before filtering into it.
	vecs [][]int32

	// matchL and matchR hold the running join's matched (left, right) tuple
	// pairs; the join's output vectors are gathered from them.
	matchL []int32
	matchR []int32

	// Hash join scratch: chained hash tables in insertion order. The table
	// entry packs head<<32|tail of the bucket's chain through next. Numeric
	// keys go through the open-addressed htN (a Go map spends most of the
	// probe in hashing and bucket dispatch); string keys keep a Go map.
	next []int32
	htN  f64HT
	htS  map[string]int64

	// Merge join scratch: one stable sort permutation and key cache per
	// side.
	sorter permSorter
	permA  []int32
	permB  []int32
	keysA  []float64
	keysB  []float64

	// Aggregation scratch: group index keyed by the encoded group key and
	// the key encoding buffer, or htG for a single numeric group column
	// (keyed on the raw float bits, which is exactly the byte encoding groups
	// would see, minus the encoding); each tuple's dense group id; first-seen
	// group keys and tuple counts per group; and the accumulators, one per
	// group, of the one aggregate being folded.
	groups    map[string]int32
	htG       f64HT
	keyBuf    []byte
	gids      []int32
	groupKeys []Value
	counts    []float64
	acc       []float64
}

// newArena sizes an arena for one compiled plan.
func newArena(cp *CompiledPlan) *Arena {
	ar := &Arena{vecs: make([][]int32, cp.nSlots)}
	if cp.needHTStr {
		ar.htS = make(map[string]int64)
	}
	if cp.agg != nil && len(cp.agg.groupCols) > 0 && !cp.agg.numKey() {
		ar.groups = make(map[string]int32)
	}
	return ar
}

// f64HT is the numeric hash table: open addressing with linear probing over
// power-of-two slots; -1 in ents marks an empty slot. A hash join uses
// insert and lookup, keyed by float equality (so, like the row engine's
// map, NaN keys insert distinct buckets and never match a probe, and ±0
// share one bucket), with ents packing head<<32|tail of the bucket's chain.
// A numeric GROUP BY uses group, keyed by the float's bits, with ents
// holding the dense group id.
type f64HT struct {
	keys  []float64
	ents  []int64
	shift uint
	n     int // groups assigned since reset
}

// f64HashK scrambles the key bits; the high bits index the table.
const f64HashK = 0x9e3779b97f4a7c15

// reset sizes the table for n build rows at load factor <= 1/2 and marks
// every slot empty. Capacity is retained across executions.
func (t *f64HT) reset(n int) {
	size := 16
	for size < 2*n {
		size <<= 1
	}
	if size > cap(t.ents) {
		t.keys = make([]float64, size)
		t.ents = make([]int64, size)
	} else {
		t.keys = t.keys[:size]
		t.ents = t.ents[:size]
	}
	for i := range t.ents {
		t.ents[i] = -1
	}
	t.shift = uint(64 - bits.TrailingZeros(uint(size)))
	t.n = 0
}

// group returns the dense id of the group whose key has k's bits, and
// whether this call created it. Ids count up from 0 in first-seen order;
// the table doubles when half full.
func (t *f64HT) group(k float64) (g int32, fresh bool) {
	if 2*t.n >= len(t.ents) {
		keys, ents, n := t.keys, t.ents, t.n
		t.keys, t.ents = nil, nil
		t.reset(2 * n)
		t.n = n
		for i, e := range ents {
			if e >= 0 {
				j := t.slot(keys[i])
				t.keys[j], t.ents[j] = keys[i], e
			}
		}
	}
	j := t.slot(k)
	if t.ents[j] >= 0 {
		return int32(t.ents[j]), false
	}
	t.keys[j], t.ents[j] = k, int64(t.n)
	t.n++
	return int32(t.n - 1), true
}

// slot finds the slot holding the key with k's bits, or the empty slot
// where it belongs.
func (t *f64HT) slot(k float64) uint64 {
	mask := uint64(len(t.ents) - 1)
	b := math.Float64bits(k)
	j := (b * f64HashK) >> t.shift
	for t.ents[j] >= 0 && math.Float64bits(t.keys[j]) != b {
		j = (j + 1) & mask
	}
	return j
}

// insert adds build row i under key k, appending to the key's chain (in
// insertion order) through next.
func (t *f64HT) insert(k float64, i int32, next []int32) {
	if k == 0 {
		k = 0 // -0 hashes as +0
	}
	mask := uint64(len(t.ents) - 1)
	j := (math.Float64bits(k) * f64HashK) >> t.shift
	for {
		e := t.ents[j]
		if e < 0 {
			t.keys[j] = k
			t.ents[j] = int64(i)<<32 | int64(i)
			return
		}
		if t.keys[j] == k {
			next[e&0xffffffff] = i
			t.ents[j] = e&^0xffffffff | int64(i)
			return
		}
		j = (j + 1) & mask
	}
}

// lookup returns the packed chain entry for k, or -1.
func (t *f64HT) lookup(k float64) int64 {
	if k == 0 {
		k = 0
	}
	mask := uint64(len(t.ents) - 1)
	j := (math.Float64bits(k) * f64HashK) >> t.shift
	for {
		e := t.ents[j]
		if e < 0 {
			return -1
		}
		if t.keys[j] == k {
			return e
		}
		j = (j + 1) & mask
	}
}

// sized returns s resliced to n elements, reusing its capacity when that
// suffices; the elements' values are whatever the backing array held.
func sized[T any](s []T, n int) []T {
	return slices.Grow(s[:0], n)[:n]
}

// permKeys sizes a (perm, keys) pair for a sort of n tuples and fills perm
// with the identity permutation.
func permKeys(perm []int32, keys []float64, n int) ([]int32, []float64) {
	if cap(perm) < n {
		perm = make([]int32, n)
		keys = make([]float64, n)
	}
	perm, keys = perm[:n], keys[:n]
	for i := range perm {
		perm[i] = int32(i)
	}
	return perm, keys
}

// permSorter stably sorts a permutation by the cached key of the tuple it
// points at. It is embedded in the arena so taking its address for
// sort.Stable never allocates.
type permSorter struct {
	perm []int32
	keys []float64
}

func (s *permSorter) Len() int           { return len(s.perm) }
func (s *permSorter) Less(i, j int) bool { return s.keys[s.perm[i]] < s.keys[s.perm[j]] }
func (s *permSorter) Swap(i, j int)      { s.perm[i], s.perm[j] = s.perm[j], s.perm[i] }

// stableSortPerm stably sorts perm by keys (both owned by the arena).
func (ar *Arena) stableSortPerm(perm []int32, keys []float64) {
	ar.sorter.perm, ar.sorter.keys = perm, keys
	sort.Stable(&ar.sorter)
	ar.sorter.perm, ar.sorter.keys = nil, nil
}

// typedEq compares one column value from each side of a join with full type
// awareness: string columns compare their strings, numeric columns their
// numbers, and a string/numeric mismatch is simply unequal (never a silent
// zero-collision).
func typedEq(ca *tpch.Column, ia int32, cb *tpch.Column, ib int32) bool {
	if ca.Kind == tpch.KindString || cb.Kind == tpch.KindString {
		if ca.Kind != cb.Kind {
			return false
		}
		return ca.Strs[ia] == cb.Strs[ib]
	}
	return ca.Nums[ia] == cb.Nums[ib]
}
