package executor

import (
	"math"
	"math/bits"
	"slices"
	"sort"

	"repro/internal/tpch"
)

// Arena is the per-execution scratch of one CompiledPlan: tuple selection
// vectors (or, for a scan that hands its reader the range bitmap, that
// bitmap), join match pairs, hash tables and sort permutations, and
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

	// bits holds the conjunction of the running scan's range predicates (or
	// of an index-nested-loop join's inner ones), one bit per row of the
	// table: the AND of the predicates' bitmaps (rangebits.go). It is dead
	// once the scan has extracted its vector, so every scan of the plan
	// shares it.
	bits []uint64

	// sets holds, by slot, the conjunction of a streamed scan's range
	// predicates (cNode.streamed) in place of its vector: the scan's one
	// reader walks the set bits after the scans beneath its other input
	// have overwritten bits. Every other slot's entry stays nil.
	sets [][]uint64

	// nrows holds every operator's output tuple count, by cNode.ord: a join
	// gathers vectors only for its live slots, so no vector's length can be
	// relied on to carry it.
	nrows []int

	// matchL and matchR hold the running join's matched (left, right) tuple
	// pairs; the join's live output vectors are gathered from them.
	matchL []int32
	matchR []int32

	// mult holds, when the root join counted by bitmap (cNode.counted), the
	// multiplicity of each of its output tuples: how many probe tuples its
	// build tuple matched. It is empty when every output tuple is one match.
	mult []int32

	// Hash join scratch: the build side chained by key, in input order.
	// nextA[t] is 1 + the next build tuple holding tuple t's key, 0 at the
	// end; the table holds 1 + the first. The table is dirA, addressed by
	// key - lo, when Compile found dense integer keys (kernAddressed);
	// otherwise numeric keys go through the open-addressed htN (a Go map
	// spends most of the probe in hashing and bucket dispatch) and string
	// keys keep a Go map. An addressed merge join chains its left input
	// through dirA/nextA and its right input through dirB/nextB; an addressed
	// GROUP BY keeps 1 + the key's dense group id in dirA.
	dirA, dirB   []int32
	nextA, nextB []int32
	htN          f64HT
	htS          map[string]int32

	// Merge join scratch: one stable sort permutation and key cache per
	// side.
	sorter permSorter
	permA  []int32
	permB  []int32
	keysA  []float64
	keysB  []float64

	// Aggregation scratch: the group index keyed by the encoded group key,
	// and the key encoding buffer, for any key dirA cannot address; each
	// tuple's dense group id; first-seen group keys and tuple counts per
	// group; and the accumulators, one per group, of the one aggregate being
	// folded.
	groups    map[string]int32
	keyBuf    []byte
	gids      []int32
	groupKeys []Value
	counts    []float64
	acc       []float64
}

// newArena sizes an arena for one compiled plan.
func newArena(cp *CompiledPlan) *Arena {
	ar := &Arena{vecs: make([][]int32, cp.nSlots), sets: make([][]uint64, cp.nSlots), nrows: make([]int, cp.nNodes)}
	if cp.needHTStr {
		ar.htS = make(map[string]int32)
	}
	if cp.agg != nil && len(cp.agg.groupCols) > 0 {
		ar.groups = make(map[string]int32)
	}
	return ar
}

// f64HT is the numeric hash join table: open addressing with linear probing
// over power-of-two slots, keyed by float equality (so, like the row
// engine's map, NaN keys insert distinct buckets and never match a probe,
// and ±0 share one bucket). ents holds 1 + the first build tuple of the
// key's chain, 0 in an empty slot.
type f64HT struct {
	keys  []float64
	ents  []int32
	shift uint
}

// f64HashK scrambles the key bits; the high bits index the table.
const f64HashK = 0x9e3779b97f4a7c15

// reset sizes the table for n build rows at load factor <= 1/2 and empties
// every slot. Capacity is retained across executions.
func (t *f64HT) reset(n int) {
	size := 16
	for size < 2*n {
		size <<= 1
	}
	t.keys, t.ents = sized(t.keys, size), sized(t.ents, size)
	clear(t.ents)
	t.shift = uint(64 - bits.TrailingZeros(uint(size)))
}

// slot finds the slot holding key k, or the empty slot where it belongs.
func (t *f64HT) slot(k float64) uint64 {
	if k == 0 {
		k = 0 // -0 hashes as +0
	}
	mask := uint64(len(t.ents) - 1)
	j := (math.Float64bits(k) * f64HashK) >> t.shift
	for t.ents[j] != 0 && t.keys[j] != k {
		j = (j + 1) & mask
	}
	return j
}

// insert links build tuple i in front of key k's chain; inserting the build
// side backwards leaves every chain in input order.
func (t *f64HT) insert(k float64, i int32, next []int32) {
	j := t.slot(k)
	t.keys[j] = k
	next[i] = t.ents[j]
	t.ents[j] = i + 1
}

// lookup returns 1 + the first build tuple holding key k, or 0.
func (t *f64HT) lookup(k float64) int32 { return t.ents[t.slot(k)] }

// chainByKey links the tuples of vec by key through head and next (see
// Arena.dirA): head covers the keys from lo up, and a tuple whose key falls
// outside it is left out. Walking the input backwards and linking each tuple
// in front of its key's chain leaves every chain in input order, which is
// the order the row engine's bucket appends and stable sorts produce.
func chainByKey(head, next, vec []int32, keys []float64, lo int) {
	clear(head)
	for i := len(vec) - 1; i >= 0; i-- {
		if k := uint(int(keys[vec[i]]) - lo); k < uint(len(head)) {
			next[i] = head[k]
			head[k] = int32(i + 1)
		}
	}
}

// addressable is the Exec-time half of the kernel choice: a span-sized
// table is cleared, and for a merge join walked, on every execution, so it
// must be within a few entries per input tuple.
func addressable(span, tuples int) bool {
	return span <= addrSpanPerTuple*tuples+addrSpanFloor
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
