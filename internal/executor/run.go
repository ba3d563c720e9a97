// Compiled plan execution. Operators consume and produce int32 selection
// vectors held in the arena. A scan's range predicates never read the column:
// they AND the columns' bitmaps (rangebits.go), and a sequential scan extracts
// the set bits — row ids, ascending — into its vector, where an index scan
// tests its candidates against them. It extracts only when some reader needs
// the vector: where its one reader reads the rows once in ascending order — a
// global aggregate folding them (COUNT is the bitmap's popcount), or a hash
// join's probe loop when nothing above reads the probe side (cNode.streams)
// — that reader walks the set bits instead. Where nothing above observes a scan's
// order (under a global aggregate of COUNTs alone, cNode.orderLiveness), a
// sequential scan with one range predicate builds no bitmap: the rows it
// passes are a run of the column's row ids in value order, which become its
// vector in place. A predicate of another kind runs over
// the contiguous column when it is the scan's first and refines the vector in
// place otherwise. A join records its matched (left, right) tuple pairs and
// gathers, one relation at a time, the output vectors something above it
// reads; a join of which nothing above reads a vector (countOnly) records no
// pair and counts its matches instead, and a root hash join under COUNTs
// alone whose probe side hands it a bitmap (counted) ANDs that bitmap with the
// probe key's equality bitmap of each build tuple's key, recording each
// matched build tuple once with its multiplicity. Rows are materialized
// exactly once, into the final Result (two allocations: the Value backing
// array and the Row headers). Where Compile found the keys to be dense integers (facts.go) a
// join or GROUP BY addresses a direct table by key - lo; the hashed, sorted
// and searched kernels serve every other input.
package executor

import (
	"math"
	"math/bits"

	"repro/internal/optimizer"
	"repro/internal/tpch"
)

// Exec runs the compiled plan at the given parameter values and returns a
// freshly materialized result. Safe for concurrent use; the result shares
// nothing with the arena (the Schema is shared with the plan and must be
// treated as read-only).
func (cp *CompiledPlan) Exec(params []float64) (*Result, error) {
	return cp.ExecObserve(params, nil)
}

func (cp *CompiledPlan) run(n *cNode, ar *Arena, params []float64) {
	if n.left == nil {
		n.runScan(ar, params)
		return
	}
	cp.run(n.left, ar, params)
	if n.right != nil {
		cp.run(n.right, ar, params)
	}
	// A count-only join counts into nrows, a counted one into mult.
	ar.nrows[n.ord], ar.mult = 0, ar.mult[:0]
	switch n.op {
	case optimizer.OpHashJoin:
		n.runHashJoin(ar, params)
	case optimizer.OpMergeJoin:
		n.runMergeJoin(ar, params)
	case optimizer.OpIndexNLJoin:
		n.runIndexNLJoin(ar, params)
	case optimizer.OpNLJoin:
		n.runNLJoin(ar, params)
	}
	if !n.countOnly {
		n.gatherOutput(ar)
	}
}

// testRow evaluates one compiled non-join predicate against a direct base
// table row id. The comparison forms replicate the row engine exactly
// (including its NaN behaviour) so compiled output stays bit-identical.
func (p *cPred) testRow(params []float64, id int32) bool {
	switch p.kind {
	case optimizer.PredCmpNum:
		return cmpNum(p.col.Nums[id], p.op, p.rhs(params))
	case optimizer.PredCmpStr:
		return p.col.Strs[id] == p.strValue
	case optimizer.PredBetween:
		v := p.col.Nums[id]
		return !(v < p.lo || v > p.hi)
	case optimizer.PredJoin:
		return typedEq(p.col, id, p.col2, id)
	}
	return false
}

// runScan produces the scan's selection vector: in row-id order for a
// sequential scan, in index order for an index scan, and in value order for a
// scan that reads its range filter's run (fromRun). A scan with nothing left
// to refine takes the run or the index's range as its vector, in place, and
// nothing writes to it; otherwise the rows are copied into the slot's own
// vector, which is sized to the candidate count up front, so the kernels
// store without growing it.
func (n *cNode) runScan(ar *Arena, params []float64) {
	slot := n.slots[0]
	filters := n.filters
	var sel []int32
	switch {
	case n.fromRun:
		sel = n.ranges[0].run(params)
		if len(filters) > 0 {
			sel = append(ar.vecs[slot][:0], sel...)
		}
	case n.streamed:
		// Its one reader walks the bitmap's set bits (cNode.streams).
		set := fillRangeSet(ar.sets[slot], n.ranges, params, n.table.NumRows())
		ar.sets[slot], ar.nrows[n.ord] = set, popcount(set)
		return
	case n.op == optimizer.OpIndexScan:
		sel = n.index.RangeRows(n.bounds(params))
		if len(n.ranges) > 0 || len(filters) > 0 {
			sel = append(ar.vecs[slot][:0], sel...)
		}
		if len(n.ranges) > 0 {
			sel = sel[:refineSet(ar.rangeSet(n.ranges, params, n.table.NumRows()), sel)]
		}
	default:
		sel = sized(ar.vecs[slot], n.table.NumRows())
		switch {
		case len(n.ranges) > 0:
			sel = sel[:extract(ar.rangeSet(n.ranges, params, n.table.NumRows()), sel)]
		case len(filters) > 0:
			sel = sel[:filters[0].selectAll(params, sel)]
			filters = filters[1:]
		default:
			for i := range sel {
				sel[i] = int32(i)
			}
		}
	}
	for fi := range filters {
		sel = sel[:filters[fi].refine(params, sel)]
	}
	ar.vecs[slot] = sel
	ar.nrows[n.ord] = len(sel)
}

// bounds returns the index scan's effective bounds. Parameter-driven bounds
// re-derive exactly as Recost's rebind does; later derivations win,
// matching the rebind order over q.Preds.
func (n *cNode) bounds(params []float64) (lo, hi float64) {
	lo, hi = n.lo, n.hi
	for _, d := range n.derive {
		lo, hi = optimizer.SargBoundsFor(d.Op, params[d.ParamIdx])
	}
	return lo, hi
}

// b2i is the conditional increment of the selection kernels: the compiler
// turns it into a flag-to-register move, so a kernel's loop has no
// data-dependent branch.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// selectAll runs the predicate over the whole contiguous column, writing the
// ids of passing rows to the front of out (len(out) = the column's length)
// in row order, and returns how many passed. Every row id is stored
// unconditionally and the write position advances only on a pass. It serves
// the predicates that have no bitmap form (cPred.isRange): equality, string
// equality and, through testRow, the same-row column comparison.
func (p *cPred) selectAll(params []float64, out []int32) int {
	k := 0
	switch p.kind {
	case optimizer.PredCmpNum:
		v := p.rhs(params)
		for i, x := range p.col.Nums[:len(out)] {
			out[k] = int32(i)
			k += b2i(x == v)
		}
	case optimizer.PredCmpStr:
		for i, s := range p.col.Strs[:len(out)] {
			out[k] = int32(i)
			k += b2i(s == p.strValue)
		}
	default:
		for i := range out {
			out[k] = int32(i)
			k += b2i(p.testRow(params, int32(i)))
		}
	}
	return k
}

// refine is selectAll over a gathered id vector: it keeps, in place and in
// order, the ids whose rows pass the predicate, and returns how many did.
func (p *cPred) refine(params []float64, ids []int32) int {
	k := 0
	switch p.kind {
	case optimizer.PredCmpNum:
		nums := p.col.Nums
		v := p.rhs(params)
		for _, id := range ids {
			ids[k] = id
			k += b2i(nums[id] == v)
		}
	case optimizer.PredCmpStr:
		strs := p.col.Strs
		for _, id := range ids {
			ids[k] = id
			k += b2i(strs[id] == p.strValue)
		}
	default:
		for _, id := range ids {
			ids[k] = id
			k += b2i(p.testRow(params, id))
		}
	}
	return k
}

// evalJoinFilters evaluates the node's compiled join-level filters against a
// candidate (left tuple li, right tuple ri) pair. In an index-nested-loop
// join, which has no right child, ri is a direct inner row id rather than an
// index into a selection vector.
func (n *cNode) evalJoinFilters(ar *Arena, params []float64, li, ri int32) bool {
	rightDirect := n.right == nil
	for fi := range n.joinFilters {
		p := &n.joinFilters[fi]
		idA := joinRowID(ar, p.side, p.slot, li, ri, rightDirect)
		if p.kind == optimizer.PredJoin {
			idB := joinRowID(ar, p.side2, p.slot2, li, ri, rightDirect)
			if !typedEq(p.col, idA, p.col2, idB) {
				return false
			}
			continue
		}
		if !p.testRow(params, idA) {
			return false
		}
	}
	return true
}

func joinRowID(ar *Arena, side, slot int, li, ri int32, rightDirect bool) int32 {
	if side == 0 {
		return ar.vecs[slot][li]
	}
	if rightDirect {
		return ri
	}
	return ar.vecs[slot][ri]
}

// match records the (left li, right ri) tuple pair as a join match if it
// passes the node's residual join filters, or only counts it in a
// count-only join.
func (n *cNode) match(ar *Arena, params []float64, li, ri int32) {
	switch {
	case !n.evalJoinFilters(ar, params, li, ri):
	case n.countOnly:
		ar.nrows[n.ord]++
	default:
		ar.matchL = append(ar.matchL, li)
		ar.matchR = append(ar.matchR, ri)
	}
}

// gatherOutput builds the join's live output vectors from the recorded
// match pairs, one relation at a time, records the output tuple count — the
// pairs', unless the join counted by bitmap and recorded the sum of its
// multiplicities itself — and empties the pair vectors for the next join.
func (n *cNode) gatherOutput(ar *Arena) {
	for _, g := range n.gathers {
		idx := ar.matchL
		if g.right {
			idx = ar.matchR
		}
		if g.src < 0 {
			ar.vecs[g.dst] = append(ar.vecs[g.dst][:0], idx...)
		} else {
			ar.vecs[g.dst] = gather(ar.vecs[g.dst], ar.vecs[g.src], idx)
		}
	}
	if len(ar.mult) == 0 {
		ar.nrows[n.ord] = len(ar.matchL)
	}
	ar.matchL, ar.matchR = ar.matchL[:0], ar.matchR[:0]
}

// gather overwrites out with in[t] for every t of idx, reusing its capacity.
func gather(out, in, idx []int32) []int32 {
	out = sized(out, len(idx))
	for i, t := range idx {
		out[i] = in[t]
	}
	return out
}

// runHashJoin chains the build side by key and probes it in probe order, so
// pairs come out in the row engine's order: probe order, and build input
// order within one probe. The table the chains hang from is a direct table
// spanning the build column where Compile found dense integer keys, an
// open-addressed float table or a string map otherwise; the chains are the
// same (see Arena.dirA). A streamed probe side (cNode.streams) is its scan's
// bitmap, which every kernel walks in place of the vector: probe tuple pi is
// its pi-th set bit. A counted join (cNode.counted) that passes its guard
// records one (first matching probe row, build tuple) pair per build tuple
// that matches, and the build tuple's multiplicity in Arena.mult.
func (n *cNode) runHashJoin(ar *Arena, params []float64) {
	probe := n.left
	buildSlot, probeSlot := n.rightSlot, n.leftSlot
	buildKey, probeKey := n.rightKey, n.leftKey
	if n.buildLeft {
		probe = n.right
		buildSlot, probeSlot = n.leftSlot, n.rightSlot
		buildKey, probeKey = n.leftKey, n.rightKey
	}
	buildVec := ar.vecs[buildSlot]
	probeVec, nProbe := ar.vecs[probeSlot], ar.nrows[probe.ord]
	var probeSet []uint64
	if probe.streamed {
		probeSet = ar.sets[probeSlot]
	}
	ar.nextA = sized(ar.nextA, len(buildVec))
	next := ar.nextA
	filtered := len(n.joinFilters) > 0
	mp, mb := ar.matchL, ar.matchR // (probe, build) pairs

	switch {
	case n.counted != nil && probeSet != nil && countable(len(buildVec), len(probeSet), nProbe):
		// One AND per build tuple and probe word; no chain, no pair per match.
		mp, mb = sized(mp, len(buildVec)), sized(mb, len(buildVec))
		ar.mult = sized(ar.mult, len(buildVec))
		m, pairs := countByBitmap(n.counted, probeSet, buildVec, buildKey.Nums, mp, mb, ar.mult)
		mp, mb, ar.mult = mp[:m], mb[:m], ar.mult[:m]
		ar.nrows[n.ord] = pairs
	case n.kernel != kernGeneric && addressable(n.keySpan, len(buildVec)+nProbe):
		// A probe is a bounds check and a load.
		ar.dirA = sized(ar.dirA, n.keySpan)
		head, lo, pkeys := ar.dirA, n.keyLo, probeKey.Nums
		if n.countOnly && !filtered {
			ar.nrows[n.ord] = countByKey(head, buildVec, buildKey.Nums, probeVec, probeSet, pkeys, lo)
			return
		}
		chainByKey(head, next, buildVec, buildKey.Nums, lo)
		if n.kernel == kernAddressedOnce && !filtered {
			mp, mb = sized(mp, nProbe), sized(mb, nProbe)
			m := probeOnce(head, lo, pkeys, probeVec, probeSet, mp, mb)
			mp, mb = mp[:m], mb[:m]
			break
		}
		if probeSet != nil {
			pi := int32(0)
			for w, x := range probeSet {
				for ; x != 0; x &= x - 1 {
					if b := at(head, pkeys[w<<6+bits.TrailingZeros64(x)], lo); b != 0 {
						mp, mb = n.probeChain(ar, params, next, b, pi, mp, mb)
					}
					pi++
				}
			}
			break
		}
		for pi, id := range probeVec {
			if b := at(head, pkeys[id], lo); b != 0 {
				mp, mb = n.probeChain(ar, params, next, b, int32(pi), mp, mb)
			}
		}
	case n.strKey:
		ht := ar.htS
		clear(ht)
		keys, pkeys := buildKey.Strs, probeKey.Strs
		for i := len(buildVec) - 1; i >= 0; i-- {
			k := keys[buildVec[i]]
			next[i] = ht[k]
			ht[k] = int32(i + 1)
		}
		if probeSet != nil {
			pi := int32(0)
			for w, x := range probeSet {
				for ; x != 0; x &= x - 1 {
					mp, mb = n.probeChain(ar, params, next, ht[pkeys[w<<6+bits.TrailingZeros64(x)]], pi, mp, mb)
					pi++
				}
			}
			break
		}
		for pi, id := range probeVec {
			mp, mb = n.probeChain(ar, params, next, ht[pkeys[id]], int32(pi), mp, mb)
		}
	default:
		ht := &ar.htN
		ht.reset(len(buildVec))
		keys, pkeys := buildKey.Nums, probeKey.Nums
		for i := len(buildVec) - 1; i >= 0; i-- {
			ht.insert(keys[buildVec[i]], int32(i), next)
		}
		if probeSet != nil {
			pi := int32(0)
			for w, x := range probeSet {
				for ; x != 0; x &= x - 1 {
					mp, mb = n.probeChain(ar, params, next, ht.lookup(pkeys[w<<6+bits.TrailingZeros64(x)]), pi, mp, mb)
					pi++
				}
			}
			break
		}
		for pi, id := range probeVec {
			mp, mb = n.probeChain(ar, params, next, ht.lookup(pkeys[id]), int32(pi), mp, mb)
		}
	}
	if n.buildLeft {
		mp, mb = mb, mp
	}
	ar.matchL, ar.matchR = mp, mb
}

// probeOnce is the addressed-once probe with no residual filter. At most one
// build tuple matches a probe tuple, so it stores the (probe, build) pair
// unconditionally and advances only on a hit: nothing branches on the data
// but the bounds check, which a foreign key never fails. The probe tuples are
// vec's, or set's rows when set is non-nil; it returns the pair count. It is
// a function of its own, and mb is resliced to mp's length so that one bounds
// check covers both stores: that keeps the loops' counters in registers.
func probeOnce(head []int32, lo int, pkeys []float64, vec []int32, set []uint64, mp, mb []int32) int {
	m := 0
	mb = mb[:len(mp)]
	if set != nil {
		pi := int32(0)
		for w, x := range set {
			for ; x != 0; x &= x - 1 {
				b := at(head, pkeys[w<<6+bits.TrailingZeros64(x)], lo)
				mp[m], mb[m] = pi, b-1
				m += b2i(b != 0)
				pi++
			}
		}
		return m
	}
	for pi, id := range vec {
		b := at(head, pkeys[id], lo)
		mp[m], mb[m] = int32(pi), b-1
		m += b2i(b != 0)
	}
	return m
}

// countable is the Exec-time half of a counted join (cNode.counted): ANDing
// the probe bitmap with every build tuple's key bitmap costs build × words
// word operations, where the pair path costs a probe step per probe tuple
// and a gather and a group lookup per match. It counts by bitmap while the
// words are at most countedWordsPerProbe per probe tuple.
func countable(build, words, probes int) bool {
	return build*words <= countedWordsPerProbe*probes
}

// countByBitmap is the counted join's kernel. The probe tuples holding build
// tuple b's key are the bits of set AND that key's equality bitmap, so their
// popcount is b's multiplicity and the lowest set bit its first match. It
// writes the build tuples that match to tup in first-match order — the order
// their first pairs come in on the pair path, as build keys are unique — with
// their first match's probe row in first and their multiplicity in mult, and
// returns how many match and the sum of their multiplicities, the number of
// pairs the pair path records.
func countByBitmap(eq *eqBits, set []uint64, build []int32, bkeys []float64, first, tup, mult []int32) (m, pairs int) {
	for b, id := range build {
		bm := eq.of(bkeys[id])
		if bm == nil {
			continue
		}
		bm = bm[:len(set)]
		w := 0
		for w < len(set) && set[w]&bm[w] == 0 {
			w++
		}
		if w == len(set) {
			continue
		}
		f := int32(w<<6 + bits.TrailingZeros64(set[w]&bm[w]))
		c := 0
		for ; w < len(set); w++ {
			c += bits.OnesCount64(set[w] & bm[w])
		}
		// An insertion: at most maxEqKeys build tuples match.
		j := m
		for ; j > 0 && first[j-1] > f; j-- {
			first[j], tup[j], mult[j] = first[j-1], tup[j-1], mult[j-1]
		}
		first[j], tup[j], mult[j] = f, int32(b), int32(c)
		m++
		pairs += c
	}
	return m, pairs
}

// at returns the entry of a direct table from lo (see Arena.dirA) for key v,
// 0 when v falls outside it.
func at(head []int32, v float64, lo int) int32 {
	if k := uint(int(v) - lo); k < uint(len(head)) {
		return head[k]
	}
	return 0
}

// probeChain appends probe tuple pi's matches along the build chain from b
// (1 + a build tuple, 0 at the end), dropping those the residual join
// filters reject; a count-only join counts them instead.
func (n *cNode) probeChain(ar *Arena, params []float64, next []int32, b, pi int32, mp, mb []int32) ([]int32, []int32) {
	for ; b != 0; b = next[b-1] {
		li, ri := pi, b-1
		if n.buildLeft {
			li, ri = ri, li
		}
		switch {
		case len(n.joinFilters) > 0 && !n.evalJoinFilters(ar, params, li, ri):
		case n.countOnly:
			ar.nrows[n.ord]++
		default:
			mp, mb = append(mp, pi), append(mb, b-1)
		}
	}
	return mp, mb
}

// countByKey is a count-only addressed join with no residual filter: it
// counts the tuples of a per key into cnt (a direct table from lo, see
// Arena.dirA), then sums the counts the keys of b address — the rows of bset
// instead when it is non-nil (a streamed probe side). The sum is the number
// of pairs the join would record; no chain and no pair is built.
func countByKey(cnt, a []int32, akeys []float64, b []int32, bset []uint64, bkeys []float64, lo int) int {
	clear(cnt)
	for _, id := range a {
		if k := uint(int(akeys[id]) - lo); k < uint(len(cnt)) {
			cnt[k]++
		}
	}
	m := 0
	if bset != nil {
		for w, x := range bset {
			for ; x != 0; x &= x - 1 {
				m += int(at(cnt, bkeys[w<<6+bits.TrailingZeros64(x)], lo))
			}
		}
		return m
	}
	for _, id := range b {
		m += int(at(cnt, bkeys[id], lo))
	}
	return m
}

func (n *cNode) runMergeJoin(ar *Arena, params []float64) {
	lvec, rvec := ar.vecs[n.leftSlot], ar.vecs[n.rightSlot]
	if n.kernel != kernGeneric && addressable(n.keySpan, len(lvec)+len(rvec)) {
		// Dense integer keys: chain both inputs by key and walk the span in
		// key order. Each chain is in input order, so the pairs come out as
		// the stable sorts below would order them, and nothing is sorted.
		filtered := len(n.joinFilters) > 0
		ar.dirA = sized(ar.dirA, n.keySpan)
		if n.countOnly && !filtered {
			ar.nrows[n.ord] = countByKey(ar.dirA, lvec, n.leftKey.Nums, rvec, nil, n.rightKey.Nums, n.keyLo)
			return
		}
		ar.nextA = sized(ar.nextA, len(lvec))
		ar.dirB, ar.nextB = sized(ar.dirB, n.keySpan), sized(ar.nextB, len(rvec))
		nextL, headR, nextR := ar.nextA, ar.dirB, ar.nextB
		chainByKey(ar.dirA, nextL, lvec, n.leftKey.Nums, n.keyLo)
		chainByKey(headR, nextR, rvec, n.rightKey.Nums, n.keyLo)
		ml, mr := ar.matchL, ar.matchR
		for k, l := range ar.dirA {
			if headR[k] == 0 {
				continue
			}
			for ; l != 0; l = nextL[l-1] {
				for r := headR[k]; r != 0; r = nextR[r-1] {
					switch {
					case filtered && !n.evalJoinFilters(ar, params, l-1, r-1):
					case n.countOnly:
						ar.nrows[n.ord]++
					default:
						ml, mr = append(ml, l-1), append(mr, r-1)
					}
				}
			}
		}
		ar.matchL, ar.matchR = ml, mr
		return
	}
	ar.permA, ar.keysA = permKeys(ar.permA, ar.keysA, len(lvec))
	ar.permB, ar.keysB = permKeys(ar.permB, ar.keysB, len(rvec))
	for i, id := range lvec {
		ar.keysA[i] = n.leftKey.Nums[id]
	}
	for i, id := range rvec {
		ar.keysB[i] = n.rightKey.Nums[id]
	}
	// Stable sorts yield the same permutation the row engine's
	// sort.SliceStable produces, so equal-key run order is identical.
	ar.stableSortPerm(ar.permA, ar.keysA)
	ar.stableSortPerm(ar.permB, ar.keysB)
	permA, permB, keysA, keysB := ar.permA, ar.permB, ar.keysA, ar.keysB
	i, j := 0, 0
	for i < len(permA) && j < len(permB) {
		lv, rv := keysA[permA[i]], keysB[permB[j]]
		switch {
		case lv < rv:
			i++
		case lv > rv:
			j++
		case lv != rv:
			// A NaN key joins nothing; step past it, as the row engine does.
			if math.IsNaN(lv) {
				i++
			} else {
				j++
			}
		default:
			jEnd := j
			for jEnd < len(permB) && keysB[permB[jEnd]] == lv {
				jEnd++
			}
			for ; i < len(permA) && keysA[permA[i]] == lv; i++ {
				for k := j; k < jEnd; k++ {
					n.match(ar, params, permA[i], permB[k])
				}
			}
			j = jEnd
		}
	}
}

func (n *cNode) runIndexNLJoin(ar *Arena, params []float64) {
	lvec := ar.vecs[n.leftSlot]
	keys := n.leftKey.Nums
	// The inner relation's range filters are one bitmap for the whole run,
	// and one bit test per candidate row however many they are.
	var set []uint64
	if len(n.ranges) > 0 {
		set = ar.rangeSet(n.ranges, params, n.table.NumRows())
	}
	for li := range lvec {
		v := keys[lvec[li]]
		// The rows holding key v: two loads from the index's key directory
		// when the keys are dense integers, two binary searches otherwise.
		var rows []int32
		if n.kernel == kernGeneric {
			rows = n.index.RangeRows(v, v)
		} else if k := uint(int(v) - n.keyLo); k < uint(len(n.dir)-1) {
			rows = n.index.Rows[n.dir[k]:n.dir[k+1]]
		}
		for _, ri := range rows {
			ok := set == nil || set[ri>>6]>>(ri&63)&1 != 0
			for fi := 0; ok && fi < len(n.innerFilters); fi++ {
				ok = n.innerFilters[fi].testRow(params, ri)
			}
			if ok {
				n.match(ar, params, int32(li), ri)
			}
		}
	}
}

func (n *cNode) runNLJoin(ar *Arena, params []float64) {
	nl, nr := ar.nrows[n.left.ord], ar.nrows[n.right.ord]
	for li := int32(0); li < int32(nl); li++ {
		for ri := int32(0); ri < int32(nr); ri++ {
			n.match(ar, params, li, ri)
		}
	}
}

// materialize builds the final Result for a non-aggregating plan: one
// backing Value array plus the Row headers.
func (cp *CompiledPlan) materialize(ar *Arena) *Result {
	nt := ar.nrows[cp.root.ord]
	if nt == 0 {
		return &Result{Schema: cp.schema}
	}
	width := len(cp.schema)
	backing := make([]Value, nt*width)
	rows := make([]Row, nt)
	for t := 0; t < nt; t++ {
		row := backing[t*width : (t+1)*width : (t+1)*width]
		for x := range cp.outCols {
			cs := &cp.outCols[x]
			id := ar.vecs[cs.slot][t]
			if cs.col.Kind == tpch.KindString {
				row[x] = Value{Str: cs.col.Strs[id], IsStr: true}
			} else {
				row[x] = Value{Num: cs.col.Nums[id]}
			}
		}
		rows[t] = row
	}
	return &Result{Schema: cp.schema, Rows: rows}
}

// materializeAgg aggregates the root's tuples and materializes the
// aggregate rows, replicating the row engine's grouping (first-seen order,
// bit-equal keys) and accumulation (identical float addition order) so
// results stay bit-identical. Tuples are first assigned dense group ids,
// then every aggregate that reads an accumulator makes one pass over its
// input column; COUNT needs only the per-group tuple counts.
func (cp *CompiledPlan) materializeAgg(ar *Arena) *Result {
	agg := cp.agg
	nK := len(agg.groupCols)
	gids := agg.assignGroups(ar, ar.nrows[cp.root.ord])
	ng := len(ar.counts)

	width := len(agg.outSchema)
	backing := make([]Value, ng*width)
	rows := make([]Row, ng)
	for g := range rows {
		rows[g] = backing[g*width : (g+1)*width : (g+1)*width]
		copy(rows[g], ar.groupKeys[g*nK:(g+1)*nK])
	}
	for s := range agg.specs {
		sp := &agg.specs[s]
		acc := ar.counts
		switch {
		case sp.fn == optimizer.AggCount:
		case cp.root.streamed:
			// One group, over the scan's bitmap.
			ar.acc = append(ar.acc[:0], sp.foldSet(sp.col.Nums, ar.sets[sp.slot]))
			acc = ar.acc
		default:
			acc = sp.accumulate(ar, gids, ng)
		}
		for g, v := range acc {
			// A global aggregate over zero rows averages to its sum, 0, not
			// to 0/0.
			if sp.fn == optimizer.AggAvg && ar.counts[g] > 0 {
				v /= ar.counts[g]
			}
			rows[g][nK+s] = Value{Num: v}
		}
	}
	return &Result{Schema: agg.outSchema, Rows: rows}
}

// assignGroups counts the tuples of every group into ar.counts, records the
// first-seen group keys, and returns each tuple's dense group id. A plan
// with no GROUP BY looks nothing up and returns no ids: every tuple is in
// group 0, which exists even over zero tuples. The tuples of a join that
// counted by bitmap are its matched build tuples, each standing for its
// multiplicity (Arena.mult) of the nt matches, in first-match order: each
// group counts their multiplicities, and the groups, in first-seen order,
// are those of the pairs.
func (a *cAgg) assignGroups(ar *Arena, nt int) []int32 {
	if len(ar.mult) == 0 {
		return a.group(ar, nt)
	}
	gids := a.group(ar, len(ar.mult))
	clear(ar.counts)
	for t, m := range ar.mult {
		g := int32(0)
		if gids != nil {
			g = gids[t]
		}
		ar.counts[g] += float64(m)
	}
	return gids
}

// group is assignGroups over nt tuples of one match each.
func (a *cAgg) group(ar *Arena, nt int) []int32 {
	ar.groupKeys = ar.groupKeys[:0]
	if len(a.groupCols) == 0 {
		ar.counts = append(ar.counts[:0], float64(nt))
		return nil
	}
	ar.gids = sized(ar.gids, nt)
	gids := ar.gids
	ar.counts = ar.counts[:0]
	if a.kernel != kernGeneric && addressable(a.keySpan, nt) {
		// Dense integer keys: dirA holds 1 + the key's group id. Whole numbers
		// other than -0 are bit-equal exactly when they are equal, so these
		// are the groups, in the first-seen order, of the path below.
		gc := &a.groupCols[0]
		nums, lo := gc.col.Nums, a.keyLo
		ar.dirA = sized(ar.dirA, a.keySpan)
		dir := ar.dirA
		clear(dir)
		for t, id := range ar.vecs[gc.slot] {
			k := int(nums[id]) - lo
			g := dir[k]
			if g == 0 {
				ar.groupKeys = append(ar.groupKeys, Value{Num: nums[id]})
				ar.counts = append(ar.counts, 0)
				g = int32(len(ar.counts))
				dir[k] = g
			}
			ar.counts[g-1]++
			gids[t] = g - 1
		}
		return gids
	}
	clear(ar.groups)
	for t := range gids {
		kb := ar.keyBuf[:0]
		for gi := range a.groupCols {
			gc := &a.groupCols[gi]
			id := ar.vecs[gc.slot][t]
			if gc.col.Kind == tpch.KindString {
				kb = append(kb, gc.col.Strs[id]...)
			} else {
				kb = appendFloat(kb, gc.col.Nums[id])
			}
			kb = append(kb, 0)
		}
		ar.keyBuf = kb
		g, ok := ar.groups[string(kb)]
		if !ok {
			g = int32(len(ar.counts))
			ar.groups[string(kb)] = g
			for gi := range a.groupCols {
				gc := &a.groupCols[gi]
				id := ar.vecs[gc.slot][t]
				if gc.col.Kind == tpch.KindString {
					ar.groupKeys = append(ar.groupKeys, Value{Str: gc.col.Strs[id], IsStr: true})
				} else {
					ar.groupKeys = append(ar.groupKeys, Value{Num: gc.col.Nums[id]})
				}
			}
			ar.counts = append(ar.counts, 0)
		}
		ar.counts[g]++
		gids[t] = g
	}
	return gids
}

// accumulate folds the aggregate's input column into one accumulator per
// group, in tuple order, and returns them (valid until the next call).
func (sp *aggColSpec) accumulate(ar *Arena, gids []int32, ng int) []float64 {
	ar.acc = sized(ar.acc, ng)
	acc, nums, vec := ar.acc, sp.col.Nums, ar.vecs[sp.slot]
	if ng == 1 {
		// One group, as every global aggregate has (with no gids): the fold
		// stays in a register instead of going through memory on every tuple.
		acc[0] = sp.fold(nums, vec)
		return acc
	}
	switch sp.fn {
	case optimizer.AggSum, optimizer.AggAvg:
		clear(acc)
		for t, id := range vec {
			acc[gids[t]] += nums[id]
		}
	case optimizer.AggMin:
		for g := range acc {
			acc[g] = math.Inf(1)
		}
		for t, id := range vec {
			if v := nums[id]; v < acc[gids[t]] {
				acc[gids[t]] = v
			}
		}
	case optimizer.AggMax:
		for g := range acc {
			acc[g] = math.Inf(-1)
		}
		for t, id := range vec {
			if v := nums[id]; v > acc[gids[t]] {
				acc[gids[t]] = v
			}
		}
	}
	return acc
}

// fold is accumulate's one group: the column folded over every tuple.
func (sp *aggColSpec) fold(nums []float64, vec []int32) float64 {
	switch sp.fn {
	case optimizer.AggMin:
		m := math.Inf(1)
		for _, id := range vec {
			if v := nums[id]; v < m {
				m = v
			}
		}
		return m
	case optimizer.AggMax:
		m := math.Inf(-1)
		for _, id := range vec {
			if v := nums[id]; v > m {
				m = v
			}
		}
		return m
	}
	sum := 0.0
	for _, id := range vec {
		sum += nums[id]
	}
	return sum
}

// foldSet is fold over the rows of a bitmap, walked in ascending order — the
// order extract writes them in, so the sum adds in the same order.
func (sp *aggColSpec) foldSet(nums []float64, set []uint64) float64 {
	switch sp.fn {
	case optimizer.AggMin:
		m := math.Inf(1)
		for w, x := range set {
			for ; x != 0; x &= x - 1 {
				if v := nums[w<<6+bits.TrailingZeros64(x)]; v < m {
					m = v
				}
			}
		}
		return m
	case optimizer.AggMax:
		m := math.Inf(-1)
		for w, x := range set {
			for ; x != 0; x &= x - 1 {
				if v := nums[w<<6+bits.TrailingZeros64(x)]; v > m {
					m = v
				}
			}
		}
		return m
	}
	sum := 0.0
	for w, x := range set {
		for ; x != 0; x &= x - 1 {
			sum += nums[w<<6+bits.TrailingZeros64(x)]
		}
	}
	return sum
}
