package executor

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/optimizer"
	"repro/internal/queries"
	"repro/internal/tpch"
)

// eachScan calls f for every scan of a compiled tree, and says whether a
// sort-based merge join is above it.
func eachScan(n *cNode, underSort bool, f func(scan *cNode, underSort bool)) {
	if n.left == nil {
		f(n, underSort)
		return
	}
	underSort = underSort || n.op == optimizer.OpMergeJoin && n.kernel == kernGeneric
	eachScan(n.left, underSort, f)
	if n.right != nil {
		eachScan(n.right, underSort, f)
	}
}

// within reports whether the non-empty s lies in the backing array of base.
func within(s, base []int32) bool {
	base = base[:cap(base)]
	for i := range base {
		if &base[i] == &s[0] {
			return i+len(s) <= len(base)
		}
	}
	return false
}

// TestUnorderedRunMatchesBitmap holds the run an unordered scan reads its rows
// off (cPred.run) to the bitmap an ordered one extracts, as a set of rows, and
// both to cPred.testRow:
// every comparison and BETWEEN, literal and parameter-bound, at a NaN bound,
// at ±Inf, below and above the domain and at every distinct value, over
// columns of few repeating values — with NaN rows, with both zeros, with both
// infinities — on bitmaps that alias an ordered index and on ones that sorted
// the column themselves. A BETWEEN over a column with NaN rows passes them,
// and no run holds them: it must be refused as a run.
func TestUnorderedRunMatchesBitmap(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	negZero, nan, inf := math.Copysign(0, -1), math.NaN(), math.Inf(1)
	const n = 300
	ar := &Arena{}
	for _, dom := range []struct {
		name   string
		values []float64
	}{
		{"duplicates", []float64{1, 2, 2.5, 3, 7}},
		{"NaN rows", []float64{nan, 1, 2, 3}},
		{"both zeros", []float64{negZero, 0, -1, 1}},
		{"both infinities", []float64{-inf, inf, -1, 0, 1}},
	} {
		col := &tpch.Column{Name: "v", Kind: tpch.KindNumeric, Nums: make([]float64, n)}
		for i := range col.Nums {
			col.Nums[i] = dom.values[rng.Intn(len(dom.values))]
		}
		hasNaN := slices.ContainsFunc(col.Nums, math.IsNaN)
		tbl := tpch.NewTable("t", col)
		if err := tbl.BuildIndex(col.Name); err != nil {
			t.Fatal(err)
		}
		ix := tbl.Indexes[col.Name]
		bounds := []float64{nan, -inf, inf, -100, 100}
		for _, v := range dom.values {
			if v == v {
				bounds = append(bounds, v)
			}
		}
		var preds []cPred
		for _, op := range []optimizer.CmpOp{optimizer.OpLT, optimizer.OpLE, optimizer.OpGT, optimizer.OpGE} {
			for _, v := range bounds {
				preds = append(preds,
					cPred{kind: optimizer.PredCmpNum, op: op, value: v, paramIdx: -1, col: col},
					cPred{kind: optimizer.PredCmpNum, op: op, value: v, paramIdx: 0, col: col})
			}
		}
		for _, lo := range bounds {
			for _, hi := range bounds {
				preds = append(preds, cPred{kind: optimizer.PredBetween, lo: lo, hi: hi, col: col})
			}
		}
		for _, rb := range []*rangeBits{newRangeBits(col.Nums, ix), newRangeBits(col.Nums, nil)} {
			aliased := &rb.rows[0] == &ix.Rows[0]
			refused := 0
			for pi := range preds {
				p := preds[pi]
				p.bindRange(rb)
				params := []float64{p.value}
				label := fmt.Sprintf("%s (index aliased %v): pred %d (kind %d op %d value %v lo %v hi %v)", dom.name, aliased, pi, p.kind, p.op, p.value, p.lo, p.hi)
				if want := p.kind != optimizer.PredBetween || !hasNaN; p.isRun() != want {
					t.Fatalf("%s: isRun = %v, want %v", label, p.isRun(), want)
				}
				if !p.isRun() {
					refused++
					continue
				}
				run := p.run(params)
				if len(run) > 0 && !within(run, rb.rows) {
					t.Fatalf("%s: the run is not a slice of the bitmaps' row ids", label)
				}
				got := slices.Clone(run)
				slices.Sort(got)
				want := make([]int32, n)
				want = want[:extract(ar.rangeSet([]cPred{p}, params, n), want)]
				if !slices.Equal(got, want) {
					t.Fatalf("%s: the run holds %d rows, the bitmap %d (first difference at %d)", label, len(got), len(want), firstDiff(got, want))
				}
				// And both are the rows the predicate, bounds as written, passes.
				want = want[:0]
				for id := int32(0); id < n; id++ {
					if preds[pi].testRow(params, id) {
						want = append(want, id)
					}
				}
				if !slices.Equal(got, want) {
					t.Fatalf("%s: the run holds %d rows, testRow passes %d (first difference at %d)", label, len(got), len(want), firstDiff(got, want))
				}
			}
			if hasNaN && refused == 0 {
				t.Errorf("%s: no BETWEEN over the NaN-holding column was refused as a run", dom.name)
			}
		}
	}
}

// TestScanOrderLivenessOfStandardTemplates pins which standard templates read
// their scans' rows off the runs: every scan of Q3, Q5 and Q8 — a bare
// COUNT(*) — is unordered unless a sort-based merge join is above it, and
// every scan of the others — a SUM, an AVG, a GROUP BY — stays ordered, at
// every plan the optimizer picks over a seeded grid. A template or aggregate
// rule that changes this changes which workloads take the run.
func TestScanOrderLivenessOfStandardTemplates(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	ex := New(testDB)
	for _, d := range queries.Defs {
		tm, err := queries.ByName(d.Name)
		if err != nil {
			t.Fatal(err)
		}
		countsOnly := d.Name == "Q3" || d.Name == "Q5" || d.Name == "Q8"
		plans, runs := map[string]bool{}, 0
		for trial := 0; trial < 24; trial++ {
			point := make([]float64, tm.Degree())
			for j := range point {
				point[j] = 0.05 + 0.9*rng.Float64()
			}
			inst, err := opt.InstanceAt(tm, point)
			if err != nil {
				t.Fatal(err)
			}
			plan, err := opt.OptimizeInstance(inst)
			if err != nil {
				t.Fatal(err)
			}
			cp, err := ex.Compile(plan, tm.Query)
			if err != nil {
				t.Fatal(err)
			}
			plans[plan.Fingerprint] = true
			eachScan(cp.root, false, func(s *cNode, underSort bool) {
				if want := countsOnly && !underSort; s.unordered != want {
					t.Errorf("%s at %v: scan of %s is unordered = %v, want %v\n%s", d.Name, point, s.rels[0].alias, s.unordered, want, plan)
				}
				if s.fromRun {
					runs++
				}
			})
		}
		t.Logf("%s: %d distinct plans, %d scans reading a run", d.Name, len(plans), runs)
	}
}

// TestUnorderedScanBuildsNoBitmap: under Q3's bare COUNT(*) every scan's
// vector is rows that already exist. A sequential scan of one range filter
// takes the run of its column's row ids, an index scan with no residual
// filter the index's range, in place: after warmed ExecObserves of every
// distinct plan the optimizer picks over a seeded grid, each such slot lies in
// that array, an execution allocates its result and nothing else, and a plan
// without an index-nested-loop join — whose inner range filters still build
// the bitmap — has never sized the arena's bitmap at all.
func TestUnorderedScanBuildsNoBitmap(t *testing.T) {
	tm, err := queries.ByName("Q3")
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(31))
	ex := New(testDB)
	seen := map[string]bool{}
	aliased := 0
	for trial := 0; trial < 60; trial++ {
		point := make([]float64, tm.Degree())
		for j := range point {
			point[j] = 0.1 + 0.8*rng.Float64()
		}
		inst, err := opt.InstanceAt(tm, point)
		if err != nil {
			t.Fatal(err)
		}
		plan, err := opt.OptimizeInstance(inst)
		if err != nil {
			t.Fatal(err)
		}
		if seen[plan.Fingerprint] {
			continue
		}
		seen[plan.Fingerprint] = true
		cp, err := ex.Compile(plan, tm.Query)
		if err != nil {
			t.Fatal(err)
		}
		// Every execution checks out this one arena.
		ar := newArena(cp)
		cp.pool.New = func() any { return ar }
		var obs []CardObservation
		exec := func() {
			obs = obs[:0]
			if res, err := cp.ExecObserve(inst.Values, &obs); err != nil || len(res.Rows) != 1 {
				t.Fatalf("%s: %v rows, err %v", plan.Fingerprint, res, err)
			}
		}
		exec()
		exec()
		if !raceEnabled {
			if allocs := testing.AllocsPerRun(50, exec); allocs > 3 {
				t.Errorf("%s: %v allocations per warmed ExecObserve, want at most the result's 3", plan.Fingerprint, allocs)
			}
		}
		inl := false
		for n := cp.root; n.left != nil; n = n.left {
			inl = inl || n.op == optimizer.OpIndexNLJoin
		}
		eachScan(cp.root, false, func(s *cNode, underSort bool) {
			label := fmt.Sprintf("%s: scan of %s", plan.Fingerprint, s.rels[0].alias)
			var base []int32
			switch {
			case s.op == optimizer.OpSeqScan && s.unordered && len(s.ranges) == 1 && len(s.filters) == 0:
				if !s.fromRun {
					t.Fatalf("%s: an unordered scan of one range filter does not read its run", label)
				}
				base = s.ranges[0].rb.rows
			case s.op == optimizer.OpIndexScan && len(s.ranges) == 0 && len(s.filters) == 0:
				base = s.index.Rows
			default:
				return
			}
			if vec := ar.vecs[s.slots[0]]; len(vec) > 0 {
				if !within(vec, base) {
					t.Errorf("%s: the slot's vector is a copy, not the rows it was read off", label)
				}
				aliased++
			}
		})
		if !inl && cap(ar.bits) != 0 {
			t.Errorf("%s: the arena's bitmap has capacity %d; want none built", plan.Fingerprint, cap(ar.bits))
		}
		t.Logf("%s at %v", plan.Fingerprint, point)
	}
	if aliased == 0 {
		t.Fatal("no scan slot was checked")
	}
}

// TestOrderedScanWritesNoVector: a sequential scan whose one reader reads its
// rows once, in ascending order — Q0's global aggregate, Q1's hash-join probe
// — hands that reader its range bitmap. Over the plans the optimizer picks for
// Q0 and Q1 on a seeded grid, every plan with such a scan runs warmed through
// ExecObserve: the scan's slot vector is never written, the result and the
// observed cardinalities are those of the same plan compiled to extract every
// scan, and an execution allocates its result and nothing else.
func TestOrderedScanWritesNoVector(t *testing.T) {
	ex := New(testDB)
	for _, name := range []string{"Q0", "Q1"} {
		tm, err := queries.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(38))
		seen := map[string]bool{}
		streamedPlans := 0
		for trial := 0; trial < 40; trial++ {
			point := make([]float64, tm.Degree())
			for j := range point {
				point[j] = 0.05 + 0.9*rng.Float64()
			}
			inst, err := opt.InstanceAt(tm, point)
			if err != nil {
				t.Fatal(err)
			}
			plan, err := opt.OptimizeInstance(inst)
			if err != nil {
				t.Fatal(err)
			}
			if seen[plan.Fingerprint] {
				continue
			}
			seen[plan.Fingerprint] = true
			cp, err := ex.Compile(plan, tm.Query)
			if err != nil {
				t.Fatal(err)
			}
			var streamed []*cNode
			eachScan(cp.root, false, func(s *cNode, _ bool) {
				if s.streamed {
					streamed = append(streamed, s)
				}
			})
			if len(streamed) == 0 {
				continue
			}
			streamedPlans++
			label := fmt.Sprintf("%s %s at %v", name, plan.Fingerprint, point)
			// Every execution checks out this one arena.
			ar := newArena(cp)
			cp.pool.New = func() any { return ar }
			var obs []CardObservation
			var got *Result
			exec := func() {
				obs = obs[:0]
				if got, err = cp.ExecObserve(inst.Values, &obs); err != nil {
					t.Fatalf("%s: %v", label, err)
				}
			}
			exec()
			exec()
			if !raceEnabled {
				if allocs := testing.AllocsPerRun(50, exec); allocs > 3 {
					t.Errorf("%s: %v allocations per warmed ExecObserve, want at most the result's 3", label, allocs)
				}
			}
			for _, s := range streamed {
				if vec := ar.vecs[s.slots[0]]; cap(vec) != 0 {
					t.Errorf("%s: the streamed scan of %s wrote a vector of capacity %d", label, s.rels[0].alias, cap(vec))
				}
			}
			extracting, err := ex.Compile(plan, tm.Query)
			if err != nil {
				t.Fatal(err)
			}
			eachScan(extracting.root, false, func(s *cNode, _ bool) { s.streamed = false })
			var want []CardObservation
			res, err := extracting.ExecObserve(inst.Values, &want)
			if err != nil {
				t.Fatal(err)
			}
			assertBitIdentical(t, label, res, got)
			assertSameCards(t, label, obs, want)
			t.Logf("%s: %d streamed scan(s)", label, len(streamed))
		}
		if streamedPlans == 0 {
			t.Errorf("%s: no plan on the grid streams a scan", name)
		}
	}
}
