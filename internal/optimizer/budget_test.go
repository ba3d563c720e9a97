package optimizer_test

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/catalog"
	"repro/internal/optimizer"
	"repro/internal/queries"
	"repro/internal/tpch"
)

// missBench is the miss-path benchmark fixture: a scale-1000 database (the
// benchmark harness's size) and, per template, a memo and 512 seeded
// uniform plan-space points realised as parameter values.
type missBench struct {
	opt    *optimizer.Optimizer
	memo   *optimizer.Memo
	values [][]float64
}

var missBenchDB = sync.OnceValue(func() *optimizer.Optimizer {
	db := tpch.MustGenerate(tpch.Config{Scale: 1000, Seed: 1})
	return optimizer.New(db, catalog.MustBuild(db, 0))
})

func newMissBench(tb testing.TB, name string) missBench {
	tb.Helper()
	o := missBenchDB()
	tm, err := queries.ByName(name)
	if err != nil {
		tb.Fatal(err)
	}
	memo, err := o.NewMemo(tm.Query)
	if err != nil {
		tb.Fatal(err)
	}
	values := make([][]float64, 512)
	for i, point := range diffPoints(rand.New(rand.NewSource(17)), tm.Degree(), len(values))[:len(values)] {
		inst, err := o.InstanceAt(tm, point)
		if err != nil {
			tb.Fatal(err)
		}
		values[i] = inst.Values
	}
	return missBench{opt: o, memo: memo, values: values}
}

var benchPlan *optimizer.Plan

// BenchmarkOptimizeMemo times one OptimizeMemo call on the templates the
// miss_optimize workload runs (plus Q1, the two-relation case), and, as
// <template>/held, one OptimizeMemoHeld call whose caller holds every
// winner: the enumeration and the winner's name without its tree, what a
// miss pays for a plan the cache already has.
func BenchmarkOptimizeMemo(b *testing.B) {
	held := func(string) bool { return true }
	for _, name := range []string{"Q1", "Q3", "Q4", "Q8"} {
		for _, h := range []func(string) bool{nil, held} {
			sub := name
			if h != nil {
				sub += "/held"
			}
			b.Run(sub, func(b *testing.B) {
				mb := newMissBench(b, name)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					plan, err := mb.opt.OptimizeMemoHeld(mb.memo, mb.values[i%len(mb.values)], h)
					if err != nil {
						b.Fatal(err)
					}
					benchPlan = plan
				}
			})
		}
	}
}

// TestOptimizeMemoAllocBudget holds the miss path to what a plan needs:
// built, the winner's node array, its predicate array and the Plan; held,
// the Plan alone (the winner's fingerprint is the shape's, rendered once
// per distinct winner) — and nothing per candidate considered. Each budget
// is one allocation above the 3 and 1 measured; the node-building
// enumerator spent 939 allocations per Q3 call and 4,692 per Q8 call.
func TestOptimizeMemoAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector's shadow memory inflates allocation counts")
	}
	held := func(string) bool { return true }
	for _, name := range []string{"Q3", "Q4", "Q8"} {
		mb := newMissBench(t, name)
		for _, c := range []struct {
			kind   string
			held   func(string) bool
			budget float64
		}{{"built", nil, 4}, {"held", held, 2}} {
			i := 0
			allocs := testing.AllocsPerRun(200, func() {
				if _, err := mb.opt.OptimizeMemoHeld(mb.memo, mb.values[i%len(mb.values)], c.held); err != nil {
					t.Fatal(err)
				}
				i++
			})
			t.Logf("%s %s: %.2f allocs per OptimizeMemoHeld (budget %.0f)", name, c.kind, allocs, c.budget)
			if allocs > c.budget {
				t.Errorf("%s %s: %.2f allocs per OptimizeMemoHeld, budget %.0f", name, c.kind, allocs, c.budget)
			}
		}
	}
}
