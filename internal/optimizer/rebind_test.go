package optimizer_test

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/optimizer"
	"repro/internal/queries"
	"repro/internal/stats"
)

// TestRebindProgramMatchesRecost verifies the O(params) rebind program
// returns bit-identical costs to the clone-and-rebind Recost for every
// standard-template plan across fuzzed parameter points.
func TestRebindProgramMatchesRecost(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	for _, d := range queries.Defs {
		tm := tmpl(t, d.Name)
		q := tm.Query
		for trial := 0; trial < 10; trial++ {
			inst := instAt(t, tm, randPoint(rng, tm.Degree()))
			plan, err := opt.Optimize(q, inst.Values)
			if err != nil {
				t.Fatal(err)
			}
			rp, err := opt.CompileRebind(q, plan)
			if err != nil {
				t.Fatalf("%s: CompileRebind: %v", d.Name, err)
			}
			for probe := 0; probe < 10; probe++ {
				next := instAt(t, tm, randPoint(rng, tm.Degree())).Values
				want, err := opt.Recost(q, plan, next)
				if err != nil {
					t.Fatal(err)
				}
				got, err := rp.Recost(opt, next)
				if err != nil {
					t.Fatalf("%s: rebind Recost: %v", d.Name, err)
				}
				if got != want.Cost {
					t.Fatalf("%s: rebind cost %v != Recost cost %v (params %v)", d.Name, got, want.Cost, next)
				}
			}
		}
	}
}

// TestRebindProgramRejectsForeignPlan verifies a plan whose filters
// reference parameters beyond the query's degree is rejected at compile
// time, mirroring Recost's per-call foreign-plan check.
func TestRebindProgramRejectsForeignPlan(t *testing.T) {
	wide := tmpl(t, "Q8") // degree 6
	narrow := tmpl(t, "Q0")
	plan, err := opt.Optimize(wide.Query, midValues(t, wide))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := opt.CompileRebind(narrow.Query, plan); err == nil {
		t.Fatal("foreign plan accepted")
	}
}

func randPoint(rng *rand.Rand, dims int) []float64 {
	p := make([]float64, dims)
	for i := range p {
		p[i] = rng.Float64()
	}
	return p
}

func instAt(t *testing.T, tm *optimizer.Template, point []float64) optimizer.Instance {
	t.Helper()
	inst, err := opt.InstanceAt(tm, point)
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

// TestRecostMatchesReference holds the one cost walk over bound handles —
// Recost (whole tree: every node's rows, cost, literals and bounds) and
// RebindProgram.Recost (the cost) — to the string-keyed walk it replaced,
// bit for bit, for every standard-template plan at fuzzed points: through
// the base provider, through a distorting one (selectivities and distinct
// counts), and through the distorting one with corrections on the query
// whose factors keep moving under the compiled programs.
func TestRecostMatchesReference(t *testing.T) {
	distorted := &stats.Distorted{
		Provider:   stats.NewBase(testCat),
		Sel:        func(_, col string, sel float64) float64 { return sel * (1 + float64(len(col)%3)) },
		DistinctFn: func(_, col string, d float64) float64 { return d / (1 + float64(len(col)%2)) },
	}
	for _, tc := range []struct {
		name    string
		o       *optimizer.Optimizer
		correct bool
	}{
		{"base", opt, false},
		{"distorted", opt.WithStats(distorted), false},
		{"correcting", opt.WithStats(distorted), true},
	} {
		rng := rand.New(rand.NewSource(35))
		for _, d := range queries.Defs {
			tm := tmpl(t, d.Name)
			q := tm.Query
			if tc.correct {
				q.Corr = stats.NewCorrections(len(q.Preds), stats.CorrConfig{})
			}
			for trial := 0; trial < 10; trial++ {
				plan, err := tc.o.Optimize(q, instAt(t, tm, randPoint(rng, tm.Degree())).Values)
				if err != nil {
					t.Fatal(err)
				}
				rp, err := tc.o.CompileRebind(q, plan)
				if err != nil {
					t.Fatalf("%s %s: CompileRebind: %v", tc.name, d.Name, err)
				}
				for probe := 0; probe < 10; probe++ {
					if tc.correct {
						q.Corr.Apply([]stats.Obs{{Site: 1 + rng.Intn(len(q.Preds)), LogQ: rng.NormFloat64()}}, nil)
					}
					next := instAt(t, tm, randPoint(rng, tm.Degree())).Values
					want, err := tc.o.ReferenceRecost(q, plan, next)
					if err != nil {
						t.Fatal(err)
					}
					got, err := tc.o.Recost(q, plan, next)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("%s %s: Recost at %v:\n got %s\nwant %s", tc.name, d.Name, next, got, want)
					}
					cost, err := rp.Recost(tc.o, next)
					if err != nil {
						t.Fatal(err)
					}
					if cost != want.Cost {
						t.Fatalf("%s %s: program cost %v, reference %v (params %v)", tc.name, d.Name, cost, want.Cost, next)
					}
				}
			}
		}
	}
}
