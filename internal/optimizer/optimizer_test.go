package optimizer_test

import (
	"errors"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/executor"
	"repro/internal/optimizer"
	"repro/internal/queries"
	"repro/internal/sqlparse"
	"repro/internal/tpch"
)

var (
	testDB      = tpch.MustGenerate(tpch.Config{Scale: 400, Seed: 7})
	testCat     = catalog.MustBuild(testDB, 0)
	opt         = optimizer.New(testDB, testCat)
	execHarness = executor.New(testDB)
)

func tmpl(t *testing.T, name string) *optimizer.Template {
	t.Helper()
	tm, err := queries.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return tm
}

func midValues(t *testing.T, tm *optimizer.Template) []float64 {
	t.Helper()
	point := make([]float64, tm.Degree())
	for i := range point {
		point[i] = 0.5
	}
	inst, err := opt.InstanceAt(tm, point)
	if err != nil {
		t.Fatal(err)
	}
	return inst.Values
}

func TestAllTemplatesParseAndValidate(t *testing.T) {
	ts, err := queries.Templates()
	if err != nil {
		t.Fatal(err)
	}
	if len(ts) != 9 {
		t.Fatalf("got %d templates", len(ts))
	}
	wantDegrees := []int{2, 2, 2, 3, 3, 4, 4, 5, 6}
	for i, tm := range ts {
		if tm.Degree() != wantDegrees[i] {
			t.Errorf("%s degree = %d, want %d", tm.Name, tm.Degree(), wantDegrees[i])
		}
	}
}

func TestOptimizeProducesValidPlan(t *testing.T) {
	for _, d := range queries.Defs {
		d := d
		t.Run(d.Name, func(t *testing.T) {
			tm := tmpl(t, d.Name)
			plan, err := opt.Optimize(tm.Query, midValues(t, tm))
			if err != nil {
				t.Fatal(err)
			}
			if plan.Cost <= 0 || math.IsNaN(plan.Cost) || math.IsInf(plan.Cost, 0) {
				t.Errorf("cost = %v", plan.Cost)
			}
			if plan.Fingerprint == "" {
				t.Error("empty fingerprint")
			}
			// Every base table must be scanned exactly once.
			scans := make(map[string]int)
			var walk func(n *optimizer.Node)
			walk = func(n *optimizer.Node) {
				if n == nil {
					return
				}
				if n.Op == optimizer.OpSeqScan || n.Op == optimizer.OpIndexScan {
					scans[n.Alias]++
				}
				walk(n.Left)
				walk(n.Right)
			}
			walk(plan.Root)
			for _, tr := range tm.Query.Tables {
				if scans[tr.Alias] != 1 {
					t.Errorf("alias %s scanned %d times", tr.Alias, scans[tr.Alias])
				}
			}
		})
	}
}

func TestOptimizeDeterministic(t *testing.T) {
	tm := tmpl(t, "Q5")
	vals := midValues(t, tm)
	p1, err := opt.Optimize(tm.Query, vals)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		p2, err := opt.Optimize(tm.Query, vals)
		if err != nil {
			t.Fatal(err)
		}
		if p1.Fingerprint != p2.Fingerprint || p1.Cost != p2.Cost {
			t.Fatalf("nondeterministic: %s (%v) vs %s (%v)", p1.Fingerprint, p1.Cost, p2.Fingerprint, p2.Cost)
		}
	}
}

func TestOptimizeParamCountValidation(t *testing.T) {
	tm := tmpl(t, "Q1")
	if _, err := opt.Optimize(tm.Query, []float64{1}); err == nil {
		t.Error("expected error for wrong parameter count")
	}
}

// The property the whole paper rests on: different selectivity points give
// different optimal plans, carving the plan space into multiple regions.
func TestPlanSpaceHasMultipleRegions(t *testing.T) {
	for _, name := range []string{"Q0", "Q1", "Q2", "Q5", "Q8"} {
		name := name
		t.Run(name, func(t *testing.T) {
			tm := tmpl(t, name)
			reg := optimizer.NewRegistry()
			rng := rand.New(rand.NewSource(31))
			const samples = 200
			for i := 0; i < samples; i++ {
				point := make([]float64, tm.Degree())
				for j := range point {
					point[j] = rng.Float64()
				}
				inst, err := opt.InstanceAt(tm, point)
				if err != nil {
					t.Fatal(err)
				}
				plan, err := opt.OptimizeInstance(inst)
				if err != nil {
					t.Fatal(err)
				}
				reg.ID(plan.Fingerprint)
			}
			if reg.Count() < 3 {
				t.Errorf("%s: only %d distinct plans over %d random points; plan space is degenerate", name, reg.Count(), samples)
			}
			t.Logf("%s: %d distinct plans over %d points", name, reg.Count(), samples)
		})
	}
}

// Selectivity crossover: at very low selectivity the driving table should
// be index-scanned; at selectivity 1 a sequential scan must win.
func TestAccessPathCrossover(t *testing.T) {
	tm := tmpl(t, "Q0")
	// (l_shipdate sel, l_partkey sel) = (0.005, 1): index scan on shipdate.
	instLow, err := opt.InstanceAt(tm, []float64{0.005, 1})
	if err != nil {
		t.Fatal(err)
	}
	planLow, err := opt.OptimizeInstance(instLow)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(planLow.Fingerprint, "Idx(lineitem.l_shipdate)") {
		t.Errorf("low selectivity plan does not use the shipdate index: %s", planLow.Fingerprint)
	}
	// Selectivity 1 on both: sequential scan.
	instHigh, err := opt.InstanceAt(tm, []float64{1, 1})
	if err != nil {
		t.Fatal(err)
	}
	planHigh, err := opt.OptimizeInstance(instHigh)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(planHigh.Fingerprint, "Seq(lineitem)") {
		t.Errorf("full selectivity plan does not use a sequential scan: %s", planHigh.Fingerprint)
	}
}

// Cost monotonicity: widening a range predicate must not make the chosen
// plan cheaper.
func TestCostMonotoneInSelectivity(t *testing.T) {
	tm := tmpl(t, "Q1")
	prev := -1.0
	for _, sel := range []float64{0.05, 0.2, 0.4, 0.6, 0.8, 1.0} {
		inst, err := opt.InstanceAt(tm, []float64{sel, sel})
		if err != nil {
			t.Fatal(err)
		}
		plan, err := opt.OptimizeInstance(inst)
		if err != nil {
			t.Fatal(err)
		}
		if plan.Cost < prev*0.98 { // small estimation noise tolerated
			t.Errorf("cost decreased from %v to %v at sel %v", prev, plan.Cost, sel)
		}
		prev = plan.Cost
	}
}

func TestSelectivityPointRoundTrip(t *testing.T) {
	// f(InstanceAt(point)) ≈ point — the round trip the workload generator
	// and the online framework both rely on.
	for _, name := range []string{"Q1", "Q5", "Q8"} {
		tm := tmpl(t, name)
		rng := rand.New(rand.NewSource(17))
		for i := 0; i < 50; i++ {
			point := make([]float64, tm.Degree())
			for j := range point {
				point[j] = rng.Float64()
			}
			inst, err := opt.InstanceAt(tm, point)
			if err != nil {
				t.Fatal(err)
			}
			back, err := opt.SelectivityPoint(inst)
			if err != nil {
				t.Fatal(err)
			}
			for j := range point {
				if math.Abs(back[j]-point[j]) > 0.06 {
					t.Errorf("%s param %d: point %v round-tripped to %v", name, j, point[j], back[j])
				}
			}
		}
	}
}

func TestPlanStringRendering(t *testing.T) {
	tm := tmpl(t, "Q1")
	plan, err := opt.Optimize(tm.Query, midValues(t, tm))
	if err != nil {
		t.Fatal(err)
	}
	s := plan.String()
	for _, want := range []string{"rows=", "cost="} {
		if !strings.Contains(s, want) {
			t.Errorf("plan rendering missing %q:\n%s", want, s)
		}
	}
}

func TestRegistry(t *testing.T) {
	r := optimizer.NewRegistry()
	a := r.ID("planA")
	b := r.ID("planB")
	if a == b {
		t.Error("distinct fingerprints share an id")
	}
	if got := r.ID("planA"); got != a {
		t.Error("re-interning changed id")
	}
	if r.Fingerprint(a) != "planA" || r.Fingerprint(99) != "" {
		t.Error("Fingerprint lookup wrong")
	}
	if r.Count() != 2 {
		t.Errorf("Count = %d", r.Count())
	}
}

func TestTemplateValidation(t *testing.T) {
	// Equality parameters are not invertible and must be rejected.
	q := &optimizer.Query{
		Select: []optimizer.SelectItem{{Agg: optimizer.AggCount}},
		Tables: []optimizer.TableRef{{Table: "customer", Alias: "c"}},
		Preds: []optimizer.Predicate{{
			Kind: optimizer.PredCmpNum, Col: optimizer.ColRef{Alias: "c", Column: "c_custkey"},
			Op: optimizer.OpEq, ParamIdx: 0,
		}},
	}
	if _, err := optimizer.NewTemplate("bad", "", q); err == nil {
		t.Error("expected error for equality parameter")
	}
}

func TestGroupByPlanHasAggregate(t *testing.T) {
	tm := tmpl(t, "Q1")
	plan, err := opt.Optimize(tm.Query, midValues(t, tm))
	if err != nil {
		t.Fatal(err)
	}
	if plan.Root.Op != optimizer.OpHashAgg {
		t.Errorf("root op = %v, want HashAgg", plan.Root.Op)
	}
	if !strings.HasPrefix(plan.Fingerprint, "Agg[") {
		t.Errorf("fingerprint = %s", plan.Fingerprint)
	}
}

func TestFingerprintInsensitiveToParameterValues(t *testing.T) {
	// Two instances in the same optimality region share a fingerprint even
	// though their literal bounds differ.
	tm := tmpl(t, "Q0")
	i1, _ := opt.InstanceAt(tm, []float64{0.4, 0.9})
	i2, _ := opt.InstanceAt(tm, []float64{0.45, 0.92})
	p1, err := opt.OptimizeInstance(i1)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := opt.OptimizeInstance(i2)
	if err != nil {
		t.Fatal(err)
	}
	if p1.Fingerprint != p2.Fingerprint {
		t.Skip("points landed in different regions; acceptable")
	}
	if p1.Root.IndexLo == p2.Root.IndexLo && p1.Root.Op == optimizer.OpIndexScan {
		t.Error("expected different instantiated bounds")
	}
}

// TestNoMergeJoinOnStringKey: both engines' merge join compares numeric
// keys, so the memo costs no merge join on a string key — even under a cost
// model where hashing is prohibitive and a numeric key of the same shape
// does merge. And the type rule turns away what no engine can run.
func TestNoMergeJoinOnStringKey(t *testing.T) {
	model := optimizer.DefaultCostModel()
	model.CPUHash, model.CPUProbe = 1e6, 1e6
	o := optimizer.New(testDB, testCat)
	o.SetModel(model)
	for key, wantMerge := range map[string]bool{"p_size": true, "p_brand": false} {
		sql := "SELECT COUNT(*) FROM part p1, part p2 WHERE p1." + key + " = p2." + key
		plan, err := o.Optimize(sqlparse.MustParse(sql, queries.Schema), nil)
		if err != nil {
			t.Fatal(err)
		}
		if got := strings.Contains(plan.Fingerprint, "MJ["); got != wantMerge {
			t.Errorf("%s: plan %s, merge join = %v, want %v", key, plan.Fingerprint, got, wantMerge)
		}
	}
	_, err := o.Optimize(sqlparse.MustParse("SELECT MAX(p.p_brand) FROM part p", queries.Schema), nil)
	var te *optimizer.TypeError
	if !errors.As(err, &te) {
		t.Errorf("MAX over a string column: got %v, want a TypeError", err)
	}
}
