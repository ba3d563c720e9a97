package optimizer_test

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/optimizer"
	"repro/internal/queries"
	"repro/internal/stats"
)

// Recost at the same parameter values must reproduce the original estimate:
// one estimate per plan. That holds for a memo held while the corrections
// move, too. Every site of Q3/Q4/Q5/Q8 is moved by e^0.2 (three observations
// of log q-error 0.2, the third publishing), below the epoch threshold, after
// the memo was built and used: the winner the held memo costs must cost the
// same under RebindProgram.Recost and under a fresh Optimize.
func TestRecostIdentity(t *testing.T) {
	within := func(a, b float64) bool { return math.Abs(a-b) <= 0.01*b+1e-6 }
	for _, name := range []string{"Q0", "Q1", "Q5", "Q8"} {
		tm := tmpl(t, name)
		vals := midValues(t, tm)
		plan, err := opt.Optimize(tm.Query, vals)
		if err != nil {
			t.Fatal(err)
		}
		re, err := opt.Recost(tm.Query, plan, vals)
		if err != nil {
			t.Fatal(err)
		}
		if re.Fingerprint != plan.Fingerprint {
			t.Errorf("%s: recost changed fingerprint:\n%s\n%s", name, plan.Fingerprint, re.Fingerprint)
		}
		if !within(re.Cost, plan.Cost) {
			t.Errorf("%s: recost cost %v, original %v", name, re.Cost, plan.Cost)
		}
	}
	for _, name := range []string{"Q3", "Q4", "Q5", "Q8"} {
		tm := tmpl(t, name)
		q := tm.Query
		q.Corr = stats.NewCorrections(len(q.Preds))
		vals := midValues(t, tm)
		memo, err := opt.NewMemo(q)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := opt.OptimizeMemo(memo, vals); err != nil {
			t.Fatal(err)
		}
		obs := make([]stats.Obs, len(q.Preds))
		for i := range obs {
			obs[i] = stats.Obs{Site: i + 1, LogQ: 0.2}
		}
		for i := 0; i < 3; i++ {
			q.Corr.Apply(obs)
		}
		if f := q.Corr.Factor(1); math.Abs(f-math.Exp(0.2)) > 1e-12 || q.Corr.Epoch() != 0 {
			t.Fatalf("%s: factor %v at epoch %d, want e^0.2 at epoch 0", name, f, q.Corr.Epoch())
		}
		held, err := opt.OptimizeMemo(memo, vals)
		if err != nil {
			t.Fatal(err)
		}
		rp, err := opt.CompileRebind(q, held)
		if err != nil {
			t.Fatal(err)
		}
		recost, err := rp.Recost(opt, vals)
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := opt.Optimize(q, vals)
		if err != nil {
			t.Fatal(err)
		}
		if !within(held.Cost, recost) || !within(held.Cost, fresh.Cost) {
			t.Errorf("%s: held memo costs its winner %v, its recost %v, a fresh Optimize %v (%s)",
				name, held.Cost, recost, fresh.Cost, fresh.Fingerprint)
		}
	}
}

// Recost must not mutate the cached plan.
func TestRecostDoesNotMutateOriginal(t *testing.T) {
	tm := tmpl(t, "Q1")
	i1, _ := opt.InstanceAt(tm, []float64{0.5, 0.5})
	plan, err := opt.OptimizeInstance(i1)
	if err != nil {
		t.Fatal(err)
	}
	before := plan.Root.EstCost
	i2, _ := opt.InstanceAt(tm, []float64{0.05, 0.05})
	if _, err := opt.Recost(tm.Query, plan, i2.Values); err != nil {
		t.Fatal(err)
	}
	if plan.Root.EstCost != before {
		t.Error("Recost mutated the cached plan")
	}
}

// The stale-plan regret property: at a point where the optimizer picks a
// different plan, recosting the stale plan must never be cheaper than the
// fresh optimum (the optimizer would have picked it otherwise).
func TestRecostStalePlanNeverBeatsOptimal(t *testing.T) {
	tm := tmpl(t, "Q1")
	rng := rand.New(rand.NewSource(41))
	base, err := opt.OptimizeInstance(mustInstanceAt(t, tm, []float64{0.05, 0.05}))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		point := []float64{rng.Float64(), rng.Float64()}
		inst := mustInstanceAt(t, tm, point)
		fresh, err := opt.OptimizeInstance(inst)
		if err != nil {
			t.Fatal(err)
		}
		stale, err := opt.Recost(tm.Query, base, inst.Values)
		if err != nil {
			t.Fatal(err)
		}
		if stale.Cost < fresh.Cost*(1-1e-9) {
			t.Errorf("point %v: stale plan cost %v < optimal %v", point, stale.Cost, fresh.Cost)
		}
	}
}

// Recosting with changed parameters must move the cost in the right
// direction: smaller selectivity, cheaper or equal plan.
func TestRecostTracksSelectivity(t *testing.T) {
	tm := tmpl(t, "Q0")
	inst, _ := opt.InstanceAt(tm, []float64{0.9, 0.9})
	plan, err := opt.OptimizeInstance(inst)
	if err != nil {
		t.Fatal(err)
	}
	prev := math.Inf(1)
	for _, sel := range []float64{0.9, 0.5, 0.2, 0.05} {
		i2, _ := opt.InstanceAt(tm, []float64{sel, sel})
		re, err := opt.Recost(tm.Query, plan, i2.Values)
		if err != nil {
			t.Fatal(err)
		}
		if re.Cost > prev*1.01 {
			t.Errorf("recost increased from %v to %v at sel %v", prev, re.Cost, sel)
		}
		prev = re.Cost
	}
}

func TestRecostValidation(t *testing.T) {
	tm := tmpl(t, "Q1")
	plan, err := opt.Optimize(tm.Query, midValues(t, tm))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := opt.Recost(tm.Query, plan, []float64{1}); err == nil {
		t.Error("expected error for wrong parameter count")
	}
}

func mustInstanceAt(t *testing.T, tm *optimizer.Template, point []float64) optimizer.Instance {
	t.Helper()
	inst, err := opt.InstanceAt(tm, point)
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

// Compile-time association with the queries package used in helpers above.
var _ = queries.Defs
