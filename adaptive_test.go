package ppc

// End-to-end tests for the adaptive statistics layer: a deliberately
// distorted base estimator (stats.Distorted via Options.statsWrap) makes
// the optimizer's selectivity estimates diverge from execution truth, and
// the correction learner must pull them back — shrinking the measured
// estimation q-error, flipping plan choices back to the ones an
// undistorted optimizer makes, and doing both without destabilizing the
// plan-space cluster learner.

import (
	"math/rand"
	"testing"

	"repro/internal/stats"
	"repro/internal/tpch"
)

// distortLineitem inflates the base selectivity estimate of every
// predicate on lineitem.l_partkey by 6x — a biased base estimator within
// the correction clamp [1/8, 8], so the adaptive layer can fully absorb
// it.
func distortLineitem(p stats.Provider) stats.Provider {
	return &stats.Distorted{
		Provider: p,
		Sel: func(table, col string, sel float64) float64 {
			if table == "lineitem" && col == "l_partkey" {
				return sel * 6
			}
			return sel
		},
	}
}

// openDistorted opens a Scale-1000 system with the distorted base
// estimator, synchronous feedback (corrections apply before the next
// run's optimization), and the adaptive layer on or off.
func openDistorted(t *testing.T, disableAdaptive bool) *System {
	t.Helper()
	sys, err := Open(Options{
		TPCH:                 tpch.Config{Scale: 1000, Seed: 5},
		Online:               onlineForTest(),
		FeedbackQueue:        -1,
		statsWrap:            distortLineitem,
		disableAdaptiveStats: disableAdaptive,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sys.Close() }) //nolint:errcheck
	return sys
}

// runSkewed issues n Q1 runs over a skewed neighborhood: a moderate
// s_date selectivity and a highly selective l_partkey bound. The range
// [0.01, 0.07] straddles the index/seq-scan crossover (~0.03 true
// selectivity), so correcting the 6x overestimate genuinely moves plan
// choices inside the workload.
func runSkewed(t *testing.T, sys *System, n int, seed int64) {
	t.Helper()
	tmpl, err := sys.Template("Q1")
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		point := []float64{0.25 + rng.Float64()*0.1, 0.01 + rng.Float64()*0.06}
		inst, err := sys.Optimizer().InstanceAt(tmpl, point)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sys.Run("Q1", inst.Values); err != nil {
			t.Fatal(err)
		}
	}
}

// qErrorP95 extracts Q1's estimation q-error p95 from a metrics snapshot.
func qErrorP95(t *testing.T, sys *System) float64 {
	t.Helper()
	snap, err := sys.MetricsSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	for _, tm := range snap.Templates {
		if tm.Template == "Q1" {
			if tm.EstimationQError.Count == 0 {
				t.Fatal("no q-error observations recorded; harvest is not running")
			}
			return tm.EstimationQError.Quantile(0.95)
		}
	}
	t.Fatal("no Q1 in snapshot")
	return 0
}

// TestAdaptiveStatsReduceQError is the tentpole acceptance criterion:
// under a skewed workload whose true selectivities diverge from the (6x
// distorted) base estimates, the corrected system's p95 estimation
// q-error must be at least 2x lower than the static provider's.
func TestAdaptiveStatsReduceQError(t *testing.T) {
	static := openDistorted(t, true)
	adaptive := openDistorted(t, false)
	for _, sys := range []*System{static, adaptive} {
		if err := sys.Register("Q1", mustSQL(t, "Q1")); err != nil {
			t.Fatal(err)
		}
		runSkewed(t, sys, 400, 42)
	}

	staticP95 := qErrorP95(t, static)
	adaptiveP95 := qErrorP95(t, adaptive)
	t.Logf("estimation q-error p95: static %.2f, adaptive %.2f", staticP95, adaptiveP95)
	if staticP95 < 2 {
		t.Fatalf("distortion did not register: static p95 = %.2f", staticP95)
	}
	if adaptiveP95*2 > staticP95 {
		t.Errorf("adaptive p95 %.2f not 2x below static %.2f", adaptiveP95, staticP95)
	}

	// The adaptive layer's state is visible on the metrics surface: warmed
	// correction sites and an advanced epoch.
	tm, err := adaptive.TemplateMetrics("Q1")
	if err != nil {
		t.Fatal(err)
	}
	if tm.Learner.CorrectionSites == 0 {
		t.Error("no correction site past cold start after 400 runs")
	}
	if tm.Learner.CorrectionEpoch == 0 {
		t.Error("correction epoch never advanced despite a 6x base bias")
	}
	// The static system reports the layer disabled.
	if tm2, err := static.TemplateMetrics("Q1"); err != nil || tm2.Learner.CorrectionEpoch != 0 || tm2.Learner.CorrectionSites != 0 {
		t.Errorf("static system reports correction state: %+v (err %v)", tm2.Learner, err)
	}
}

// TestAdaptiveStatsFlipPlanChoice: the 6x overestimate pushes the
// optimizer off the plan it would pick with truthful statistics; once the
// corrections converge, the same optimizer at the same parameter values
// must flip back to the undistorted choice — and so must the memo the
// template has held since it registered, which reads the corrections per
// call rather than serving costs from when it was built.
func TestAdaptiveStatsFlipPlanChoice(t *testing.T) {
	// Ground truth: no distortion.
	truth, err := Open(Options{
		TPCH:          tpch.Config{Scale: 1000, Seed: 5},
		Online:        onlineForTest(),
		FeedbackQueue: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer truth.Close() //nolint:errcheck
	static := openDistorted(t, true)
	adaptive := openDistorted(t, false)
	for _, sys := range []*System{truth, static, adaptive} {
		if err := sys.Register("Q1", mustSQL(t, "Q1")); err != nil {
			t.Fatal(err)
		}
	}

	tmpl, err := adaptive.Template("Q1")
	if err != nil {
		t.Fatal(err)
	}
	probe, err := adaptive.Optimizer().InstanceAt(tmpl, []float64{0.3, 0.02})
	if err != nil {
		t.Fatal(err)
	}
	fingerprint := func(sys *System) string {
		tmpl, err := sys.Template("Q1")
		if err != nil {
			t.Fatal(err)
		}
		plan, err := sys.Optimizer().Optimize(tmpl.Query, probe.Values)
		if err != nil {
			t.Fatal(err)
		}
		return plan.Fingerprint
	}

	truthFP := fingerprint(truth)
	staticFP := fingerprint(static)
	if staticFP == truthFP {
		t.Fatalf("distortion does not change the plan at the probe point; test is vacuous (%s)", truthFP)
	}
	// Cold corrections are bit-identical to the static provider.
	if coldFP := fingerprint(adaptive); coldFP != staticFP {
		t.Fatalf("cold adaptive optimizer diverges from static: %s vs %s", coldFP, staticFP)
	}

	runSkewed(t, adaptive, 300, 7)
	if warmFP := fingerprint(adaptive); warmFP != truthFP {
		t.Errorf("corrected optimizer picks %s, undistorted optimizer picks %s", warmFP, truthFP)
	}
	// The memo Run's optimizer call uses, held since registration, flips
	// too: it reads the corrections as they are now.
	st, err := adaptive.lookup("Q1")
	if err != nil {
		t.Fatal(err)
	}
	held, err := adaptive.opt.OptimizeMemo(st.memo, probe.Values)
	if err != nil {
		t.Fatal(err)
	}
	if held.Fingerprint != truthFP {
		t.Errorf("the held memo picks %s, undistorted optimizer picks %s", held.Fingerprint, truthFP)
	}
}

// TestAdaptiveDriftInteraction: when corrections shift a template's plan
// crossover points mid-workload, the plan-space cluster learner must
// re-converge on the new plan geometry — bounded drift resets and a
// recovering hit rate — rather than thrash.
func TestAdaptiveDriftInteraction(t *testing.T) {
	sys := openDistorted(t, false)
	if err := sys.Register("Q1", mustSQL(t, "Q1")); err != nil {
		t.Fatal(err)
	}

	// Phase 1 converges the learner on the distorted optimizer's plans
	// while the corrections warm up underneath it; phase 2 runs long after
	// every crossover shift has happened.
	runSkewed(t, sys, 300, 11)
	mid, err := sys.TemplateMetrics("Q1")
	if err != nil {
		t.Fatal(err)
	}
	tmpl, err := sys.Template("Q1")
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(13))
	lateHits, lateRuns := 0, 0
	for i := 0; i < 300; i++ {
		point := []float64{0.25 + rng.Float64()*0.1, 0.04 + rng.Float64()*0.06}
		inst, err := sys.Optimizer().InstanceAt(tmpl, point)
		if err != nil {
			t.Fatal(err)
		}
		res, err := sys.Run("Q1", inst.Values)
		if err != nil {
			t.Fatal(err)
		}
		if i >= 200 {
			lateRuns++
			if res.CacheHit {
				lateHits++
			}
		}
	}
	final, err := sys.TemplateMetrics("Q1")
	if err != nil {
		t.Fatal(err)
	}
	// Re-convergence, not thrash: after the corrections settle, the
	// learner stops resetting and serves from cache again.
	if extra := final.Learner.Resets - mid.Learner.Resets; extra > 3 {
		t.Errorf("learner reset %d times after the corrections settled; crossover shift caused thrash", extra)
	}
	if lateHits*2 < lateRuns {
		t.Errorf("late-phase cache hits %d/%d; learner did not re-converge", lateHits, lateRuns)
	}
	if final.Learner.SamplesAbsorbed == 0 {
		t.Error("learner synopsis empty after drift interaction")
	}
}

// TestCorrectionsHoldQErrorOnUndistortedCatalog is ROADMAP 4(4)'s guard:
// the corrections repair a distorted catalog, so where the catalog is the
// truth (no statsWrap) they must leave the estimates alone. The nine
// standard templates each take the same 300 seeded runs on a system with
// the layer on and on its control arm (disableAdaptiveStats), and per
// template the p95 estimation q-error with corrections on is held to the
// control's × 1.05 — the q-error histogram's buckets double, so in effect to
// no higher bucket.
func TestCorrectionsHoldQErrorOnUndistortedCatalog(t *testing.T) {
	p95 := func(disable bool) map[string]float64 {
		sys, err := Open(Options{
			TPCH:                 tpch.Config{Scale: 2000, Seed: 5},
			Online:               onlineForTest(),
			FeedbackQueue:        -1,
			disableAdaptiveStats: disable,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer sys.Close() //nolint:errcheck
		if err := sys.RegisterStandard(); err != nil {
			t.Fatal(err)
		}
		for i, name := range sys.TemplateNames() {
			for _, values := range hotTemplatePoints(t, sys, name, 300, int64(100+i)) {
				if _, err := sys.Run(name, values); err != nil {
					t.Fatal(err)
				}
			}
		}
		snap, err := sys.MetricsSnapshot()
		if err != nil {
			t.Fatal(err)
		}
		out := make(map[string]float64, len(snap.Templates))
		for _, tm := range snap.Templates {
			if tm.EstimationQError.Count > 0 {
				out[tm.Template] = tm.EstimationQError.Quantile(0.95)
			}
		}
		return out
	}
	off, on := p95(true), p95(false)
	// Q0 has no attributable operator: its one scan applies both predicates.
	if len(off) != 8 || len(on) != 8 {
		t.Fatalf("q-error observed on %d templates with corrections off and %d on, want Q1-Q8 in both", len(off), len(on))
	}
	for name, control := range off {
		if on[name] > control*1.05 {
			t.Errorf("%s: corrections raise p95 q-error on an undistorted catalog: %.3f on, %.3f off", name, on[name], control)
		}
	}
	t.Logf("estimation q-error p95 by template: corrections off %v, on %v", off, on)
}
