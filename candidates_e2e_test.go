package ppc

// End-to-end tests for the candidate-generation subsystem: at Register the
// facade enumerates a diverse plan set under perturbed selectivities and
// interns it into the shared cache, so the learner routes among real,
// structurally distinct plans from the first query; after a correction
// epoch bump the set regenerates under the corrected estimates and routing
// lands on the plan an undistorted optimizer would pick.

import (
	"testing"

	"repro/internal/tpch"
)

// openCandidateSystem opens the PR 9 distorted adaptive substrate with
// candidate generation on top: a 6x-biased base estimator the correction
// learner can absorb, synchronous feedback, and the candidate set interned
// at Register. tunable is the zero value for the fixed transform grid.
func openCandidateSystem(t *testing.T, tunable TunableLSHOptions) *System {
	t.Helper()
	sys, err := Open(Options{
		TPCH:          tpch.Config{Scale: 1000, Seed: 5},
		Online:        onlineForTest(),
		FeedbackQueue: -1,
		StatsWrap:     distortLineitem,
		Candidates:    CandidatesOptions{Enable: true},
		TunableLSH:    tunable,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sys.Close() }) //nolint:errcheck
	return sys
}

// candidateFingerprints snapshots the template's current candidate set.
func candidateFingerprints(st *templateState) []string {
	st.candMu.RLock()
	defer st.candMu.RUnlock()
	return append([]string(nil), st.candFPs...)
}

// TestCandidateSetDiverseAtRegister: registration alone must intern at
// least 3 structurally distinct candidate plans for the running-example
// template — before any query runs — and surface the count on the metrics
// snapshot.
func TestCandidateSetDiverseAtRegister(t *testing.T) {
	sys := openCandidateSystem(t, TunableLSHOptions{})
	if err := sys.Register("Q1", mustSQL(t, "Q1")); err != nil {
		t.Fatal(err)
	}
	st, err := sys.lookup("Q1")
	if err != nil {
		t.Fatal(err)
	}
	fps := candidateFingerprints(st)
	distinct := make(map[string]bool, len(fps))
	for _, fp := range fps {
		distinct[fp] = true
	}
	if len(distinct) < 3 {
		t.Fatalf("Register interned %d distinct candidate plans (%v), want >= 3", len(distinct), fps)
	}
	if len(distinct) != len(fps) {
		t.Errorf("candidate set holds duplicates: %v", fps)
	}
	snap, err := sys.MetricsSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	for _, tm := range snap.Templates {
		if tm.Template == "Q1" && tm.Counters.CandidatePlans != int64(len(fps)) {
			t.Errorf("metrics report %d candidate plans, set holds %d", tm.Counters.CandidatePlans, len(fps))
		}
	}
	// Every candidate is live in the shared cache, recostable for routing.
	st.candMu.RLock()
	for i, id := range st.candIDs {
		if sys.cachedPlanOf(st, id) == nil {
			t.Errorf("candidate %d (plan id %d) not live in the cache", i, id)
		}
	}
	st.candMu.RUnlock()
}

// TestCandidateRoutingUnderDistortion is the tentpole acceptance criterion:
// under the 6x distortion the learner's optimizer invocations are served by
// candidate routing (recost the interned set, cheapest wins) rather than
// full optimization, and once the corrections converge — bumping the
// correction epoch and regenerating the set — routing picks exactly the
// plan a ground-truth (undistorted) optimizer picks, without ever waiting
// for a cache miss to discover it. The tunable-lsh case is the only place
// the tree opens a System with candidate generation and tunable LSH
// together: routing must hold while the learner's transform grid re-tunes
// under it.
func TestCandidateRoutingUnderDistortion(t *testing.T) {
	// Ground truth: the plan an undistorted optimizer picks at the probe.
	truth, err := Open(Options{
		TPCH:          tpch.Config{Scale: 1000, Seed: 5},
		Online:        onlineForTest(),
		FeedbackQueue: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer truth.Close() //nolint:errcheck
	if err := truth.Register("Q1", mustSQL(t, "Q1")); err != nil {
		t.Fatal(err)
	}
	tmpl, err := truth.Template("Q1")
	if err != nil {
		t.Fatal(err)
	}
	probe, err := truth.Optimizer().InstanceAt(tmpl, []float64{0.3, 0.02})
	if err != nil {
		t.Fatal(err)
	}
	truthPlan, err := truth.Optimizer().Optimize(tmpl.Query, probe.Values)
	if err != nil {
		t.Fatal(err)
	}

	// The warm learner audits a fraction of the 300 runs, so the tunable
	// case needs a re-tune threshold well under mutTunable's 40 insertions.
	for name, tunable := range map[string]TunableLSHOptions{
		"fixed-lsh":   {},
		"tunable-lsh": {Enable: true, RetuneEvery: 10, Reservoir: 128},
	} {
		t.Run(name, func(t *testing.T) {
			sys := openCandidateSystem(t, tunable)
			if err := sys.Register("Q1", mustSQL(t, "Q1")); err != nil {
				t.Fatal(err)
			}
			st, err := sys.lookup("Q1")
			if err != nil {
				t.Fatal(err)
			}
			// The skewed workload warms the corrections (epoch bumps regenerate the
			// candidate set under the corrected estimates) while the learner's
			// optimizer invocations route among the candidates throughout.
			runSkewed(t, sys, 300, 7)
			if _, err := sys.TemplateStats("Q1"); err != nil { // flush the applier
				t.Fatal(err)
			}

			snap, err := sys.MetricsSnapshot()
			if err != nil {
				t.Fatal(err)
			}
			for _, tm := range snap.Templates {
				if tm.Template != "Q1" {
					continue
				}
				if tm.Counters.CandidateRouted == 0 {
					t.Error("no learner invocation was candidate-routed across 300 runs")
				}
				if tm.Counters.CandidatePlans < 3 {
					t.Errorf("candidate set shrank to %d plans", tm.Counters.CandidatePlans)
				}
			}

			if tunable.Enable && retuneGauge(t, sys, "Q1") == 0 {
				t.Error("tunable learner never re-tuned across 300 runs")
			}

			// The converged set contains the ground-truth plan and routing picks it.
			if !st.candidateHas(truthPlan.Fingerprint) {
				t.Fatalf("converged candidate set %v does not contain the ground-truth plan %s",
					candidateFingerprints(st), truthPlan.Fingerprint)
			}
			entry, _ := sys.candidateRoute(st, probe.Values)
			if entry == nil {
				t.Fatal("candidate routing declined at the probe point after convergence")
			}
			if sys.cachedPlanOf(st, entry.id) != entry {
				t.Fatalf("routed plan id %d not in the cache", entry.id)
			}
			if entry.plan.Fingerprint != truthPlan.Fingerprint {
				t.Errorf("candidate routing picked %s, ground-truth optimizer picks %s",
					entry.plan.Fingerprint, truthPlan.Fingerprint)
			}
		})
	}
}
