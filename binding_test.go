package ppc

import (
	"math/rand"
	"sync/atomic"
	"testing"

	"repro/internal/stats"
	"repro/internal/tpch"
)

// countingProvider counts the name lookups the optimizer makes: every
// Column call is one (table, column) resolution.
type countingProvider struct {
	stats.Provider
	columns atomic.Int64
}

func (c *countingProvider) Column(table, col string) (stats.Column, error) {
	c.columns.Add(1)
	return c.Provider.Column(table, col)
}

// TestHitsResolveNoColumns is the structural half of "a selectivity
// estimate is a probe of a handle bound once": the lookups are gone from
// the steady state, not just faster. Statistics handles are resolved when a
// template registers (its memo), at its first run (its parameters) and when
// a plan is compiled (its rebind program); after that a cache hit — point,
// recost, cardinality attribution — asks the provider for no column, and
// neither does an optimizer call after the corrections move, because the
// memo kept the joins' base selectivities and reads the factors per call. A
// plan that was evicted and comes back is compiled, and bound, once.
func TestHitsResolveNoColumns(t *testing.T) {
	var counter *countingProvider
	sys, err := Open(Options{
		TPCH:          tpch.Config{Scale: 1000, Seed: 5},
		Online:        onlineForTest(),
		FeedbackQueue: -1,
		statsWrap: func(p stats.Provider) stats.Provider {
			counter = &countingProvider{Provider: p}
			return counter
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close() //nolint:errcheck
	names := []string{"Q1", "Q8"}
	for _, name := range names {
		if err := sys.Register(name, mustSQL(t, name)); err != nil {
			t.Fatal(err)
		}
	}
	if counter.columns.Load() == 0 {
		t.Fatal("Register resolved no column: the memo is not bound through the provider")
	}

	rng := rand.New(rand.NewSource(29))
	// run issues one run on a tight neighbourhood and returns how many
	// columns it resolved.
	run := func(name string) (*RunResult, int64) {
		t.Helper()
		tmpl, err := sys.Template(name)
		if err != nil {
			t.Fatal(err)
		}
		point := make([]float64, tmpl.Degree())
		for i := range point {
			point[i] = 0.25 + rng.Float64()*0.1
		}
		inst, err := sys.Optimizer().InstanceAt(tmpl, point)
		if err != nil {
			t.Fatal(err)
		}
		before := counter.columns.Load()
		res, err := sys.Run(name, inst.Values)
		if err != nil {
			t.Fatal(err)
		}
		return res, counter.columns.Load() - before
	}
	// hits runs until n cache hits have been served and fails on one that
	// resolved a column.
	hits := func(phase string, n int) {
		t.Helper()
		for _, name := range names {
			for served, tries := 0, 0; served < n; tries++ {
				if tries > 40*n {
					t.Fatalf("%s: %s served %d hits in %d runs", phase, name, served, tries)
				}
				res, resolved := run(name)
				if !res.CacheHit || res.Invoked {
					continue
				}
				served++
				if resolved != 0 {
					t.Fatalf("%s: a %s cache hit resolved %d columns", phase, name, resolved)
				}
			}
		}
	}
	for i := 0; i < 300; i++ {
		for _, name := range names {
			run(name)
		}
	}
	hits("warm", 200)

	// The corrections move on every site: the next optimizer call reads the
	// new factors and resolves nothing.
	for _, name := range names {
		st, err := sys.lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		corr := st.tmpl.Query.Corr
		obs := make([]stats.Obs, corr.NSites())
		for i := range obs {
			obs[i] = stats.Obs{Site: i + 1, LogQ: 1.5}
		}
		// The learner is the corrections' one writer: fold through it, after
		// whatever its applier still holds.
		st.flush()
		epoch := corr.Epoch()
		for i := 0; i < 3; i++ {
			st.online.ApplyBatch(nil, obs)
		}
		if corr.Epoch() == epoch {
			t.Fatalf("%s: the corrections did not move", name)
		}
		inst, err := sys.opt.InstanceAt(st.tmpl, make([]float64, st.tmpl.Degree()))
		if err != nil {
			t.Fatal(err)
		}
		before := counter.columns.Load()
		if _, err := sys.opt.OptimizeMemo(st.memo, inst.Values); err != nil {
			t.Fatal(err)
		}
		if resolved := counter.columns.Load() - before; resolved != 0 {
			t.Fatalf("%s: an optimizer call after the corrections moved resolved %d columns", name, resolved)
		}
	}
	hits("after the corrections move", 50)

	// Evict everything (placeholder entries under ids no learner predicts),
	// then come back: each plan that returns is compiled and bound once.
	st, err := sys.lookup(names[0])
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < sys.cache.Capacity(); i++ {
		sys.cachePlan(&cachedPlan{id: 1<<30 + i, owner: st})
	}
	rebound := false
	for i := 0; i < 50; i++ {
		for _, name := range names {
			if _, resolved := run(name); resolved > 0 {
				rebound = true
			}
		}
	}
	if !rebound {
		t.Fatal("no column resolved after every plan was evicted: plans were not recompiled through the provider")
	}
	hits("after evict-and-recompile", 50)
}
