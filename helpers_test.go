package ppc

import (
	"testing"

	"repro/internal/core"
	"repro/internal/executor"
	"repro/internal/optimizer"
	"repro/internal/queries"
)

// onlineForTest returns an online configuration suited to small test
// workloads: modest radius, standard gamma, noise elimination and negative
// feedback at their defaults.
func onlineForTest() core.OnlineConfig {
	return core.OnlineConfig{
		Core:           core.Config{Radius: 0.05, Gamma: 0.8, Seed: 7},
		InvocationProb: 0.05,
		Seed:           11,
	}
}

// execDirect runs a plan against the system's database outside the cache
// path.
func execDirect(sys *System, plan *optimizer.Plan) (*executor.Result, error) {
	return executor.New(sys.DB()).Run(plan)
}

// cachedPlans returns the plan cache's entries as Each yields them: least
// recently used first.
func cachedPlans(sys *System) []*cachedPlan {
	sys.cacheMu.RLock()
	defer sys.cacheMu.RUnlock()
	var entries []*cachedPlan
	sys.cache.Each(func(_ int, v any) { entries = append(entries, v.(*cachedPlan)) })
	return entries
}

// cachedPlanIDs lists the cached plan ids, least recently used first.
func cachedPlanIDs(sys *System) []int {
	var ids []int
	for _, entry := range cachedPlans(sys) {
		ids = append(ids, entry.id)
	}
	return ids
}

// mustSQL returns the SQL of a standard template by name.
func mustSQL(t *testing.T, name string) string {
	t.Helper()
	for _, d := range queries.Defs {
		if d.Name == name {
			return d.SQL
		}
	}
	t.Fatalf("no standard template %s", name)
	return ""
}
