package ppc

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/optimizer"
	"repro/internal/queries"
	"repro/internal/tpch"
	"repro/internal/workload"
)

// openSmall opens a System over a small database for tests.
func openSmall(t *testing.T) *System {
	t.Helper()
	sys, err := Open(Options{
		TPCH:   tpch.Config{Scale: 1000, Seed: 5},
		Online: onlineForTest(),
		// Synchronous feedback: these tests assert learner progression over
		// serial run loops (hit counts, traces), which requires each run's
		// feedback applied before the next decision. The serving path is
		// fast enough to outrun the background applier on a small machine.
		FeedbackQueue: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func TestOpenAndRegister(t *testing.T) {
	sys := openSmall(t)
	if err := sys.RegisterStandard(); err != nil {
		t.Fatal(err)
	}
	names := sys.TemplateNames()
	if len(names) != 9 {
		t.Fatalf("templates = %v", names)
	}
	if err := sys.Register("Q0", "SELECT COUNT(*) FROM lineitem"); err == nil {
		t.Error("duplicate registration should fail")
	}
	if err := sys.Register("bad", "not sql"); err == nil {
		t.Error("bad SQL should fail")
	}
	if _, err := sys.Template("Q3"); err != nil {
		t.Error(err)
	}
	if _, err := sys.Template("nope"); err == nil {
		t.Error("unknown template should fail")
	}
}

func TestRunExecutesAndCaches(t *testing.T) {
	sys := openSmall(t)
	if err := sys.Register("Q1", queries.Defs[1].SQL); err != nil {
		t.Fatal(err)
	}
	tmpl, err := sys.Template("Q1")
	if err != nil {
		t.Fatal(err)
	}
	// Repeatedly run instances in a tight selectivity neighborhood: the
	// learner must start reusing the cached plan.
	rng := rand.New(rand.NewSource(1))
	hits := 0
	var lastFingerprint string
	for i := 0; i < 120; i++ {
		point := []float64{0.3 + rng.Float64()*0.02, 0.3 + rng.Float64()*0.02}
		inst, err := sys.Optimizer().InstanceAt(tmpl, point)
		if err != nil {
			t.Fatal(err)
		}
		res, err := sys.Run("Q1", inst.Values)
		if err != nil {
			t.Fatal(err)
		}
		if res.Result == nil || len(res.Result.Rows) == 0 {
			t.Fatalf("run %d returned no rows", i)
		}
		if res.CacheHit {
			hits++
			if res.OptimizeTime != 0 {
				t.Error("cache hit should not spend optimizer time")
			}
		}
		lastFingerprint = res.Fingerprint
	}
	if hits < 30 {
		t.Errorf("only %d cache hits in 120 clustered runs", hits)
	}
	if lastFingerprint == "" {
		t.Error("no fingerprint reported")
	}
	if sys.CacheLen() == 0 {
		t.Error("cache is empty after runs")
	}
}

func TestRunResultsMatchDirectExecution(t *testing.T) {
	// Whatever the cache decides, results must equal a fresh
	// optimize-and-execute of the same instance.
	sys := openSmall(t)
	if err := sys.Register("Q2", queries.Defs[2].SQL); err != nil {
		t.Fatal(err)
	}
	tmpl, _ := sys.Template("Q2")
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 60; i++ {
		point := []float64{rng.Float64(), rng.Float64()}
		inst, err := sys.Optimizer().InstanceAt(tmpl, point)
		if err != nil {
			t.Fatal(err)
		}
		res, err := sys.Run("Q2", inst.Values)
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := sys.Optimizer().OptimizeInstance(inst)
		if err != nil {
			t.Fatal(err)
		}
		// Both are COUNT/SUM aggregates: compare the count cell.
		direct, err := execDirect(sys, fresh)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := res.Result.Rows[0][0].Num, direct.Rows[0][0].Num; got != want {
			t.Errorf("run %d: cached path count %v, direct %v", i, got, want)
		}
	}
}

func TestTemplateStats(t *testing.T) {
	sys := openSmall(t)
	if err := sys.Register("Q0", queries.Defs[0].SQL); err != nil {
		t.Fatal(err)
	}
	tmpl, _ := sys.Template("Q0")
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 150; i++ {
		point := []float64{rng.Float64() * 0.3, rng.Float64() * 0.3}
		inst, _ := sys.Optimizer().InstanceAt(tmpl, point)
		if _, err := sys.Run("Q0", inst.Values); err != nil {
			t.Fatal(err)
		}
	}
	st, err := sys.TemplateStats("Q0")
	if err != nil {
		t.Fatal(err)
	}
	if st.Degree != 2 || st.SamplesAbsorbed == 0 || st.SynopsisBytes == 0 {
		t.Errorf("stats = %+v", st)
	}
	if _, err := sys.TemplateStats("nope"); err == nil {
		t.Error("unknown template stats should fail")
	}
}

func TestCacheEvictionUnderPressure(t *testing.T) {
	sys, err := Open(Options{
		TPCH:          tpch.Config{Scale: 1000, Seed: 5},
		CacheCapacity: 2,
		Online:        onlineForTest(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Register("Q5", queries.Defs[5].SQL); err != nil {
		t.Fatal(err)
	}
	tmpl, _ := sys.Template("Q5")
	// Spread points widely so many distinct plans are optimal.
	pts := workload.Uniform(tmpl.Degree(), 80, 4)
	for _, p := range pts {
		inst, err := sys.Optimizer().InstanceAt(tmpl, p)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sys.Run("Q5", inst.Values); err != nil {
			t.Fatal(err)
		}
		if sys.CacheLen() > 2 {
			t.Fatalf("cache exceeded capacity: %d", sys.CacheLen())
		}
	}
	if sys.CacheEvictions() == 0 {
		t.Error("no evictions despite capacity 2 and a diverse workload")
	}
}

func TestRunValidation(t *testing.T) {
	sys := openSmall(t)
	if _, err := sys.Run("nope", nil); err == nil {
		t.Error("unknown template should fail")
	}
	if err := sys.Register("Q0", queries.Defs[0].SQL); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Run("Q0", []float64{1}); err == nil {
		t.Error("wrong arity should fail")
	}
}

func TestDisableExecution(t *testing.T) {
	sys, err := Open(Options{
		TPCH:             tpch.Config{Scale: 1000, Seed: 5},
		DisableExecution: true,
		Online:           onlineForTest(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Register("Q0", queries.Defs[0].SQL); err != nil {
		t.Fatal(err)
	}
	tmpl, _ := sys.Template("Q0")
	inst, _ := sys.Optimizer().InstanceAt(tmpl, []float64{0.5, 0.5})
	res, err := sys.Run("Q0", inst.Values)
	if err != nil {
		t.Fatal(err)
	}
	if res.Result != nil {
		t.Error("execution disabled but rows returned")
	}
	if res.EstimatedCost <= 0 {
		t.Error("no cost estimate")
	}
}

// TestRegisterRejectsTooManyRelations: the FROM list comes straight from
// caller SQL and the join enumeration's state grows as 2^relations, so
// Register must refuse a list past the optimizer's limit with a typed
// error — registering nothing — instead of sizing allocations by it.
func TestRegisterRejectsTooManyRelations(t *testing.T) {
	sys := openSmall(t)
	regions := func(n int) string {
		var from, where []string
		for i := 0; i < n; i++ {
			from = append(from, fmt.Sprintf("region r%d", i))
			if i > 0 {
				where = append(where, fmt.Sprintf("r%d.r_regionkey = r%d.r_regionkey", i-1, i))
			}
		}
		return "SELECT COUNT(*) FROM " + strings.Join(from, ", ") +
			" WHERE " + strings.Join(where, " AND ") + " AND r0.r_date <= ?"
	}
	err := sys.Register("wide", regions(13))
	var limit *optimizer.JoinLimitError
	if !errors.As(err, &limit) || limit.Relations != 13 {
		t.Fatalf("13 relations: got %v, want a JoinLimitError", err)
	}
	if _, err := sys.Template("wide"); err == nil {
		t.Error("the rejected template is registered")
	}
	if err := sys.Register("wide", regions(12)); err != nil {
		t.Fatalf("12 relations: %v", err)
	}
	res, err := sys.Run("wide", []float64{math.Inf(1)})
	if err != nil {
		t.Fatal(err)
	}
	want := float64(sys.DB().MustTable("region").NumRows())
	if len(res.Result.Rows) != 1 || res.Result.Rows[0][0].Num != want {
		t.Errorf("12-way region self-join counted %v, want %v", res.Result.Rows, want)
	}
}
