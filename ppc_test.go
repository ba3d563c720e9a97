package ppc

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/executor"
	"repro/internal/optimizer"
	"repro/internal/queries"
	"repro/internal/tpch"
	"repro/internal/wal"
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

// TestRunResultsMatchDirectExecution: whatever the cache decides, a Run
// returns the rows a fresh optimize-and-execute of the same instance gives
// on the tree-walk reference engine. The corpus is the nine standard
// templates plus 40 fuzzed ones, each driven across its plan space so
// several plan shapes are interned; every Register and Run succeeding means
// every interned plan compiled.
func TestRunResultsMatchDirectExecution(t *testing.T) {
	sys := openSmall(t)
	runs := make(map[string]int)
	for _, d := range queries.Defs {
		if err := sys.Register(d.Name, d.SQL); err != nil {
			t.Fatal(err)
		}
		runs[d.Name] = 40
	}
	rng := rand.New(rand.NewSource(97))
	for i := 0; i < 40; i++ {
		name, sql := fmt.Sprintf("F%d", i), fuzzTemplate(rng, sys)
		if err := sys.Register(name, sql); err != nil {
			t.Fatalf("%s: %q: %v", name, sql, err)
		}
		runs[name] = 12
	}
	for _, name := range sys.TemplateNames() {
		tmpl, _ := sys.Template(name)
		prng := rand.New(rand.NewSource(2))
		for i := 0; i < runs[name]; i++ {
			point := make([]float64, tmpl.Degree())
			for d := range point {
				point[d] = prng.Float64()
			}
			inst, err := sys.Optimizer().InstanceAt(tmpl, point)
			if err != nil {
				t.Fatal(err)
			}
			res, err := sys.Run(name, inst.Values)
			if err != nil {
				t.Fatalf("%s run %d: %v (%s)", name, i, err, tmpl.SQL)
			}
			fresh, err := sys.Optimizer().OptimizeInstance(inst)
			if err != nil {
				t.Fatal(err)
			}
			direct, err := execDirect(sys, fresh)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := canonRows(res.Result), canonRows(direct); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s run %d: cached path returned %d rows, direct %d, or they differ (%s)",
					name, i, len(got), len(want), tmpl.SQL)
			}
		}
	}
}

// canonRows renders a result's rows in an order-independent form: plans of
// one instance may emit the same rows (and groups) in different orders, and
// sum the same values in different orders.
func canonRows(r *executor.Result) []string {
	out := make([]string, len(r.Rows))
	for i, row := range r.Rows {
		var b strings.Builder
		for _, v := range row {
			if v.IsStr {
				b.WriteString(v.Str)
			} else {
				fmt.Fprintf(&b, "%.9g", v.Num)
			}
			b.WriteByte('|')
		}
		out[i] = b.String()
	}
	sort.Strings(out)
	return out
}

// fuzzTemplate generates a random parameterized template over the standard
// schema — the serving-level counterpart of the executor equivalence suite's
// literal-only fuzz corpus, since Run serves only templates: one table or a
// foreign-key pair, one to three `?` range comparisons with random
// operators, literal BETWEEN and string-equality filters on the side, and a
// global or grouped aggregate.
func fuzzTemplate(rng *rand.Rand, sys *System) string {
	type rel struct {
		table, alias string
		numCols      []string
		strCols      []string
		parent       string // "alias|join predicate", or empty
	}
	rels := []rel{
		{"nation", "n", []string{"n_nationkey", "n_regionkey", "n_date"}, []string{"n_name"}, ""},
		{"supplier", "s", []string{"s_suppkey", "s_nationkey", "s_date"}, nil, "n|s.s_nationkey = n.n_nationkey"},
		{"part", "p", []string{"p_partkey", "p_size", "p_retailprice", "p_date"}, []string{"p_brand", "p_type"}, ""},
		{"customer", "c", []string{"c_custkey", "c_nationkey", "c_date"}, []string{"c_mktsegment"}, "n|c.c_nationkey = n.n_nationkey"},
		{"orders", "o", []string{"o_orderkey", "o_custkey", "o_totalprice", "o_orderdate"}, []string{"o_orderpriority"}, "c|o.o_custkey = c.c_custkey"},
		{"lineitem", "l", []string{"l_orderkey", "l_quantity", "l_extendedprice", "l_shipdate"}, nil, "o|l.l_orderkey = o.o_orderkey"},
	}
	chosen := []rel{rels[rng.Intn(len(rels))]}
	var preds []string
	if alias, join, ok := strings.Cut(chosen[0].parent, "|"); ok && rng.Intn(2) == 0 {
		for _, r := range rels {
			if r.alias == alias {
				chosen = append(chosen, r)
			}
		}
		preds = append(preds, join)
	}
	params := 0
	for _, r := range chosen {
		lit := func(col string) string {
			return fmt.Sprintf("%.4f", sys.Catalog().MustColumn(r.table, col).Quantile(rng.Float64()))
		}
		for i, col := range r.numCols {
			switch {
			case params < 3 && (rng.Intn(3) == 0 || params == 0 && i == len(r.numCols)-1):
				preds = append(preds, fmt.Sprintf("%s.%s %s ?", r.alias, col, []string{"<=", ">=", "<", ">"}[rng.Intn(4)]))
				params++
			case rng.Intn(4) == 0:
				preds = append(preds, fmt.Sprintf("%s.%s BETWEEN %s AND %s", r.alias, col, lit(col), lit(col)))
			}
		}
		for _, col := range r.strCols {
			if rng.Intn(3) == 0 {
				strs := sys.DB().MustTable(r.table).MustColumn(col).Strs
				preds = append(preds, fmt.Sprintf("%s.%s = '%s'", r.alias, col, strs[rng.Intn(len(strs))]))
			}
		}
	}
	first := chosen[0]
	col := first.alias + "." + first.numCols[rng.Intn(len(first.numCols))]
	sel, groupBy := "COUNT(*)", ""
	switch rng.Intn(3) {
	case 1:
		sel = "COUNT(*), SUM(" + col + ")"
	case 2:
		sel, groupBy = col+", COUNT(*)", " GROUP BY "+col
	}
	var from []string
	for _, r := range chosen {
		from = append(from, r.table+" "+r.alias)
	}
	return "SELECT " + sel + " FROM " + strings.Join(from, ", ") + " WHERE " + strings.Join(preds, " AND ") + groupBy
}

// TestTemplateMetrics: one template's metrics are exactly its element of the
// whole snapshot, and an unknown name is an error.
func TestTemplateMetrics(t *testing.T) {
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
	st, err := sys.TemplateMetrics("Q0")
	if err != nil {
		t.Fatal(err)
	}
	if st.Template != "Q0" || st.Degree != 2 || st.Learner.SamplesAbsorbed == 0 || st.Learner.SynopsisBytes == 0 {
		t.Errorf("metrics = %+v", st)
	}
	snap, err := sys.MetricsSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Templates) != 1 || !reflect.DeepEqual(snap.Templates[0], st) {
		t.Errorf("TemplateMetrics(Q0) is not the snapshot's Q0 element:\n one: %+v\n all: %+v", st, snap.Templates)
	}
	if _, err := sys.TemplateMetrics("nope"); err == nil {
		t.Error("unknown template metrics should fail")
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
	// NaN is neither a parameter value nor a plan-space point; ±Inf is a
	// bound like any other, past every row.
	if err := sys.Register("Q1", queries.Defs[1].SQL); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Run("Q1", []float64{math.NaN(), 1200}); err == nil {
		t.Error("a NaN value should fail")
	}
	tmpl, err := sys.Template("Q1")
	if err != nil {
		t.Fatal(err)
	}
	if inst, err := sys.Optimizer().InstanceAt(tmpl, []float64{math.NaN(), 0.4}); err == nil {
		t.Errorf("a NaN coordinate became values %v", inst.Values)
	}
	inf, err := sys.Run("Q1", []float64{math.Inf(1), 1200})
	if err != nil {
		t.Fatal(err)
	}
	big, err := sys.Run("Q1", []float64{1e9, 1200})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(inf.Point, big.Point) || len(inf.Result.Rows) != len(big.Result.Rows) {
		t.Errorf("[+Inf, 1200] ran at %v with %d rows, [1e9, 1200] at %v with %d",
			inf.Point, len(inf.Result.Rows), big.Point, len(big.Result.Rows))
	}
}

// TestRunOptimizesAtItsOwnValues: when a run invokes the optimizer — on the
// learner's request, degraded, or on a cache miss — it optimizes the
// instance the caller bound, not one rebuilt from the instance's plan space
// point through the catalog's quantile inverse (which round-trips a value
// only to within an ulp or a histogram bucket). The values here come
// straight from each parameter column's domain, never through InstanceAt,
// and every invoked run must report exactly the plan and cost a direct
// optimization of those values yields.
func TestRunOptimizesAtItsOwnValues(t *testing.T) {
	sys, err := Open(Options{
		TPCH:                 tpch.Config{Scale: 1000, Seed: 5},
		Online:               onlineForTest(),
		FeedbackQueue:        -1,
		disableAdaptiveStats: true, // costs depend on the values alone
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.RegisterStandard(); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(19))
	invoked := 0
	for _, d := range queries.Defs {
		tmpl, err := sys.Template(d.Name)
		if err != nil {
			t.Fatal(err)
		}
		lo, hi := make([]float64, tmpl.Degree()), make([]float64, tmpl.Degree())
		for i := range lo {
			pred := tmpl.ParamPredicate(i)
			cs, err := sys.Catalog().Column(tmpl.Query.Binding(pred.Col.Alias).Table, pred.Col.Column)
			if err != nil {
				t.Fatal(err)
			}
			lo[i], hi[i] = cs.Quantile(0), cs.Quantile(1)
		}
		for n := 0; n < 300; n++ {
			values := make([]float64, tmpl.Degree())
			for i := range values {
				values[i] = lo[i] + rng.Float64()*(hi[i]-lo[i])
			}
			res, err := sys.Run(d.Name, values)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Invoked {
				continue
			}
			invoked++
			want, err := sys.Optimizer().OptimizeInstance(optimizer.Instance{Template: tmpl, Values: values})
			if err != nil {
				t.Fatal(err)
			}
			if res.Fingerprint != want.Fingerprint || res.EstimatedCost != want.Cost {
				t.Errorf("%s at %v: run reports plan %s at cost %v (%#x), optimizing these values gives %s at %v (%#x)",
					d.Name, values, res.Fingerprint, res.EstimatedCost, math.Float64bits(res.EstimatedCost),
					want.Fingerprint, want.Cost, math.Float64bits(want.Cost))
			}
		}
	}
	if invoked < 500 {
		t.Fatalf("only %d of %d runs invoked the optimizer; test is vacuous", invoked, 300*len(queries.Defs))
	}
}

// TestNamedWinnerIsTheBuiltOne: run.optimize takes a winner the cache
// holds by its name alone, building no tree. Through a four-plan cache that
// three multi-join templates at uniform points keep churning, every invoked
// run must still report the plan id, fingerprint and cost bits that
// OptimizeMemo on the template's memo and Registry.ID give, and a winner
// that was evicted must come back compiled.
func TestNamedWinnerIsTheBuiltOne(t *testing.T) {
	sys, err := Open(Options{
		TPCH:          tpch.Config{Scale: 1000, Seed: 2012},
		Online:        onlineForTest(),
		CacheCapacity: 4,
		FeedbackQueue: -1, // feedback applies inside the run that makes it
	})
	if err != nil {
		t.Fatal(err)
	}
	names := []string{"Q3", "Q4", "Q8"}
	for _, name := range names {
		if err := sys.Register(name, mustSQL(t, name)); err != nil {
			t.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(2012))
	var held, returned int
	seen := map[int]bool{}
	for i := 0; i < 900; i++ {
		st, err := sys.lookup(names[i%len(names)])
		if err != nil {
			t.Fatal(err)
		}
		point := make([]float64, st.tmpl.Degree())
		for j := range point {
			point[j] = rng.Float64()
		}
		inst, err := sys.Optimizer().InstanceAt(st.tmpl, point)
		if err != nil {
			t.Fatal(err)
		}
		// What the run's optimizer call will see: corrections move only
		// with the run's own feedback, which follows it.
		want, err := sys.opt.OptimizeMemo(st.memo, inst.Values)
		if err != nil {
			t.Fatal(err)
		}
		before := map[int]bool{}
		for _, id := range cachedPlanIDs(sys) {
			before[id] = true
		}
		res, err := sys.Run(st.tmpl.Name, inst.Values)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Invoked {
			continue
		}
		id := sys.reg.ID(want.Fingerprint)
		if res.PlanID != id || res.Fingerprint != want.Fingerprint || math.Float64bits(res.EstimatedCost) != math.Float64bits(want.Cost) {
			t.Fatalf("run %d (%s): plan %d %s at %v, OptimizeMemo says %d %s at %v",
				i, st.tmpl.Name, res.PlanID, res.Fingerprint, res.EstimatedCost, id, want.Fingerprint, want.Cost)
		}
		entry := sys.cachedPlanOf(st, id)
		if entry == nil || entry.prog == nil || entry.rebind == nil || entry.plan.Root == nil {
			t.Fatalf("run %d (%s): winner %d is not cached compiled after the run", i, st.tmpl.Name, id)
		}
		switch {
		case before[id]:
			held++
		case seen[id]:
			returned++
		}
		seen[id] = true
	}
	t.Logf("%d winners named from the cache, %d evicted winners rebuilt, %d plans seen", held, returned, len(seen))
	if held == 0 || returned == 0 {
		t.Errorf("%d winners named from the cache, %d evicted winners rebuilt: both paths must run", held, returned)
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

// TestRegisterRejectsIllTypedTemplates: Register is where a template the
// compiled engine cannot express is refused — with a typed error, leaving
// nothing registered — because Run has no second engine to fall back to,
// and the reference engine's answers to them are meaningless (MAX over a
// string column is 0, a numeric-to-string join has no rows). String
// equi-joins are supported, as hash joins.
func TestRegisterRejectsIllTypedTemplates(t *testing.T) {
	sys := openSmall(t)
	for name, sql := range map[string]string{
		"strmax":   "SELECT COUNT(*), MAX(p.p_brand) FROM part p WHERE p.p_size <= ?",
		"mixedkey": "SELECT COUNT(*) FROM part p, partsupp ps WHERE p.p_brand = ps.ps_partkey AND p.p_size <= ?",
		"numstr":   "SELECT COUNT(*) FROM part p WHERE p.p_brand <= ?",
		"strnum":   "SELECT COUNT(*) FROM part p WHERE p.p_size = 'x' AND p.p_date <= ?",
	} {
		err := sys.Register(name, sql)
		var te *optimizer.TypeError
		if !errors.As(err, &te) {
			t.Errorf("%s: got %v, want a TypeError", name, err)
		}
		if _, err := sys.Template(name); err == nil {
			t.Errorf("%s: the rejected template is registered", name)
		}
	}

	sql := "SELECT COUNT(*), COUNT(p1.p_type) FROM part p1, part p2 WHERE p1.p_brand = p2.p_brand AND p1.p_size <= ?"
	if err := sys.Register("strjoin", sql); err != nil {
		t.Fatal(err)
	}
	tmpl, _ := sys.Template("strjoin")
	for _, sel := range []float64{0.1, 0.5, 0.9, 0.5} {
		inst, err := sys.Optimizer().InstanceAt(tmpl, []float64{sel})
		if err != nil {
			t.Fatal(err)
		}
		res, err := sys.Run("strjoin", inst.Values)
		if err != nil {
			t.Fatal(err)
		}
		if strings.Contains(res.Fingerprint, "MJ[") {
			t.Errorf("merge join on a string key: %s", res.Fingerprint)
		}
		fresh, err := sys.Optimizer().OptimizeInstance(inst)
		if err != nil {
			t.Fatal(err)
		}
		direct, err := execDirect(sys, fresh)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := canonRows(res.Result), canonRows(direct); !reflect.DeepEqual(got, want) || got[0] == "0|0|" {
			t.Errorf("selectivity %v: compiled string hash join returned %v, tree-walk reference %v", sel, got, want)
		}
	}
}

// TestRegisterBoundsTemplateName: a template name travels under a u16
// length in WAL records, wire messages and snapshots, so Register refuses
// one longer than wal.MaxTemplateName (and an empty one) rather than admit
// a name whose records would frame with a wrapped length.
func TestRegisterBoundsTemplateName(t *testing.T) {
	sys := openSmall(t)
	sql := mustSQL(t, "Q1")
	for _, name := range []string{"", strings.Repeat("n", 1<<16)} {
		if err := sys.Register(name, sql); err == nil {
			t.Errorf("Register of a %d-byte name succeeded", len(name))
		}
	}
	if err := sys.Register(strings.Repeat("n", wal.MaxTemplateName), sql); err != nil {
		t.Errorf("Register of a name at the bound: %v", err)
	}
}
