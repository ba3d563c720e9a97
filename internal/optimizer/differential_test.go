package optimizer_test

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/optimizer"
	"repro/internal/queries"
	"repro/internal/sqlparse"
	"repro/internal/stats"
)

// genRel describes a table to the template generator: its numeric and
// string columns, and the foreign-key-style equi-joins it can take part in.
type genRel struct {
	table   string
	numCols []string
	strCols []string
}

var genRels = []genRel{
	{"region", []string{"r_regionkey", "r_date"}, []string{"r_name"}},
	{"nation", []string{"n_nationkey", "n_regionkey", "n_date"}, []string{"n_name"}},
	{"supplier", []string{"s_suppkey", "s_nationkey", "s_acctbal", "s_date"}, nil},
	{"part", []string{"p_partkey", "p_size", "p_retailprice", "p_date"}, []string{"p_brand", "p_type"}},
	{"partsupp", []string{"ps_partkey", "ps_suppkey", "ps_availqty", "ps_date"}, nil},
	{"customer", []string{"c_custkey", "c_nationkey", "c_acctbal", "c_date"}, []string{"c_mktsegment"}},
	{"orders", []string{"o_orderkey", "o_custkey", "o_totalprice", "o_orderdate", "o_date"}, []string{"o_orderpriority"}},
	{"lineitem", []string{"l_orderkey", "l_partkey", "l_suppkey", "l_quantity", "l_shipdate", "l_date"}, nil},
}

// genTemplate builds a random template over two to five relations: a chain,
// a star or a (partial) cross product, sometimes with a second join
// predicate on an already-joined pair, one to four `?` range comparisons,
// literal `=`, BETWEEN and string-equality filters, and a global or grouped
// aggregate. Joins are on arbitrary numeric columns — the enumerator only
// needs their statistics — so indexed, clustered and plain columns all end
// up on both sides.
func genTemplate(rng *rand.Rand, name string) (*optimizer.Template, error) {
	n := 2 + rng.Intn(4)
	rels := make([]genRel, n)
	alias := make([]string, n)
	var from, preds []string
	for i := range rels {
		rels[i] = genRels[rng.Intn(len(genRels))]
		alias[i] = fmt.Sprintf("t%d", i)
		from = append(from, rels[i].table+" "+alias[i])
	}
	numCol := func(i int) string {
		return alias[i] + "." + rels[i].numCols[rng.Intn(len(rels[i].numCols))]
	}
	keyCol := func(i int) string { // first columns are the indexed keys
		return alias[i] + "." + rels[i].numCols[rng.Intn(2)]
	}
	join := func(a, b int) {
		if rng.Intn(3) == 0 {
			preds = append(preds, numCol(a)+" = "+numCol(b))
		} else {
			preds = append(preds, keyCol(a)+" = "+keyCol(b))
		}
	}
	shape := rng.Intn(3)
	for i := 1; i < n; i++ {
		switch shape {
		case 0: // chain
			join(i-1, i)
		case 1: // star
			join(0, i)
		case 2: // cross product, partially connected
			if rng.Intn(2) == 0 {
				join(rng.Intn(i), i)
			}
		}
		if rng.Intn(5) == 0 {
			join(rng.Intn(i), i) // cycle or second predicate on a joined pair
		}
	}
	params := 0
	for i, r := range rels {
		lit := func(col string) float64 {
			return testCat.MustColumn(r.table, col).Quantile(rng.Float64())
		}
		for _, col := range r.numCols {
			switch k := rng.Intn(8); {
			case k < 2 && params < 4:
				preds = append(preds, fmt.Sprintf("%s.%s %s ?", alias[i], col, []string{"<=", ">=", "<", ">"}[rng.Intn(4)]))
				params++
			case k == 2:
				lo, hi := lit(col), lit(col)
				preds = append(preds, fmt.Sprintf("%s.%s BETWEEN %.4f AND %.4f", alias[i], col, math.Min(lo, hi), math.Max(lo, hi)))
			case k == 3:
				preds = append(preds, fmt.Sprintf("%s.%s = %.4f", alias[i], col, lit(col)))
			case k == 4:
				preds = append(preds, fmt.Sprintf("%s.%s %s %.4f", alias[i], col, []string{"<=", ">="}[rng.Intn(2)], lit(col)))
			}
		}
		for _, col := range r.strCols {
			if rng.Intn(4) == 0 {
				strs := testDB.MustTable(r.table).MustColumn(col).Strs
				preds = append(preds, fmt.Sprintf("%s.%s = '%s'", alias[i], col, strs[rng.Intn(len(strs))]))
			}
		}
	}
	sel, groupBy := "COUNT(*)", ""
	switch rng.Intn(4) {
	case 1:
		sel = "COUNT(*), SUM(" + numCol(0) + ")"
	case 2:
		c := numCol(rng.Intn(n))
		sel, groupBy = c+", COUNT(*)", " GROUP BY "+c
	case 3:
		sel = numCol(0) // no aggregate at all
	}
	sql := "SELECT " + sel + " FROM " + strings.Join(from, ", ")
	if len(preds) > 0 {
		sql += " WHERE " + strings.Join(preds, " AND ")
	}
	sql += groupBy
	q, err := sqlparse.Parse(sql, queries.Schema)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", sql, err)
	}
	return optimizer.NewTemplate(name, sql, q)
}

// diffTemplates is the differential corpus: the nine standard templates and
// 48 generated ones, built once from a fixed seed so the fuzz target's
// template index is stable.
var diffTemplates = sync.OnceValue(func() []*optimizer.Template {
	out := queries.MustTemplates()
	rng := rand.New(rand.NewSource(1303))
	for i := 0; i < 48; i++ {
		tm, err := genTemplate(rng, fmt.Sprintf("G%d", i))
		if err != nil {
			panic(err)
		}
		out = append(out, tm)
	}
	return out
})

// diffPoints returns the plan-space points a template is compared at:
// uniform seeded points, then the corners — all-0, all-1, and each
// coordinate at each extreme with the others centered.
func diffPoints(rng *rand.Rand, degree, uniform int) [][]float64 {
	fill := func(v float64) []float64 {
		p := make([]float64, degree)
		for i := range p {
			p[i] = v
		}
		return p
	}
	var out [][]float64
	for i := 0; i < uniform; i++ {
		p := make([]float64, degree)
		for j := range p {
			p[j] = rng.Float64()
		}
		out = append(out, p)
	}
	out = append(out, fill(0), fill(1))
	for i := 0; i < degree; i++ {
		for _, v := range []float64{0, 1} {
			p := fill(0.5)
			p[i] = v
			out = append(out, p)
		}
	}
	return out
}

// samePlan holds got to want: the whole plan deeply equal (nil versus empty
// filter lists included) and the cost equal to the bit.
func samePlan(got, want *optimizer.Plan) error {
	if math.Float64bits(got.Cost) != math.Float64bits(want.Cost) {
		return fmt.Errorf("cost %v (%#x), reference %v (%#x); plan %s, reference %s",
			got.Cost, math.Float64bits(got.Cost), want.Cost, math.Float64bits(want.Cost), got.Fingerprint, want.Fingerprint)
	}
	if !reflect.DeepEqual(got, want) {
		return fmt.Errorf("plans differ:\n%sreference:\n%s", got, want)
	}
	return nil
}

// diffAt compares production and reference at one point: OptimizeMemo's
// whole plan, and the plan OptimizeMemoHeld names when the caller holds
// every winner — the reference's fingerprint, asked of held, and its cost
// to the bit, with no tree.
func diffAt(o *optimizer.Optimizer, tm *optimizer.Template, memo *optimizer.Memo, ref *optimizer.ReferenceMemo, point []float64) error {
	inst, err := o.InstanceAt(tm, point)
	if err != nil {
		return err
	}
	want, werr := o.ReferenceOptimize(ref, inst.Values)
	got, gerr := o.OptimizeMemo(memo, inst.Values)
	if werr != nil || gerr != nil {
		return fmt.Errorf("optimize: %v, reference: %v", gerr, werr)
	}
	if err := samePlan(got, want); err != nil {
		return fmt.Errorf("point %v: %w", point, err)
	}
	var asked []string
	named, err := o.OptimizeMemoHeld(memo, inst.Values, func(fp string) bool {
		asked = append(asked, fp)
		return true
	})
	if err != nil {
		return fmt.Errorf("point %v: held: %v", point, err)
	}
	if named.Root != nil || len(asked) != 1 || asked[0] != want.Fingerprint {
		return fmt.Errorf("point %v: held winner built a tree (%v) or asked %q, want %q once", point, named.Root != nil, asked, want.Fingerprint)
	}
	if err := samePlan(named, &optimizer.Plan{Cost: want.Cost, Fingerprint: want.Fingerprint}); err != nil {
		return fmt.Errorf("point %v: held: %w", point, err)
	}
	return nil
}

// correctedQuery returns a copy of q carrying fresh corrections, warmed so
// they publish from the next observation: the template's own query stays
// uncorrected for the tests sharing it.
func correctedQuery(q *optimizer.Query) *optimizer.Query {
	cq := *q
	cq.Corr = stats.NewCorrections(len(q.Preds))
	warm(cq.Corr)
	return &cq
}

// warm feeds every site of c three exact observations: past the cold-start
// passthrough, at the identity factor, so each later observation moves a
// published factor.
func warm(c *stats.Corrections) {
	for i := 0; i < 3; i++ {
		for site := 1; site <= c.NSites(); site++ {
			c.Apply([]stats.Obs{{Site: site}})
		}
	}
}

// TestOptimizeMatchesReference is the contract of the cost-first
// enumerator: for every template and point it picks the plan the
// node-building reference picks, field for field and bit for bit — under
// the base provider, and with corrections on the query whose factors move
// before every call, which both read as they are at the call.
func TestOptimizeMatchesReference(t *testing.T) {
	for ti, tm := range diffTemplates() {
		uniform := 300
		if ti >= len(queries.Defs) {
			uniform = 40
		}
		if testing.Short() {
			uniform /= 10
		}
		tm := tm
		t.Run(tm.Name, func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(int64(ti)))
			points := diffPoints(rng, tm.Degree(), uniform)

			for _, q := range []*optimizer.Query{tm.Query, correctedQuery(tm.Query)} {
				memo, err := opt.NewMemo(q)
				if err != nil {
					t.Fatalf("%s: %v", tm.SQL, err)
				}
				ref, err := opt.NewReferenceMemo(q)
				if err != nil {
					t.Fatal(err)
				}
				for _, p := range points {
					if q.Corr != nil {
						q.Corr.Apply([]stats.Obs{{Site: 1 + rng.Intn(len(q.Preds)), LogQ: rng.NormFloat64() * 1.5}})
					}
					if err := diffAt(opt, tm, memo, ref, p); err != nil {
						t.Fatalf("corrections %v: %s: %v", q.Corr != nil, tm.SQL, err)
					}
				}
			}
		})
	}
}

// TestOptimizeMatchesReferenceConcurrent shares one Memo between eight
// goroutines (the serving system's misses and audits do): the pooled
// scratch must not leak state between calls. Run under -race.
func TestOptimizeMatchesReferenceConcurrent(t *testing.T) {
	for _, name := range []string{"Q3", "Q8"} {
		tm := tmpl(t, name)
		memo, err := opt.NewMemo(tm.Query)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := opt.NewReferenceMemo(tm.Query)
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(g)))
				for _, p := range diffPoints(rng, tm.Degree(), 60) {
					if err := diffAt(opt, tm, memo, ref, p); err != nil {
						t.Errorf("%s goroutine %d: %v", name, g, err)
						return
					}
				}
			}(g)
		}
		wg.Wait()
	}
}

// TestNearTieOrderMatchesFingerprints checks the structural near-tie order
// directly: every pair of entries the enumeration keeps must order as the
// fingerprints of their materialised trees do.
func TestNearTieOrderMatchesFingerprints(t *testing.T) {
	pairs := 0
	for ti, tm := range diffTemplates() {
		memo, err := opt.NewMemo(tm.Query)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(int64(ti)))
		for _, p := range diffPoints(rng, tm.Degree(), 3) {
			inst, err := opt.InstanceAt(tm, p)
			if err != nil {
				t.Fatal(err)
			}
			n, err := opt.CheckPrintOrder(memo, inst.Values)
			if err != nil {
				t.Fatalf("%s: %v", tm.SQL, err)
			}
			pairs += n
		}
	}
	if pairs < 10000 {
		t.Errorf("only %d entry pairs compared", pairs)
	}
}

// FuzzOptimizeMatchesReference lets the fuzzer pick the template, the
// point and the corrections: two bytes per coordinate, missing bytes read as
// the center, and one observation per factor byte — byte i moves site
// 1 + i mod (predicates) by a log q-error of (b-128)/32, so a factor reaches
// either clamp. Both enumerators read the corrections on the query.
func FuzzOptimizeMatchesReference(f *testing.F) {
	f.Add(uint8(3), []byte{}, []byte{})
	f.Add(uint8(8), []byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}, []byte{})
	f.Add(uint8(8), []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff}, []byte{0xff, 0, 0xff, 0, 0xff})
	f.Add(uint8(4), []byte{0x10, 0x00, 0xf0, 0x00, 0x80, 0x00}, []byte{0x20, 0xe0, 0x40, 0xc0})
	f.Add(uint8(1), []byte{0x02, 0x8f, 0x7a, 0xe1}, []byte{0x80})
	f.Add(uint8(20), []byte{0x33, 0x33, 0xcc, 0xcc}, []byte{0, 0, 0, 0, 0, 0, 0, 0})
	f.Add(uint8(47), []byte{0x01}, []byte{0xf0, 0x10})
	f.Add(uint8(5), []byte{0x40, 0x00, 0xc0, 0x00}, []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff})
	type memos struct {
		q    *optimizer.Query
		memo *optimizer.Memo
		ref  *optimizer.ReferenceMemo
	}
	var cache sync.Map // template index -> memos
	f.Fuzz(func(t *testing.T, ti uint8, raw, factors []byte) {
		tms := diffTemplates()
		k := int(ti) % len(tms)
		tm := tms[k]
		v, ok := cache.Load(k)
		if !ok {
			q := correctedQuery(tm.Query)
			memo, err := opt.NewMemo(q)
			if err != nil {
				t.Fatal(err)
			}
			ref, err := opt.NewReferenceMemo(q)
			if err != nil {
				t.Fatal(err)
			}
			v, _ = cache.LoadOrStore(k, memos{q, memo, ref})
		}
		ms := v.(memos)
		ms.q.Corr.Adopt(nil) //nolint:errcheck // nil always adopts
		warm(ms.q.Corr)
		for i, b := range factors {
			ms.q.Corr.Apply([]stats.Obs{{Site: 1 + i%len(ms.q.Preds), LogQ: (float64(b) - 128) / 32}})
		}
		point := make([]float64, tm.Degree())
		for i := range point {
			point[i] = 0.5
			if len(raw) >= 2*i+2 {
				point[i] = float64(uint16(raw[2*i])<<8|uint16(raw[2*i+1])) / math.MaxUint16
			}
		}
		if err := diffAt(opt, tm, ms.memo, ms.ref, point); err != nil {
			t.Fatalf("%s at factors %x: %v", tm.SQL, factors, err)
		}
	})
}
