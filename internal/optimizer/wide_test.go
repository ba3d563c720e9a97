package optimizer_test

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/optimizer"
	"repro/internal/queries"
	"repro/internal/sqlparse"
	"repro/internal/stats"
)

// wideTemplate builds a COUNT(*) template over n relations drawn from
// genRels: a chain (relation i joins i-1) or a star (every relation joins
// relation 0), mostly key to key so index nested-loop and merge joins on
// indexed keys compete, with four `?` range comparisons on distinct
// relations and a few literal filters. It is separate from genTemplate so
// the fuzz target's template indices stay stable.
func wideTemplate(rng *rand.Rand, name string, star bool, n int) (*optimizer.Template, error) {
	rels := make([]genRel, n)
	var from, preds []string
	for i := range rels {
		rels[i] = genRels[rng.Intn(len(genRels))]
		from = append(from, fmt.Sprintf("%s t%d", rels[i].table, i))
	}
	col := func(i, upTo int) string {
		return fmt.Sprintf("t%d.%s", i, rels[i].numCols[rng.Intn(upTo)])
	}
	for i := 1; i < n; i++ {
		left := i - 1
		if star {
			left = 0
		}
		if rng.Intn(4) == 0 {
			preds = append(preds, col(left, len(rels[left].numCols))+" = "+col(i, len(rels[i].numCols)))
		} else { // first columns are the indexed keys
			preds = append(preds, col(left, 2)+" = "+col(i, 2))
		}
	}
	for k, i := range rng.Perm(n)[:4] {
		preds = append(preds, fmt.Sprintf("%s %s ?", col(i, len(rels[i].numCols)), []string{"<=", ">="}[k%2]))
	}
	for i, r := range rels {
		if rng.Intn(3) == 0 {
			c := r.numCols[rng.Intn(len(r.numCols))]
			v := testCat.MustColumn(r.table, c).Quantile(rng.Float64())
			preds = append(preds, fmt.Sprintf("t%d.%s <= %.4f", i, c, v))
		}
	}
	sql := "SELECT COUNT(*) FROM " + strings.Join(from, ", ") + " WHERE " + strings.Join(preds, " AND ")
	q, err := sqlparse.Parse(sql, queries.Schema)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", sql, err)
	}
	return optimizer.NewTemplate(name, sql, q)
}

// wideShapes are the chain and star templates at 6, 8 and the enumeration's
// limit of 12 relations, each from its own seed.
var wideShapes = []struct {
	star bool
	n    int
}{{false, 6}, {true, 6}, {false, 8}, {true, 8}, {false, 12}, {true, 12}}

func mustWide(t *testing.T, i int) *optimizer.Template {
	t.Helper()
	s := wideShapes[i]
	name := fmt.Sprintf("chain%d", s.n)
	if s.star {
		name = fmt.Sprintf("star%d", s.n)
	}
	tm, err := wideTemplate(rand.New(rand.NewSource(int64(4700+i))), name, s.star, s.n)
	if err != nil {
		t.Fatal(err)
	}
	return tm
}

// TestWideTemplatesMatchReference holds the enumerator to the reference on
// the widest FROM lists, where candidate sets are most numerous: chain and
// star templates of 6, 8 and 12 relations, at seeded uniform points, under
// the base provider and with corrections that move before every call.
func TestWideTemplatesMatchReference(t *testing.T) {
	points := 3
	if testing.Short() {
		points = 1
	}
	for i := range wideShapes {
		tm := mustWide(t, i)
		// Not parallel: a twelve-relation reference call holds a few
		// hundred MB under -race.
		t.Run(tm.Name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(i)))
			for _, q := range []*optimizer.Query{tm.Query, correctedQuery(tm.Query)} {
				memo, err := opt.NewMemo(q)
				if err != nil {
					t.Fatalf("%s: %v", tm.SQL, err)
				}
				ref, err := opt.NewReferenceMemo(q)
				if err != nil {
					t.Fatal(err)
				}
				for _, p := range diffPoints(rng, tm.Degree(), points)[:points] {
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

// TestOfferSequenceUnchanged counts what the enumeration does at seeded
// points: the candidates offered to the sets (fixed by the contract that the
// sequence of offers, not only the winner, is the reference's) and the
// fingerprint-segment comparisons its near-ties make. The offer counts are
// the ones the enumerator recorded before offer found its slot by order id
// and read entries in place; a change that prunes or adds offers fails here
// even where the winners survive it.
func TestOfferSequenceUnchanged(t *testing.T) {
	want := map[string]int{"Q3": 1425, "Q4": 840, "Q8": 3700, "chain8": 129570}
	for _, tm := range []*optimizer.Template{tmpl(t, "Q3"), tmpl(t, "Q4"), tmpl(t, "Q8"), mustWide(t, 2)} {
		memo, err := opt.NewMemo(tm.Query)
		if err != nil {
			t.Fatal(err)
		}
		offers, segCmps := 0, 0
		for _, p := range diffPoints(rand.New(rand.NewSource(47)), tm.Degree(), 5)[:5] {
			inst, err := opt.InstanceAt(tm, p)
			if err != nil {
				t.Fatal(err)
			}
			o, s := opt.CountOffers(memo, inst.Values)
			offers, segCmps = offers+o, segCmps+s
		}
		t.Logf("%s: %d offers, %d segment comparisons over 5 points", tm.Name, offers, segCmps)
		if offers != want[tm.Name] {
			t.Errorf("%s: %d offers over 5 points, want %d", tm.Name, offers, want[tm.Name])
		}
	}
}

// TestPrefixedSegmentsRefused joins customer to two orders relations, one
// aliased "o.o_custkey](", which no SQL text can spell: the header
// "HJ[c.c_custkey=o.o_custkey](" is then a proper prefix of
// "HJ[c.c_custkey=o.o_custkey](.o_custkey](", segment ranks would no
// longer order fingerprints, and the optimizer refuses the query.
func TestPrefixedSegmentsRefused(t *testing.T) {
	const sql = `SELECT COUNT(*) FROM customer c, orders o, orders z
		WHERE c.c_custkey = o.o_custkey AND c.c_custkey = z.o_custkey
		AND c.c_date <= ? AND o.o_date <= ? AND z.o_orderdate <= ?`
	q, err := sqlparse.Parse(sql, queries.Schema)
	if err != nil {
		t.Fatal(err)
	}
	// Only the third FROM entry and the predicates name z (COUNT(*) does not).
	rename := func(c *optimizer.ColRef) {
		if c.Alias == "z" {
			c.Alias = "o.o_custkey]("
		}
	}
	q.Tables[2].Alias = "o.o_custkey]("
	for i := range q.Preds {
		rename(&q.Preds[i].Col)
		rename(&q.Preds[i].RightCol)
	}
	tm, err := optimizer.NewTemplate("prefixed", sql, q)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := opt.NewMemo(tm.Query); err == nil || !strings.Contains(err.Error(), "prefix") {
		t.Fatalf("NewMemo: %v, want a prefixed-segment error", err)
	}
	if _, err := opt.Optimize(tm.Query, make([]float64, tm.Degree())); err == nil {
		t.Fatal("Optimize accepted the query")
	}
}
