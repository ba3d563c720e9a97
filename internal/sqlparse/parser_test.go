package sqlparse

import (
	"strings"
	"testing"

	"repro/internal/optimizer"
)

var testSchema = SchemaMap{
	"lineitem": {"l_orderkey", "l_partkey", "l_suppkey", "l_quantity", "l_shipdate", "l_date"},
	"orders":   {"o_orderkey", "o_custkey", "o_totalprice", "o_orderdate", "o_orderpriority"},
	"customer": {"c_custkey", "c_nationkey", "c_mktsegment", "c_acctbal"},
	"supplier": {"s_suppkey", "s_nationkey", "s_date", "s_acctbal"},
}

func TestParseSimpleSelect(t *testing.T) {
	q, err := Parse("SELECT l_orderkey FROM lineitem WHERE l_shipdate <= ?", testSchema)
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Tables) != 1 || q.Tables[0].Table != "lineitem" || q.Tables[0].Alias != "lineitem" {
		t.Errorf("tables = %+v", q.Tables)
	}
	if len(q.Preds) != 1 {
		t.Fatalf("preds = %+v", q.Preds)
	}
	p := q.Preds[0]
	if p.Kind != optimizer.PredCmpNum || p.Op != optimizer.OpLE || p.ParamIdx != 0 {
		t.Errorf("pred = %+v", p)
	}
	if p.Col.Alias != "lineitem" || p.Col.Column != "l_shipdate" {
		t.Errorf("pred col = %+v", p.Col)
	}
	if q.ParamDegree() != 1 {
		t.Errorf("ParamDegree = %d", q.ParamDegree())
	}
}

func TestParseJoinWithAliases(t *testing.T) {
	sql := `SELECT o.o_orderkey, COUNT(*)
	        FROM orders o, lineitem l, customer c
	        WHERE l.l_orderkey = o.o_orderkey AND o.o_custkey = c.c_custkey
	          AND l.l_shipdate <= ? AND c.c_acctbal >= ?
	        GROUP BY o.o_orderkey`
	q, err := Parse(sql, testSchema)
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Tables) != 3 {
		t.Fatalf("tables = %+v", q.Tables)
	}
	joins, params := 0, 0
	for _, p := range q.Preds {
		switch p.Kind {
		case optimizer.PredJoin:
			joins++
		case optimizer.PredCmpNum:
			if p.ParamIdx >= 0 {
				params++
			}
		}
	}
	if joins != 2 || params != 2 {
		t.Errorf("joins=%d params=%d", joins, params)
	}
	if len(q.GroupBy) != 1 || q.GroupBy[0].Alias != "o" {
		t.Errorf("groupby = %+v", q.GroupBy)
	}
	if len(q.Select) != 2 || q.Select[1].Agg != optimizer.AggCount {
		t.Errorf("select = %+v", q.Select)
	}
}

func TestParseUnqualifiedColumnsResolve(t *testing.T) {
	q, err := Parse("SELECT o_orderkey FROM orders, customer WHERE o_custkey = c_custkey AND c_acctbal <= ?", testSchema)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range q.Preds {
		if p.Col.Alias == "" {
			t.Errorf("unresolved alias in %v", p)
		}
	}
	if q.Preds[0].Col.Alias != "orders" || q.Preds[0].RightCol.Alias != "customer" {
		t.Errorf("join resolution = %v", q.Preds[0])
	}
}

func TestParseParameterNumbering(t *testing.T) {
	q, err := Parse("SELECT COUNT(*) FROM lineitem WHERE l_shipdate <= ? AND l_quantity >= ? AND l_partkey <= ?", testSchema)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range q.Preds {
		if p.ParamIdx != i {
			t.Errorf("pred %d has ParamIdx %d", i, p.ParamIdx)
		}
	}
	if q.ParamDegree() != 3 {
		t.Errorf("ParamDegree = %d", q.ParamDegree())
	}
}

func TestParseStringAndConstantPredicates(t *testing.T) {
	q, err := Parse("SELECT c_custkey FROM customer WHERE c_mktsegment = 'BUILDING' AND c_acctbal >= 100.5 AND c_nationkey BETWEEN 3 AND 7", testSchema)
	if err != nil {
		t.Fatal(err)
	}
	if q.Preds[0].Kind != optimizer.PredCmpStr || q.Preds[0].StrValue != "BUILDING" {
		t.Errorf("string pred = %+v", q.Preds[0])
	}
	if q.Preds[1].Kind != optimizer.PredCmpNum || q.Preds[1].Value != 100.5 || q.Preds[1].ParamIdx != -1 {
		t.Errorf("const pred = %+v", q.Preds[1])
	}
	if q.Preds[2].Kind != optimizer.PredBetween || q.Preds[2].Lo != 3 || q.Preds[2].Hi != 7 {
		t.Errorf("between pred = %+v", q.Preds[2])
	}
}

func TestParseAggregates(t *testing.T) {
	q, err := Parse("SELECT SUM(l_quantity), AVG(l_quantity), MIN(l_shipdate), MAX(l_shipdate), COUNT(l_orderkey) FROM lineitem", testSchema)
	if err != nil {
		t.Fatal(err)
	}
	wantAggs := []optimizer.AggFunc{optimizer.AggSum, optimizer.AggAvg, optimizer.AggMin, optimizer.AggMax, optimizer.AggCount}
	for i, s := range q.Select {
		if s.Agg != wantAggs[i] {
			t.Errorf("select %d agg = %v, want %v", i, s.Agg, wantAggs[i])
		}
	}
}

func TestParseCaseInsensitiveKeywords(t *testing.T) {
	_, err := Parse("select count(*) from LINEITEM where L_SHIPDATE <= ?", testSchema)
	if err != nil {
		t.Fatal(err)
	}
}

func TestParseNegativeNumber(t *testing.T) {
	q, err := Parse("SELECT c_custkey FROM customer WHERE c_acctbal >= -500.25", testSchema)
	if err != nil {
		t.Fatal(err)
	}
	if q.Preds[0].Value != -500.25 {
		t.Errorf("value = %v", q.Preds[0].Value)
	}
}

func TestParseErrors(t *testing.T) {
	tests := []struct {
		name string
		sql  string
		want string
	}{
		{"empty", "", "expected SELECT"},
		{"no-from", "SELECT x", "expected FROM"},
		{"unknown-table", "SELECT c_custkey FROM nosuch", "unknown table"},
		{"unknown-column", "SELECT nope FROM customer", "unknown column"},
		{"ambiguous-no-alias", "SELECT o_orderkey FROM orders o1, orders o2 WHERE o_custkey <= ?", "ambiguous"},
		{"unknown-alias", "SELECT z.c_custkey FROM customer", "unknown alias"},
		{"alias-wrong-column", "SELECT c.o_orderkey FROM customer c", "no column"},
		{"bad-op-string", "SELECT c_custkey FROM customer WHERE c_mktsegment <= 'A'", "string comparison must use ="},
		{"bad-join-op", "SELECT o_orderkey FROM orders, customer WHERE o_custkey <= c_custkey", "join predicate must use ="},
		{"trailing", "SELECT c_custkey FROM customer extra junk", ""},
		{"unterminated-string", "SELECT c_custkey FROM customer WHERE c_mktsegment = 'oops", "unterminated"},
		{"count-star-only", "SELECT SUM(*) FROM customer", "only COUNT"},
		{"between-non-number", "SELECT c_custkey FROM customer WHERE c_acctbal BETWEEN x AND 7", "expected number"},
		{"bad-char", "SELECT c_custkey FROM customer WHERE c_acctbal <= #", "unexpected character"},
		{"invalid-utf8-alias", "SELECT COUNT(*)FROM customer A,orders B,lineitem \xdc", "invalid UTF-8"},
		{"invalid-utf8-in-ident", "SELECT COUNT(*) FROM customer c\xff", "invalid UTF-8"},
		{"non-letter-rune", "SELECT COUNT(*) FROM customer \u00a9", "unexpected character"},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Parse(tc.sql, testSchema)
			if err == nil {
				t.Fatalf("expected error for %q", tc.sql)
			}
			if tc.want != "" && !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not contain %q", err, tc.want)
			}
		})
	}
}

// Identifiers are lexed rune by rune: an alias outside ASCII is one token,
// and the query prints back as SQL that parses to the same query.
func TestParseUnicodeAlias(t *testing.T) {
	q, err := Parse("SELECT COUNT(*) FROM customer Üç WHERE Üç.c_acctbal <= 1000000", testSchema)
	if err != nil {
		t.Fatal(err)
	}
	if got := q.Tables[0].Alias; got != "üç" {
		t.Fatalf("alias = %q, want üç", got)
	}
	printed := q.String()
	again, err := Parse(printed, testSchema)
	if err != nil || again.String() != printed {
		t.Fatalf("%q parses back with %v as %v", printed, err, again)
	}
}

func TestMustParsePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MustParse("not sql", testSchema)
}

func TestParsedQueryStringRoundTrips(t *testing.T) {
	// The String() rendering of a parsed query must itself parse to an
	// equivalent query (same tables, predicate kinds and parameters).
	sql := `SELECT o.o_orderkey, COUNT(*) FROM orders o, lineitem l
	        WHERE l.l_orderkey = o.o_orderkey AND l.l_shipdate <= ? GROUP BY o.o_orderkey`
	q1, err := Parse(sql, testSchema)
	if err != nil {
		t.Fatal(err)
	}
	q2, err := Parse(q1.String(), testSchema)
	if err != nil {
		t.Fatalf("rendered query does not re-parse: %v\n%s", err, q1.String())
	}
	if len(q1.Preds) != len(q2.Preds) || len(q1.Tables) != len(q2.Tables) {
		t.Errorf("round trip changed structure:\n%s\n%s", q1, q2)
	}
	if q1.ParamDegree() != q2.ParamDegree() {
		t.Errorf("round trip changed parameters: %d vs %d", q1.ParamDegree(), q2.ParamDegree())
	}
}
