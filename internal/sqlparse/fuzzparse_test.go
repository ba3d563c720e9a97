package sqlparse_test

import (
	"testing"

	"repro/internal/optimizer"
	"repro/internal/queries"
	"repro/internal/sqlparse"
)

// FuzzParse: template SQL is the one input Register takes from outside the
// program. Over the schema the facade parses against, Parse returns a query
// or an error and never panics; a query it accepts prints (Query.String) as
// SQL that parses back to a query printing the same — parse → print → parse
// is a fixed point — and goes on through optimizer.NewTemplate — Register's
// next step — without a panic either. Lives in the external test package
// because internal/queries imports this one.
func FuzzParse(f *testing.F) {
	for _, d := range queries.Defs {
		f.Add(d.SQL)
	}
	f.Add(sqlparse.NoiseAlphabet)
	f.Add(sqlparse.MutationBase)
	// A byte that is not UTF-8 used to lex as a Latin-1 letter, here as the
	// alias of lineitem, and print back as U+FFFD, which does not lex.
	f.Add("SELECT COUNT(*)FROM Customer A,orders B,lineitem \xdc")
	// Literals %g printed with an exponent, which the lexer does not read.
	f.Add("SELECT COUNT(*) FROM lineitem WHERE l_quantity <= 1000000 AND l_discount BETWEEN 0.00001 AND 123456789012345678901234")
	f.Fuzz(func(t *testing.T, sql string) {
		q, err := sqlparse.Parse(sql, queries.Schema)
		if (q == nil) == (err == nil) {
			t.Fatalf("Parse(%q) returned query %v and error %v", sql, q, err)
		}
		if err != nil {
			return
		}
		printed := q.String()
		again, err := sqlparse.Parse(printed, queries.Schema)
		if err != nil {
			t.Fatalf("Parse(%q) printed as %q, which does not parse: %v", sql, printed, err)
		}
		if got := again.String(); got != printed {
			t.Fatalf("Parse(%q) printed as %q, which parses and prints as %q", sql, printed, got)
		}
		_, _ = optimizer.NewTemplate("F", sql, q) // a template or an error
	})
}
