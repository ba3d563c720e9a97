package sqlparse_test

import (
	"testing"

	"repro/internal/optimizer"
	"repro/internal/queries"
	"repro/internal/sqlparse"
)

// FuzzParse: template SQL is the one input Register takes from outside the
// program. Over the schema the facade parses against, Parse returns a query
// or an error and never panics, and a query it accepts goes on through
// optimizer.NewTemplate — Register's next step — without a panic either.
// Lives in the external test package because internal/queries imports this
// one.
func FuzzParse(f *testing.F) {
	for _, d := range queries.Defs {
		f.Add(d.SQL)
	}
	f.Add(sqlparse.NoiseAlphabet)
	f.Add(sqlparse.MutationBase)
	f.Fuzz(func(t *testing.T, sql string) {
		q, err := sqlparse.Parse(sql, queries.Schema)
		if (q == nil) == (err == nil) {
			t.Fatalf("Parse(%q) returned query %v and error %v", sql, q, err)
		}
		if err == nil {
			_, _ = optimizer.NewTemplate("F", sql, q) // a template or an error
		}
	})
}
