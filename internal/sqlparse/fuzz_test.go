package sqlparse

import (
	"math/rand"
	"strings"
	"testing"
)

// NoiseAlphabet and MutationBase are what the two tests below draw their
// inputs from; FuzzParse (package sqlparse_test) seeds its corpus with them.
const (
	NoiseAlphabet = "SELECT FROM WHERE AND GROUP BY BETWEEN COUNT(*)<>=?.','x_1 \t\n\"#;%" +
		"lineitem orders customer l_shipdate o_orderkey 3.14 -7 '"
	MutationBase = "SELECT o.o_orderkey, COUNT(*) FROM orders o, lineitem l " +
		"WHERE l.l_orderkey = o.o_orderkey AND l.l_shipdate <= ? GROUP BY o.o_orderkey"
)

// The parser must never panic, whatever bytes it is fed — it either
// returns a query or an error.
func TestParseNeverPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < 5000; i++ {
		n := rng.Intn(120)
		var b strings.Builder
		for j := 0; j < n; j++ {
			b.WriteByte(NoiseAlphabet[rng.Intn(len(NoiseAlphabet))])
		}
		input := b.String()
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("panic on input %q: %v", input, r)
				}
			}()
			_, _ = Parse(input, testSchema)
		}()
	}
}

// Mutations of a valid query must also never panic (they hit deeper parser
// states than pure noise).
func TestParseMutatedQueriesNeverPanic(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 5000; i++ {
		bs := []byte(MutationBase)
		for k := 0; k < 1+rng.Intn(4); k++ {
			switch rng.Intn(3) {
			case 0: // delete
				if len(bs) > 1 {
					p := rng.Intn(len(bs))
					bs = append(bs[:p], bs[p+1:]...)
				}
			case 1: // duplicate a span
				if len(bs) > 4 {
					p := rng.Intn(len(bs) - 3)
					bs = append(bs[:p], append([]byte(string(bs[p:p+3])), bs[p:]...)...)
				}
			case 2: // flip a byte
				bs[rng.Intn(len(bs))] = byte(rng.Intn(128))
			}
		}
		input := string(bs)
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("panic on mutated input %q: %v", input, r)
				}
			}()
			_, _ = Parse(input, testSchema)
		}()
	}
}
