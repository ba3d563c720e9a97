// Package sqlparse implements a lexer and recursive-descent parser for the
// SQL subset used to express the paper's query templates (Appendix A):
// SELECT-FROM-WHERE queries with optional aggregates and GROUP BY,
// conjunctive WHERE clauses of range/equality predicates and equi-joins,
// and `?` placeholders marking explicit template parameters.
//
// Grammar (case-insensitive keywords):
//
//	query      = SELECT selectList FROM tableList [WHERE conj] [GROUP BY colList]
//	selectList = selectItem {"," selectItem}
//	selectItem = agg "(" ("*" | col) ")" | col
//	agg        = COUNT | SUM | AVG | MIN | MAX
//	tableList  = table {"," table}
//	table      = ident [ident]            // name [alias]
//	conj       = pred {AND pred}
//	pred       = col cmp rhs | col BETWEEN number AND number
//	cmp        = "=" | "<=" | ">=" | "<" | ">"
//	rhs        = number | "?" | string | col
//	col        = ident ["." ident]
//
// Parsed queries are resolved against a schema callback that maps table
// names to their column sets, producing a validated optimizer.Query.
package sqlparse

import (
	"fmt"
	"strings"
	"unicode"
	"unicode/utf8"
)

type tokenKind int

const (
	tokEOF tokenKind = iota
	tokIdent
	tokNumber
	tokString
	tokComma
	tokDot
	tokLParen
	tokRParen
	tokStar
	tokQMark
	tokCmp // = <= >= < >
)

type token struct {
	kind tokenKind
	text string
	num  float64
	pos  int
}

func (t token) String() string {
	switch t.kind {
	case tokEOF:
		return "end of input"
	case tokString:
		return fmt.Sprintf("'%s'", t.text)
	default:
		return fmt.Sprintf("%q", t.text)
	}
}

// lex splits input into tokens. Identifiers keep their original case; the
// parser lowercases keywords and names as needed.
func lex(input string) ([]token, error) {
	var toks []token
	i := 0
	n := len(input)
	for i < n {
		c := input[i]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			i++
		case c == ',':
			toks = append(toks, token{kind: tokComma, text: ",", pos: i})
			i++
		case c == '.':
			toks = append(toks, token{kind: tokDot, text: ".", pos: i})
			i++
		case c == '(':
			toks = append(toks, token{kind: tokLParen, text: "(", pos: i})
			i++
		case c == ')':
			toks = append(toks, token{kind: tokRParen, text: ")", pos: i})
			i++
		case c == '*':
			toks = append(toks, token{kind: tokStar, text: "*", pos: i})
			i++
		case c == '?':
			toks = append(toks, token{kind: tokQMark, text: "?", pos: i})
			i++
		case c == '=':
			toks = append(toks, token{kind: tokCmp, text: "=", pos: i})
			i++
		case c == '<' || c == '>':
			if i+1 < n && input[i+1] == '=' {
				toks = append(toks, token{kind: tokCmp, text: input[i : i+2], pos: i})
				i += 2
			} else {
				toks = append(toks, token{kind: tokCmp, text: string(c), pos: i})
				i++
			}
		case c == '\'':
			j := i + 1
			for j < n && input[j] != '\'' {
				j++
			}
			if j >= n {
				return nil, fmt.Errorf("sqlparse: unterminated string at offset %d", i)
			}
			toks = append(toks, token{kind: tokString, text: input[i+1 : j], pos: i})
			i = j + 1
		case c >= '0' && c <= '9' || c == '-' && i+1 < n && input[i+1] >= '0' && input[i+1] <= '9':
			j := i + 1
			seenDot := false
			for j < n {
				if input[j] >= '0' && input[j] <= '9' {
					j++
				} else if input[j] == '.' && !seenDot {
					seenDot = true
					j++
				} else {
					break
				}
			}
			text := input[i:j]
			var num float64
			if _, err := fmt.Sscanf(text, "%g", &num); err != nil {
				return nil, fmt.Errorf("sqlparse: bad number %q at offset %d", text, i)
			}
			toks = append(toks, token{kind: tokNumber, text: text, num: num, pos: i})
			i = j
		default:
			// Identifiers are read rune by rune: a byte >= 0x80 that does not
			// start a valid UTF-8 sequence is an error, not a Latin-1 letter
			// (Query.String would print it back as U+FFFD, which is neither).
			r, size := utf8.DecodeRuneInString(input[i:])
			if r == utf8.RuneError && size <= 1 {
				return nil, fmt.Errorf("sqlparse: invalid UTF-8 at offset %d", i)
			}
			if !isIdentStart(r) {
				return nil, fmt.Errorf("sqlparse: unexpected character %q at offset %d", r, i)
			}
			j := i + size
			for j < n {
				r, size := utf8.DecodeRuneInString(input[j:])
				if r == utf8.RuneError && size <= 1 || !isIdentPart(r) {
					break
				}
				j += size
			}
			toks = append(toks, token{kind: tokIdent, text: input[i:j], pos: i})
			i = j
		}
	}
	toks = append(toks, token{kind: tokEOF, pos: n})
	return toks, nil
}

func isIdentStart(r rune) bool {
	return unicode.IsLetter(r) || r == '_'
}

func isIdentPart(r rune) bool {
	return unicode.IsLetter(r) || unicode.IsDigit(r) || r == '_'
}

func isKeyword(t token, kw string) bool {
	return t.kind == tokIdent && strings.EqualFold(t.text, kw)
}
