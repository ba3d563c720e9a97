// Package optimizer implements the cost-based query optimizer substrate.
//
// The paper treats a commercial DBMS optimizer as a black-box function
// plan: [0,1]^r → P from optimizer parameters (predicate selectivities) to
// plan choices, and harvests its decisions. To reproduce the paper without
// that DBMS, this package is a genuine — if compact — Selinger-style
// optimizer over the tpch substrate: per-relation access path selection
// (sequential vs. ordered-index scan), left-deep dynamic-programming join
// enumeration, hash / merge / index-nested-loop / nested-loop join methods,
// histogram-based selectivity estimation from the catalog, and a CPU+IO
// cost model. Competing access paths and join methods intersect at
// selectivity crossover points, which is precisely what induces the
// multi-region plan spaces (Figure 2) the clustering framework learns.
package optimizer

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/stats"
)

// ColRef names a column of a table binding in a query, e.g. l.l_shipdate.
type ColRef struct {
	Alias  string // table binding alias
	Column string
}

func (c ColRef) String() string {
	if c.Alias == "" {
		return c.Column
	}
	return c.Alias + "." + c.Column
}

// TableRef binds a base table under an alias.
type TableRef struct {
	Table string
	Alias string
}

// CmpOp is a comparison operator in a predicate.
type CmpOp int

const (
	OpEq CmpOp = iota
	OpLE
	OpGE
	OpLT
	OpGT
)

func (op CmpOp) String() string {
	switch op {
	case OpEq:
		return "="
	case OpLE:
		return "<="
	case OpGE:
		return ">="
	case OpLT:
		return "<"
	case OpGT:
		return ">"
	}
	return "?"
}

// PredKind distinguishes the predicate forms of the supported SQL subset.
type PredKind int

const (
	// PredCmpNum compares a column to a numeric constant or parameter.
	PredCmpNum PredKind = iota
	// PredCmpStr compares a column to a string constant (equality only).
	PredCmpStr
	// PredJoin is an equality between columns of two different bindings.
	PredJoin
	// PredBetween is lo <= col <= hi with numeric bounds.
	PredBetween
)

// Predicate is one conjunct of the WHERE clause.
type Predicate struct {
	Kind PredKind
	Col  ColRef

	// PredCmpNum / PredBetween:
	Op       CmpOp   // for PredCmpNum
	Value    float64 // constant, or placeholder replaced at instantiation
	Lo, Hi   float64 // for PredBetween
	ParamIdx int     // >= 0 when Value is the ParamIdx-th template parameter; -1 otherwise

	// PredCmpStr:
	StrValue string

	// PredJoin:
	RightCol ColRef

	// Site is the predicate's 1-based position in the template's WHERE
	// clause (its index in Query.Preds plus one), stamped by NewTemplate.
	// It is the stable identity the adaptive statistics layer keys its
	// correction factors on; 0 means "no site" (a bare Query outside a
	// template) and disables corrections for the predicate.
	Site int
}

// literal prints a numeric literal the way the template SQL writes one:
// plain digits, never an exponent, so that a printed query parses back.
func literal(v float64) string { return strconv.FormatFloat(v, 'f', -1, 64) }

func (p Predicate) String() string {
	switch p.Kind {
	case PredCmpNum:
		if p.ParamIdx >= 0 {
			// Positional placeholder; parameters number left to right.
			return fmt.Sprintf("%s %s ?", p.Col, p.Op)
		}
		return fmt.Sprintf("%s %s %s", p.Col, p.Op, literal(p.Value))
	case PredCmpStr:
		return fmt.Sprintf("%s = '%s'", p.Col, p.StrValue)
	case PredJoin:
		return fmt.Sprintf("%s = %s", p.Col, p.RightCol)
	case PredBetween:
		return fmt.Sprintf("%s BETWEEN %s AND %s", p.Col, literal(p.Lo), literal(p.Hi))
	}
	return "?"
}

// AggFunc is an aggregate function in the select list.
type AggFunc int

const (
	AggNone AggFunc = iota
	AggCount
	AggSum
	AggAvg
	AggMin
	AggMax
)

func (a AggFunc) String() string {
	switch a {
	case AggCount:
		return "COUNT"
	case AggSum:
		return "SUM"
	case AggAvg:
		return "AVG"
	case AggMin:
		return "MIN"
	case AggMax:
		return "MAX"
	}
	return ""
}

// SelectItem is one output expression: a plain column or an aggregate.
type SelectItem struct {
	Agg AggFunc
	Col ColRef // unused for COUNT(*)
}

func (s SelectItem) String() string {
	if s.Agg == AggNone {
		return s.Col.String()
	}
	if s.Agg == AggCount && s.Col.Column == "" {
		return "COUNT(*)"
	}
	return fmt.Sprintf("%s(%s)", s.Agg, s.Col)
}

// Query is the logical form of a query template: an SPJ(+aggregate) query
// over the tpch schema.
type Query struct {
	Select  []SelectItem
	Tables  []TableRef
	Preds   []Predicate
	GroupBy []ColRef

	// Corr is the owning template's correction state, attached when the
	// template is registered: every estimate of a sited predicate multiplies
	// in its site's current factor. nil (a bare Query, or a template served
	// without corrections) estimates from the base provider only.
	Corr *stats.Corrections
}

// Binding resolves an alias to its TableRef, or nil.
func (q *Query) Binding(alias string) *TableRef {
	for i := range q.Tables {
		if q.Tables[i].Alias == alias {
			return &q.Tables[i]
		}
	}
	return nil
}

// ParamDegree returns the number of template parameters (placeholders).
func (q *Query) ParamDegree() int {
	n := 0
	for _, p := range q.Preds {
		if p.Kind == PredCmpNum && p.ParamIdx >= 0 {
			n++
		}
	}
	return n
}

// String renders the query in SQL-ish form (for debugging and docs).
func (q *Query) String() string {
	var b strings.Builder
	b.WriteString("SELECT ")
	for i, s := range q.Select {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(s.String())
	}
	b.WriteString(" FROM ")
	for i, t := range q.Tables {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(t.Table)
		if t.Alias != t.Table {
			b.WriteString(" " + t.Alias)
		}
	}
	if len(q.Preds) > 0 {
		b.WriteString(" WHERE ")
		for i, p := range q.Preds {
			if i > 0 {
				b.WriteString(" AND ")
			}
			b.WriteString(p.String())
		}
	}
	if len(q.GroupBy) > 0 {
		b.WriteString(" GROUP BY ")
		for i, c := range q.GroupBy {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(c.String())
		}
	}
	return b.String()
}

// Validate checks structural well-formedness: aliases unique and resolvable,
// every predicate references bound aliases, parameters contiguous from 0.
func (q *Query) Validate() error {
	if len(q.Tables) == 0 {
		return fmt.Errorf("optimizer: query has no tables")
	}
	seen := make(map[string]bool)
	for _, t := range q.Tables {
		if t.Alias == "" {
			return fmt.Errorf("optimizer: table %s has empty alias", t.Table)
		}
		if seen[t.Alias] {
			return fmt.Errorf("optimizer: duplicate alias %s", t.Alias)
		}
		seen[t.Alias] = true
	}
	check := func(c ColRef) error {
		if !seen[c.Alias] {
			return fmt.Errorf("optimizer: unbound alias in %s", c)
		}
		return nil
	}
	params := make(map[int]bool)
	for _, p := range q.Preds {
		if err := check(p.Col); err != nil {
			return err
		}
		if p.Kind == PredJoin {
			if err := check(p.RightCol); err != nil {
				return err
			}
			if p.Col.Alias == p.RightCol.Alias {
				return fmt.Errorf("optimizer: self-join predicate %s", p)
			}
		}
		if p.Kind == PredCmpNum && p.ParamIdx >= 0 {
			if params[p.ParamIdx] {
				return fmt.Errorf("optimizer: duplicate parameter index %d", p.ParamIdx)
			}
			params[p.ParamIdx] = true
		}
	}
	for i := 0; i < len(params); i++ {
		if !params[i] {
			return fmt.Errorf("optimizer: parameter indexes not contiguous (missing %d)", i)
		}
	}
	for _, s := range q.Select {
		if s.Agg == AggCount && s.Col.Column == "" {
			continue
		}
		if err := check(s.Col); err != nil {
			return err
		}
	}
	for _, c := range q.GroupBy {
		if err := check(c); err != nil {
			return err
		}
	}
	return nil
}
