package optimizer

import (
	"fmt"
	"math"

	"repro/internal/stats"
)

// Estimation over bound column handles. Whoever estimates the same columns
// again and again — a Template for its parameters, a Memo for its
// predicates, a RebindProgram for its plan's filters and join keys —
// resolves each column's stats.Column and the template's *stats.Corrections
// once, with the string-keyed lookups below, and from then on an estimate is
// a method call on the handle: no table, column or template name is looked
// up per probe.

// column resolves the statistics handle of a column of one of q's bindings.
func (o *Optimizer) column(q *Query, c ColRef) (stats.Column, error) {
	t := q.Binding(c.Alias)
	if t == nil {
		return nil, fmt.Errorf("optimizer: unbound alias %s", c.Alias)
	}
	return o.stats.Column(t.Table, c.Column)
}

// corrections resolves the correction state that estimates of q's sited
// predicates pass through: nil (the identity) for a bare query outside a
// template.
func (o *Optimizer) corrections(q *Query) *stats.Corrections {
	if q.Template == "" {
		return nil
	}
	return o.stats.Corrections(q.Template)
}

// checkEstimable rejects a single-table predicate predSel has no estimate
// for, when the predicate is bound rather than on every probe.
func checkEstimable(p *Predicate) error {
	switch p.Kind {
	case PredCmpNum:
		switch p.Op {
		case OpLE, OpLT, OpGE, OpGT, OpEq:
			return nil
		}
	case PredCmpStr, PredBetween:
		return nil
	}
	return fmt.Errorf("optimizer: cannot estimate %s", p)
}

// predColumns resolves the handle of each single-table predicate's column
// on table, rejecting a predicate predSel has no estimate for.
func (o *Optimizer) predColumns(table string, preds []Predicate) ([]stats.Column, error) {
	cols := make([]stats.Column, len(preds))
	for i := range preds {
		if err := checkEstimable(&preds[i]); err != nil {
			return nil, err
		}
		var err error
		if cols[i], err = o.stats.Column(table, preds[i].Col.Column); err != nil {
			return nil, err
		}
	}
	return cols, nil
}

// cmpSel is the base estimate of `col op v` — for the parameterized
// predicates, the normalization function f of Section II-A.
func cmpSel(c stats.Column, op CmpOp, v float64) float64 {
	switch op {
	case OpLE, OpLT:
		return c.SelectivityLE(v)
	case OpGE, OpGT:
		return 1 - c.SelectivityLE(v)
	}
	return c.SelectivityEq(v)
}

// predSel is the base (uncorrected) estimate of one single-table predicate
// that passed checkEstimable, on its column's handle; params instantiate a
// parameterized literal.
func predSel(c stats.Column, p *Predicate, params []float64) float64 {
	switch p.Kind {
	case PredCmpNum:
		v := p.Value
		if p.ParamIdx >= 0 {
			v = params[p.ParamIdx]
		}
		return cmpSel(c, p.Op, v)
	case PredCmpStr:
		return c.SelectivityEqString(p.StrValue)
	}
	return c.SelectivityRange(p.Lo, p.Hi)
}

// rangeSel is the base estimate of P(lo <= col <= hi), infinite bounds
// clamped to the column's value range: an index scan's match selectivity.
func rangeSel(c stats.Column, lo, hi float64) float64 {
	cLo, cHi := c.Bounds()
	if math.IsInf(lo, -1) {
		lo = cLo
	}
	if math.IsInf(hi, 1) {
		hi = cHi
	}
	return c.SelectivityRange(lo, hi)
}

// baseJoinSelectivity estimates the selectivity of an equi-join predicate
// using the standard 1/max(distinct_left, distinct_right) formula, without
// corrections — parameter-free, so binders compute it once; it is also the
// reference the feedback loop measures observed join selectivities against.
func (o *Optimizer) baseJoinSelectivity(q *Query, j *Predicate) (float64, error) {
	l, err := o.column(q, j.Col)
	if err != nil {
		return 0, err
	}
	r, err := o.column(q, j.RightCol)
	if err != nil {
		return 0, err
	}
	return 1 / math.Max(math.Max(l.DistinctCount(), r.DistinctCount()), 1), nil
}

// groupDistinct is the parameter-free part of the group estimate: the
// product of the GROUP BY columns' distinct counts (1 without GROUP BY); the
// estimate over inputRows rows is max(min(groupDistinct, inputRows), 1).
// Group counts stay uncorrected: corrections model predicate selectivity
// error, not grouping-key cardinality.
func (o *Optimizer) groupDistinct(q *Query) float64 {
	groups := 1.0
	for _, g := range q.GroupBy {
		if c, err := o.column(q, g); err == nil {
			groups *= math.Max(c.DistinctCount(), 1)
		}
	}
	return groups
}
