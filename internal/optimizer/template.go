package optimizer

import (
	"fmt"
	"math"
	"sync/atomic"

	"repro/internal/stats"
)

// Template is a query template (Definition 1): a parsed query with `?`
// placeholders. Its optimizer parameters are the selectivities of the
// parameterized predicates, so the plan space of a template with parameter
// degree r is [0,1]^r (Definition 2).
type Template struct {
	Name  string
	SQL   string
	Query *Query

	// params[i] is the predicate index (into Query.Preds) of placeholder i.
	params []int

	// bound is the parameters' column handles as last resolved: a Run asks
	// the same r columns every time, so they are looked up at first use per
	// statistics provider, not per probe.
	bound atomic.Pointer[paramBinding]
}

// paramBinding is the statistics handle of each parameter's column under
// one provider.
type paramBinding struct {
	provider stats.Provider
	cols     []stats.Column
}

// paramColumns returns the handle of each of t's parameter columns under
// the optimizer's provider, resolving them the first time (and again should
// the template be used with another provider).
func (o *Optimizer) paramColumns(t *Template) ([]stats.Column, error) {
	if b := t.bound.Load(); b != nil && b.provider == o.stats {
		return b.cols, nil
	}
	b := &paramBinding{provider: o.stats, cols: make([]stats.Column, len(t.params))}
	for i, pi := range t.params {
		var err error
		if b.cols[i], err = o.column(t.Query, t.Query.Preds[pi].Col); err != nil {
			return nil, err
		}
	}
	t.bound.Store(b)
	return b.cols, nil
}

// NewTemplate wraps a validated query as a template. It stamps each
// predicate with its 1-based site — the stable identity a template's
// corrections (Query.Corr) are kept per.
func NewTemplate(name, sql string, q *Query) (*Template, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	for i := range q.Preds {
		q.Preds[i].Site = i + 1
	}
	t := &Template{Name: name, SQL: sql, Query: q}
	t.params = make([]int, q.ParamDegree())
	for i, p := range q.Preds {
		if p.Kind == PredCmpNum && p.ParamIdx >= 0 {
			t.params[p.ParamIdx] = i
		}
	}
	for _, pi := range t.params {
		p := q.Preds[pi]
		switch p.Op {
		case OpLE, OpLT, OpGE, OpGT:
		default:
			return nil, fmt.Errorf("optimizer: parameter %d uses %s; only range operators are parameterizable", p.ParamIdx, p.Op)
		}
	}
	return t, nil
}

// Degree returns the parameter degree r of the template.
func (t *Template) Degree() int { return len(t.params) }

// ParamPredicate returns the predicate bound to placeholder i.
func (t *Template) ParamPredicate(i int) Predicate {
	return t.Query.Preds[t.params[i]]
}

// Instance is a query instance (Definition 1): the template with actual
// values for all explicit parameters.
type Instance struct {
	Template *Template
	Values   []float64
}

// Instantiate binds parameter values, validating the count. A NaN value is
// no value: it compares false with every row, so it is rejected here rather
// than served. ±Inf stays a legal bound.
func (t *Template) Instantiate(values []float64) (Instance, error) {
	if len(values) != t.Degree() {
		return Instance{}, fmt.Errorf("optimizer: template %s needs %d values, got %d", t.Name, t.Degree(), len(values))
	}
	for i, v := range values {
		if math.IsNaN(v) {
			return Instance{}, fmt.Errorf("optimizer: template %s value %d is NaN", t.Name, i)
		}
	}
	return Instance{Template: t, Values: values}, nil
}

// SelectivityPoint is the normalization function f of Section II-A: it maps
// an instance's parameter values to the selectivities of the parameterized
// predicates — computed from the catalog exactly as the optimizer estimates
// them, one probe of a bound column handle each — yielding the instance's
// plan space point in [0,1]^r. It applies no correction on purpose: points
// stay on base estimates so the learner's plan-space geometry (and every
// cached cluster model) does not churn each time a correction factor moves.
// The corrections shift which plan the optimizer assigns to a point, never
// where the point lies.
func (o *Optimizer) SelectivityPoint(inst Instance) ([]float64, error) {
	t := inst.Template
	if len(inst.Values) != t.Degree() {
		return nil, fmt.Errorf("optimizer: instance has %d values, template degree %d", len(inst.Values), t.Degree())
	}
	cols, err := o.paramColumns(t)
	if err != nil {
		return nil, err
	}
	point := make([]float64, len(cols))
	for i, c := range cols {
		point[i] = cmpSel(c, t.Query.Preds[t.params[i]].Op, inst.Values[i])
	}
	return point, nil
}

// InstanceAt inverts SelectivityPoint: given a target plan space point, it
// finds parameter values whose predicate selectivities approximate the
// point, using catalog quantiles. This is how the workload generators
// realize trajectories through the plan space as concrete query instances.
func (o *Optimizer) InstanceAt(t *Template, point []float64) (Instance, error) {
	if len(point) != t.Degree() {
		return Instance{}, fmt.Errorf("optimizer: point has %d coordinates, template degree %d", len(point), t.Degree())
	}
	for i, p := range point {
		if math.IsNaN(p) {
			return Instance{}, fmt.Errorf("optimizer: point coordinate %d is NaN", i)
		}
	}
	cols, err := o.paramColumns(t)
	if err != nil {
		return Instance{}, err
	}
	values := make([]float64, len(cols))
	for i, p := range point {
		p = math.Max(0, math.Min(1, p))
		// NewTemplate admits range operators only.
		switch t.Query.Preds[t.params[i]].Op {
		case OpLE, OpLT:
			values[i] = cols[i].Quantile(p)
		default:
			values[i] = cols[i].Quantile(1 - p)
		}
	}
	return Instance{Template: t, Values: values}, nil
}

// OptimizeInstance optimizes a bound instance.
func (o *Optimizer) OptimizeInstance(inst Instance) (*Plan, error) {
	return o.Optimize(inst.Template.Query, inst.Values)
}
