// Package stats is the optimizer's statistics layer: a Provider interface
// that answers the selectivity questions the cost model asks, and the
// per-template correction state that adjusts those answers from observed
// execution.
//
// The base provider hands out the catalog's column statistics as handles
// (Column) — exactly the estimates the optimizer used before this layer
// existed, resolved once by whoever asks a column repeatedly. Corrections
// holds one template's multiplicative correction factor per predicate site,
// learned from true operator cardinalities (Ivanov & Bartunov's adaptive
// cardinality estimation, specialized to the template world: a predicate
// site inside a template IS a query class). A template's query carries its
// Corrections, and the optimizer multiplies a site's factor into every base
// estimate it makes for that site (Corrections.CorrectSel), at the moment
// it makes it; a site with no evidence passes through unchanged, so a cold
// system is bit-identical to the static one.
//
// Lock-hierarchy position (DESIGN.md §9/§14): Correction state is a leaf.
// The read path (Factor/CorrectSel/Epoch) is lock-free atomics; the write
// path (Apply/Replay) serializes on a per-template mutex that calls nothing
// but the WAL logger, which sits below every learner lock.
package stats

import (
	"math"

	"repro/internal/catalog"
)

// Column answers the estimation questions about one column. It is the
// handle a Provider resolves once per (table, column): whoever asks the
// same column again and again — a template for its parameters, a memo for
// its predicates, a compiled plan for its filters and join keys — keeps the
// handle and pays no name lookup per question. *catalog.ColumnStats is the
// base implementation.
type Column interface {
	// SelectivityLE estimates P(col <= v).
	SelectivityLE(v float64) float64
	// SelectivityEq estimates P(col = v).
	SelectivityEq(v float64) float64
	// SelectivityEqString estimates P(col = s) for a string column.
	SelectivityEqString(s string) float64
	// SelectivityRange estimates P(lo <= col <= hi).
	SelectivityRange(lo, hi float64) float64
	// Quantile inverts SelectivityLE (workload generation).
	Quantile(p float64) float64
	// DistinctCount returns the column's distinct-value count (join
	// selectivity denominator).
	DistinctCount() float64
	// Bounds returns the column's value range; it feeds recost's
	// infinite-bound clamping.
	Bounds() (lo, hi float64)
}

// Provider is where the optimizer's base statistics come from: one column
// handle per (table, column). Implementations must be comparable (pointers):
// a holder of bound handles remembers which provider resolved them.
type Provider interface {
	// Column resolves the handle that answers every question about
	// table.col.
	Column(table, col string) (Column, error)
}

// Base is the static provider over the catalog's histograms: the estimates
// the optimizer has always used.
type Base struct {
	cat *catalog.Catalog
}

// NewBase wraps a built catalog.
func NewBase(cat *catalog.Catalog) *Base { return &Base{cat: cat} }

// Column returns the catalog's statistics for the column.
func (b *Base) Column(table, col string) (Column, error) {
	cs, err := b.cat.Column(table, col)
	if err != nil {
		return nil, err
	}
	return cs, nil
}

// Distorted wraps a provider and perturbs its selectivity answers — the
// controlled way to make base estimates diverge from execution truth, for
// experiments and for the corrections' tests. Sel, when set, rewrites
// every Selectivity* answer; DistinctFn rewrites DistinctCount (join
// selectivities). The column handle is wrapped once, when it is resolved;
// Quantile and Bounds pass through untouched.
type Distorted struct {
	Provider
	// Sel rewrites a base selectivity estimate for (table, col).
	Sel func(table, col string, sel float64) float64
	// DistinctFn rewrites the distinct-count estimate for (table, col).
	DistinctFn func(table, col string, d float64) float64
}

// Column wraps the underlying provider's handle.
func (d *Distorted) Column(table, col string) (Column, error) {
	c, err := d.Provider.Column(table, col)
	if err != nil {
		return nil, err
	}
	return &distortedColumn{Column: c, d: d, table: table, col: col}, nil
}

// distortedColumn is a column handle seen through a Distorted provider.
type distortedColumn struct {
	Column
	d          *Distorted
	table, col string
}

func (c *distortedColumn) distort(sel float64) float64 {
	if c.d.Sel == nil {
		return sel
	}
	return clamp01(c.d.Sel(c.table, c.col, sel))
}

func (c *distortedColumn) SelectivityLE(v float64) float64 {
	return c.distort(c.Column.SelectivityLE(v))
}

func (c *distortedColumn) SelectivityEq(v float64) float64 {
	return c.distort(c.Column.SelectivityEq(v))
}

func (c *distortedColumn) SelectivityEqString(s string) float64 {
	return c.distort(c.Column.SelectivityEqString(s))
}

func (c *distortedColumn) SelectivityRange(lo, hi float64) float64 {
	return c.distort(c.Column.SelectivityRange(lo, hi))
}

func (c *distortedColumn) DistinctCount() float64 {
	n := c.Column.DistinctCount()
	if c.d.DistinctFn == nil {
		return n
	}
	return math.Max(c.d.DistinctFn(c.table, c.col, n), 1)
}

func clamp01(s float64) float64 {
	if s < 0 || math.IsNaN(s) {
		return 0
	}
	if s > 1 {
		return 1
	}
	return s
}

// LogQ is the signed log q-error of one observation: ln(observed/estimated)
// with both sides floored so empty operators stay finite. Positive means
// the estimate was too low.
func LogQ(estimated, observed float64) float64 {
	const floor = 1e-9
	return math.Log(math.Max(observed, floor) / math.Max(estimated, floor))
}

// QError is the symmetric q-error max(e/o, o/e) >= 1 of one observation.
func QError(estimated, observed float64) float64 {
	const floor = 1e-9
	e, o := math.Max(estimated, floor), math.Max(observed, floor)
	if e > o {
		return e / o
	}
	return o / e
}
