// Package catalog implements the statistics subsystem the optimizer relies
// on: per-table row counts and per-column synopses (min/max, distinct
// counts, equi-depth histograms for numeric columns, value frequency maps
// for string columns).
//
// The catalog serves two roles in the reproduction. First, it is the
// optimizer's source of selectivity estimates — the paper's framework
// "computes the predicate selectivities in the same way that the query
// optimizer makes its selectivity estimations, that is, by exploiting the
// formerly generated statistics on data" (Section II-B). Second, its
// quantile inversion is what the workload generators use to translate a
// target selectivity point in [0,1]^r back into concrete template
// parameter values.
package catalog

import (
	"fmt"
	"math"

	"repro/internal/histogram"
	"repro/internal/tpch"
)

// DefaultColumnBuckets is the number of equi-depth buckets per column
// histogram.
const DefaultColumnBuckets = 64

// ColumnStats summarizes one column.
type ColumnStats struct {
	Table    string
	Column   string
	Kind     tpch.ColKind
	RowCount int
	// Numeric columns:
	Min, Max float64
	Distinct int
	Hist     *histogram.Histogram
	// String columns: value -> frequency.
	Freq map[string]int
}

// SelectivityLE estimates the fraction of rows with value <= v.
// For string columns it returns 0.
func (cs *ColumnStats) SelectivityLE(v float64) float64 {
	if cs.Kind != tpch.KindNumeric || cs.Hist == nil {
		return 0
	}
	if v < cs.Min {
		return 0
	}
	if v >= cs.Max {
		return 1
	}
	return clamp01(cs.Hist.FractionLE(v))
}

// SelectivityRange estimates the fraction of rows with lo <= value <= hi.
func (cs *ColumnStats) SelectivityRange(lo, hi float64) float64 {
	if cs.Kind != tpch.KindNumeric || cs.Hist == nil || hi < lo {
		return 0
	}
	if cs.RowCount == 0 {
		return 0
	}
	return clamp01(cs.Hist.RangeCount(lo, hi) / float64(cs.RowCount))
}

// SelectivityEq estimates the fraction of rows with value == v, using the
// uniform-distinct assumption for numeric columns and exact frequencies for
// string columns (pass the string value via SelectivityEqString).
func (cs *ColumnStats) SelectivityEq(v float64) float64 {
	if cs.Kind != tpch.KindNumeric || cs.Distinct == 0 {
		return 0
	}
	if v < cs.Min || v > cs.Max {
		return 0
	}
	return 1 / float64(cs.Distinct)
}

// SelectivityEqString estimates the fraction of rows equal to s for a
// string column.
func (cs *ColumnStats) SelectivityEqString(s string) float64 {
	if cs.Kind != tpch.KindString || cs.RowCount == 0 {
		return 0
	}
	return float64(cs.Freq[s]) / float64(cs.RowCount)
}

// Quantile returns a value v such that approximately a fraction p of rows
// have value <= v. Inverse of SelectivityLE; numeric columns only.
func (cs *ColumnStats) Quantile(p float64) float64 {
	if cs.Kind != tpch.KindNumeric || cs.Hist == nil {
		return 0
	}
	return cs.Hist.Quantile(p)
}

// DistinctCount returns the column's distinct-value count (the join
// selectivity denominator).
func (cs *ColumnStats) DistinctCount() float64 { return float64(cs.Distinct) }

// Bounds returns the column's value range (zeros for a string column).
func (cs *ColumnStats) Bounds() (lo, hi float64) { return cs.Min, cs.Max }

// TableStats summarizes one table.
type TableStats struct {
	Table    string
	RowCount int
	Columns  map[string]*ColumnStats
}

// Catalog holds statistics for a whole database.
type Catalog struct {
	tables map[string]*TableStats
}

// Build scans every table of db and constructs statistics. buckets controls
// the per-column histogram resolution; pass 0 for DefaultColumnBuckets.
func Build(db *tpch.Database, buckets int) (*Catalog, error) {
	if buckets <= 0 {
		buckets = DefaultColumnBuckets
	}
	c := &Catalog{tables: make(map[string]*TableStats)}
	for _, name := range db.TableNames() {
		t := db.MustTable(name)
		ts := &TableStats{Table: name, RowCount: t.NumRows(), Columns: make(map[string]*ColumnStats)}
		for _, col := range t.Columns {
			cs, err := buildColumn(name, col, buckets)
			if err != nil {
				return nil, err
			}
			ts.Columns[col.Name] = cs
		}
		c.tables[name] = ts
	}
	return c, nil
}

// MustBuild is like Build but panics on error.
func MustBuild(db *tpch.Database, buckets int) *Catalog {
	c, err := Build(db, buckets)
	if err != nil {
		panic(err)
	}
	return c
}

func buildColumn(table string, col *tpch.Column, buckets int) (*ColumnStats, error) {
	cs := &ColumnStats{Table: table, Column: col.Name, Kind: col.Kind, RowCount: col.Len()}
	switch col.Kind {
	case tpch.KindNumeric:
		if len(col.Nums) == 0 {
			return cs, nil
		}
		cs.Min, cs.Max = math.Inf(1), math.Inf(-1)
		distinct := make(map[float64]struct{})
		for _, v := range col.Nums {
			if v < cs.Min {
				cs.Min = v
			}
			if v > cs.Max {
				cs.Max = v
			}
			if len(distinct) < 1<<20 {
				distinct[v] = struct{}{}
			}
		}
		cs.Distinct = len(distinct)
		h, err := histogram.BuildEquiDepth(col.Nums, nil, buckets)
		if err != nil {
			return nil, fmt.Errorf("catalog: %s.%s: %w", table, col.Name, err)
		}
		cs.Hist = h
	case tpch.KindString:
		cs.Freq = make(map[string]int)
		for _, s := range col.Strs {
			cs.Freq[s]++
		}
		cs.Distinct = len(cs.Freq)
	default:
		return nil, fmt.Errorf("catalog: %s.%s: unknown column kind %d", table, col.Name, col.Kind)
	}
	return cs, nil
}

// Table returns statistics for the named table, or nil.
func (c *Catalog) Table(name string) *TableStats { return c.tables[name] }

// Column returns statistics for table.column, or an error if absent.
func (c *Catalog) Column(table, column string) (*ColumnStats, error) {
	ts := c.tables[table]
	if ts == nil {
		return nil, fmt.Errorf("catalog: no statistics for table %s", table)
	}
	cs := ts.Columns[column]
	if cs == nil {
		return nil, fmt.Errorf("catalog: no statistics for %s.%s", table, column)
	}
	return cs, nil
}

// MustColumn is like Column but panics on error.
func (c *Catalog) MustColumn(table, column string) *ColumnStats {
	cs, err := c.Column(table, column)
	if err != nil {
		panic(err)
	}
	return cs
}

// RowCount returns the row count of the named table (0 if unknown).
func (c *Catalog) RowCount(table string) int {
	if ts := c.tables[table]; ts != nil {
		return ts.RowCount
	}
	return 0
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}
