// Package tpch implements the modified TPC-H database substrate of the
// paper's experimental setup (Appendix A): the eight TPC-H tables with
// TPC-H's relative cardinalities, an extra Gaussian-distributed date column
// added to every table, and B-tree-style ordered indexes over primary keys,
// foreign keys and the added date columns.
//
// The paper used a commercial DBMS loaded at scale factor 1. This package
// generates an equivalent in-memory database deterministically from a seed,
// at a configurable scale, preserving the relative table sizes (lineitem ≈
// 4× orders ≈ 40× customer, …) that drive the optimizer's plan choices.
//
// Storage is column-major: each column holds either a []float64 (numeric
// and date values, dates as fractional days since the epoch below) or a
// []string. This is a simulator-grade storage engine — no durability, no
// concurrency control — because the paper exercises only the optimizer and
// read-only execution.
package tpch

import (
	"fmt"
	"sort"
)

// ColKind distinguishes numeric columns (including dates, stored as days)
// from string columns.
type ColKind int

const (
	KindNumeric ColKind = iota
	KindString
)

// Column is a named, typed column with column-major storage. Exactly one of
// Nums or Strs is populated, matching Kind.
type Column struct {
	Name string
	Kind ColKind
	Nums []float64
	Strs []string
}

// Len returns the number of values in the column.
func (c *Column) Len() int {
	if c.Kind == KindNumeric {
		return len(c.Nums)
	}
	return len(c.Strs)
}

// Index is an ordered index over a numeric column: row identifiers sorted
// by key value, supporting logarithmic range lookups like a B-tree.
type Index struct {
	Column string
	Keys   []float64 // sorted key values
	Rows   []int32   // row ids, parallel to Keys
}

// RangeRows returns the row ids with key in [lo, hi], in key order.
// The returned slice aliases the index; callers must not modify it.
func (ix *Index) RangeRows(lo, hi float64) []int32 {
	l := sort.SearchFloat64s(ix.Keys, lo)
	r := sort.Search(len(ix.Keys), func(i int) bool { return ix.Keys[i] > hi })
	if r < l {
		return nil
	}
	return ix.Rows[l:r]
}

// Table is an in-memory relation.
type Table struct {
	Name    string
	Columns []*Column
	Indexes map[string]*Index // keyed by column name

	byName map[string]*Column
}

// NumRows returns the table's cardinality.
func (t *Table) NumRows() int {
	if len(t.Columns) == 0 {
		return 0
	}
	return t.Columns[0].Len()
}

// Column returns the named column, or nil if absent.
func (t *Table) Column(name string) *Column {
	return t.byName[name]
}

// MustColumn returns the named column or panics.
func (t *Table) MustColumn(name string) *Column {
	c := t.byName[name]
	if c == nil {
		panic(fmt.Sprintf("tpch: table %s has no column %s", t.Name, name))
	}
	return c
}

// HasIndex reports whether an ordered index exists on the named column.
func (t *Table) HasIndex(col string) bool {
	_, ok := t.Indexes[col]
	return ok
}

// BuildIndex creates (or rebuilds) an ordered index on a numeric column.
func (t *Table) BuildIndex(col string) error {
	c := t.Column(col)
	if c == nil {
		return fmt.Errorf("tpch: table %s has no column %s", t.Name, col)
	}
	if c.Kind != KindNumeric {
		return fmt.Errorf("tpch: cannot index string column %s.%s", t.Name, col)
	}
	n := c.Len()
	rows := make([]int32, n)
	for i := range rows {
		rows[i] = int32(i)
	}
	sort.Slice(rows, func(a, b int) bool { return c.Nums[rows[a]] < c.Nums[rows[b]] })
	keys := make([]float64, n)
	for i, r := range rows {
		keys[i] = c.Nums[r]
	}
	t.Indexes[col] = &Index{Column: col, Keys: keys, Rows: rows}
	return nil
}

// NewTable returns a table over the given columns, with no indexes.
func NewTable(name string, cols ...*Column) *Table {
	t := &Table{
		Name:    name,
		Columns: cols,
		Indexes: make(map[string]*Index),
		byName:  make(map[string]*Column, len(cols)),
	}
	for _, c := range cols {
		t.byName[c.Name] = c
	}
	return t
}

// Database is the full generated TPC-H-style database.
type Database struct {
	Tables map[string]*Table
	// Scale records the divisor applied to TPC-H SF1 cardinalities.
	Scale int
	// Seed records the generator seed, for reproducibility.
	Seed int64
}

// Table returns the named table, or nil if absent.
func (db *Database) Table(name string) *Table { return db.Tables[name] }

// MustTable returns the named table or panics.
func (db *Database) MustTable(name string) *Table {
	t := db.Tables[name]
	if t == nil {
		panic(fmt.Sprintf("tpch: no table %s", name))
	}
	return t
}

// TableNames returns the table names in a stable order.
func (db *Database) TableNames() []string {
	names := make([]string, 0, len(db.Tables))
	for n := range db.Tables {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
