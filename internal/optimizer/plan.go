package optimizer

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// OpKind identifies a physical operator.
type OpKind int

const (
	OpSeqScan OpKind = iota
	OpIndexScan
	OpHashJoin
	OpMergeJoin
	OpIndexNLJoin
	OpNLJoin
	OpHashAgg
)

func (op OpKind) String() string {
	switch op {
	case OpSeqScan:
		return "SeqScan"
	case OpIndexScan:
		return "IndexScan"
	case OpHashJoin:
		return "HashJoin"
	case OpMergeJoin:
		return "MergeJoin"
	case OpIndexNLJoin:
		return "IndexNLJoin"
	case OpNLJoin:
		return "NLJoin"
	case OpHashAgg:
		return "HashAgg"
	}
	return "?"
}

// Node is a physical plan operator. Leaf nodes are scans; joins are binary
// with the left child an arbitrary subplan and the right child always a
// base-relation scan (left-deep plans); HashAgg is unary via Left.
type Node struct {
	Op OpKind

	// Scans.
	Table    string
	Alias    string
	IndexCol string  // OpIndexScan: the indexed column driving the scan
	IndexLo  float64 // instantiated scan bounds
	IndexHi  float64
	// Filters holds the residual predicates evaluated at this node, with
	// parameter placeholders already instantiated.
	Filters []Predicate

	// Joins: the equi-join columns on each side. For OpIndexNLJoin the
	// right child is an index scan probed at LeftCol's value per outer row.
	LeftCol  ColRef
	RightCol ColRef
	// BuildLeft is set on hash joins that build the hash table on the left
	// input and probe with the right (default is build-on-right).
	BuildLeft bool

	Left  *Node
	Right *Node

	// Aggregation.
	GroupBy []ColRef
	Aggs    []SelectItem

	// Optimizer estimates at the chosen parameter values.
	EstRows float64
	EstCost float64 // cumulative cost of the subtree

	// SortedOn tracks the column the node's output is ordered by (from an
	// index scan or merge join), enabling sort-free merge joins upstream.
	SortedOn ColRef

	// Plan lineage back to template predicate sites, for mapping observed
	// operator cardinalities to the estimates that produced them. IndexSite
	// is the site of the driving sargable predicate of an index scan;
	// JoinSite is the site of the driving equi-join predicate of a join.
	// 0 means no attributable site. Excluded from fingerprints: lineage
	// annotates a plan, it does not distinguish plans.
	IndexSite int
	JoinSite  int
}

// Plan is a complete physical plan for one query instance.
type Plan struct {
	Root *Node
	// Cost is the optimizer's estimated cost at the instantiated parameter
	// values (the execution-cost metric of Definition 3).
	Cost float64
	// Fingerprint canonically identifies the plan's structure — operators,
	// join order, access paths and join methods — excluding instantiated
	// literal values, so instances that receive the same strategy share a
	// fingerprint (the plan identity of the plan space).
	Fingerprint string
}

// writeColRef writes c as ColRef.String renders it.
func writeColRef(b *strings.Builder, c ColRef) {
	if c.Alias != "" {
		b.WriteString(c.Alias)
		b.WriteByte('.')
	}
	b.WriteString(c.Column)
}

// writeJoinHead writes a predicate join's fingerprint header, "tag[l=r](".
// The memo interns these per join step so the enumeration can order
// candidates by fingerprint without rendering one.
func writeJoinHead(b *strings.Builder, tag string, l, r ColRef) {
	b.WriteString(tag)
	b.WriteByte('[')
	writeColRef(b, l)
	b.WriteByte('=')
	writeColRef(b, r)
	b.WriteString("](")
}

// writeAggHead writes an aggregate's fingerprint header, "Agg[cols](" with
// the grouping columns sorted. The memo interns it per template.
func writeAggHead(b *strings.Builder, groupBy []ColRef) {
	cols := make([]string, len(groupBy))
	for i, c := range groupBy {
		cols[i] = c.String()
	}
	sort.Strings(cols)
	b.WriteString("Agg[")
	for i, c := range cols {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(c)
	}
	b.WriteString("](")
}

// fingerprint appends the canonical structure string of a subtree.
// Fingerprints are registry keys and are persisted in checkpoints and
// replica snapshots: the rendering is a format, pinned by
// TestFingerprintFormat.
func (n *Node) fingerprint(b *strings.Builder) {
	switch n.Op {
	case OpSeqScan:
		b.WriteString("Seq(")
		b.WriteString(n.Alias)
		b.WriteByte(')')
		return
	case OpIndexScan:
		b.WriteString("Idx(")
		b.WriteString(n.Alias)
		b.WriteByte('.')
		b.WriteString(n.IndexCol)
		b.WriteByte(')')
		return
	case OpHashJoin:
		tag := "HJ"
		if n.BuildLeft {
			tag = "HJ^"
		}
		writeJoinHead(b, tag, n.LeftCol, n.RightCol)
	case OpMergeJoin:
		writeJoinHead(b, "MJ", n.LeftCol, n.RightCol)
	case OpIndexNLJoin:
		writeJoinHead(b, "INL", n.LeftCol, n.RightCol)
	case OpNLJoin:
		b.WriteString(nlHead)
	case OpHashAgg:
		writeAggHead(b, n.GroupBy)
		n.Left.fingerprint(b)
		b.WriteByte(')')
		return
	default:
		return
	}
	n.Left.fingerprint(b)
	b.WriteByte(',')
	n.Right.fingerprint(b)
	b.WriteByte(')')
}

// FingerprintOf returns the canonical structure string for a plan tree.
func FingerprintOf(root *Node) string {
	var b strings.Builder
	b.Grow(128) // a four-way join's fingerprint; longer ones grow
	root.fingerprint(&b)
	return b.String()
}

// String renders the plan tree with estimates, one operator per line.
func (p *Plan) String() string {
	var b strings.Builder
	var walk func(n *Node, depth int)
	walk = func(n *Node, depth int) {
		b.WriteString(strings.Repeat("  ", depth))
		switch n.Op {
		case OpSeqScan:
			fmt.Fprintf(&b, "SeqScan %s", n.Alias)
		case OpIndexScan:
			fmt.Fprintf(&b, "IndexScan %s on %s [%g, %g]", n.Alias, n.IndexCol, n.IndexLo, n.IndexHi)
		case OpHashJoin:
			side := "build=right"
			if n.BuildLeft {
				side = "build=left"
			}
			fmt.Fprintf(&b, "HashJoin %s = %s (%s)", n.LeftCol, n.RightCol, side)
		case OpMergeJoin:
			fmt.Fprintf(&b, "MergeJoin %s = %s", n.LeftCol, n.RightCol)
		case OpIndexNLJoin:
			fmt.Fprintf(&b, "IndexNLJoin %s = %s", n.LeftCol, n.RightCol)
		case OpNLJoin:
			b.WriteString("NestedLoopJoin")
		case OpHashAgg:
			fmt.Fprintf(&b, "HashAgg groups=%v", n.GroupBy)
		}
		if len(n.Filters) > 0 {
			fmt.Fprintf(&b, " filter=%v", n.Filters)
		}
		fmt.Fprintf(&b, "  (rows=%.1f cost=%.1f)\n", n.EstRows, n.EstCost)
		if n.Left != nil {
			walk(n.Left, depth+1)
		}
		if n.Right != nil {
			walk(n.Right, depth+1)
		}
	}
	walk(p.Root, 0)
	return b.String()
}

// Registry interns plan fingerprints to small dense integer identifiers —
// the plan labels P_i used throughout the clustering framework. It is safe
// for concurrent use.
type Registry struct {
	mu    sync.RWMutex
	ids   map[string]int
	names []string
}

// NewRegistry returns an empty plan registry.
func NewRegistry() *Registry {
	return &Registry{ids: make(map[string]int)}
}

// ID returns the dense identifier for a fingerprint, assigning the next
// identifier on first sight.
func (r *Registry) ID(fingerprint string) int {
	r.mu.RLock()
	id, ok := r.ids[fingerprint]
	r.mu.RUnlock()
	if ok {
		return id
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if id, ok := r.ids[fingerprint]; ok {
		return id
	}
	id = len(r.names)
	r.ids[fingerprint] = id
	r.names = append(r.names, fingerprint)
	return id
}

// Lookup returns the identifier for a fingerprint without assigning one.
func (r *Registry) Lookup(fingerprint string) (int, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	id, ok := r.ids[fingerprint]
	return id, ok
}

// Fingerprint returns the fingerprint of an identifier, or "" if unknown.
func (r *Registry) Fingerprint(id int) string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if id < 0 || id >= len(r.names) {
		return ""
	}
	return r.names[id]
}

// Count returns the number of distinct plans seen.
func (r *Registry) Count() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.names)
}
