// Cardinality harvesting: the compiled engine already records every
// operator's output tuple count, so true per-operator cardinalities are
// free — ExecObserve reads them out after a run, before the arena goes
// back to the pool. Each observation carries the optimizer plan node the
// operator was compiled from (its lineage), which is what maps the counts
// back to template predicate sites for the adaptive statistics layer.
package executor

import (
	"fmt"

	"repro/internal/faults"
	"repro/internal/optimizer"
)

// CardObservation is one executed operator's observed cardinality.
type CardObservation struct {
	// Node is the optimizer plan node the operator was compiled from
	// (read-only; owned by the plan cache).
	Node *optimizer.Node
	// Rows is the operator's observed output cardinality.
	Rows float64
	// LeftRows and RightRows are the observed input cardinalities of a
	// join (for index-nested-loop joins RightRows is the inner table's
	// total row count — the probe denominator). Zero for scans.
	LeftRows  float64
	RightRows float64
	// Lo and Hi are the effective index scan bounds of this execution,
	// with parameter-driven bounds already re-derived (they may differ
	// from Node.IndexLo/Hi, which hold the values the plan was cached
	// at). Only meaningful for index scans.
	Lo, Hi float64
}

// ExecObserve runs the compiled plan at the given parameter values and
// returns a freshly materialized result; Exec is this with a nil obs. With
// a non-nil obs it additionally harvests per-operator observed
// cardinalities, appending them to *obs in bottom-up order. The harvest
// reads tuple counts the run already produced; it adds no per-row work.
func (cp *CompiledPlan) ExecObserve(params []float64, obs *[]CardObservation) (*Result, error) {
	if err := cp.exec.faults.Fail(faults.ExecutorError); err != nil {
		return nil, fmt.Errorf("executor: %w", err)
	}
	if len(params) != cp.nParams {
		return nil, fmt.Errorf("executor: got %d parameters, want %d", len(params), cp.nParams)
	}
	ar := cp.pool.Get().(*Arena)
	cp.run(cp.root, ar, params)
	if obs != nil {
		*obs = harvest(cp.root, ar, params, *obs)
	}
	var res *Result
	if cp.agg != nil {
		res = cp.materializeAgg(ar)
	} else {
		res = cp.materialize(ar)
	}
	cp.pool.Put(ar)
	return res, nil
}

func harvest(n *cNode, ar *Arena, params []float64, obs []CardObservation) []CardObservation {
	if n == nil || n.lineage == nil {
		return obs
	}
	obs = harvest(n.left, ar, params, obs)
	obs = harvest(n.right, ar, params, obs)
	o := CardObservation{Node: n.lineage, Rows: float64(ar.nrows[n.ord])}
	switch n.op {
	case optimizer.OpIndexScan:
		o.Lo, o.Hi = n.bounds(params)
	case optimizer.OpHashJoin, optimizer.OpMergeJoin, optimizer.OpNLJoin:
		o.LeftRows = float64(ar.nrows[n.left.ord])
		o.RightRows = float64(ar.nrows[n.right.ord])
	case optimizer.OpIndexNLJoin:
		o.LeftRows = float64(ar.nrows[n.left.ord])
		o.RightRows = float64(n.table.NumRows())
	}
	return append(obs, o)
}
