package optimizer

import "math"

// SiteObservation is an attributed cardinality observation: the base
// (uncorrected) estimated selectivity and the observed selectivity for one
// template predicate site. The adaptive statistics layer turns the pair
// into a log-q-error sample for the site's correction factor.
type SiteObservation struct {
	Site int
	// Est is the base provider's estimated selectivity at the executed
	// parameter values.
	Est float64
	// Obs is the observed selectivity (output rows over the operator's
	// input-size denominator).
	Obs float64
}

// AttributeCard maps one executed operator's observed cardinality back to
// the template predicate site that produced its estimate, when the mapping
// is unambiguous:
//
//   - An index scan whose driving sargable predicate carries a site and
//     which applies no residual filters: every output row passed exactly
//     that predicate, so observed rows / table rows is the predicate's true
//     selectivity.
//   - A sequential scan applying exactly one sited filter: same reasoning.
//   - A hash/merge join with a sited driving equi-join predicate and no
//     extra join filters: output rows / (left input × right input) is the
//     join's true selectivity; for an index-nested-loop join rightRows is
//     the inner table's total row count and the inner side must apply no
//     residual filters.
//
// Operators filtering through several predicates at once are skipped —
// splitting a combined selectivity across sites would just smear the error.
// ok is false when the node is not attributable or the observation carries
// no information (empty input). n is a node of the plan the program was
// compiled from; the base estimate comes from the handles bound then.
func (rp *RebindProgram) AttributeCard(n *Node, params []float64, rows, leftRows, rightRows, lo, hi float64) (so SiteObservation, ok bool) {
	var b *boundNode
	for i := range rp.nodes {
		if rp.nodes[i].n == n {
			b = &rp.nodes[i]
			break
		}
	}
	if b == nil {
		return so, false
	}
	switch n.Op {
	case OpSeqScan:
		if len(n.Filters) != 1 || n.Filters[0].Site <= 0 || b.rows == 0 {
			return so, false
		}
		p := &n.Filters[0]
		if p.Kind == PredCmpNum && p.ParamIdx >= len(params) {
			return so, false
		}
		return SiteObservation{Site: p.Site, Est: predSel(b.cols[0], p, params), Obs: rows / b.rows}, true

	case OpIndexScan:
		if len(n.Filters) != 0 || n.IndexSite <= 0 || b.rows == 0 {
			return so, false
		}
		if math.IsInf(lo, -1) && math.IsInf(hi, 1) {
			return so, false // full-range scan: no predicate to attribute
		}
		return SiteObservation{Site: n.IndexSite, Est: rangeSel(b.index, lo, hi), Obs: rows / b.rows}, true

	case OpHashJoin, OpMergeJoin, OpIndexNLJoin:
		if n.JoinSite <= 0 || len(n.Filters) != 0 {
			return so, false
		}
		if n.Op == OpIndexNLJoin && len(n.Right.Filters) != 0 {
			return so, false // inner residual filters dilute the join count
		}
		if leftRows <= 0 || rightRows <= 0 {
			return so, false
		}
		return SiteObservation{Site: n.JoinSite, Est: b.joinSel, Obs: rows / (leftRows * rightRows)}, true
	}
	return so, false
}
