package optimizer_test

import (
	"testing"

	"repro/internal/optimizer"
)

// TestFingerprintFormat pins the fingerprint rendering, one plan per
// operator kind. Fingerprints are plan-registry keys and travel in
// checkpoints and replica snapshots, so a rendering change orphans every
// persisted plan id: this test changes only together with a migration.
func TestFingerprintFormat(t *testing.T) {
	col := func(alias, column string) optimizer.ColRef {
		return optimizer.ColRef{Alias: alias, Column: column}
	}
	seq := func(alias string) *optimizer.Node {
		return &optimizer.Node{Op: optimizer.OpSeqScan, Table: "t_" + alias, Alias: alias}
	}
	idx := func(alias, column string) *optimizer.Node {
		return &optimizer.Node{Op: optimizer.OpIndexScan, Table: "t_" + alias, Alias: alias, IndexCol: column}
	}
	join := func(op optimizer.OpKind, buildLeft bool, l, r *optimizer.Node) *optimizer.Node {
		return &optimizer.Node{
			Op: op, Left: l, Right: r, BuildLeft: buildLeft,
			LeftCol: col("o", "o_custkey"), RightCol: col("c", "c_custkey"),
		}
	}
	cases := []struct {
		name string
		root *optimizer.Node
		want string
	}{
		{"Seq", seq("l"), "Seq(l)"},
		{"Idx", idx("l", "l_shipdate"), "Idx(l.l_shipdate)"},
		{"HJ", join(optimizer.OpHashJoin, false, seq("o"), seq("c")),
			"HJ[o.o_custkey=c.c_custkey](Seq(o),Seq(c))"},
		{"HJ^", join(optimizer.OpHashJoin, true, idx("o", "o_orderdate"), seq("c")),
			"HJ^[o.o_custkey=c.c_custkey](Idx(o.o_orderdate),Seq(c))"},
		{"MJ", join(optimizer.OpMergeJoin, false, idx("o", "o_custkey"), idx("c", "c_custkey")),
			"MJ[o.o_custkey=c.c_custkey](Idx(o.o_custkey),Idx(c.c_custkey))"},
		{"INL", join(optimizer.OpIndexNLJoin, false, seq("o"), idx("c", "c_custkey")),
			"INL[o.o_custkey=c.c_custkey](Seq(o),Idx(c.c_custkey))"},
		{"NL", &optimizer.Node{Op: optimizer.OpNLJoin, Left: seq("o"), Right: idx("c", "c_date")},
			"NL(Seq(o),Idx(c.c_date))"},
		{"nested", join(optimizer.OpHashJoin, false,
			&optimizer.Node{Op: optimizer.OpNLJoin, Left: seq("l"), Right: seq("o")}, seq("c")),
			"HJ[o.o_custkey=c.c_custkey](NL(Seq(l),Seq(o)),Seq(c))"},
		{"Agg", &optimizer.Node{Op: optimizer.OpHashAgg, Left: seq("l"),
			GroupBy: []optimizer.ColRef{col("s", "s_suppkey"), col("l", "l_partkey")}},
			"Agg[l.l_partkey,s.s_suppkey](Seq(l))"},
		{"global Agg", &optimizer.Node{Op: optimizer.OpHashAgg, Left: seq("l")}, "Agg[](Seq(l))"},
		{"bare column", &optimizer.Node{Op: optimizer.OpMergeJoin, Left: seq("a"), Right: seq("b"),
			LeftCol: optimizer.ColRef{Column: "x"}, RightCol: col("b", "y")},
			"MJ[x=b.y](Seq(a),Seq(b))"},
	}
	for _, c := range cases {
		if got := optimizer.FingerprintOf(c.root); got != c.want {
			t.Errorf("%s: fingerprint %q, want %q", c.name, got, c.want)
		}
	}
}
