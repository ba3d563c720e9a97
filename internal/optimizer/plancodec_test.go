package optimizer_test

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/optimizer"
	"repro/internal/queries"
)

// TestPlanTreeCodecRoundTripsOptimizerPlans: every standard template's plans
// at seeded points decode to a tree with the original's fingerprint that
// re-encodes to the same bytes. The encoding carries every field
// (TestPlanTreeCodecCarriesEveryField), so equal bytes are an equal tree,
// up to an empty slice coming back nil.
func TestPlanTreeCodecRoundTripsOptimizerPlans(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	for _, d := range queries.Defs {
		tm := tmpl(t, d.Name)
		for i := 0; i < 8; i++ {
			point := make([]float64, tm.Degree())
			for j := range point {
				point[j] = rng.Float64()
			}
			inst, err := opt.InstanceAt(tm, point)
			if err != nil {
				t.Fatal(err)
			}
			plan, err := opt.OptimizeInstance(inst)
			if err != nil {
				t.Fatal(err)
			}
			enc := optimizer.AppendTree(nil, plan.Root)
			got, err := optimizer.DecodeTree(enc)
			if err != nil {
				t.Fatalf("%s: %v", d.Name, err)
			}
			if optimizer.FingerprintOf(got) != plan.Fingerprint || !bytes.Equal(optimizer.AppendTree(nil, got), enc) {
				t.Fatalf("%s: the decoded tree differs from %s", d.Name, plan.Fingerprint)
			}
		}
	}
}

// TestPlanTreeCodecCarriesEveryField: a tree in which every Node, Predicate,
// ColRef and SelectItem field is set survives the codec whole. A field added
// to those types fails here until the codec carries it.
func TestPlanTreeCodecCarriesEveryField(t *testing.T) {
	col := func(c string) optimizer.ColRef { return optimizer.ColRef{Alias: "a", Column: c} }
	pred := optimizer.Predicate{Kind: optimizer.PredBetween, Col: col("p"), Op: optimizer.OpGT, Value: 1.5, Lo: -2,
		Hi: 3, ParamIdx: 2, StrValue: "s", RightCol: col("r"), Site: 4}
	node := func(op optimizer.OpKind) *optimizer.Node {
		return &optimizer.Node{Op: op, Table: "t", Alias: "a", IndexCol: "i", IndexLo: 0.5, IndexHi: 9,
			Filters: []optimizer.Predicate{pred}, LeftCol: col("l"), RightCol: col("r"), BuildLeft: true,
			GroupBy: []optimizer.ColRef{col("g")}, Aggs: []optimizer.SelectItem{{Agg: optimizer.AggMax, Col: col("m")}},
			EstRows: 7, EstCost: 8, SortedOn: col("s"), IndexSite: 5, JoinSite: 6}
	}
	root := node(optimizer.OpHashAgg)
	root.Left = node(optimizer.OpMergeJoin)
	root.Left.Left, root.Left.Right = node(optimizer.OpIndexScan), node(optimizer.OpSeqScan)
	for _, v := range []any{*root, pred, pred.Col, root.Aggs[0]} {
		rv := reflect.ValueOf(v)
		for i := 0; i < rv.NumField(); i++ {
			if name := rv.Type().Field(i).Name; rv.Field(i).IsZero() && name != "Right" {
				t.Fatalf("the test tree leaves %s.%s zero", rv.Type().Name(), name)
			}
		}
	}
	enc := optimizer.AppendTree(nil, root)
	got, err := optimizer.DecodeTree(enc)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, root) {
		t.Fatalf("decoded %+v, want %+v", got, root)
	}
}

// TestPlanTreeCodecRejects: truncation, trailing bytes, a shape no operator
// has, and a tree past the depth cap are errors, never a panic or a tree.
func TestPlanTreeCodecRejects(t *testing.T) {
	scan := func() *optimizer.Node { return &optimizer.Node{Op: optimizer.OpSeqScan, Table: "t", Alias: "a"} }
	join := &optimizer.Node{Op: optimizer.OpHashJoin, Left: scan(), Right: scan()}
	enc := optimizer.AppendTree(nil, join)
	for cut := 0; cut < len(enc); cut++ {
		if _, err := optimizer.DecodeTree(enc[:cut]); err == nil {
			t.Fatalf("a tree cut at %d of %d bytes decoded", cut, len(enc))
		}
	}
	if _, err := optimizer.DecodeTree(append(enc, 0)); err == nil {
		t.Error("a tree with a trailing byte decoded")
	}
	for name, bad := range map[string]*optimizer.Node{
		"scan with a child":     {Op: optimizer.OpSeqScan, Left: scan()},
		"join with one child":   {Op: optimizer.OpNLJoin, Left: scan()},
		"aggregate with right":  {Op: optimizer.OpHashAgg, Left: scan(), Right: scan()},
		"undeclared operator":   {Op: optimizer.OpHashAgg + 1},
		"parameter index below": {Op: optimizer.OpSeqScan, Filters: []optimizer.Predicate{{ParamIdx: -2}}},
	} {
		if _, err := optimizer.DecodeTree(optimizer.AppendTree(nil, bad)); err == nil {
			t.Errorf("%s: decoded", name)
		}
	}
	deep := scan()
	for i := 0; i < 100; i++ {
		deep = &optimizer.Node{Op: optimizer.OpHashAgg, Left: deep}
	}
	if _, err := optimizer.DecodeTree(optimizer.AppendTree(nil, deep)); err == nil {
		t.Error("a tree 100 aggregates deep decoded")
	}
}
