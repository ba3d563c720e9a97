package optimizer

import (
	"encoding/binary"
	"fmt"
	"math"
)

// The plan-tree codec: how a checkpoint stores a cached plan's tree. It
// carries every Node field, so a decoded tree compiles, recosts and
// fingerprints exactly like the tree that was encoded. Nodes are written in
// pre-order, little endian, strings under a u32 length:
//
//	u8 op; str table, alias, indexCol; f64 indexLo, indexHi
//	u32 filters; per filter: u8 kind, op; col col, rightCol;
//	    f64 value, lo, hi; i32 paramIdx; u32 site; str strValue
//	col leftCol, rightCol, sortedOn (each: str alias, str column)
//	u8 flags: 1 buildLeft, 2 left child follows, 4 right child follows
//	u32 groupBy; per column: col
//	u32 aggs; per item: u8 agg; col
//	f64 estRows, estCost; u32 indexSite, joinSite
//	left subtree, right subtree
const (
	// maxTreeDepth and maxTreeNodes bound what DecodeTree builds; an
	// optimizer tree of maxJoinRelations relations is far inside both.
	maxTreeDepth = 64
	maxTreeNodes = 1024
)

// childShape is the flags>>1 value each operator's children must show:
// scans are leaves, joins are binary, HashAgg is unary via Left.
var childShape = [...]uint8{OpSeqScan: 0, OpIndexScan: 0, OpHashJoin: 3, OpMergeJoin: 3,
	OpIndexNLJoin: 3, OpNLJoin: 3, OpHashAgg: 1}

// AppendTree appends the encoding of the tree under n to dst.
func AppendTree(dst []byte, n *Node) []byte {
	le := binary.LittleEndian
	str := func(b []byte, s string) []byte { return append(le.AppendUint32(b, uint32(len(s))), s...) }
	col := func(b []byte, c ColRef) []byte { return str(str(b, c.Alias), c.Column) }
	f64 := func(b []byte, v float64) []byte { return le.AppendUint64(b, math.Float64bits(v)) }

	dst = str(str(str(append(dst, byte(n.Op)), n.Table), n.Alias), n.IndexCol)
	dst = f64(f64(dst, n.IndexLo), n.IndexHi)
	dst = le.AppendUint32(dst, uint32(len(n.Filters)))
	for _, p := range n.Filters {
		dst = col(col(append(dst, byte(p.Kind), byte(p.Op)), p.Col), p.RightCol)
		dst = f64(f64(f64(dst, p.Value), p.Lo), p.Hi)
		dst = le.AppendUint32(le.AppendUint32(dst, uint32(int32(p.ParamIdx))), uint32(p.Site))
		dst = str(dst, p.StrValue)
	}
	dst = col(col(col(dst, n.LeftCol), n.RightCol), n.SortedOn)
	var flags byte
	if n.BuildLeft {
		flags |= 1
	}
	if n.Left != nil {
		flags |= 2
	}
	if n.Right != nil {
		flags |= 4
	}
	dst = le.AppendUint32(append(dst, flags), uint32(len(n.GroupBy)))
	for _, c := range n.GroupBy {
		dst = col(dst, c)
	}
	dst = le.AppendUint32(dst, uint32(len(n.Aggs)))
	for _, a := range n.Aggs {
		dst = col(append(dst, byte(a.Agg)), a.Col)
	}
	dst = f64(f64(dst, n.EstRows), n.EstCost)
	dst = le.AppendUint32(le.AppendUint32(dst, uint32(n.IndexSite)), uint32(n.JoinSite))
	if n.Left != nil {
		dst = AppendTree(dst, n.Left)
	}
	if n.Right != nil {
		dst = AppendTree(dst, n.Right)
	}
	return dst
}

// DecodeTree decodes a tree written by AppendTree. It rejects truncated or
// trailing bytes, an enum value no operator, predicate or aggregate has, a
// parameter index below -1, children no operator of that kind has, and a
// tree deeper than maxTreeDepth or larger than maxTreeNodes.
func DecodeTree(b []byte) (*Node, error) {
	d := treeDecoder{b: b}
	root := d.node(0)
	if d.err == nil && len(d.b) != 0 {
		d.fail("%d trailing bytes", len(d.b))
	}
	if d.err != nil {
		return nil, fmt.Errorf("optimizer: plan tree: %w", d.err)
	}
	return root, nil
}

// treeDecoder consumes an encoded tree front to back; its first error
// sticks and every later read returns zero values.
type treeDecoder struct {
	b     []byte
	nodes int
	err   error
}

func (d *treeDecoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf(format, args...)
	}
}

// zeros backs the fixed-width reads after an error.
var zeros [8]byte

func (d *treeDecoder) take(n int) []byte {
	if len(d.b) < n {
		d.fail("truncated (%d of %d bytes)", len(d.b), n)
	}
	if d.err != nil {
		return zeros[:min(n, len(zeros))]
	}
	out := d.b[:n]
	d.b = d.b[n:]
	return out
}

func (d *treeDecoder) u8() uint8   { return d.take(1)[0] }
func (d *treeDecoder) u32() uint32 { return binary.LittleEndian.Uint32(d.take(4)) }
func (d *treeDecoder) f64() float64 {
	return math.Float64frombits(binary.LittleEndian.Uint64(d.take(8)))
}
func (d *treeDecoder) str() string { return string(d.take(int(d.u32()))) }

func (d *treeDecoder) col() ColRef { return ColRef{Alias: d.str(), Column: d.str()} }

// enum reads a one-byte enum value and fails past max.
func (d *treeDecoder) enum(max int) int {
	v := int(d.u8())
	if v > max {
		d.fail("enum value %d past %d", v, max)
	}
	return v
}

func (d *treeDecoder) node(depth int) *Node {
	if d.nodes++; d.nodes > maxTreeNodes || depth > maxTreeDepth {
		d.fail("more than %d nodes or deeper than %d", maxTreeNodes, maxTreeDepth)
	}
	if d.err != nil {
		return nil
	}
	n := &Node{Op: OpKind(d.enum(int(OpHashAgg))), Table: d.str(), Alias: d.str(), IndexCol: d.str(),
		IndexLo: d.f64(), IndexHi: d.f64()}
	for i := d.u32(); i > 0 && d.err == nil; i-- {
		p := Predicate{Kind: PredKind(d.enum(int(PredBetween))), Op: CmpOp(d.enum(int(OpGT))),
			Col: d.col(), RightCol: d.col(), Value: d.f64(), Lo: d.f64(), Hi: d.f64(),
			ParamIdx: int(int32(d.u32())), Site: int(d.u32()), StrValue: d.str()}
		if p.ParamIdx < -1 {
			d.fail("parameter index %d", p.ParamIdx)
		}
		n.Filters = append(n.Filters, p)
	}
	n.LeftCol, n.RightCol, n.SortedOn = d.col(), d.col(), d.col()
	flags := d.u8()
	n.BuildLeft = flags&1 != 0
	for i := d.u32(); i > 0 && d.err == nil; i-- {
		n.GroupBy = append(n.GroupBy, d.col())
	}
	for i := d.u32(); i > 0 && d.err == nil; i-- {
		n.Aggs = append(n.Aggs, SelectItem{Agg: AggFunc(d.enum(int(AggMax))), Col: d.col()})
	}
	n.EstRows, n.EstCost = d.f64(), d.f64()
	n.IndexSite, n.JoinSite = int(d.u32()), int(d.u32())
	if d.err != nil {
		return nil
	}
	if flags > 7 || flags>>1 != childShape[n.Op] {
		d.fail("%v node with child flags %d", n.Op, flags>>1)
	}
	if flags&2 != 0 {
		n.Left = d.node(depth + 1)
	}
	if flags&4 != 0 {
		n.Right = d.node(depth + 1)
	}
	return n
}
