package executor

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/optimizer"
)

// fuzzKernelDB is shared by a fuzz worker's executions, which run one at a
// time: each re-doctors the key columns before it compiles anything.
var fuzzKernelDB = sync.OnceValue(func() *kernelDB { return newKernelDB(2000) })

// FuzzCompiledMatchesTreeWalk holds the compiled engine to the tree-walk
// engine, bit for bit and twice per plan (arena reuse), at a fuzzer-chosen
// key-column shape (and fill seed, whose parity doctors the filter columns),
// operator, build side, residual filter, second scan filter, top, comparison
// and parameter values: whichever kernels Compile and Exec choose for the
// doctored columns, the answer is the reference's. A parameter is a 16-bit
// position within — and a little beyond — its column's value range.
func FuzzCompiledMatchesTreeWalk(f *testing.F) {
	for shape := range keyShapes {
		for op := uint8(0); op < 10; op++ {
			// top mod 5 chooses the top, its bit 2 the string key and its bits
			// 3-4 the comparison (every combination of the three occurs among
			// the 256 values), op/5 the second scan filter; the residual
			// alternates with the shape, so every operator meets one with and
			// without the second filter, and each operator meets top 4.
			top := uint8(shape+int(op))%8 + 8*(uint8(shape+int(op))%4)
			f.Add(uint8(shape), int64(shape), op, (shape+int(op))%2 == 0, top, uint16(40000), uint16(35000), uint16(45000))
		}
	}
	f.Add(uint8(0), int64(1), uint8(0), true, uint8(6), uint16(0), uint16(65535), uint16(65535)) // string key, empty left input
	// topByte is a top argument that decodes to the given top, key kind and
	// comparison (every combination occurs below 160).
	topByte := func(top int, strKey bool, cmp int) uint8 {
		b := 0
		for b%5 != top || b%8 >= 4 != strKey || b/8%4 != cmp {
			b++
		}
		return uint8(b)
	}
	for shape := range keyShapes {
		cmp, seed := shape%4, int64(shape)
		// SUM, AVG, MIN and MAX folded over the customer scan's bitmap (a scan
		// case's top 1; its doctored c_date on odd seeds).
		f.Add(uint8(shape), seed, uint8(4), false, topByte(0, false, cmp), uint16(40000), uint16(35000), uint16(45000))
		// The probe side's vector read above, so the scan extracts it: gathered
		// by GROUP BY its key (orders probes a left build, customer a right
		// one), or read by the residual filter under a top that would
		// otherwise stream it.
		f.Add(uint8(shape), seed, uint8(0), false, topByte(3, shape%2 == 0, cmp), uint16(40000), uint16(35000), uint16(45000))
		f.Add(uint8(shape), seed, uint8(1), false, topByte(2, shape%2 == 1, cmp), uint16(40000), uint16(35000), uint16(45000))
		f.Add(uint8(shape), seed, uint8(5), true, topByte(2, false, cmp), uint16(40000), uint16(35000), uint16(45000))
		f.Add(uint8(shape), seed, uint8(1), true, topByte(3, false, cmp), uint16(40000), uint16(35000), uint16(45000))
	}
	f.Fuzz(func(t *testing.T, shape uint8, seed int64, op uint8, residual bool, top uint8, p0, p1, p2 uint16) {
		k := fuzzKernelDB()
		kc := kernelCase{residual: residual, multi: op/5%2 == 1, top: int(top % 5), strKey: top%8 >= 4, cmp: int(top / 8 % 4)}
		switch op % 5 {
		case 0:
			kc.op, kc.buildLeft = optimizer.OpHashJoin, true
		case 1:
			kc.op = optimizer.OpHashJoin
		case 2:
			kc.op = optimizer.OpMergeJoin
		case 3:
			kc.op = optimizer.OpIndexNLJoin
		case 4:
			kc.op = optimizer.OpSeqScan
			kc.top = 1 + kc.top%4
		}
		if kc.strKey && (kc.op == optimizer.OpMergeJoin || kc.op == optimizer.OpIndexNLJoin) {
			return // no such plan: the optimizer never costs one, the compiler refuses it
		}
		ks := keyShapes[int(shape)%len(keyShapes)]
		ex := k.doctor(t, ks, seed)
		pos := func(p uint16) float64 { return float64(p)/65535*1.2 - 0.1 }
		kc.check(t, ex, fmt.Sprintf("%s (seed %d): %v", ks.name, seed, kc), k.quantiles(pos(p0), pos(p1), pos(p2)))
	})
}
