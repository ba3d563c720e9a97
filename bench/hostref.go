package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"
)

// The host reference. The benchmark runs on a few cores of a shared host
// whose speed for this kind of code (allocation-heavy, pointer-chasing, GC
// beside it) moves by 20-40% over minutes: the same 23 000 ops of one seed
// cost 12.9 CPU-seconds in one run and 16.0 in the next, and every quantile
// of the op latency moves with it. No statistic of the op's own latencies can
// tell that from a slower program. What can is a fixed piece of work timed in
// the same loop: between measured ops the harness runs one of three small
// kernels, standard library only and never changed, and each slice's op p50
// is divided by how much slower than nominal the kernels ran in that slice.
// Over 45 runs of one seed of miss_optimize on a restless afternoon the raw
// p50 spread by 11.8% (range 32%), the corrected one by 1.5% (range 6%).
//
// The three kernels respond to different kinds of interference (one kind of
// spell, a busy sibling hyperthread by the look of it, slows all three by a
// third while the op is a quarter slower; another slows the two allocating
// ones by a fifth and leaves the integer loop alone), and the geometric mean
// of the three tracked the op best or second-best in every study; README.md
// has the numbers.

// refKernels is the number of kernels; call c of a window runs kernel c mod 3.
const refKernels = 3

// refNominalNs is what each kernel takes, p50, between the ops of the two
// in-process workloads on the quiet 2-vCPU host the benchmark was sized on
// (the same host as spec.opsPerSec). A corrected latency therefore reads as
// microseconds on that host at rest, and equals the raw one there. Beside a
// busy server the kernels run slower than this even on a quiet host (1.4x on
// serve_durable, whose leader and replica work on the sibling core between
// requests); that is a constant of the workload and part of its number.
var refNominalNs = [refKernels]float64{14900, 27700, 15800}

var (
	refRand = rand.New(rand.NewSource(2012))
	refSink int
)

type refItem struct {
	key  string
	val  float64
	next *refItem
}

type refNode struct {
	l, r *refNode
	s    string
}

func refTree(depth int) *refNode {
	if depth == 0 {
		return nil
	}
	return &refNode{l: refTree(depth - 1), r: refTree(depth - 1), s: fmt.Sprintf("n%d", refRand.Intn(1000))}
}

// refKernel runs kernel k once and returns how long it took.
func refKernel(k int) time.Duration {
	t0 := time.Now()
	switch k {
	case 0: // four independent integer chains: wide, no memory
		a, b, c, d := uint64(1), uint64(2), uint64(3), uint64(4)
		for j := 0; j < 10000; j++ {
			a = a*6364136223846793005 + 1442695040888963407
			b ^= b << 13
			b ^= b >> 7
			c = c*2862933555777941757 + 3037000493
			d ^= d >> 11
			d += a
		}
		refSink += int(a + b + c + d)
	case 1: // a hundred small objects into a map and a sorted slice
		m := make(map[string]*refItem, 64)
		var items []*refItem
		var prev *refItem
		for j := 0; j < 100; j++ {
			it := &refItem{key: "k" + fmt.Sprint(refRand.Intn(10000)), val: refRand.Float64(), next: prev}
			prev = it
			m[it.key] = it
			items = append(items, it)
		}
		sort.Slice(items, func(a, b int) bool { return items[a].val < items[b].val })
		refSink += len(m) + len(items[0].key)
	case 2: // a 127-node tree of formatted strings
		refSink += len(refTree(7).s)
	}
	return time.Since(t0)
}

// refSample is one kernel call: after which op of the window it ran, which
// kernel, how long.
type refSample struct {
	op   int32
	kind uint8
	ns   int64
}

// hostFactor is how much slower than nominal the kernels ran among the
// samples: the geometric mean over the kernels of p50 / nominal. A kernel
// with no sample among them falls back to whole (the whole window's
// factors), which only happens in runs of a few dozen ops.
func hostFactor(samples []refSample, whole *[refKernels]float64) (factor float64, perKernel [refKernels]float64) {
	var by [refKernels][]int64
	for _, s := range samples {
		by[s.kind] = append(by[s.kind], s.ns)
	}
	logSum := 0.0
	for k := range by {
		switch {
		case len(by[k]) > 0:
			sort.Slice(by[k], func(i, j int) bool { return by[k][i] < by[k][j] })
			perKernel[k] = float64(percentile(by[k], 0.5)) / refNominalNs[k]
		case whole != nil:
			perKernel[k] = whole[k]
		default:
			perKernel[k] = 1
		}
		logSum += math.Log(perKernel[k])
	}
	return math.Exp(logSum / refKernels), perKernel
}
