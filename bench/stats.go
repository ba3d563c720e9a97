package main

import (
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"
)

// median returns the middle value of xs (mean of the two middle values for an
// even count); xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quartiles returns Q1 and Q3 the way Python's statistics.quantiles(xs, n=4)
// (exclusive method) does, so the spreads printed here are the ones the
// driver computes from the same values. Needs at least two values.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(i int) float64 {
		m := len(s)
		pos := float64(i) * float64(m+1) / 4
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > m-1 {
			j = m - 1
		}
		frac := pos - float64(j)
		return s[j-1] + (s[j]-s[j-1])*frac
	}
	return at(1), at(3)
}

// spread is the inter-quartile distance as a share of the median.
func spread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	q1, q3 := quartiles(xs)
	m := median(xs)
	if m == 0 {
		return 0
	}
	return math.Abs((q3 - q1) / m)
}

// percentile returns the q-quantile (nearest rank) of sorted ns.
func percentile(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// segmentCount is how many slices of equal op count a measured window is cut
// into; a workload's op count is a multiple of it.
const segmentCount = 20

// window records the latency of every op of one measured window and, with
// refEvery set, the host reference's kernel calls between them (hostref.go).
// It is sized up front so that recording allocates nothing while the clock
// runs.
type window struct {
	t0, last time.Time
	lat      []int64 // per op, ns
	// refEvery > 0 runs one reference kernel after every refEvery-th op.
	refEvery int
	ref      []refSample
}

func newWindow(ops, refEvery int) *window {
	w := &window{lat: make([]int64, 0, ops), refEvery: refEvery}
	if refEvery > 0 {
		w.ref = make([]refSample, 0, ops/refEvery+1)
	}
	return w
}

func (w *window) begin() { w.t0 = time.Now() }

// add records one op that started at start and took d, and then, when one is
// due, runs and records a reference kernel.
func (w *window) add(start time.Time, d time.Duration) {
	w.lat = append(w.lat, int64(d))
	w.last = start.Add(d)
	if w.refEvery > 0 && len(w.lat)%w.refEvery == 0 {
		k := len(w.ref) % refKernels
		w.ref = append(w.ref, refSample{op: int32(len(w.lat) - 1), kind: uint8(k), ns: int64(refKernel(k))})
	}
}

// timing is what a window reports: the median over its slices of each
// slice's p50, p99 and rate, the inter-quartile spread across slices beside
// each, and the sample count. The p50 is corrected for the host's speed:
// each slice's p50 is divided by that slice's host factor (hostref.go)
// before the median is taken. RawP50us is the same median without the
// correction and Host the median factor; p99 and the rate are as measured.
//
// Where every slice holds the same ops against the same frozen state (the
// predict workload: one pass over its sequence per slice), slices differ by
// the host alone, and P50us is the second-lowest slice's instead. That 19 us
// loopback round trip has two modes on a shared VM, 18.5 and 27 us, that hold
// for seconds (a sleeping vCPU's wake-up, which the reference kernels on the
// client's core cannot see): over twelve runs in a noisy hour the median over
// slices ran from 20 to 31 us, the second-fastest slice from 18.6 to 21 us in
// ten of them. Where slices differ by design (learner state, drift) a low
// slice would hide a regression in the others, so there it is the median.
type timing struct {
	P50us, P99us, QPS      float64
	P50iqr, P99iqr, QPSiqr float64
	RawP50us, Host         float64
	// HostByKernel is the whole window's factor of each reference kernel.
	HostByKernel [refKernels]float64
	Samples      int
	// WallS is how long the window lasted, reference kernels included.
	WallS float64
	// SameSlices says that P50us is the second-lowest slice's.
	SameSlices bool
}

func (w *window) timing(sameSlices bool) timing {
	per := len(w.lat) / segmentCount
	_, whole := hostFactor(w.ref, nil)
	var p50, raw, host, p99, qps []float64
	r := 0
	for s := 0; s < segmentCount; s++ {
		l := append([]int64(nil), w.lat[s*per:(s+1)*per]...)
		sort.Slice(l, func(i, j int) bool { return l[i] < l[j] })
		from := r
		for r < len(w.ref) && int(w.ref[r].op) < (s+1)*per {
			r++
		}
		f, _ := hostFactor(w.ref[from:r], &whole)
		var sum int64
		for _, x := range l {
			sum += x
		}
		raw = append(raw, float64(percentile(l, 0.50))/1e3)
		p50 = append(p50, raw[s]/f)
		host = append(host, f)
		p99 = append(p99, float64(percentile(l, 0.99))/1e3)
		qps = append(qps, 1e9*float64(per)/float64(sum))
	}
	t := timing{
		P50us: median(p50), P99us: median(p99), QPS: median(qps),
		P50iqr: spread(p50), P99iqr: spread(p99), QPSiqr: spread(qps),
		RawP50us: median(raw), Host: median(host), HostByKernel: whole,
		Samples: per * segmentCount, WallS: w.last.Sub(w.t0).Seconds(),
	}
	if sameSlices {
		sort.Float64s(p50)
		t.P50us, t.SameSlices = p50[1], true
	}
	return t
}

// calibSink keeps the calibration kernel's result alive.
var calibSink float64

// calibrate times a fixed pure-Go integer+float kernel (best of five) so
// stored results from different hosts compare as ratios, and so a run whose
// host speed moved while it measured can be flagged.
func calibrate() float64 {
	best := math.MaxFloat64
	for r := 0; r < 5; r++ {
		t0 := time.Now()
		x, f := uint64(88172645463325252), 1.0
		for i := 0; i < 1_000_000; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			f = f*1.0000001 + float64(x&0xff)*1e-9
		}
		calibSink = f
		if d := float64(time.Since(t0)); d < best {
			best = d
		}
	}
	return best
}

// clockNs is what time.Since(time.Now()) reads with nothing in between: the
// clock's share of every directly timed call, subtracted from the means of
// layer calls that last only tens of nanoseconds.
func clockNs() float64 {
	const n = 20000
	var d time.Duration
	for i := 0; i < n; i++ {
		t := time.Now()
		d += time.Since(t)
	}
	return float64(d) / n
}

// peakRSSMB reads VmHWM (the resident-set high-water mark) of a process.
func peakRSSMB(pid int) (float64, error) {
	b, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			f := strings.Fields(line)
			if len(f) >= 2 {
				kb, err := strconv.ParseFloat(f[1], 64)
				return kb / 1024, err
			}
		}
	}
	return 0, fmt.Errorf("no VmHWM for pid %d", pid)
}
