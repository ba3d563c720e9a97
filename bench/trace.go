package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"sort"
	"time"
)

// span is one harness call into a layer. Spans of one op share the op id;
// parent is the index of the span that caused it (-1 for a root). A span
// with start == 0 is duration-only: its length is known (the program
// reported it) but not where in the parent it lay.
type span struct {
	name       string
	parent, op int32
	start, end int64 // ns since the tracer started
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer(capacity int) *tracer {
	return &tracer{t0: time.Now(), spans: make([]span, 0, capacity)}
}

// add records a span and returns its index, for use as a parent.
func (t *tracer) add(name string, parent int32, op int, start time.Time, d time.Duration) int32 {
	s := start.Sub(t.t0).Nanoseconds()
	t.spans = append(t.spans, span{name: name, parent: parent, op: int32(op), start: s, end: s + int64(d)})
	return int32(len(t.spans) - 1)
}

// child records a duration-only child of parent.
func (t *tracer) child(name string, parent int32, op int, d time.Duration) {
	t.spans = append(t.spans, span{name: name, parent: parent, op: int32(op), end: int64(d)})
}

// timed runs fn inside a root span.
func (t *tracer) timed(name string, op int, fn func()) time.Duration {
	t0 := time.Now()
	fn()
	d := time.Since(t0)
	t.add(name, -1, op, t0, d)
	return d
}

// write emits one JSON object per span.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	for i, s := range t.spans {
		fmt.Fprintf(w, `{"id":%d,"name":%q,"start":%d,"end":%d,"parent":%d,"op":%d}`+"\n",
			i, s.name, s.start, s.end, s.parent, s.op)
	}
	if err := w.Flush(); err != nil {
		f.Close() //nolint:errcheck
		return err
	}
	return f.Close()
}

// layerRow is one line of the per-layer table: time in the layer itself
// (span minus children), its share of the wall time of the root spans, how
// many calls, and allocations per call where they were measured (-1 if not).
type layerRow struct {
	Name   string
	SelfNs float64
	Share  float64
	Count  int
	Allocs float64
}

// selfTimes folds the spans under the given root name into per-name self
// times: a span's self time is its duration minus its children's. The rows
// therefore sum to the roots' total duration by construction.
func (t *tracer) selfTimes(root string) (rows []layerRow, wallNs float64) {
	childSum := make([]int64, len(t.spans))
	inTree := make([]bool, len(t.spans))
	for i, s := range t.spans {
		if s.parent < 0 {
			inTree[i] = s.name == root
			continue
		}
		inTree[i] = inTree[s.parent]
		childSum[s.parent] += s.end - s.start
	}
	agg := map[string]*layerRow{}
	for i, s := range t.spans {
		if !inTree[i] {
			continue
		}
		r := agg[s.name]
		if r == nil {
			r = &layerRow{Name: s.name, Allocs: -1}
			agg[s.name] = r
		}
		r.Count++
		r.SelfNs += float64(s.end - s.start - childSum[i])
		if s.parent < 0 {
			wallNs += float64(s.end - s.start)
		}
	}
	for _, r := range agg {
		if wallNs > 0 {
			r.Share = r.SelfNs / wallNs
		}
		rows = append(rows, *r)
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].SelfNs > rows[j].SelfNs })
	return rows, wallNs
}

// meanNs is the mean duration of the root spans with the given name.
func (t *tracer) meanNs(name string) (mean float64, n int) {
	var sum int64
	for _, s := range t.spans {
		if s.name == name && s.parent < 0 {
			sum += s.end - s.start
			n++
		}
	}
	if n == 0 {
		return 0, 0
	}
	return float64(sum) / float64(n), n
}

func printTable(w io.Writer, title string, rows []layerRow, wallNs float64) {
	fmt.Fprintf(w, "%s (wall %.1f ms)\n", title, wallNs/1e6)
	fmt.Fprintf(w, "  %-32s %14s %8s %9s %8s\n", "layer", "self ns total", "share", "count", "allocs")
	var sum float64
	for _, r := range rows {
		allocs := "-"
		if r.Allocs >= 0 {
			allocs = fmt.Sprintf("%.1f", r.Allocs)
		}
		fmt.Fprintf(w, "  %-32s %14.0f %7.1f%% %9d %8s\n", r.Name, r.SelfNs, 100*r.Share, r.Count, allocs)
		sum += r.SelfNs
	}
	fmt.Fprintf(w, "  %-32s %14.0f %7.1f%%\n", "sum", sum, 100*sum/wallNs)
}

// overheadChunk is about how many ops run before tracing is toggled.
const overheadChunk = 256

// blocks runs ops ops through op in chunks of about overheadChunk, every
// other chunk traced, and records the tracing overhead in percent of the op
// p50, and the p99 and rate of the untraced chunks. The fine interleaving
// keeps a workload's drift, and a wire workload's wandering scheduling,
// equally on both sides.
func blocks(res *runResult, ops int, tr *tracer, op func(n int, w *window, tr *tracer)) {
	pairs := ops / (2 * overheadChunk)
	if pairs < 1 {
		pairs = 1
	}
	chunk := ops / (2 * pairs)
	var lat [2][]int64
	for c := 0; c < 2*pairs; c++ {
		w := newWindow(chunk, 0)
		w.begin()
		if c%2 == 0 {
			op(chunk, w, nil)
		} else {
			op(chunk, w, tr)
		}
		lat[c%2] = append(lat[c%2], w.lat...)
	}
	for _, l := range lat {
		sort.Slice(l, func(i, j int) bool { return l[i] < l[j] })
	}
	plain, traced := float64(percentile(lat[0], 0.5)), float64(percentile(lat[1], 0.5))
	res.set("bench.tracing_overhead_pct", 100*(traced/plain-1), "%", fmt.Sprintf("traced vs untraced op p50, chunks of %d ops interleaved", chunk))
	var sum int64
	for _, l := range lat[0] {
		sum += l
	}
	unsteady := fmt.Sprintf("untraced chunks, n=%d; too unsteady run to run on a shared host to be an end-to-end gate", len(lat[0]))
	res.set("op_p99_us", float64(percentile(lat[0], 0.99))/1e3, "us", unsteady)
	res.set("op_qps", 1e9*float64(len(lat[0]))/float64(sum), "1/s", unsteady+"; one closed-loop client, so 1/mean latency")
}
