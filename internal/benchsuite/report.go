package benchsuite

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"testing"

	ppc "repro"
)

// Schema identifies the report format; bump on incompatible changes.
const Schema = "ppc-bench/v1"

// Suite lists the serving-path benchmarks in report order.
var Suite = []struct {
	Name string
	Fn   func(*testing.B)
}{
	{"PredictApproxLSHHist", PredictApproxLSHHist},
	{"PredictModelSnapshot", PredictModelSnapshot},
	{"PredictModelManyPlans", PredictModelManyPlans},
	{"InsertApproxLSHHist", InsertApproxLSHHist},
	{"WALAppend", WALAppend},
	{"EndToEndRun", EndToEndRun},
	{"RebindCachedPlan", RebindCachedPlan},
	{"RunWithWAL", RunWithWAL},
	{"RunMixedSerial", RunMixedSerial},
	{"RunParallel", RunParallel},
	{"RunHotTemplateParallel", RunHotTemplateParallel},
	{"ReplicaPredict", ReplicaPredict},
}

// Result is one benchmark measurement in machine-readable form.
type Result struct {
	Name        string  `json:"name"`
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
}

// Measure runs one suite entry under testing.Benchmark and converts the
// outcome. A zero-iteration result means the body failed during setup.
func Measure(name string, fn func(*testing.B)) (Result, error) {
	r := testing.Benchmark(fn)
	if r.N == 0 {
		return Result{}, fmt.Errorf("benchsuite: %s produced no iterations (setup failure?)", name)
	}
	return Result{
		Name:        name,
		Iterations:  r.N,
		NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
		AllocsPerOp: float64(r.AllocsPerOp()),
		BytesPerOp:  float64(r.AllocedBytesPerOp()),
	}, nil
}

// Report is the machine-readable output of one suite run. ParallelSpeedup
// is RunMixedSerial ns/op divided by RunParallel ns/op — the throughput
// gain the sharded locks buy on a mixed-template workload. It is bounded
// above by GOMAXPROCS, so single-CPU hosts report ~1 regardless of the
// locking design; always read it together with the gomaxprocs field.
type Report struct {
	Schema          string   `json:"schema"`
	Note            string   `json:"note,omitempty"`
	GoVersion       string   `json:"go_version"`
	GOMAXPROCS      int      `json:"gomaxprocs"`
	NumCPU          int      `json:"num_cpu"`
	Benchmarks      []Result `json:"benchmarks"`
	ParallelSpeedup float64  `json:"parallel_speedup,omitempty"`
	// HotTemplateSpeedup is EndToEndRun ns/op divided by
	// RunHotTemplateParallel ns/op — the throughput gain of the lock-free
	// snapshot serving path when every goroutine hits the SAME template.
	// Per-template sharding alone cannot move this number above ~1; only
	// the PR 4 read/write split can. Like ParallelSpeedup it is bounded by
	// GOMAXPROCS.
	HotTemplateSpeedup float64 `json:"hot_template_speedup,omitempty"`
	// WALOverhead is RunWithWAL ns/op divided by EndToEndRun ns/op — the
	// end-to-end cost multiplier of durability on the serving path (1.0
	// means free; the WAL substrate uses the SyncInterval group-commit
	// policy). RecoveryMs is the wall time a fresh System took to recover
	// a crash image of that substrate's durability directory (WAL scan,
	// repair and tail replay), and RecoveryReplayed the records it
	// replayed — together they calibrate the checkpoint-interval/restart-
	// time trade-off.
	WALOverhead      float64 `json:"wal_overhead,omitempty"`
	RecoveryMs       float64 `json:"recovery_ms,omitempty"`
	RecoveryReplayed int     `json:"recovery_replayed,omitempty"`
	// RunAllocsPerOp surfaces EndToEndRun's allocation count at the top
	// level, and RebindNs the RebindCachedPlan ns/op — the two numbers the
	// PR 7 batched-executor work is budgeted against (the alloc guard
	// enforces RunAllocsPerOp <= 32 in tier 1).
	RunAllocsPerOp float64 `json:"run_allocs_per_op,omitempty"`
	RebindNs       float64 `json:"rebind_ns,omitempty"`
	// ReplicaPredictNs surfaces the ReplicaPredict ns/op (the follower's
	// serving path; the alloc guard holds it at zero allocations), and the
	// next two the PR 8 replication measurements: ReplicaCatchupMs is the
	// wall time a fresh replica took to install a snapshot of the WAL
	// substrate and drain the backlog, ReplicationLagRecords the peak
	// applied-record lag it observed while tailing a live write burst.
	// The lag field is deliberately not omitempty: when the replication
	// measurement ran (ReplicaCatchupMs > 0), a recorded 0 is the result —
	// shipping kept pace with the write rate — not an absence.
	ReplicaPredictNs      float64 `json:"replica_predict_ns,omitempty"`
	ReplicaCatchupMs      float64 `json:"replica_catchup_ms,omitempty"`
	ReplicationLagRecords uint64  `json:"replication_lag_records"`
	// QErrorP50 and QErrorP95 summarize the estimation q-error distribution
	// (estimated vs. observed operator cardinalities, merged across the Run
	// substrate's templates), and MemoInvalidations counts the memo rebuilds
	// correction-epoch movement forced — the PR 9 adaptive-statistics
	// health numbers. All zero when no Run benchmark executed plans.
	QErrorP50         float64 `json:"qerror_p50,omitempty"`
	QErrorP95         float64 `json:"qerror_p95,omitempty"`
	MemoInvalidations uint64  `json:"memo_invalidations"`
	// The PR 10 candidate-generation and tunable-LSH numbers. CandidateCount
	// is how many structurally distinct candidate plans the generator
	// interned for the candidate substrate's template, CandidateRouted how
	// many of its runs the candidate router decided without a full
	// optimization, and RetuneEpochs the tunable-LSH re-tune epoch its
	// learner reached over a drifting workload. The drift_precision_* and
	// drift_recall_* pairs compare a fixed construction-time transform grid
	// against the re-tuned one on an identical drifting stream (same labels,
	// same base-ensemble seed): precision is correct/predicted, recall
	// predicted/queried. All additive — the schema stays ppc-bench/v1.
	CandidateCount        int64   `json:"candidate_count,omitempty"`
	CandidateRouted       uint64  `json:"candidate_routed,omitempty"`
	RetuneEpochs          uint64  `json:"retune_epochs,omitempty"`
	DriftPrecisionFixed   float64 `json:"drift_precision_fixed,omitempty"`
	DriftPrecisionTunable float64 `json:"drift_precision_tunable,omitempty"`
	DriftRecallFixed      float64 `json:"drift_recall_fixed,omitempty"`
	DriftRecallTunable    float64 `json:"drift_recall_tunable,omitempty"`
	// BaselineFile and Deltas are filled when the run is compared against
	// a stored baseline report (ppcbench -baseline).
	BaselineFile string   `json:"baseline_file,omitempty"`
	Baseline     []Result `json:"baseline,omitempty"`
	Deltas       []Delta  `json:"deltas,omitempty"`
	// ServingMetrics, when requested (ppcbench -metrics), is the
	// observability snapshot of the System the Run benchmarks exercised.
	// Optional and additive, so the schema stays ppc-bench/v1.
	ServingMetrics *ppc.MetricsSnapshot `json:"serving_metrics,omitempty"`
}

// RunSuite measures every suite entry and assembles a Report.
func RunSuite(progress io.Writer) (Report, error) {
	rep := Report{
		Schema:     Schema,
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
	}
	for _, entry := range Suite {
		if progress != nil {
			fmt.Fprintf(progress, "benchmarking %s...\n", entry.Name)
		}
		res, err := Measure(entry.Name, entry.Fn)
		if err != nil {
			return Report{}, err
		}
		rep.Benchmarks = append(rep.Benchmarks, res)
	}
	serial, okS := rep.Find("RunMixedSerial")
	par, okP := rep.Find("RunParallel")
	if okS && okP && par.NsPerOp > 0 {
		rep.ParallelSpeedup = serial.NsPerOp / par.NsPerOp
	}
	one, okO := rep.Find("EndToEndRun")
	hot, okH := rep.Find("RunHotTemplateParallel")
	if okO && okH && hot.NsPerOp > 0 {
		rep.HotTemplateSpeedup = one.NsPerOp / hot.NsPerOp
	}
	walRes, okW := rep.Find("RunWithWAL")
	if okO && okW && one.NsPerOp > 0 {
		rep.WALOverhead = walRes.NsPerOp / one.NsPerOp
	}
	if okO {
		rep.RunAllocsPerOp = one.AllocsPerOp
	}
	if rb, ok := rep.Find("RebindCachedPlan"); ok {
		rep.RebindNs = rb.NsPerOp
	}
	if progress != nil {
		fmt.Fprintln(progress, "measuring crash recovery...")
	}
	ms, replayed, err := MeasureRecovery()
	if err != nil {
		return Report{}, err
	}
	rep.RecoveryMs = ms
	rep.RecoveryReplayed = replayed
	if rp, ok := rep.Find("ReplicaPredict"); ok {
		rep.ReplicaPredictNs = rp.NsPerOp
	}
	if progress != nil {
		fmt.Fprintln(progress, "measuring replication...")
	}
	catchup, lag, err := MeasureReplication()
	if err != nil {
		return Report{}, err
	}
	rep.ReplicaCatchupMs = catchup
	rep.ReplicationLagRecords = lag
	rep.QErrorP50, rep.QErrorP95, rep.MemoInvalidations = AdaptiveStatsSummary()
	if progress != nil {
		fmt.Fprintln(progress, "measuring drift precision (fixed vs tunable LSH)...")
	}
	drift, err := MeasureDriftPrecision()
	if err != nil {
		return Report{}, err
	}
	rep.DriftPrecisionFixed = drift.FixedPrecision
	rep.DriftPrecisionTunable = drift.TunablePrecision
	rep.DriftRecallFixed = drift.FixedRecall
	rep.DriftRecallTunable = drift.TunableRecall
	rep.RetuneEpochs = drift.RetuneEpochs
	if progress != nil {
		fmt.Fprintln(progress, "measuring candidate routing...")
	}
	cand, err := MeasureCandidates()
	if err != nil {
		return Report{}, err
	}
	rep.CandidateCount = cand.CandidatePlans
	rep.CandidateRouted = cand.CandidateRouted
	if cand.RetuneEpochs > rep.RetuneEpochs {
		rep.RetuneEpochs = cand.RetuneEpochs
	}
	return rep, nil
}

// Find returns the named benchmark's result.
func (r Report) Find(name string) (Result, bool) {
	for _, b := range r.Benchmarks {
		if b.Name == name {
			return b, true
		}
	}
	return Result{}, false
}

// Delta compares one benchmark between two reports. Percentages follow
// benchcmp's convention: negative means the new run is better (less time,
// fewer allocations).
type Delta struct {
	Name          string  `json:"name"`
	OldNsPerOp    float64 `json:"old_ns_per_op"`
	NewNsPerOp    float64 `json:"new_ns_per_op"`
	NsDeltaPct    float64 `json:"ns_delta_pct"`
	OldAllocsOp   float64 `json:"old_allocs_per_op"`
	NewAllocsOp   float64 `json:"new_allocs_per_op"`
	AllocDeltaPct float64 `json:"allocs_delta_pct"`
	OldBytesOp    float64 `json:"old_bytes_per_op"`
	NewBytesOp    float64 `json:"new_bytes_per_op"`
	BytesDeltaPct float64 `json:"bytes_delta_pct"`
}

// Compare produces deltas for every benchmark present in both reports, in
// the new report's order.
func Compare(old, cur Report) []Delta {
	var out []Delta
	for _, nb := range cur.Benchmarks {
		ob, ok := old.Find(nb.Name)
		if !ok {
			continue
		}
		out = append(out, Delta{
			Name:          nb.Name,
			OldNsPerOp:    ob.NsPerOp,
			NewNsPerOp:    nb.NsPerOp,
			NsDeltaPct:    pctDelta(ob.NsPerOp, nb.NsPerOp),
			OldAllocsOp:   ob.AllocsPerOp,
			NewAllocsOp:   nb.AllocsPerOp,
			AllocDeltaPct: pctDelta(ob.AllocsPerOp, nb.AllocsPerOp),
			OldBytesOp:    ob.BytesPerOp,
			NewBytesOp:    nb.BytesPerOp,
			BytesDeltaPct: pctDelta(ob.BytesPerOp, nb.BytesPerOp),
		})
	}
	return out
}

// pctDelta is benchcmp's delta: (new-old)/old in percent, 0 when old is 0.
func pctDelta(old, cur float64) float64 {
	if old == 0 {
		return 0
	}
	return (cur - old) / old * 100
}

// WriteComparison prints a benchcmp-style table for the deltas between two
// reports.
func WriteComparison(w io.Writer, old, cur Report) {
	deltas := Compare(old, cur)
	fmt.Fprintf(w, "%-24s %14s %14s %9s %12s %12s %9s\n",
		"benchmark", "old ns/op", "new ns/op", "delta", "old allocs", "new allocs", "delta")
	for _, d := range deltas {
		fmt.Fprintf(w, "%-24s %14.1f %14.1f %8.2f%% %12.0f %12.0f %8.2f%%\n",
			d.Name, d.OldNsPerOp, d.NewNsPerOp, d.NsDeltaPct,
			d.OldAllocsOp, d.NewAllocsOp, d.AllocDeltaPct)
	}
	if old.ParallelSpeedup > 0 || cur.ParallelSpeedup > 0 {
		fmt.Fprintf(w, "%-24s %14.2f %14.2f\n", "parallel speedup", old.ParallelSpeedup, cur.ParallelSpeedup)
	}
	if old.HotTemplateSpeedup > 0 || cur.HotTemplateSpeedup > 0 {
		fmt.Fprintf(w, "%-24s %14.2f %14.2f\n", "hot-template speedup", old.HotTemplateSpeedup, cur.HotTemplateSpeedup)
	}
	if old.WALOverhead > 0 || cur.WALOverhead > 0 {
		fmt.Fprintf(w, "%-24s %14.2f %14.2f\n", "wal overhead", old.WALOverhead, cur.WALOverhead)
	}
	if old.RecoveryMs > 0 || cur.RecoveryMs > 0 {
		fmt.Fprintf(w, "%-24s %14.2f %14.2f\n", "recovery ms", old.RecoveryMs, cur.RecoveryMs)
	}
	if old.ReplicaCatchupMs > 0 || cur.ReplicaCatchupMs > 0 {
		fmt.Fprintf(w, "%-24s %14.2f %14.2f\n", "replica catchup ms", old.ReplicaCatchupMs, cur.ReplicaCatchupMs)
	}
	if old.ReplicationLagRecords > 0 || cur.ReplicationLagRecords > 0 {
		fmt.Fprintf(w, "%-24s %14d %14d\n", "replication peak lag", old.ReplicationLagRecords, cur.ReplicationLagRecords)
	}
	if old.DriftPrecisionTunable > 0 || cur.DriftPrecisionTunable > 0 {
		fmt.Fprintf(w, "%-24s %14.3f %14.3f\n", "drift precision fixed", old.DriftPrecisionFixed, cur.DriftPrecisionFixed)
		fmt.Fprintf(w, "%-24s %14.3f %14.3f\n", "drift precision tuned", old.DriftPrecisionTunable, cur.DriftPrecisionTunable)
	}
	if old.CandidateCount > 0 || cur.CandidateCount > 0 {
		fmt.Fprintf(w, "%-24s %14d %14d\n", "candidate plans", old.CandidateCount, cur.CandidateCount)
	}
}

// Regressions filters deltas down to serving-path time regressions beyond
// pct percent (e.g. pct=10 flags any benchmark whose ns/op grew more than
// 10% versus the baseline). Benchmarks absent from the baseline produce no
// delta and so can never regress. The caller decides what to do with the
// result; ppcbench -regress exits non-zero when it is non-empty.
func Regressions(deltas []Delta, pct float64) []Delta {
	var out []Delta
	for _, d := range deltas {
		if d.NsDeltaPct > pct {
			out = append(out, d)
		}
	}
	return out
}

// ReadReport loads a report JSON written by WriteReport (or a hand-written
// baseline in the same schema).
func ReadReport(path string) (Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Report{}, err
	}
	var rep Report
	if err := json.Unmarshal(data, &rep); err != nil {
		return Report{}, fmt.Errorf("benchsuite: parse %s: %w", path, err)
	}
	if rep.Schema != Schema {
		return Report{}, fmt.Errorf("benchsuite: %s has schema %q, want %q", path, rep.Schema, Schema)
	}
	return rep, nil
}

// WriteReport writes the report as indented JSON.
func WriteReport(w io.Writer, rep Report) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}
