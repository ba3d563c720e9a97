package benchsuite

import (
	"fmt"
	"io"
	"strings"
	"testing"
)

// ZeroAllocBenchmarks lists the bodies that must report 0 allocs/op:
// the predictor's steady-state serving path, which PR 2 made allocation-free
// via per-predictor scratch buffers. The guard exists so later layers (the
// observability registry in particular) can never silently reintroduce
// allocations — a regression here fails `make tier1`, not a benchmark
// number someone has to remember to read.
// WALAppend joins the list with PR 5: the append runs under the learner's
// write lock, so an allocation there would stall the feedback path the same
// way a predictor allocation would stall serving. ReplicaPredict joins with
// PR 8: a follower exists to absorb read load, so its serving path carries
// the same contract as the leader's. PredictModelManyPlans joins with the
// block layout: its scratch is sized by the model's plan count, so it is
// the entry that would show a per-plan allocation. RebindRecost joins with
// the bound estimation path: a rebind program resolves its statistics
// handles when it is compiled and walks the cached plan in place — there is
// no pooled private tree any more — so costing a hit may not allocate, and
// binding cannot hide a per-run allocation.
var ZeroAllocBenchmarks = []string{"PredictApproxLSHHist", "PredictModelSnapshot", "PredictModelManyPlans", "InsertApproxLSHHist", "WALAppend", "ReplicaPredict", "RebindRecost"}

// CheckZeroAlloc measures the named bodies under testing.Benchmark
// and returns an error naming every entry that allocated. progress may be
// nil. Run it without the race detector: the race runtime's own bookkeeping
// shows up in the allocation counters (see RaceEnabled).
func CheckZeroAlloc(progress io.Writer, names ...string) error {
	var bad []string
	for _, name := range names {
		if progress != nil {
			fmt.Fprintf(progress, "alloc guard: %s...\n", name)
		}
		res, err := measure(name)
		if err != nil {
			return err
		}
		if res.AllocsPerOp() != 0 {
			bad = append(bad, fmt.Sprintf("%s: %d allocs/op (%d B/op)",
				name, res.AllocsPerOp(), res.AllocedBytesPerOp()))
		}
	}
	if len(bad) > 0 {
		return fmt.Errorf("benchsuite: serving path allocated:\n  %s", strings.Join(bad, "\n  "))
	}
	return nil
}

// CheckAllocBudget measures one guarded body and returns an error if it
// allocates more than budget allocs/op. Unlike CheckZeroAlloc this is for
// paths that legitimately allocate (the full Run path materializes result
// rows) but whose allocation count is a budgeted contract: tier 1 holds
// EndToEndRun to 10 allocs/op, down from ~6,800 in the per-row executor,
// and this guard keeps the batched operators from backsliding.
func CheckAllocBudget(progress io.Writer, name string, budget float64) error {
	if progress != nil {
		fmt.Fprintf(progress, "alloc budget: %s (<= %.0f allocs/op)...\n", name, budget)
	}
	res, err := measure(name)
	if err != nil {
		return err
	}
	if float64(res.AllocsPerOp()) > budget {
		return fmt.Errorf("benchsuite: %s allocated %d allocs/op (%d B/op), budget is %.0f",
			name, res.AllocsPerOp(), res.AllocedBytesPerOp(), budget)
	}
	return nil
}

// guarded is every body an allocation guard may name: ZeroAllocBenchmarks
// plus EndToEndRun, which TestRunPathAllocBudget holds to its budget.
var guarded = map[string]func(*testing.B){
	"PredictApproxLSHHist":  PredictApproxLSHHist,
	"PredictModelSnapshot":  PredictModelSnapshot,
	"PredictModelManyPlans": PredictModelManyPlans,
	"InsertApproxLSHHist":   InsertApproxLSHHist,
	"WALAppend":             WALAppend,
	"ReplicaPredict":        ReplicaPredict,
	"RebindRecost":          RebindRecost,
	"EndToEndRun":           EndToEndRun,
}

// measure runs one guarded body under testing.Benchmark. A zero-iteration
// result means the body failed during setup.
func measure(name string) (testing.BenchmarkResult, error) {
	fn, ok := guarded[name]
	if !ok {
		return testing.BenchmarkResult{}, fmt.Errorf("benchsuite: unknown benchmark %q", name)
	}
	r := testing.Benchmark(fn)
	if r.N == 0 {
		return r, fmt.Errorf("benchsuite: %s produced no iterations (setup failure?)", name)
	}
	return r, nil
}
