package benchsuite

import (
	"fmt"
	"io"
	"strings"
	"testing"
)

// ZeroAllocBenchmarks lists the suite entries that must report 0 allocs/op:
// the predictor's steady-state serving path, which PR 2 made allocation-free
// via per-predictor scratch buffers. The guard exists so later layers (the
// observability registry in particular) can never silently reintroduce
// allocations — a regression here fails `make tier1`, not a BENCH json
// archaeology session months later.
// WALAppend joins the list with PR 5: the append runs under the learner's
// write lock, so an allocation there would stall the feedback path the same
// way a predictor allocation would stall serving. ReplicaPredict joins with
// PR 8: a follower exists to absorb read load, so its serving path carries
// the same contract as the leader's. PredictModelManyPlans joins with the
// block layout: its scratch is sized by the model's plan count, so it is
// the entry that would show a per-plan allocation.
var ZeroAllocBenchmarks = []string{"PredictApproxLSHHist", "PredictModelSnapshot", "PredictModelManyPlans", "InsertApproxLSHHist", "WALAppend", "ReplicaPredict"}

// CheckZeroAlloc measures the named suite entries under testing.Benchmark
// and returns an error naming every entry that allocated. progress may be
// nil. Run it without the race detector: the race runtime's own bookkeeping
// shows up in the allocation counters (see RaceEnabled).
func CheckZeroAlloc(progress io.Writer, names ...string) error {
	var bad []string
	for _, name := range names {
		fn, ok := find(name)
		if !ok {
			return fmt.Errorf("benchsuite: unknown benchmark %q", name)
		}
		if progress != nil {
			fmt.Fprintf(progress, "alloc guard: %s...\n", name)
		}
		res, err := Measure(name, fn)
		if err != nil {
			return err
		}
		if res.AllocsPerOp != 0 {
			bad = append(bad, fmt.Sprintf("%s: %.0f allocs/op (%.0f B/op)",
				name, res.AllocsPerOp, res.BytesPerOp))
		}
	}
	if len(bad) > 0 {
		return fmt.Errorf("benchsuite: serving path allocated:\n  %s", strings.Join(bad, "\n  "))
	}
	return nil
}

// CheckAllocBudget measures one suite entry and returns an error if it
// allocates more than budget allocs/op. Unlike CheckZeroAlloc this is for
// paths that legitimately allocate (the full Run path materializes result
// rows) but whose allocation count is a budgeted contract: tier 1 holds
// EndToEndRun to 32 allocs/op, down from ~6,800 in the per-row executor,
// and this guard keeps the batched operators from backsliding.
func CheckAllocBudget(progress io.Writer, name string, budget float64) error {
	fn, ok := find(name)
	if !ok {
		return fmt.Errorf("benchsuite: unknown benchmark %q", name)
	}
	if progress != nil {
		fmt.Fprintf(progress, "alloc budget: %s (<= %.0f allocs/op)...\n", name, budget)
	}
	res, err := Measure(name, fn)
	if err != nil {
		return err
	}
	if res.AllocsPerOp > budget {
		return fmt.Errorf("benchsuite: %s allocated %.0f allocs/op (%.0f B/op), budget is %.0f",
			name, res.AllocsPerOp, res.BytesPerOp, budget)
	}
	return nil
}

// find resolves a suite entry by name.
func find(name string) (func(*testing.B), bool) {
	for _, entry := range Suite {
		if entry.Name == name {
			return entry.Fn, true
		}
	}
	return nil, false
}
