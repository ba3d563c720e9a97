package ppc_test

// Zero-allocation guard for the serving path. PR 2 made Predict and Insert
// allocation-free; this PR adds the observability layer on top, whose whole
// design contract is "no new allocations on the hot path". The guard turns
// that contract into a failing test instead of a benchmark number someone
// has to remember to read.

import (
	"os"
	"os/exec"
	"strings"
	"testing"

	"repro/internal/benchsuite"
)

func TestServingPathZeroAlloc(t *testing.T) {
	if benchsuite.RaceEnabled {
		t.Skip("race detector's shadow memory inflates allocation counts")
	}
	if testing.Short() {
		t.Skip("allocation guard runs full benchmarks; skipped in -short")
	}
	if err := benchsuite.CheckZeroAlloc(os.Stderr, benchsuite.ZeroAllocBenchmarks...); err != nil {
		t.Fatal(err)
	}
}

// TestRunPathAllocBudget holds the full Run path to its allocation budget:
// at most 32 allocs/op end to end (predict, rebind, batched execute, result
// materialization), down from ~6,800 in the per-row executor. The measured
// steady state is ~13 allocs/op, so the slack absorbs arena growth and
// scheduler noise, while a single allocation per row or per batch in an
// executor kernel — thousands per run — fails it.
func TestRunPathAllocBudget(t *testing.T) {
	if benchsuite.RaceEnabled {
		t.Skip("race detector's shadow memory inflates allocation counts")
	}
	if testing.Short() {
		t.Skip("allocation guard runs full benchmarks; skipped in -short")
	}
	if err := benchsuite.CheckAllocBudget(os.Stderr, "EndToEndRun", 32); err != nil {
		t.Fatal(err)
	}
}

// TestCommandsLinkNoBenchHarness keeps the guards' substrate where it
// belongs: internal/benchsuite exists for _test.go files, so no shipped
// binary under cmd/ may link it, or the testing package it drags in.
func TestCommandsLinkNoBenchHarness(t *testing.T) {
	out, err := exec.Command("go", "list", "-deps", "./cmd/...").CombinedOutput()
	if err != nil {
		t.Fatalf("go list -deps ./cmd/...: %v\n%s", err, out)
	}
	for _, pkg := range strings.Fields(string(out)) {
		if pkg == "testing" || pkg == "repro/internal/benchsuite" {
			t.Errorf("a command under cmd/ links %s", pkg)
		}
	}
}
