//go:build race

package ppc_test

// raceEnabled reports whether this test binary was built with the race
// detector; its shadow-memory bookkeeping shows up in testing.Benchmark's
// and AllocsPerRun's allocation counters, so the allocation guards are only
// meaningful in a non-race build.
const raceEnabled = true
