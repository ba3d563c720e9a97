//go:build race

package optimizer_test

// raceEnabled reports whether this test binary was built with the race
// detector; its shadow-memory bookkeeping shows up in AllocsPerRun, so the
// allocation guard is only meaningful in a non-race build.
const raceEnabled = true
