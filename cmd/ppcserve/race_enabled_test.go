//go:build race

package main

// raceEnabled reports whether this test binary was built with the race
// detector, whose shadow-memory bookkeeping shows up in AllocsPerRun.
const raceEnabled = true
