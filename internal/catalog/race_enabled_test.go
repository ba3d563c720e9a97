//go:build race

package catalog

// raceEnabled reports whether this test binary was built with the race
// detector, whose shadow-memory bookkeeping shows up in allocation counts.
const raceEnabled = true
