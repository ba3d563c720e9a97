//go:build !race

package optimizer_test

// See race_enabled_test.go.
const raceEnabled = false
