//go:build !race

package ppc_test

// See race_enabled_test.go.
const raceEnabled = false
