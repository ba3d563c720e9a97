//go:build !race

package executor

const raceEnabled = false
