//go:build !race

package scale

// See race_test.go.
const raceEnabled = false
