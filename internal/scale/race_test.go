//go:build race

package scale

// raceEnabled reports that this test binary runs under the race
// detector, which slows the two 100k-node builds the table pins need
// about sixteenfold; the smaller graphs of the reference test run the
// same code under -race.
const raceEnabled = true
