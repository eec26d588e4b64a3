//go:build !race

package wire_test

// raceEnabled reports a race-detector build, in which sync.Pool drops
// items at random and allocation counts are not the program's.
const raceEnabled = false
