//go:build race

package caller

// raceEnabled skips the one test whose reference call needs 200 MB of rows,
// which the race detector's shadow memory would multiply.
const raceEnabled = true
