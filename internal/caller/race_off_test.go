//go:build !race

package caller

const raceEnabled = false
