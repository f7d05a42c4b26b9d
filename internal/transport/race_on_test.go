//go:build race

package transport

// raceEnabled: under the race detector a lent 4 MiB write can count
// allocations that a plain build does not make (34 a write, in one run of
// five), so an allocation count does not hold under it.
const raceEnabled = true
