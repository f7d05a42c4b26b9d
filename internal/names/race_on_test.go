//go:build race

package names

// raceEnabled: the race detector's sync.Pool drops a quarter of what is
// put back, so an allocation count that counts on pooled buffers coming
// back does not hold under it.
const raceEnabled = true
