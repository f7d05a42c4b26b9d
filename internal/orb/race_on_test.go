//go:build race

package orb_test

// raceEnabled: the race detector's sync.Pool drops a quarter of what is
// put back, so an allocation budget that counts on pooled buffers coming
// back does not hold under it.
const raceEnabled = true
