//go:build race

package orb

// RaceEnabled: the race detector's sync.Pool drops a quarter of what is
// put back, and its scheduler shuffles the run queue.
const RaceEnabled = true
