package clock

import (
	"sync/atomic"
	"time"
)

// One reading per event (DESIGN.md §11).  A time.Now is two clock reads,
// wall and monotonic; a code path that times an event and also stamps it
// with wall time needs only the monotonic one, if the wall time can be
// derived from it.  Mono is that one read, and WallAt derives the wall
// time through a published anchor, in the manner of SNIPPETS.md's at_clock
// with the monotonic clock as the cheap tick source.  Both are real time
// whatever clock a caller has injected: they serve code that is real time
// by design (the ORB's call timers) and the real-clock default of obs.HLC.

// epoch is the origin of Mono readings, one nanosecond before this package
// was initialised, so that no reading is 0 and 0 can mean "no reading".
var epoch = time.Now().Add(-time.Nanosecond)

// Mono returns the process's monotonic clock reading, the time since an
// epoch taken when the process started.  It is one read of the monotonic
// clock, about half the cost of a time.Now, and never 0.
func Mono() time.Duration { return time.Since(epoch) }

// reanchorAfter is how far past the anchor a reading may be before WallAt
// reads the wall clock again: a step of the system clock shows in WallAt
// within this long.
const reanchorAfter = time.Second

// anchor relates Mono readings to wall time.  base is the wall time, in
// Unix nanoseconds, that Mono reading 0 stands for; at is the reading the
// anchor was taken at.  The two are separate atomics: a reader that sees
// one anchor's at with another's base still holds a valid base, only one
// from the anchor before.
var anchor struct{ base, at atomic.Int64 }

func init() { anchor.base.Store(epoch.UnixNano()) }

// WallAt returns the wall time at Mono reading m.  It reads no clock while
// m is within reanchorAfter of the anchor; past it, one time.Now moves the
// anchor up.  It allocates nothing.
func WallAt(m time.Duration) time.Time {
	if int64(m)-anchor.at.Load() > int64(reanchorAfter) {
		now := time.Now()
		at := now.Sub(epoch)
		anchor.base.Store(now.UnixNano() - int64(at))
		anchor.at.Store(int64(at))
	}
	return time.Unix(0, anchor.base.Load()+int64(m))
}
