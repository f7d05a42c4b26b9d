package orb

import (
	"sync/atomic"
	"time"

	"itv/internal/obs"
	"itv/internal/wire"
)

// SetWireVersionForTest makes the endpoint *accept* (and therefore serve)
// only the given protocol version, simulating a server built at a different
// wire version than the client.  Test-only: the version an endpoint speaks
// as a client is always wireVersion.
func (e *Endpoint) SetWireVersionForTest(v uint64) { e.wireVer.Store(v) }

// WireVersion exposes the protocol version constant to tests.
const WireVersion = wireVersion

// send enqueues one encoded frame with no attribution and no call behind
// it: the write path as the frameWriter tests drive it.
func (w *frameWriter) send(fe *wire.Encoder) { w.sendFrame(queuedFrame{fe: fe}) }

// PerRun and Count are the seams the cost card (costcard_test.go) reads.
// PerRun is perRun: a host name no earlier run in this process has used.
var PerRun = perRun

// Counts is the cost card's hook.  While Count runs it is installed, and it
// counts three things the ORB does — clock readings, arms of a client
// connection's deadline timer (clientConn.timer), and passes of a
// connection's reader seat to a background reader (an idle connection's
// reader, or one started behind a caller that left with replies still
// owed) — and otherwise runs the ORB as no hook does.  A deadline timer is
// counted only when made while it is installed.  A call whose context has a
// deadline reads the clock once more for it (until); the card's probes pass
// none.
type Counts struct{ clockReads, timerArms, seatPasses atomic.Int64 }

// Count installs a fresh Counts for as long as f runs.
func Count(f func(c *Counts)) {
	c := new(Counts)
	var h hook = c
	hooked.Store(&h)
	defer hooked.Store(nil)
	f(c)
}

func (c *Counts) ClockReads() int64 { return c.clockReads.Load() }
func (c *Counts) TimerArms() int64  { return c.timerArms.Load() }
func (c *Counts) SeatPasses() int64 { return c.seatPasses.Load() }

func (c *Counts) reach(p point, _ *waiter) {
	if p == pSeatPass {
		c.seatPasses.Add(1)
	}
}

func (c *Counts) misstep(point, *waiter, uint32) {}

func (c *Counts) now() time.Duration {
	c.clockReads.Add(1)
	return obs.Mono()
}

func (c *Counts) timer(p point, f func()) timer {
	t := realTimer(f)
	if p != pExpire {
		return t
	}
	return armCounter{t, &c.timerArms}
}

// armCounter is a deadline timer that counts the times it is set.
type armCounter struct {
	*time.Timer
	n *atomic.Int64
}

func (a armCounter) Reset(d time.Duration) bool {
	a.n.Add(1)
	return a.Timer.Reset(d)
}
