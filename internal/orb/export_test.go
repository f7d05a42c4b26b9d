package orb

import (
	"sync/atomic"

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

// PerRun, ClockReads and TimerArms are the seams the cost card
// (costcard_test.go) reads.  PerRun is perRun: a host name no earlier run
// in this process has used.
var PerRun = perRun

// ClockReads returns how many times the ORB reads its clock while f runs.
func ClockReads(f func()) int64 {
	countMono.Store(true)
	defer countMono.Store(false)
	before := monoReads.Load()
	f()
	return monoReads.Load() - before
}

// TimerArms returns how many times e's connection to addr set its timer.
func (e *Endpoint) TimerArms(addr string) int {
	e.mu.Lock()
	cc := e.conns[addr]
	e.mu.Unlock()
	cc.timer.mu.Lock()
	defer cc.timer.mu.Unlock()
	return cc.timer.arms
}

// setExplorer installs x as the schedule explorer (explore_test.go), or
// removes it when x is nil.
func setExplorer(x *explorer) {
	if x == nil {
		exploring.Store(nil)
		return
	}
	var s scheduler = x
	exploring.Store(&s)
}

// SeatPasses returns how many times, while f runs, a connection's reader
// seat passed to a background reader — an idle connection's reader, or
// one started behind a caller that left with replies still owed.  A warm
// sequential call passes it never.  It counts at the schedule points.
func SeatPasses(f func()) int64 {
	c := new(passCounter)
	var s scheduler = c
	exploring.Store(&s)
	defer exploring.Store(nil)
	f()
	return c.n.Load()
}

type passCounter struct{ n atomic.Int64 }

func (c *passCounter) reach(p point, _ *waiter) {
	if p == pSeatPass {
		c.n.Add(1)
	}
}

func (c *passCounter) misstep(point, *waiter, uint32) {}
