package orb

import (
	"errors"
	"os"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// Run-to-completion (DESIGN.md §12, "the reader seat").  Each connection has
// one reader seat, and the goroutine that is about to wait anyway takes it:
// on the server the read loop dispatches a lone request itself, on the
// client a caller reads its own reply.  A sequential call then runs on two
// goroutines, the caller's and the server's reader, with no channel
// hand-off on either side.  Someone else takes the seat only when the
// holder is held up: a handler still running after seatGrace, a caller
// whose reply is not the next frame, a connection idle for seatGrace.

// seatGrace is how long a seat holder may keep its connection unread before
// another goroutine takes over: a server handler dispatched inline, an idle
// client connection.  It is a constant, not an option, because it is far
// above what a call is meant to take here (every traced per-call service
// time in the four benchmark workloads is under a hundredth of it) and no
// two callers need different values.
const seatGrace = time.Millisecond

// aLongTimeAgo is the deadline that kicks a goroutine out of a blocked
// Read or Write at once.
var aLongTimeAgo = time.Unix(1, 0)

// graceCheck runs a check a grace after it is armed.  Arming is cheap and
// idempotent — an atomic load while a check is pending — so a busy
// connection can arm it on every call and the check still runs at most
// once a grace.  A pending check holds the endpoint's Close (Endpoint.hold)
// until it has run, or until stop cancels it.  seen is what the arming side
// recorded for the check to compare with what it finds.  The timer runs
// the check (newTimer), which begins with fire and ends with e.wg.Done().
type graceCheck struct {
	t     timer
	armed atomic.Bool
	seen  atomic.Uint64
}

// arm starts the check, recording seen, unless one is pending already or
// the endpoint is closing.
func (g *graceCheck) arm(e *Endpoint, seen uint64) {
	if g.armed.Load() || !g.armed.CompareAndSwap(false, true) {
		return
	}
	if !e.hold() {
		g.armed.Store(false)
		return
	}
	g.seen.Store(seen)
	g.t.Reset(seatGrace)
}

// fire opens the check: from here a new arm starts another.  It returns
// what arm recorded.
func (g *graceCheck) fire() uint64 {
	g.armed.Store(false)
	return g.seen.Load()
}

// stop cancels a pending check and its hold on Close; a check already
// running ends on its own.
func (g *graceCheck) stop(e *Endpoint) {
	if g.t.Stop() {
		e.wg.Done()
	}
}

// ---- client ----

const (
	seatHeld   = 1 // clientConn.state: someone is reading the connection
	pendingOne = 2 // clientConn.state: one registered waiter
)

// takeSeat claims the connection's reader seat if it is free.
func (cc *clientConn) takeSeat() bool {
	sched(pSeatTake, nil)
	for {
		s := cc.state.Load()
		if s&seatHeld != 0 {
			return false
		}
		if cc.state.CompareAndSwap(s, s|seatHeld) {
			return true
		}
	}
}

// release frees the seat unless a registered waiter still needs a reader.
func (cc *clientConn) release() bool {
	sched(pSeatRelease, nil)
	for {
		s := cc.state.Load()
		if s >= pendingOne {
			return false
		}
		if cc.state.CompareAndSwap(s, s&^seatHeld) {
			return true
		}
	}
}

// seated is roundTrip's wait for a caller that took the seat: it reads
// until its own reply arrives or its call ends, then gives the seat up,
// and returns its delivery.  A reader that held the seat before it may
// have delivered that already (sit loses): it sends before it lets go.
func (cc *clientConn) seated(w *waiter) *respFrame {
	var rf, begun *respFrame
	claimed := false
	sched(pSit, w)
	if _, ok := w.move(pSit); ok {
		rf, claimed = cc.readUntil(w, nil)
		if !claimed {
			rf, begun = nil, rf
		}
		sched(pStand, w)
		if word, _ := w.move(pStand); word&fired != 0 && !claimed {
			// end saw us seated when it ended the call, so its kick is what
			// failed our read (or the connection did); clearing the
			// deadline keeps it off the next reader.
			cc.conn.SetReadDeadline(time.Time{})
		}
	}
	cc.leave(begun)
	if !claimed {
		return <-w.ch
	}
	if rf != nil {
		cc.m.selfReads.Inc()
	}
	return rf
}

// readUntil reads replies off the connection for as long as its caller
// holds the seat, handing each to its waiter exactly as any reader does,
// beginning with begun when an earlier reader left a frame half-read.  A
// seated caller (me non-nil) stops at its own reply, returned with claimed
// set, or when its timer kicks it out of Read, returning the frame it was
// in the middle of (nil if none) for the next reader.  The background
// reader (me nil) stops once no waiter is left.  Either stops when the
// connection fails, with claimed set if the failed read was of me's own
// reply.
func (cc *clientConn) readUntil(me *waiter, begun *respFrame) (rf *respFrame, claimed bool) {
	rf = begun
	for {
		if rf == nil {
			rf = getRespFrame()
		}
		got, cerr := cc.readReply(rf, me)
		if got != nil && got.state.Load()&lent != 0 {
			// Done with the lent storage: from here on end has nothing to
			// sever for it.
			sched(pLent, got)
			cc.pmu.Lock()
			delete(cc.pending, got.id)
			got.move(pLent)
			cc.pmu.Unlock()
		}
		if cerr != nil && got == nil && me != nil && errors.Is(cerr.Err, os.ErrDeadlineExceeded) {
			// Only end sets a read deadline, and only while its own caller is
			// seated, who clears it before leaving (seated): this is me's
			// kick.  The frame reader stays where it stopped, and rf holds the
			// frame as far as it got.
			if rf.size == 0 {
				putRespFrame(rf) // nothing of the next frame arrived yet
				return nil, false
			}
			return rf, false
		}
		if cerr != nil {
			putRespFrame(rf)
			cc.readFailed(cerr)
			if got != nil {
				if got == me {
					return nil, true
				}
				got.ch <- nil
			}
			return nil, false
		}
		switch {
		case got == nil:
			// A reply after its caller gave up: nobody owns it, recycle.
			putRespFrame(rf)
		case got == me:
			return rf, true
		default:
			// Ownership of rf (and its frame buffer) passes to the waiter.
			got.ch <- rf
		}
		rf = nil
		if me == nil && cc.release() {
			return nil, false
		}
	}
}

// leave gives up the seat a caller held.  It goes to the background reader
// when a frame was left half-read (begun) or other callers still wait for
// replies, and is freed otherwise.
func (cc *clientConn) leave(begun *respFrame) {
	if begun == nil && cc.release() {
		cc.armIdle()
		return
	}
	if cc.startReader(begun) {
		return
	}
	// Dead, or the endpoint is closing: the connection goes, and every
	// waiter with it.
	if begun != nil {
		putRespFrame(begun)
	}
	cc.fail(ErrShutdown)
	cc.state.Add(-seatHeld)
}

// startReader hands the seat its caller holds to a background reader, which
// starts with begun.
func (cc *clientConn) startReader(begun *respFrame) bool {
	sched(pSeatPass, nil)
	if cc.dead.Load() || !cc.ep.hold() {
		return false
	}
	go cc.background(begun)
	return true
}

// background is the reader of a connection whose seat no caller holds:
// it reads until no waiter is left or the connection fails.
func (cc *clientConn) background(begun *respFrame) {
	defer cc.ep.wg.Done()
	cc.readUntil(nil, begun)
	cc.armIdle()
}

// armIdle starts the idle check unless it is pending already.  A busy
// connection pays an atomic load per call here and one check per grace.
func (cc *clientConn) armIdle() {
	if !cc.dead.Load() {
		cc.idle.arm(cc.ep, cc.nextID.Load())
	}
}

// onIdle is the idle check.  With no call since it was armed it takes the
// free seat for a background reader, so that a peer that closes the
// connection is noticed before the next call needs it; otherwise it looks
// again a grace later, or leaves that to whoever holds the seat now.
func (cc *clientConn) onIdle() {
	defer cc.ep.wg.Done()
	sched(pIdle, nil)
	seen := cc.idle.fire()
	if cc.dead.Load() {
		return
	}
	if cc.nextID.Load() == seen {
		if cc.takeSeat() && !cc.startReader(nil) {
			cc.release()
		}
		return
	}
	if cc.state.Load()&seatHeld == 0 {
		cc.armIdle()
	}
}

// dueTimer is a timer set for the earliest due time armed on it, a Mono
// reading: a client connection's for the deadlines of its calls and of
// the call leading its flush, a server's for its reply batches.  While it
// is pending for a due time no later than the one armed, arming is one
// atomic load, so calls that share a timeout set it about once a timeout.
// Only setting it reads the clock, and not when the arming side has a
// reading at hand (now).  Its timer runs a function that calls ran first.
type dueTimer struct {
	t   timer
	mu  sync.Mutex
	due atomic.Int64 // zero while the timer is not pending
}

// arm makes sure the timer fires by due.  now is a Mono reading taken
// just before, or zero.
func (d *dueTimer) arm(due, now time.Duration) {
	if at := d.due.Load(); at != 0 && at <= int64(due) {
		return
	}
	d.mu.Lock()
	if at := d.due.Load(); at == 0 || int64(due) < at {
		if now == 0 {
			now = mono()
		}
		d.due.Store(int64(due))
		d.t.Reset(due - now)
	}
	d.mu.Unlock()
}

// ran opens the timer to arming again: it is no longer pending.
func (d *dueTimer) ran() {
	d.mu.Lock()
	d.due.Store(0)
	d.mu.Unlock()
}

// expire is the connection's timer.  It ends every call past its deadline,
// then cuts short a flush whose leading call is past its deadline, whether
// or not that call's reply has come (frameWriter.cut): in that order, a
// call that leads no flush yet drops its frame (sendFor).  Then the timer
// is set for the earliest deadline left, a leading call's among them.
func (cc *clientConn) expire() {
	sched(pExpire, nil)
	cc.timer.ran()
	if cc.dead.Load() {
		return
	}
	now := mono()
	var next time.Duration
	var over []uint64
	cc.pmu.Lock()
	for id, w := range cc.pending {
		switch {
		case w.due <= now:
			over = append(over, id)
		case next == 0 || w.due < next:
			next = w.due
		}
	}
	cc.pmu.Unlock()
	slices.Sort(over) // in the order the calls began, not the map's: a schedule replays
	for _, id := range over {
		cc.end(id)
	}
	if due := cc.fw.cut(now); due != 0 && (next == 0 || due < next) {
		next = due
	}
	if next != 0 {
		cc.timer.arm(next, now)
	}
}

// end ends call id if it is still pending: the one way a call is over
// before its reply (pool.go's moves).  A caller seated on the connection
// is kicked out of Read, and then delivered nil, after which nothing
// touches the waiter.  A call whose reply the seat holder is reading into
// its storage (from a stalled peer, say) is owed its delivery by that
// holder, so the connection is severed to make it come now.
func (cc *clientConn) end(id uint64) {
	sched(pEnd, nil)
	var word uint32
	cc.pmu.Lock()
	w := cc.pending[id]
	if w != nil {
		delete(cc.pending, id)
		if word, _ = w.move(pEnd); word&registered != 0 {
			cc.state.Add(-pendingOne)
		}
	}
	cc.pmu.Unlock()
	switch {
	case w == nil:
	case word&lent != 0:
		cc.fail(&ConnError{Op: "timeout", Err: errCallTimeout})
	default:
		if word&seated != 0 {
			sched(pKick, w)
			cc.conn.SetReadDeadline(aLongTimeAgo)
		}
		w.ch <- nil
	}
}

// ---- server ----

// connServer.seat: the reader's state in its low two bits, and the number
// of the inline dispatch it is in (or last was) above them.
const (
	seatReading  = iota // reading, or about to
	seatInline          // dispatching a request on the read loop
	seatPromoted        // an inline dispatch outlasted the grace; a worker reads
	seatClosed          // the connection is finished
)

// dispatchInline serves sr on the reader's own goroutine: nothing else is
// in flight on the connection and no other request is waiting, so no
// worker needs waking and the call has no queue wait.  It reports whether
// the caller still holds the seat; if the dispatch outlasted the grace,
// a worker has been promoted to reader meanwhile (onGrace).
func (srv *connServer) dispatchInline(sr *serverReq, s *callScratch) bool {
	seq := srv.seat.Load()>>2 + 1
	word := seq<<2 | seatInline
	srv.seat.Store(word)
	srv.grace.arm(srv.e, seq)
	srv.e.metrics.inlineDispatches.Inc()
	srv.handleOne(sr, s, sr.recvAt)
	return srv.seat.CompareAndSwap(word, seq<<2|seatReading)
}

// onGrace runs a grace after the check was armed.  If the inline dispatch
// it timed is still running, the seat passes to a worker so the
// connection's later requests are read — a blocked handler, or one that
// calls back into its own caller, must not stall the calls behind it.  If a
// later one is running, it is timed from now.
func (srv *connServer) onGrace() {
	defer srv.e.wg.Done()
	sched(pGrace, nil)
	timed := srv.grace.fire()
	word := srv.seat.Load()
	switch {
	case word&3 != seatInline:
	case word>>2 != timed:
		srv.grace.arm(srv.e, word>>2)
	case srv.seat.CompareAndSwap(word, word&^3|seatPromoted):
		srv.e.metrics.readerPromotions.Inc()
		srv.promote()
	}
}

// promote hands the seat to a worker, or to a new goroutine when the
// connection has none.  Nothing else is in flight while a dispatch is
// inline, so the work queue is empty and every worker is parked on it, or
// about to be.
func (srv *connServer) promote() {
	if srv.pool.Load() > 0 {
		srv.work <- nil
		return
	}
	srv.e.wg.Add(1) // the grace check's own hold keeps the count up
	go srv.run(getScratch(), true)
}

// finish ends the connection; the seat holder calls it when a read fails.
func (srv *connServer) finish() {
	srv.seat.Store(seatClosed)
	srv.grace.stop(srv.e)
	srv.fw.stall.t.Stop()
	srv.conn.Close()
	srv.e.mu.Lock()
	delete(srv.e.serving, srv.conn)
	srv.e.mu.Unlock()
	// Closing work releases the workers; they drain any queued requests
	// first (their response writes fail fast on the closed conn).
	close(srv.work)
}
