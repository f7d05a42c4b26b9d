package orb

import (
	"sync"
	"sync/atomic"
	"time"

	"itv/internal/obs"
	"itv/internal/wire"
)

// Hot-path object pools.  One remote invocation used to allocate a waiter
// channel, a timer, two encoders, a request, a frame buffer per side, a
// response, and a ServerCall — all dead the moment the call returned.  The
// timer is now the connection's, one for all its calls (clientConn.timer);
// the pools below recycle the rest.  See DESIGN.md §9 for the ownership
// rules that make the reuse safe.

// waiter is one call in flight on a connection.  A caller that holds the
// connection's reader seat reads its own reply (DESIGN.md §12); any other
// gets it on ch.  The channel has capacity 1 so a delivery never blocks;
// a nil delivery means the connection failed or the call is over.  due is
// the call's deadline, a Mono reading, by which the connection's timer
// ends the call.  state is its life: the table below.
//
// into declares that the caller's results begin with one byte string and
// lends dst as storage for it (Endpoint.InvokeInto).  into, dst and due
// are set before the waiter is registered and constant while it is.
type waiter struct {
	ch    chan *respFrame
	state atomic.Uint32

	id  uint64
	due time.Duration

	into bool
	dst  []byte
}

// A waiter's word is a phase — none while it is pooled or being filled in
// — plus seated while its caller holds the connection's reader seat.
const (
	registered uint32 = 1 << iota // in pending, its reply to come
	lent                          // in pending, the seat holder reading its reply into the caller's storage
	delivered                     // its reply is the caller's: on ch, read by the caller, or nil for a failed connection
	fired                         // the call is over (clientConn.end)
	seated
)

// moves is the waiter's life: every change of its word, one row per
// schedule point that makes it (waiter.move) — the bits it sets and clears,
// the words it moves from, and the words in which another move got there
// first and it does nothing.  A move from any other word is a broken
// hand-off, which the schedule explorer reports.  Every move out of
// registered or lent is made under the connection's pmu, by whoever takes
// the waiter out of pending: the seat holder (claim, lend then lent),
// clientConn.end, or fail (sweep).  That one owes the caller its one
// delivery on ch, unless the caller read its own reply; from lent the seat
// holder owes it even when end came first.  The caller sits and stands as
// it takes and leaves the seat, and pools the waiter once it has its
// delivery: nothing touches a waiter after that.
//
// end is the only move that decides a call is over.  The connection's
// timer makes it for every call past its deadline, and roundTrip for a
// call the pre-send check (Endpoint.invoke) found out of time; sendFor, the
// seat, roundTrip and putWaiter read the word.  Three other places end a
// call, each where end cannot reach: frameWriter.cut, the one rule that
// bounds a flush on both sides, since a write stuck behind a peer that
// stopped reading returns only when a deadline fails it; invoke's refusal
// of a call whose context expired before it began, before any waiter,
// frame or dial; and the transport's deadlines, by which cut and end's
// kick interrupt a blocked Write or Read.
var moves = [...]struct{ set, clear, from, lose uint32 }{
	pRegister: {set: registered, from: words(0)},
	pClaim:    {set: delivered, clear: registered, from: words(registered, registered|seated)},
	pLend:     {set: lent, clear: registered, from: words(registered, registered|seated)},
	pLent:     {set: delivered, clear: lent, from: words(lent, lent|seated), lose: words(fired, fired|seated)},
	pEnd:      {set: fired, clear: registered | lent, from: words(registered, registered|seated, lent, lent|seated)},
	pSweep:    {set: delivered, clear: registered, from: words(registered, registered|seated), lose: words(lent, lent|seated)},
	pSit:      {set: seated, from: words(registered), lose: words(delivered, fired)},
	pStand:    {clear: seated, from: words(registered|seated, delivered|seated, fired|seated)},
	pPut:      {clear: delivered | fired, from: words(0, delivered, fired)},
}

// words is a set of words, one bit each.
func words(ws ...uint32) (set uint32) {
	for _, w := range ws {
		set |= 1 << w
	}
	return set
}

// move makes row p of moves on w, and returns the word it found and
// whether it moved.
func (w *waiter) move(p point) (word uint32, ok bool) {
	m := &moves[p]
	for {
		word = w.state.Load()
		if m.from&(1<<word) == 0 {
			if h := hooked.Load(); h != nil && m.lose&(1<<word) == 0 {
				(*h).misstep(p, w, word)
			}
			return word, false
		}
		if w.state.CompareAndSwap(word, word&^m.clear|m.set) {
			return word, true
		}
	}
}

// A schedule point is a hand-off between the goroutines that share a
// connection: the waiter's moves, and the rest below.  Each is a call to
// sched, one atomic load unless a test has installed a hook.
type point uint8

const (
	pRegister point = iota
	pClaim
	pLend
	pLent
	pEnd
	pSweep
	pSit
	pStand
	pPut
	pSeatTake     // takeSeat
	pSeatPass     // startReader
	pSeatRelease  // release
	pSend         // a frame is about to join the writer's queue
	pFlushOwn     // the flusher is about to write a batch
	pFlushRelease // the flusher has written a batch
	pExpire       // the timers' runs: expire, onIdle, onGrace, stalled
	pIdle
	pGrace
	pStalled
	pKick // end kicks a seated caller out of Read
	pFail
	pHeld // a request is about to be verified against its connection's tickets
)

// hook is the ORB's one test seam.  Installed in hooked, it hears every
// schedule point reached and every misstep, and it owns the ORB's time:
// the clock readings (mono, until) and the timers (newTimer, told the
// point their run reaches first).  The seeded schedule explorer
// (explore_test.go) parks goroutines at the points and runs the ORB on
// virtual time; the cost card's hook (export_test.go) counts.  With none
// installed, each costs one atomic load beside what it does anyway.
type hook interface {
	reach(p point, w *waiter)
	misstep(p point, w *waiter, word uint32)
	now() time.Duration
	timer(p point, f func()) timer
}

var hooked atomic.Pointer[hook]

// sched is schedule point p, reached for w (nil when no one call is at
// stake).
func sched(p point, w *waiter) {
	if h := hooked.Load(); h != nil {
		(*h).reach(p, w)
	}
}

// timer is what the ORB's timers run on: a *time.Timer, or a hook's.
type timer interface {
	Reset(d time.Duration) bool
	Stop() bool
}

// newTimer returns a stopped timer that runs f, whose first schedule point
// is p.
func newTimer(p point, f func()) timer {
	if h := hooked.Load(); h != nil {
		return (*h).timer(p, f)
	}
	return realTimer(f)
}

// realTimer is a stopped time.Timer that runs f.
func realTimer(f func()) *time.Timer {
	t := time.AfterFunc(time.Hour, f)
	t.Stop()
	return t
}

// until is time.Until(t), read on the hook's clock while one is installed:
// a hook's deadlines count from monoZero, the time of Mono reading 0.
func until(t time.Time) time.Duration {
	if h := hooked.Load(); h != nil {
		return t.Sub(monoZero) - (*h).now()
	}
	return time.Until(t)
}

var monoZero = time.Now().Add(-obs.Mono())

var waiterPool = sync.Pool{New: func() any { return &waiter{ch: make(chan *respFrame, 1)} }}

// getWaiter returns a pooled waiter, its channel empty.
func getWaiter() *waiter { return waiterPool.Get().(*waiter) }

// putWaiter returns w to the pool.  The caller must have received the
// waiter's delivery, if one is owed.
func putWaiter(w *waiter) {
	sched(pPut, w)
	w.move(pPut)
	w.id, w.due = 0, 0
	w.into, w.dst = false, nil
	waiterPool.Put(w)
}

// respFrame couples a decoded response with the frame buffer its Body
// borrows and the decoder that walks them.  Ownership moves as one unit:
// the seat holder fills it, the waiting caller decodes results out of it
// and releases it — one and the same goroutine when the caller read its own
// reply.
//
// data, when non-nil, is the reply body's leading byte string, which the
// seat holder read into storage the waiter lent instead of into buf; Body
// then holds only what followed it.
//
// size and whole are the read's progress, so that a read cut short by a
// timer's kick resumes where it stopped: the length of the frame begun in
// buf (0 before it is), and whether the split read was already declined.
type respFrame struct {
	resp response
	dec  wire.Decoder
	buf  []byte
	data []byte

	size  int
	whole bool
}

var respFramePool = sync.Pool{New: func() any { return new(respFrame) }}

func getRespFrame() *respFrame { return respFramePool.Get().(*respFrame) }

func putRespFrame(rf *respFrame) {
	rf.resp.reset()
	rf.dec.Reset(nil)
	rf.data = nil
	rf.size, rf.whole = 0, false
	if !wire.CapOK(cap(rf.buf)) {
		rf.buf = nil // don't pin one huge frame's buffer forever
	}
	respFramePool.Put(rf)
}

// requestPool recycles the client-side request records.  A pooled request
// must be released only after its frame has been written: Body (and the
// signed-call fields) alias buffers owned elsewhere.
var requestPool = sync.Pool{New: func() any { return new(request) }}

func getRequest() *request { return requestPool.Get().(*request) }

func putRequest(r *request) {
	r.reset()
	requestPool.Put(r)
}

// callScratch is everything one server-side dispatch (or local
// short-circuit dispatch) needs: the ServerCall with its argument decoder
// and result encoder, the response record, and the signature-verification
// scratch.  A resident connection worker holds one for its lifetime;
// overflow dispatches borrow one from the pool.  (The response frame is
// marshaled into a pooled encoder owned by the write path, not here — see
// handleOne — so the scratch is reusable while the frame awaits a flush.)
type callScratch struct {
	call    ServerCall
	args    wire.Decoder
	results wire.Encoder
	resp    response
	macBuf  [64]byte // Authenticator.Verify staging; fixed-size, never escapes
}

var scratchPool = sync.Pool{New: func() any {
	s := new(callScratch)
	s.call.args = &s.args
	s.call.results = &s.results
	return s
}}

func getScratch() *callScratch { return scratchPool.Get().(*callScratch) }

func putScratch(s *callScratch) {
	s.call.method = ""
	s.call.caller = Caller{}
	s.call.ctx = nil
	s.call.adopted = 0
	s.args.Reset(nil)
	s.results.Reset()
	s.resp.reset()
	if !wire.CapOK(s.results.Cap()) {
		return // grown past the retention bound; let the GC have it
	}
	scratchPool.Put(s)
}

// serverReq couples a decoded request with the frame buffer it borrows
// from, plus the decoder used on both.  The accept-side read loop fills it
// (stamping recvAt when the frame arrives, the start of the queue-wait
// decomposition) and the dispatching worker releases it after the response
// is handed to the write path.
type serverReq struct {
	req    request
	dec    wire.Decoder
	buf    []byte
	recvAt time.Duration // Mono reading
}

var serverReqPool = sync.Pool{New: func() any { return new(serverReq) }}

func getServerReq() *serverReq { return serverReqPool.Get().(*serverReq) }

func putServerReq(sr *serverReq) {
	sr.req.reset()
	sr.dec.Reset(nil)
	sr.recvAt = 0
	if !wire.CapOK(cap(sr.buf)) {
		sr.buf = nil
	}
	serverReqPool.Put(sr)
}
