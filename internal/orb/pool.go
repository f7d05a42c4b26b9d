package orb

import (
	"sync"
	"sync/atomic"
	"time"

	"itv/internal/wire"
)

// Hot-path object pools.  One remote invocation used to allocate a waiter
// channel, a timer, two encoders, a request, a frame buffer per side, a
// response, and a ServerCall — all dead the moment the call returned.  The
// timer is now the connection's, one for all its calls (clientConn.arm);
// the pools below recycle the rest.  See DESIGN.md §9 for the ownership
// rules that make the reuse safe.

// waiter is one call in flight on a connection.  A caller that holds the
// connection's reader seat reads its own reply (DESIGN.md §12); any other
// gets it on ch from whoever holds the seat.  The channel has capacity 1
// so a delivery never blocks; a nil delivery means the connection failed
// or the call expired.  due is the call's deadline, a Mono reading, by
// which the connection's timer (clientConn.expire) ends the call; done
// carries the end of that work to a putWaiter or a seated caller that
// found the waiter fired.
//
// into declares that the caller's results begin with one byte string and
// lends dst as storage for it (Endpoint.InvokeInto).  into, dst and due
// are set before the waiter is registered and constant while it is.
type waiter struct {
	ch   chan *respFrame
	done chan struct{}

	cc  *clientConn
	id  uint64
	due time.Duration

	fired  atomic.Bool // the timer took it: the call is over, whatever arrives
	seated atomic.Bool // the caller is reading off the connection itself
	reaped bool        // the caller has waited for the timer to finish already

	into bool
	dst  []byte
}

var waiterPool = sync.Pool{New: func() any {
	return &waiter{ch: make(chan *respFrame, 1), done: make(chan struct{}, 1)}
}}

// getWaiter returns a pooled waiter, its channel empty.
func getWaiter() *waiter { return waiterPool.Get().(*waiter) }

// putWaiter returns w to the pool.  A waiter the connection's timer took
// (fired) is pooled only once the timer is done with it, which a seated
// caller may have waited for already (reaped); the timer touches no other.
// The caller must have received the waiter's pending delivery, if any,
// before pooling it.
func putWaiter(w *waiter) {
	if w.fired.Load() && !w.reaped {
		<-w.done
	}
	w.cc, w.id, w.due = nil, 0, 0
	w.fired.Store(false)
	w.reaped = false
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
