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
// pools below recycle every one of them; see DESIGN.md §9 for the ownership
// rules that make the reuse safe.

// waiter is one call in flight on a connection.  A caller that holds the
// connection's reader seat reads its own reply (DESIGN.md §12); any other
// gets it on ch from whoever holds the seat.  The channel has capacity 1
// so a delivery never blocks; a nil delivery means the connection failed
// or the call expired.  The timer runs expire; it is created once and
// re-armed per call, and done carries expire's completion to a putWaiter
// that found it already started.
//
// into declares that the caller's results begin with one byte string and
// lends dst as storage for it (Endpoint.InvokeInto).  Both are set before
// the waiter is registered and constant while it is.  The seat holder
// sets filling, under the pending shard's lock, when it claims the waiter
// to read a large reply straight into dst: from then until its delivery
// the lent storage is the seat holder's to write.
type waiter struct {
	ch    chan *respFrame
	timer *time.Timer
	done  chan struct{}

	cc *clientConn
	id uint64

	fired  atomic.Bool // the timer ran: the call is over, whatever arrives
	seated atomic.Bool // the caller is reading off the connection itself
	reaped bool        // the caller has waited for expire to finish already

	into    bool
	dst     []byte
	filling bool
}

var waiterPool = sync.Pool{New: func() any {
	return &waiter{ch: make(chan *respFrame, 1), done: make(chan struct{}, 1)}
}}

// getWaiter returns a pooled waiter: its timer stopped, its channel empty.
func getWaiter() *waiter { return waiterPool.Get().(*waiter) }

// arm starts the call's timer; cc and id must be set and the waiter
// registered first, since expire looks it up by them.
func (w *waiter) arm(d time.Duration) {
	if w.timer == nil {
		w.timer = time.AfterFunc(d, w.expire)
	} else {
		w.timer.Reset(d)
	}
}

// putWaiter returns w to the pool.  armed reports whether its timer was
// started for this call; if it can no longer be stopped, expire is running
// or has run, and w is pooled only once it is done with it (which a seated
// caller may have waited for already: reaped).  The caller must have
// received the waiter's pending delivery, if any, before pooling it.
func putWaiter(w *waiter, armed bool) {
	if armed && !w.reaped && !w.timer.Stop() {
		<-w.done
	}
	w.cc, w.id = nil, 0
	w.fired.Store(false)
	w.reaped = false
	w.into, w.dst, w.filling = false, nil, false
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
