package orb

import (
	"sync"
	"time"

	"itv/internal/wire"
)

// Hot-path object pools.  One remote invocation used to allocate a waiter
// channel, a timer, two encoders, a request, a frame buffer per side, a
// response, and a ServerCall — all dead the moment the call returned.  The
// pools below recycle every one of them; see DESIGN.md §9 for the ownership
// rules that make the reuse safe.

// waiter is the per-call rendezvous between roundTrip and the connection
// read loop.  The channel has capacity 1 so the read loop never blocks
// delivering; a nil delivery means the connection failed.  The timer is
// created once and re-armed per call.
//
// into declares that the caller's results begin with one byte string and
// lends dst as storage for it (Endpoint.InvokeInto).  Both are set before
// the waiter is registered and constant while it is.  The read loop sets
// filling, under the pending shard's lock, when it claims the waiter to
// read a large reply straight into dst: from then until its delivery the
// lent storage is the read loop's to write.
type waiter struct {
	ch    chan *respFrame
	timer *time.Timer

	into    bool
	dst     []byte
	filling bool
}

var waiterPool = sync.Pool{New: func() any {
	return &waiter{ch: make(chan *respFrame, 1)}
}}

// getWaiter returns a waiter armed with the given timeout.  Pooled waiters
// always have a stopped-and-drained timer and an empty channel, so Reset is
// unconditionally safe.
func getWaiter(d time.Duration) *waiter {
	w := waiterPool.Get().(*waiter)
	if w.timer == nil {
		w.timer = time.NewTimer(d)
	} else {
		w.timer.Reset(d)
	}
	return w
}

// putWaiter returns w to the pool.  fired reports whether the caller
// already received from the timer's channel (the timeout path); otherwise
// the timer is stopped here, draining a concurrent expiry so the next
// Reset cannot observe a stale tick.  The caller must have received the
// waiter's pending delivery, if any, before pooling it.
func putWaiter(w *waiter, fired bool) {
	if !fired && !w.timer.Stop() {
		<-w.timer.C
	}
	w.into, w.dst, w.filling = false, nil, false
	waiterPool.Put(w)
}

// respFrame couples a decoded response with the frame buffer its Body
// borrows and the decoder that walks them.  Ownership moves as one unit:
// the read loop fills it, the waiting caller decodes results out of it and
// releases it.
//
// data, when non-nil, is the reply body's leading byte string, which the
// read loop read into storage the waiter lent instead of into buf; Body
// then holds only what followed it.
type respFrame struct {
	resp response
	dec  wire.Decoder
	buf  []byte
	data []byte
}

var respFramePool = sync.Pool{New: func() any { return new(respFrame) }}

func getRespFrame() *respFrame { return respFramePool.Get().(*respFrame) }

func putRespFrame(rf *respFrame) {
	rf.resp.reset()
	rf.dec.Reset(nil)
	rf.data = nil
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
	recvAt time.Time
}

var serverReqPool = sync.Pool{New: func() any { return new(serverReq) }}

func getServerReq() *serverReq { return serverReqPool.Get().(*serverReq) }

func putServerReq(sr *serverReq) {
	sr.req.reset()
	sr.dec.Reset(nil)
	sr.recvAt = time.Time{}
	if !wire.CapOK(cap(sr.buf)) {
		sr.buf = nil
	}
	serverReqPool.Put(sr)
}
