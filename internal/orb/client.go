package orb

import (
	"context"
	"errors"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"itv/internal/obs"
	"itv/internal/oref"
	"itv/internal/wire"
)

// clientConn is a pooled connection to one remote endpoint, multiplexing
// concurrent requests by id.  Outgoing frames go through fw, which
// coalesces concurrent writes (DESIGN.md §12); waiters register in
// pending until their replies come.  Replies are read by whoever holds the
// reader seat (seat.go): a caller waiting for its own reply, or a
// background reader started when several are.
type clientConn struct {
	conn net.Conn
	fr   *wire.FrameReader // the seat holder's
	m    *epMetrics
	ep   *Endpoint
	fw   frameWriter

	nextID atomic.Uint64

	// pending is the calls awaiting replies by request id: registered, or
	// lent while the seat holder reads a reply into its caller's storage
	// (readInto).  pmu guards it.
	pmu     sync.Mutex
	pending map[uint64]*waiter
	// acked is the ticket the server holds, compared by identity (a signer
	// replaces its ticket, never mutates it).  pmu guards it too.
	acked []byte

	// state is the seat and the pending waiters in one word, so that a
	// holder gives the seat up only when no registered waiter is left
	// without a reader: seatHeld, plus pendingOne per registered waiter.
	state atomic.Int64

	// The idle check (armIdle): a grace after the seat is given up, a
	// connection that saw no new call in between gets a background reader,
	// so that a peer's death is noticed before the next call needs it.  It
	// records nextID when armed.
	idle graceCheck

	// The deadline timer (expire): one for every call in flight, set for
	// the earliest deadline among them, and for the deadline of the call
	// that leads a flush.
	timer dueTimer

	dead  atomic.Bool
	errMu sync.Mutex
	err   error // first failure; guarded by errMu
}

func newClientConn(e *Endpoint, conn net.Conn) *clientConn {
	cc := &clientConn{conn: conn, fr: wire.NewFrameReader(conn), m: e.metrics, ep: e,
		pending: make(map[uint64]*waiter)}
	cc.fw = frameWriter{conn: conn, m: e.metrics, onErr: cc.writeFailed}
	cc.idle.t = newTimer(pIdle, cc.onIdle)
	cc.timer.t = newTimer(pExpire, cc.expire)
	return cc
}

// writeFailed is the frameWriter's error hook: a failed flush kills the
// connection like a failed direct write always has.  A write that failed
// on its deadline was cut short by the deadline of the call leading the
// flush (frameWriter.cut), and is reported as that call's timeout.
func (cc *clientConn) writeFailed(err error) {
	cerr := &ConnError{Op: "write", Err: err}
	if errors.Is(err, os.ErrDeadlineExceeded) {
		cerr = &ConnError{Op: "timeout", Err: errCallTimeout}
	}
	if cc.fail(cerr) {
		cc.m.writeErrors.Inc()
	}
}

// readFailed kills the connection on a failed reply read: a peer crash, a
// severed connection or endpoint shutdown.  Protocol corruption is a
// different disease than a dead peer, so it keeps the cause and counts the
// class separately.
func (cc *clientConn) readFailed(err *ConnError) {
	if cc.fail(err) {
		if err.Op == "decode" {
			cc.m.decodeErrors.Inc()
		} else {
			cc.m.readErrors.Inc()
		}
	}
}

// splitPrefix is how much of a frame larger than flushCopyLimit the reader
// makes sure it holds before deciding where the rest goes (the frame
// reader usually hands over more).  It covers the envelope
// of any statusOK reply up to the first byte of its leading string (two
// ids of at most ten bytes, two empty strings, two lengths); a reply whose
// envelope runs longer — an error with a long message — does not parse
// inside it and takes the whole-frame read.
const splitPrefix = 64

// readReply reads one reply frame into rf and claims the waiter it answers
// (nil when that caller has given up), even when the read then fails.
//
// A small frame is whole once the frame reader has begun it.  A frame above
// flushCopyLimit is read in two steps: the prefix that came with the
// header first, and when that shows a statusOK reply whose body leads with
// a byte string above the same limit, addressed to a waiter that declared
// as much, the string goes straight into the waiter's storage (readInto).
// Anything else — an error reply, an undeclared or departed caller, a
// prefix that does not parse — is read whole behind the prefix and decoded
// as every small frame is.  So is another call's reply when the reader is
// a seated caller (me): its timer's kick can cut a whole read short and
// hand the rest to the next reader, but not a read into another caller's
// storage.
//
// A read error with no waiter claimed leaves rf holding the frame as far
// as it got (rf.size is nonzero once it was begun): called again on the
// same rf, readReply resumes it.  That is how a frame survives a timer's
// kick out of Read (DESIGN.md §12).
func (cc *clientConn) readReply(rf *respFrame, me *waiter) (*waiter, *ConnError) {
	// rf.buf holds what has been read of this frame so far.
	if rf.size == 0 {
		have, n, err := cc.fr.Begin(rf.buf)
		if err != nil {
			return nil, &ConnError{Op: "read", Err: err}
		}
		rf.buf, rf.size = have, n
	}
	n := rf.size
	if n > flushCopyLimit && !rf.whole {
		if len(rf.buf) < splitPrefix {
			// A vectored reply's head arrived alone, or less than that.
			prefix, err := cc.fr.Body(rf.buf, splitPrefix)
			rf.buf = prefix
			if err != nil {
				return nil, &ConnError{Op: "read", Err: err}
			}
		}
		if w, cerr := cc.readInto(rf, n, me); w != nil {
			return w, cerr
		}
		rf.whole = true
	}
	frame, err := cc.fr.Body(rf.buf, n)
	rf.buf = frame
	if err != nil {
		return nil, &ConnError{Op: "read", Err: err}
	}
	rf.dec.Reset(frame)
	rf.resp.UnmarshalWire(&rf.dec)
	if derr := tailErr(&rf.dec); derr != nil {
		return nil, &ConnError{Op: "decode", Err: derr}
	}
	sched(pClaim, nil)
	cc.pmu.Lock()
	w := cc.pending[rf.resp.ReqID]
	if w != nil {
		delete(cc.pending, rf.resp.ReqID)
		cc.state.Add(-pendingOne)
		w.move(pClaim)
	}
	cc.pmu.Unlock()
	return w, nil
}

// tailErr reports why d did not end cleanly at the end of its frame.
func tailErr(d *wire.Decoder) error {
	if d.Err() == nil && d.Remaining() != 0 {
		return wire.ErrTruncated // trailing garbage
	}
	return d.Err()
}

// readInto is the split read of an n-byte reply frame whose first bytes,
// splitPrefix of them or more, are in rf.buf.  It decodes the envelope from
// that prefix and, when the reply is statusOK, its body leads with a byte
// string above flushCopyLimit and the waiter it answers declared one,
// lends that waiter — from here on the seat holder alone delivers to it,
// and takes it out of pending once the read is over (unlend) — and reads
// the string into the waiter's storage under BytesInto's sizing rule, then
// the few bytes behind it into rf.buf.  A nil waiter (and nil error) means
// nothing was decided or read: take the frame whole.
//
// The bounds are the whole-frame decode's — body within the frame, string
// within the body, nothing left over — so lent storage never receives a
// byte the frame does not have.
func (cc *clientConn) readInto(rf *respFrame, n int, me *waiter) (*waiter, *ConnError) {
	prefix := rf.buf
	d := &rf.dec
	d.Reset(prefix)
	id, status := d.Uint(), d.Uint()
	if d.Err() != nil || status != statusOK {
		return nil, nil
	}
	errName, errMsg := d.String(), d.String()
	bodyLen := d.Uint()
	bodyOff := len(prefix) - d.Remaining()
	strLen := d.Uint()
	strOff := len(prefix) - d.Remaining()
	if d.Err() != nil || bodyLen > uint64(n-bodyOff) || strLen <= flushCopyLimit {
		return nil, nil
	}
	// after counts the body's bytes behind the string's length prefix,
	// then behind the string.
	after := int(bodyLen) - (strOff - bodyOff)
	if after < 0 || strLen > uint64(after) {
		return nil, nil
	}
	after -= int(strLen)

	sched(pLend, nil)
	cc.pmu.Lock()
	w := cc.pending[id]
	if w == nil || !w.into || me != nil && w != me {
		cc.pmu.Unlock()
		return nil, nil
	}
	cc.state.Add(-pendingOne)
	w.move(pLend)
	cc.pmu.Unlock()

	// The string is longer than anything Begin reads ahead, so all of the
	// prefix behind strOff is the string's.
	data := sized(w.dst, int(strLen))
	got := copy(data, prefix[strOff:])
	if _, err := cc.fr.Body(data[:got], len(data)); err != nil {
		return w, &ConnError{Op: "read", Err: err}
	}
	rf.buf = rf.buf[:0]
	tail, err := cc.fr.Body(rf.buf, n-strOff-len(data))
	if err != nil {
		return w, &ConnError{Op: "read", Err: err}
	}
	rf.buf = tail
	d.Reset(tail[after:])
	rf.resp = response{ReqID: id, Status: status, ErrName: errName, ErrMsg: errMsg,
		Body: tail[:after], TraceID: d.Uint(), HLC: d.Uint()}
	rf.data = data
	if derr := tailErr(d); derr != nil {
		return w, &ConnError{Op: "decode", Err: derr}
	}
	return w, nil
}

// fail marks the connection dead and releases every waiter with err.  It
// reports whether this call was the one that killed the connection; later
// calls keep the first error and return false.
//
// Ordering protocol with registration: dead is set (CAS) before the
// pending map is swept, and roundTrip checks dead under pmu before
// registering — so every waiter is either refused registration or found
// by the sweep.  No waiter is stranded.
func (cc *clientConn) fail(err error) bool {
	sched(pFail, nil)
	if !cc.dead.CompareAndSwap(false, true) {
		return false
	}
	cc.errMu.Lock()
	cc.err = err
	cc.errMu.Unlock()
	cc.conn.Close()
	cc.idle.stop(cc.ep)
	cc.timer.t.Stop()
	// The sweep decides under pmu, as the seat holder's unlend does: a lent
	// waiter is its holder's to deliver to, and once unlent its caller may
	// pool it and use it again.  A delivery never blocks.
	sched(pSweep, nil)
	cc.pmu.Lock()
	for _, w := range cc.pending {
		if _, ok := w.move(pSweep); ok {
			w.ch <- nil
		}
	}
	cc.pending = make(map[uint64]*waiter)
	cc.pmu.Unlock()
	return true
}

// failure returns the error that killed the connection, or ErrUnreachable
// if none was recorded.
func (cc *clientConn) failure() error {
	cc.errMu.Lock()
	defer cc.errMu.Unlock()
	if cc.err != nil {
		return cc.err
	}
	return ErrUnreachable
}

// roundTrip sends one request and waits for its response or timeout.  On
// success the returned respFrame — response plus the borrowed frame buffer
// its Body aliases — is owned by the caller, who must release it with
// putRespFrame after decoding.
//
// The request is marshaled into an owned frame before the handoff to the
// write path, so the caller may release req (and the buffers its fields
// alias) as soon as roundTrip returns, even if the frame is still queued
// behind an in-flight flush.
//
// into and dst are the caller's bulk declaration (results.into), which the
// waiter carries to whoever reads the reply.
//
// due, the call's deadline as a Mono reading, bounds the whole round trip,
// its own write included: the connection's timer cuts short a flush the
// call leads and kicks the caller out of a read it is making (expire).  A
// late call has no time left: it ends before its frame is sent.  unsent
// reports a failure that left no byte of the request on the connection,
// which the caller may therefore send again elsewhere (Endpoint.invoke).
func (cc *clientConn) roundTrip(req *request, due time.Duration, late, into bool, dst []byte) (rf *respFrame, unsent bool, err error) {
	w := getWaiter()
	sched(pRegister, w)
	w.into, w.dst = into, dst
	id := cc.nextID.Add(1)
	req.ReqID = id
	w.id, w.due = id, due
	cc.pmu.Lock()
	if cc.dead.Load() {
		cc.pmu.Unlock()
		putWaiter(w)
		return nil, false, cc.failure()
	}
	cc.pending[id] = w
	cc.state.Add(pendingOne)
	w.move(pRegister)
	req.held = len(req.Ticket) > 0 && len(req.Ticket) == len(cc.acked) && &req.Ticket[0] == &cc.acked[0]
	cc.pmu.Unlock()
	if late {
		cc.end(id)
	} else {
		cc.timer.arm(due, 0)
	}

	var seq uint64
	if fe, ferr := encodeFrame(req, 0); ferr != nil {
		// An unframeable request (over MaxFrameSize) has always killed the
		// connection like a failed write; keep that contract.
		if cc.fail(&ConnError{Op: "write", Err: ferr}) {
			cc.m.writeErrors.Inc()
		}
	} else {
		// Ownership of fe passes to the write path; a flush failure surfaces
		// through writeFailed -> fail, which releases our waiter with nil.
		seq = cc.fw.sendFor(queuedFrame{fe: fe}, w)
	}
	// When the reader seat is free the caller takes it and reads its reply
	// itself; otherwise its delivery comes on w.ch.
	if !cc.dead.Load() && cc.takeSeat() {
		rf = cc.seated(w)
	} else {
		rf = <-w.ch
	}
	switch {
	case rf != nil && len(req.Ticket) > 0 && (!req.held && rf.resp.Status == statusOK || req.held && rf.resp.ErrName == ExcDenied):
		// The server holds a ticket it accepted; one it denied a request
		// without is sent again.
		cc.pmu.Lock()
		cc.acked = nil
		if !req.held {
			cc.acked = req.Ticket
		}
		cc.pmu.Unlock()
	case rf != nil:
	case w.state.Load()&fired != 0:
		cc.m.callTimeouts.Inc()
		err = &ConnError{Op: "timeout", Err: errCallTimeout}
	default:
		// The connection failed under the call; report its diagnosis, not a
		// generic unreachable.
		err, unsent = cc.failure(), cc.fw.unsent(seq)
	}
	putWaiter(w)
	return rf, unsent, err
}

// dialWait is one in-flight dial that concurrent callers to the same
// address share instead of racing their own (§8.2's recovery storms start
// exactly this way: N settops re-resolve and stampede one server).
type dialWait struct {
	done chan struct{}
	cc   *clientConn
	err  error
}

// getConn returns a live pooled connection to addr, dialing if needed.
// Concurrent first calls to one address share a single dial: exactly one
// caller dials, the rest wait on it (counted in poolDialShared).  dialed
// reports that the caller dialed or waited on a dial, not a pool hit.
func (e *Endpoint) getConn(addr string) (cc *clientConn, dialed bool, err error) {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil, false, ErrShutdown
	}
	if cc, ok := e.conns[addr]; ok {
		if !cc.dead.Load() {
			e.mu.Unlock()
			e.metrics.poolHits.Inc()
			return cc, false, nil
		}
		delete(e.conns, addr)
	}
	if dw, ok := e.dialing[addr]; ok {
		e.mu.Unlock()
		e.metrics.poolDialShared.Inc()
		<-dw.done
		if dw.err != nil {
			return nil, true, dw.err
		}
		return dw.cc, true, nil
	}
	dw := &dialWait{done: make(chan struct{})}
	e.dialing[addr] = dw
	e.mu.Unlock()

	cc, err = e.dialNew(addr)
	dw.cc, dw.err = cc, err

	e.mu.Lock()
	delete(e.dialing, addr)
	e.mu.Unlock()
	close(dw.done)
	return cc, true, err
}

// dialNew performs the one real dial for an address (the caller holds the
// singleflight slot) and registers the connection.
func (e *Endpoint) dialNew(addr string) (*clientConn, error) {
	e.metrics.poolDials.Inc()
	conn, err := e.tr.Dial(addr)
	if err != nil {
		e.metrics.poolDialErrors.Inc()
		return nil, &ConnError{Op: "dial", Err: err}
	}
	cc := newClientConn(e, conn)

	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		cc.fail(ErrShutdown)
		return nil, ErrShutdown
	}
	if existing, ok := e.conns[addr]; ok {
		if !existing.dead.Load() {
			// Another path established a connection first (e.g. a waiter's
			// own retry); use it.
			e.mu.Unlock()
			cc.fail(ErrShutdown)
			return existing, nil
		}
	}
	e.conns[addr] = cc
	e.mu.Unlock()
	return cc, nil
}

// Invoke performs a remote method invocation on ref.  put (may be nil)
// encodes the arguments; get (may be nil) decodes the results.  Failures
// are reported as ErrUnreachable, ErrInvalidReference, ErrNoSuchMethod, or
// *AppError; Dead(err) tells the caller whether to re-resolve (§8.2).
//
// Slices obtained inside get via Decoder.BytesView alias a pooled frame
// buffer and must not be retained past the callback; Decoder.Bytes copies
// and is always safe.
func (e *Endpoint) Invoke(ref oref.Ref, method string, put func(*wire.Encoder), get func(*wire.Decoder) error) error {
	return e.InvokeCtx(context.Background(), ref, method, put, get)
}

// InvokeCtx is Invoke with a caller-supplied context.  A sampled trace span
// carried by ctx (obs.SpanFrom) is stamped onto the request and continues
// on the server; a ctx deadline shorter than the endpoint's call timeout
// bounds the round trip, surfacing as a ConnError wrapping
// context.DeadlineExceeded.  An unsampled, deadline-free context — the
// common case — adds no allocations to the call.
func (e *Endpoint) InvokeCtx(ctx context.Context, ref oref.Ref, method string, put func(*wire.Encoder), get func(*wire.Decoder) error) error {
	return e.call(ctx, ref, method, put, results{get: get}, nil)
}

// InvokeInto is InvokeCtx for a call whose results begin with one byte
// string — an application binary, the kernel image — declared up front so
// the ORB can put it where the caller keeps it: the string is decoded into
// dst's storage under Decoder.BytesInto's rule (a nil or too-short dst is
// replaced by a fresh slice of exactly the string's length) and handed to
// get as data, with d positioned on whatever follows it.  A large reply is
// read off the connection straight into that storage (DESIGN.md §12), the
// receiving end of ServerCall.PutBytesRef.
//
// dst is lent for the duration of the call: the caller must not touch it
// until InvokeInto returns, and on any error its contents are unspecified.
func (e *Endpoint) InvokeInto(ctx context.Context, ref oref.Ref, method string, put func(*wire.Encoder), dst []byte, get func(data []byte, d *wire.Decoder) error) error {
	return e.call(ctx, ref, method, put, results{into: get}, dst)
}

// results is how a caller takes a call's results: get decodes all of them,
// or — the bulk declaration — into receives the leading byte string and
// decodes the rest.  At most one is set.  The storage lent for the string
// travels beside it as its own argument, not as a field: it ends up in a
// pooled waiter, and a field that reaches the heap would drag the callbacks
// (and every variable they capture) there with it on each call.
type results struct {
	get  func(*wire.Decoder) error
	into func(data []byte, d *wire.Decoder) error
}

// sized returns dst cut to n bytes, or — Decoder.BytesInto's rule — a fresh
// slice of exactly n when dst is too short to hold them.
func sized(dst []byte, n int) []byte {
	if cap(dst) < n {
		return make([]byte, n)
	}
	return dst[:n]
}

// decode runs the caller's callback over a statusOK body.  d is positioned
// on the body, or — when data is non-nil — just past the leading string
// already placed in the caller's storage, which is otherwise dst's.
func (r *results) decode(d *wire.Decoder, data, dst []byte) error {
	var err error
	switch {
	case r.into != nil:
		if data == nil {
			data = d.BytesInto(dst)
		}
		err = r.into(data, d)
	case r.get != nil:
		err = r.get(d)
	}
	if err == nil && d.Err() != nil {
		err = Errf(ExcBadArgs, "result decode: %v", d.Err())
	}
	return err
}

func (e *Endpoint) call(ctx context.Context, ref oref.Ref, method string, put func(*wire.Encoder), res results, dst []byte) error {
	if ref.IsNil() {
		return ErrInvalidReference
	}
	m := e.metrics
	m.clientCalls.Inc()
	// Two clock readings time the call, and the HLC stamps the request and
	// observes the reply from the same two (DESIGN.md §13).
	start := mono()
	peer, err := e.invoke(ctx, ref, method, put, &res, dst, start)
	end := mono()
	if peer != 0 {
		// Couple to the server's clock and hand the raw reading to any
		// caller measuring this peer's offset.
		e.hlc.ObserveAt(peer, end)
		if cs := obs.ClockSinkFrom(ctx); cs != nil {
			cs.Set(peer)
		}
	}
	d := end - start
	ms := m.methodFor(ref.TypeID, method)
	if sp := obs.SpanFrom(ctx); sp.Sampled && sp.TraceID != 0 {
		// Sampled calls publish a latency exemplar carrying their trace id,
		// so the p99 row in a metrics scrape names a trace an operator can
		// resolve to the cluster timeline.  The allocation lives on this
		// branch only; the unsampled hot path keeps its plain Observe.
		ms.lat.ObserveExemplar(d, &obs.Exemplar{Trace: sp.TraceID, HLC: e.hlc.Current()})
	} else {
		ms.lat.Observe(d)
	}
	if err != nil {
		ms.errs.Inc()
		if Dead(err) {
			m.clientFailures.Inc()
		}
	}
	return err
}

// invoke makes the call that started at Mono reading start.  It returns
// the HLC reading the server stamped on its reply, zero when no reply came
// back (or the call was local).
func (e *Endpoint) invoke(ctx context.Context, ref oref.Ref, method string, put func(*wire.Encoder), res *results, dst []byte, start time.Duration) (obs.HLCTime, error) {
	// Local implementation: a plain dispatch, no network (§3.2: "maps to a
	// local implementation or to stubs that perform a remote procedure
	// call").
	if ref.Addr == e.addr {
		return 0, e.invokeLocal(ctx, ref, method, put, res, dst)
	}

	// The effective timeout is the endpoint's configured bound on a round
	// trip, tightened by the context's deadline when that is sooner.
	timeout := e.timeout()
	ctxBound := false
	deadline, hasDeadline := ctx.Deadline()
	if hasDeadline {
		if rem := until(deadline); rem < timeout {
			timeout, ctxBound = rem, true
		}
	}
	if ctxBound && timeout <= 0 {
		e.failures.Add(1)
		e.metrics.callTimeouts.Inc()
		return 0, &ConnError{Op: "timeout", Err: context.DeadlineExceeded}
	}
	// The call's deadline, a Mono reading: whatever the call spends on its
	// way to the wire — encoding, dialing, a first attempt — comes out of it.
	due := start + timeout

	enc := wire.GetEncoder()
	if put != nil {
		put(enc)
	}
	req := getRequest()
	req.Version = wireVersion
	req.ObjectID = ref.ObjectID
	req.Incarnation = ref.Incarnation
	req.Method = method
	req.Body = enc.Bytes()
	if sp := obs.SpanFrom(ctx); sp.Sampled {
		req.TraceID = sp.TraceID
		req.ParentSpanID = sp.SpanID
		req.Sampled = true
	}
	// Every request carries the sender's HLC (sampled or not): clock
	// coupling must not depend on trace sampling.  Atomics only — the
	// unsampled hot path stays allocation-free.
	req.HLC = uint64(e.hlc.NowAt(start))
	if a := e.authenticator(); a != nil {
		se := wire.GetEncoder()
		req.appendSigPayload(se)
		// The signature lands in the pooled request's own scratch array, so
		// steady-state signing allocates nothing; the ticket aliases a
		// signer-owned slice that stays valid across refreshes.
		principal, ticket, sig, err := a.Sign(se.Bytes(), req.sigScratch[:0])
		wire.PutEncoder(se)
		if err != nil {
			putRequest(req)
			wire.PutEncoder(enc)
			return 0, Errf(ExcDenied, "signing: %v", err)
		}
		req.Principal = principal
		req.Ticket = ticket
		req.Sig = sig
	}

	e.sent.Add(1)
	var rf *respFrame
	var err error
	// A pooled connection whose peer died while nobody was reading it is
	// found dead only by the call that tries it.  When not a byte of the
	// request left, it was never delivered, and one re-send on a fresh dial
	// keeps at-most-once.  The re-send is the same call, bound by the same
	// deadline.
	for resend := true; ; resend = false {
		cc, dialed, derr := e.getConn(ref.Addr)
		if derr != nil {
			putRequest(req)
			wire.PutEncoder(enc)
			e.failures.Add(1)
			return 0, derr
		}
		// The pre-send check.  A warm call on a pooled connection reads no
		// clock here; one that had to dial, or is sent again, or runs on a
		// context's deadline, checks what it has left: if encoding the
		// arguments, a dial or the first attempt spent all of it, the call
		// ends before its request is sent.
		late := (ctxBound || dialed || !resend) && mono() >= due
		var unsent bool
		rf, unsent, err = cc.roundTrip(req, due, late, res.into != nil, dst)
		if !unsent || !resend {
			break
		}
	}
	// The request frame was written (or the write failed) before roundTrip
	// returned; the argument buffer and request record are free again.
	putRequest(req)
	wire.PutEncoder(enc)
	if err != nil {
		// When the context's deadline was the binding constraint, report it
		// as such: callers select on errors.Is(err, context.DeadlineExceeded).
		if ctxBound {
			var ce *ConnError
			if errors.As(err, &ce) && ce.Op == "timeout" {
				err = &ConnError{Op: "timeout", Err: context.DeadlineExceeded}
			}
		}
		e.failures.Add(1)
		return 0, err
	}
	err = decodeResponse(rf, res, dst)
	// Back-propagate an adopted trace id into the caller's sink, success or
	// failure — adoption can accompany an application error.
	if rf.resp.TraceID != 0 {
		if sink := obs.SinkFrom(ctx); sink != nil {
			sink.Set(rf.resp.TraceID)
		}
	}
	peer := obs.HLCTime(rf.resp.HLC)
	putRespFrame(rf)
	return peer, err
}

func (e *Endpoint) invokeLocal(ctx context.Context, ref oref.Ref, method string, put func(*wire.Encoder), res *results, dst []byte) error {
	if e.closedFlag.Load() {
		return ErrShutdown
	}
	e.objMu.RLock()
	sk := e.answerer(method, e.objects[ref.ObjectID], ref.Incarnation)
	e.objMu.RUnlock()
	if sk == nil {
		return ErrInvalidReference
	}
	e.localCalls.Add(1)
	e.metrics.localCalls.Inc()
	enc := wire.GetEncoder()
	if put != nil {
		put(enc)
	}
	s := getScratch()
	s.call.method = method
	s.call.caller = Caller{Principal: "local", Addr: e.addr, Local: true}
	s.call.ctx = ctx
	s.call.adopted = 0
	s.args.Reset(enc.Bytes())
	s.results.Reset()
	err := e.dispatch(sk, s)
	if s.call.adopted != 0 {
		if sink := obs.SinkFrom(ctx); sink != nil {
			sink.Set(s.call.adopted)
		}
	}
	seg, segAt := s.call.takeSeg()
	if err == nil && (res.get != nil || res.into != nil) {
		body := s.results.Bytes()
		var data []byte
		// The argument decoder is spent; it decodes the results from here.
		s.args.Reset(body[:segAt])
		switch {
		case seg == nil:
		case res.into != nil && s.args.Uint() == uint64(len(seg)) && s.args.Remaining() == 0:
			// Nothing but its length precedes the lent segment: it is the
			// leading string the caller declared.  One copy, from where the
			// service keeps it to where the caller does.
			data = sized(dst, len(seg))
			copy(data, seg)
			body = body[segAt:]
		default:
			// Nothing will write the borrowed segment for us here: flatten
			// it into the spent argument encoder so the callback sees the
			// bytes a remote caller would.
			enc.Reset()
			enc.PutRaw(body[:segAt])
			enc.PutRaw(seg)
			enc.PutRaw(body[segAt:])
			body = enc.Bytes()
		}
		s.args.Reset(body)
		err = res.decode(&s.args, data, dst)
	}
	putScratch(s)
	wire.PutEncoder(enc)
	return err
}

// decodeResponse maps a response's status onto the caller-visible result,
// running the caller's callback over the borrowed body for statusOK.
func decodeResponse(rf *respFrame, res *results, dst []byte) error {
	resp := &rf.resp
	switch resp.Status {
	case statusOK:
		rf.dec.Reset(resp.Body)
		return res.decode(&rf.dec, rf.data, dst)
	case statusInvalidRef:
		return ErrInvalidReference
	case statusNoSuchMethod:
		return ErrNoSuchMethod
	case statusShutdown:
		return ErrShutdown
	case statusBadVersion:
		rf.dec.Reset(resp.Body)
		return &VersionError{Client: wireVersion, Server: rf.dec.Uint()}
	case statusApp:
		return &AppError{Name: resp.ErrName, Msg: resp.ErrMsg}
	default:
		return Errf("BadStatus", "unknown status %d", resp.Status)
	}
}

// Invoker is the slice of Endpoint a client stub needs: a stub that holds
// one beside the reference it calls through lets a test fake or a wrapper
// (the benchmark's rebinding echo caller) stand in for the endpoint.
type Invoker interface {
	Invoke(ref oref.Ref, method string, put func(*wire.Encoder), get func(*wire.Decoder) error) error
}

// Ping probes liveness of the object behind ref through inv, using the node
// operation _ping.  It reports nil for a live object, ErrInvalidReference
// for a stale one, and ErrUnreachable for a dead process.
func Ping(inv Invoker, ref oref.Ref) error { return inv.Invoke(ref, "_ping", nil, nil) }

// Ping is orb.Ping through this endpoint.
func (e *Endpoint) Ping(ref oref.Ref) error { return Ping(e, ref) }

// MetricsOf scrapes the node registry of the endpoint at addr and returns
// the text snapshot.  Like every helper over NodeRef it works against any
// live endpoint regardless of incarnation or object ids, which is what lets
// itv-admin and in-memory tests inspect a server they hold no valid
// reference to.
func (e *Endpoint) MetricsOf(addr string) (string, error) {
	var text string
	err := e.Invoke(NodeRef(addr), "_metrics", nil, func(d *wire.Decoder) error {
		text = d.String()
		return nil
	})
	return text, err
}
