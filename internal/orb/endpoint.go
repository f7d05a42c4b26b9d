package orb

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"itv/internal/obs"
	"itv/internal/oref"
	"itv/internal/transport"
	"itv/internal/wire"
)

// Skeleton is the server side of an IDL interface: it dispatches decoded
// invocations to the implementation.  The per-interface Dispatch switch is
// what the IDL compiler would generate.
type Skeleton interface {
	// TypeID returns the IDL interface name, e.g. "itv.NamingContext".
	TypeID() string
	// Dispatch handles one invocation.  Unknown methods return
	// ErrNoSuchMethod; application exceptions are returned as *AppError.
	Dispatch(c *ServerCall) error
}

// Caller identifies the origin of an invocation (§3.3: "when an object
// method is invoked, the object can securely determine the identity of the
// caller").
type Caller struct {
	// Principal is the authenticated identity, empty when the endpoint has
	// no authenticator.
	Principal string
	// Addr is the network source of the call ("host:port").
	Addr string
	// Local is true for same-process virtual-function-call dispatch.
	Local bool
}

// Host returns the caller's host (IP) without the port.
func (c Caller) Host() string {
	if h, _, err := net.SplitHostPort(c.Addr); err == nil {
		return h
	}
	return c.Addr
}

// ServerCall carries one invocation through a skeleton.  Calls are pooled
// and reused across requests; a skeleton must not retain the call, its
// decoder, or any Decoder.BytesView slice past Dispatch's return
// (Decoder.Bytes copies and is always safe to keep).
type ServerCall struct {
	method  string
	caller  Caller
	args    *wire.Decoder
	results *wire.Encoder
	ctx     context.Context
	adopted uint64

	// seg is the borrowed segment PutBytesRef lent to this reply, and
	// segAt its offset in results (just past its length prefix).
	seg   []byte
	segAt int
}

// Method returns the invoked operation name.
func (c *ServerCall) Method() string { return c.method }

// Caller returns the invocation's origin.
func (c *ServerCall) Caller() Caller { return c.caller }

// Args returns the argument decoder.
func (c *ServerCall) Args() *wire.Decoder { return c.args }

// Results returns the result encoder.
func (c *ServerCall) Results() *wire.Encoder { return c.results }

// PutBytesRef appends b to the results as PutBytes would — same bytes on
// the wire — but lends a large b to the reply instead of copying it: only
// the length prefix enters the results encoder, and the ORB writes b
// itself between the bytes around it (DESIGN.md §12).  This is the bulk
// reply mechanism; a service holding megabytes (an application binary, the
// kernel image) sends them from where they live.
//
// The caller must not modify b until the reply has been written, which it
// cannot observe — so b must be immutable for as long as any call might
// still be sending it (replace the slice, never write into it).  A reply
// lends at most one segment; a second call, or a b no larger than the
// write path's copy-coalescing limit, is simply copied.
func (c *ServerCall) PutBytesRef(b []byte) {
	if len(b) <= flushCopyLimit || c.seg != nil {
		c.results.PutBytes(b)
		return
	}
	c.results.PutUint(uint64(len(b)))
	c.seg, c.segAt = b, c.results.Len()
}

// takeSeg ends the call's hold on its borrowed segment, returning it and
// its offset in the results.
func (c *ServerCall) takeSeg() ([]byte, int) {
	seg, at := c.seg, c.segAt
	c.seg, c.segAt = nil, 0
	return seg, at
}

// Context returns the invocation's context.  When the caller propagated a
// sampled trace, the context carries its span (obs.SpanFrom) so downstream
// invokes made with InvokeCtx continue the trace across machines; otherwise
// it is context.Background().  Like the call itself it must not be retained
// past Dispatch's return.
func (c *ServerCall) Context() context.Context {
	if c.ctx == nil {
		return context.Background()
	}
	return c.ctx
}

// AdoptTrace reports that serving this call joined an existing causal trace
// (e.g. a bind that consumed an audit tombstone left by a traced failure).
// The id travels back on the response and lands in the caller's TraceSink.
func (c *ServerCall) AdoptTrace(trace uint64) {
	if trace != 0 {
		c.adopted = trace
	}
}

// Authenticator hooks call signing into the endpoint; the auth package
// provides the Kerberos-like implementation (§3.3).  A nil authenticator
// sends and accepts unsigned calls.
//
// Both methods follow the DESIGN.md §9 caller-owned-buffer discipline so
// the signed hot path allocates nothing: the caller provides the scratch,
// the implementation appends into it.
type Authenticator interface {
	// Sign produces the principal, ticket and signature for an outgoing
	// request whose signed payload is given.  sig is appended to sigBuf
	// (which the caller owns and reuses); ticket must remain valid until
	// at least the implementation's next Sign call returns a different
	// slice — the caller marshals it into a frame before the next call.
	Sign(payload, sigBuf []byte) (principal string, ticket, sig []byte, err error)
	// Verify checks an incoming request, returning the verified
	// principal.  macBuf is caller-owned scratch for staging the expected
	// signature; implementations must not retain it, nor ticket/sig/
	// payload, which alias a frame buffer reused after the call.
	Verify(principal string, ticket, sig, payload, macBuf []byte) (string, error)
}

// Stats counts endpoint activity; E5 (§7.2.1) aggregates these to measure
// message costs of the audit schemes.
type Stats struct {
	Sent       int64 // remote requests issued
	Received   int64 // remote requests served
	LocalCalls int64 // same-process short-circuit dispatches
	Failures   int64 // invocations that raised transport-level failures
}

// incarnationCounter yields process-unique incarnation timestamps.  It is
// seeded from the real clock so that independently started OS processes
// (cmd/itv-server) do not collide.
var incarnationCounter atomic.Int64

func init() { incarnationCounter.Store(time.Now().UnixNano()) }

// Endpoint is one service process's presence on the network: its listener,
// its exported objects, and its client-side connection pool.  Closing the
// endpoint models the process dying — every reference to its objects
// becomes invalid.
type Endpoint struct {
	tr          transport.Transport
	ln          net.Listener
	addr        string
	incarnation int64
	auth        atomic.Value // Authenticator; set via SetAuthenticator
	callTimeout atomic.Int64 // nanoseconds; SetCallTimeout races Invoke
	wireVer     atomic.Uint64
	metrics     *epMetrics
	recorder    *obs.Recorder
	hlc         *obs.HLC
	ledger      *obs.SlowLedger

	// principals holds the caller identities this endpoint has accepted,
	// so a served call's Caller.Principal is the table's string rather
	// than a fresh copy of the request's.  A claimed principal is looked up
	// on arrival but admitted only once the authenticator has verified the
	// call (on arrival where none is installed): a name that fails
	// verification never occupies a slot.
	principals wire.Table[string]

	// node is the skeleton of the endpoint's own itv.Node object (node.go);
	// diag bounds the concurrency of its guarded operations so a misbehaving
	// scraper cannot monopolize the dispatch workers.
	node *nodeSkel
	diag diagGuard

	// profBuf holds the most recently collected runtime profile between the
	// chunked _profile reads that page it out.
	profMu  sync.Mutex
	profBuf []byte

	mu      sync.Mutex
	objMu   sync.RWMutex // guards objects; writers hold mu too (DESIGN.md §12)
	objects map[string]Skeleton
	conns   map[string]*clientConn // by remote addr
	dialing map[string]*dialWait   // by remote addr; singleflight dials
	serving map[net.Conn]struct{}
	closed  bool

	// closedFlag mirrors closed, so dispatch reads it without e.mu.
	closedFlag atomic.Bool

	sent       atomic.Int64
	received   atomic.Int64
	localCalls atomic.Int64
	failures   atomic.Int64

	wg sync.WaitGroup
}

// NewEndpoint opens an endpoint on the transport with an automatically
// assigned port.  The endpoint serves requests until Close.
func NewEndpoint(tr transport.Transport) (*Endpoint, error) {
	ln, addr, err := tr.Listen()
	if err != nil {
		return nil, err
	}
	return newEndpoint(tr, ln, addr), nil
}

// NewEndpointOn opens an endpoint on a fixed, well-known port, so that its
// address survives restarts.  Used by the name service, whose references
// are the designed exception to reference invalidation (§3.2.1).
func NewEndpointOn(tr transport.Transport, port int) (*Endpoint, error) {
	ln, addr, err := tr.ListenOn(port)
	if err != nil {
		return nil, err
	}
	return newEndpoint(tr, ln, addr), nil
}

func newEndpoint(tr transport.Transport, ln net.Listener, addr string) *Endpoint {
	e := &Endpoint{
		tr:          tr,
		ln:          ln,
		addr:        addr,
		incarnation: incarnationCounter.Add(1),
		metrics:     newEpMetrics(tr.Host()),
		recorder:    obs.NodeRecorder(tr.Host()),
		hlc:         obs.NodeHLC(tr.Host()),
		ledger:      obs.NodeSlowLedger(tr.Host()),
		objects:     make(map[string]Skeleton),
		conns:       make(map[string]*clientConn),
		dialing:     make(map[string]*dialWait),
		serving:     make(map[net.Conn]struct{}),
	}
	e.node = &nodeSkel{e}
	e.callTimeout.Store(int64(10 * time.Second))
	e.wireVer.Store(wireVersion)
	e.wg.Add(1)
	go e.acceptLoop()
	return e
}

// SetAuthenticator installs the call-signing hook.  It may be called after
// the endpoint is serving; in-flight requests see either the old or the
// new authenticator.
func (e *Endpoint) SetAuthenticator(a Authenticator) { e.auth.Store(&a) }

// authenticator returns the installed hook, or nil.
func (e *Endpoint) authenticator() Authenticator {
	if v := e.auth.Load(); v != nil {
		return *v.(*Authenticator)
	}
	return nil
}

// Metrics returns the node registry this endpoint reports into — shared by
// every endpoint on the same host, scraped remotely via MetricsOf.
func (e *Endpoint) Metrics() *obs.Registry { return e.metrics.reg }

// Recorder returns the flight recorder this endpoint's node records into —
// shared by every endpoint on the same host, scraped remotely via EventsOf.
func (e *Endpoint) Recorder() *obs.Recorder { return e.recorder }

// acceptedWireVersion is the protocol version this endpoint serves.  It is
// wireVersion except under tests that simulate an old-build server.
func (e *Endpoint) acceptedWireVersion() uint64 { return e.wireVer.Load() }

// SetCallTimeout bounds each remote invocation in real time.  It may be
// called while invocations are in flight; each call reads the timeout once
// at its start.
func (e *Endpoint) SetCallTimeout(d time.Duration) { e.callTimeout.Store(int64(d)) }

// timeout returns the current per-call timeout.
func (e *Endpoint) timeout() time.Duration { return time.Duration(e.callTimeout.Load()) }

// Addr returns the endpoint's "host:port".
func (e *Endpoint) Addr() string { return e.addr }

// Host returns the endpoint's host identity.
func (e *Endpoint) Host() string { return e.tr.Host() }

// Incarnation returns the endpoint's incarnation timestamp.
func (e *Endpoint) Incarnation() int64 { return e.incarnation }

// Stats returns a snapshot of activity counters.
func (e *Endpoint) Stats() Stats {
	return Stats{
		Sent:       e.sent.Load(),
		Received:   e.received.Load(),
		LocalCalls: e.localCalls.Load(),
		Failures:   e.failures.Load(),
	}
}

// Register exports an object under the given id (empty for the process's
// default object, the common case — §9.2) and returns its reference.
func (e *Endpoint) Register(objectID string, sk Skeleton) oref.Ref {
	// TypeID may consult the service's own state (context skeletons do);
	// evaluate it outside the endpoint lock to keep lock orders acyclic.
	typeID := sk.TypeID()
	e.mu.Lock()
	defer e.mu.Unlock()
	if _, dup := e.objects[objectID]; dup {
		panic(fmt.Sprintf("orb: duplicate object id %q", objectID))
	}
	e.objMu.Lock()
	e.objects[objectID] = sk
	e.objMu.Unlock()
	return oref.Ref{Addr: e.addr, Incarnation: e.incarnation, TypeID: typeID, ObjectID: objectID}
}

// Unregister withdraws an object; its references become invalid.  Used for
// dynamically created objects such as open movies (§9.2).
func (e *Endpoint) Unregister(objectID string) {
	e.mu.Lock()
	e.objMu.Lock()
	delete(e.objects, objectID)
	e.objMu.Unlock()
	e.mu.Unlock()
}

// RefFor returns the reference for a registered object, or a nil ref.
func (e *Endpoint) RefFor(objectID string) oref.Ref {
	e.mu.Lock()
	sk, ok := e.objects[objectID]
	e.mu.Unlock()
	if !ok {
		return oref.Ref{}
	}
	return oref.Ref{Addr: e.addr, Incarnation: e.incarnation, TypeID: sk.TypeID(), ObjectID: objectID}
}

// Close terminates the endpoint: the listener stops, in-flight connections
// are severed, and all references to its objects become permanently
// invalid.  This is the "process crash/halt" of §3.2.1.  It returns once
// every goroutine and timer the endpoint started has finished.
func (e *Endpoint) Close() {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return
	}
	e.closed = true
	e.closedFlag.Store(true)
	ln := e.ln
	conns := make([]*clientConn, 0, len(e.conns))
	for _, c := range e.conns {
		conns = append(conns, c)
	}
	e.conns = map[string]*clientConn{}
	serving := make([]net.Conn, 0, len(e.serving))
	for c := range e.serving {
		serving = append(serving, c)
	}
	e.mu.Unlock()

	// Tear down in address order, not map order, so that two runs of one
	// schedule fail their calls alike.
	addr := func(c net.Conn) string { return c.RemoteAddr().String() }
	slices.SortFunc(conns, func(a, b *clientConn) int { return strings.Compare(addr(a.conn), addr(b.conn)) })
	slices.SortFunc(serving, func(a, b net.Conn) int { return strings.Compare(addr(a), addr(b)) })
	ln.Close()
	for _, c := range conns {
		c.fail(ErrShutdown)
	}
	for _, c := range serving {
		c.Close()
	}
	e.wg.Wait()
}

// hold adds one goroutine or armed timer to what Close waits for, and
// reports false, adding nothing, once Close has begun.  Everything the
// endpoint starts after construction — a background reader, a grace timer
// — is held this way, so Close returns only after all of it has finished.
func (e *Endpoint) hold() bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return false
	}
	e.wg.Add(1)
	return true
}

// Closed reports whether the endpoint has been shut down.
func (e *Endpoint) Closed() bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.closed
}

func (e *Endpoint) acceptLoop() {
	defer e.wg.Done()
	for {
		conn, err := e.ln.Accept()
		if err != nil {
			return
		}
		e.mu.Lock()
		if e.closed {
			e.mu.Unlock()
			conn.Close()
			return
		}
		e.serving[conn] = struct{}{}
		e.mu.Unlock()
		e.wg.Add(1)
		go e.serveConn(conn)
	}
}

// residentWorkers is the number of reusable dispatch workers one serving
// connection keeps (started lazily, one per concurrently outstanding call).
// Each worker owns its ServerCall/response/encoder scratch for its whole
// life, so steady-state dispatch allocates nothing.  When a connection has
// more than residentWorkers calls in flight the surplus falls back to a
// spawned goroutine with pooled scratch, preserving the old
// goroutine-per-request pipelining guarantee: a slow call never blocks the
// calls queued behind it.  A call the reader dispatches inline counts in
// flight like any other (DESIGN.md §12).
const residentWorkers = 4

// connServer is the serving state of one accepted connection.  Response
// frames go out through fw, which coalesces concurrent workers' writes
// exactly like the client side (DESIGN.md §12).
//
// The connection's goroutines take turns at its reader seat (seat.go): the
// holder reads requests, and dispatches one itself when nothing else is in
// flight; the others are workers taking requests from work.
type connServer struct {
	e      *Endpoint
	conn   net.Conn
	remote string // RemoteAddr, computed once per connection
	fw     frameWriter
	fr     *wire.FrameReader // the seat holder's

	work     chan *serverReq
	inflight atomic.Int32
	pool     atomic.Int32 // goroutines in the worker loop, parked or busy

	// seat is the reader's state (seatReading, ...) under the number of its
	// latest inline dispatch; grace times that dispatch, recording its
	// number (onGrace).  held is what the connection's signed calls proved.
	seat  atomic.Uint64
	grace graceCheck
	held  tickets
}

// tickets is what a connection's signed calls have proven: the last two
// distinct tickets that verified on it, owned copies, with their
// principals, newest first (DESIGN.md §12).
type tickets struct {
	mu        sync.Mutex
	ticket    [2][]byte
	principal [2]string
}

// verify checks req through a.  A signed request without a ticket on a
// connection that holds some names them, and is checked against each in
// turn.  The ticket that verifies is held at the front.
func (t *tickets) verify(a Authenticator, req *request, principal string, payload, macBuf []byte) (v string, err error) {
	sched(pHeld, nil)
	t.mu.Lock()
	ticket, principals := t.ticket, t.principal
	t.mu.Unlock()
	if len(req.Ticket) > 0 || len(req.Sig) == 0 || ticket[0] == nil {
		ticket, principals = [2][]byte{req.Ticket}, [2]string{principal}
	}
	for i := 0; i < 2 && (i == 0 || ticket[i] != nil); i++ {
		if v, err = a.Verify(principals[i], ticket[i], req.Sig, payload, macBuf); err != nil {
			continue
		}
		if len(req.Ticket) > 0 || i > 0 {
			t.mu.Lock()
			if !bytes.Equal(t.ticket[0], ticket[i]) {
				t.ticket, t.principal = [2][]byte{bytes.Clone(ticket[i]), t.ticket[0]}, [2]string{v, t.principal[0]}
			}
			t.mu.Unlock()
		}
		return v, nil
	}
	return "", err
}

func (e *Endpoint) serveConn(conn net.Conn) {
	srv := &connServer{
		e:      e,
		conn:   conn,
		remote: conn.RemoteAddr().String(),
		fr:     wire.NewFrameReader(conn),
		work:   make(chan *serverReq, residentWorkers),
	}
	// A failed response flush severs the connection; the client re-dials.
	// So does one still writing after the call timeout: a client that
	// stopped reading holds no more than that of this connection's replies.
	srv.fw = frameWriter{conn: conn, m: e.metrics, onErr: func(error) { conn.Close() }, limit: e.timeout}
	srv.fw.stall.t = newTimer(pStalled, srv.fw.stalled)
	srv.grace.t = newTimer(pGrace, srv.onGrace)
	srv.run(getScratch(), true)
}

// run is the life of one of the connection's goroutines: reading while it
// holds the seat, taking requests from the work queue while it does not,
// until the connection is finished.  Each holds one scratch throughout.
func (srv *connServer) run(s *callScratch, seated bool) {
	defer srv.e.wg.Done()
	defer putScratch(s)
	for {
		if seated {
			if !srv.read(s) {
				return
			}
			srv.pool.Add(1)
		}
		for seated = false; !seated; {
			sr, ok := <-srv.work
			switch {
			case !ok:
				return
			case sr == nil: // promoted: the seat is ours
				srv.pool.Add(-1)
				seated = true
			default:
				srv.handleOne(sr, s, mono())
				putServerReq(sr)
			}
		}
	}
}

// read holds the seat: it reads requests and dispatches each inline or
// queues it.  It returns true when an inline dispatch outlasted the grace
// and the seat went to a worker meanwhile, false once the connection is
// finished.
func (srv *connServer) read(s *callScratch) bool {
	for {
		sr := getServerReq()
		frame, err := srv.fr.Next(sr.buf)
		if err != nil {
			putServerReq(sr)
			srv.finish()
			return false
		}
		sr.buf = frame
		// recvAt starts the queue-wait clock: everything between here and a
		// worker's pickup is time the request spent waiting for dispatch.
		sr.recvAt = mono()
		sr.dec.Reset(frame)
		sr.req.UnmarshalWire(&sr.dec)
		// A version-mismatched request legitimately leaves its payload
		// undecoded (UnmarshalWire stops after the envelope); only a frame
		// that fails decoding, or trails garbage under *our* version, is a
		// protocol violation worth dropping the connection for.
		if sr.dec.Err() != nil ||
			(sr.req.Version == wireVersion && sr.dec.Remaining() != 0) {
			putServerReq(sr)
			srv.finish()
			return false // protocol violation: drop the connection
		}
		// sr now borrows the frame buffer (request body, ticket, sig alias
		// it); ownership passes to whoever handles it.
		n := srv.inflight.Add(1)
		switch {
		case n == 1 && !srv.fr.Ready():
			seated := srv.dispatchInline(sr, s)
			putServerReq(sr)
			if !seated {
				return true
			}
		case n <= residentWorkers:
			// Invariant: we only queue while inflight <= residentWorkers,
			// and the pool holds at least inflight workers after the lazy
			// start below, so the buffered send never blocks and some
			// worker is free to take it.
			if srv.pool.Load() < n {
				srv.pool.Add(1)
				srv.e.wg.Add(1)
				go srv.run(getScratch(), false)
			}
			srv.work <- sr
		default:
			srv.e.wg.Add(1)
			go func() { srv.overflow(sr) }()
		}
	}
}

// overflow serves a request beyond what the resident workers take, on a
// goroutine of its own with pooled scratch.
func (srv *connServer) overflow(sr *serverReq) {
	defer srv.e.wg.Done()
	s := getScratch()
	srv.handleOne(sr, s, mono())
	putScratch(s)
	putServerReq(sr)
}

// handleOne executes one request and hands its response frame to the
// connection's write path, reusing the given scratch for dispatch and
// encoding.  The frame is marshaled into an owned pooled encoder before
// the handoff, so the scratch (which the response body aliases) is free
// for the worker's next request even while the frame waits on a flush; a
// borrowed segment is not the scratch's, and travels with the frame.
// pickup ends the request's queue wait: a worker's clock reading, or the
// arrival itself for an inline dispatch.
func (srv *connServer) handleOne(sr *serverReq, s *callScratch, pickup time.Duration) {
	method, sms := srv.e.handleInto(&sr.req, srv.remote, &srv.held, s, sr.recvAt)
	// Stamp the reply with this node's HLC — one site covers every response
	// path, so the caller's clock couples to ours on every round trip.  The
	// handler's end is the stamp's time as well as the service time's end.
	done := mono()
	s.resp.HLC = uint64(srv.e.hlc.NowAt(done))
	qf, err := encodeResponse(&s.resp)
	if err != nil {
		// The reply does not fit a frame.  That is this call's failure, not
		// the connection's: refuse it by name and keep serving the calls
		// multiplexed alongside it.
		s.resp.refuseTooLarge()
		srv.e.metrics.appErrors.Inc()
		qf, _ = encodeResponse(&s.resp) // a refusal is a few dozen bytes
	}
	// Attach the latency decomposition for the flusher to record once the
	// response frame is on the wire.  A version-mismatched request never
	// decoded its method; it travels unattributed (zero meta).
	if method != "" {
		if sms == nil {
			sms = srv.e.metrics.otherRow()
		}
		qf.meta = frameMeta{
			sms:     sms,
			led:     srv.e.ledger,
			rec:     srv.e.recorder,
			hlc:     obs.HLCTime(s.resp.HLC),
			trace:   sr.req.TraceID,
			sampled: sr.req.Sampled,
			method:  method,
			peer:    srv.remote,
			queue:   pickup - sr.recvAt,
			service: done - pickup,
			handoff: done,
		}
	}
	srv.fw.sendFrame(qf)
	srv.inflight.Add(-1)
}

// handleInto executes one request against the object adapter, leaving the
// response in s.resp.  The response body may alias s.results; the caller
// encodes the response frame out of s before reusing the scratch.  It
// returns the request's method as a string that outlives the frame and the
// method's own latency row, nil when it has none (no name at all for a
// request refused at the version gate).  recvAt is the Mono reading at the
// request's arrival, the time of the HLC's receive event; held, the
// tickets its connection holds.
//
// This is the decode boundary for the request's three strings (DESIGN.md
// §9): each is resolved from its bytes in the frame to a string some table
// already holds, and only a value no table holds is copied out.
func (e *Endpoint) handleInto(req *request, remoteAddr string, held *tickets, s *callScratch, recvAt time.Duration) (method string, sms *serverMethodStats) {
	e.received.Add(1)
	resp := &s.resp
	resp.reset()
	resp.ReqID = req.ReqID

	// Version gate first: a mismatched request's payload fields are not
	// decoded (and must not be interpreted), but the envelope is enough to
	// route a clean, versioned refusal back to the caller's waiter.
	if accepted := e.acceptedWireVersion(); req.Version != accepted {
		resp.Status = statusBadVersion
		s.results.Reset()
		s.results.PutUint(accepted)
		resp.Body = s.results.Bytes()
		return
	}
	method, sms = e.metrics.serverFor(req.method)

	// Couple our HLC to the sender's.  Only after the version gate: a
	// mismatched request's HLC field was never decoded.
	if req.HLC != 0 {
		e.hlc.ObserveAt(obs.HLCTime(req.HLC), recvAt)
	}

	caller := Caller{Addr: remoteAddr}
	principal, accepted := e.principals.Lookup(req.principal)
	if !accepted {
		principal = string(req.principal)
	}
	if a := e.authenticator(); a != nil {
		se := wire.GetEncoder()
		req.appendDecodedSigPayload(se)
		// The expected signature stages in the scratch's own array, so
		// steady-state verification allocates nothing.
		verified, err := held.verify(a, req, principal, se.Bytes(), s.macBuf[:0])
		wire.PutEncoder(se)
		if err != nil {
			resp.Status = statusApp
			resp.ErrName = ExcDenied
			resp.ErrMsg = err.Error()
			return
		}
		principal = verified
	}
	if !accepted {
		principal = wire.Canonical(&e.principals, principal)
	}
	caller.Principal = principal

	if e.closedFlag.Load() {
		resp.Status = statusShutdown
		return
	}
	// Indexed by the id's bytes: no string is made (DESIGN.md §9).
	e.objMu.RLock()
	sk := e.answerer(method, e.objects[string(req.objectID)], req.Incarnation)
	e.objMu.RUnlock()
	if sk == nil {
		resp.Status = statusInvalidRef
		return
	}

	call := &s.call
	call.method = method
	call.caller = caller
	call.adopted = 0
	// Re-materialize the caller's trace span.  Unsampled calls — the hot
	// path — get the shared Background context and allocate nothing; only a
	// sampled call pays for a context value carrying its span.
	if req.Sampled && req.TraceID != 0 {
		call.ctx = obs.ContextWithSpan(context.Background(),
			obs.Span{TraceID: req.TraceID, SpanID: obs.NewSpanID(), Sampled: true})
	} else {
		call.ctx = context.Background()
	}
	s.args.Reset(req.Body)
	s.results.Reset()
	err := e.dispatch(sk, s)
	if sms == nil && !errors.Is(err, ErrNoSuchMethod) {
		// A skeleton answered to the name: from here on it is one of the
		// endpoint's methods, with its own row (this call's included).
		sms, _ = e.metrics.admitMethod(method)
	}
	resp.TraceID = call.adopted
	seg, segAt := call.takeSeg()
	switch {
	case err == nil:
		resp.Status = statusOK
		resp.Body = s.results.Bytes()
		resp.seg, resp.segAt = seg, segAt
	case errors.Is(err, ErrNoSuchMethod):
		resp.Status = statusNoSuchMethod
		resp.ErrMsg = method
	default:
		ae := err.(*AppError)
		resp.Status = statusApp
		resp.ErrName = ae.Name
		resp.ErrMsg = ae.Msg
	}
	return
}

// dispatch runs the invocation set up in s through sk, the way every call
// is served wherever it came from: counted, gauged while in flight, a panic
// recovered into a ServerPanic exception, arguments the skeleton could not
// decode refused as ExcBadArgs.  The error it returns is nil,
// ErrNoSuchMethod or an *AppError — what a remote caller would be told.
func (e *Endpoint) dispatch(sk Skeleton, s *callScratch) error {
	e.metrics.dispatches.Inc()
	e.metrics.inflight.Inc()
	err := recovered(sk, &s.call)
	e.metrics.inflight.Dec()
	if err == nil && s.args.Err() != nil {
		err = Errf(ExcBadArgs, "argument decode: %v", s.args.Err())
	}
	if err == nil || errors.Is(err, ErrNoSuchMethod) {
		return err
	}
	e.metrics.appErrors.Inc()
	var ae *AppError
	if !errors.As(err, &ae) {
		ae = &AppError{Name: "ServerError", Msg: err.Error()}
	}
	return ae
}

// recovered is sk.Dispatch with a panic turned into a ServerPanic exception.
func recovered(sk Skeleton, c *ServerCall) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = Errf("ServerPanic", "%v", r)
		}
	}()
	return sk.Dispatch(c)
}
