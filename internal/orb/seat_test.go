package orb

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"runtime"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"itv/internal/oref"
	"itv/internal/transport"
	"itv/internal/wire"
)

// Tests for run-to-completion (seat.go, DESIGN.md §12): who reads a
// connection (what a sequential call costs in hand-offs and goroutine runs
// is on the cost card), and what happens when whoever holds a reader seat is held up — by a
// handler that blocks, a chain of calls that comes back to its own caller, a
// peer that goes away while nobody is calling, a peer that stops reading, or
// the endpoint's own Close.

// seatTransports returns a server and a client transport for each network:
// per-run memnet hosts, whose counters no other test moves, or TCP loopback.
func seatTransports() map[string][2]transport.Transport {
	nw := transport.NewNetwork()
	return map[string][2]transport.Transport{
		"memnet": {nw.Host(perRun("192.168.27.1")), nw.Host(perRun("10.27.0.5"))},
		"tcp":    {transport.TCP(), transport.TCP()},
	}
}

// seatPair serves sk on trs[0] to a client endpoint on trs[1].
func seatPair(t *testing.T, trs [2]transport.Transport, sk Skeleton) (server, client *Endpoint, ref oref.Ref) {
	server, client, ref, closeAll := pairOn(trs, sk)
	t.Cleanup(closeAll)
	return server, client, ref
}

// TestCallMeetsTheIdleReader: a call on a connection the idle check has
// given a background reader waits for that reader to deliver its reply, and
// the reader lets the seat go once it has.  Whichever way the two race, the
// reply reaches the caller: a caller that takes the seat after the reader
// let it go finds its reply already delivered, instead of waiting at the
// connection for a frame that has been read.
func TestCallMeetsTheIdleReader(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	_, client, ref := seatPair(t, seatTransports()["memnet"], &echoSkel{})
	client.SetCallTimeout(time.Second)
	for i := 0; i < 100; i++ {
		time.Sleep(2 * seatGrace) // long enough for the idle check to seat a reader
		if got, err := echo(t, client, ref, "after a pause"); err != nil || got != "after a pause" {
			t.Fatalf("call %d after an idle grace = %q, %v", i, got, err)
		}
	}
}

// TestBlockedHandlerDoesNotStallTheConnection: the first call on an idle
// connection is dispatched on the server's reader and blocks there.  After
// the grace a worker takes the reader seat, so a second call on the same
// connection still completes — and on the client the blocked caller, seated
// on the connection, reads the second call's reply and hands it over.
//
// The premise is that the blocked call is dispatched inline, which
// orb_server_inline_dispatches shows.  A warm call whose dispatch outlasts
// the grace (under the race detector, say) is promoted past, and when the
// blocked call then arrives while the warm one is still in flight, a
// worker takes it and there is nothing to promote.  So the test lets any
// such grace run out before it starts, and an attempt whose blocked call
// went to a worker is released and made again.
func TestBlockedHandlerDoesNotStallTheConnection(t *testing.T) {
	const slack = 250 * time.Millisecond
	for network, trs := range seatTransports() {
		sk := newHandSkel()
		server, client, ref := seatPair(t, trs, sk)
		if _, err := echo(t, client, ref, "warm"); err != nil {
			t.Fatal(err)
		}
		blocked := make(chan error, 1)
		var promotions func() int64
		for attempt := 1; ; attempt++ {
			time.Sleep(2 * seatGrace)
			inline := counterDelta(server.Metrics(), "orb_server_inline_dispatches")
			promotions = counterDelta(server.Metrics(), "orb_server_reader_promotions")
			go func() { blocked <- client.Invoke(ref, "wait", nil, nil) }()
			<-sk.entered
			if inline() == 1 {
				break
			}
			if attempt == 5 {
				t.Fatalf("%s: in %d attempts the blocked call was never dispatched inline", network, attempt)
			}
			t.Logf("%s: attempt %d: the blocked call went to a worker; again", network, attempt)
			sk.gate <- struct{}{}
			if err := <-blocked; err != nil {
				t.Fatalf("%s: released call: %v", network, err)
			}
		}

		start := time.Now()
		got, err := echo(t, client, ref, "behind")
		took := time.Since(start)
		if err != nil || got != "behind" {
			t.Fatalf("%s: call behind a blocked handler = %q, %v", network, got, err)
		}
		if took > seatGrace+slack {
			t.Errorf("%s: call behind a blocked handler took %s, want under the %s grace plus %s", network, took, seatGrace, slack)
		}
		if n := promotions(); n != 1 {
			t.Errorf("%s: %d reader promotions, want 1", network, n)
		}
		close(sk.gate)
		if err := <-blocked; err != nil {
			t.Fatalf("%s: blocked call: %v", network, err)
		}
	}
}

// hopSkel answers hop(n) by calling hop(n-1) on next, so two of them make
// a chain of calls that keeps coming back to where it started.
type hopSkel struct {
	ep   *Endpoint
	next oref.Ref
}

func (s *hopSkel) TypeID() string { return "test.Hop" }

func (s *hopSkel) Dispatch(c *ServerCall) error {
	if c.Method() != "hop" {
		return ErrNoSuchMethod
	}
	n := c.Args().Int()
	if n > 0 {
		return s.ep.InvokeCtx(c.Context(), s.next, "hop", func(e *wire.Encoder) { e.PutInt(n - 1) }, nil)
	}
	return nil
}

// TestReentrantChainCompletes: a call to A that calls B, which calls A,
// which calls B again.  The last hop reaches B on the connection whose
// reader is still dispatching the first call to B, inline; with nobody
// taking over the seat it would wait there for ever.
func TestReentrantChainCompletes(t *testing.T) {
	for network, trs := range seatTransports() {
		a, b, _ := seatPair(t, trs, &echoSkel{})
		skA, skB := &hopSkel{ep: a}, &hopSkel{ep: b}
		refA, refB := a.Register("hop", skA), b.Register("hop", skB)
		skA.next, skB.next = refB, refA
		client, err := NewEndpoint(trs[1])
		if err != nil {
			t.Fatal(err)
		}
		defer client.Close()
		for _, ep := range []*Endpoint{a, b, client} {
			ep.SetCallTimeout(2 * time.Second)
		}
		promotions := counterDelta(b.Metrics(), "orb_server_reader_promotions")
		if err := client.Invoke(refA, "hop", func(e *wire.Encoder) { e.PutInt(3) }, nil); err != nil {
			t.Fatalf("%s: A→B→A→B: %v", network, err)
		}
		if promotions() < 1 {
			t.Errorf("%s: the chain completed without B's reader handing its seat on", network)
		}
	}
}

// TestIdlePeerDeathIsNoticed: the peer closes while the client's connection
// is idle.  A grace later the idle check has given the connection a reader,
// which sees it go; the next call dials afresh and succeeds.
func TestIdlePeerDeathIsNoticed(t *testing.T) {
	for network, trs := range seatTransports() {
		server, client, ref := seatPair(t, trs, &echoSkel{})
		if _, err := echo(t, client, ref, "warm"); err != nil {
			t.Fatal(err)
		}
		client.mu.Lock()
		cc := client.conns[ref.Addr]
		client.mu.Unlock()
		_, port, _ := net.SplitHostPort(ref.Addr)
		p, err := strconv.Atoi(port)
		if err != nil {
			t.Fatal(err)
		}
		dials := counterDelta(client.Metrics(), "orb_pool_dials")

		server.Close()
		deadline := time.Now().Add(5 * time.Second)
		for !cc.dead.Load() {
			if time.Now().After(deadline) {
				t.Fatalf("%s: the idle connection to a closed peer is still live", network)
			}
			time.Sleep(seatGrace)
		}
		restarted, err := NewEndpointOn(trs[0], p)
		if err != nil {
			t.Fatal(err)
		}
		defer restarted.Close()
		ref2 := restarted.Register("", &echoSkel{})
		if got, err := echo(t, client, ref2, "again"); err != nil || got != "again" {
			t.Fatalf("%s: call after the peer's restart = %q, %v", network, got, err)
		}
		if n := dials(); n != 1 {
			t.Errorf("%s: %d dials after the peer's restart, want 1", network, n)
		}
	}
}

// FuzzSeatedReadReply runs FuzzReadReply's frames with the caller as the
// reader: a seated caller reads them through readUntil, which must end on
// its own reply or on the connection's failure, hand every other frame on,
// and write lent storage only for a reply it claimed.
func FuzzSeatedReadReply(f *testing.F) {
	behind := frameOf(f, &response{ReqID: 8, HLC: 1})
	for _, h := range hostileReplies(flushCopyLimit + 10) {
		piped := append(bytes.Clone(h.stream), behind...)
		f.Add(h.stream, uint16(0), uint16(flushCopyLimit>>4))
		f.Add(h.stream, uint16(4+splitPrefix/2), uint16(0))
		f.Add(piped, uint16(4+splitPrefix+100), uint16(flushCopyLimit>>4))
		f.Add(piped, uint16(4), uint16(flushCopyLimit>>4))
		f.Add(append(bytes.Clone(behind), h.stream...), uint16(0), uint16(flushCopyLimit>>4))
	}
	f.Add([]byte{0, 0, 0, 3, 7, 0, 0}, uint16(0), uint16(9))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff}, uint16(2), uint16(9))
	f.Fuzz(func(t *testing.T, stream []byte, first, dstCap uint16) {
		const slack = 64
		lent := int(dstCap) << 4
		dst := lentBuf(0, lent+slack)
		w := &waiter{ch: make(chan *respFrame, 1), id: 7, into: true, dst: dst[:0:lent]}
		other := &waiter{ch: make(chan *respFrame, 1), id: 8}
		cc := looplessConn(&firstRead{r: bytes.NewReader(stream), n: int(first)}, 7, w)
		cc.pending[8] = other
		other.state.Store(registered)
		w.state.Store(registered | seated)
		cc.idle.t = newTimer(pIdle, func() {})
		cc.state.Store(seatHeld + 2*pendingOne)

		rf, claimed := cc.readUntil(w, nil)
		full := dst[:cap(dst)]
		if !allCanary(full[lent:]) {
			t.Fatal("wrote past the end of the lent storage")
		}
		if !claimed && !allCanary(full) {
			t.Fatal("lent storage written without a claim")
		}
		if rf != nil {
			if !claimed || rf.resp.ReqID != 7 {
				t.Fatalf("readUntil returned reply %d, claimed %v", rf.resp.ReqID, claimed)
			}
			putRespFrame(rf)
		} else if !claimed && !cc.dead.Load() {
			t.Fatal("readUntil gave up with its reply unread on a live connection")
		}
		select {
		case got := <-other.ch:
			if got != nil {
				if got.resp.ReqID != 8 {
					t.Fatalf("waiter 8 was handed reply %d", got.resp.ReqID)
				}
				putRespFrame(got)
			}
		default:
			if _, pending := cc.pending[8]; !pending {
				t.Fatal("waiter 8 was claimed and never delivered to")
			}
		}
	})
}

// stallPayload outgrows what a peer that stops reading lets through: 16
// times memnet's 64 KiB link buffer, and over 20 times the few tens of KiB
// two pinnedTCP sockets hold.
const stallPayload = 1 << 20

// pinnedTCP is loopback TCP whose sockets keep small fixed buffers, so a
// peer that stops reading stalls its writer after tens of KiB, where the
// kernel's autotuned buffers take megabytes first.  Its connections are
// the sockets themselves, uncounted.
type pinnedTCP struct{ transport.Transport }

func pin(c net.Conn) net.Conn {
	tc := c.(*net.TCPConn)
	tc.SetReadBuffer(4 << 10)
	tc.SetWriteBuffer(4 << 10)
	return c
}

func (pinnedTCP) Listen() (net.Listener, string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", err
	}
	return pinnedListener{ln}, ln.Addr().String(), nil
}

func (pinnedTCP) Dial(addr string) (net.Conn, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return pin(c), nil
}

type pinnedListener struct{ net.Listener }

func (l pinnedListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return pin(c), nil
}

// pinnedTCPs is a server and a client transport over pinnedTCP.
var pinnedTCPs = [2]transport.Transport{pinnedTCP{transport.TCP()}, pinnedTCP{transport.TCP()}}

// TestCallDeadlineBoundsItsOwnWrite: against a peer that accepts and never
// reads, a caller's own write is what blocks once the request outgrows
// what the connection holds — memnet's link buffer, or the sockets'
// buffers over TCP.  That caller is the connection's flusher, and others
// queue behind it.  Each must return within its context deadline plus
// slack, the flusher with a timeout cut short inside its write; and the
// endpoint must still reach a healthy peer afterwards.  The cut costs the
// connection (its one write error) over TCP, whose sockets took part of
// the request, and nothing over memnet, which hands a write that does not
// fit its link to the reader whole: no byte of it went (frameWriter.spares).
// The explorer runs it over memnet (ownWrite).
func TestCallDeadlineBoundsItsOwnWrite(t *testing.T) {
	explorePins(t)
	if err := ownWriteOn(wallClock{}, pinnedTCPs, 1); err != nil {
		t.Error(err)
	}
}

var ownWrite = scenario{"own write", func(x *explorer) error { return ownWriteOn(x, memnet(), 0) }}

func ownWriteOn(c clock, trs [2]transport.Transport, wantWriteErrors int64) error {
	const timeout, queued = 200 * time.Millisecond, 3
	_, client, healthy, closeAll := pairOn(trs, &echoSkel{})
	defer closeAll()
	stalled, stop := peerOn(trs[0], nil)
	defer stop()
	writeErrors := counterDelta(client.Metrics(), "orb_conn_write_errors")
	type result struct {
		took time.Duration
		err  error
	}
	call := func(label, payload string, out chan<- result) {
		c.label(label)
		took, err := timed(c, client, stalled, "echo", payload, timeout)
		out <- result{took, err}
	}
	flusher, others := make(chan result, 1), make(chan result, queued)
	start := mono()
	go call("big", string(make([]byte, stallPayload)), flusher)
	// The big call is the only one on the connection, so a flush owner is
	// its waiter: from here on it is in its write, and the queued callers'
	// frames wait behind it.
	for !leadsFlush(client, stalled.Addr) {
		if mono()-start > timeout {
			return errors.New("the big call never led the connection's flush")
		}
		c.sleep(time.Millisecond)
	}
	for i := 0; i < queued; i++ {
		go call(fmt.Sprint("queued", i), "queued", others)
	}
	var errs []error
	if r := <-flusher; ConnClass(r.err) != "timeout" || r.took > timeout+c.margin() {
		errs = append(errs, fmt.Errorf("flusher returned after %s with %v; want a timeout within %s", r.took, r.err, timeout+c.margin()))
	}
	if n := writeErrors(); n != wantWriteErrors {
		errs = append(errs, fmt.Errorf("%d write errors; want %d, the flusher's write cut short by its deadline", n, wantWriteErrors))
	}
	for i := 0; i < queued; i++ {
		if r := <-others; r.err == nil || r.took > timeout+c.margin() {
			errs = append(errs, fmt.Errorf("queued caller returned after %s with %v; want an error within %s", r.took, r.err, timeout+c.margin()))
		}
	}
	if _, err := timed(c, client, healthy, "echo", "after", time.Second); err != nil {
		errs = append(errs, fmt.Errorf("call to a healthy peer afterwards: %v", err))
	}
	return errors.Join(errs...)
}

// leadsFlush reports whether e's connection to addr has a call leading
// its flush.
func leadsFlush(e *Endpoint, addr string) bool {
	e.mu.Lock()
	cc := e.conns[addr]
	e.mu.Unlock()
	if cc == nil {
		return false
	}
	cc.fw.mu.Lock()
	defer cc.fw.mu.Unlock()
	return cc.fw.due != 0
}

// stallReply sends ref a request for "bulk" on a connection of its own,
// dialed on tr, and returns the connection, never to be read.
func stallReply(tr transport.Transport, ref oref.Ref) (net.Conn, error) {
	conn, err := tr.Dial(ref.Addr)
	if err != nil {
		return nil, err
	}
	fe, err := encodeFrame(&request{ReqID: 1, Version: wireVersion, ObjectID: ref.ObjectID,
		Incarnation: ref.Incarnation, Method: "bulk"}, 0)
	if err != nil {
		return nil, err
	}
	defer wire.PutEncoder(fe)
	_, err = conn.Write(fe.Bytes())
	return conn, err
}

// serving is how many connections e serves.
func serving(e *Endpoint) int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.serving)
}

// TestServerReplyWriteIsBounded: a client that asks for a reply and never
// reads it wedges the server's flush of that reply once the reply outgrows
// what the connection holds — memnet's link buffer, or the sockets'
// buffers over TCP.  The server severs that connection within one call
// timeout of the flush's start, and its other connections keep serving
// meanwhile and afterwards.  The explorer runs it over memnet (replyBound).
func TestServerReplyWriteIsBounded(t *testing.T) {
	explorePins(t)
	if err := replyBoundOn(wallClock{}, pinnedTCPs); err != nil {
		t.Error(err)
	}
}

var replyBound = scenario{"reply bound", func(x *explorer) error { return replyBoundOn(x, memnet()) }}

func replyBoundOn(c clock, trs [2]transport.Transport) error {
	const timeout = 200 * time.Millisecond
	sk := newHandSkel()
	sk.blob, sk.replied = make([]byte, stallPayload), make(chan time.Duration, 1)
	server, client, ref, closeAll := pairOn(trs, sk)
	defer closeAll()
	server.SetCallTimeout(timeout)
	if _, err := timed(c, client, ref, "echo", "before", time.Second); err != nil {
		return fmt.Errorf("call before the stall: %v", err)
	}
	others := serving(server)
	conn, err := stallReply(trs[1], ref)
	if err != nil {
		return err
	}
	defer conn.Close()
	start := <-sk.replied
	var errs []error
	if _, err := timed(c, client, ref, "echo", "during", time.Second); err != nil {
		errs = append(errs, fmt.Errorf("call on another connection during the stall: %v", err))
	}
	for serving(server) > others && mono()-start < timeout+time.Second {
		c.sleep(time.Millisecond)
	}
	if took := mono() - start; serving(server) > others || took < timeout || took > timeout+c.margin() {
		errs = append(errs, fmt.Errorf("stalled connection severed %s after the reply (still serving: %v); want within %s",
			took, serving(server) > others, timeout))
	}
	if _, err := timed(c, client, ref, "echo", "after", time.Second); err != nil {
		errs = append(errs, fmt.Errorf("call on another connection afterwards: %v", err))
	}
	return errors.Join(errs...)
}

// TestCallExpiredBeforeItsWrite: a call whose context deadline passes before
// its frame reaches the write path — here, in the caller's own argument
// encoding — returns its timeout at once against a peer that never reads,
// without framing its request: nothing is written, and the connection,
// dialed once, stays up (the expiredBeforeWrite scenario).
func TestCallExpiredBeforeItsWrite(t *testing.T) { explorePins(t) }

var expiredBeforeWrite = scenario{"expired before its write", func(x *explorer) error {
	const timeout = 10 * time.Millisecond
	hosts := memnet()
	_, client, _, closeAll := pairOn(hosts, &echoSkel{})
	defer closeAll()
	stalled, stop := peerOn(hosts[0], nil)
	defer stop()
	sent := hosts[1].(transport.StatsSource).Stats().FramesSent
	dials := counterDelta(client.Metrics(), "orb_pool_dials")
	for i := 0; i < 20; i++ {
		ctx, cancel := x.ctx(timeout)
		start := mono()
		err := client.InvokeCtx(ctx, stalled, "echo", func(e *wire.Encoder) {
			x.sleep(2 * timeout)
			e.PutString("late")
		}, nil)
		cancel()
		if took := mono() - start; ConnClass(err) != "timeout" || took > 2*timeout+slack {
			return fmt.Errorf("call %d returned after %s with %v; want its timeout at once", i, took, err)
		}
	}
	if n := hosts[1].(transport.StatsSource).Stats().FramesSent - sent; n != 0 || dials() != 1 {
		return fmt.Errorf("expired calls wrote %d frames over %d dials; want none over one", n, dials())
	}
	return nil
}}

// TestEarlierDeadlineRearmsTheTimer: the connection's one timer is pending
// for the deadline of a call with ten seconds to go when a call with a
// 50 ms context deadline joins it on the same connection.  The later call
// sets the timer earlier and times out at its own deadline; the first
// call, still in flight, is served (the earlierDeadline scenario).
func TestEarlierDeadlineRearmsTheTimer(t *testing.T) { explorePins(t) }

var earlierDeadline = scenario{"earlier deadline", func(x *explorer) error {
	const timeout = 50 * time.Millisecond
	sk := newHandSkel()
	_, client, ref, closeAll := pairOn(memnet(), sk)
	defer closeAll()
	client.SetCallTimeout(10 * time.Second)
	long := make(chan error, 1)
	go func() {
		x.label("long")
		long <- client.Invoke(ref, "wait", nil, nil)
	}()
	<-sk.entered
	var errs [2]error
	if took, err := timed(x, client, ref, "wait", "", timeout); !errors.Is(err, context.DeadlineExceeded) || took > timeout+slack {
		errs[0] = fmt.Errorf("a %s call behind a 10 s one returned after %s with %v; want its deadline within %s", timeout, took, err, timeout+slack)
	}
	close(sk.gate)
	if err := <-long; err != nil {
		errs[1] = fmt.Errorf("the 10 s call: %v, want it served", err)
	}
	return errors.Join(errs[:]...)
}}

// brokenFirstDial wraps a transport so that the first connection it dials
// fails every write, after letting through the first took bytes of it.
type brokenFirstDial struct {
	transport.Transport
	took  int
	dials atomic.Int32
}

func (b *brokenFirstDial) Dial(addr string) (net.Conn, error) {
	c, err := b.Transport.Dial(addr)
	if err != nil || b.dials.Add(1) > 1 {
		return c, err
	}
	return &brokenConn{Conn: c, left: b.took}, nil
}

// brokenConn writes the first left bytes and then fails, as a connection
// whose peer has gone does.
type brokenConn struct {
	net.Conn
	left int
}

func (c *brokenConn) Write(p []byte) (int, error) {
	n := min(len(p), c.left)
	c.left -= n
	if n > 0 {
		c.Conn.Write(p[:n])
	}
	if n < len(p) {
		return n, net.ErrClosed
	}
	return n, nil
}

// TestUnsentRequestIsSentOnce: a call that meets a connection already dead
// — its peer gone while nobody was reading — is sent again on a fresh dial
// when not a byte of it left, so the caller never sees the stale
// connection; once any byte has left, the server may have it, and the call
// fails rather than risk running twice.
func TestUnsentRequestIsSentOnce(t *testing.T) {
	for _, took := range []int{0, 3} {
		nw := transport.NewNetwork()
		skel := &echoSkel{}
		tr := &brokenFirstDial{Transport: nw.Host(perRun("10.27.0.6")), took: took}
		server, client, ref := seatPair(t, [2]transport.Transport{nw.Host(perRun("192.168.27.4")), tr}, skel)
		got, err := echo(t, client, ref, "once")
		switch {
		case took == 0 && (err != nil || got != "once" || tr.dials.Load() != 2):
			t.Errorf("unsent request: %q, %v after %d dials; want the echo after a second dial", got, err, tr.dials.Load())
		case took > 0 && (err == nil || tr.dials.Load() != 1):
			t.Errorf("request cut after %d bytes: %v after %d dials; want a failure and no second dial", took, err, tr.dials.Load())
		}
		if n := server.Stats().Received; n > 1 {
			t.Errorf("took %d: the server received the request %d times", took, n)
		}
	}
}

// TestResentRequestKeepsItsDeadline: a request sent again on a fresh dial
// (Endpoint.invoke) is still the same call, bound by the deadline it began
// with.  Its first write is lent to a peer that never reads and closes at
// three quarters of the timeout, not a byte taken, so the request goes
// again; the second peer never reads either.  The call must return at its
// one timeout, not a fresh timeout after the re-send (the resentDeadline
// scenario).
func TestResentRequestKeepsItsDeadline(t *testing.T) { explorePins(t) }

var resentDeadline = scenario{"resent deadline", func(x *explorer) error {
	const timeout = 400 * time.Millisecond
	nw := transport.NewNetwork()
	client, err := NewEndpoint(nw.Host("10.39.0.7"))
	if err != nil {
		return err
	}
	defer client.Close()
	client.SetCallTimeout(timeout)
	accepted := make(chan net.Conn, 2)
	peer, stop := peerOn(nw.Host("192.168.39.3"), func(c net.Conn) { accepted <- c })
	defer stop()
	dials := counterDelta(client.Metrics(), "orb_pool_dials")
	big := make([]byte, stallPayload)
	start := mono()
	done := make(chan error, 1)
	go func() {
		x.label("call")
		done <- client.Invoke(peer, "echo", func(e *wire.Encoder) { e.PutBytes(big) }, nil)
	}()
	first := <-accepted
	x.sleep(timeout*3/4 - (mono() - start))
	first.Close()
	err = <-done
	var errs [2]error
	if took := mono() - start; ConnClass(err) != "timeout" || took > timeout+slack {
		errs[0] = fmt.Errorf("re-sent call returned after %s with %v; want its timeout within %s", took, err, timeout+slack)
	}
	if n := dials(); n != 2 {
		errs[1] = fmt.Errorf("%d dials; want the request sent again on a second", n)
	}
	return errors.Join(errs[:]...)
}}

// TestLeadingCallsDeadlineOutlivesItsReply: a call whose frame made it the
// connection's flusher goes on writing the large request queued behind it
// after its own reply came back, read by the caller that holds the seat,
// to a peer that then stops reading.  The leading call's deadline still
// cuts that flush short: the call returns with its reply by its timeout,
// and the connection is severed, so the large request dials afresh
// (leadingFlush, at a seed that reaches premiseLeaderFlushed).
func TestLeadingCallsDeadlineOutlivesItsReply(t *testing.T) { explorePins(t) }

// slowDial wraps a transport so that every dial takes d first.
type slowDial struct {
	transport.Transport
	d time.Duration
}

func (s slowDial) Dial(addr string) (net.Conn, error) {
	time.Sleep(s.d)
	return s.Transport.Dial(addr)
}

// TestDialThatSpendsTheTimeoutSendsNothing: a call's deadline runs from its
// start, so a dial that takes longer than the call timeout leaves the call
// no time, and its request is not framed at all: the caller's timeout must
// not be a call the server ran.  The connection the dial made stays, and
// the next call on it is served.
func TestDialThatSpendsTheTimeoutSendsNothing(t *testing.T) {
	const timeout = 50 * time.Millisecond
	trs := seatTransports()["memnet"]
	server, client, ref := seatPair(t, [2]transport.Transport{trs[0], slowDial{trs[1], 2 * timeout}}, &echoSkel{})
	client.SetCallTimeout(timeout)
	if _, err := echo(t, client, ref, "late"); ConnClass(err) != "timeout" {
		t.Errorf("call behind a %s dial: %v; want its timeout", 2*timeout, err)
	}
	client.SetCallTimeout(10 * time.Second)
	if got, err := echo(t, client, ref, "next"); err != nil || got != "next" {
		t.Fatalf("next call = %q, %v", got, err)
	}
	// The server read the requests in order: by the second reply it has
	// counted every one it got.
	if n := server.Stats().Received; n != 1 {
		t.Errorf("the server received %d requests; want only the call that had time", n)
	}
}

// TestExpiredCallLeavesNothingBehind: a caller whose request is queued
// behind a flush to a peer that never reads times out and returns, its
// waiter back in the pool, while the flusher still waits.  Nothing of that
// may reach the waiter: the next call takes it from the pool (one P), has
// its request read by the server, and then loses its connection, so it
// must fail rather than be sent again (expiredLeavesNothing).
func TestExpiredCallLeavesNothingBehind(t *testing.T) { explorePins(t) }

var expiredLeavesNothing = scenario{"expired leaves nothing", func(x *explorer) error {
	sk := newHandSkel()
	hosts := memnet()
	_, client, ref, closeAll := pairOn(hosts, sk)
	defer closeAll()
	stalled, stop := peerOn(hosts[0], nil)
	defer stop()
	if _, err := timed(x, client, ref, "echo", "warm", time.Second); err != nil {
		return fmt.Errorf("warm call: %w", err)
	}
	flusher := make(chan error, 1)
	go func() {
		x.label("flusher")
		_, err := timed(x, client, stalled, "echo", string(make([]byte, stallPayload)), 300*time.Millisecond)
		flusher <- err
	}()
	if _, err := timed(x, client, stalled, "echo", "stalled", 50*time.Millisecond); ConnClass(err) != "timeout" {
		return fmt.Errorf("call queued behind the flusher: %v, want its timeout", err)
	}
	if err := <-flusher; ConnClass(err) != "timeout" {
		return fmt.Errorf("flusher: %v, want its timeout", err)
	}
	done := make(chan error, 1)
	go func() {
		x.label("next")
		done <- client.Invoke(ref, "wait", nil, nil)
	}()
	<-sk.entered
	client.mu.Lock()
	cc := client.conns[ref.Addr]
	client.mu.Unlock()
	cc.conn.Close()
	err := <-done
	close(sk.gate)
	switch {
	case len(sk.entered) > 0:
		return errors.New("a request the server had read was sent a second time")
	case err == nil:
		return errors.New("a call whose connection died under it succeeded")
	}
	return nil
}}

// TestKickDoesNotOutliveItsCaller: the connection's timer ends a call whose
// caller sits on the seat reading.  end finds the caller seated and kicks
// it out of Read.  The caller must not give the seat up until the kick is
// over and undone: a kick that landed on the next reader would fail that
// reader's read — a split read into another caller's storage among them —
// and sever the connection (seatedTimer, at a seed where A is kicked).
func TestKickDoesNotOutliveItsCaller(t *testing.T) { explorePins(t) }

// sleepSkel takes d over every call, and closes busy as the n-th starts.
type sleepSkel struct {
	d     time.Duration
	n     int32
	calls atomic.Int32
	busy  chan struct{}
}

func (s *sleepSkel) TypeID() string { return "test.Sleep" }

func (s *sleepSkel) Dispatch(c *ServerCall) error {
	if s.calls.Add(1) == s.n {
		close(s.busy)
	}
	time.Sleep(s.d)
	return nil
}

// TestCloseLeavesNoGoroutine: Close returns only after everything the
// endpoint started has ended — the server's readers and workers, a reader
// promoted past a slow inline dispatch, the client's background readers
// and the grace timers of both.  With calls in flight and a grace pending,
// the goroutine count is back where it was the moment both Closes return.
// The callers are the test's own and outlive the count.  On one P the
// moment Close returns is exact: the last goroutine to finish hands the P
// back only once it is gone, where on two the woken Close can overtake a
// goroutine still on its way out.
func TestCloseLeavesNoGoroutine(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const callers = 4
	for network, trs := range seatTransports() {
		var ref oref.Ref
		var client *Endpoint
		start, release := make(chan struct{}), make(chan struct{})
		stopped := make(chan struct{}, callers)
		for i := 0; i < callers; i++ {
			go func() {
				<-start
				for client.InvokeCtx(context.Background(), ref, "sleep", nil, nil) == nil {
				}
				stopped <- struct{}{}
				<-release
			}()
		}
		before := runtime.NumGoroutine()
		server, err := NewEndpoint(trs[0])
		if err != nil {
			t.Fatal(err)
		}
		if client, err = NewEndpoint(trs[1]); err != nil {
			t.Fatal(err)
		}
		// Each call outlasts the grace, so inline dispatches arm it and
		// readers get promoted while the calls run; a few calls in, the
		// client's replies are read by a background reader.
		sk := &sleepSkel{d: 3 * seatGrace, n: 8, busy: make(chan struct{})}
		ref = server.Register("", sk)
		close(start)
		<-sk.busy
		client.Close()
		// The server is still up, so nothing but client.Close has ended the
		// client's readers: none may be left.
		if left := endpointGoroutines("created by itv/internal/orb.(*clientConn)", "(*clientConn).onIdle"); left != "" {
			t.Errorf("%s: client.Close returned with its goroutines running:\n%s", network, left)
		}
		for i := 0; i < callers; i++ {
			<-stopped
		}
		server.Close()
		if after := runtime.NumGoroutine(); after > before {
			t.Errorf("%s: %d goroutines before the endpoints, %d once both were closed:\n%s",
				network, before, after, endpointGoroutines("itv/internal/"))
		}
		close(release)
	}
}

// endpointGoroutines returns the stacks of the goroutines running any of
// the named functions.
func endpointGoroutines(funcs ...string) string {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	var out []byte
	for _, g := range bytes.Split(buf, []byte("\n\n")) {
		for _, f := range funcs {
			if bytes.Contains(g, []byte(f)) {
				out = append(append(out, g...), '\n')
				break
			}
		}
	}
	return string(out)
}
