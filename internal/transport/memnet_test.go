package transport

import (
	"bytes"
	"errors"
	"io"
	"net"
	"os"
	"sync"
	"testing"
	"time"
)

func TestMemnetRoundTrip(t *testing.T) {
	nw := NewNetwork()
	server := nw.Host("192.168.0.1")
	client := nw.Host("10.1.0.5")

	ln, addr, err := server.Listen()
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		c, err := ln.Accept()
		if err != nil {
			t.Errorf("accept: %v", err)
			return
		}
		defer c.Close()
		buf := make([]byte, 5)
		if _, err := io.ReadFull(c, buf); err != nil {
			t.Errorf("read: %v", err)
			return
		}
		if _, err := c.Write([]byte("pong!")); err != nil {
			t.Errorf("write: %v", err)
		}
	}()

	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Write([]byte("ping!")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 5)
	if _, err := io.ReadFull(c, buf); err != nil {
		t.Fatal(err)
	}
	if string(buf) != "pong!" {
		t.Fatalf("got %q", buf)
	}
	wg.Wait()
}

func TestMemnetCallerAddressVisible(t *testing.T) {
	nw := NewNetwork()
	server := nw.Host("192.168.0.1")
	settop := nw.Host("10.3.0.17")

	ln, addr, _ := server.Listen()
	defer ln.Close()

	got := make(chan string, 1)
	go func() {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		got <- c.RemoteAddr().String()
	}()

	c, err := settop.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	remote := <-got
	host, _, err := net.SplitHostPort(remote)
	if err != nil {
		t.Fatal(err)
	}
	if host != "10.3.0.17" {
		t.Fatalf("server saw caller %q, want settop IP 10.3.0.17", host)
	}
}

func TestMemnetDialRefusedNoListener(t *testing.T) {
	nw := NewNetwork()
	client := nw.Host("10.1.0.1")
	if _, err := client.Dial("192.168.0.9:1024"); !errors.Is(err, ErrRefused) {
		t.Fatalf("err = %v, want ErrRefused", err)
	}
}

func TestMemnetCutSeversAndRefuses(t *testing.T) {
	nw := NewNetwork()
	server := nw.Host("192.168.0.1")
	client := nw.Host("10.1.0.1")
	ln, addr, _ := server.Listen()
	defer ln.Close()

	accepted := make(chan net.Conn, 1)
	go func() {
		c, err := ln.Accept()
		if err == nil {
			accepted <- c
		}
	}()
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	sc := <-accepted

	nw.Cut("192.168.0.1")

	// Existing connection severed: reads fail promptly.
	c.SetReadDeadline(time.Now().Add(2 * time.Second))
	buf := make([]byte, 1)
	if _, err := c.Read(buf); err == nil {
		t.Fatal("read on severed conn succeeded")
	}
	sc.Close()

	// New dials refused.
	if _, err := client.Dial(addr); !errors.Is(err, ErrUnreachable) {
		t.Fatalf("dial to cut host err = %v, want ErrUnreachable", err)
	}

	// Dials from a cut host also fail.
	if _, err := server.Dial(addr); !errors.Is(err, ErrUnreachable) {
		t.Fatalf("dial from cut host err = %v, want ErrUnreachable", err)
	}

	nw.Restore("192.168.0.1")
	go func() {
		if c, err := ln.Accept(); err == nil {
			c.Close()
		}
	}()
	c2, err := client.Dial(addr)
	if err != nil {
		t.Fatalf("dial after restore: %v", err)
	}
	c2.Close()
}

func TestMemnetListenerClose(t *testing.T) {
	nw := NewNetwork()
	server := nw.Host("192.168.0.1")
	client := nw.Host("10.1.0.1")
	ln, addr, _ := server.Listen()
	ln.Close()
	if _, err := client.Dial(addr); !errors.Is(err, ErrRefused) {
		t.Fatalf("dial to closed listener err = %v, want ErrRefused", err)
	}
	if _, err := ln.Accept(); !errors.Is(err, ErrClosed) {
		t.Fatalf("accept on closed listener err = %v, want ErrClosed", err)
	}
	// Double close is safe.
	ln.Close()
}

func TestMemnetDistinctPorts(t *testing.T) {
	nw := NewNetwork()
	h := nw.Host("192.168.0.1")
	_, a1, _ := h.Listen()
	_, a2, _ := h.Listen()
	if a1 == a2 {
		t.Fatalf("duplicate listener addresses %q", a1)
	}
}

func TestMemnetStats(t *testing.T) {
	nw := NewNetwork()
	server := nw.Host("192.168.0.1")
	client := nw.Host("10.1.0.1")
	ln, addr, _ := server.Listen()
	defer ln.Close()
	go func() {
		c, err := ln.Accept()
		if err == nil {
			io.Copy(io.Discard, c)
		}
	}()
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	c.Write(make([]byte, 100))
	c.Close()
	if nw.ConnsMade() != 1 {
		t.Fatalf("ConnsMade = %d, want 1", nw.ConnsMade())
	}
	if nw.BytesSent() < 100 {
		t.Fatalf("BytesSent = %d, want >= 100", nw.BytesSent())
	}
}

func TestTCPTransportRoundTrip(t *testing.T) {
	tr := TCP()
	ln, addr, err := tr.Listen()
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		io.Copy(c, c)
	}()
	c, err := tr.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Write([]byte("hi")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 2)
	if _, err := io.ReadFull(c, buf); err != nil {
		t.Fatal(err)
	}
	if string(buf) != "hi" {
		t.Fatalf("echo = %q", buf)
	}
}

// TestMemnetDialRacingCloseLeavesNoOrphan: a Dial that races the listener's
// Close either is refused or yields a connection Close has severed — never
// a live client whose server side nobody will read or close (a writer on
// such a pipe blocks forever; it hung TestConnectionPoolChurn).
func TestMemnetDialRacingCloseLeavesNoOrphan(t *testing.T) {
	nw := NewNetwork()
	server := nw.Host("192.168.0.1")
	client := nw.Host("10.1.0.5")
	for i := 0; i < 3000; i++ {
		ln, addr, err := server.Listen()
		if err != nil {
			t.Fatal(err)
		}
		closed := make(chan struct{})
		go func() {
			ln.Close()
			close(closed)
		}()
		c, err := client.Dial(addr)
		<-closed
		if err != nil {
			continue
		}
		// Nobody accepted, so the listener's Close (or Dial itself) must
		// have severed the connection: the read fails, but not by timeout.
		c.SetReadDeadline(time.Now().Add(2 * time.Second))
		_, rerr := c.Read(make([]byte, 1))
		c.Close()
		if rerr == nil || errors.Is(rerr, os.ErrDeadlineExceeded) {
			t.Fatalf("iteration %d: dial that raced Close left a live, orphaned connection (read: %v)", i, rerr)
		}
	}
}

// memPair dials a fresh memnet connection and returns both ends: c, the
// client's, and s, the server's.
func memPair(t testing.TB) (nw *Network, c, s net.Conn) {
	t.Helper()
	nw = NewNetwork()
	ln, addr, err := nw.Host("192.168.0.1").Listen()
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	accepted := make(chan net.Conn, 1)
	go func() {
		c, err := ln.Accept()
		if err != nil {
			c = nil
		}
		accepted <- c
	}()
	if c, err = nw.Host("10.1.0.1").Dial(addr); err != nil {
		t.Fatal(err)
	}
	if s = <-accepted; s == nil {
		t.Fatal("accept failed")
	}
	t.Cleanup(func() { c.Close(); s.Close() })
	return nw, c, s
}

// returns runs f in its own goroutine and reports its result on a channel.
func returns(f func() (int, error)) <-chan ioResult {
	ch := make(chan ioResult, 1)
	go func() {
		n, err := f()
		ch <- ioResult{n, err}
	}()
	return ch
}

type ioResult struct {
	n   int
	err error
}

// blocked fails the test if ch has delivered within a while.
func blocked(t *testing.T, ch <-chan ioResult, what string) {
	t.Helper()
	select {
	case r := <-ch:
		t.Fatalf("%s returned (%d, %v); want it blocked", what, r.n, r.err)
	case <-time.After(50 * time.Millisecond):
	}
}

// released waits for ch, failing the test if it does not deliver promptly.
func released(t *testing.T, ch <-chan ioResult, what string) ioResult {
	t.Helper()
	select {
	case r := <-ch:
		return r
	case <-time.After(2 * time.Second):
		t.Fatalf("%s still blocked", what)
		return ioResult{}
	}
}

// TestMemnetWriterStallsOnAFullBuffer: against a peer that does not read, a
// write returns as long as its bytes fit in the link, as a socket's does
// while its buffer has room; once they do not, the writer waits.  A past
// write deadline releases it with os.ErrDeadlineExceeded and the count of
// what the reader took of it.
func TestMemnetWriterStallsOnAFullBuffer(t *testing.T) {
	_, c, s := memPair(t)
	if n, err := c.Write(make([]byte, linkBound)); n != linkBound || err != nil {
		t.Fatalf("a write that fits the buffer = %d, %v; want it taken whole at once", n, err)
	}
	w := returns(func() (int, error) { return c.Write([]byte("one byte too many")) })
	blocked(t, w, "a write to a full buffer")
	c.SetWriteDeadline(time.Now().Add(-time.Second))
	if r := released(t, w, "a write past its deadline"); r.n != 0 || !errors.Is(r.err, os.ErrDeadlineExceeded) {
		t.Fatalf("a stalled write past its deadline = %d, %v; want 0, os.ErrDeadlineExceeded", r.n, r.err)
	}

	// A write that does not fit is taken only as far as the reader reads it.
	_, c, s = memPair(t)
	const took = 1000
	w = returns(func() (int, error) { return c.Write(make([]byte, 3*linkBound)) })
	if _, err := io.ReadFull(s, make([]byte, took)); err != nil {
		t.Fatal(err)
	}
	blocked(t, w, "a write the reader stopped reading")
	c.SetWriteDeadline(time.Now().Add(-time.Second))
	if r := released(t, w, "a write past its deadline"); r.n != took || !errors.Is(r.err, os.ErrDeadlineExceeded) {
		t.Fatalf("a write cut short by its deadline = %d, %v; want %d, os.ErrDeadlineExceeded", r.n, r.err, took)
	}
}

// TestMemnetCloseDrainsThenEOF: the bytes written before Close reach the
// peer, which then reads io.EOF; the peer's writes fail.
func TestMemnetCloseDrainsThenEOF(t *testing.T) {
	_, c, s := memPair(t)
	for _, m := range []string{"last ", "words"} {
		if _, err := c.Write([]byte(m)); err != nil {
			t.Fatal(err)
		}
	}
	c.Close()
	got, err := io.ReadAll(s)
	if string(got) != "last words" || err != nil {
		t.Fatalf("peer read %q, %v after Close; want the bytes written before it, then io.EOF", got, err)
	}
	if _, err := s.Read(make([]byte, 1)); !errors.Is(err, io.EOF) {
		t.Fatalf("read after the drain = %v, want io.EOF", err)
	}
	if _, err := s.Write([]byte("anyone?")); err == nil {
		t.Fatal("a write to a closed peer succeeded")
	}
}

// TestMemnetCutUnblocksReadAndWrite: Cut fails a blocked Read and a blocked
// Write at once, with an error that is not a deadline's.
func TestMemnetCutUnblocksReadAndWrite(t *testing.T) {
	nw, c, _ := memPair(t)
	r := returns(func() (int, error) { return c.Read(make([]byte, 1)) })
	w := returns(func() (int, error) { return c.Write(make([]byte, 2*linkBound)) })
	blocked(t, r, "a read with nothing to read")
	blocked(t, w, "a write to a peer that does not read")
	nw.Cut("192.168.0.1")
	for what, ch := range map[string]<-chan ioResult{"read": r, "write": w} {
		if res := released(t, ch, "a "+what+" on a cut connection"); res.err == nil || errors.Is(res.err, os.ErrDeadlineExceeded) {
			t.Errorf("%s on a cut connection = %d, %v; want it failed", what, res.n, res.err)
		}
	}
}

// TestMemnetBulkWriteIsLent: a write far past the buffer's bound is read
// straight out of the writer's slice — copied once, allocating nothing —
// and never grows the link's buffer past its bound.
func TestMemnetBulkWriteIsLent(t *testing.T) {
	_, c, s := memPair(t)
	src := make([]byte, 4<<20)
	for i := range src {
		src[i] = byte(i * 7)
	}
	dst := make([]byte, len(src))
	got := make(chan error)
	go func() {
		for {
			_, err := io.ReadFull(s, dst)
			got <- err
			if err != nil {
				return
			}
		}
	}()
	write := func() {
		if n, err := c.Write(src); n != len(src) || err != nil {
			t.Fatalf("bulk write = %d, %v", n, err)
		}
		if err := <-got; err != nil {
			t.Fatal(err)
		}
	}
	write() // warm: the goroutines' stacks
	if !bytes.Equal(dst, src) {
		t.Fatal("the reader got other bytes than were written")
	}
	if allocs := testing.AllocsPerRun(5, write); allocs != 0 && !raceEnabled {
		t.Errorf("a 4 MiB write allocates %.1f times, want 0", allocs)
	}
	if n := cap(c.(*memConn).wr.buf); n > linkBound {
		t.Errorf("the link's buffer grew to %d bytes, past its %d bound", n, linkBound)
	}
	c.Close()
	<-got
}

// TestMemnetParkedEndWakesAtItsDeadline: a reader parked on an empty link,
// and a writer parked while the reader has not taken its lent write, return
// os.ErrDeadlineExceeded when their deadline passes, not before.
func TestMemnetParkedEndWakesAtItsDeadline(t *testing.T) {
	const after = 50 * time.Millisecond
	_, c, _ := memPair(t)
	for _, end := range []struct {
		what string
		set  func(time.Time) error
		call func() (int, error)
	}{
		{"read", c.SetReadDeadline, func() (int, error) { return c.Read(make([]byte, 1)) }},
		{"lent write", c.SetWriteDeadline, func() (int, error) { return c.Write(make([]byte, 2*linkBound)) }},
	} {
		start := time.Now()
		end.set(start.Add(after))
		r := released(t, returns(end.call), "a parked "+end.what+" past its deadline")
		if took := time.Since(start); !errors.Is(r.err, os.ErrDeadlineExceeded) || took < after {
			t.Errorf("a parked %s = %d, %v after %v; want os.ErrDeadlineExceeded at its %v deadline", end.what, r.n, r.err, took, after)
		}
	}
}

// TestMemnetDeadlineMovedLaterDoesNotFailRead: a read deadline moved later
// before it fires leaves the parked read waiting for bytes, and so does a
// timer left from the earlier deadline that could not be stopped in time.
func TestMemnetDeadlineMovedLaterDoesNotFailRead(t *testing.T) {
	_, c, s := memPair(t)
	c.SetReadDeadline(time.Now().Add(20 * time.Millisecond))
	rdl := &c.(*memConn).rdl
	stale := rdl.state.Load() >> 1
	c.SetReadDeadline(time.Now().Add(time.Hour))
	buf := make([]byte, 5)
	r := returns(func() (int, error) { return io.ReadFull(c, buf) })
	time.Sleep(40 * time.Millisecond)
	rdl.pass(stale) // the earlier deadline's timer, had it already fired
	blocked(t, r, "a read whose deadline moved later")
	if _, err := s.Write([]byte("later")); err != nil {
		t.Fatal(err)
	}
	if res := released(t, r, "a read given bytes"); res.err != nil || string(buf) != "later" {
		t.Fatalf("read = %q, %v; want the bytes written", buf[:res.n], res.err)
	}
}

// TestMemnetClearedDeadlineLeavesNextReadAlone: a read deadline that passed
// while nobody was parked — set in the past, or run out on its timer — and
// was then cleared leaves the next read to wait for its bytes, though its
// passing left a token on the link for a reader that was not there.
func TestMemnetClearedDeadlineLeavesNextReadAlone(t *testing.T) {
	for _, d := range []time.Duration{-time.Second, 10 * time.Millisecond} {
		_, c, s := memPair(t)
		c.SetReadDeadline(time.Now().Add(d))
		time.Sleep(2 * max(d, 0))
		c.SetReadDeadline(time.Time{})
		buf := make([]byte, 3)
		r := returns(func() (int, error) { return io.ReadFull(c, buf) })
		blocked(t, r, "a read after its deadline was cleared")
		if _, err := s.Write([]byte("hi!")); err != nil {
			t.Fatal(err)
		}
		if res := released(t, r, "a read given bytes"); res.err != nil || string(buf) != "hi!" {
			t.Fatalf("deadline %v, cleared: read = %q, %v; want the bytes written", d, buf[:res.n], res.err)
		}
	}
}

// BenchmarkMemnetRoundTrip times one 64-byte ping-pong on one connection:
// a write that fits the link, the peer's read and reply, and the read of
// the reply — the link's own share of a sequential call.  It allocates
// nothing.
func BenchmarkMemnetRoundTrip(b *testing.B) {
	_, c, s := memPair(b)
	go func() {
		buf := make([]byte, 64)
		for {
			if _, err := io.ReadFull(s, buf); err != nil {
				return
			}
			if _, err := s.Write(buf); err != nil {
				return
			}
		}
	}()
	ping, pong := make([]byte, 64), make([]byte, 64)
	roundTrip := func() {
		if _, err := c.Write(ping); err != nil {
			b.Fatal(err)
		}
		if _, err := io.ReadFull(c, pong); err != nil {
			b.Fatal(err)
		}
	}
	roundTrip() // warm: the links' buffers
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		roundTrip()
	}
}
