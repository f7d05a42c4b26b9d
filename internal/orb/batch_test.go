package orb

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"testing"
	"time"

	"itv/internal/transport"
	"itv/internal/wire"
)

// Tests for the write-path frame coalescer (framewriter.go, DESIGN.md §12):
// batching under a blocked write, error propagation out of a mid-batch
// failure on both the copy and vectored paths, the flush / connection-close
// race, a borrowed-segment frame queued among small ones, a caller timing
// out while its frame is still queued, and a canary that frames survive the
// encoder's return to the pool uncorrupted.

// testMsg is a minimal wire.Marshaler for building frames directly.
type testMsg string

func (m testMsg) MarshalWire(e *wire.Encoder) { e.PutString(string(m)) }

func mustFrame(t *testing.T, payload string) *wire.Encoder {
	t.Helper()
	fe, err := encodeFrame(testMsg(payload), 0)
	if err != nil {
		t.Fatal(err)
	}
	return fe
}

// scriptConn is a net.Conn whose Write is supplied by the test.  The
// frameWriter never reads, so Read just blocks until Close.
type scriptConn struct {
	onWrite func(p []byte) (int, error)
	done    chan struct{}
	once    sync.Once
}

func newScriptConn(onWrite func(p []byte) (int, error)) *scriptConn {
	return &scriptConn{onWrite: onWrite, done: make(chan struct{})}
}

func (c *scriptConn) Write(p []byte) (int, error) { return c.onWrite(p) }
func (c *scriptConn) Read(p []byte) (int, error) {
	<-c.done
	return 0, net.ErrClosed
}
func (c *scriptConn) Close() error {
	c.once.Do(func() { close(c.done) })
	return nil
}
func (c *scriptConn) LocalAddr() net.Addr                { return nil }
func (c *scriptConn) RemoteAddr() net.Addr               { return nil }
func (c *scriptConn) SetDeadline(t time.Time) error      { return nil }
func (c *scriptConn) SetReadDeadline(t time.Time) error  { return nil }
func (c *scriptConn) SetWriteDeadline(t time.Time) error { return nil }

// TestFrameWriterCoalesces pins the core batching behavior: frames sent
// while a write is in flight leave in ONE combined write when it returns,
// in arrival order.
func TestFrameWriterCoalesces(t *testing.T) {
	started := make(chan struct{})
	release := make(chan struct{})
	var mu sync.Mutex
	var writes [][]byte
	first := true
	conn := newScriptConn(func(p []byte) (int, error) {
		mu.Lock()
		writes = append(writes, append([]byte(nil), p...))
		blockThis := first
		first = false
		mu.Unlock()
		if blockThis {
			close(started)
			<-release
		}
		return len(p), nil
	})
	fw := &frameWriter{conn: conn}

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		fw.send(mustFrame(t, "frame-A")) // becomes the flusher, blocks in Write
	}()
	<-started

	// Queued behind the in-flight write; both sends return immediately.
	wantB := mustFrame(t, "frame-B")
	bBytes := append([]byte(nil), wantB.Bytes()...)
	fw.send(wantB)
	wantC := mustFrame(t, "frame-C")
	cBytes := append([]byte(nil), wantC.Bytes()...)
	fw.send(wantC)

	close(release)
	wg.Wait()

	mu.Lock()
	defer mu.Unlock()
	if len(writes) != 2 {
		t.Fatalf("got %d writes, want 2 (one blocked, one coalesced)", len(writes))
	}
	if want := append(bBytes, cBytes...); !bytes.Equal(writes[1], want) {
		t.Fatalf("coalesced write mismatch:\n got %x\nwant %x", writes[1], want)
	}
}

// TestFrameWriterErrorMidBatch covers a failed coalesced write on the copy
// path: the error reaches onErr exactly once per failed flush and send
// still returns (the queue drains; frames are not stranded).
func TestFrameWriterErrorMidBatch(t *testing.T) {
	started := make(chan struct{})
	release := make(chan struct{})
	bang := errors.New("wire cut")
	var mu sync.Mutex
	nwrites := 0
	conn := newScriptConn(func(p []byte) (int, error) {
		mu.Lock()
		nwrites++
		n := nwrites
		mu.Unlock()
		if n == 1 {
			close(started)
			<-release
			return len(p), nil
		}
		return 0, bang
	})
	var errMu sync.Mutex
	var got []error
	fw := &frameWriter{conn: conn, onErr: func(err error) {
		errMu.Lock()
		got = append(got, err)
		errMu.Unlock()
	}}

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		fw.send(mustFrame(t, "frame-A"))
	}()
	<-started
	fw.send(mustFrame(t, "frame-B"))
	fw.send(mustFrame(t, "frame-C"))
	close(release)
	wg.Wait()

	errMu.Lock()
	defer errMu.Unlock()
	if len(got) != 1 || !errors.Is(got[0], bang) {
		t.Fatalf("onErr calls = %v, want exactly one wrapping %v", got, bang)
	}
}

// TestFrameWriterVectoredPartialWrite drives a batch past flushCopyLimit so
// it takes the net.Buffers path, fails the write partway through the
// buffer list, and checks the error propagates and the retained buffer
// views are dropped (the encoders go back to the pool; a held view would
// alias recycled memory).
func TestFrameWriterVectoredPartialWrite(t *testing.T) {
	big := string(bytes.Repeat([]byte("x"), flushCopyLimit)) // one frame alone exceeds the copy limit
	started := make(chan struct{})
	release := make(chan struct{})
	bang := errors.New("wire cut")
	var mu sync.Mutex
	nwrites := 0
	conn := newScriptConn(func(p []byte) (int, error) {
		mu.Lock()
		nwrites++
		n := nwrites
		mu.Unlock()
		switch n {
		case 1:
			close(started)
			<-release
			return len(p), nil
		case 2:
			// First buffer of the vectored batch lands...
			return len(p), nil
		default:
			// ...the second hits the severed wire.
			return 0, bang
		}
	})
	var errMu sync.Mutex
	var got []error
	fw := &frameWriter{conn: conn, onErr: func(err error) {
		errMu.Lock()
		got = append(got, err)
		errMu.Unlock()
	}}

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		fw.send(mustFrame(t, "frame-A"))
	}()
	<-started
	fw.send(mustFrame(t, big))
	fw.send(mustFrame(t, big))
	close(release)
	wg.Wait()

	errMu.Lock()
	if len(got) != 1 || !errors.Is(got[0], bang) {
		t.Fatalf("onErr calls = %v, want exactly one wrapping %v", got, bang)
	}
	errMu.Unlock()

	// Whitebox: the vectored scratch must not retain frame-buffer views
	// past the flush — those buffers belong to the pool again.
	fw.mu.Lock()
	held := fw.vecs[:cap(fw.vecs)]
	for i, v := range held {
		if v != nil {
			t.Fatalf("vecs[%d] still holds a frame-buffer view after flush", i)
		}
	}
	fw.mu.Unlock()
}

// TestFrameWriterSegmentQueuedBehindFlush: a borrowed-segment frame queued
// behind an in-flight write, between small frames, leaves in arrival order
// and intact; afterwards neither the recycled queue nor the vectored
// scratch still references the segment (the loan ends with the flush).
func TestFrameWriterSegmentQueuedBehindFlush(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	started := make(chan struct{})
	release := make(chan struct{})
	var mu sync.Mutex
	var writes [][]byte
	conn := newScriptConn(func(p []byte) (int, error) {
		mu.Lock()
		writes = append(writes, append([]byte(nil), p...))
		first := len(writes) == 1
		mu.Unlock()
		if first {
			close(started)
			<-release
		}
		return len(p), nil
	})
	fw := &frameWriter{conn: conn}

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		fw.send(mustFrame(t, "frame-A")) // the flusher; blocks in Write
	}()
	<-started

	s := getScratch()
	defer putScratch(s)
	seg := randBytes(rng, 3<<20)
	split, contig := replyVia(s, rng, []byte("head"), [][]byte{seg}, []byte("tail"))
	want, err := encodeFrame(&contig, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer wire.PutEncoder(want)
	qf, err := encodeResponse(&split)
	if err != nil {
		t.Fatal(err)
	}
	b, d := mustFrame(t, "frame-B"), mustFrame(t, "frame-D")
	expect := append([]byte(nil), b.Bytes()...)
	expect = append(expect, want.Bytes()...)
	expect = append(expect, d.Bytes()...)
	fw.send(b)
	fw.sendFrame(qf)
	fw.send(d)

	close(release)
	wg.Wait()

	mu.Lock()
	got := bytes.Join(writes[1:], nil)
	mu.Unlock()
	if !bytes.Equal(got, expect) {
		t.Fatalf("queued frames arrived reordered or damaged (%d bytes, want %d)", len(got), len(expect))
	}
	fw.mu.Lock()
	defer fw.mu.Unlock()
	for i, q := range fw.spare[:cap(fw.spare)] {
		if q.seg != nil || q.fe != nil {
			t.Fatalf("recycled queue slot %d still holds a frame after its flush", i)
		}
	}
	for i, v := range fw.vecs[:cap(fw.vecs)] {
		if v != nil {
			t.Fatalf("vecs[%d] still holds a buffer view after flush", i)
		}
	}
}

// TestFrameWriterCloseRace hammers send against a concurrent connection
// close: every send must return (no deadlock, no panic) whether its write
// won or lost the race.  Run with -race this also checks the flusher
// hand-off is clean.
func TestFrameWriterCloseRace(t *testing.T) {
	for iter := 0; iter < 100; iter++ {
		conn := newScriptConn(nil)
		var closed sync.Map
		conn.onWrite = func(p []byte) (int, error) {
			if _, dead := closed.Load("x"); dead {
				return 0, net.ErrClosed
			}
			return len(p), nil
		}
		fw := &frameWriter{conn: conn, onErr: func(error) { conn.Close() }}

		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; i < 8; i++ {
					fw.send(mustFrame(t, fmt.Sprintf("g%d-f%d", g, i)))
				}
			}(g)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			closed.Store("x", true)
			conn.Close()
		}()
		wg.Wait()
	}
}

// TestFrameWriterPoolCanary mirrors the PR3 pooling canaries for the write
// path: many goroutines send distinct frames through one frameWriter while
// flushes recycle the encoders; every frame must appear in the byte stream
// exactly once and uncorrupted.  A frameWriter that released an encoder
// before (or while) its bytes hit the wire fails this under load.
func TestFrameWriterPoolCanary(t *testing.T) {
	var mu sync.Mutex
	var stream bytes.Buffer
	conn := newScriptConn(func(p []byte) (int, error) {
		mu.Lock()
		stream.Write(p)
		mu.Unlock()
		return len(p), nil
	})
	fw := &frameWriter{conn: conn}

	const goroutines, frames = 8, 200
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < frames; i++ {
				fw.send(mustFrame(t, fmt.Sprintf("goroutine-%d-frame-%d", g, i)))
			}
		}(g)
	}
	wg.Wait()

	seen := make(map[string]int)
	fr := wire.NewFrameReader(bytes.NewReader(stream.Bytes()))
	var dec wire.Decoder
	var frame []byte
	for n := 0; n < goroutines*frames; n++ {
		var err error
		if frame, err = fr.Next(frame); err != nil {
			t.Fatalf("corrupt frame stream: %v", err)
		}
		dec.Reset(frame)
		seen[dec.String()]++
		if dec.Err() != nil {
			t.Fatalf("corrupt frame payload: %v", dec.Err())
		}
	}
	if len(seen) != goroutines*frames {
		t.Fatalf("distinct frames on wire = %d, want %d", len(seen), goroutines*frames)
	}
	for payload, n := range seen {
		if n != 1 {
			t.Fatalf("frame %q appeared %d times, want exactly once", payload, n)
		}
	}
}

// TestInvokeCtxCancelWhileQueued covers the caller's view of a queued
// frame: A's write is stalled — its peer reads nothing for 100 ms — B's
// frame queues behind it, and B's context deadline passes while the frame
// is still waiting for the flusher.  B must get the deadline error at its
// deadline; once the peer reads, A is served, B's late response is
// discarded by the unregistered-waiter path, not delivered or leaked, and
// the next call proceeds normally (the cancelWhileQueued scenario).
func TestInvokeCtxCancelWhileQueued(t *testing.T) { explorePins(t) }

var cancelWhileQueued = scenario{"cancel while queued", func(x *explorer) error {
	const timeout = 50 * time.Millisecond
	nw := transport.NewNetwork()
	peer, stop := peerOn(nw.Host("192.168.39.4"), func(c net.Conn) {
		x.sleep(2 * timeout)
		var dec wire.Decoder
		for frame, err := wire.ReadFrameInto(c, nil); err == nil; frame, err = wire.ReadFrameInto(c, frame) {
			var req request
			dec.Reset(frame)
			req.UnmarshalWire(&dec)
			e := new(wire.Encoder)
			if wire.AppendFrame(e, &response{ReqID: req.ReqID, Status: statusOK, Body: req.Body}) == nil {
				c.Write(e.Bytes())
			}
		}
	})
	defer stop()
	client, err := NewEndpoint(nw.Host("10.39.0.8"))
	if err != nil {
		return err
	}
	defer client.Close()
	aDone := make(chan error, 1)
	go func() {
		x.label("A")
		_, err := timed(x, client, peer, "echo", string(make([]byte, stallPayload)), time.Second)
		aDone <- err
	}()
	for !leadsFlush(client, peer.Addr) {
		x.sleep(time.Millisecond) // until A is the flusher, stalled in its write
	}
	var errs []error
	if took, err := timed(x, client, peer, "echo", "queued", timeout); !errors.Is(err, context.DeadlineExceeded) || took > timeout+slack {
		errs = append(errs, fmt.Errorf("queued call returned after %s with %v; want context.DeadlineExceeded at its deadline", took, err))
	}
	if err := <-aDone; err != nil {
		errs = append(errs, fmt.Errorf("stalled call failed once its peer read: %v", err))
	}
	var out string
	if err := client.Invoke(peer, "echo", func(e *wire.Encoder) { e.PutString("after") },
		func(d *wire.Decoder) error { out = d.String(); return nil }); err != nil || out != "after" {
		errs = append(errs, fmt.Errorf("post-race call = %q, %v; want %q, nil", out, err, "after"))
	}
	return errors.Join(errs...)
}}
