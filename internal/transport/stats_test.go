package transport

import (
	"bytes"
	"io"
	"net"
	"runtime"
	"testing"

	"itv/internal/wire"
)

// rawMsg is a frame payload sent as is.
type rawMsg []byte

func (m rawMsg) MarshalWire(e *wire.Encoder) { e.PutRaw(m) }

// sendFrame writes payload as one frame in one Write, the way the ORB's
// write path does (wire.AppendFrame into one buffer).
func sendFrame(c io.Writer, payload []byte) error {
	e := new(wire.Encoder)
	if err := wire.AppendFrame(e, rawMsg(payload)); err != nil {
		return err
	}
	_, err := c.Write(e.Bytes())
	return err
}

// TestMemnetStats checks the per-host counters: one frame per sendFrame
// call, one read per frame taken through a wire.FrameReader, byte totals
// matching header+payload, and dial/accept bookkeeping attributed to the
// right side.
func TestMemnetHostStats(t *testing.T) {
	n := NewNetwork()
	srv := n.Host("192.168.77.1")
	cli := n.Host("192.168.77.2")

	srvT, ok := srv.(StatsSource)
	if !ok {
		t.Fatal("memnet host does not implement StatsSource")
	}
	cliT := cli.(StatsSource)
	srv0, cli0 := srvT.Stats(), cliT.Stats()

	ln, addr, err := srv.Listen()
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	done := make(chan struct{})
	go func() {
		defer close(done)
		c, err := ln.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		p, err := wire.NewFrameReader(c).Next(nil)
		if err != nil {
			return
		}
		sendFrame(c, p)
	}()

	c, err := cli.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte("hello itv")
	if err := sendFrame(c, payload); err != nil {
		t.Fatal(err)
	}
	if _, err := wire.NewFrameReader(c).Next(nil); err != nil {
		t.Fatal(err)
	}
	c.Close()
	<-done

	cs := cliT.Stats().Sub(cli0)
	ss := srvT.Stats().Sub(srv0)
	frameBytes := int64(4 + len(payload))
	if cs.FramesSent != 1 || cs.BytesSent != frameBytes {
		t.Errorf("client sent frames=%d bytes=%d, want 1/%d", cs.FramesSent, cs.BytesSent, frameBytes)
	}
	if ss.FramesSent != 1 || ss.BytesSent != frameBytes {
		t.Errorf("server sent frames=%d bytes=%d, want 1/%d", ss.FramesSent, ss.BytesSent, frameBytes)
	}
	if cs.BytesRecv != frameBytes || ss.BytesRecv != frameBytes {
		t.Errorf("bytes recv client=%d server=%d, want %d", cs.BytesRecv, ss.BytesRecv, frameBytes)
	}
	if cs.Reads != 1 || ss.Reads != 1 {
		t.Errorf("reads client=%d server=%d, want one per frame", cs.Reads, ss.Reads)
	}
	if cs.ConnsDialed != 1 || cs.ConnsAccepted != 0 {
		t.Errorf("client dialed=%d accepted=%d, want 1/0", cs.ConnsDialed, cs.ConnsAccepted)
	}
	if ss.ConnsDialed != 0 || ss.ConnsAccepted != 1 {
		t.Errorf("server dialed=%d accepted=%d, want 0/1", ss.ConnsDialed, ss.ConnsAccepted)
	}

	// A dial to a dead address counts as a dial error, not a dial.
	if _, err := cli.Dial("192.168.77.9:1"); err == nil {
		t.Fatal("dial to unbound address succeeded")
	}
	if d := cliT.Stats().Sub(cli0); d.DialErrors != 1 || d.ConnsDialed != 1 {
		t.Errorf("after failed dial: dialErrors=%d connsDialed=%d, want 1/1", d.DialErrors, d.ConnsDialed)
	}
}

// TestTCPStats runs the same exchange over loopback TCP and checks the
// unified counters move the same way (byte counts include TCP's identical
// framing, so sent totals match memnet exactly).
func TestTCPStats(t *testing.T) {
	tr := TCP()
	src, ok := tr.(StatsSource)
	if !ok {
		t.Fatal("tcp transport does not implement StatsSource")
	}
	before := src.Stats()

	ln, addr, err := tr.Listen()
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	done := make(chan struct{})
	go func() {
		defer close(done)
		c, err := ln.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		p, err := wire.NewFrameReader(c).Next(nil)
		if err != nil {
			return
		}
		sendFrame(c, p)
	}()

	c, err := tr.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte("hello itv")
	if err := sendFrame(c, payload); err != nil {
		t.Fatal(err)
	}
	if _, err := wire.NewFrameReader(c).Next(nil); err != nil {
		t.Fatal(err)
	}
	c.Close()
	<-done

	d := src.Stats().Sub(before)
	frameBytes := int64(4 + len(payload))
	// Loopback client and server share the "127.0.0.1" node, so totals are
	// both directions combined.
	if d.FramesSent != 2 || d.BytesSent != 2*frameBytes {
		t.Errorf("frames=%d bytes=%d, want 2/%d", d.FramesSent, d.BytesSent, 2*frameBytes)
	}
	if d.BytesRecv != 2*frameBytes {
		t.Errorf("bytesRecv=%d, want %d", d.BytesRecv, 2*frameBytes)
	}
	if d.Reads != 2 {
		t.Errorf("reads=%d, want one per frame", d.Reads)
	}
	if d.ConnsDialed != 1 || d.ConnsAccepted != 1 {
		t.Errorf("dialed=%d accepted=%d, want 1/1", d.ConnsDialed, d.ConnsAccepted)
	}
}

// TestWriteBuffersCountsOneFrame: on both transports a vectored write of
// several buffers is one frame write with the summed byte count, and the
// peer reads the buffers back to back — the same accounting a single Write
// of the concatenation gets.  A frame that fits memnet's link buffer goes
// in whole under one lock, so a peer waiting in Read takes it in one read;
// one that does not (1 MiB) is lent to the reader a buffer at a time.
func TestWriteBuffersCountsOneFrame(t *testing.T) {
	for _, big := range []int{1 << 10, 1 << 20} {
		parts := [][]byte{[]byte("head|"), bytes.Repeat([]byte{0xA5}, big), []byte("|tail")}
		want := bytes.Join(parts, nil)
		for name, tr := range map[string]Transport{"memnet": NewNetwork().Host("192.168.78.1"), "tcp": TCP()} {
			ln, addr, err := tr.Listen()
			if err != nil {
				t.Fatal(err)
			}
			first, got := make(chan int, 1), make(chan []byte, 1)
			go func() {
				c, err := ln.Accept()
				if err != nil {
					first <- 0
					got <- nil
					return
				}
				defer c.Close()
				b := make([]byte, len(want))
				n, _ := c.Read(b)
				first <- n
				rest, _ := io.ReadAll(c)
				got <- append(b[:n], rest...)
			}()
			c, err := tr.Dial(addr)
			if err != nil {
				t.Fatal(err)
			}
			bw, ok := c.(interface {
				WriteBuffers(*net.Buffers) (int64, error)
			})
			if !ok {
				t.Fatalf("%s: connection offers no WriteBuffers", name)
			}
			if mc, ok := c.(*memConn); ok {
				// Write only once the peer waits in its Read.
				for parked := false; !parked; runtime.Gosched() {
					mc.wr.mu.Lock()
					parked = mc.wr.readerParked
					mc.wr.mu.Unlock()
				}
			}
			before := tr.(StatsSource).Stats()
			bufs := net.Buffers{parts[0], parts[1], parts[2]}
			n, err := bw.WriteBuffers(&bufs)
			d := tr.(StatsSource).Stats().Sub(before)
			c.Close()
			if err != nil || n != int64(len(want)) {
				t.Fatalf("%s: WriteBuffers = %d, %v; want %d", name, n, err, len(want))
			}
			if d.FramesSent != 1 || d.BytesSent != int64(len(want)) {
				t.Errorf("%s: frames=%d bytes=%d, want 1/%d", name, d.FramesSent, d.BytesSent, len(want))
			}
			if r := <-first; name == "memnet" && big < linkBound && r != len(want) {
				t.Errorf("%s: the peer's first read took %d bytes of a %d-byte frame that fits the link, want all of them", name, r, len(want))
			}
			if b := <-got; !bytes.Equal(b, want) {
				t.Errorf("%s: peer read %d bytes, want the %d written", name, len(b), len(want))
			}
			ln.Close() // only now: closing it first could drop the connection before Accept
		}
	}
}
