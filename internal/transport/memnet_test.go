package transport

import (
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
