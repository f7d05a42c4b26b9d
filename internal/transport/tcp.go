package transport

import (
	"fmt"
	"net"
	"time"
)

// TCP returns a Transport backed by the operating system's loopback TCP
// stack.  All hosts share the loopback address, so IP-derived selectors are
// not meaningful over this transport; it exists to run real multi-process
// deployments (cmd/itv-server).  Traffic feeds the same per-host counters
// as memnet (under the "127.0.0.1" node), so benchmarks report identical
// statistics on both transports.
func TCP() Transport { return tcpTransport{} }

type tcpTransport struct{}

func (tcpTransport) Host() string { return "127.0.0.1" }

// Stats reports accumulated transport counters for the loopback host.
func (tcpTransport) Stats() Stats { return statsFor("127.0.0.1") }

func (tcpTransport) Listen() (net.Listener, string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", err
	}
	cl := &countingListener{Listener: ln, ctr: countersFor("127.0.0.1")}
	return cl, ln.Addr().String(), nil
}

func (tcpTransport) ListenOn(port int) (net.Listener, string, error) {
	ln, err := net.Listen("tcp", fmt.Sprintf("127.0.0.1:%d", port))
	if err != nil {
		return nil, "", err
	}
	cl := &countingListener{Listener: ln, ctr: countersFor("127.0.0.1")}
	return cl, ln.Addr().String(), nil
}

func (tcpTransport) Dial(addr string) (net.Conn, error) {
	ctr := countersFor("127.0.0.1")
	c, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		ctr.dialErrors.Inc()
		return nil, err
	}
	ctr.connsDialed.Inc()
	return &countingConn{Conn: c, ctr: ctr}, nil
}

type countingListener struct {
	net.Listener
	ctr *netCounters
}

func (l *countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	l.ctr.connsAccepted.Inc()
	return &countingConn{Conn: c, ctr: l.ctr}, nil
}

type countingConn struct {
	net.Conn
	ctr *netCounters
}

func (c *countingConn) Write(b []byte) (int, error) {
	n, err := c.Conn.Write(b)
	if n > 0 {
		c.ctr.bytesSent.Add(int64(n))
	}
	c.ctr.framesSent.Inc()
	return n, err
}

// WriteBuffers writes the whole list as one frame write.  The embedded
// conn hides *net.TCPConn from net.Buffers.WriteTo, which would then fall
// back to one Write (one syscall, one counted frame) per buffer; forwarding
// to the inner conn reaches writev.
func (c *countingConn) WriteBuffers(bufs *net.Buffers) (int64, error) {
	n, err := bufs.WriteTo(c.Conn)
	if n > 0 {
		c.ctr.bytesSent.Add(n)
	}
	c.ctr.framesSent.Inc()
	return n, err
}

func (c *countingConn) Read(b []byte) (int, error) {
	n, err := c.Conn.Read(b)
	if n > 0 {
		c.ctr.bytesRecv.Add(int64(n))
	}
	c.ctr.reads.Inc()
	return n, err
}
