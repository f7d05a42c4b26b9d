package transport

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
)

// Errors returned by the in-memory network.  They satisfy net.Error-style
// checks only loosely; the ORB treats any dial/IO failure as unreachable.
var (
	ErrRefused     = errors.New("memnet: connection refused")
	ErrUnreachable = errors.New("memnet: host unreachable")
	ErrClosed      = errors.New("memnet: use of closed network")
)

// Network is an in-memory internetwork of synthetic hosts.  It supports
// injected host failures (Cut/Restore), which sever existing connections
// and refuse new ones — the observable behaviour of a crashed server or
// settop from its peers' point of view.
type Network struct {
	mu        sync.Mutex
	listeners map[string]*memListener // addr -> listener
	hosts     map[string]*hostState
	bytesSent atomic.Int64
	connsMade atomic.Int64
}

type hostState struct {
	nextPort int
	cut      bool
	conns    map[*memConn]struct{}
}

// NewNetwork returns an empty in-memory network.
func NewNetwork() *Network {
	return &Network{
		listeners: make(map[string]*memListener),
		hosts:     make(map[string]*hostState),
	}
}

// BytesSent reports total payload bytes written across all connections.
func (n *Network) BytesSent() int64 { return n.bytesSent.Load() }

// ConnsMade reports total successful dials.
func (n *Network) ConnsMade() int64 { return n.connsMade.Load() }

func (n *Network) host(ip string) *hostState {
	h, ok := n.hosts[ip]
	if !ok {
		h = &hostState{nextPort: 1024, conns: make(map[*memConn]struct{})}
		n.hosts[ip] = h
	}
	return h
}

// Host returns a Transport bound to the given synthetic IP, creating the
// host if needed.
func (n *Network) Host(ip string) Transport { return &memHost{net: n, ip: ip} }

// Cut fails the host: all its connections are severed and dials to or from
// it are refused until Restore.  Listeners stay registered, mirroring a
// crashed machine whose services restart with the same address when the
// machine comes back.
func (n *Network) Cut(ip string) {
	n.mu.Lock()
	h := n.host(ip)
	h.cut = true
	conns := make([]*memConn, 0, len(h.conns))
	for c := range h.conns {
		conns = append(conns, c)
	}
	n.mu.Unlock()
	for _, c := range conns {
		c.Close()
	}
}

// Restore brings a cut host back.
func (n *Network) Restore(ip string) {
	n.mu.Lock()
	n.host(ip).cut = false
	n.mu.Unlock()
}

type memHost struct {
	net *Network
	ip  string
}

func (h *memHost) Host() string { return h.ip }

// Stats reports this host's accumulated transport counters.
func (h *memHost) Stats() Stats { return statsFor(h.ip) }

func (h *memHost) Listen() (net.Listener, string, error) {
	h.net.mu.Lock()
	defer h.net.mu.Unlock()
	hs := h.net.host(h.ip)
	port := hs.nextPort
	hs.nextPort++
	return h.listenLocked(port)
}

func (h *memHost) ListenOn(port int) (net.Listener, string, error) {
	h.net.mu.Lock()
	defer h.net.mu.Unlock()
	return h.listenLocked(port)
}

// listenLocked registers a listener; the network mutex must be held.
func (h *memHost) listenLocked(port int) (net.Listener, string, error) {
	addr := fmt.Sprintf("%s:%d", h.ip, port)
	if _, busy := h.net.listeners[addr]; busy {
		return nil, "", fmt.Errorf("memnet: address %s in use", addr)
	}
	ln := &memListener{
		net:    h.net,
		addr:   addr,
		accept: make(chan *memConn, 64),
		done:   make(chan struct{}),
	}
	h.net.listeners[addr] = ln
	return ln, addr, nil
}

func (h *memHost) Dial(addr string) (net.Conn, error) {
	ctr := countersFor(h.ip)
	h.net.mu.Lock()
	src := h.net.host(h.ip)
	if src.cut {
		h.net.mu.Unlock()
		ctr.dialErrors.Inc()
		return nil, ErrUnreachable
	}
	ln, ok := h.net.listeners[addr]
	if !ok {
		h.net.mu.Unlock()
		ctr.dialErrors.Inc()
		return nil, ErrRefused
	}
	dstIP, _, err := net.SplitHostPort(addr)
	if err != nil {
		h.net.mu.Unlock()
		ctr.dialErrors.Inc()
		return nil, err
	}
	dst := h.net.host(dstIP)
	if dst.cut {
		h.net.mu.Unlock()
		ctr.dialErrors.Inc()
		return nil, ErrUnreachable
	}
	// Give the client side a synthetic ephemeral port for caller-IP
	// visibility on the server side.
	srcPort := src.nextPort
	src.nextPort++
	clientAddr := fmt.Sprintf("%s:%d", h.ip, srcPort)

	dstCtr := countersFor(dstIP)
	p1, p2 := net.Pipe()
	client := &memConn{Conn: p1, net: h.net, local: memAddr(clientAddr), remote: memAddr(addr), hostIP: h.ip, ctr: ctr}
	server := &memConn{Conn: p2, net: h.net, local: memAddr(addr), remote: memAddr(clientAddr), hostIP: dstIP, ctr: dstCtr}
	client.peer, server.peer = server, client
	src.conns[client] = struct{}{}
	dst.conns[server] = struct{}{}
	h.net.mu.Unlock()

	refused := false
	select {
	case ln.accept <- server:
		// The buffered send can land after Close has drained the queue,
		// leaving a server side nobody will ever read or close.  If done
		// is still open here the send preceded Close and its drain will
		// find the conn; if not, sever it ourselves (Close is idempotent).
		select {
		case <-ln.done:
			refused = true
		default:
		}
	case <-ln.done:
		refused = true
	}
	if refused {
		client.Close()
		ctr.dialErrors.Inc()
		return nil, ErrRefused
	}
	h.net.connsMade.Add(1)
	ctr.connsDialed.Inc()
	dstCtr.connsAccepted.Inc()
	return client, nil
}

type memListener struct {
	net    *Network
	addr   string
	accept chan *memConn
	done   chan struct{}
	once   sync.Once
}

func (l *memListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.accept:
		return c, nil
	case <-l.done:
		return nil, ErrClosed
	}
}

func (l *memListener) Close() error {
	l.once.Do(func() {
		close(l.done)
		l.net.mu.Lock()
		delete(l.net.listeners, l.addr)
		l.net.mu.Unlock()
		// Sever connections queued but never accepted.
		for {
			select {
			case c := <-l.accept:
				c.Close()
			default:
				return
			}
		}
	})
	return nil
}

func (l *memListener) Addr() net.Addr { return memAddr(l.addr) }

type memAddr string

func (a memAddr) Network() string { return "mem" }
func (a memAddr) String() string  { return string(a) }

type memConn struct {
	net.Conn
	net    *Network
	local  memAddr
	remote memAddr
	hostIP string
	ctr    *netCounters
	peer   *memConn
	closed sync.Once
}

func (c *memConn) LocalAddr() net.Addr  { return c.local }
func (c *memConn) RemoteAddr() net.Addr { return c.remote }

func (c *memConn) Write(b []byte) (int, error) {
	n, err := c.Conn.Write(b)
	c.net.bytesSent.Add(int64(n))
	c.ctr.bytesSent.Add(int64(n))
	c.ctr.framesSent.Inc()
	return n, err
}

// WriteBuffers writes the whole list as one frame write, counted like
// countingConn's so both transports report the same frames for the same
// traffic.  The pipe underneath has no vectored write; it takes the
// buffers one rendezvous each.
func (c *memConn) WriteBuffers(bufs *net.Buffers) (int64, error) {
	n, err := bufs.WriteTo(c.Conn)
	c.net.bytesSent.Add(n)
	c.ctr.bytesSent.Add(n)
	c.ctr.framesSent.Inc()
	return n, err
}

func (c *memConn) Read(b []byte) (int, error) {
	n, err := c.Conn.Read(b)
	if n > 0 {
		c.ctr.bytesRecv.Add(int64(n))
	}
	c.ctr.reads.Inc()
	return n, err
}

// Close severs the connection on both ends.  Closing ours already fails the
// peer's reads and writes; the peer is closed too, before Close returns, so
// that its host bookkeeping is cleaned up and nothing of the connection
// outlives the call.
func (c *memConn) Close() error {
	err := c.closeEnd()
	if c.peer != nil {
		c.peer.closeEnd()
	}
	return err
}

// closeEnd closes this end alone.
func (c *memConn) closeEnd() error {
	var err error
	c.closed.Do(func() {
		c.net.mu.Lock()
		if h, ok := c.net.hosts[c.hostIP]; ok {
			delete(h.conns, c)
		}
		c.net.mu.Unlock()
		err = c.Conn.Close()
	})
	return err
}
