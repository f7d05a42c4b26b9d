package transport

import (
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
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

// Cut fails the host: all its connections are severed — blocked reads and
// writes on both ends fail at once and unread bytes are lost, as when a
// machine crashes — and dials to or from it are refused until Restore.  Listeners stay registered, mirroring a
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
		c.sever()
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
	up, down := newLink(), newLink()
	client := newMemConn(h.net, memAddr(clientAddr), memAddr(addr), h.ip, ctr, down, up)
	server := newMemConn(h.net, memAddr(addr), memAddr(clientAddr), dstIP, dstCtr, up, down)
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

// linkBound is how many unread bytes one direction of a connection holds,
// like a socket's buffer: a write that fits is copied in and returns, one
// that does not waits for the reader (link.write).
const linkBound = 64 << 10

// A woken reader yields once before it reads while its link is busy, and
// otherwise on every probeEvery-th wake, to find out whether it has become
// busy.  A link is busy for streakLen wakes after a read found bytes it
// had not waited for, or a yield found more bytes than it was woken for.
const (
	probeEvery = 16
	streakLen  = 8
)

// errReset is what both ends of a connection get once Cut has severed it.
var errReset = errors.New("memnet: connection reset")

// A link is one direction of a connection: what one end writes waits here
// until the other end reads it.  Writes never wait for the reader while
// their bytes fit in the buffer, so a call's request and reply each cost a
// copy in and a copy out rather than a writer↔reader rendezvous, and a
// sequential round trip is two goroutine runs, not four.  A write too big
// for what is free is lent instead: the reader copies straight out of the
// writer's slice, and the write returns once the reader has taken all of
// it — bulk bytes are copied once, and a peer that stops reading stalls its
// writer, as over TCP once the socket buffers fill.
//
// A rendezvous batches for free: while a write waits for its reader, the
// writers behind it queue up and leave together.  A buffer has to ask for
// that.  The goroutine a write wakes runs next, so a woken reader on a busy
// link yields once first, and wakes to the batch rather than to its first
// frame; and a writer that finds its last write still unread yields once
// after appending, so that those queued behind it join its next write.  A
// sequential call finds its link idle and pays for neither, bar a probe.
type link struct {
	rdMu, wrMu sync.Mutex // one Read and one Write at a time, so writes never interleave

	mu   sync.Mutex
	buf  []byte // unread bytes are buf[r:]; grown on demand, never past linkBound
	r    int
	lent []byte // unread rest of a write that did not fit, read in place
	took int    // bytes of the current lent write read so far
	eof  bool   // the writing end closed: the reader drains what is here, then io.EOF
	shut bool   // the reading end closed: writes fail, unread bytes are dropped
	cut  bool   // severed (Network.Cut): reads and writes fail at once

	// A reader or writer that has to wait parks on its channel; whoever
	// changes what it waits for sends it one token.
	readerParked, writerParked bool
	readable, writable         chan struct{}

	wakes  uint32 // times the reader was woken, for probeEvery
	streak int    // wakes left before a busy link counts as idle again
}

func newLink() *link {
	return &link{readable: make(chan struct{}, 1), writable: make(chan struct{}, 1)}
}

// wake hands a parked goroutine its token; ch is cap 1, so a token already
// pending covers this one.
func wake(parked bool, ch chan struct{}) {
	if parked {
		select {
		case ch <- struct{}{}:
		default:
		}
	}
}

// read copies unread bytes into b: the buffer's first, then the lent
// write's.  It waits only when there are none, until a writer brings some,
// the writing end closes (io.EOF) or dl passes.
func (l *link) read(b []byte, dl *deadline) (int, error) {
	l.rdMu.Lock()
	defer l.rdMu.Unlock()
	waited := false
	l.mu.Lock()
	for {
		switch {
		case l.cut:
			l.mu.Unlock()
			return 0, errReset
		case l.shut:
			l.mu.Unlock()
			return 0, io.ErrClosedPipe
		case dl.passed():
			l.mu.Unlock()
			return 0, os.ErrDeadlineExceeded
		}
		if l.r < len(l.buf) || l.lent != nil || len(b) == 0 {
			n := copy(b, l.buf[l.r:])
			if l.r += n; l.r == len(l.buf) {
				l.buf, l.r = l.buf[:0], 0
			}
			if l.lent != nil && n < len(b) {
				m := copy(b[n:], l.lent[l.took:])
				if l.took += m; l.took == len(l.lent) {
					l.lent = nil
					wake(l.writerParked, l.writable)
				}
				n += m
			}
			if !waited && n > 0 {
				l.streak = streakLen
			}
			l.mu.Unlock()
			return n, nil
		}
		if l.eof {
			l.mu.Unlock()
			return 0, io.EOF
		}
		l.readerParked = true
		l.mu.Unlock()
		<-l.readable
		l.mu.Lock()
		l.readerParked = false
		if !waited {
			l.wakes++
			if l.streak > 0 || l.wakes%probeEvery == 0 {
				before := len(l.buf) - l.r
				l.mu.Unlock()
				runtime.Gosched()
				l.mu.Lock()
				if len(l.buf)-l.r > before {
					l.streak = streakLen
				} else if l.streak > 0 {
					l.streak--
				}
			}
		}
		waited = true
	}
}

// write appends bufs to the link as one write: under one lock when they
// fit in what is free, each in turn otherwise.  It returns the bytes the
// link took.
func (l *link) write(bufs [][]byte, dl *deadline) (n int64, err error) {
	total := 0
	for _, b := range bufs {
		total += len(b)
	}
	l.wrMu.Lock()
	l.mu.Lock()
	unread := len(l.buf) - l.r
	crowded := false
	switch err = l.writeErr(dl); {
	case err != nil:
	case unread+total <= linkBound:
		l.push(bufs, total)
		n, crowded = int64(total), unread > 0
	default:
		for _, b := range bufs {
			m, werr := l.writeOne(b, dl)
			if n += int64(m); werr != nil {
				err = werr
				break
			}
		}
	}
	l.mu.Unlock()
	l.wrMu.Unlock()
	if crowded {
		// The reader has not yet taken our last write: let the writers
		// queued behind us run, so that they join our next one.
		runtime.Gosched()
	}
	return n, err
}

// writeOne writes b under l.mu: it appends b if it fits, and otherwise
// lends it to the reader and waits until the reader has taken all of it.
func (l *link) writeOne(b []byte, dl *deadline) (int, error) {
	if err := l.writeErr(dl); err != nil {
		return 0, err
	}
	if len(l.buf)-l.r+len(b) <= linkBound {
		l.push([][]byte{b}, len(b))
		return len(b), nil
	}
	l.lent, l.took = b, 0
	wake(l.readerParked, l.readable)
	for l.lent != nil {
		if err := l.writeErr(dl); err != nil {
			n := l.took
			l.lent = nil
			return n, err
		}
		l.writerParked = true
		l.mu.Unlock()
		<-l.writable
		l.mu.Lock()
		l.writerParked = false
	}
	return len(b), nil
}

// writeErr is why a write cannot go on, if it cannot.
func (l *link) writeErr(dl *deadline) error {
	switch {
	case l.cut:
		return errReset
	case l.eof, l.shut:
		return io.ErrClosedPipe
	case dl.passed():
		return os.ErrDeadlineExceeded
	}
	return nil
}

// push appends total bytes, the concatenation of bufs, to the buffer and
// wakes the reader, under l.mu.  The buffer grows only as far as the unread
// bytes need, and never past linkBound.
func (l *link) push(bufs [][]byte, total int) {
	if total == 0 {
		return
	}
	if len(l.buf)+total > cap(l.buf) {
		unread := len(l.buf) - l.r
		if unread+total <= cap(l.buf) {
			copy(l.buf, l.buf[l.r:])
		} else {
			grown := make([]byte, unread, min(linkBound, max(unread+total, 2*cap(l.buf), 512)))
			copy(grown, l.buf[l.r:])
			l.buf = grown
		}
		l.buf, l.r = l.buf[:unread], 0
	}
	for _, b := range bufs {
		l.buf = append(l.buf, b...)
	}
	wake(l.readerParked, l.readable)
}

// close marks one end of the link closed and wakes whoever waits on it:
// the writing end (eof) lets the reader drain and then see io.EOF; the
// reading end (shut) drops what is unread and fails the writer.
func (l *link) close(writing bool) {
	l.mu.Lock()
	if writing {
		l.eof = true
	} else {
		l.shut = true
		l.buf, l.r = nil, 0
	}
	wake(l.readerParked, l.readable)
	wake(l.writerParked, l.writable)
	l.mu.Unlock()
}

// sever fails the link for both ends at once.
func (l *link) sever() {
	l.mu.Lock()
	l.cut = true
	l.buf, l.r = nil, 0
	wake(l.readerParked, l.readable)
	wake(l.writerParked, l.writable)
	l.mu.Unlock()
}

// deadline is one end's read or write deadline, as on a socket: once it
// passes, a blocked call returns os.ErrDeadlineExceeded and so does every
// later one until the deadline moves.  The call it bounds parks on its
// link's channel (wake), and the deadline passing sends that channel a
// token as a writer does, so a parked end waits on one channel, not on a
// select.  A token that finds nobody parked is harmless: every park loops
// and looks again at what it waits for.
type deadline struct {
	wake chan struct{}

	mu    sync.Mutex // serializes set
	timer *time.Timer

	// state is the generation of the deadline, moved on by every set, shifted
	// left one, and 1 in its low bit once that generation has passed.  A
	// timer marks only its own generation passed, so a timer left from an
	// earlier set never fails a moved deadline.
	state atomic.Uint64
}

// set moves the deadline to t; the zero time means none.
func (d *deadline) set(t time.Time) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.timer != nil {
		d.timer.Stop()
		d.timer = nil
	}
	gen := d.state.Load()>>1 + 1
	d.state.Store(gen << 1)
	if t.IsZero() {
		return
	}
	dur := time.Until(t)
	if dur <= 0 {
		d.pass(gen)
		return
	}
	d.timer = time.AfterFunc(dur, func() { d.pass(gen) })
}

// pass marks generation gen of the deadline passed, if it is still the
// current one, and wakes the call parked on it.
func (d *deadline) pass(gen uint64) {
	if d.state.CompareAndSwap(gen<<1, gen<<1|1) {
		wake(true, d.wake)
	}
}

// passed reports whether the deadline has passed.
func (d *deadline) passed() bool { return d.state.Load()&1 != 0 }

type memConn struct {
	net    *Network
	local  memAddr
	remote memAddr
	hostIP string
	ctr    *netCounters
	peer   *memConn
	rd, wr *link // rd carries the peer's writes to us, wr ours to the peer
	rdl    deadline
	wdl    deadline
	closed sync.Once
}

// newMemConn returns one end of a connection, reading rd and writing wr.
// Its read deadline wakes a reader parked on rd; its write deadline, a
// writer parked on wr while its write is lent.
func newMemConn(n *Network, local, remote memAddr, hostIP string, ctr *netCounters, rd, wr *link) *memConn {
	c := &memConn{net: n, local: local, remote: remote, hostIP: hostIP, ctr: ctr, rd: rd, wr: wr}
	c.rdl.wake, c.wdl.wake = rd.readable, wr.writable
	return c
}

func (c *memConn) LocalAddr() net.Addr  { return c.local }
func (c *memConn) RemoteAddr() net.Addr { return c.remote }

func (c *memConn) SetDeadline(t time.Time) error {
	c.rdl.set(t)
	c.wdl.set(t)
	return nil
}

func (c *memConn) SetReadDeadline(t time.Time) error {
	c.rdl.set(t)
	return nil
}

func (c *memConn) SetWriteDeadline(t time.Time) error {
	c.wdl.set(t)
	return nil
}

func (c *memConn) Write(b []byte) (int, error) {
	one := [1][]byte{b}
	n, err := c.wr.write(one[:], &c.wdl)
	c.net.bytesSent.Add(n)
	c.ctr.bytesSent.Add(n)
	c.ctr.framesSent.Inc()
	return int(n), err
}

// WriteBuffers writes the whole list as one frame write, counted like
// countingConn's so both transports report the same frames for the same
// traffic: one append under one lock when the list fits in the link.
func (c *memConn) WriteBuffers(bufs *net.Buffers) (int64, error) {
	n, err := c.wr.write(*bufs, &c.wdl)
	*bufs = (*bufs)[len(*bufs):]
	c.net.bytesSent.Add(n)
	c.ctr.bytesSent.Add(n)
	c.ctr.framesSent.Inc()
	return n, err
}

func (c *memConn) Read(b []byte) (int, error) {
	n, err := c.rd.read(b, &c.rdl)
	if n > 0 {
		c.ctr.bytesRecv.Add(int64(n))
	}
	c.ctr.reads.Inc()
	return n, err
}

// Close closes our end, as closing a socket does: the peer reads what we
// wrote before it and then io.EOF, and its writes fail from now on.  Both
// ends leave their hosts' bookkeeping before Close returns — nothing the
// peer can still do blocks — so that nothing of the connection outlives
// the call.
func (c *memConn) Close() error {
	c.closed.Do(func() {
		c.wr.close(true)
		c.rd.close(false)
		c.forget()
	})
	return nil
}

// sever fails the connection on both ends at once (Network.Cut).
func (c *memConn) sever() {
	c.wr.sever()
	c.rd.sever()
	c.forget()
}

// forget removes both ends from their hosts' bookkeeping.
func (c *memConn) forget() {
	c.net.mu.Lock()
	for _, e := range []*memConn{c, c.peer} {
		if e == nil {
			continue
		}
		if h, ok := c.net.hosts[e.hostIP]; ok {
			delete(h.conns, e)
		}
	}
	c.net.mu.Unlock()
}
