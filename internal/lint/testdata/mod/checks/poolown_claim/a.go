package poolownclaim

import (
	"sync"

	"golden/internal/wire"
)

// The client read loop's split read in miniature (orb.clientConn.readReply):
// a caller registers a waiter that lends storage for a big reply, the read
// loop — the connection's only reader — claims the waiter before the first
// byte lands in that storage, and from then on owes it exactly one
// delivery on every path.  The pooled frame follows the waiter: sent on
// success, released on failure.  None of it is suppressed; the loan
// (a field store) and the channel send are the handoffs poolown knows.

type frame struct {
	buf  []byte
	data []byte // the reply's leading string, in storage a waiter lent
}

func getFrame() *frame  { return &frame{} }
func putFrame(f *frame) {}

type waiter struct {
	ch      chan *frame
	dst     []byte
	filling bool
}

type conn struct {
	fr      *wire.FrameReader
	mu      sync.Mutex
	pending map[uint64]*waiter
}

// claim removes the waiter for id from the pending table and marks it
// filling: no sweep can find it any more, so the claimer must deliver.
func (c *conn) claim(id uint64) *waiter {
	c.mu.Lock()
	w := c.pending[id]
	if w != nil {
		delete(c.pending, id)
		w.filling = true
	}
	c.mu.Unlock()
	return w
}

// ---- negative: the shapes the real split read uses ----

// readLoop acquires one frame per reply and ends every path with it
// delivered or released — including the failure after a claim, where the
// frame goes back to the pool and the waiter still gets its nil.
func (c *conn) readLoop() {
	for {
		f := getFrame()
		w, err := c.readReply(f)
		if err != nil {
			putFrame(f)
			if w != nil {
				w.ch <- nil
			}
			return
		}
		if w != nil {
			w.ch <- f // ownership moves to the waiter
		} else {
			putFrame(f)
		}
	}
}

// readReply begins a frame in the frame's recycled buffer, tops the prefix
// up, claims, fills the lent storage, then reads the tail into the same
// recycled buffer.  Storing each read back into the slot it was read from
// is the sanctioned recycle; storing the lent storage on the frame is a
// plain field store.
func (c *conn) readReply(f *frame) (*waiter, error) {
	have, n, err := c.fr.Begin(f.buf)
	if err != nil {
		return nil, err
	}
	f.buf = have
	if len(have) < 8 {
		prefix, err := c.fr.Body(f.buf, 8)
		if err != nil {
			return nil, err
		}
		f.buf = prefix
	}
	w := c.claim(uint64(f.buf[0]))
	if w == nil {
		whole, err := c.fr.Body(f.buf, n)
		if err != nil {
			return nil, err
		}
		f.buf = whole
		return nil, nil
	}
	got := copy(w.dst, f.buf[8:])
	if _, err := c.fr.Body(w.dst[:got], len(w.dst)); err != nil {
		return w, err // claimed: the caller still owes w its delivery
	}
	f.data = w.dst
	f.buf = f.buf[:0]
	tail, err := c.fr.Body(f.buf, 4)
	if err != nil {
		return w, err
	}
	f.buf = tail
	return w, nil
}

// register lends dst through the waiter and takes the one delivery back:
// the frame that arrives is the receiver's to release.
func (c *conn) register(id uint64, dst []byte) []byte {
	w := &waiter{ch: make(chan *frame, 1), dst: dst}
	c.mu.Lock()
	c.pending[id] = w
	c.mu.Unlock()
	f := <-w.ch
	if f == nil {
		return nil
	}
	data := f.data
	putFrame(f)
	return data
}

// ---- positive: the naive split read ----

// naiveLoop is the first draft: the claimed-waiter failure path delivers
// the nil and forgets the frame, and an unclaimed reply falls through to
// the next iteration with the frame still held.
func (c *conn) naiveLoop() {
	for {
		f := getFrame() // want "overwritten while holding a live pooled value" // want "not released on every path"
		w, err := c.readReply(f)
		if err != nil {
			if w != nil {
				w.ch <- nil
				return
			}
			putFrame(f)
			return
		}
		if w != nil {
			w.ch <- f
		}
	}
}

// deliverThenRelease hands the frame to the waiter and recycles it too:
// the waiter would decode out of a frame the pool has already reissued.
func (c *conn) deliverThenRelease(w *waiter) {
	f := getFrame()
	w.ch <- f
	putFrame(f) // want "released after its ownership was handed off"
}

type stash struct{ last []byte }

// tailKept stores the tail read somewhere other than the slot it was read
// into: the next frame overwrites it under whoever holds the stash.
func (c *conn) tailKept(f *frame, s *stash) error {
	tail, err := c.fr.Body(f.buf, 4)
	if err != nil {
		return err
	}
	s.last = tail // want "FrameReader.Body alias stored to s.last escapes the frame buffer"
	return nil
}

// prefixKept does the same with what Begin hands over.
func (c *conn) prefixKept(f *frame, s *stash) error {
	have, _, err := c.fr.Begin(f.buf)
	if err != nil {
		return err
	}
	s.last = have // want "FrameReader.Begin alias stored to s.last escapes the frame buffer"
	return nil
}
