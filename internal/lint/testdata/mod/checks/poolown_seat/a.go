package poolownseat

import "golden/internal/wire"

// The caller as reader (orb.clientConn.readUntil) in miniature: a caller
// that holds the connection's reader seat reads frames until its own reply
// comes, hands every other reply to its waiter, and keeps its own by
// returning it.  A timer may kick it out of a read in the middle of a
// frame; that frame goes back to the caller too, for whoever reads next.
// Returning is the handoff poolown knows; a frame parked in a field is not.

type frame struct {
	buf  []byte
	size int // the length of the frame begun in buf; 0 before it is
}

func getFrame() *frame  { return &frame{} }
func putFrame(f *frame) {}

type waiter struct{ ch chan *frame }

type conn struct {
	fr     *wire.FrameReader
	parked *frame
}

// readReply reads (or resumes) one frame into f and says whose it is;
// kicked means the caller's timer cut the read short.
func (c *conn) readReply(f *frame) (w *waiter, kicked bool, err error) {
	if f.size == 0 {
		have, n, err := c.fr.Begin(f.buf)
		if err != nil {
			return nil, false, err
		}
		f.buf, f.size = have, n
	}
	whole, err := c.fr.Body(f.buf, f.size)
	f.buf = whole
	return nil, false, err
}

// ---- negative: the shape the real seated read uses ----

// readUntil acquires a frame per reply and ends every iteration with it
// released, delivered, returned as the caller's own, or returned half-read
// after a kick.
func (c *conn) readUntil(me *waiter, begun *frame) (f *frame, mine bool) {
	f = begun
	for {
		if f == nil {
			f = getFrame()
		}
		w, kicked, err := c.readReply(f)
		if kicked {
			return f, false // half-read: the next reader's
		}
		if err != nil {
			putFrame(f)
			return nil, false
		}
		switch {
		case w == nil:
			putFrame(f)
		case w == me:
			return f, true
		default:
			w.ch <- f
		}
		f = nil
	}
}

// ---- positive: the drafts that lose a frame ----

// readOnPastKick carries on after a kick with the half-read frame still
// held, into the top of the loop that fetches a fresh one.
func (c *conn) readOnPastKick(me *waiter) *frame {
	for {
		f := getFrame() // want "overwritten while holding a live pooled value"
		w, kicked, err := c.readReply(f)
		if kicked {
			continue
		}
		if err != nil {
			putFrame(f)
			return nil
		}
		if w == me {
			return f
		}
		putFrame(f)
	}
}

// parkInField leaves the half-read frame on the connection and returns:
// nothing owns it once another reader overwrites the field.
func (c *conn) parkInField(me *waiter) *frame {
	f := getFrame() // want "not released on every path"
	w, kicked, err := c.readReply(f)
	if kicked {
		c.parked = f
		return nil
	}
	if err != nil || w != me {
		putFrame(f)
		return nil
	}
	return f
}
