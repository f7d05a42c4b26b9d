package wire

import (
	"encoding/binary"
	"errors"
	"io"
)

// frameHeaderLen is the big-endian payload length every frame starts with.
const frameHeaderLen = 4

// readAhead is how many bytes a FrameReader asks the transport for when it
// starts a frame: enough that a small frame arrives header and payload in
// one read, and that a coalesced batch of them (DESIGN.md §12) arrives
// several to a read.  It is a constant and not an option because the ORB's
// split read leans on it: a frame worth splitting leads with a byte string
// longer than orb's flushCopyLimit (16 KiB), and a prefix of at most
// readAhead bytes can therefore never run past that string's end.
const readAhead = 4 << 10

// FrameReader reads length-prefixed frames off one connection, one
// transport read per frame when frames arrive whole and fewer when they
// arrive batched.  Every frame lands in storage the caller hands in and
// owns; what a read brings in past a frame's end waits in the reader's own
// carry for the next call.  Not safe for concurrent use.
type FrameReader struct {
	r     io.Reader
	spill []byte // the carry's storage, readAhead bytes, made on first use
	carry []byte // unread bytes past the last frame's end; a window of spill
}

// NewFrameReader returns a reader of the frames arriving on r.
func NewFrameReader(r io.Reader) *FrameReader { return &FrameReader{r: r} }

// Next reads one frame into buf's storage and returns its payload.  The
// payload starts where buf does, so a read loop that passes each result (or
// the pooled buffer it came from) back in keeps the buffer's whole capacity
// and allocates nothing per frame; storage is replaced only when it is
// shorter than readAhead or than the frame.  The caller must finish with,
// or hand off, one frame before reading the next into the same buffer.
func (fr *FrameReader) Next(buf []byte) ([]byte, error) {
	have, n, err := fr.Begin(buf)
	if err != nil {
		return nil, err
	}
	payload, err := readBody(fr.r, have, n)
	if err != nil {
		return nil, err
	}
	return payload, nil
}

// Begin starts the next frame: it returns the payload's length n, checked
// against MaxFrameSize before anything is sized by it, and in buf's storage
// the leading bytes of the payload that are already here — all n of them
// for a small frame, at most readAhead otherwise.  Body reads the rest in
// behind them.  When have is short of n the carry is empty and the
// transport stands at payload byte len(have), so a caller may look at the
// prefix and direct what follows wherever it likes.
//
// io.EOF means the stream ended on a frame boundary; an end inside a frame
// is io.ErrUnexpectedEOF.  On any error, what arrived of the header stays
// carried, so a Begin cut short by a deadline can simply be called again.
func (fr *FrameReader) Begin(buf []byte) (have []byte, n int, err error) {
	if cap(buf) < readAhead {
		buf = make([]byte, readAhead)
	}
	src, fresh := fr.carry, false
	if len(src) < frameHeaderLen {
		// Not even a header is carried over: take whatever the transport
		// has, behind the carried bytes.
		buf = buf[:readAhead]
		got := copy(buf, src)
		more, err := io.ReadAtLeast(fr.r, buf[got:], frameHeaderLen-got)
		if err != nil {
			if more > 0 {
				if fr.spill == nil {
					fr.spill = make([]byte, 0, readAhead)
				}
				fr.carry = append(fr.spill[:0], buf[:got+more]...)
			}
			if got+more > 0 && errors.Is(err, io.EOF) {
				err = io.ErrUnexpectedEOF
			}
			return nil, 0, err
		}
		src, fresh = buf[:got+more], true
	}
	size := binary.BigEndian.Uint32(src)
	if size > MaxFrameSize {
		return nil, 0, ErrTooLarge
	}
	n = int(size)
	src = src[frameHeaderLen:]
	past := src[min(n, len(src)):]
	if !fresh {
		fr.carry = past
	} else {
		if fr.spill == nil && len(past) > 0 {
			fr.spill = make([]byte, 0, readAhead)
		}
		fr.carry = append(fr.spill[:0], past...)
	}
	// The payload moves down over the header, so the frame starts where
	// the caller's buffer does.
	held := src[:len(src)-len(past)]
	return buf[:copy(buf[:cap(buf)], held)], n, nil
}

// Body reads the payload Begin started up to its n-th byte.  have holds the
// bytes of it already here and lends its storage: the rest is read in
// behind them, in place when n fits have's capacity, otherwise in a fresh
// slice of exactly n bytes that have is copied to.  n must be at least
// len(have) and at most the frame's length.
//
// On an error Body returns, beside it, the payload as far as it got — have's
// bytes and whatever arrived behind them — so a read cut short by a
// deadline resumes with another Body call on that result.
func (fr *FrameReader) Body(have []byte, n int) ([]byte, error) {
	return readBody(fr.r, have, n)
}

// Ready reports whether a whole frame waits in the carry: the next Next
// returns it without touching the transport.
func (fr *FrameReader) Ready() bool {
	return len(fr.carry) >= frameHeaderLen &&
		uint64(binary.BigEndian.Uint32(fr.carry)) <= uint64(len(fr.carry)-frameHeaderLen)
}

func readBody(r io.Reader, have []byte, n int) ([]byte, error) {
	var payload []byte
	if n <= cap(have) {
		payload = have[:n]
	} else {
		payload = make([]byte, n)
		copy(payload, have)
	}
	got, err := io.ReadFull(r, payload[len(have):])
	if err != nil {
		if errors.Is(err, io.EOF) {
			err = io.ErrUnexpectedEOF // the header promised more
		}
		return payload[:len(have)+got], err
	}
	return payload, nil
}

// ReadFrameInto reads exactly one frame off r, header then payload, into
// buf's storage, and never a byte past the frame's end.  It is the form for
// a caller with one frame to read and nowhere to keep a carry (the
// benchmark ladder's codec rung) and the reference FrameReader is tested
// against; a connection's read loop wants a FrameReader.
func ReadFrameInto(r io.Reader, buf []byte) ([]byte, error) {
	// The header borrows the storage the payload is about to overwrite: a
	// local array would escape through r, one heap object per frame.
	if cap(buf) < frameHeaderLen {
		buf = make([]byte, frameHeaderLen)
	}
	hdr := buf[:frameHeaderLen]
	if _, err := io.ReadFull(r, hdr); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr)
	if n > MaxFrameSize {
		return nil, ErrTooLarge
	}
	payload, err := readBody(r, buf[:0], int(n))
	if err != nil {
		return nil, err
	}
	return payload, nil
}
