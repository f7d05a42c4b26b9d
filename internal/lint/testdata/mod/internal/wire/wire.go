// Package wire is a miniature stand-in for itv/internal/wire: the pooled
// Encoder pair and the frame-buffer aliasing entry points poolown guards
// (Decoder.BytesView, FrameReader's Next with its halves Begin and Body,
// ReadFrameInto).
package wire

import "io"

type Encoder struct{ buf []byte }

func (e *Encoder) PutInt(v int)  { e.buf = append(e.buf, byte(v)) }
func (e *Encoder) Bytes() []byte { return e.buf }
func (e *Encoder) Reset()        { e.buf = e.buf[:0] }

// GetEncoder/PutEncoder are the module's canonical pool pair.
func GetEncoder() *Encoder  { return &Encoder{} }
func PutEncoder(e *Encoder) {}

type Decoder struct{ buf []byte }

func (d *Decoder) Reset(b []byte) { d.buf = b }

// BytesView aliases the frame buffer; it is only valid until the frame
// is recycled.
func (d *Decoder) BytesView() []byte { return d.buf }

// ReadFrameInto reads one frame, reusing buf when it fits; the returned
// slice aliases the (possibly reallocated) frame buffer.
func ReadFrameInto(r io.Reader, buf []byte) ([]byte, error) {
	if buf == nil {
		buf = make([]byte, 16)
	}
	n, err := r.Read(buf)
	return buf[:n], err
}

// FrameReader reads a connection's frames into buffers its caller lends;
// every slice it returns aliases the (possibly reallocated) frame buffer.
type FrameReader struct{ r io.Reader }

func NewFrameReader(r io.Reader) *FrameReader { return &FrameReader{r: r} }

// Next reads one frame, reusing buf when it fits.
func (fr *FrameReader) Next(buf []byte) ([]byte, error) {
	have, n, err := fr.Begin(buf)
	if err != nil {
		return nil, err
	}
	return fr.Body(have, n)
}

// Begin starts a frame: its payload length, and in buf's storage the
// leading bytes of the payload already here.
func (fr *FrameReader) Begin(buf []byte) ([]byte, int, error) {
	if cap(buf) < 16 {
		buf = make([]byte, 16)
	}
	n, err := fr.r.Read(buf[:16])
	return buf[:n], 64, err
}

// Body reads a payload up to its n-th byte behind the bytes have already
// holds, in have's storage when it fits.
func (fr *FrameReader) Body(have []byte, n int) ([]byte, error) {
	buf := have
	if n > cap(buf) {
		buf = make([]byte, n)
		copy(buf, have)
	}
	_, err := io.ReadFull(fr.r, buf[len(have):n])
	return buf[:n], err
}
