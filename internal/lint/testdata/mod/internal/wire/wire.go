// Package wire is a miniature stand-in for itv/internal/wire: the pooled
// Encoder pair and the frame-buffer aliasing entry points poolown guards
// (Decoder.BytesView, ReadFrameInto and its body half ReadFrameBody).
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

// ReadFrameBody reads a payload up to its n-th byte behind the bytes have
// already holds, in have's storage when it fits; the returned slice
// aliases the (possibly reallocated) frame buffer.
func ReadFrameBody(r io.Reader, have []byte, n int) ([]byte, error) {
	buf := have
	if n > cap(buf) {
		buf = make([]byte, n)
		copy(buf, have)
	}
	_, err := io.ReadFull(r, buf[len(have):n])
	return buf[:n], err
}
