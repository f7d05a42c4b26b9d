// Package wire implements the binary marshaling format used by the object
// exchange layer (§3.2).  It plays the role of the IDL compiler's generated
// marshaling code: every IDL-declared request, reply and struct is encoded
// with the typed primitives here.
//
// The format is deliberately simple and self-contained:
//
//   - unsigned integers: LEB128 varint
//   - signed integers:   zigzag + varint
//   - float64:           IEEE-754 bits, little-endian fixed 8 bytes
//   - bool:              single byte 0/1
//   - string/bytes:      varint length + raw bytes
//   - slices/maps:       varint count + elements
//
// A Decoder latches the first error it encounters; callers check Err once
// after decoding a whole structure, which keeps hand-written stubs short.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// ErrTruncated reports a decode past the end of the buffer.
var ErrTruncated = errors.New("wire: truncated message")

// ErrTooLarge reports a length field exceeding sane bounds.
var ErrTooLarge = errors.New("wire: length exceeds limit")

// MaxFrameSize bounds a single framed message, borrowed segment included.
// Nothing above this layer chunks: a reply that would exceed it is refused
// with an application error (orb.ExcTooLarge), so kernel images and
// application binaries must fit in one frame.
const MaxFrameSize = 16 << 20

// maxElems bounds decoded collection lengths to keep corrupt or hostile
// length fields from causing huge allocations (settops are untrusted, §3.3).
const maxElems = 1 << 20

// Marshaler is implemented by IDL structs that encode themselves.
type Marshaler interface {
	MarshalWire(e *Encoder)
}

// Unmarshaler is implemented by IDL structs that decode themselves.
type Unmarshaler interface {
	UnmarshalWire(d *Decoder)
}

// Encoder accumulates an encoded message.  The zero value is ready to use.
type Encoder struct {
	buf []byte
}

// Bytes returns the encoded message.  The slice is owned by the encoder.
func (e *Encoder) Bytes() []byte { return e.buf }

// Len returns the number of encoded bytes so far.
func (e *Encoder) Len() int { return len(e.buf) }

// Cap returns the capacity of the encoder's backing buffer; pools use it to
// decide whether a grown encoder is worth retaining.
func (e *Encoder) Cap() int { return cap(e.buf) }

// Reset discards the encoded contents, retaining the buffer.
func (e *Encoder) Reset() { e.buf = e.buf[:0] }

// PutUint encodes an unsigned varint.
func (e *Encoder) PutUint(v uint64) {
	e.buf = binary.AppendUvarint(e.buf, v)
}

// PutInt encodes a signed integer with zigzag varint.
func (e *Encoder) PutInt(v int64) {
	e.buf = binary.AppendUvarint(e.buf, zigzag(v))
}

// PutBool encodes a boolean as one byte.
func (e *Encoder) PutBool(v bool) {
	if v {
		e.buf = append(e.buf, 1)
	} else {
		e.buf = append(e.buf, 0)
	}
}

// PutFloat encodes a float64 as 8 fixed little-endian bytes.
func (e *Encoder) PutFloat(v float64) {
	e.buf = binary.LittleEndian.AppendUint64(e.buf, math.Float64bits(v))
}

// PutString encodes a length-prefixed string.
func (e *Encoder) PutString(s string) {
	e.PutUint(uint64(len(s)))
	e.buf = append(e.buf, s...)
}

// PutBytes encodes a length-prefixed byte slice.
func (e *Encoder) PutBytes(b []byte) {
	e.PutUint(uint64(len(b)))
	e.buf = append(e.buf, b...)
}

// PutRaw appends b with no length prefix.  It is the splice primitive for a
// message assembled from already-encoded parts (a response whose body is
// sent around a borrowed segment); everything else wants PutBytes.
func (e *Encoder) PutRaw(b []byte) {
	e.buf = append(e.buf, b...)
}

// PutStrings encodes a slice of strings.
func (e *Encoder) PutStrings(ss []string) {
	e.PutUint(uint64(len(ss)))
	for _, s := range ss {
		e.PutString(s)
	}
}

// PutStringMap encodes a map[string]string with sorted iteration not
// required; decoding order is preserved only within one encode.
func (e *Encoder) PutStringMap(m map[string]string) {
	e.PutUint(uint64(len(m)))
	for k, v := range m {
		e.PutString(k)
		e.PutString(v)
	}
}

// Decoder consumes an encoded message.  The first failure latches into Err
// and all subsequent reads return zero values.
type Decoder struct {
	buf []byte
	off int
	err error
}

// Reset arms the decoder over buf, which it does not copy, clearing any
// latched error.  It is how a zero Decoder is pointed at its first message,
// and lets a long-lived decoder (a connection read loop's, a pooled server
// call's) decode many messages without allocating one Decoder each.
func (d *Decoder) Reset(buf []byte) {
	d.buf = buf
	d.off = 0
	d.err = nil
}

// Err returns the first decode error, or nil.
func (d *Decoder) Err() error { return d.err }

// Remaining reports undecoded bytes.
func (d *Decoder) Remaining() int { return len(d.buf) - d.off }

func (d *Decoder) fail(err error) {
	if d.err == nil {
		d.err = err
	}
}

// Uint decodes an unsigned varint.
func (d *Decoder) Uint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.buf[d.off:])
	if n <= 0 {
		d.fail(ErrTruncated)
		return 0
	}
	d.off += n
	return v
}

// Int decodes a zigzag varint.
func (d *Decoder) Int() int64 { return unzigzag(d.Uint()) }

// Bool decodes a one-byte boolean.
func (d *Decoder) Bool() bool {
	if d.err != nil {
		return false
	}
	if d.off >= len(d.buf) {
		d.fail(ErrTruncated)
		return false
	}
	b := d.buf[d.off]
	d.off++
	if b > 1 {
		d.fail(fmt.Errorf("wire: invalid bool byte %#x", b))
		return false
	}
	return b == 1
}

// Float decodes an 8-byte float64.
func (d *Decoder) Float() float64 {
	if d.err != nil {
		return 0
	}
	if d.off+8 > len(d.buf) {
		d.fail(ErrTruncated)
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(d.buf[d.off:]))
	d.off += 8
	return v
}

// String decodes a length-prefixed string.
func (d *Decoder) String() string {
	n := d.Uint()
	if d.err != nil {
		return ""
	}
	if n > uint64(d.Remaining()) {
		d.fail(ErrTruncated)
		return ""
	}
	s := string(d.buf[d.off : d.off+int(n)])
	d.off += int(n)
	return s
}

// BytesView decodes a length-prefixed byte slice without copying: the
// result aliases the decoder's input buffer and is valid only as long as
// that buffer is.  Hot paths that hand a frame buffer's ownership along
// with the decoded message use it; everyone else wants Bytes.
func (d *Decoder) BytesView() []byte {
	n := d.Uint()
	if d.err != nil {
		return nil
	}
	if n > uint64(d.Remaining()) {
		d.fail(ErrTruncated)
		return nil
	}
	out := d.buf[d.off : d.off+int(n) : d.off+int(n)]
	d.off += int(n)
	return out
}

// Bytes decodes a length-prefixed byte slice.  The result is a copy.
func (d *Decoder) Bytes() []byte { return d.BytesInto(nil) }

// BytesInto decodes a length-prefixed byte slice into dst's storage and
// returns it sized to the value; the result is a copy the caller owns.  A
// nil or too-short dst is replaced by a fresh slice of exactly the decoded
// length (append-style growth would overshoot a multi-megabyte buffer by a
// quarter), so a caller that passes the previous result back in stops
// allocating once its buffer has seen the largest value.  On a decode
// error the result is nil and dst is untouched.
func (d *Decoder) BytesInto(dst []byte) []byte {
	v := d.BytesView()
	if d.err != nil {
		return nil
	}
	if dst == nil || cap(dst) < len(v) {
		dst = make([]byte, len(v))
	}
	dst = dst[:len(v)]
	copy(dst, v)
	return dst
}

// Strings decodes a slice of strings.
func (d *Decoder) Strings() []string {
	n := d.Uint()
	if d.err != nil {
		return nil
	}
	if n > maxElems {
		d.fail(ErrTooLarge)
		return nil
	}
	out := make([]string, 0, min(int(n), 1024))
	for i := uint64(0); i < n && d.err == nil; i++ {
		out = append(out, d.String())
	}
	return out
}

// StringMap decodes a map[string]string.
func (d *Decoder) StringMap() map[string]string {
	n := d.Uint()
	if d.err != nil {
		return nil
	}
	if n > maxElems {
		d.fail(ErrTooLarge)
		return nil
	}
	out := make(map[string]string, min(int(n), 1024))
	for i := uint64(0); i < n && d.err == nil; i++ {
		k := d.String()
		v := d.String()
		out[k] = v
	}
	return out
}

// Unmarshaler decodes a nested IDL struct in place.
func (d *Decoder) Unmarshaler(u Unmarshaler) { u.UnmarshalWire(d) }

// Count decodes a collection length, bounds-checked, for hand-rolled loops
// over slices of IDL structs.
func (d *Decoder) Count() int { return d.CountOf(1) }

// CountOf is Count for a collection whose elements each take at least
// elemBytes on the wire.  A count the rest of the message cannot hold is
// a truncated message and fails here, before the caller sizes a slice by
// it: a three-byte message claiming a million 56-byte references would
// otherwise reserve 58 MiB on its way to the same error.
func (d *Decoder) CountOf(elemBytes int) int {
	n := d.Uint()
	if d.err != nil {
		return 0
	}
	if n > maxElems {
		d.fail(ErrTooLarge)
		return 0
	}
	if n*uint64(elemBytes) > uint64(d.Remaining()) {
		d.fail(ErrTruncated)
		return 0
	}
	return int(n)
}

func zigzag(v int64) uint64   { return uint64((v << 1) ^ (v >> 63)) }
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// Marshal encodes a single Marshaler to a fresh byte slice.
func Marshal(m Marshaler) []byte {
	e := Encoder{buf: make([]byte, 0, 64)}
	m.MarshalWire(&e)
	return e.buf
}

// Unmarshal decodes buf into u, requiring full consumption.
func Unmarshal(buf []byte, u Unmarshaler) error {
	d := Decoder{buf: buf}
	u.UnmarshalWire(&d)
	if d.err != nil {
		return d.err
	}
	if d.Remaining() != 0 {
		return fmt.Errorf("wire: %d trailing bytes", d.Remaining())
	}
	return nil
}

// AppendFrame appends one length-prefixed frame carrying m's encoding to e,
// with no intermediate buffer: the 4-byte header is reserved up front, m
// marshals directly into e, and the header is patched once the length is
// known.  Writing e.Bytes() in a single Write then costs zero copies beyond
// the marshal itself and keeps one Write per frame (the transport layer
// counts frames by counting Writes).
func AppendFrame(e *Encoder, m Marshaler) error { return AppendSplitFrame(e, m, 0) }

// AppendSplitFrame is AppendFrame for a frame that segLen further bytes
// complete on the wire: m marshals everything except a borrowed segment
// the caller writes itself, spliced in at an offset m chose, and the
// header counts the segment so the receiver sees one ordinary frame.
// MaxFrameSize is enforced on the sum.
func AppendSplitFrame(e *Encoder, m Marshaler, segLen int) error {
	mark := len(e.buf)
	e.buf = append(e.buf, 0, 0, 0, 0)
	m.MarshalWire(e)
	n := len(e.buf) - mark - 4 + segLen
	if n > MaxFrameSize {
		e.buf = e.buf[:mark]
		return ErrTooLarge
	}
	binary.BigEndian.PutUint32(e.buf[mark:mark+4], uint32(n))
	return nil
}
