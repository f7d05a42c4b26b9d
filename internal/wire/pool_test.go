package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"testing"
	"testing/quick"
)

type blobMsg []byte

func (m blobMsg) MarshalWire(e *Encoder) { e.PutBytes(m) }

// writeFrame is the framing reference: a 4-byte big-endian length header
// followed by payload, assembled the plain way.  It was the production
// write path before AppendFrame and stays here as what AppendFrame must
// match byte for byte.
func writeFrame(w io.Writer, payload []byte) error {
	if len(payload) > MaxFrameSize {
		return ErrTooLarge
	}
	buf := make([]byte, 4+len(payload))
	binary.BigEndian.PutUint32(buf, uint32(len(payload)))
	copy(buf[4:], payload)
	_, err := w.Write(buf)
	return err
}

// TestAppendFrameMatchesWriteFrame pins the wire compatibility requirement:
// the zero-copy framing path must emit byte-for-byte what writeFrame emits.
func TestAppendFrameMatchesWriteFrame(t *testing.T) {
	f := func(payload []byte) bool {
		var legacy bytes.Buffer
		if err := writeFrame(&legacy, append([]byte(nil), blobMsg(payload).framePayload()...)); err != nil {
			return false
		}
		e := NewEncoder(16)
		if err := AppendFrame(e, blobMsg(payload)); err != nil {
			return false
		}
		return bytes.Equal(legacy.Bytes(), e.Bytes())
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// framePayload is what writeFrame would have been handed for this message:
// its standalone encoding.
func (m blobMsg) framePayload() []byte { return Marshal(m) }

// TestAppendFrameConcatenates checks back-to-back frames in one buffer
// decode as a stream of distinct frames.
func TestAppendFrameConcatenates(t *testing.T) {
	e := NewEncoder(16)
	if err := AppendFrame(e, blobMsg("first")); err != nil {
		t.Fatal(err)
	}
	if err := AppendFrame(e, blobMsg("second")); err != nil {
		t.Fatal(err)
	}
	r := bytes.NewReader(e.Bytes())
	for i, want := range []string{"first", "second"} {
		frame, err := ReadFrameInto(r, nil)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		d := NewDecoder(frame)
		if got := string(d.Bytes()); got != want || d.Err() != nil {
			t.Fatalf("frame %d = %q, want %q (err %v)", i, got, want, d.Err())
		}
	}
}

// TestReadFrameIntoReuse checks that a read loop reusing one buffer gets
// correct payloads, grows only when needed, and reuses grown capacity.
func TestReadFrameIntoReuse(t *testing.T) {
	var stream bytes.Buffer
	payloads := [][]byte{
		bytes.Repeat([]byte{1}, 10),
		bytes.Repeat([]byte{2}, 1000),
		bytes.Repeat([]byte{3}, 10), // shrinks back: must reuse, not realloc
		{},
		bytes.Repeat([]byte{4}, 1000),
	}
	for _, p := range payloads {
		if err := writeFrame(&stream, p); err != nil {
			t.Fatal(err)
		}
	}
	var buf []byte
	for i, want := range payloads {
		got, err := ReadFrameInto(&stream, buf)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("frame %d: payload mismatch (len %d vs %d)", i, len(got), len(want))
		}
		if i >= 1 && cap(buf) >= len(want) && len(want) > 0 && &got[0] != &buf[:1][0] {
			t.Fatalf("frame %d: buffer was reallocated despite sufficient capacity", i)
		}
		buf = got
	}
}

// TestReadFrameIntoWarmLoopAllocatesNothing pins the read loop's floor: once
// the buffer has grown to the largest frame, header and body both land in
// it and a frame costs no allocation.  (The header used to be a local array
// that escaped through the io.Reader: one heap object per frame.)
func TestReadFrameIntoWarmLoopAllocatesNothing(t *testing.T) {
	var stream bytes.Buffer
	for _, n := range []int{0, 3, 4, 100, 1000} { // shorter than the header included
		if err := writeFrame(&stream, bytes.Repeat([]byte{byte(n)}, n)); err != nil {
			t.Fatal(err)
		}
	}
	frames := stream.Bytes()
	rd := bytes.NewReader(frames)
	buf := make([]byte, 0, 1000)
	allocs := testing.AllocsPerRun(100, func() {
		rd.Reset(frames)
		for rd.Len() > 0 {
			got, err := ReadFrameInto(rd, buf)
			if err != nil {
				t.Fatal(err)
			}
			buf = got
		}
	})
	if allocs != 0 {
		t.Fatalf("warm ReadFrameInto loop: %.1f allocs per pass over 5 frames, want 0", allocs)
	}
}

// TestReadFrameBodyBehindPrefix: a caller that reads a frame's header, then
// a prefix of the payload, then the rest behind the prefix ends up with the
// payload ReadFrameInto would have returned — in place when the storage
// fits, in a fresh exact-size slice carrying the prefix when it does not.
func TestReadFrameBodyBehindPrefix(t *testing.T) {
	payload := bytes.Repeat([]byte("0123456789"), 100)
	for _, room := range []int{0, 8, len(payload), len(payload) + 50} {
		var stream bytes.Buffer
		if err := writeFrame(&stream, payload); err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, 0, room)
		n, err := ReadFrameHeader(&stream, buf)
		if err != nil || n != len(payload) {
			t.Fatalf("header = %d, %v; want %d", n, err, len(payload))
		}
		prefix, err := ReadFrameBody(&stream, buf, 8)
		if err != nil || !bytes.Equal(prefix, payload[:8]) {
			t.Fatalf("room %d: prefix = %q, %v", room, prefix, err)
		}
		got, err := ReadFrameBody(&stream, prefix, n)
		if err != nil || !bytes.Equal(got, payload) {
			t.Fatalf("room %d: payload mismatch (%d bytes, %v)", room, len(got), err)
		}
		if inPlace := room > 0 && &got[0] == &buf[:1][0]; inPlace != (room >= n) {
			t.Fatalf("room %d: read in place = %v, want %v", room, inPlace, room >= n)
		}
		if room < n && cap(got) != n {
			t.Fatalf("room %d: grown storage has capacity %d, want exactly %d", room, cap(got), n)
		}
		if stream.Len() != 0 {
			t.Fatalf("room %d: %d bytes left unread", room, stream.Len())
		}
	}
	// A stream that ends inside the body is an error, not a short payload.
	if _, err := ReadFrameBody(bytes.NewReader(payload[:5]), nil, 9); err == nil {
		t.Fatal("short body not detected")
	}
}

// TestReadFrameIntoOversize checks the frame ceiling still holds on the
// reusable-buffer path.
func TestReadFrameIntoOversize(t *testing.T) {
	hdr := []byte{0xFF, 0xFF, 0xFF, 0xFF}
	for _, buf := range [][]byte{nil, make([]byte, 0, 64)} {
		_, err := ReadFrameInto(bytes.NewReader(hdr), buf)
		if !errors.Is(err, ErrTooLarge) {
			t.Fatalf("cap %d: err = %v, want ErrTooLarge", cap(buf), err)
		}
	}
}

// TestEncoderPoolReuseIsClean checks a pooled encoder always comes back
// empty, whatever state it was returned in.
func TestEncoderPoolReuseIsClean(t *testing.T) {
	e := GetEncoder()
	e.PutString("leftover state")
	PutEncoder(e)
	for i := 0; i < 100; i++ {
		e := GetEncoder()
		if e.Len() != 0 {
			t.Fatalf("pooled encoder arrived with %d bytes of prior state", e.Len())
		}
		e.PutUint(uint64(i))
		PutEncoder(e)
	}
}

// TestEncoderPoolCopySurvivesReuse is the mutate-after-return canary: bytes
// COPIED out of an encoder before PutEncoder must be immune to whatever the
// pool's next users write.  (Retaining e.Bytes() itself across PutEncoder
// is the documented ownership violation the copy avoids.)
func TestEncoderPoolCopySurvivesReuse(t *testing.T) {
	e := GetEncoder()
	e.PutString("canary")
	snapshot := append([]byte(nil), e.Bytes()...)
	PutEncoder(e)

	// Stamp garbage through the pool from many goroutines.
	done := make(chan struct{})
	for g := 0; g < 8; g++ {
		go func(g byte) {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 200; i++ {
				e := GetEncoder()
				for j := 0; j < 32; j++ {
					e.PutUint(uint64(g) << 8)
				}
				PutEncoder(e)
			}
		}(byte(g))
	}
	for g := 0; g < 8; g++ {
		<-done
	}

	d := NewDecoder(snapshot)
	if got := d.String(); got != "canary" || d.Err() != nil {
		t.Fatalf("copied bytes corrupted by pool reuse: %q (err %v)", got, d.Err())
	}
}

// TestBytesViewAliases pins BytesView's contract: it aliases the decoder's
// buffer (no copy), while Bytes copies.
func TestBytesViewAliases(t *testing.T) {
	e := NewEncoder(16)
	e.PutBytes([]byte("shared"))
	buf := e.Bytes()

	d := NewDecoder(buf)
	view := d.BytesView()
	if string(view) != "shared" {
		t.Fatalf("view = %q", view)
	}
	// Mutating the backing buffer must show through the view...
	buf[1] ^= 0xFF
	if string(view) == "shared" {
		t.Fatal("BytesView copied; expected an alias of the input buffer")
	}
	buf[1] ^= 0xFF

	d = NewDecoder(buf)
	cp := d.Bytes()
	buf[1] ^= 0xFF
	if string(cp) != "shared" {
		t.Fatal("Bytes aliased the input buffer; expected a copy")
	}
}

// TestBytesInto pins the decode-into-owned-buffer contract: an adequate dst
// is reused in place, a nil or short dst is replaced by a slice of exactly
// the decoded length, the result never aliases the input, and a failed
// decode returns nil without touching dst.
func TestBytesInto(t *testing.T) {
	val := []byte("application binary")
	e := NewEncoder(32)
	e.PutBytes(val)
	buf := e.Bytes()

	long := make([]byte, 0, 64)
	got := NewDecoder(buf).BytesInto(long)
	if !bytes.Equal(got, val) || &got[0] != &long[:1][0] {
		t.Fatalf("long dst: got %q, reused=%v; want the value in dst's storage", got, &got[0] == &long[:1][0])
	}
	exact := make([]byte, len(val))
	got = NewDecoder(buf).BytesInto(exact)
	if !bytes.Equal(got, val) || &got[0] != &exact[0] {
		t.Fatalf("exact dst: got %q, want the value in dst's storage", got)
	}
	for name, dst := range map[string][]byte{"nil": nil, "short": make([]byte, 3, len(val)-1)} {
		got = NewDecoder(buf).BytesInto(dst)
		if !bytes.Equal(got, val) || cap(got) != len(val) {
			t.Fatalf("%s dst: got %q cap %d, want a fresh slice of exactly %d", name, got, cap(got), len(val))
		}
	}
	buf[1] ^= 0xFF
	if !bytes.Equal(got, val) {
		t.Fatal("BytesInto aliased the input buffer; expected a copy")
	}
	buf[1] ^= 0xFF

	// Bytes is BytesInto(nil): an empty value still decodes non-nil.
	e.Reset()
	e.PutBytes(nil)
	if b := NewDecoder(e.Bytes()).Bytes(); b == nil || len(b) != 0 {
		t.Fatalf("empty value = %v, want empty non-nil", b)
	}

	keep := []byte("keep")
	for name, raw := range map[string][]byte{
		"truncated length":   {0x80},
		"length > remaining": {0x05, 'a', 'b'},
		"empty":              {},
	} {
		d := NewDecoder(raw)
		if got := d.BytesInto(keep); got != nil || d.Err() == nil {
			t.Fatalf("%s: got %q, err %v; want nil and an error", name, got, d.Err())
		}
		if string(keep) != "keep" {
			t.Fatalf("%s: failed decode wrote into dst", name)
		}
	}
}

// FuzzBytesInto: whatever the bytes and whatever dst looks like, BytesInto
// agrees with BytesView on the value and the error, never panics, and
// never hands back the input's storage.
func FuzzBytesInto(f *testing.F) {
	e := NewEncoder(16)
	e.PutBytes([]byte("seed"))
	f.Add(e.Bytes(), 0)
	f.Add(e.Bytes(), 2)
	f.Add(e.Bytes(), 64)
	f.Add([]byte{0x80}, 8)                                                       // truncated length
	f.Add([]byte{0x05, 'a', 'b'}, 8)                                             // length > remaining
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}, 0) // 2^64-1
	f.Add([]byte{}, 0)
	f.Fuzz(func(t *testing.T, raw []byte, dstCap int) {
		var dst []byte
		if dstCap > 0 {
			dst = make([]byte, 0, dstCap%(1<<16))
		}
		dv := NewDecoder(raw)
		want := dv.BytesView()
		di := NewDecoder(raw)
		got := di.BytesInto(dst)
		if (dv.Err() == nil) != (di.Err() == nil) || !bytes.Equal(got, want) {
			t.Fatalf("BytesInto = %x (%v), BytesView = %x (%v)", got, di.Err(), want, dv.Err())
		}
		if di.Err() == nil && len(got) > 0 && len(want) > 0 && &got[0] == &want[0] {
			t.Fatal("BytesInto returned the input's storage")
		}
	})
}
