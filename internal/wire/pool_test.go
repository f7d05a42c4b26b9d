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
		e := new(Encoder)
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
	e := new(Encoder)
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
		d := &Decoder{buf: frame}
		if got := string(d.Bytes()); got != want || d.Err() != nil {
			t.Fatalf("frame %d = %q, want %q (err %v)", i, got, want, d.Err())
		}
	}
}

// frameReaders are the two ways to take frames off a stream: the exact
// read and the connection reader that reads ahead.  What holds of one
// holds of the other.
var frameReaders = map[string]func(io.Reader) func(buf []byte) ([]byte, error){
	"ReadFrameInto": func(r io.Reader) func([]byte) ([]byte, error) {
		return func(buf []byte) ([]byte, error) { return ReadFrameInto(r, buf) }
	},
	"FrameReader": func(r io.Reader) func([]byte) ([]byte, error) {
		return NewFrameReader(r).Next
	},
}

// TestReadFrameIntoReuse checks that a read loop reusing one buffer gets
// correct payloads, grows only when needed, and reuses grown capacity.
func TestReadFrameIntoReuse(t *testing.T) {
	payloads := [][]byte{
		bytes.Repeat([]byte{1}, 10),
		bytes.Repeat([]byte{2}, 1000),
		bytes.Repeat([]byte{3}, 10), // shrinks back: must reuse, not realloc
		{},
		bytes.Repeat([]byte{4}, 1000),
		bytes.Repeat([]byte{5}, 3*readAhead), // grows once...
		bytes.Repeat([]byte{6}, 3*readAhead), // ...and is reused at full capacity
		bytes.Repeat([]byte{7}, 10),
	}
	for name, open := range frameReaders {
		var stream bytes.Buffer
		for _, p := range payloads {
			if err := writeFrame(&stream, p); err != nil {
				t.Fatal(err)
			}
		}
		next := open(&stream)
		var buf []byte
		for i, want := range payloads {
			got, err := next(buf)
			if err != nil {
				t.Fatalf("%s: frame %d: %v", name, i, err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("%s: frame %d: payload mismatch (len %d vs %d)", name, i, len(got), len(want))
			}
			if i >= 1 && cap(buf) >= len(want) && len(want) > 0 && &got[0] != &buf[:1][0] {
				t.Fatalf("%s: frame %d: buffer was reallocated despite sufficient capacity", name, i)
			}
			if i >= 1 && cap(got) < cap(buf) {
				t.Fatalf("%s: frame %d: buffer capacity crept from %d to %d", name, i, cap(buf), cap(got))
			}
			buf = got
		}
	}
}

// TestReadFrameIntoWarmLoopAllocatesNothing pins the read loop's floor: once
// the buffer has grown to the largest frame, header and body both land in
// it and a frame costs no allocation.  (The header used to be a local array
// that escaped through the io.Reader: one heap object per frame.)
func TestReadFrameIntoWarmLoopAllocatesNothing(t *testing.T) {
	var stream bytes.Buffer
	for _, n := range []int{0, 3, 4, 100, 1000, readAhead, 5000} { // shorter than the header included
		if err := writeFrame(&stream, bytes.Repeat([]byte{byte(n)}, n)); err != nil {
			t.Fatal(err)
		}
	}
	frames := stream.Bytes()
	for name, open := range frameReaders {
		rd := bytes.NewReader(frames)
		next := open(rd) // every pass ends on a frame boundary, nothing carried
		buf := make([]byte, 0, 5000)
		allocs := testing.AllocsPerRun(100, func() {
			rd.Reset(frames)
			for rd.Len() > 0 {
				got, err := next(buf)
				if err != nil {
					t.Fatal(err)
				}
				buf = got
			}
		})
		if allocs != 0 {
			t.Fatalf("warm %s loop: %.1f allocs per pass over 7 frames, want 0", name, allocs)
		}
	}
}

// TestReadFrameBodyBehindPrefix: a caller that begins a frame, tops the
// prefix it was handed up to a length of its choosing, then reads the rest
// behind the prefix ends up with the payload Next would have returned — in
// place when the storage fits, in a fresh exact-size slice carrying the
// prefix when it does not — however little of the frame the first read
// brought in.
func TestReadFrameBodyBehindPrefix(t *testing.T) {
	payload := bytes.Repeat([]byte("0123456789"), 1000)
	n := len(payload)
	const top = 64
	for _, first := range []int{1, frameHeaderLen, frameHeaderLen + 8, readAhead, 2 * n} {
		for _, room := range []int{0, readAhead, n, n + 50} {
			// The transport has only the first bytes of the stream when
			// the reader first asks.
			stream := frameBytes(t, payload)
			cut := min(first, len(stream))
			rd := &chunkReader{chunks: [][]byte{stream[:cut], stream[cut:]}}
			fr := NewFrameReader(rd)
			buf := make([]byte, 0, room)
			prefix, got, err := fr.Begin(buf)
			if err != nil || got != n {
				t.Fatalf("first %d room %d: Begin = %d, %v; want %d", first, room, got, err, n)
			}
			want := min(first, readAhead) - frameHeaderLen
			if first < frameHeaderLen {
				want = readAhead - frameHeaderLen // the header took a second read, which ran ahead
			}
			if len(prefix) != want {
				t.Fatalf("first %d room %d: Begin handed over %d bytes, want %d", first, room, len(prefix), want)
			}
			if len(prefix) < top {
				if prefix, err = fr.Body(prefix, top); err != nil {
					t.Fatalf("first %d room %d: top-up: %v", first, room, err)
				}
			}
			if !bytes.Equal(prefix, payload[:len(prefix)]) {
				t.Fatalf("first %d room %d: prefix = %q", first, room, prefix)
			}
			whole, err := fr.Body(prefix, n)
			if err != nil || !bytes.Equal(whole, payload) {
				t.Fatalf("first %d room %d: payload mismatch (%d bytes, %v)", first, room, len(whole), err)
			}
			if inPlace := &whole[0] == &prefix[0]; inPlace != (room >= n) {
				t.Fatalf("first %d room %d: read in place = %v, want %v", first, room, inPlace, room >= n)
			}
			if room < n && cap(whole) != n {
				t.Fatalf("first %d room %d: grown storage has capacity %d, want exactly %d", first, room, cap(whole), n)
			}
			if unread := len(bytes.Join(rd.chunks, nil)); unread != 0 || len(fr.carry) != 0 {
				t.Fatalf("first %d room %d: %d bytes unread, %d carried", first, room, unread, len(fr.carry))
			}
		}
	}
	// A stream that ends inside the body is an error, not a short payload.
	if _, err := NewFrameReader(bytes.NewReader(payload[:5])).Body(nil, 9); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("short body: err = %v, want io.ErrUnexpectedEOF", err)
	}
}

// TestReadFrameIntoOversize checks the frame ceiling still holds on the
// reusable-buffer path, before anything is sized by the hostile length.
func TestReadFrameIntoOversize(t *testing.T) {
	hdr := []byte{0xFF, 0xFF, 0xFF, 0xFF, 1, 2, 3}
	for name, open := range frameReaders {
		for _, buf := range [][]byte{nil, make([]byte, 0, 64)} {
			got, err := open(bytes.NewReader(hdr))(buf)
			if !errors.Is(err, ErrTooLarge) || got != nil {
				t.Fatalf("%s: cap %d: %d bytes, err = %v, want ErrTooLarge", name, cap(buf), len(got), err)
			}
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

	d := &Decoder{buf: snapshot}
	if got := d.String(); got != "canary" || d.Err() != nil {
		t.Fatalf("copied bytes corrupted by pool reuse: %q (err %v)", got, d.Err())
	}
}

// TestBytesViewAliases pins BytesView's contract: it aliases the decoder's
// buffer (no copy), while Bytes copies.
func TestBytesViewAliases(t *testing.T) {
	e := new(Encoder)
	e.PutBytes([]byte("shared"))
	buf := e.Bytes()

	d := &Decoder{buf: buf}
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

	d = &Decoder{buf: buf}
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
	e := new(Encoder)
	e.PutBytes(val)
	buf := e.Bytes()

	long := make([]byte, 0, 64)
	got := (&Decoder{buf: buf}).BytesInto(long)
	if !bytes.Equal(got, val) || &got[0] != &long[:1][0] {
		t.Fatalf("long dst: got %q, reused=%v; want the value in dst's storage", got, &got[0] == &long[:1][0])
	}
	exact := make([]byte, len(val))
	got = (&Decoder{buf: buf}).BytesInto(exact)
	if !bytes.Equal(got, val) || &got[0] != &exact[0] {
		t.Fatalf("exact dst: got %q, want the value in dst's storage", got)
	}
	for name, dst := range map[string][]byte{"nil": nil, "short": make([]byte, 3, len(val)-1)} {
		got = (&Decoder{buf: buf}).BytesInto(dst)
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
	if b := (&Decoder{buf: e.Bytes()}).Bytes(); b == nil || len(b) != 0 {
		t.Fatalf("empty value = %v, want empty non-nil", b)
	}

	keep := []byte("keep")
	for name, raw := range map[string][]byte{
		"truncated length":   {0x80},
		"length > remaining": {0x05, 'a', 'b'},
		"empty":              {},
	} {
		d := &Decoder{buf: raw}
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
	e := new(Encoder)
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
		dv := &Decoder{buf: raw}
		want := dv.BytesView()
		di := &Decoder{buf: raw}
		got := di.BytesInto(dst)
		if (dv.Err() == nil) != (di.Err() == nil) || !bytes.Equal(got, want) {
			t.Fatalf("BytesInto = %x (%v), BytesView = %x (%v)", got, di.Err(), want, dv.Err())
		}
		if di.Err() == nil && len(got) > 0 && len(want) > 0 && &got[0] == &want[0] {
			t.Fatal("BytesInto returned the input's storage")
		}
	})
}
