package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"testing"
	"testing/iotest"
)

// chunkReader delivers a stream the way a transport does: each Read returns
// the next chunk (or as much of it as fits), never bytes from two.
type chunkReader struct {
	chunks [][]byte
	reads  int
}

func (c *chunkReader) Read(p []byte) (int, error) {
	c.reads++
	for len(c.chunks) > 0 && len(c.chunks[0]) == 0 {
		c.chunks = c.chunks[1:]
	}
	if len(c.chunks) == 0 {
		return 0, io.EOF
	}
	n := copy(p, c.chunks[0])
	c.chunks[0] = c.chunks[0][n:]
	return n, nil
}

func frameBytes(t testing.TB, payload []byte) []byte {
	var b bytes.Buffer
	if err := writeFrame(&b, payload); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// TestFrameReaderReadsPerFrame is the count the reader exists for: a frame
// that arrives whole costs one transport read, a batch of them costs one
// read between them, and a frame longer than the read-ahead costs the
// speculative read plus one for the rest.
func TestFrameReaderReadsPerFrame(t *testing.T) {
	small := frameBytes(t, bytes.Repeat([]byte{9}, 60))
	big := frameBytes(t, bytes.Repeat([]byte{7}, 3*readAhead))
	drain := func(c *chunkReader) (frames int) {
		fr := NewFrameReader(c)
		var buf []byte
		for {
			got, err := fr.Next(buf)
			if errors.Is(err, io.EOF) {
				return frames
			}
			if err != nil {
				t.Fatal(err)
			}
			buf = got
			frames++
		}
	}

	const n = 50 // 50 small frames fit one read-ahead
	var idle chunkReader
	for i := 0; i < n; i++ {
		idle.chunks = append(idle.chunks, small)
	}
	batch := chunkReader{chunks: [][]byte{bytes.Repeat(small, n)}}
	if got := drain(&idle); got != n || idle.reads != n+1 { // +1: the read that meets EOF
		t.Fatalf("idle: %d frames in %d reads, want %d in %d", got, idle.reads, n, n+1)
	}
	if got := drain(&batch); got != n || batch.reads != 2 {
		t.Fatalf("batched: %d frames in %d reads, want %d in 2", got, batch.reads, n)
	}
	one := chunkReader{chunks: [][]byte{big}}
	if got := drain(&one); got != 1 || one.reads != 3 {
		t.Fatalf("long frame: %d frames in %d reads, want 1 in 3", got, one.reads)
	}
}

// TestFrameReaderCarryAcrossHeader: a read that ends inside the next
// frame's header leaves fewer than four bytes carried; the next call reads
// on behind them.
func TestFrameReaderCarryAcrossHeader(t *testing.T) {
	a, b := []byte("first frame"), []byte("second")
	stream := append(frameBytes(t, a), frameBytes(t, b)...)
	for cut := frameHeaderLen + len(a); cut <= len(stream); cut++ {
		fr := NewFrameReader(&chunkReader{chunks: [][]byte{stream[:cut], stream[cut:]}})
		for i, want := range [][]byte{a, b} {
			got, err := fr.Next(nil)
			if err != nil || !bytes.Equal(got, want) {
				t.Fatalf("cut %d: frame %d = %q, %v", cut, i, got, err)
			}
		}
		if _, err := fr.Next(nil); !errors.Is(err, io.EOF) {
			t.Fatalf("cut %d: end of stream: %v, want io.EOF", cut, err)
		}
	}
}

// errKicked stands in for a read deadline that cut a read short.
var errKicked = errors.New("kicked")

// kickReader delivers the stream in the given chunks and fails once, with
// errKicked, between every two of them.
type kickReader struct {
	chunks [][]byte
	kick   bool
}

func (k *kickReader) Read(p []byte) (int, error) {
	if k.kick = !k.kick; !k.kick {
		return 0, errKicked
	}
	if len(k.chunks) == 0 {
		return 0, io.EOF
	}
	n := copy(p, k.chunks[0])
	if k.chunks[0] = k.chunks[0][n:]; len(k.chunks[0]) == 0 {
		k.chunks = k.chunks[1:]
	}
	return n, nil
}

// TestFrameReaderResumesAfterAKick: a Begin or a Body cut short by a failed
// read loses nothing.  Begin keeps what arrived of a header, Body hands
// back the payload as far as it got, and calling each again on what it
// returned reads on where the failure stopped it, cut wherever the failure
// lands.  Ready tells a whole carried frame from a part of one.
func TestFrameReaderResumesAfterAKick(t *testing.T) {
	a, b := bytes.Repeat([]byte("first frame "), 500), []byte("second")
	stream := append(frameBytes(t, a), frameBytes(t, b)...)
	for cut := 1; cut < len(stream); cut += 97 {
		fr := NewFrameReader(&kickReader{chunks: [][]byte{stream[:1], stream[1:cut], stream[cut:]}})
		for i, want := range [][]byte{a, b} {
			var have []byte
			var n int
			var err error
			for {
				if have, n, err = fr.Begin(nil); !errors.Is(err, errKicked) {
					break
				}
			}
			if err != nil || n != len(want) {
				t.Fatalf("cut %d: frame %d begins with length %d, %v", cut, i, n, err)
			}
			for {
				if have, err = fr.Body(have, n); !errors.Is(err, errKicked) {
					break
				}
			}
			if err != nil || !bytes.Equal(have, want) {
				t.Fatalf("cut %d: frame %d = %d bytes, %v", cut, i, len(have), err)
			}
		}
	}

	whole := frameBytes(t, b)
	for _, c := range []struct {
		carry []byte
		ready bool
	}{
		{whole[:2], false},
		{whole[:len(whole)-1], false},
		{whole, true},
		{append(bytes.Clone(whole), whole[:2]...), true},
	} {
		if got := (&FrameReader{carry: c.carry}).Ready(); got != c.ready {
			t.Errorf("Ready with %d of a %d-byte frame carried = %v", len(c.carry), len(whole), got)
		}
	}
}

// readAll runs next until it fails and returns the frames (copied) and the
// error that ended the stream.
func readAll(next func([]byte) ([]byte, error), after func()) (frames [][]byte, err error) {
	var buf []byte
	for {
		got, err := next(buf)
		if after != nil {
			after()
		}
		if err != nil {
			return frames, err
		}
		frames = append(frames, bytes.Clone(got))
		buf = got
	}
}

// FuzzFrameReader: a stream of valid frames with a hostile tail, delivered
// whole, a byte at a time and cut wherever the fuzzer likes, yields through
// the FrameReader exactly the frames and the final error that the exact
// header-then-body read yields on the same bytes: ErrTooLarge for a length
// above MaxFrameSize, io.ErrUnexpectedEOF for a stream that ends inside a
// header or a payload, io.EOF only on a frame boundary with nothing
// carried.  The carry never outgrows the read-ahead.
func FuzzFrameReader(f *testing.F) {
	f.Add([]byte{0, 0, 0, 60, 0, 60}, []byte{}, []byte{})
	f.Add([]byte{0, 10}, []byte{0xff, 0xff, 0xff, 0xff}, []byte{3})
	f.Add([]byte{0x20, 0x00, 0, 1}, []byte{0, 0}, []byte{0, 200, 1})                   // 8 KiB frame, truncated header
	f.Add([]byte{0x0f, 0xfc, 0, 0, 0x10, 0x00}, []byte{0, 0, 0, 9, 1, 2}, []byte{205}) // frames ending at the read-ahead's edge; truncated payload
	f.Add([]byte{}, []byte{0, 0, 0, 5}, []byte{})                                      // a header and nothing behind it
	f.Add([]byte{0, 1, 0, 2, 0, 3}, []byte{1, 0, 0, 1}, []byte{0, 0, 0, 0, 0})         // length one past MaxFrameSize
	f.Fuzz(func(t *testing.T, sizes, tail, cuts []byte) {
		var stream []byte
		for i := 0; i+1 < len(sizes) && i < 32; i += 2 {
			n := int(binary.BigEndian.Uint16(sizes[i:])) % (3 * readAhead)
			payload := make([]byte, n)
			for j := range payload {
				payload[j] = byte(i + j)
			}
			stream = append(stream, frameBytes(t, payload)...)
		}
		if len(tail) >= frameHeaderLen {
			// Keep a hostile length that passes the ceiling small: what is
			// under test is the framing, not a 16 MiB make.
			if n := binary.BigEndian.Uint32(tail); n <= MaxFrameSize {
				tail = bytes.Clone(tail)
				binary.BigEndian.PutUint32(tail, n%(4*readAhead))
			}
		}
		stream = append(stream, tail...)

		rd := bytes.NewReader(stream)
		want, wantErr := readAll(func(buf []byte) ([]byte, error) { return ReadFrameInto(rd, buf) }, nil)

		var chunks [][]byte
		rest := stream
		for _, c := range cuts {
			n := min(1+int(c)*20, len(rest))
			chunks, rest = append(chunks, rest[:n]), rest[n:]
		}
		chunks = append(chunks, rest)
		for name, r := range map[string]io.Reader{
			"whole":    bytes.NewReader(stream),
			"one byte": iotest.OneByteReader(bytes.NewReader(stream)),
			"data+err": iotest.DataErrReader(bytes.NewReader(stream)),
			"cut":      &chunkReader{chunks: chunks},
		} {
			fr := NewFrameReader(r)
			got, err := readAll(fr.Next, func() {
				if len(fr.carry) > readAhead || cap(fr.spill) > readAhead {
					t.Fatalf("%s: carry holds %d bytes in %d of storage, read-ahead is %d", name, len(fr.carry), cap(fr.spill), readAhead)
				}
			})
			if len(got) != len(want) {
				t.Fatalf("%s: %d frames, want %d (err %v, want %v)", name, len(got), len(want), err, wantErr)
			}
			for i := range got {
				if !bytes.Equal(got[i], want[i]) {
					t.Fatalf("%s: frame %d differs (%d bytes, want %d)", name, i, len(got[i]), len(want[i]))
				}
			}
			if !errors.Is(err, wantErr) {
				t.Fatalf("%s: stream ended with %v, want %v", name, err, wantErr)
			}
			if errors.Is(err, io.EOF) && len(fr.carry) != 0 {
				t.Fatalf("%s: clean EOF with %d bytes carried", name, len(fr.carry))
			}
		}
	})
}
