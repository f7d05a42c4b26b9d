package orb

import (
	"bytes"
	"hash/crc32"
	"math/rand"
	"net"
	"strings"
	"sync"
	"testing"

	"itv/internal/oref"
	"itv/internal/transport"
	"itv/internal/wire"
)

// Tests for the bulk reply mechanism (ServerCall.PutBytesRef, DESIGN.md
// §12): the split frame is the bytes the contiguous frame would be, over
// every write shape and through the local short-circuit; the transports'
// WriteBuffers makes it one frame write; a reply too large for a frame is
// refused by name instead of costing the connection.

// blobSkel serves one blob four ways: lent to the reply between two small
// results ("get"), lent as the leading result ("lead"), lent twice
// ("twice"), and copied ("copy"); copies its argument back ("mirror"); and
// fails two ways, briefly ("missing") and with an error whose own frame is
// larger than flushCopyLimit ("verbose"), which the client's read loop meets
// on its prefix path.
type blobSkel struct {
	mu   sync.Mutex
	blob []byte
}

func (s *blobSkel) TypeID() string { return "test.Blob" }

func (s *blobSkel) set(b []byte) {
	s.mu.Lock()
	s.blob = b
	s.mu.Unlock()
}

func (s *blobSkel) Dispatch(c *ServerCall) error {
	s.mu.Lock()
	blob := s.blob
	s.mu.Unlock()
	switch c.Method() {
	case "get":
		c.Results().PutString("head")
		c.PutBytesRef(blob)
		c.Results().PutInt(-7)
	case "lead":
		c.PutBytesRef(blob)
		c.Results().PutString("behind")
		c.Results().PutInt(-7)
	case "twice":
		c.PutBytesRef(blob)
		c.PutBytesRef(blob)
	case "copy":
		c.Results().PutBytes(blob)
	case "mirror":
		c.Results().PutBytes(c.Args().BytesView())
	case "missing":
		return Errf(ExcNotFound, "no item %q", "ghost")
	case "verbose":
		return Errf("Verbose", "%s", strings.Repeat("x", 2*flushCopyLimit))
	default:
		return ErrNoSuchMethod
	}
	return nil
}

// getBlob invokes blobSkel's "get" and returns the three results.
func getBlob(e *Endpoint, ref oref.Ref) (head string, blob []byte, tail int64, err error) {
	err = e.Invoke(ref, "get", nil, func(d *wire.Decoder) error {
		head, blob, tail = d.String(), d.Bytes(), d.Int()
		return nil
	})
	return
}

func randBytes(rng *rand.Rand, n int) []byte {
	b := make([]byte, n)
	rng.Read(b)
	return b
}

// collectConn records everything written to it, one entry per write
// operation.
type collectConn struct {
	*scriptConn
	writes [][]byte
}

func newCollectConn() *collectConn {
	c := &collectConn{}
	c.scriptConn = newScriptConn(func(p []byte) (int, error) {
		c.writes = append(c.writes, append([]byte(nil), p...))
		return len(p), nil
	})
	return c
}

func (c *collectConn) stream() []byte { return bytes.Join(c.writes, nil) }

// vectoredConn is a collectConn that also offers the transports'
// WriteBuffers; a separate type because frameWriter discovers the method by
// type assertion.
type vectoredConn struct{ *collectConn }

func (c vectoredConn) WriteBuffers(bufs *net.Buffers) (int64, error) {
	all := bytes.Join(*bufs, nil)
	c.writes = append(c.writes, all)
	return int64(len(all)), nil
}

// replyVia builds a reply the way a skeleton does — raw head, PutBytesRef of
// each segment, raw tail — and returns the response record ready to frame,
// plus the same response with a contiguous body as the reference.
func replyVia(s *callScratch, rng *rand.Rand, head []byte, segs [][]byte, tail []byte) (split, contig response) {
	var ref wire.Encoder
	s.results.Reset()
	s.results.PutRaw(head)
	ref.PutRaw(head)
	for _, seg := range segs {
		s.call.PutBytesRef(seg)
		ref.PutBytes(seg)
	}
	s.results.PutRaw(tail)
	ref.PutRaw(tail)
	contig = response{ReqID: rng.Uint64(), Status: statusOK, Body: ref.Bytes(),
		TraceID: rng.Uint64(), HLC: rng.Uint64()}
	split = contig
	split.Body = s.results.Bytes()
	split.seg, split.segAt = s.call.takeSeg()
	return split, contig
}

// TestSplitFrameMatchesContiguous is the property the mechanism rests on:
// whatever the sizes around and of the borrowed segment, the bytes on the
// wire are the bytes AppendFrame produces for the same response with the
// segment copied into its body.
func TestSplitFrameMatchesContiguous(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	s := getScratch()
	defer putScratch(s)

	type sizes struct{ head, seg, tail int }
	cases := []sizes{
		{0, flushCopyLimit, 0},     // at the limit: copied
		{0, flushCopyLimit + 1, 0}, // one over: lent; nothing around it
		{5, flushCopyLimit + 1, 0}, // empty tail
		{0, flushCopyLimit + 1, 9}, // empty head
		{3, 0, 3},
		{1 << 10, 3 << 20, 1 << 10},
	}
	for i := 0; i < 40; i++ {
		cases = append(cases, sizes{rng.Intn(300), rng.Intn(4 * flushCopyLimit), rng.Intn(300)})
	}
	for _, vectored := range []bool{false, true} {
		for _, sz := range cases {
			seg := randBytes(rng, sz.seg)
			split, contig := replyVia(s, rng, randBytes(rng, sz.head), [][]byte{seg}, randBytes(rng, sz.tail))
			if lent := split.seg != nil; lent != (sz.seg > flushCopyLimit) {
				t.Fatalf("%+v: segment lent = %v, want lending exactly above flushCopyLimit", sz, lent)
			}
			want, err := encodeFrame(&contig, 0)
			if err != nil {
				t.Fatal(err)
			}
			qf, err := encodeResponse(&split)
			if err != nil {
				t.Fatal(err)
			}
			if split.seg != nil {
				t.Fatalf("%+v: encodeResponse left the loan with the response", sz)
			}
			lent := qf.seg != nil
			cc := newCollectConn()
			fw := &frameWriter{conn: cc}
			if vectored {
				fw.conn = vectoredConn{cc}
			}
			fw.sendFrame(qf)
			if !bytes.Equal(cc.stream(), want.Bytes()) {
				t.Fatalf("%+v vectored=%v: wire bytes differ from the contiguous frame (%d vs %d bytes)",
					sz, vectored, len(cc.stream()), want.Len())
			}
			wantWrites := 1
			if lent && !vectored {
				wantWrites = 3 // head, segment, tail through plain Writes
			}
			if len(cc.writes) != wantWrites {
				t.Fatalf("%+v vectored=%v: %d write operations, want %d", sz, vectored, len(cc.writes), wantWrites)
			}
			wire.PutEncoder(want)
		}
	}
}

// TestPutBytesRefTwiceCopiesSecond: a reply lends one segment; the second
// large PutBytesRef degrades to a copy and the bytes are still right.
func TestPutBytesRefTwiceCopiesSecond(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	s := getScratch()
	defer putScratch(s)
	a, b := randBytes(rng, flushCopyLimit+100), randBytes(rng, flushCopyLimit+200)
	split, contig := replyVia(s, rng, []byte("h"), [][]byte{a, b}, []byte("t"))
	if &split.seg[0] != &a[0] || len(split.seg) != len(a) {
		t.Fatal("the first segment was not the one lent")
	}
	if !bytes.Contains(split.Body, b) {
		t.Fatal("the second segment was not copied into the results")
	}
	want, err := encodeFrame(&contig, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer wire.PutEncoder(want)
	qf, err := encodeResponse(&split)
	if err != nil {
		t.Fatal(err)
	}
	cc := newCollectConn()
	(&frameWriter{conn: cc}).sendFrame(qf)
	if !bytes.Equal(cc.stream(), want.Bytes()) {
		t.Fatal("wire bytes differ from the contiguous frame")
	}
}

// TestSegmentReplyRemoteAndLocal: a skeleton that lends a segment gives
// remote and same-process callers the identical results.
func TestSegmentReplyRemoteAndLocal(t *testing.T) {
	server, client, _, _ := newPair(t)
	blob := randBytes(rand.New(rand.NewSource(19)), 3<<20)
	ref := server.Register("blob", &blobSkel{blob: blob})

	for name, ep := range map[string]*Endpoint{"remote": client, "local": server} {
		head, got, tail, err := getBlob(ep, ref)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if head != "head" || tail != -7 || !bytes.Equal(got, blob) {
			t.Fatalf("%s: results = %q, %d bytes (crc %08x), %d; want \"head\", the blob (crc %08x), -7",
				name, head, len(got), crc32.ChecksumIEEE(got), tail, crc32.ChecksumIEEE(blob))
		}
		var a, b []byte
		err = ep.Invoke(ref, "twice", nil, func(d *wire.Decoder) error {
			a, b = d.Bytes(), d.Bytes()
			return nil
		})
		if err != nil || !bytes.Equal(a, blob) || !bytes.Equal(b, blob) {
			t.Fatalf("%s: twice-lent reply damaged (err %v)", name, err)
		}
	}
	if n := server.Stats().LocalCalls; n != 2 {
		t.Fatalf("local calls = %d, want 2 (the local leg must short-circuit)", n)
	}
}

// TestSegmentReplyIsOneFrameOverTCP: over real TCP a 3 MiB borrowed-segment
// reply is one frame write (one writev), not one per buffer.  Every
// transport.TCP() endpoint reports into the loopback node's counters, so
// the delta below is the caller's request frame plus the server's reply.
func TestSegmentReplyIsOneFrameOverTCP(t *testing.T) {
	tr := transport.TCP()
	src := tr.(transport.StatsSource)
	before := src.Stats()
	server, err := NewEndpoint(tr)
	if err != nil {
		t.Fatal(err)
	}
	defer server.Close()
	client, err := NewEndpoint(tr)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	blob := randBytes(rand.New(rand.NewSource(20)), 3<<20)
	ref := server.Register("blob", &blobSkel{blob: blob})

	_, got, _, err := getBlob(client, ref)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, blob) {
		t.Fatal("blob damaged over TCP")
	}
	// A write is counted after it returns, which can be after the peer has
	// read it and moved on; Close waits for the server's workers.
	server.Close()
	d := src.Stats().Sub(before)
	if d.FramesSent != 2 {
		t.Fatalf("frames sent = %d, want 2 (one request, one vectored reply)", d.FramesSent)
	}
	if d.BytesSent != d.BytesRecv || d.BytesSent < int64(len(blob)) {
		t.Fatalf("bytes sent %d / received %d for a %d-byte blob", d.BytesSent, d.BytesRecv, len(blob))
	}
}

// TestOversizeReplyIsRefusedNotFatal: a reply past wire.MaxFrameSize — lent
// or copied — comes back as an ExcTooLarge application error; the
// connection, and the calls multiplexed on it, survive.
func TestOversizeReplyIsRefusedNotFatal(t *testing.T) {
	server, client, _, echoRef := newPair(t)
	sk := &blobSkel{blob: make([]byte, wire.MaxFrameSize+1)}
	ref := server.Register("blob", sk)
	if _, err := echo(t, client, echoRef, "warm"); err != nil {
		t.Fatal(err)
	}
	dials := client.metrics.poolDials.Value()

	for _, method := range []string{"get", "copy"} {
		err := client.Invoke(ref, method, nil, func(*wire.Decoder) error { return nil })
		if !IsApp(err, ExcTooLarge) {
			t.Fatalf("%s: err = %v, want %s", method, err, ExcTooLarge)
		}
		if Dead(err) {
			t.Fatalf("%s: an oversize reply must not send the caller re-resolving: %v", method, err)
		}
		if out, err := echo(t, client, echoRef, "still here"); err != nil || out != "still here" {
			t.Fatalf("after oversize %s: echo = %q, %v", method, out, err)
		}
	}
	if n := client.metrics.poolDials.Value(); n != dials {
		t.Fatalf("pool dials %d -> %d: the oversize reply cost the connection", dials, n)
	}

	// The same object serves again once its blob fits.
	sk.set([]byte("small"))
	if _, got, _, err := getBlob(client, ref); err != nil || string(got) != "small" {
		t.Fatalf("after shrinking: %q, %v", got, err)
	}
}
