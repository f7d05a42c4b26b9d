package orb

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"sync/atomic"
	"testing"
	"testing/iotest"
	"time"

	"itv/internal/obs"
	"itv/internal/oref"
	"itv/internal/transport"
	"itv/internal/wire"
)

// Tests for the read side of the bulk reply (Endpoint.InvokeInto, DESIGN.md
// §12).  Unit level first: clientConn.readReply over a byte stream, where
// the split read and the whole-frame read of the same bytes can be held
// against each other and hostile frames fed in directly.  Then the whole
// client against a scripted peer, over memnet and TCP, for the write shapes,
// the stall, and the timer race.

// ---- unit level ----

// streamConn is a net.Conn whose reads come from r.
type streamConn struct {
	*scriptConn
	r io.Reader
}

func (c streamConn) Read(p []byte) (int, error) { return c.r.Read(p) }

// countingReader counts the bytes handed out.
type countingReader struct {
	r io.Reader
	n int
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += n
	return n, err
}

var unitMetrics = newEpMetrics("10.9.0.1")

// looplessConn builds a clientConn reading from stream with no read loop
// running, so the test calls readReply itself, and registers w under id.
func looplessConn(stream io.Reader, id uint64, w *waiter) *clientConn {
	conn := streamConn{newScriptConn(func(p []byte) (int, error) { return len(p), nil }), stream}
	cc := &clientConn{conn: conn, fr: wire.NewFrameReader(conn), m: unitMetrics,
		pending: make(map[uint64]*waiter)}
	cc.fw = frameWriter{conn: conn, m: unitMetrics, onErr: cc.writeFailed}
	cc.timer.t = newTimer(pExpire, cc.expire)
	cc.pending[id] = w
	w.state.Store(registered)
	return cc
}

// bulkReply is a statusOK reply to id whose body is blob as one byte string
// followed by rest.
func bulkReply(id uint64, blob, rest []byte) response {
	var body wire.Encoder
	body.PutBytes(blob)
	body.PutRaw(rest)
	return response{ReqID: id, Status: statusOK, Body: body.Bytes(), TraceID: 0x7ace, HLC: 0x41c}
}

func frameOf(t testing.TB, r *response) []byte {
	t.Helper()
	e := new(wire.Encoder)
	if err := wire.AppendFrame(e, r); err != nil {
		t.Fatal(err)
	}
	return e.Bytes()
}

// canary is what the unused end of a lent buffer is filled with.
const canary = 0xA5

// lentBuf returns a buffer of the given length and capacity whose every
// byte is the canary.
func lentBuf(length, capacity int) []byte {
	b := bytes.Repeat([]byte{canary}, capacity)
	return b[:length]
}

func allCanary(b []byte) bool {
	return bytes.Count(b, []byte{canary}) == len(b)
}

// TestSplitReadMatchesWholeRead is the property the read side rests on: for
// one and the same frame, a waiter that declared its leading string gets —
// through the split read — exactly what an undeclared waiter gets through
// the whole-frame read, the string sized under BytesInto's rule, and the
// read stops exactly where the frame does.
func TestSplitReadMatchesWholeRead(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	type sizes struct{ str, rest int }
	cases := []sizes{
		{flushCopyLimit, 0}, // at the limit: whole-frame read even when declared
		{flushCopyLimit, 11},
		{flushCopyLimit + 1, 0}, // one over: split; nothing behind the string
		{flushCopyLimit + 1, 11},
		{flushCopyLimit + 1, 3 * flushCopyLimit}, // a rest-of-body longer than the string
		{3 << 20, 5},
	}
	for i := 0; i < 12; i++ {
		cases = append(cases, sizes{1 + rng.Intn(4*flushCopyLimit), rng.Intn(300)})
	}
	dsts := []struct {
		name string
		make func(n int) []byte
	}{
		{"nil", func(int) []byte { return nil }},
		{"short", func(n int) []byte { return lentBuf(n/2, n/2) }},
		{"exact", func(n int) []byte { return lentBuf(n, n) }},
		{"longer", func(n int) []byte { return lentBuf(3, n+100) }},
	}
	const id = 7
	for _, sz := range cases {
		blob, rest := randBytes(rng, sz.str), randBytes(rng, sz.rest)
		for i := range rest {
			rest[i] &= 0x7f // one-byte varints, so the callback below can walk them
		}
		reply := bulkReply(id, blob, rest)
		// A small frame rides behind the big one: whoever reads a byte too
		// many or too few decodes garbage for it.
		stream := append(frameOf(t, &reply), frameOf(t, &response{ReqID: id + 1, HLC: 1})...)
		for _, oneByte := range []bool{false, true} {
			if oneByte && sz.str > 1<<20 {
				continue
			}
			// filling: the last read left w lent.
			var filling bool
			read := func(w *waiter) *respFrame {
				t.Helper()
				var r io.Reader = bytes.NewReader(stream)
				if oneByte {
					r = iotest.OneByteReader(r)
				}
				cc := looplessConn(r, id, w)
				rf := getRespFrame()
				got, cerr := cc.readReply(rf, nil)
				if cerr != nil || got != w {
					t.Fatalf("%+v oneByte=%v: readReply = %p, %v; want the registered waiter", sz, oneByte, got, cerr)
				}
				filling = w.state.Load()&lent != 0
				next := getRespFrame()
				defer putRespFrame(next)
				if _, cerr := cc.readReply(next, nil); cerr != nil || next.resp.ReqID != id+1 || next.resp.HLC != 1 {
					t.Fatalf("%+v oneByte=%v: the frame behind decoded as %+v, %v", sz, oneByte, next.resp, cerr)
				}
				return rf
			}
			whole := read(&waiter{})
			if whole.data != nil {
				t.Fatalf("%+v: an undeclared waiter got the split read", sz)
			}
			for _, dk := range dsts {
				dst := dk.make(sz.str)
				w := &waiter{into: true, dst: dst}
				split := read(w)
				if took := split.data != nil; took != (sz.str > flushCopyLimit) || took != filling {
					t.Fatalf("%+v dst=%s: split read taken = %v (filling %v), want exactly above flushCopyLimit",
						sz, dk.name, took, filling)
				}
				a, b := whole.resp, split.resp
				if a.ReqID != b.ReqID || a.Status != b.Status || a.TraceID != b.TraceID || a.HLC != b.HLC {
					t.Fatalf("%+v dst=%s: envelopes differ: whole %+v, split %+v", sz, dk.name, a, b)
				}
				// What the caller's callback ends up with, either way.
				var data, after []byte
				if err := decodeResponse(split, &results{into: func(b []byte, d *wire.Decoder) error {
					data = b
					after = make([]byte, d.Remaining())
					for i := range after {
						after[i] = byte(d.Uint())
					}
					return nil
				}}, dst); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(data, blob) {
					t.Fatalf("%+v dst=%s oneByte=%v: string damaged", sz, dk.name, oneByte)
				}
				if !bytes.Equal(after, rest) {
					t.Fatalf("%+v dst=%s: rest of body = %d bytes, want the %d sent", sz, dk.name, len(after), len(rest))
				}
				if cap(dst) >= sz.str {
					if &data[0] != &dst[:1][0] {
						t.Fatalf("%+v dst=%s: storage that sufficed was replaced", sz, dk.name)
					}
					if !allCanary(dst[sz.str:cap(dst)]) {
						t.Fatalf("%+v dst=%s: wrote past the string's end into lent storage", sz, dk.name)
					}
				} else if cap(data) != sz.str {
					t.Fatalf("%+v dst=%s: fresh storage has capacity %d, want exactly %d", sz, dk.name, cap(data), sz.str)
				}
				putRespFrame(split)
			}
			putRespFrame(whole)
		}
	}
}

// hostileReply is one malformed or cut-short reply stream addressed to a
// declared waiter with id 7, and how readReply must end on it.
type hostileReply struct {
	name    string
	stream  []byte
	claimed bool   // the waiter is returned, i.e. owed a delivery by the read loop
	op      string // ConnError.Op; "" for a clean read
}

// hostileReplies builds the frames a hostile or broken peer could answer a
// declared call with.  blobLen is the length of the string they carry (or
// pretend to).
func hostileReplies(blobLen int) []hostileReply {
	blob := bytes.Repeat([]byte{0x5a}, blobLen)
	uv := func(v uint64) []byte { return binary.AppendUvarint(nil, v) }
	cat := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	frame := func(payload []byte) []byte {
		return cat(binary.BigEndian.AppendUint32(nil, uint32(len(payload))), payload)
	}
	envelope := cat(uv(7), uv(statusOK), uv(0), uv(0)) // ReqID, Status, ErrName, ErrMsg
	body := cat(uv(uint64(blobLen)), blob)
	trailer := cat(uv(0x7ace), uv(0x41c))
	good := cat(envelope, uv(uint64(len(body))), body, trailer)

	lying := cat(uv(uint64(blobLen+100)), blob) // a string that claims more than its body holds
	huge := cat(uv(1<<62), blob)
	return []hostileReply{
		{"well formed", frame(good), true, ""},
		{"string length beyond the body",
			frame(cat(envelope, uv(uint64(len(lying))), lying, trailer)), false, ""},
		{"string length overflows",
			frame(cat(envelope, uv(uint64(len(huge))), huge, trailer)), false, ""},
		{"body length beyond the frame",
			frame(cat(envelope, uv(uint64(len(body)+1000)), body, trailer)), false, "decode"},
		{"body length overflows",
			frame(cat(envelope, uv(1<<63), body, trailer)), false, "decode"},
		{"empty body, a trace id that reads like a string length",
			frame(cat(envelope, uv(0), uv(uint64(blobLen)), uv(1), blob)), false, "decode"},
		{"truncated varint",
			frame(cat(bytes.Repeat([]byte{0xff}, 12), body, trailer)), false, "decode"},
		{"garbage after the tail", frame(cat(good, []byte{1, 2, 3})), true, "decode"},
		{"tail cut short", frame(good[:len(good)-len(uv(0x41c))]), true, "decode"},
		{"stream ends inside the string", frame(good)[:4+len(good)/2], true, "read"},
		{"stream ends inside the tail", frame(good)[:4+len(good)-1], true, "read"},
		{"stream ends inside the prefix", frame(good)[:4+splitPrefix/2], false, "read"},
		{"error status", frame(cat(uv(7), uv(statusApp), uv(1), []byte("E"), uv(0), uv(uint64(len(body))), body, trailer)), false, ""},
	}
}

// firstRead caps the first Read at n bytes (all of them when n is zero):
// the transport had only that much of the stream when the read loop asked.
type firstRead struct {
	r io.Reader
	n int
}

func (f *firstRead) Read(p []byte) (int, error) {
	if f.n > 0 {
		p = p[:min(len(p), f.n)]
		f.n = 0
	}
	return f.r.Read(p)
}

// frameReadAhead is wire's read-ahead: the most a frame read takes off the
// transport beyond the frame it is reading.
const frameReadAhead = 4 << 10

// checkHostile runs readReply over stream, whose first read brings in at
// most first bytes, for a declared waiter with a lent buffer and checks the
// invariants that hold whatever the bytes are: nothing read beyond the
// frame the header announced but a bounded read-ahead, which the next frame
// read gets to see in full; nothing written past the announced string;
// nothing written at all unless the waiter was claimed.
func checkHostile(t testing.TB, stream []byte, first, dstCap int) (w, got *waiter, filling bool, cerr *ConnError, rf *respFrame) {
	t.Helper()
	const slack = 64
	dst := lentBuf(0, dstCap+slack)
	w = &waiter{into: true, dst: dst[:0:dstCap]}
	cr := &countingReader{r: &firstRead{r: bytes.NewReader(stream), n: first}}
	cc := looplessConn(cr, 7, w)
	rf = getRespFrame()
	got, cerr = cc.readReply(rf, nil)

	if len(stream) >= 4 {
		if n := int(binary.BigEndian.Uint32(stream)); n <= wire.MaxFrameSize {
			if cr.n > max(4+n, frameReadAhead) {
				t.Fatalf("read %d bytes for a %d-byte frame", cr.n-4, n)
			}
			if cerr == nil {
				// What was read ahead is the next frame's, every byte of it.
				want, wantErr := wire.ReadFrameInto(bytes.NewReader(stream[4+n:]), nil)
				next, err := cc.fr.Next(nil)
				if !bytes.Equal(next, want) || !errors.Is(err, wantErr) {
					t.Fatalf("the frame behind read as %d bytes, %v; want %d bytes, %v", len(next), err, len(want), wantErr)
				}
			}
		}
	}
	if got != nil && got != w {
		t.Fatalf("readReply claimed a waiter nobody registered")
	}
	filling = w.state.Load()&lent != 0
	if got != w && filling {
		t.Fatal("waiter marked filling but not returned: its delivery is lost")
	}
	full := dst[:cap(dst)]
	if !filling && !allCanary(full) {
		t.Fatal("lent storage written without a claim")
	}
	if !allCanary(full[dstCap:]) {
		t.Fatal("wrote past the end of the lent storage")
	}
	if cerr == nil && rf.data != nil && len(rf.data) <= dstCap && &rf.data[0] != &full[0] {
		t.Fatal("storage that sufficed was replaced")
	}
	return w, got, filling, cerr, rf
}

// TestSplitReadHostilePrefixes: a prefix that does not parse cleanly falls
// back to the whole-frame read, which fails or succeeds as it always has;
// a frame that turns bad after the claim still owes the waiter its
// delivery.
func TestSplitReadHostilePrefixes(t *testing.T) {
	const blobLen = flushCopyLimit + 10
	// However much of the frame the first read brings in: the header alone,
	// less than splitPrefix, more, everything.
	firsts := []int{4, 4 + splitPrefix/2, 4 + splitPrefix + 100, 0}
	for i, h := range hostileReplies(blobLen) {
		w, got, filling, cerr, rf := checkHostile(t, h.stream, firsts[i%len(firsts)], blobLen)
		op := ""
		if cerr != nil {
			op = cerr.Op
		}
		if op != h.op || (got == w) != (h.claimed || h.op == "") {
			t.Errorf("%s: readReply = waiter %v, op %q; want waiter %v, op %q",
				h.name, got == w, op, h.claimed || h.op == "", h.op)
		}
		if filling != h.claimed {
			t.Errorf("%s: waiter claimed for the split read = %v, want %v", h.name, filling, h.claimed)
		}
		if h.op == "decode" && !errors.Is(cerr, wire.ErrTruncated) {
			t.Errorf("%s: decode failure carries %v, want wire.ErrTruncated as the whole-frame read reports", h.name, cerr.Err)
		}
		if h.op == "" && !h.claimed && rf.resp.Status == statusOK {
			// The whole-frame read took it: the body is opaque to the read
			// loop, so the lie surfaces where it always has — in the
			// caller's decode — and never reaches lent storage.
			err := decodeResponse(rf, &results{into: func([]byte, *wire.Decoder) error { return nil }}, w.dst)
			if !IsApp(err, ExcBadArgs) {
				t.Errorf("%s: caller's decode = %v, want %s", h.name, err, ExcBadArgs)
			}
			if !allCanary(w.dst[:cap(w.dst)]) {
				t.Errorf("%s: a failed decode wrote into lent storage", h.name)
			}
		}
		putRespFrame(rf)
	}
}

// FuzzReadReply: whatever bytes arrive, the read loop's frame read does not
// panic, does not read past the frame, and writes lent storage only inside
// the bounds it claimed.
func FuzzReadReply(f *testing.F) {
	// A small frame rides directly behind each reply: what the read loop
	// reads ahead must reach neither lent storage nor the floor.
	behind := frameOf(f, &response{ReqID: 8, HLC: 1})
	for _, h := range hostileReplies(flushCopyLimit + 10) {
		piped := append(bytes.Clone(h.stream), behind...)
		f.Add(h.stream, uint16(0), uint16(flushCopyLimit>>4))
		f.Add(h.stream, uint16(4+splitPrefix/2), uint16(0))
		f.Add(piped, uint16(4+splitPrefix+100), uint16(flushCopyLimit>>4))
		f.Add(piped, uint16(4), uint16(flushCopyLimit>>4))
		f.Add(append(bytes.Clone(behind), h.stream...), uint16(0), uint16(flushCopyLimit>>4))
	}
	f.Add([]byte{0, 0, 0, 3, 7, 0, 0}, uint16(0), uint16(9))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff}, uint16(2), uint16(9))
	f.Fuzz(func(t *testing.T, stream []byte, first, dstCap uint16) {
		_, _, _, _, rf := checkHostile(t, stream, int(first), int(dstCap)<<4)
		putRespFrame(rf)
	})
}

// ---- the whole client against a scripted peer ----

// scriptedPeer listens on tr and answers every request frame that arrives
// by calling reply with the connection and the request's id; reply writes
// whatever bytes, in whatever pieces, the case calls for.  It returns a
// reference that routes calls to the peer.
func scriptedPeer(t *testing.T, tr transport.Transport, reply func(c net.Conn, id uint64)) oref.Ref {
	ref, stop := peerOn(tr, func(c net.Conn) {
		var dec wire.Decoder
		for frame, err := wire.ReadFrameInto(c, nil); err == nil; frame, err = wire.ReadFrameInto(c, frame) {
			var req request
			dec.Reset(frame)
			req.UnmarshalWire(&dec)
			reply(c, req.ReqID)
		}
	})
	t.Cleanup(stop)
	return ref
}

// intoResult is everything a bulk call hands its caller.
type intoResult struct {
	data  []byte
	label string
	n     int64
	trace uint64
	hlc   obs.HLCTime
	err   error
}

// bulkRest is the {string, int} that callBulk expects behind the blob.
func bulkRest() *wire.Encoder {
	var rest wire.Encoder
	rest.PutString("behind")
	rest.PutInt(-7)
	return &rest
}

// callBulk invokes method on ref, declared (InvokeInto with dst) or not,
// for results shaped {bytes, string, int}.
func callBulk(e *Endpoint, ref oref.Ref, method string, declared bool, dst []byte) intoResult {
	var r intoResult
	var ts obs.TraceSink
	var cs obs.ClockSink
	ctx := obs.WithClockSink(obs.WithTraceSink(context.Background(), &ts), &cs)
	if declared {
		r.err = e.InvokeInto(ctx, ref, method, nil, dst, func(b []byte, d *wire.Decoder) error {
			r.data, r.label, r.n = b, d.String(), d.Int()
			return nil
		})
	} else {
		r.err = e.InvokeCtx(ctx, ref, method, nil, func(d *wire.Decoder) error {
			r.data, r.label, r.n = d.Bytes(), d.String(), d.Int()
			return nil
		})
	}
	r.trace, r.hlc = ts.Trace(), cs.Last()
	return r
}

// TestInvokeIntoMatchesInvokeOverTransports: over memnet and TCP, and for
// every way the peer's bytes can arrive — one write, one byte per write,
// the head/segment/tail of a vectored reply — a declared call returns what
// an undeclared call returns, into the storage it lent.
func TestInvokeIntoMatchesInvokeOverTransports(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	rest := bulkRest()

	type shape func(c net.Conn, id uint64, blob []byte) error
	shapes := map[string]shape{
		"one write": func(c net.Conn, id uint64, blob []byte) error {
			r := bulkReply(id, blob, rest.Bytes())
			_, err := c.Write(frameOf(t, &r))
			return err
		},
		"byte by byte": func(c net.Conn, id uint64, blob []byte) error {
			r := bulkReply(id, blob, rest.Bytes())
			for _, b := range frameOf(t, &r) {
				if _, err := c.Write([]byte{b}); err != nil {
					return err
				}
			}
			return nil
		},
		// The server's own write path for a lent segment: three pieces on
		// memnet, one writev on TCP.
		"vectored": func(c net.Conn, id uint64, blob []byte) error {
			s := getScratch()
			defer putScratch(s)
			s.call.PutBytesRef(blob)
			s.results.PutRaw(rest.Bytes())
			r := response{ReqID: id, Status: statusOK, Body: s.results.Bytes(), TraceID: 0x7ace, HLC: 0x41c}
			r.seg, r.segAt = s.call.takeSeg()
			qf, err := encodeResponse(&r)
			if err != nil {
				return err
			}
			var werr error
			fw := &frameWriter{conn: c, onErr: func(err error) { werr = err }}
			fw.sendFrame(qf)
			return werr
		},
	}
	for nwName, trs := range seatTransports() {
		var blob atomic.Pointer[[]byte]
		var write atomic.Pointer[shape]
		ref := scriptedPeer(t, trs[0], func(c net.Conn, id uint64) {
			if err := (*write.Load())(c, id, *blob.Load()); err != nil {
				t.Errorf("%s: peer write: %v", nwName, err)
			}
		})
		client, err := NewEndpoint(trs[1])
		if err != nil {
			t.Fatal(err)
		}
		defer client.Close()
		for name, sh := range shapes {
			sh := sh
			write.Store(&sh)
			for _, size := range []int{flushCopyLimit, flushCopyLimit + 1, 1 << 20} {
				if name == "byte by byte" && size > flushCopyLimit+1 {
					continue
				}
				b := randBytes(rng, size)
				blob.Store(&b)
				want := callBulk(client, ref, "get", false, nil)
				if want.err != nil || !bytes.Equal(want.data, b) || want.label != "behind" || want.n != -7 ||
					want.trace != 0x7ace || want.hlc != 0x41c {
					t.Fatalf("%s %s %d: undeclared call = %d bytes, %q, %d, trace %x, hlc %x, %v",
						nwName, name, size, len(want.data), want.label, want.n, want.trace, want.hlc, want.err)
				}
				for _, dst := range [][]byte{nil, lentBuf(0, size), lentBuf(0, size+9)} {
					got := callBulk(client, ref, "get", true, dst)
					if got.err != nil || !bytes.Equal(got.data, b) || got.label != want.label || got.n != want.n ||
						got.trace != want.trace || got.hlc != want.hlc {
						t.Fatalf("%s %s %d: declared call = %d bytes, %q, %d, trace %x, hlc %x, %v; undeclared got %q, %d",
							nwName, name, size, len(got.data), got.label, got.n, got.trace, got.hlc, got.err, want.label, want.n)
					}
					if dst == nil && cap(got.data) != size {
						t.Fatalf("%s %s %d: fresh storage has capacity %d", nwName, name, size, cap(got.data))
					}
					if dst != nil && (&got.data[0] != &dst[:1][0] || !allCanary(dst[size:cap(dst)])) {
						t.Fatalf("%s %s %d: lent storage replaced or overrun", nwName, name, size)
					}
				}
			}
		}
	}
}

// TestInvokeIntoRemoteAndLocal extends the remote≡local property to the
// declared entry point: with a lent segment (read straight in remotely,
// copied once locally) and without one (a blob small enough to be copied
// into the results), remote and same-process callers get identical
// results under the identical storage rule.
func TestInvokeIntoRemoteAndLocal(t *testing.T) {
	server, client, _, _ := newPair(t)
	rng := rand.New(rand.NewSource(23))
	for _, size := range []int{64, flushCopyLimit, flushCopyLimit + 1, 3 << 20} {
		sk := &blobSkel{blob: randBytes(rng, size)}
		ref := server.Register(fmt.Sprintf("blob-%d", size), sk)
		for name, ep := range map[string]*Endpoint{"remote": client, "local": server} {
			for _, dst := range [][]byte{nil, lentBuf(0, size/2), lentBuf(0, size), lentBuf(0, size+9)} {
				got := callBulk(ep, ref, "lead", true, dst)
				if got.err != nil || !bytes.Equal(got.data, sk.blob) || got.label != "behind" || got.n != -7 {
					t.Fatalf("%s %d: lead = %d bytes, %q, %d, %v", name, size, len(got.data), got.label, got.n, got.err)
				}
				if cap(dst) >= size {
					if &got.data[0] != &dst[:1][0] || !allCanary(dst[size:cap(dst)]) {
						t.Fatalf("%s %d: lent storage replaced or overrun", name, size)
					}
				} else if cap(got.data) != size {
					t.Fatalf("%s %d: fresh storage has capacity %d", name, size, cap(got.data))
				}
				if size > flushCopyLimit && &got.data[0] == &sk.blob[0] {
					t.Fatalf("%s: the caller was handed the service's own slice", name)
				}
			}
			// A segment that is not the leading result: the declaration
			// names the small string in front, and the blob behind it is
			// decoded the ordinary way on both paths.
			var head, blob []byte
			var n int64
			err := ep.InvokeInto(context.Background(), ref, "get", nil, nil, func(b []byte, d *wire.Decoder) error {
				head, blob, n = b, d.Bytes(), d.Int()
				return nil
			})
			if err != nil || string(head) != "head" || !bytes.Equal(blob, sk.blob) || n != -7 {
				t.Fatalf("%s %d: get = %q, %d bytes, %d, %v", name, size, head, len(blob), n, err)
			}
		}
	}
}

// TestInvokeIntoErrorRepliesUnchanged: a declared call answered by an
// error — small, oversize-refusal, or an error frame that is itself large —
// reports what an undeclared call reports, never runs its callback, leaves
// lent storage alone and keeps the connection; and an undeclared call
// answered by a large reply still takes the whole-frame read.
func TestInvokeIntoErrorRepliesUnchanged(t *testing.T) {
	server, client, _, echoRef := newPair(t)
	sk := &blobSkel{blob: randBytes(rand.New(rand.NewSource(24)), 3*flushCopyLimit)}
	ref := server.Register("blob", sk)
	oversize := server.Register("oversize", &blobSkel{blob: make([]byte, wire.MaxFrameSize+1)})
	if _, err := echo(t, client, echoRef, "warm"); err != nil {
		t.Fatal(err)
	}
	dials := client.metrics.poolDials.Value()

	for method, exc := range map[string]string{"missing": ExcNotFound, "lead": ExcTooLarge, "verbose": "Verbose", "nope": ""} {
		ref := ref
		if method == "lead" {
			ref = oversize
		}
		want := client.Invoke(ref, method, nil, func(*wire.Decoder) error { return nil })
		dst := lentBuf(0, len(sk.blob))
		ran := false
		got := client.InvokeInto(context.Background(), ref, method, nil, dst, func([]byte, *wire.Decoder) error {
			ran = true
			return nil
		})
		if got == nil || want == nil || got.Error() != want.Error() {
			t.Fatalf("%s: declared call = %v, undeclared = %v", method, got, want)
		}
		if exc != "" && !IsApp(got, exc) {
			t.Fatalf("%s: err = %v, want %s", method, got, exc)
		}
		if exc == "" && !errors.Is(got, ErrNoSuchMethod) {
			t.Fatalf("%s: err = %v, want ErrNoSuchMethod", method, got)
		}
		if ran || !allCanary(dst[:cap(dst)]) {
			t.Fatalf("%s: an error reply ran the callback (%v) or touched lent storage", method, ran)
		}
	}
	if got := callBulk(client, ref, "lead", false, nil); got.err != nil || !bytes.Equal(got.data, sk.blob) || got.n != -7 {
		t.Fatalf("undeclared call for a large reply: %d bytes, %d, %v", len(got.data), got.n, got.err)
	}
	if n := client.metrics.poolDials.Value(); n != dials {
		t.Fatalf("pool dials %d -> %d: an error reply cost the connection", dials, n)
	}
}

// stallingPeer answers each request with the first cut bytes of a bulk
// reply and then nothing, until the test closes release (after which it
// tries to send the rest).
func stallingPeer(t *testing.T, tr transport.Transport, blob []byte, release chan struct{}) oref.Ref {
	return scriptedPeer(t, tr, func(c net.Conn, id uint64) {
		r := bulkReply(id, blob, nil)
		frame := frameOf(t, &r)
		cut := 4 + len(frame)/2
		if _, err := c.Write(frame[:cut]); err != nil {
			return
		}
		<-release
		c.Write(frame[cut:]) // into a closed connection, for a declared caller
	})
}

// TestDeclaredCallStalledMidBodyTimesOut: a peer that sends the header and
// half the body and stalls holds a claimed waiter.  The call must still
// return at its deadline — by severing the connection, which is dead to
// every call behind the half-read frame anyway — with Op "timeout", and
// only after the read loop has let go of the lent storage: the test
// scribbles over dst the moment the call returns, which under -race would
// collide with a read loop still filling it.
func TestDeclaredCallStalledMidBodyTimesOut(t *testing.T) {
	for nwName, trs := range seatTransports() {
		release := make(chan struct{})
		blob := bytes.Repeat([]byte{0x5a}, 1<<20)
		ref := stallingPeer(t, trs[0], blob, release)
		client, err := NewEndpoint(trs[1])
		if err != nil {
			t.Fatal(err)
		}
		defer client.Close()
		const timeout = 150 * time.Millisecond
		client.SetCallTimeout(timeout)
		timeouts := counterDelta(client.Metrics(), "orb_call_timeouts")

		dst := make([]byte, len(blob))
		start := time.Now()
		got := callBulk(client, ref, "get", true, dst)
		took := time.Since(start)
		for i := range dst {
			dst[i] = 0 // ours again: nothing may still be writing it
		}
		close(release)

		var ce *ConnError
		if !errors.As(got.err, &ce) || ce.Op != "timeout" {
			t.Fatalf("%s: err = %v, want a ConnError with Op timeout", nwName, got.err)
		}
		if got.data != nil {
			t.Fatalf("%s: a timed-out call ran its callback", nwName)
		}
		if took < timeout || took > timeout+2*time.Second {
			t.Fatalf("%s: call took %s, want its %s timeout plus one Close", nwName, took, timeout)
		}
		if n := timeouts(); n != 1 {
			t.Fatalf("%s: orb_call_timeouts moved by %d, want 1", nwName, n)
		}
		client.mu.Lock()
		cc := client.conns[ref.Addr]
		client.mu.Unlock()
		if cc == nil || !cc.dead.Load() {
			t.Fatalf("%s: the connection behind a half-read frame is still pooled as live", nwName)
		}
		if ConnClass(cc.failure()) != "timeout" {
			t.Fatalf("%s: connection failure recorded as %v, want the timeout", nwName, cc.failure())
		}
		if !bytes.Equal(dst, make([]byte, len(dst))) {
			t.Fatalf("%s: lent storage was written after the call returned", nwName)
		}
	}
}

// TestUndeclaredCallStalledMidBodyKeepsConnection: the same stall under an
// undeclared call is today's timeout — nothing claimed, the connection
// stays up for whoever shares it.
func TestUndeclaredCallStalledMidBodyKeepsConnection(t *testing.T) {
	trs := seatTransports()["memnet"]
	release := make(chan struct{})
	defer close(release)
	ref := stallingPeer(t, trs[0], make([]byte, 1<<20), release)
	client, err := NewEndpoint(trs[1])
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	client.SetCallTimeout(100 * time.Millisecond)
	got := callBulk(client, ref, "get", false, nil)
	var ce *ConnError
	if !errors.As(got.err, &ce) || ce.Op != "timeout" {
		t.Fatalf("err = %v, want a ConnError with Op timeout", got.err)
	}
	client.mu.Lock()
	cc := client.conns[ref.Addr]
	client.mu.Unlock()
	if cc == nil || cc.dead.Load() {
		t.Fatal("an undeclared call's timeout cost the connection")
	}
}

// TestBulkReplyRacingTimer: a declared reply whose second half lands around
// the call's deadline.  Whichever wins, the call returns its own payload or
// a timeout — never a previous call's delivery left behind in a pooled
// waiter — and every waiter back in the pool is empty (bulkRace).
func TestBulkReplyRacingTimer(t *testing.T) { explorePins(t) }

var bulkRace = scenario{"bulk race", func(x *explorer) error {
	const timeout = 2 * time.Millisecond
	var seq atomic.Uint64
	nw := transport.NewNetwork()
	ref, stop := peerOn(nw.Host("192.168.39.6"), func(c net.Conn) {
		var dec wire.Decoder
		for frame, err := wire.ReadFrameInto(c, nil); err == nil; frame, err = wire.ReadFrameInto(c, frame) {
			var req request
			dec.Reset(frame)
			req.UnmarshalWire(&dec)
			n := seq.Load()
			blob := make([]byte, flushCopyLimit+8)
			binary.BigEndian.PutUint64(blob, n)
			r := bulkReply(req.ReqID, blob, bulkRest().Bytes())
			e := new(wire.Encoder)
			wire.AppendFrame(e, &r)
			c.Write(e.Bytes()[:e.Len()/2])
			x.sleep(time.Duration(n%5) * timeout / 2)
			c.Write(e.Bytes()[e.Len()/2:])
		}
	})
	defer stop()
	client, err := NewEndpoint(nw.Host("10.39.0.9"))
	if err != nil {
		return err
	}
	defer client.Close()
	client.SetCallTimeout(timeout)
	dst := make([]byte, flushCopyLimit+8)
	for i := 1; i <= 10; i++ {
		seq.Store(uint64(i))
		switch got := callBulk(client, ref, "get", true, dst); {
		case got.err == nil:
			if n := binary.BigEndian.Uint64(got.data); n != uint64(i) {
				return fmt.Errorf("call %d returned call %d's payload: a stale delivery sat in a pooled waiter", i, n)
			}
		case ConnClass(got.err) != "timeout" && !Dead(got.err):
			// The next call can meet the connection the last one severed
			// before the pool notices; that is a read error, not a stale
			// delivery.
			return fmt.Errorf("call %d: %v", i, got.err)
		}
	}
	for i := 0; i < 64; i++ {
		w := waiterPool.Get().(*waiter)
		if len(w.ch) != 0 {
			return errors.New("a pooled waiter holds an undelivered frame")
		}
		if w.into || w.dst != nil || w.due != 0 {
			return fmt.Errorf("a pooled waiter kept its declaration: %+v", w)
		}
	}
	return nil
}}
