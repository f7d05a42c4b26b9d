package orb

import (
	"bytes"
	"context"
	"errors"
	"testing"
	"time"

	"itv/internal/wire"
)

// FuzzRequestRoundTrip: a request marshals and unmarshals losslessly, and
// re-marshaling the decoded record reproduces the original bytes exactly.
// Byte-exactness matters beyond field equality: the per-call signature and
// the frame pools both assume one canonical encoding per record.  The
// decoded record holds its three strings as views; the signature payload
// the server builds from those must be the bytes the client signed.
func FuzzRequestRoundTrip(f *testing.F) {
	f.Add(uint64(1), "mms/catalog", int64(42), "echo", "settop-7",
		[]byte("ticket"), []byte("sig"), []byte("body"),
		uint64(0xdeadbeef), uint64(7), true)
	f.Add(uint64(0), "", int64(-1), "", "", []byte(nil), []byte(nil), []byte(nil),
		uint64(0), uint64(0), false)
	f.Fuzz(func(t *testing.T, reqID uint64, objectID string, inc int64,
		method, principal string, ticket, sig, body []byte,
		traceID, parentSpan uint64, sampled bool) {
		in := request{
			ReqID:        reqID,
			Version:      wireVersion, // anything else stops the decode at the envelope
			ObjectID:     objectID,
			Incarnation:  inc,
			Method:       method,
			Principal:    principal,
			Ticket:       ticket,
			Sig:          sig,
			Body:         body,
			TraceID:      traceID,
			ParentSpanID: parentSpan,
			Sampled:      sampled,
		}
		e := new(wire.Encoder)
		in.MarshalWire(e)
		raw := e.Bytes()

		var out request
		d := new(wire.Decoder)
		d.Reset(raw)
		out.UnmarshalWire(d)
		if err := d.Err(); err != nil {
			t.Fatalf("decode of own encoding failed: %v", err)
		}
		if d.Remaining() != 0 {
			t.Fatalf("decode left %d trailing bytes", d.Remaining())
		}
		if out.ObjectID != "" || out.Method != "" || out.Principal != "" {
			t.Fatalf("decode built strings out of the frame: %+v", out)
		}
		signed, verified := new(wire.Encoder), new(wire.Encoder)
		in.appendSigPayload(signed)
		out.appendDecodedSigPayload(verified)
		if !bytes.Equal(signed.Bytes(), verified.Bytes()) {
			t.Fatalf("signature payload differs:\n  signed: %x\nverified: %x", signed.Bytes(), verified.Bytes())
		}
		// Back to the sender's form, for the comparison and the re-marshal.
		out.ObjectID, out.Method, out.Principal = string(out.objectID), string(out.method), string(out.principal)
		if out.ReqID != in.ReqID || out.Version != in.Version ||
			out.ObjectID != in.ObjectID || out.Incarnation != in.Incarnation ||
			out.Method != in.Method || out.Principal != in.Principal ||
			!bytes.Equal(out.Ticket, in.Ticket) || !bytes.Equal(out.Sig, in.Sig) ||
			!bytes.Equal(out.Body, in.Body) ||
			out.TraceID != in.TraceID || out.ParentSpanID != in.ParentSpanID ||
			out.Sampled != in.Sampled {
			t.Fatalf("round trip mutated the record:\n in: %+v\nout: %+v", in, out)
		}

		e2 := new(wire.Encoder)
		out.MarshalWire(e2)
		if !bytes.Equal(raw, e2.Bytes()) {
			t.Fatalf("re-marshal differs:\n first: %x\nsecond: %x", raw, e2.Bytes())
		}
	})
}

// FuzzRequestDecode: arbitrary bytes — truncated frames, hostile varints,
// other-version envelopes — must surface as a decoder error, never a panic.
// The read loops decode frames straight off the network; a panic here is a
// remote crash vector.
func FuzzRequestDecode(f *testing.F) {
	// Seed with a valid frame, a version-1 envelope, and junk.
	e := new(wire.Encoder)
	(&request{ReqID: 9, Version: wireVersion, ObjectID: "o", Method: "m"}).MarshalWire(e)
	f.Add(e.Bytes())
	f.Add([]byte{0x09, 0x01})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, raw []byte) {
		var r request
		d := new(wire.Decoder)
		d.Reset(raw)
		r.UnmarshalWire(d) // must not panic; Err() may or may not be set
		var resp response
		d2 := new(wire.Decoder)
		d2.Reset(raw)
		resp.UnmarshalWire(d2)
	})
}

// FuzzResponseRoundTrip mirrors FuzzRequestRoundTrip for the reply record.
func FuzzResponseRoundTrip(f *testing.F) {
	f.Add(uint64(1), uint64(3), "NotFound", "no movie", []byte("body"), uint64(0xabc))
	f.Fuzz(func(t *testing.T, reqID, status uint64, errName, errMsg string, body []byte, traceID uint64) {
		in := response{ReqID: reqID, Status: status, ErrName: errName,
			ErrMsg: errMsg, Body: body, TraceID: traceID}
		e := new(wire.Encoder)
		in.MarshalWire(e)
		raw := e.Bytes()
		var out response
		d := new(wire.Decoder)
		d.Reset(raw)
		out.UnmarshalWire(d)
		if err := d.Err(); err != nil {
			t.Fatalf("decode of own encoding failed: %v", err)
		}
		e2 := new(wire.Encoder)
		out.MarshalWire(e2)
		if !bytes.Equal(raw, e2.Bytes()) {
			t.Fatalf("re-marshal differs:\n first: %x\nsecond: %x", raw, e2.Bytes())
		}
	})
}

// TestVersionMismatch: a client invoking a server built at a different wire
// version gets a clear *VersionError naming both versions — not a decode
// panic, not a Dead() error that would send the Rebinder chasing replicas
// that speak the same mismatched protocol.
func TestVersionMismatch(t *testing.T) {
	server, client, _, ref := newPair(t)
	server.SetWireVersionForTest(99)

	_, err := echo(t, client, ref, "hello")
	var ve *VersionError
	if !errors.As(err, &ve) {
		t.Fatalf("want *VersionError, got %T: %v", err, err)
	}
	if ve.Client != WireVersion || ve.Server != 99 {
		t.Fatalf("VersionError = client v%d / server v%d, want v%d / v99", ve.Client, ve.Server, WireVersion)
	}
	if Dead(err) {
		t.Fatalf("version mismatch must not be Dead (rebinding cannot fix it): %v", err)
	}

	// Restoring the accepted version restores service on the same connection.
	server.SetWireVersionForTest(WireVersion)
	if _, err := echo(t, client, ref, "hello"); err != nil {
		t.Fatalf("after version restore: %v", err)
	}
}

// TestInvokeCtxDeadline: a context deadline shorter than the endpoint's
// configured call timeout bounds the round trip, and the failure reports
// context.DeadlineExceeded so callers can tell "my budget ran out" from
// "the server is gone".
func TestInvokeCtxDeadline(t *testing.T) {
	_, client, _, ref := newPair(t)

	// Already-expired deadline: fails before any frame is written.
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	err := client.InvokeCtx(ctx, ref, "echo",
		func(e *wire.Encoder) { e.PutString("x") }, nil)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expired deadline: want DeadlineExceeded, got %v", err)
	}

	// A live deadline against a method that never returns: the ctx bound
	// (50ms) cuts the call off long before the endpoint's default timeout.
	ctx2, cancel2 := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel2()
	start := time.Now()
	err = client.InvokeCtx(ctx2, ref, "block", nil, nil)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("blocked call: want DeadlineExceeded, got %v", err)
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("deadline did not bound the call: took %v", d)
	}
}
