package orb

import (
	"fmt"

	"itv/internal/wire"
)

// wireVersion is the ORB protocol version this build speaks.  v2 added the
// Version field itself plus the trace-propagation fields (TraceID,
// ParentSpanID, Sampled) and the response's adopted TraceID; see DESIGN.md
// §10 for the negotiation rules.  v1 frames had no version field at all, so
// v1↔v2 was a flag-day break; from v2 on, a request mismatch yields a clean
// statusBadVersion reply instead of a dropped connection.  v3 added the
// hybrid-logical-clock field to both records (DESIGN.md §11) so every RPC
// couples the two nodes' HLCs in both directions.  v4 lets a signed request
// leave out its ticket and principal once its connection holds the ticket
// (DESIGN.md §10).
const wireVersion = 4

// Wire status codes for responses.
const (
	statusOK uint64 = iota
	statusInvalidRef
	statusNoSuchMethod
	statusApp
	statusShutdown
	statusBadVersion
)

// request is the on-wire invocation record.
//
// Decoding borrows: UnmarshalWire leaves every variable-length field
// aliasing the frame buffer being decoded, so a decoded request is valid
// only until its frame buffer is reused.  Both endpoint read loops hand the
// frame buffer's ownership along with the request and release the two
// together.
//
// The three envelope strings therefore have two forms.  A sender sets
// ObjectID, Method and Principal.  A receiver finds them in objectID,
// method and principal — views, like Ticket, Sig and Body — and the
// strings empty: the server turns each view into a string that outlives
// the frame by looking it up where the value already lives (the object
// table, the endpoint's method and principal tables; DESIGN.md §9), and
// builds a fresh string only for a value no table holds.
//
// The trace and clock fields ride at the end and are excluded from the
// signature payload: they are observability routing, not invocation
// identity, and a relay must be able to re-stamp them without re-signing.
type request struct {
	ReqID        uint64
	Version      uint64
	ObjectID     string
	Incarnation  int64
	Method       string
	Principal    string
	Ticket       []byte
	Sig          []byte
	Body         []byte
	TraceID      uint64
	ParentSpanID uint64
	Sampled      bool
	HLC          uint64 // sender's hybrid-logical-clock reading (obs.HLCTime)

	// What UnmarshalWire decodes in place of the three strings above.
	objectID  []byte
	method    []byte
	principal []byte

	// sigScratch is the caller-owned buffer Authenticator.Sign appends the
	// signature into (Sig then aliases it), sized for any HMAC the auth
	// layer produces.  Not a wire field; it rides in the pooled request so
	// signing allocates nothing.  Safe to recycle with the request: the
	// frame encoder copied Sig before the request was released.
	sigScratch [64]byte
	held       bool // Ticket and Principal stay off the wire: the connection holds Ticket
}

func (r *request) MarshalWire(e *wire.Encoder) {
	e.PutUint(r.ReqID)
	e.PutUint(r.Version)
	e.PutString(r.ObjectID)
	e.PutInt(r.Incarnation)
	e.PutString(r.Method)
	principal, ticket := r.Principal, r.Ticket
	if r.held {
		principal, ticket = "", nil
	}
	e.PutString(principal)
	e.PutBytes(ticket)
	e.PutBytes(r.Sig)
	e.PutBytes(r.Body)
	e.PutUint(r.TraceID)
	e.PutUint(r.ParentSpanID)
	e.PutBool(r.Sampled)
	e.PutUint(r.HLC)
}

// UnmarshalWire decodes the envelope (ReqID, Version) and, only when the
// version matches this build, the rest of the record.  On a mismatch it
// returns with the remainder undecoded — the server still has the ReqID it
// needs to route a statusBadVersion reply, and it must not interpret field
// layouts of a protocol it does not speak.
func (r *request) UnmarshalWire(d *wire.Decoder) {
	r.ReqID = d.Uint()
	r.Version = d.Uint()
	if r.Version != wireVersion {
		return
	}
	r.objectID = d.BytesView()
	r.Incarnation = d.Int()
	r.method = d.BytesView()
	r.principal = d.BytesView()
	r.Ticket = d.BytesView()
	r.Sig = d.BytesView()
	r.Body = d.BytesView()
	r.TraceID = d.Uint()
	r.ParentSpanID = d.Uint()
	r.Sampled = d.Bool()
	r.HLC = d.Uint()
}

// reset clears a pooled request for reuse, dropping references into any
// previously borrowed frame buffer.
func (r *request) reset() { *r = request{} }

// appendSigPayload encodes the bytes covered by the per-call signature into
// e: the fields that identify the invocation.  ReqID (transport-level,
// assigned after signing) and Principal are excluded; the principal is
// bound to the signature by the sealed ticket, which names the principal
// whose session key produced the HMAC.
func (r *request) appendSigPayload(e *wire.Encoder) {
	e.PutString(r.ObjectID)
	e.PutInt(r.Incarnation)
	e.PutString(r.Method)
	e.PutBytes(r.Body)
}

// appendDecodedSigPayload is appendSigPayload for a decoded request: the
// same bytes, taken from the views (a string and a byte slice encode
// alike).
func (r *request) appendDecodedSigPayload(e *wire.Encoder) {
	e.PutBytes(r.objectID)
	e.PutInt(r.Incarnation)
	e.PutBytes(r.method)
	e.PutBytes(r.Body)
}

// response is the on-wire reply record.  Like request, UnmarshalWire leaves
// Body aliasing the frame buffer; respFrame couples the two so ownership
// moves as one unit from the connection's reader to the waiting caller.
//
// TraceID, when nonzero, is the causal trace the server *adopted* while
// serving this call (e.g. a bind that consumed an audit tombstone); the
// client deposits it into the caller's TraceSink so asynchronous recovery
// paths can join the trace of the failure they are recovering from.
//
// HLC is the server's hybrid-logical-clock reading at reply time; the
// client observes it into its own HLC and deposits it into the caller's
// ClockSink.  Responses carry no version field — their layout is tied to
// the build, as it was when TraceID was added — so HLC rides on every
// reply, including statusBadVersion refusals.
//
// seg, when non-nil, is a borrowed segment the skeleton lent to this reply
// (ServerCall.PutBytesRef): the body on the wire is Body[:segAt] + seg +
// Body[segAt:], but only Body is marshaled — MarshalWire records in split
// where the segment belongs in the encoder and the write path sends the
// three pieces as one vectored frame (DESIGN.md §12).  None of the three
// is a wire field, and a decoded response never has them set.
type response struct {
	ReqID   uint64
	Status  uint64
	ErrName string
	ErrMsg  string
	Body    []byte
	TraceID uint64
	HLC     uint64

	seg   []byte
	segAt int
	split int
}

func (r *response) MarshalWire(e *wire.Encoder) {
	e.PutUint(r.ReqID)
	e.PutUint(r.Status)
	e.PutString(r.ErrName)
	e.PutString(r.ErrMsg)
	if r.seg == nil {
		e.PutBytes(r.Body)
	} else {
		e.PutUint(uint64(len(r.Body) + len(r.seg)))
		e.PutRaw(r.Body[:r.segAt])
		r.split = e.Len()
		e.PutRaw(r.Body[r.segAt:])
	}
	e.PutUint(r.TraceID)
	e.PutUint(r.HLC)
}

func (r *response) UnmarshalWire(d *wire.Decoder) {
	r.ReqID = d.Uint()
	r.Status = d.Uint()
	r.ErrName = d.String()
	r.ErrMsg = d.String()
	r.Body = d.BytesView()
	r.TraceID = d.Uint()
	r.HLC = d.Uint()
}

// reset clears a pooled response for reuse.
func (r *response) reset() { *r = response{} }

// refuseTooLarge turns a reply that exceeds wire.MaxFrameSize into the
// application error that says so, keeping the envelope (ReqID, TraceID,
// HLC) that routes it.
func (r *response) refuseTooLarge() {
	n := len(r.Body) + len(r.seg)
	r.Status = statusApp
	r.ErrName = ExcTooLarge
	r.ErrMsg = fmt.Sprintf("reply of %d bytes exceeds the %d-byte frame limit", n, wire.MaxFrameSize)
	r.Body, r.seg, r.segAt = nil, nil, 0
}
