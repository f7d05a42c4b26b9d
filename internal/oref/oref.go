// Package oref defines object references, the handles clients hold on
// remote objects (§3.2.1).  A reference denotes one particular object: it
// carries the network address of the implementing process, an incarnation
// timestamp that prevents use of the reference after that process dies, the
// object's IDL type for runtime type checks, and the object id
// distinguishing the object among those the process exports (usually empty,
// because most services export exactly one object — §9.2).
package oref

import (
	"fmt"
	"strconv"

	"itv/internal/wire"
)

// AnyIncarnation marks a persistent reference: one that remains valid
// across restarts of the implementing process.  The paper makes the name
// service exactly this exception ("With a few exceptions, notably the name
// service, object references are only good as long as the implementor of
// the object reference is alive", §3.2.1): settops receive the name-service
// address at boot and must keep using it across name-service restarts.
const AnyIncarnation int64 = -1

// Persistent builds a restart-surviving reference to a well-known object.
func Persistent(addr, typeID, objectID string) Ref {
	return Ref{Addr: addr, Incarnation: AnyIncarnation, TypeID: typeID, ObjectID: objectID}
}

// Ref is an object reference.  The zero value is the nil reference.
type Ref struct {
	// Addr is the "host:port" of the server process implementing the
	// object.  In the simulated cluster, hosts are synthetic IPs.
	Addr string
	// Incarnation is a timestamp identifying one lifetime of the
	// implementing process.  A restarted process has a new incarnation, so
	// stale references raise ErrInvalidReference rather than reaching the
	// new process (§3.2.1).
	Incarnation int64
	// TypeID names the IDL interface the object implements, e.g.
	// "itv.NamingContext".
	TypeID string
	// ObjectID identifies the object within its process.  Empty means the
	// process's sole (default) object.
	ObjectID string
}

// IsNil reports whether r is the nil reference.
func (r Ref) IsNil() bool { return r.Addr == "" }

// Equal reports whether two references denote the same object incarnation.
func (r Ref) Equal(o Ref) bool { return r == o }

// SameObject reports whether two references denote the same object,
// ignoring incarnation — true for a reference to a restarted service.
func (r Ref) SameObject(o Ref) bool {
	return r.Addr == o.Addr && r.ObjectID == o.ObjectID
}

// Key returns a map key uniquely identifying the object incarnation.
func (r Ref) Key() string {
	// Built by hand rather than with Sprintf, which boxes the incarnation:
	// this runs per reference per audit round.
	var scratch [96]byte
	b := append(scratch[:0], r.Addr...)
	b = append(b, '#')
	b = strconv.AppendInt(b, r.Incarnation, 10)
	b = append(b, '/')
	b = append(b, r.ObjectID...)
	return string(b)
}

// String implements fmt.Stringer.
func (r Ref) String() string {
	if r.IsNil() {
		return "<nil-ref>"
	}
	return fmt.Sprintf("%s@%s#%d/%s", r.TypeID, r.Addr, r.Incarnation, r.ObjectID)
}

// MarshalWire implements wire.Marshaler.
func (r Ref) MarshalWire(e *wire.Encoder) {
	e.PutString(r.Addr)
	e.PutInt(r.Incarnation)
	e.PutString(r.TypeID)
	e.PutString(r.ObjectID)
}

// addrs and typeIDs hold the service addresses and IDL type ids this
// process has decoded.  Both are closed sets in a head-end — one address
// per service process, one type id per IDL interface — and every reference
// that crosses the wire repeats them, so a decoded Ref shares the table's
// strings instead of allocating its own (wire.Table: bounded, and a value
// the table has no room for is decoded as before).  ObjectID is not
// interned: it is an open set (one id per open movie), and ids of closed
// sessions would crowd the live ones out of a table that never evicts.
//
// Process-wide because a Ref decodes itself with nothing but the decoder
// in hand; invisible to callers because an interned string equals the one
// it replaces.
var addrs, typeIDs wire.Table[string]

// MinWireBytes is the least a reference occupies on the wire — three empty
// strings and a one-byte incarnation — for Decoder.CountOf.
const MinWireBytes = 4

// UnmarshalWire implements wire.Unmarshaler.
func (r *Ref) UnmarshalWire(d *wire.Decoder) {
	r.Addr = d.Symbol(&addrs)
	r.Incarnation = d.Int()
	r.TypeID = d.Symbol(&typeIDs)
	r.ObjectID = d.String()
}

// PutRefs encodes a slice of references.
func PutRefs(e *wire.Encoder, refs []Ref) {
	e.PutUint(uint64(len(refs)))
	for _, r := range refs {
		r.MarshalWire(e)
	}
}

// Refs decodes a slice of references.
func Refs(d *wire.Decoder) []Ref {
	n := d.CountOf(MinWireBytes)
	out := make([]Ref, 0, n)
	for i := 0; i < n && d.Err() == nil; i++ {
		var r Ref
		r.UnmarshalWire(d)
		out = append(out, r)
	}
	return out
}
