package oref

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"

	"itv/internal/wire"
)

func TestRoundTripProperty(t *testing.T) {
	f := func(addr, typeID, objID string, inc int64) bool {
		in := Ref{Addr: addr, Incarnation: inc, TypeID: typeID, ObjectID: objID}
		var out Ref
		if err := wire.Unmarshal(wire.Marshal(in), &out); err != nil {
			return false
		}
		return in == out
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestNilRef(t *testing.T) {
	var r Ref
	if !r.IsNil() {
		t.Fatal("zero ref not nil")
	}
	if r.String() != "<nil-ref>" {
		t.Fatalf("String = %q", r.String())
	}
	r.Addr = "10.1.0.1:99"
	if r.IsNil() {
		t.Fatal("addressed ref reported nil")
	}
}

func TestSameObjectIgnoresIncarnation(t *testing.T) {
	a := Ref{Addr: "h:1", Incarnation: 1, TypeID: "itv.MMS"}
	b := a
	b.Incarnation = 2
	if a.Equal(b) {
		t.Fatal("Equal must distinguish incarnations")
	}
	if !a.SameObject(b) {
		t.Fatal("SameObject must ignore incarnations")
	}
	c := b
	c.ObjectID = "movie-7"
	if a.SameObject(c) {
		t.Fatal("SameObject must distinguish object ids")
	}
}

func TestKeyDistinguishesIncarnations(t *testing.T) {
	a := Ref{Addr: "h:1", Incarnation: 1}
	b := Ref{Addr: "h:1", Incarnation: 2}
	if a.Key() == b.Key() {
		t.Fatal("keys collide across incarnations")
	}
}

// TestKeyFormat pins the key's spelling: it is a map key in audit replies
// that cross the wire and a detail string in flight-recorder events.
func TestKeyFormat(t *testing.T) {
	for _, r := range []Ref{
		{},
		{Addr: "192.168.0.3:1027", Incarnation: 1759276800123456789, TypeID: "itv.Movie", ObjectID: "movie-12"},
		{Addr: "h:1", Incarnation: AnyIncarnation},
		{Addr: strings.Repeat("a", 200) + ":1", Incarnation: -5, ObjectID: strings.Repeat("o", 200)},
	} {
		if got, want := r.Key(), fmt.Sprintf("%s#%d/%s", r.Addr, r.Incarnation, r.ObjectID); got != want {
			t.Fatalf("Key() = %q, want %q", got, want)
		}
	}
}

func TestRefSliceRoundTrip(t *testing.T) {
	in := []Ref{
		{Addr: "a:1", Incarnation: 5, TypeID: "itv.MDS", ObjectID: ""},
		{Addr: "b:2", Incarnation: 9, TypeID: "itv.Movie", ObjectID: "m1"},
		{},
	}
	e := new(wire.Encoder)
	PutRefs(e, in)
	d := new(wire.Decoder)
	d.Reset(e.Bytes())
	out := Refs(d)
	if d.Err() != nil {
		t.Fatal(d.Err())
	}
	if len(out) != len(in) {
		t.Fatalf("len = %d, want %d", len(out), len(in))
	}
	for i := range in {
		if out[i] != in[i] {
			t.Fatalf("ref %d = %v, want %v", i, out[i], in[i])
		}
	}
}

func TestRefSliceEmpty(t *testing.T) {
	e := new(wire.Encoder)
	PutRefs(e, nil)
	d := new(wire.Decoder)
	d.Reset(e.Bytes())
	out := Refs(d)
	if d.Err() != nil || len(out) != 0 {
		t.Fatalf("empty slice round-trip: %v err %v", out, d.Err())
	}
}

// TestDecodeTablesAreBounded: hostile or merely numerous addresses cannot
// grow the process-wide tables past their constant, every reference still
// decodes to exactly what was sent once a table is full, and object ids —
// an open set — are never admitted at all.
func TestDecodeTablesAreBounded(t *testing.T) {
	roundTrip := func(in Ref) {
		t.Helper()
		var out Ref
		if err := wire.Unmarshal(wire.Marshal(in), &out); err != nil {
			t.Fatal(err)
		}
		if out != in {
			t.Fatalf("decoded %v, want %v", out, in)
		}
	}
	for i := 0; i < 10000; i++ {
		roundTrip(Ref{Addr: fmt.Sprintf("10.9.%d.%d:1024", i/250, i%250), Incarnation: int64(i),
			TypeID: fmt.Sprintf("junk.Type%d", i)})
	}
	if addrs.Len() > wire.TableEntries || typeIDs.Len() > wire.TableEntries {
		t.Fatalf("tables hold %d addresses and %d type ids, bound is %d", addrs.Len(), typeIDs.Len(), wire.TableEntries)
	}
	na, nt := addrs.Len(), typeIDs.Len()
	for i := 0; i < 10000; i++ {
		roundTrip(Ref{Addr: "10.9.0.0:1024", Incarnation: 1, TypeID: "junk.Type0",
			ObjectID: fmt.Sprintf("movie-%d", i)})
	}
	if addrs.Len() != na || typeIDs.Len() != nt {
		t.Fatalf("10000 object ids moved the tables from %d/%d to %d/%d entries", na, nt, addrs.Len(), typeIDs.Len())
	}
}

// TestDecodedRefOutlivesItsBuffer: a frame buffer is reused as soon as the
// call that decoded from it returns; a Ref kept past that must not change.
func TestDecodedRefOutlivesItsBuffer(t *testing.T) {
	in := Ref{Addr: "192.168.0.3:1027", Incarnation: 77, TypeID: "itv.Movie", ObjectID: "movie-12"}
	buf := wire.Marshal(in)
	var kept Ref
	d := new(wire.Decoder)
	d.Reset(buf)
	kept.UnmarshalWire(d)
	if d.Err() != nil {
		t.Fatal(d.Err())
	}
	for i := range buf {
		buf[i] = 0xEE
	}
	if kept != in {
		t.Fatalf("kept reference changed with its buffer: %v", kept)
	}
	// And the table's own entries did not alias it either.
	var again Ref
	if err := wire.Unmarshal(wire.Marshal(in), &again); err != nil || again != in {
		t.Fatalf("decode after the overwrite = %v, %v", again, err)
	}
}

// TestRefsHostileCount: a count the message cannot hold fails at the count.
// Before the bound, these three bytes reserved 56 MiB on the way to the
// same error.
func TestRefsHostileCount(t *testing.T) {
	d := new(wire.Decoder)
	d.Reset([]byte{0xff, 0xff, 0x3f})
	if out := Refs(d); len(out) != 0 || cap(out) != 0 {
		t.Fatalf("decoded %d refs (capacity %d) from a bare count", len(out), cap(out))
	}
	if d.Err() == nil {
		t.Fatal("a count with nothing behind it decoded cleanly")
	}
}

// FuzzRefs: arbitrary bytes never panic the decoder and never make it
// reserve room for more references than the bytes could encode.
func FuzzRefs(f *testing.F) {
	e := new(wire.Encoder)
	PutRefs(e, []Ref{{Addr: "a:1", Incarnation: 5, TypeID: "itv.MDS"}, {}})
	f.Add(e.Bytes())
	f.Add([]byte{0xff, 0xff, 0x3f})
	f.Add([]byte{0x02, 0x00})
	f.Fuzz(func(t *testing.T, raw []byte) {
		var d wire.Decoder
		d.Reset(raw)
		out := Refs(&d)
		if cap(out)*MinWireBytes > len(raw) {
			t.Fatalf("%d bytes reserved room for %d references", len(raw), cap(out))
		}
	})
}
