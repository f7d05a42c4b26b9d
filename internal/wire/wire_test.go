package wire

import (
	"bytes"
	"errors"
	"math"
	"testing"
	"testing/quick"
)

func TestUintRoundTrip(t *testing.T) {
	for _, v := range []uint64{0, 1, 127, 128, 1 << 20, math.MaxUint64} {
		e := new(Encoder)
		e.PutUint(v)
		d := &Decoder{buf: e.Bytes()}
		if got := d.Uint(); got != v || d.Err() != nil {
			t.Fatalf("Uint(%d) round-trip = %d, err %v", v, got, d.Err())
		}
	}
}

func TestIntRoundTripProperty(t *testing.T) {
	f := func(v int64) bool {
		e := new(Encoder)
		e.PutInt(v)
		d := &Decoder{buf: e.Bytes()}
		return d.Int() == v && d.Err() == nil && d.Remaining() == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFloatRoundTripProperty(t *testing.T) {
	f := func(v float64) bool {
		e := new(Encoder)
		e.PutFloat(v)
		d := &Decoder{buf: e.Bytes()}
		got := d.Float()
		if d.Err() != nil {
			return false
		}
		// NaN compares unequal to itself; compare bit patterns instead.
		return math.Float64bits(got) == math.Float64bits(v)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestStringBytesRoundTripProperty(t *testing.T) {
	f := func(s string, b []byte) bool {
		e := new(Encoder)
		e.PutString(s)
		e.PutBytes(b)
		d := &Decoder{buf: e.Bytes()}
		gs := d.String()
		gb := d.Bytes()
		return d.Err() == nil && gs == s && bytes.Equal(gb, b) && d.Remaining() == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestStringsRoundTrip(t *testing.T) {
	in := []string{"", "a", "svc/mds/forge", "日本語"}
	e := new(Encoder)
	e.PutStrings(in)
	d := &Decoder{buf: e.Bytes()}
	out := d.Strings()
	if d.Err() != nil || len(out) != len(in) {
		t.Fatalf("Strings round-trip: %v err %v", out, d.Err())
	}
	for i := range in {
		if out[i] != in[i] {
			t.Fatalf("element %d = %q, want %q", i, out[i], in[i])
		}
	}
}

func TestStringMapRoundTrip(t *testing.T) {
	in := map[string]string{"cmgr": "1", "mds": "forge", "": "empty-key"}
	e := new(Encoder)
	e.PutStringMap(in)
	d := &Decoder{buf: e.Bytes()}
	out := d.StringMap()
	if d.Err() != nil || len(out) != len(in) {
		t.Fatalf("StringMap round-trip: %v err %v", out, d.Err())
	}
	for k, v := range in {
		if out[k] != v {
			t.Fatalf("key %q = %q, want %q", k, out[k], v)
		}
	}
}

func TestBoolRoundTripAndInvalid(t *testing.T) {
	e := new(Encoder)
	e.PutBool(true)
	e.PutBool(false)
	d := &Decoder{buf: e.Bytes()}
	if !d.Bool() || d.Bool() || d.Err() != nil {
		t.Fatal("bool round-trip failed")
	}
	bad := &Decoder{buf: []byte{7}}
	bad.Bool()
	if bad.Err() == nil {
		t.Fatal("invalid bool byte not rejected")
	}
}

func TestDecoderLatchesError(t *testing.T) {
	d := &Decoder{buf: nil}
	_ = d.Uint() // truncated
	first := d.Err()
	if first == nil {
		t.Fatal("expected truncation error")
	}
	_ = d.String()
	_ = d.Bool()
	if !errors.Is(d.Err(), first) {
		t.Fatal("error not latched")
	}
}

func TestTruncatedString(t *testing.T) {
	e := new(Encoder)
	e.PutString("hello")
	buf := e.Bytes()[:3]
	d := &Decoder{buf: buf}
	_ = d.String()
	if d.Err() == nil {
		t.Fatal("truncated string not detected")
	}
}

func TestHostileCollectionLength(t *testing.T) {
	// A varint claiming 2^40 elements must be rejected, not allocated.
	e := new(Encoder)
	e.PutUint(1 << 40)
	d := &Decoder{buf: e.Bytes()}
	if got := d.Strings(); got != nil || d.Err() == nil {
		t.Fatalf("hostile length accepted: %v, err %v", got, d.Err())
	}
}

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	payload := []byte("the quick brown fox")
	if err := writeFrame(&buf, payload); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFrameInto(&buf, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("frame = %q, want %q", got, payload)
	}
}

func TestFrameEmptyPayload(t *testing.T) {
	var buf bytes.Buffer
	if err := writeFrame(&buf, nil); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFrameInto(&buf, nil)
	if err != nil || len(got) != 0 {
		t.Fatalf("empty frame: %v, err %v", got, err)
	}
}

func TestFrameOversizeRejected(t *testing.T) {
	var buf bytes.Buffer
	if err := AppendFrame(new(Encoder), blobMsg(make([]byte, MaxFrameSize+1))); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("oversize write err = %v, want ErrTooLarge", err)
	}
	// Hostile header.
	buf.Reset()
	buf.Write([]byte{0xff, 0xff, 0xff, 0xff})
	if _, err := ReadFrameInto(&buf, nil); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("oversize read err = %v, want ErrTooLarge", err)
	}
}

func TestFrameShortRead(t *testing.T) {
	var buf bytes.Buffer
	if err := writeFrame(&buf, []byte("abcdef")); err != nil {
		t.Fatal(err)
	}
	short := bytes.NewReader(buf.Bytes()[:buf.Len()-2])
	if _, err := ReadFrameInto(short, nil); err == nil {
		t.Fatal("short frame not detected")
	}
}

func TestMarshalUnmarshalTrailing(t *testing.T) {
	type pair struct{ a, b string }
	_ = pair{}
	e := new(Encoder)
	e.PutString("x")
	e.PutUint(9) // trailing garbage from the Unmarshaler's point of view
	err := Unmarshal(e.Bytes(), unmarshalerFunc(func(d *Decoder) { _ = d.String() }))
	if err == nil {
		t.Fatal("trailing bytes not rejected")
	}
}

type unmarshalerFunc func(*Decoder)

func (f unmarshalerFunc) UnmarshalWire(d *Decoder) { f(d) }

func TestEncoderReset(t *testing.T) {
	e := new(Encoder)
	e.PutString("abc")
	e.Reset()
	if e.Len() != 0 {
		t.Fatalf("Len after Reset = %d", e.Len())
	}
	e.PutUint(5)
	d := &Decoder{buf: e.Bytes()}
	if d.Uint() != 5 || d.Err() != nil {
		t.Fatal("encoder unusable after Reset")
	}
}

func TestMixedSequenceRoundTrip(t *testing.T) {
	e := new(Encoder)
	e.PutBool(true)
	e.PutInt(-42)
	e.PutUint(42)
	e.PutFloat(3.5)
	e.PutString("movie/T2")
	e.PutBytes([]byte{0, 1, 2})
	d := &Decoder{buf: e.Bytes()}
	if !d.Bool() || d.Int() != -42 || d.Uint() != 42 || d.Float() != 3.5 ||
		d.String() != "movie/T2" || !bytes.Equal(d.Bytes(), []byte{0, 1, 2}) {
		t.Fatal("mixed sequence mismatch")
	}
	if d.Err() != nil || d.Remaining() != 0 {
		t.Fatalf("err %v remaining %d", d.Err(), d.Remaining())
	}
}
