package wire

import (
	"sync"
	"sync/atomic"
)

// A head-end's calls name the same few things all day: the methods its
// objects serve, the principals that call them, the addresses and IDL
// types of its services.  Decoding each of those as a fresh string costs
// one heap object per field per message for a value the process already
// holds.  A Table is where a decode boundary keeps them instead (DESIGN.md
// §9): looked up by the bytes still sitting in the frame buffer, which
// allocates nothing, and answered with a value that outlives the frame.
//
// Both limits are constants, not options.  They bound what a peer can make
// a table hold (TableEntries × MaxSymbolLen bytes of symbols, 16 KiB), and
// a symbol the table has no room for is decoded into a fresh string — one
// allocation, never an error — so no deployment has a value to tune: a
// larger table buys nothing until a head-end has more than TableEntries
// live method names, principals or service addresses.
const (
	// TableEntries is the most symbols one Table admits.
	TableEntries = 256
	// MaxSymbolLen is the longest symbol a Table admits, in bytes.
	MaxSymbolLen = 64
)

// Table is a bounded map from a symbol's bytes to the value the owner
// keeps for it.  Reads are lock-free and allocation-free: the map is
// immutable once published, and each admission publishes a copy (at most
// TableEntries of them over the table's life).  Nothing is ever evicted,
// so a value handed out stays the table's answer for that symbol.  The
// zero Table is empty and ready to use.
type Table[V any] struct {
	mu sync.Mutex // serializes Admit
	m  atomic.Pointer[map[string]V]
}

// Lookup returns the value admitted for sym.  sym may alias a buffer about
// to be reused; nothing retains it.
func (t *Table[V]) Lookup(sym []byte) (V, bool) {
	if m := t.m.Load(); m != nil && len(sym) <= MaxSymbolLen {
		v, ok := (*m)[string(sym)] // the conversion does not allocate here
		return v, ok
	}
	var zero V
	return zero, false
}

// Admit returns the value held for sym, first making (mk) and admitting one
// when sym is absent and the table has room for it.  It reports false —
// and mk is not called — for the empty symbol, one longer than
// MaxSymbolLen, and any new symbol once TableEntries are held; the caller
// then does without the table, at one allocation per decode.  The owner
// decides *when* to admit: a symbol a peer merely sent is not yet one
// worth keeping (see orb's method and principal tables).
func (t *Table[V]) Admit(sym string, mk func(sym string) V) (V, bool) {
	var zero V
	if len(sym) == 0 || len(sym) > MaxSymbolLen {
		return zero, false
	}
	if v, ok := t.get(sym); ok {
		return v, true
	}
	if t.Len() >= TableEntries {
		return t.get(sym) // full tables stay off the lock; sym may have filled it
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if v, ok := t.get(sym); ok {
		return v, true // a concurrent Admit won; share its value
	}
	if t.Len() >= TableEntries {
		return zero, false
	}
	next := make(map[string]V, t.Len()+1)
	if m := t.m.Load(); m != nil {
		for k, v := range *m {
			next[k] = v
		}
	}
	v := mk(sym)
	next[sym] = v
	t.m.Store(&next)
	return v, true
}

func (t *Table[V]) get(sym string) (V, bool) {
	if m := t.m.Load(); m != nil {
		v, ok := (*m)[sym]
		return v, ok
	}
	var zero V
	return zero, false
}

// Len reports how many symbols the table holds.
func (t *Table[V]) Len() int {
	if m := t.m.Load(); m != nil {
		return len(*m)
	}
	return 0
}

// Intern returns sym as a string the table keeps, allocating it (and
// admitting it, room permitting) only the first time: the decode of a
// symbol from a closed set — a service address, an IDL type id — where
// arriving at all is reason enough to keep it.
func Intern(t *Table[string], sym []byte) string {
	if len(sym) == 0 {
		return ""
	}
	if s, ok := t.Lookup(sym); ok {
		return s
	}
	return Canonical(t, string(sym))
}

// Canonical admits s and returns the table's copy of it, or s itself when
// the table cannot hold it.  It is the deferred half of Intern for an
// owner that looks a symbol up on arrival but keeps it only once it has
// been vouched for.
func Canonical(t *Table[string], s string) string {
	if c, ok := t.Admit(s, self); ok {
		return c
	}
	return s
}

func self(s string) string { return s }

// Symbol decodes a length-prefixed string through t (see Intern).
func (d *Decoder) Symbol(t *Table[string]) string {
	return Intern(t, d.BytesView())
}

// Known decodes a length-prefixed string through t without admitting it:
// a symbol a peer may invent, which its owner admits (Canonical) once vouched for.
func (d *Decoder) Known(t *Table[string]) string {
	b := d.BytesView()
	if s, ok := t.Lookup(b); ok {
		return s
	}
	return string(b)
}
