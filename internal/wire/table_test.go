package wire

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
)

// TestTableBounds: a table admits at most TableEntries symbols of at most
// MaxSymbolLen bytes, never the empty one, and whatever it refuses is
// still decoded correctly — by the old allocating path.
func TestTableBounds(t *testing.T) {
	var tab Table[string]
	for i := 0; i < 10000; i++ {
		sym := fmt.Sprintf("junk-%d", i)
		if got := Intern(&tab, []byte(sym)); got != sym {
			t.Fatalf("Intern(%q) = %q", sym, got)
		}
	}
	if tab.Len() != TableEntries {
		t.Fatalf("table holds %d symbols after 10000 distinct ones, want %d", tab.Len(), TableEntries)
	}
	if _, ok := tab.Lookup([]byte("junk-0")); !ok {
		t.Fatal("an early symbol was evicted; admissions must be permanent")
	}
	if _, ok := tab.Lookup([]byte("junk-9999")); ok {
		t.Fatal("a symbol past the bound was admitted")
	}

	var fresh Table[string]
	long := strings.Repeat("x", MaxSymbolLen+1)
	if got := Intern(&fresh, []byte(long)); got != long {
		t.Fatalf("over-long symbol decoded as %q", got)
	}
	if got := Intern(&fresh, nil); got != "" {
		t.Fatalf("empty symbol decoded as %q", got)
	}
	if fresh.Len() != 0 {
		t.Fatalf("table admitted an over-long or empty symbol: %d entries", fresh.Len())
	}
	fits := long[:MaxSymbolLen]
	Intern(&fresh, []byte(fits))
	if _, ok := fresh.Lookup([]byte(fits)); !ok {
		t.Fatal("a symbol of exactly MaxSymbolLen bytes was refused")
	}
}

// TestTableAdmitMakesOnce: a refused symbol never runs its constructor
// (orb's method table registers histograms in it), and an admitted one
// runs it once however many callers race.
func TestTableAdmitMakesOnce(t *testing.T) {
	var tab Table[*int]
	var mu sync.Mutex
	made := map[string]int{}
	mk := func(sym string) *int {
		mu.Lock()
		made[sym]++
		mu.Unlock()
		return new(int)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 2*TableEntries; i++ {
				sym := fmt.Sprintf("m%d", i)
				v, ok := tab.Admit(sym, mk)
				if got, held := tab.Lookup([]byte(sym)); held != ok || got != v {
					t.Errorf("Admit(%q) = %p,%v but Lookup = %p,%v", sym, v, ok, got, held)
					return
				}
			}
		}()
	}
	wg.Wait()
	if tab.Len() != TableEntries || len(made) != TableEntries {
		t.Fatalf("table holds %d symbols, constructor ran for %d, want %d each", tab.Len(), len(made), TableEntries)
	}
	for sym, n := range made {
		if n != 1 {
			t.Fatalf("constructor ran %d times for %q", n, sym)
		}
	}
	if _, ok := tab.Admit("", mk); ok {
		t.Fatal("the empty symbol was admitted")
	}
}

// TestSymbolOutlivesItsBuffer: a symbol decoded through a table is a string
// of its own — overwriting the buffer it was decoded from changes neither
// the first decode's result nor the table's entry — and a warm decode
// allocates nothing.
func TestSymbolOutlivesItsBuffer(t *testing.T) {
	var tab Table[string]
	e := new(Encoder)
	e.PutString("10.0.0.7:2049")
	buf := append([]byte(nil), e.Bytes()...)

	first := (&Decoder{buf: buf}).Symbol(&tab)
	for i := 1; i < len(buf); i++ {
		buf[i] = 'X'
	}
	if first != "10.0.0.7:2049" {
		t.Fatalf("decoded symbol changed with its buffer: %q", first)
	}
	overwritten := (&Decoder{buf: buf}).Symbol(&tab)
	if overwritten != "XXXXXXXXXXXXX" {
		t.Fatalf("second decode = %q", overwritten)
	}
	if again := (&Decoder{buf: e.Bytes()}).Symbol(&tab); again != first {
		t.Fatalf("table entry changed with the buffer: %q", again)
	}

	var d Decoder
	var got string
	if n := testing.AllocsPerRun(200, func() {
		d.Reset(e.Bytes())
		got = d.Symbol(&tab)
	}); n != 0 {
		t.Fatalf("warm Symbol decode allocates %.0f objects, want 0", n)
	}
	if got != first {
		t.Fatalf("warm decode = %q", got)
	}
}

// TestCountOfRefusesWhatCannotFit: a collection length the remaining bytes
// cannot hold is a truncated message at the count, before any caller sizes
// a slice by it.
func TestCountOfRefusesWhatCannotFit(t *testing.T) {
	e := new(Encoder)
	e.PutUint(3)
	e.PutRaw(make([]byte, 11))
	if n := (&Decoder{buf: e.Bytes()}).CountOf(4); n != 0 {
		t.Fatalf("CountOf(4) over 11 bytes = %d, want 0 (three 4-byte elements need 12)", n)
	}
	d := &Decoder{buf: e.Bytes()}
	if n := d.CountOf(3); n != 3 || d.Err() != nil {
		t.Fatalf("CountOf(3) over 11 bytes = %d, %v", n, d.Err())
	}
	hostile := &Decoder{buf: []byte{0xff, 0xff, 0x3f}} // 1,048,575 elements, no bytes behind it
	if n := hostile.Count(); n != 0 || !errors.Is(hostile.Err(), ErrTruncated) {
		t.Fatalf("hostile Count = %d, %v; want 0, ErrTruncated", n, hostile.Err())
	}
}
