package auth

import (
	"bytes"
	"runtime"
	"testing"
	"time"

	"itv/internal/clock"
	"itv/internal/wire"
)

// FuzzTicket: the bytes a server unseals and parses from every ticket a
// caller presents.  sealed reaches Verifier.Verify as the ticket itself;
// plaintext is sealed under the realm key first, so its bytes reach the
// ticket's decode.  Each is signed under the session key its ticket would
// give, and claimed by principal.  Nothing panics; a ticket is refused or
// verifies for the principal sealed inside it, claimed by that principal,
// and a well-formed, unexpired ticket so claimed verifies; and verifying
// allocates a bounded number of bytes per byte presented.
func FuzzTicket(f *testing.F) {
	clk := clock.NewFake()
	realm := bytes.Repeat([]byte{7}, KeySize)
	good := wire.Marshal(&Ticket{Principal: "settop/10.0.0.7", Expires: clk.Now().Add(time.Hour).Unix(),
		SessionKey: bytes.Repeat([]byte{9}, KeySize)})
	sealed, err := Seal(realm, good)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good, []byte(nil), "settop/10.0.0.7")
	f.Add(good[:len(good)-1], sealed, "settop/10.0.0.7")
	f.Add([]byte{0x0f, 's'}, sealed[:len(sealed)-1], "")
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0x0f}, []byte{1, 2, 3}, "settop/10.0.0.7")
	payload := []byte("payload")
	// Whatever the crypto packages set up on their first use is no
	// ticket's allocation.
	if _, err := NewVerifier(realm, clk).Verify("settop/10.0.0.7", sealed, sign(bytes.Repeat([]byte{9}, KeySize), payload), payload, nil); err != nil {
		f.Fatal(err)
	}
	check := func(t *testing.T, sealed []byte, principal string) {
		var tk Ticket
		pt, err := Open(realm, sealed)
		wellFormed := err == nil && unmarshalTicket(pt, &tk) == nil
		sig := sign(tk.SessionKey, payload)
		// The least of three runs on fresh verifiers: the fuzzing engine's
		// own goroutines allocate in the same process.
		least := ^uint64(0)
		var got string
		for range 3 {
			v := NewVerifier(realm, clk)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			got, err = v.Verify(principal, sealed, sig, payload, nil)
			runtime.ReadMemStats(&after)
			least = min(least, after.TotalAlloc-before.TotalAlloc)
		}
		switch {
		case err == nil && (!wellFormed || got != tk.Principal || principal != tk.Principal):
			t.Fatalf("%x claimed by %q verified for %q, but it seals %q (well formed: %v)", sealed, principal, got, tk.Principal, wellFormed)
		case err != nil && wellFormed && principal == tk.Principal && tk.Expires >= clk.Now().Unix():
			t.Fatalf("a well-formed ticket of %q refused: %v", principal, err)
		}
		if least > uint64(4*len(sealed)+2048) {
			t.Fatalf("verifying a %d-byte ticket allocated %d bytes", len(sealed), least)
		}
	}
	f.Fuzz(func(t *testing.T, plaintext, raw []byte, principal string) {
		sealed, err := Seal(realm, plaintext)
		if err != nil {
			t.Fatal(err)
		}
		check(t, sealed, principal)
		check(t, raw, principal)
	})
}
