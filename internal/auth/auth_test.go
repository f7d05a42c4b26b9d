package auth

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"
	"time"

	"itv/internal/clock"
	"itv/internal/orb"
	"itv/internal/transport"
	"itv/internal/wire"
)

func TestSealOpenRoundTripProperty(t *testing.T) {
	key := NewKey()
	f := func(pt []byte) bool {
		sealed, err := Seal(key, pt)
		if err != nil {
			return false
		}
		got, err := Open(key, sealed)
		if err != nil {
			return false
		}
		return bytes.Equal(got, pt)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestOpenRejectsWrongKeyAndTamper(t *testing.T) {
	key := NewKey()
	sealed, err := Seal(key, []byte("secret"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Open(NewKey(), sealed); err == nil {
		t.Fatal("wrong key accepted")
	}
	sealed[len(sealed)-1] ^= 1
	if _, err := Open(key, sealed); err == nil {
		t.Fatal("tampered ciphertext accepted")
	}
	if _, err := Open(key, []byte("short")); err == nil {
		t.Fatal("truncated ciphertext accepted")
	}
}

func TestSealRejectsBadKeyLength(t *testing.T) {
	if _, err := Seal([]byte("short"), []byte("x")); err == nil {
		t.Fatal("short key accepted")
	}
}

func TestIssueTicketAndVerify(t *testing.T) {
	clk := clock.NewFake()
	svc := NewService(clk)
	settopKey := svc.Enroll("settop/10.1.0.5")

	sealedTicket, sealedSK, err := svc.IssueTicket("settop/10.1.0.5")
	if err != nil {
		t.Fatal(err)
	}
	sk, err := Open(settopKey, sealedSK)
	if err != nil {
		t.Fatal(err)
	}

	payload := []byte("invoke open T2")
	sig := sign(sk, payload)
	v := NewVerifier(svc.RealmKey(), clk)
	principal, err := v.Verify("settop/10.1.0.5", sealedTicket, sig, payload, nil)
	if err != nil {
		t.Fatal(err)
	}
	if principal != "settop/10.1.0.5" {
		t.Fatalf("principal = %q", principal)
	}
}

func TestVerifyRejectsForgedSignature(t *testing.T) {
	clk := clock.NewFake()
	svc := NewService(clk)
	svc.Enroll("p")
	ticket, _, _ := svc.IssueTicket("p")
	v := NewVerifier(svc.RealmKey(), clk)
	if _, err := v.Verify("p", ticket, []byte("forged"), []byte("payload"), nil); !errors.Is(err, ErrBadSignature) {
		t.Fatalf("err = %v, want ErrBadSignature", err)
	}
}

func TestVerifyRejectsPrincipalMismatch(t *testing.T) {
	clk := clock.NewFake()
	svc := NewService(clk)
	aliceKey := svc.Enroll("alice")
	svc.Enroll("mallory")
	ticket, sealedSK, _ := svc.IssueTicket("alice")
	sk, _ := Open(aliceKey, sealedSK)
	v := NewVerifier(svc.RealmKey(), clk)
	payload := []byte("p")
	if _, err := v.Verify("mallory", ticket, sign(sk, payload), payload, nil); !errors.Is(err, ErrBadTicket) {
		t.Fatalf("err = %v, want ErrBadTicket", err)
	}
}

func TestVerifyRejectsExpiredTicket(t *testing.T) {
	clk := clock.NewFake()
	svc := NewService(clk)
	key := svc.Enroll("p")
	ticket, sealedSK, _ := svc.IssueTicket("p")
	sk, _ := Open(key, sealedSK)
	clk.Advance(DefaultTicketTTL + time.Hour)
	v := NewVerifier(svc.RealmKey(), clk)
	payload := []byte("late")
	if _, err := v.Verify("p", ticket, sign(sk, payload), payload, nil); !errors.Is(err, ErrExpiredTicket) {
		t.Fatalf("err = %v, want ErrExpiredTicket", err)
	}
}

func TestIssueTicketUnknownPrincipal(t *testing.T) {
	svc := NewService(clock.NewFake())
	if _, _, err := svc.IssueTicket("ghost"); !errors.Is(err, ErrUnknownPrincipal) {
		t.Fatalf("err = %v", err)
	}
}

func TestRevoke(t *testing.T) {
	svc := NewService(clock.NewFake())
	svc.Enroll("p")
	svc.Revoke("p")
	if _, _, err := svc.IssueTicket("p"); !errors.Is(err, ErrUnknownPrincipal) {
		t.Fatalf("revoked principal still issued: %v", err)
	}
}

func TestRealmSignedServerCalls(t *testing.T) {
	clk := clock.NewFake()
	svc := NewService(clk)
	v1 := NewVerifier(svc.RealmKey(), clk)
	v1.Name = "server/192.168.0.1"
	v2 := NewVerifier(svc.RealmKey(), clk)
	payload := []byte("replicate binding")
	principal, ticket, sig, err := v1.Sign(payload, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := v2.Verify(principal, ticket, sig, payload, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got != "server/192.168.0.1" {
		t.Fatalf("principal = %q", got)
	}
	// Wrong realm key must fail.
	v3 := NewVerifier(NewKey(), clk)
	if _, err := v3.Verify(principal, ticket, sig, payload, nil); err == nil {
		t.Fatal("foreign realm signature accepted")
	}
}

func TestAnonymousPolicy(t *testing.T) {
	clk := clock.NewFake()
	svc := NewService(clk)
	v := NewVerifier(svc.RealmKey(), clk)
	if _, err := v.Verify("", nil, nil, []byte("x"), nil); err == nil {
		t.Fatal("anonymous accepted without policy")
	}
	v.AllowAnonymous = true
	if _, err := v.Verify("", nil, nil, []byte("x"), nil); err != nil {
		t.Fatalf("anonymous rejected with policy: %v", err)
	}
}

// TestEndToEndSignedInvocation wires the full path: an auth service
// endpoint (anonymous), a server endpoint with a Verifier, and a settop
// endpoint with a Signer whose fetch goes through the ORB.
func TestEndToEndSignedInvocation(t *testing.T) {
	clk := clock.NewFake()
	nw := transport.NewNetwork()
	svc := NewService(clk)

	// Auth service endpoint.
	authEp, err := orb.NewEndpoint(nw.Host("192.168.0.1"))
	if err != nil {
		t.Fatal(err)
	}
	defer authEp.Close()
	anon := NewVerifier(svc.RealmKey(), clk)
	anon.AllowAnonymous = true
	authEp.SetAuthenticator(anon)
	authRef := authEp.Register("", &ServiceSkeleton{Svc: svc})

	// Application server endpoint requiring signatures.
	appEp, err := orb.NewEndpoint(nw.Host("192.168.0.2"))
	if err != nil {
		t.Fatal(err)
	}
	defer appEp.Close()
	appEp.SetAuthenticator(NewVerifier(svc.RealmKey(), clk))
	appRef := appEp.Register("", &whoamiSkel{})

	// Settop: a plain endpoint for the ticket exchange plus a signed one.
	settopKey := svc.Enroll("settop/10.1.0.5")
	fetchEp, err := orb.NewEndpoint(nw.Host("10.1.0.5"))
	if err != nil {
		t.Fatal(err)
	}
	defer fetchEp.Close()
	stub := &Stub{Ep: fetchEp, Ref: authRef}

	settopEp, err := orb.NewEndpoint(nw.Host("10.1.0.5"))
	if err != nil {
		t.Fatal(err)
	}
	defer settopEp.Close()
	settopEp.SetAuthenticator(NewSigner("settop/10.1.0.5", settopKey, clk,
		func() ([]byte, []byte, error) { return stub.IssueTicket("settop/10.1.0.5") }))

	var who string
	err = settopEp.Invoke(appRef, "whoami", nil,
		func(d *wire.Decoder) error { who = d.String(); return nil })
	if err != nil {
		t.Fatal(err)
	}
	if who != "settop/10.1.0.5" {
		t.Fatalf("server saw principal %q", who)
	}

	// An unsigned endpoint must be rejected.
	err = fetchEp.Invoke(appRef, "whoami", nil, func(d *wire.Decoder) error { _ = d.String(); return nil })
	if !orb.IsApp(err, orb.ExcDenied) {
		t.Fatalf("unsigned call err = %v, want Denied", err)
	}

	// A signer with a stolen principal name but the wrong key fails.
	badEp, err := orb.NewEndpoint(nw.Host("10.1.0.6"))
	if err != nil {
		t.Fatal(err)
	}
	defer badEp.Close()
	badEp.SetAuthenticator(NewSigner("settop/10.1.0.5", NewKey(), clk,
		func() ([]byte, []byte, error) { return stub.IssueTicket("settop/10.1.0.5") }))
	err = badEp.Invoke(appRef, "whoami", nil, func(d *wire.Decoder) error { _ = d.String(); return nil })
	if !orb.IsApp(err, orb.ExcDenied) {
		t.Fatalf("wrong-key call err = %v, want Denied", err)
	}
}

type whoamiSkel struct{}

func (whoamiSkel) TypeID() string { return "test.Whoami" }

func (whoamiSkel) Dispatch(c *orb.ServerCall) error {
	if c.Method() != "whoami" {
		return orb.ErrNoSuchMethod
	}
	c.Results().PutString(c.Caller().Principal)
	return nil
}

// impostor signs as its Signer does but claims another principal's name.
type impostor struct {
	*Signer
	claim string
}

func (i impostor) Sign(payload, sigBuf []byte) (string, []byte, []byte, error) {
	_, ticket, sig, err := i.Signer.Sign(payload, sigBuf)
	return i.claim, ticket, sig, err
}

// TestClaimedPrincipalMustMatchTicket: the server resolves the principal a
// request claims through a table of names it has already verified, so the
// check that the claim matches the ticket must not depend on what that
// table holds.  A valid ticket under someone else's name is a bad ticket
// whether the name is unknown to the server or one it verified a moment
// ago, and the skeleton only ever sees the ticket's own principal.
func TestClaimedPrincipalMustMatchTicket(t *testing.T) {
	clk := clock.NewFake()
	nw := transport.NewNetwork()
	svc := NewService(clk)
	appEp, err := orb.NewEndpoint(nw.Host("192.168.0.2"))
	if err != nil {
		t.Fatal(err)
	}
	defer appEp.Close()
	appEp.SetAuthenticator(NewVerifier(svc.RealmKey(), clk))
	appRef := appEp.Register("", &whoamiSkel{})

	endpointAs := func(host, principal, claim string) *orb.Endpoint {
		t.Helper()
		ep, err := orb.NewEndpoint(nw.Host(host))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(ep.Close)
		signer := NewSigner(principal, svc.Enroll(principal), clk,
			func() ([]byte, []byte, error) { return svc.IssueTicket(principal) })
		if claim == "" {
			ep.SetAuthenticator(signer)
		} else {
			ep.SetAuthenticator(impostor{signer, claim})
		}
		return ep
	}
	whoami := func(ep *orb.Endpoint) (string, error) {
		var who string
		err := ep.Invoke(appRef, "whoami", nil, func(d *wire.Decoder) error { who = d.String(); return nil })
		return who, err
	}
	denied := func(err error) bool {
		var ae *orb.AppError
		return errors.As(err, &ae) && ae.Name == orb.ExcDenied && ae.Msg == ErrBadTicket.Error()
	}

	mallory := endpointAs("10.1.0.66", "mallory", "alice")
	if _, err := whoami(mallory); !denied(err) {
		t.Fatalf("unknown claimed name: %v, want Denied: %v", err, ErrBadTicket)
	}
	alice := endpointAs("10.1.0.5", "alice", "")
	for i := 0; i < 3; i++ { // the first call admits the name, the rest find it
		if who, err := whoami(alice); err != nil || who != "alice" {
			t.Fatalf("alice's own call %d: %q, %v", i, who, err)
		}
	}
	if _, err := whoami(mallory); !denied(err) {
		t.Fatalf("claimed name the server has verified: %v, want Denied: %v", err, ErrBadTicket)
	}
	if who, err := whoami(endpointAs("10.1.0.67", "mallory", "")); err != nil || who != "mallory" {
		t.Fatalf("mallory under her own name: %q, %v", who, err)
	}
}
