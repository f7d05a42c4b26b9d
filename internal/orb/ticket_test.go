package orb_test

import (
	"errors"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"itv/internal/auth"
	"itv/internal/clock"
	"itv/internal/orb"
	"itv/internal/transport"
	"itv/internal/wire"
)

// whoami answers each call with the principal the server verified for it.
type whoami struct{}

func (whoami) TypeID() string { return "test.Whoami" }

func (whoami) Dispatch(c *orb.ServerCall) error {
	c.Results().PutString(c.Caller().Principal)
	return nil
}

// forger is a Signer whose signatures can be spoiled, one bit each.
type forger struct {
	*auth.Signer
	forge atomic.Bool
}

func (f *forger) Sign(payload, sigBuf []byte) (string, []byte, []byte, error) {
	principal, ticket, sig, err := f.Signer.Sign(payload, sigBuf)
	if err == nil && f.forge.Load() {
		sig[0] ^= 1
	}
	return principal, ticket, sig, err
}

// TestTicketRidesOncePerConnection: a signed call carries its ticket and
// principal on a connection until the server has accepted them there, and
// then leaves both out; the server still names the caller.  The first
// call on a connection carries them, and so do the first on a re-dialled
// connection and the first under a refreshed ticket.  A ticket whose call
// failed verification is not held: the call is denied and the next one
// carries it again.  So is one a server accepted before it had an
// authenticator: the first call that leaves it out once the server has
// one is denied, and the next carries it.  What a call carries is read off
// the bytes the server reads for it.
func TestTicketRidesOncePerConnection(t *testing.T) {
	nw := transport.NewNetwork()
	serverHost, clientHost := orb.PerRun("192.168.45.1"), orb.PerRun("10.45.0.1")
	serverTr := nw.Host(serverHost)
	server, err := orb.NewEndpoint(serverTr)
	if err != nil {
		t.Fatal(err)
	}
	defer server.Close()
	client, err := orb.NewEndpoint(nw.Host(clientHost))
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	clk := clock.NewFake()
	svc := auth.NewService(clk)
	ref := server.Register("", whoami{})
	principal := "settop/" + clientHost
	key := svc.Enroll(principal)
	signer := &forger{Signer: auth.NewSigner(principal, key, clk,
		func() ([]byte, []byte, error) { return svc.IssueTicket(principal) })}
	client.SetAuthenticator(signer)
	ticket, _, err := svc.IssueTicket(principal)
	if err != nil {
		t.Fatal(err)
	}
	// A call that carries them sends this many bytes more: the lengths of
	// both fit one byte either way.
	carried := int64(len(principal) + len(ticket))

	// call makes one call and returns the bytes the server read for it
	// (all of them before it replied) and its error; once the server
	// verifies, a call that succeeds must be named for the principal.
	verifies := false
	read := func() int64 { return serverTr.(transport.StatsSource).Stats().BytesRecv }
	call := func() (int64, error) {
		before := read()
		var got string
		err := client.Invoke(ref, "whoami", nil, func(d *wire.Decoder) error {
			got = d.String()
			return nil
		})
		if err == nil && verifies && got != principal {
			t.Errorf("the server named the caller %q, want %q", got, principal)
		}
		return read() - before, err
	}
	// expect makes one call per entry, each of which carries the ticket or
	// leaves it out as its entry says.
	var bare int64 // what a call that leaves the ticket out sends
	expect := func(step string, carries ...bool) {
		t.Helper()
		sent := make([]int64, len(carries))
		for i := range carries {
			var err error
			if sent[i], err = call(); err != nil {
				t.Fatalf("%s, call %d: %v", step, i, err)
			}
		}
		if bare == 0 {
			bare = sent[slices.Index(carries, false)]
		}
		for i, c := range carries {
			want := bare
			if c {
				want += carried
			}
			if sent[i] != want {
				t.Errorf("%s, call %d: sent %d bytes, want %d (carries the ticket: %v)", step, i, sent[i], want, c)
			}
		}
	}
	denied := func(err error) bool {
		var ae *orb.AppError
		return errors.As(err, &ae) && ae.Name == orb.ExcDenied
	}
	sever := func() {
		nw.Cut(serverHost)
		nw.Restore(serverHost)
	}

	expect("a server that verifies nothing", true, false)
	server.SetAuthenticator(auth.NewVerifier(svc.RealmKey(), clk))
	verifies = true
	if _, err := call(); !denied(err) {
		t.Fatalf("a call without its ticket to a server that never verified it: %v, want %s", err, orb.ExcDenied)
	}
	expect("once the server verifies", true, false, false)
	sever()
	expect("after the server dropped the connection", true, false)
	clk.Advance(30 * time.Minute)
	expect("after a refresh", true, false, false)

	sever()
	signer.forge.Store(true)
	n, err := call()
	if !denied(err) {
		t.Fatalf("a forged call: %v, want %s", err, orb.ExcDenied)
	}
	if n != bare+carried {
		t.Errorf("a forged call on a fresh connection sent %d bytes, want %d", n, bare+carried)
	}
	signer.forge.Store(false)
	expect("after a forged call", true, false)
}
