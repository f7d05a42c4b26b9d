package orb

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"itv/internal/oref"
	"itv/internal/transport"
	"itv/internal/wire"
)

// The tests here are about the tickets a connection holds (DESIGN.md §12):
// a signed request leaves its ticket and principal out once the server has
// verified them on its connection, and the server checks it against what
// that connection holds, and nothing else.

// ticketAuth is a test Authenticator in the shape of the auth package's,
// which these tests cannot import: a ticket names principal, and a
// signature is the SHA-256 of the ticket and the payload, so it verifies
// under the ticket it was made with and no other.  A call without a
// ticket is realm-signed, and ticketAuth holds no realm key: it denies
// them all.
type ticketAuth struct {
	mu     sync.Mutex
	ticket []byte        // replaced on refresh, never mutated
	signed chan struct{} // one token a Sign, when not full
	behind atomic.Bool   // a frame signed under ticket 1 was tried against ticket 2
}

const testPrincipal = "settop/10.45.0.9"

func newTicketAuth() *ticketAuth {
	return &ticketAuth{ticket: []byte("ticket 1"), signed: make(chan struct{}, 1)}
}

// refresh replaces the ticket, as a Signer does when its ticket nears
// expiry.
func (a *ticketAuth) refresh(ticket string) {
	a.mu.Lock()
	a.ticket = []byte(ticket)
	a.mu.Unlock()
}

func ticketSig(ticket, payload []byte) []byte {
	h := sha256.New()
	h.Write(ticket)
	h.Write(payload)
	return h.Sum(nil)
}

func (a *ticketAuth) Sign(payload, sigBuf []byte) (string, []byte, []byte, error) {
	a.mu.Lock()
	ticket := a.ticket
	a.mu.Unlock()
	select {
	case a.signed <- struct{}{}:
	default:
	}
	return testPrincipal, ticket, append(sigBuf, ticketSig(ticket, payload)...), nil
}

func (a *ticketAuth) Verify(principal string, ticket, sig, payload, _ []byte) (string, error) {
	switch {
	case len(ticket) == 0:
		return "", errors.New("realm-signed call: no realm key")
	case principal != testPrincipal:
		return "", fmt.Errorf("ticket of %q presented by %q", testPrincipal, principal)
	case string(sig) != string(ticketSig(ticket, payload)):
		if string(ticket) == "ticket 2" && string(sig) == string(ticketSig([]byte("ticket 1"), payload)) {
			a.behind.Store(true)
		}
		return "", errors.New("bad signature")
	}
	return principal, nil
}

// rawCaller writes requests to a server on one connection of its own, so a
// test can send frames no client endpoint would: one that leaves out a
// ticket its connection never proved.
type rawCaller struct {
	conn net.Conn
	ref  oref.Ref
}

// call sends "echo" signed under ticket (spoiled when forged), carrying the
// ticket and principal unless held, and returns the reply's status and
// exception name.
func (c *rawCaller) call(t *testing.T, ticket string, held, forged bool) (uint64, string) {
	t.Helper()
	body := new(wire.Encoder)
	body.PutString("hi")
	req := request{ReqID: 1, Version: wireVersion, ObjectID: c.ref.ObjectID, Incarnation: c.ref.Incarnation,
		Method: "echo", Principal: testPrincipal, Ticket: []byte(ticket), Body: body.Bytes(), held: held}
	se := new(wire.Encoder)
	req.appendSigPayload(se)
	req.Sig = ticketSig(req.Ticket, se.Bytes())
	if forged {
		req.Sig[0] ^= 1
	}
	fe := new(wire.Encoder)
	if err := wire.AppendFrame(fe, &req); err != nil {
		t.Fatal(err)
	}
	if _, err := c.conn.Write(fe.Bytes()); err != nil {
		t.Fatal(err)
	}
	frame, err := wire.ReadFrameInto(c.conn, nil)
	if err != nil {
		t.Fatal(err)
	}
	var resp response
	if err := wire.Unmarshal(frame, &resp); err != nil {
		t.Fatal(err)
	}
	return resp.Status, resp.ErrName
}

// TestHeldTicketsAreTheConnections: a request that leaves its ticket out is
// verified against the tickets its own connection proved, and is denied
// when there are none — checked as realm-signed — when the ticket it was
// signed under is not among them, and on another connection.  A ticket
// whose request failed verification is not held.
func TestHeldTicketsAreTheConnections(t *testing.T) {
	nw := transport.NewNetwork()
	skel := &echoSkel{block: make(chan struct{})}
	server, err := NewEndpoint(nw.Host(perRun("192.168.45.2")))
	if err != nil {
		t.Fatal(err)
	}
	defer server.Close()
	server.SetAuthenticator(newTicketAuth())
	r := server.Register("", skel)
	dial := func() *rawCaller {
		conn, err := nw.Host(perRun("10.45.0.9")).Dial(server.Addr())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { conn.Close() })
		return &rawCaller{conn: conn, ref: r}
	}
	a, b := dial(), dial()
	steps := []struct {
		what         string
		c            *rawCaller
		ticket       string
		held, forged bool
		ok           bool
	}{
		{"no ticket on a connection that holds none", a, "ticket 1", true, false, false},
		{"a forged signature under a carried ticket", a, "ticket 1", false, true, false},
		{"no ticket after the forged one", a, "ticket 1", true, false, false},
		{"a carried ticket", a, "ticket 1", false, false, true},
		{"no ticket after it verified", a, "ticket 1", true, false, true},
		{"no ticket, signed under one the connection never proved", a, "ticket 2", true, false, false},
		{"a forged signature under the held ticket", a, "ticket 1", true, true, false},
		{"no ticket on another connection", b, "ticket 1", true, false, false},
	}
	for _, s := range steps {
		status, exc := s.c.call(t, s.ticket, s.held, s.forged)
		switch {
		case s.ok && status != statusOK:
			t.Errorf("%s: status %d %s, want statusOK", s.what, status, exc)
		case s.ok && skel.lastCaller().Principal != testPrincipal:
			t.Errorf("%s: served as %q, want %q", s.what, skel.lastCaller().Principal, testPrincipal)
		case !s.ok && (status != statusApp || exc != ExcDenied):
			t.Errorf("%s: status %d %q, want %s", s.what, status, exc, ExcDenied)
		}
	}
}

const premiseOldBehindNew = "a frame without its ticket, signed under the old one, was tried against the new one first"

// refreshRace: callers on one connection across a refresh.  The warm call
// carries ticket 1, which the server holds from then on.  O signs under
// ticket 1 and N, after the refresh, under ticket 2; O's frame leaves its
// ticket out when it is encoded before N's reply, and the server may
// verify it after it has held ticket 2 in front of ticket 1
// (premiseOldBehindNew).  Every call verifies, and one after both, under
// ticket 2, does too.
var refreshRace = scenario{"refresh race", func(x *explorer) error {
	a := newTicketAuth()
	server, client, ref, closeAll := pairOn(memnet(), &echoSkel{})
	defer closeAll()
	server.SetAuthenticator(a)
	client.SetAuthenticator(a)
	if _, err := timed(x, client, ref, "echo", "warm", time.Second); err != nil {
		return fmt.Errorf("warm call: %w", err)
	}
	<-a.signed
	old := make(chan error, 1)
	go func() {
		x.label("O")
		_, err := timed(x, client, ref, "echo", "old", time.Second)
		old <- err
	}()
	<-a.signed
	a.refresh("ticket 2")
	_, nerr := timed(x, client, ref, "echo", "new", time.Second)
	oerr := <-old
	_, aerr := timed(x, client, ref, "echo", "after", time.Second)
	if a.behind.Load() {
		x.note(premiseOldBehindNew)
	}
	if oerr != nil || nerr != nil || aerr != nil {
		return fmt.Errorf("O: %v; N: %v; the call after both: %v; want every call verified", oerr, nerr, aerr)
	}
	return nil
}}

func TestExploreRefreshRace(t *testing.T) { exploreRange(t, refreshRace) }

// TestHeldTicketOutlivesARefresh runs a seed at which O's frame is tried
// against ticket 2 before ticket 1: with one ticket held, not two, O is
// denied there.
func TestHeldTicketOutlivesARefresh(t *testing.T) { explorePins(t) }
