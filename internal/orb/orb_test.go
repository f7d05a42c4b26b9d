package orb

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"itv/internal/oref"
	"itv/internal/transport"
	"itv/internal/wire"
)

// echoSkel is a hand-written skeleton of a small test interface, shaped the
// way real service skeletons in this repo are.
type echoSkel struct {
	mu      sync.Mutex
	callers []Caller
	block   chan struct{}
}

func (s *echoSkel) TypeID() string { return "test.Echo" }

func (s *echoSkel) Dispatch(c *ServerCall) error {
	s.mu.Lock()
	s.callers = append(s.callers, c.Caller())
	s.mu.Unlock()
	switch c.Method() {
	case "echo":
		msg := c.Args().String()
		c.Results().PutString(msg)
		return nil
	case "add":
		a, b := c.Args().Int(), c.Args().Int()
		c.Results().PutInt(a + b)
		return nil
	case "fail":
		return Errf(ExcNotFound, "no movie %q", c.Args().String())
	case "block":
		<-s.block
		return nil
	case "panic":
		panic("deliberate")
	default:
		return ErrNoSuchMethod
	}
}

func (s *echoSkel) lastCaller() Caller {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.callers[len(s.callers)-1]
}

func newPair(t *testing.T) (*Endpoint, *Endpoint, *echoSkel, oref.Ref) {
	nw := transport.NewNetwork()
	skel := &echoSkel{block: make(chan struct{})}
	server, client, ref, closeAll := pairOn([2]transport.Transport{nw.Host("192.168.0.1"), nw.Host("10.1.0.5")}, skel)
	t.Cleanup(func() { close(skel.block); closeAll() })
	return server, client, skel, ref
}

func echo(t *testing.T, e *Endpoint, ref oref.Ref, msg string) (string, error) {
	t.Helper()
	var out string
	err := e.Invoke(ref, "echo",
		func(enc *wire.Encoder) { enc.PutString(msg) },
		func(d *wire.Decoder) error { out = d.String(); return nil })
	return out, err
}

func TestInvokeRoundTrip(t *testing.T) {
	_, client, _, ref := newPair(t)
	got, err := echo(t, client, ref, "hello orlando")
	if err != nil {
		t.Fatal(err)
	}
	if got != "hello orlando" {
		t.Fatalf("echo = %q", got)
	}
	var sum int64
	err = client.Invoke(ref, "add",
		func(e *wire.Encoder) { e.PutInt(20); e.PutInt(22) },
		func(d *wire.Decoder) error { sum = d.Int(); return nil })
	if err != nil || sum != 42 {
		t.Fatalf("add = %d, err %v", sum, err)
	}
}

func TestCallerAddressAndPrincipal(t *testing.T) {
	_, client, skel, ref := newPair(t)
	if _, err := echo(t, client, ref, "x"); err != nil {
		t.Fatal(err)
	}
	c := skel.lastCaller()
	if c.Host() != "10.1.0.5" {
		t.Fatalf("caller host = %q, want 10.1.0.5", c.Host())
	}
	if c.Local {
		t.Fatal("remote call marked local")
	}
}

func TestAppErrorRoundTrip(t *testing.T) {
	_, client, _, ref := newPair(t)
	err := client.Invoke(ref, "fail",
		func(e *wire.Encoder) { e.PutString("T2") }, nil)
	if !IsApp(err, ExcNotFound) {
		t.Fatalf("err = %v, want NotFound app error", err)
	}
	var ae *AppError
	if !errors.As(err, &ae) || ae.Msg != `no movie "T2"` {
		t.Fatalf("message = %v", err)
	}
	if Dead(err) {
		t.Fatal("app error misclassified as dead reference")
	}
}

func TestNoSuchMethod(t *testing.T) {
	_, client, _, ref := newPair(t)
	err := client.Invoke(ref, "bogus", nil, nil)
	if !errors.Is(err, ErrNoSuchMethod) {
		t.Fatalf("err = %v, want ErrNoSuchMethod", err)
	}
}

func TestStaleIncarnationRejected(t *testing.T) {
	_, client, _, ref := newPair(t)
	stale := ref
	stale.Incarnation--
	err := client.Invoke(stale, "echo", func(e *wire.Encoder) { e.PutString("x") }, nil)
	if !errors.Is(err, ErrInvalidReference) {
		t.Fatalf("err = %v, want ErrInvalidReference", err)
	}
	if !Dead(err) {
		t.Fatal("invalid reference must be classified dead")
	}
}

func TestUnregisteredObjectRejected(t *testing.T) {
	server, client, _, _ := newPair(t)
	sk2 := &echoSkel{block: make(chan struct{})}
	ref2 := server.Register("movie-1", sk2)
	if _, err := echo(t, client, ref2, "y"); err != nil {
		t.Fatal(err)
	}
	server.Unregister("movie-1")
	_, err := echo(t, client, ref2, "y")
	if !errors.Is(err, ErrInvalidReference) {
		t.Fatalf("err = %v, want ErrInvalidReference after Unregister", err)
	}
}

func TestClosedEndpointUnreachable(t *testing.T) {
	server, client, _, ref := newPair(t)
	server.Close()
	_, err := echo(t, client, ref, "z")
	if !errors.Is(err, ErrUnreachable) {
		t.Fatalf("err = %v, want ErrUnreachable", err)
	}
	if !Dead(err) {
		t.Fatal("unreachable must be classified dead")
	}
}

func TestPing(t *testing.T) {
	server, client, _, ref := newPair(t)
	if err := client.Ping(ref); err != nil {
		t.Fatalf("ping live: %v", err)
	}
	stale := ref
	stale.Incarnation++
	if err := client.Ping(stale); !errors.Is(err, ErrInvalidReference) {
		t.Fatalf("ping stale: %v", err)
	}
	server.Close()
	if err := client.Ping(ref); !errors.Is(err, ErrUnreachable) {
		t.Fatalf("ping dead: %v", err)
	}
}

func TestLocalShortCircuit(t *testing.T) {
	server, _, skel, ref := newPair(t)
	got, err := echo(t, server, ref, "local")
	if err != nil || got != "local" {
		t.Fatalf("local echo = %q, err %v", got, err)
	}
	if !skel.lastCaller().Local {
		t.Fatal("local call not marked local")
	}
	st := server.Stats()
	if st.LocalCalls != 1 || st.Sent != 0 {
		t.Fatalf("stats = %+v, want 1 local call and 0 sent", st)
	}
}

func TestConcurrentInvocations(t *testing.T) {
	_, client, _, ref := newPair(t)
	const n = 64
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var sum int64
			err := client.Invoke(ref, "add",
				func(e *wire.Encoder) { e.PutInt(int64(i)); e.PutInt(1) },
				func(d *wire.Decoder) error { sum = d.Int(); return nil })
			if err == nil && sum != int64(i)+1 {
				err = Errf("Mismatch", "sum %d for i %d", sum, i)
			}
			errs <- err
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

func TestInvokeTimeout(t *testing.T) {
	_, client, _, ref := newPair(t)
	client.SetCallTimeout(50 * time.Millisecond)
	err := client.Invoke(ref, "block", nil, nil)
	if !errors.Is(err, ErrUnreachable) {
		t.Fatalf("err = %v, want ErrUnreachable on timeout", err)
	}
}

func TestServerSurvivesPanic(t *testing.T) {
	_, client, _, ref := newPair(t)
	err := client.Invoke(ref, "panic", nil, nil)
	if !IsApp(err, "ServerPanic") {
		t.Fatalf("err = %v, want ServerPanic", err)
	}
	if _, err := echo(t, client, ref, "still up"); err != nil {
		t.Fatalf("server dead after panic: %v", err)
	}
}

func TestNilRefInvoke(t *testing.T) {
	_, client, _, _ := newPair(t)
	err := client.Invoke(oref.Ref{}, "echo", nil, nil)
	if !errors.Is(err, ErrInvalidReference) {
		t.Fatalf("err = %v", err)
	}
}

func TestStatsCounters(t *testing.T) {
	server, client, _, ref := newPair(t)
	for i := 0; i < 5; i++ {
		if _, err := echo(t, client, ref, "s"); err != nil {
			t.Fatal(err)
		}
	}
	if got := client.Stats().Sent; got != 5 {
		t.Fatalf("client sent = %d, want 5", got)
	}
	if got := server.Stats().Received; got != 5 {
		t.Fatalf("server received = %d, want 5", got)
	}
}

func TestRefForAndDuplicateRegister(t *testing.T) {
	server, _, _, ref := newPair(t)
	if got := server.RefFor(""); got != ref {
		t.Fatalf("RefFor = %v, want %v", got, ref)
	}
	if got := server.RefFor("nope"); !got.IsNil() {
		t.Fatalf("RefFor(nope) = %v, want nil ref", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate Register did not panic")
		}
	}()
	server.Register("", &echoSkel{})
}

// TestRegisterUnregisterAllocatesNothing: a per-session object (an open
// movie, §9.2) registered and withdrawn beside long-lived ones costs
// nothing on the heap — the object table is written in place, not copied,
// so a movie open and close do not grow with the objects already live.
func TestRegisterUnregisterAllocatesNothing(t *testing.T) {
	server, _, _, _ := newPair(t)
	for i := 0; i < 20; i++ {
		server.Register(fmt.Sprintf("svc-%d", i), &echoSkel{})
	}
	sk := &echoSkel{}
	pair := func() {
		server.Register("movie-1", sk)
		server.Unregister("movie-1")
	}
	for i := 0; i < 100; i++ {
		pair()
	}
	if n := testing.AllocsPerRun(10000, pair); n != 0 {
		t.Errorf("Register+Unregister beside 20 objects: %.2f allocs, want 0", n)
	}
}

// idSkel answers "id" with the object id it was registered under.
type idSkel string

func (s idSkel) TypeID() string { return "test.Id" }

func (s idSkel) Dispatch(c *ServerCall) error {
	if c.Method() != "id" {
		return ErrNoSuchMethod
	}
	c.Results().PutString(string(s))
	return nil
}

// TestDispatchWhileRegistering: while per-session objects come and go,
// every call — remote, and local on the server's own endpoint — reaches
// the skeleton registered under its own id or is told the reference is
// invalid, never another object's; the long-lived object always answers.
func TestDispatchWhileRegistering(t *testing.T) {
	server, client, _, _ := newPair(t)
	longRef := server.Register("long", idSkel("long"))
	ids := []string{"movie-1", "movie-2", "movie-3", "movie-4"}
	refs := make([]oref.Ref, len(ids))
	for i, id := range ids {
		refs[i] = server.Register(id, idSkel(id))
		server.Unregister(id)
	}

	stop := make(chan struct{})
	var churn sync.WaitGroup
	for _, id := range ids {
		churn.Add(1)
		go func() {
			defer churn.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				server.Register(id, idSkel(id))
				server.Unregister(id)
			}
		}()
	}

	call := func(e *Endpoint, ref oref.Ref) (string, error) {
		var got string
		err := e.Invoke(ref, "id", nil, func(d *wire.Decoder) error { got = d.String(); return nil })
		return got, err
	}
	var wg sync.WaitGroup
	callers := []*Endpoint{client, client, server, server}
	errs := make(chan error, len(callers)) // one from each at most
	for c, e := range callers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				if got, err := call(e, longRef); err != nil || got != "long" {
					errs <- fmt.Errorf("long-lived object answered %q, %v", got, err)
					return
				}
				k := (c + i) % len(ids)
				got, err := call(e, refs[k])
				switch {
				case errors.Is(err, ErrInvalidReference):
				case err != nil:
					errs <- fmt.Errorf("%s: %v, want its answer or an invalid reference", ids[k], err)
					return
				case got != ids[k]:
					errs <- fmt.Errorf("a call on %s reached %s", ids[k], got)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	churn.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestReconnectAfterServerRestart(t *testing.T) {
	// A "restarted service" is a fresh endpoint: the old reference must
	// fail (driving the client library to re-resolve) and a new reference
	// must work over the same client endpoint.
	nw := transport.NewNetwork()
	serverHost := nw.Host("192.168.0.1")
	server1, err := NewEndpoint(serverHost)
	if err != nil {
		t.Fatal(err)
	}
	client, err := NewEndpoint(nw.Host("10.1.0.5"))
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	ref1 := server1.Register("", &echoSkel{})
	if _, err := echo(t, client, ref1, "a"); err != nil {
		t.Fatal(err)
	}
	server1.Close()

	server2, err := NewEndpoint(serverHost)
	if err != nil {
		t.Fatal(err)
	}
	defer server2.Close()
	ref2 := server2.Register("", &echoSkel{})

	if _, err := echo(t, client, ref1, "b"); !Dead(err) {
		t.Fatalf("old ref err = %v, want dead", err)
	}
	if got, err := echo(t, client, ref2, "c"); err != nil || got != "c" {
		t.Fatalf("new ref echo = %q, err %v", got, err)
	}
	if server1.Incarnation() == server2.Incarnation() {
		t.Fatal("restart reused incarnation")
	}
}
