package orb

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"itv/internal/obs"
	"itv/internal/oref"
	"itv/internal/transport"
	"itv/internal/wire"
)

// The tests here are about the decode boundary of a served request
// (DESIGN.md §9): its object id, method and principal arrive as bytes in a
// pooled frame buffer and must reach the skeleton as strings that outlive
// it, out of tables a peer cannot grow.

// claimer is a test Authenticator.  As a client's it claims whatever
// principal it is told to and signs with whatever it is told to; as a
// server's it vouches for the claimed principal exactly when the signature
// reads "good" — the shape of a realm-signed call, where the signature
// does not cover the principal.
type claimer struct {
	mu        sync.Mutex
	principal string
	sig       string
}

func (c *claimer) claim(principal, sig string) {
	c.mu.Lock()
	c.principal, c.sig = principal, sig
	c.mu.Unlock()
}

func (c *claimer) Sign(_, sigBuf []byte) (string, []byte, []byte, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.principal, nil, append(sigBuf, c.sig...), nil
}

func (c *claimer) Verify(principal string, _, sig, _, _ []byte) (string, error) {
	if string(sig) != "good" {
		return "", errors.New("bad signature")
	}
	return principal, nil
}

// keeper is a skeleton that does what ServerCall's contract allows and the
// frame pool makes dangerous: it keeps every call's method and principal
// long after Dispatch returned.
type keeper struct {
	mu   sync.Mutex
	kept []keptCall
}

type keptCall struct{ method, principal, arg string }

func (k *keeper) TypeID() string { return "test.Keeper" }

func (k *keeper) Dispatch(c *ServerCall) error {
	if c.Method() == "nope" || len(c.Method()) > 5 && c.Method()[:5] == "junk-" {
		return ErrNoSuchMethod
	}
	k.mu.Lock()
	k.kept = append(k.kept, keptCall{c.Method(), c.Caller().Principal, c.Args().String()})
	k.mu.Unlock()
	return nil
}

func (k *keeper) calls() []keptCall {
	k.mu.Lock()
	defer k.mu.Unlock()
	return append([]keptCall(nil), k.kept...)
}

// newKeeperServer starts an endpoint with a keeper behind its default
// object, under a per-run host name so each run's node registry starts
// cold.
func newKeeperServer(t *testing.T) (nw *transport.Network, server *Endpoint, k *keeper, ref oref.Ref) {
	t.Helper()
	nw = transport.NewNetwork()
	server, err := NewEndpoint(nw.Host(perRun("192.168.3.1")))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(server.Close)
	k = &keeper{}
	return nw, server, k, server.Register("", k)
}

// newKeeperPair is newKeeperServer plus one client endpoint.
func newKeeperPair(t *testing.T) (server, client *Endpoint, k *keeper, ref oref.Ref) {
	t.Helper()
	nw, server, k, ref := newKeeperServer(t)
	client, err := NewEndpoint(nw.Host(perRun("10.3.0.5")))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(client.Close)
	return server, client, k, ref
}

func putArg(s string) func(*wire.Encoder) {
	return func(e *wire.Encoder) { e.PutString(s) }
}

// TestJunkNamesGrowNothing: ten thousand calls that each invent a method
// name and a principal leave the method table where it was, the principal
// table at or below its bound and the node registry with the series it
// had — and the endpoint still serves real calls under their real names.
func TestJunkNamesGrowNothing(t *testing.T) {
	server, client, k, ref := newKeeperPair(t)
	who := &claimer{}
	client.SetAuthenticator(who) // the server has none: it takes principals as claimed

	who.claim("settop/10.3.0.5", "")
	if err := client.Invoke(ref, "save", putArg("warm"), nil); err != nil {
		t.Fatal(err)
	}
	shared := obs.L("orb_service_time", "method", otherMethods)
	if strings.Contains(server.Metrics().Text(), shared) {
		t.Fatalf("a node that has only been asked for what it serves carries %s", shared)
	}
	if err := client.Invoke(ref, "nope", nil, nil); !errors.Is(err, ErrNoSuchMethod) {
		t.Fatalf("unserved method: %v", err)
	}
	if !strings.Contains(server.Metrics().Text(), shared) {
		t.Fatalf("an unserved method was not timed in %s", shared)
	}
	methods, series := server.metrics.methods.Len(), len(server.Metrics().Snapshot())

	for i := 0; i < 10000; i++ {
		who.claim(fmt.Sprintf("nobody-%d", i), "")
		if err := client.Invoke(ref, fmt.Sprintf("junk-%d", i), nil, nil); !errors.Is(err, ErrNoSuchMethod) {
			t.Fatalf("junk call %d: %v", i, err)
		}
	}
	if got := server.metrics.methods.Len(); got != methods {
		t.Fatalf("method table went from %d to %d entries on names no skeleton serves", methods, got)
	}
	if got := server.principals.Len(); got > wire.TableEntries {
		t.Fatalf("principal table holds %d entries, bound is %d", got, wire.TableEntries)
	}
	if got := len(server.Metrics().Snapshot()); got != series {
		t.Fatalf("node registry went from %d to %d series", series, got)
	}

	// The principal table is full of nobodies by now; a caller it has no
	// room for is served all the same, under the right name.
	who.claim("settop/10.3.0.9", "")
	if err := client.Invoke(ref, "save", putArg("after"), nil); err != nil {
		t.Fatal(err)
	}
	if err := client.Invoke(ref, "load", putArg("first"), nil); err != nil {
		t.Fatal(err)
	}
	want := []keptCall{
		{"save", "settop/10.3.0.5", "warm"},
		{"save", "settop/10.3.0.9", "after"},
		{"load", "settop/10.3.0.9", "first"},
	}
	got := k.calls()
	if len(got) != len(want) {
		t.Fatalf("skeleton saw %d calls, want %d: %v", len(got), len(want), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("call %d reached the skeleton as %+v, want %+v", i, got[i], want[i])
		}
	}
	for _, m := range []string{"save", "load"} {
		if _, held := server.metrics.methods.Lookup([]byte(m)); !held {
			t.Fatalf("served method %q has no row of its own", m)
		}
	}
}

// TestKeptStringsSurviveTheFrame drives handleInto the way a connection
// worker does and then overwrites the frame the request was decoded from —
// what the pool's next reader does to it.  The method and principal the
// skeleton kept must read back intact both for a name's first call (copied
// out of the frame) and for every later one (the table's string), and the
// tables' own entries must not have aliased the frame either.
func TestKeptStringsSurviveTheFrame(t *testing.T) {
	_, server, k, ref := newKeeperServer(t)
	serve := func(method, principal, arg string) {
		t.Helper()
		s := getScratch()
		defer putScratch(s)
		e := new(wire.Encoder)
		putArg(arg)(e)
		out := request{ReqID: 1, Version: wireVersion, ObjectID: ref.ObjectID, Incarnation: ref.Incarnation,
			Method: method, Principal: principal, Body: e.Bytes()}
		fe := new(wire.Encoder)
		out.MarshalWire(fe)
		frame := fe.Bytes()

		var in request
		d := new(wire.Decoder)
		d.Reset(frame)
		in.UnmarshalWire(d)
		if d.Err() != nil {
			t.Fatal(d.Err())
		}
		gotMethod, _ := server.handleInto(&in, "10.3.0.5:40000", new(tickets), s, mono())
		if s.resp.Status != statusOK {
			t.Fatalf("%s: status %d %s %s", method, s.resp.Status, s.resp.ErrName, s.resp.ErrMsg)
		}
		for i := range frame {
			frame[i] = 0xEE
		}
		if gotMethod != method {
			t.Fatalf("attributed method changed with the frame: %q, want %q", gotMethod, method)
		}
	}
	serve("position", "settop/10.3.0.5", "a") // both names new: copied out
	serve("position", "settop/10.3.0.5", "b") // both from the tables
	serve("position", "settop/10.3.0.6", "c")
	serve("pause", "settop/10.3.0.5", "d")
	want := []keptCall{
		{"position", "settop/10.3.0.5", "a"},
		{"position", "settop/10.3.0.5", "b"},
		{"position", "settop/10.3.0.6", "c"},
		{"pause", "settop/10.3.0.5", "d"},
	}
	got := k.calls()
	for i := range want {
		if i >= len(got) || got[i] != want[i] {
			t.Fatalf("kept calls = %+v, want %+v", got, want)
		}
	}
}

// TestKeptStringsUnderConcurrentReuse is the same property over real
// connections with the race detector watching: many callers, a handful of
// names, pooled frame buffers changing hands between every call.
func TestKeptStringsUnderConcurrentReuse(t *testing.T) {
	nw, server, k, ref := newKeeperServer(t)
	server.SetAuthenticator(&claimer{})
	const callers, rounds = 8, 50
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			ep, err := NewEndpoint(nw.Host(fmt.Sprintf("10.3.1.%d", c)))
			if err != nil {
				t.Error(err)
				return
			}
			defer ep.Close()
			who := &claimer{}
			who.claim(fmt.Sprintf("settop/10.3.1.%d", c), "good")
			ep.SetAuthenticator(who)
			for r := 0; r < rounds; r++ {
				method := fmt.Sprintf("op%d", (c+r)%5)
				if err := ep.Invoke(ref, method, putArg(fmt.Sprintf("%d/%s", c, method)), nil); err != nil {
					t.Errorf("caller %d round %d: %v", c, r, err)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	got := k.calls()
	if len(got) != callers*rounds {
		t.Fatalf("skeleton saw %d calls, want %d", len(got), callers*rounds)
	}
	// Every call's argument says who made it and which method it named.
	for _, kc := range got {
		var c int
		var method string
		if _, err := fmt.Sscanf(kc.arg, "%d/%s", &c, &method); err != nil {
			t.Fatalf("argument %q: %v", kc.arg, err)
		}
		if kc.method != method || kc.principal != fmt.Sprintf("settop/10.3.1.%d", c) {
			t.Fatalf("call with argument %q was kept as %+v", kc.arg, kc)
		}
	}
}

// TestRejectedPrincipalIsNeverAdmitted: a principal enters the table only
// once the authenticator has vouched for the call that claimed it.
func TestRejectedPrincipalIsNeverAdmitted(t *testing.T) {
	server, client, k, ref := newKeeperPair(t)
	server.SetAuthenticator(&claimer{})
	who := &claimer{}
	client.SetAuthenticator(who)

	for i := 0; i < 3; i++ {
		who.claim("mallory", "forged")
		if err := client.Invoke(ref, "save", putArg("x"), nil); !IsApp(err, ExcDenied) {
			t.Fatalf("forged call: %v, want Denied", err)
		}
	}
	if _, held := server.principals.Lookup([]byte("mallory")); held || server.principals.Len() != 0 {
		t.Fatalf("a rejected principal was admitted (%d entries)", server.principals.Len())
	}
	if len(k.calls()) != 0 {
		t.Fatal("a rejected call reached the skeleton")
	}

	who.claim("alice", "good")
	for i := 0; i < 3; i++ {
		if err := client.Invoke(ref, "save", putArg("y"), nil); err != nil {
			t.Fatal(err)
		}
	}
	if p, held := server.principals.Lookup([]byte("alice")); !held || p != "alice" || server.principals.Len() != 1 {
		t.Fatalf("verified principal not admitted exactly once: %q %v, %d entries", p, held, server.principals.Len())
	}
	// Having been verified once buys a name nothing the next time.
	who.claim("alice", "forged")
	if err := client.Invoke(ref, "save", putArg("z"), nil); !IsApp(err, ExcDenied) {
		t.Fatalf("forged call under an admitted name: %v, want Denied", err)
	}
	for _, kc := range k.calls() {
		if kc.principal != "alice" || kc.arg != "y" {
			t.Fatalf("skeleton saw %+v", kc)
		}
	}
}

// TestReRegisterDispatchesToTheNewSkeleton: the object table is indexed by
// the id's bytes with no cache in front of it, so withdrawing an object
// invalidates its id at once and registering another under the same id
// routes to the newcomer.
func TestReRegisterDispatchesToTheNewSkeleton(t *testing.T) {
	server, client, _, _ := newKeeperPair(t)
	first := &keeper{}
	ref := server.Register("movie-7", first)
	if err := client.Invoke(ref, "play", putArg("1"), nil); err != nil {
		t.Fatal(err)
	}
	server.Unregister("movie-7")
	if err := client.Invoke(ref, "play", putArg("2"), nil); !errors.Is(err, ErrInvalidReference) {
		t.Fatalf("call to a withdrawn object: %v, want ErrInvalidReference", err)
	}
	second := &keeper{}
	if again := server.Register("movie-7", second); again != ref {
		t.Fatalf("re-registration changed the reference: %v, was %v", again, ref)
	}
	if err := client.Invoke(ref, "play", putArg("3"), nil); err != nil {
		t.Fatal(err)
	}
	if got := first.calls(); len(got) != 1 || got[0].arg != "1" {
		t.Fatalf("first skeleton saw %+v", got)
	}
	if got := second.calls(); len(got) != 1 || got[0].arg != "3" {
		t.Fatalf("second skeleton saw %+v", got)
	}
}
