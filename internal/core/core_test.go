package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"itv/internal/clock"
	"itv/internal/names"
	"itv/internal/obs"
	"itv/internal/orb"
	"itv/internal/oref"
	"itv/internal/transport"
	"itv/internal/wire"
)

type fixture struct {
	t       *testing.T
	clk     *clock.Fake
	nw      *transport.Network
	replica *names.Replica
	session *Session
}

func newFixture(t *testing.T) *fixture {
	t.Helper()
	clk := clock.NewFake()
	nw := transport.NewNetwork()
	r, err := names.NewReplica(nw.Host("192.168.0.1"), clk, names.Config{
		Peers: []string{"192.168.0.1:555"},
	})
	if err != nil {
		t.Fatal(err)
	}
	ep, err := orb.NewEndpoint(nw.Host("10.1.0.7"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ep.Close(); r.Close() })
	f := &fixture{t: t, clk: clk, nw: nw, replica: r,
		session: NewSession(ep, r.RootRef(), clk)}
	f.waitFor("master elected", r.IsMaster)
	return f
}

func (f *fixture) waitFor(what string, cond func() bool) {
	f.t.Helper()
	if !f.clk.Await(time.Second, 600, cond) {
		f.t.Fatalf("condition never held: %s", what)
	}
}

// echoService is a restartable service instance.
type echoService struct {
	ep  *orb.Endpoint
	ref oref.Ref
}

func startEcho(t *testing.T, nw *transport.Network, host string) *echoService {
	t.Helper()
	ep, err := orb.NewEndpoint(nw.Host(host))
	if err != nil {
		t.Fatal(err)
	}
	ref := ep.Register("", echoSkel{})
	return &echoService{ep: ep, ref: ref}
}

type echoSkel struct{}

func (echoSkel) TypeID() string { return "test.Echo" }
func (echoSkel) Dispatch(c *orb.ServerCall) error {
	if c.Method() != "echo" {
		return orb.ErrNoSuchMethod
	}
	c.Results().PutString(c.Args().String())
	return nil
}

func echoVia(rb *Rebinder, msg string) (string, error) {
	var out string
	err := rb.Invoke("echo",
		func(e *wire.Encoder) { e.PutString(msg) },
		func(d *wire.Decoder) error { out = d.String(); return nil })
	return out, err
}

func TestRebinderInvokeAndCache(t *testing.T) {
	f := newFixture(t)
	svc := startEcho(t, f.nw, "192.168.0.1")
	defer svc.ep.Close()
	if err := f.session.Root.Bind("svc-echo", svc.ref); err != nil {
		t.Fatal(err)
	}
	rb := f.session.Service("svc-echo")
	if got, err := echoVia(rb, "hi"); err != nil || got != "hi" {
		t.Fatalf("echo = %q, %v", got, err)
	}
	// Subsequent invocations use the cached reference: no further name
	// resolutions hit the name service (§3.4.2: "only contacts the name
	// service ... the first time").
	before := f.replica.Endpoint().Stats().Received
	for i := 0; i < 5; i++ {
		if _, err := echoVia(rb, "again"); err != nil {
			t.Fatal(err)
		}
	}
	if after := f.replica.Endpoint().Stats().Received; after != before {
		t.Fatalf("cached invokes still resolved (%d -> %d)", before, after)
	}
}

func TestRebinderRecoversAcrossRestart(t *testing.T) {
	f := newFixture(t)
	svc1 := startEcho(t, f.nw, "192.168.0.1")
	if err := f.session.Root.Bind("svc-echo", svc1.ref); err != nil {
		t.Fatal(err)
	}
	rb := f.session.Service("svc-echo")
	if _, err := echoVia(rb, "warm"); err != nil {
		t.Fatal(err)
	}

	// Service restarts: old endpoint dies, a new instance rebinds.
	svc1.ep.Close()
	svc2 := startEcho(t, f.nw, "192.168.0.1")
	defer svc2.ep.Close()
	if err := f.session.Root.Unbind("svc-echo"); err != nil {
		t.Fatal(err)
	}
	if err := f.session.Root.Bind("svc-echo", svc2.ref); err != nil {
		t.Fatal(err)
	}

	// The same rebinder keeps working: "Clients using the service see no
	// disruption; the normal recovery mechanisms make the stop and restart
	// invisible" (§9.5).
	if got, err := echoVia(rb, "recovered"); err != nil || got != "recovered" {
		t.Fatalf("post-restart echo = %q, %v", got, err)
	}
}

// TestServiceAsResolvesOnBehalfAndRebinds: a rebinder built with ServiceAs
// asks the name service as the host it stands in for — the neighborhood
// selector routes it to that host's replica, not this process's — holds the
// reference across calls, and replaces it in the one call that finds it
// dead.  Do runs an ordinary {Ep, Ref} call under that discipline.
func TestServiceAsResolvesOnBehalfAndRebinds(t *testing.T) {
	f := newFixture(t) // the session's own host, 10.1.0.7, is in neighborhood 1
	r1 := startEcho(t, f.nw, "192.168.0.1")
	defer r1.ep.Close()
	r2 := startEcho(t, f.nw, "192.168.0.2")
	for scope, r := range map[string]*echoService{"1": r1, "2": r2} {
		sess := NewSession(r.ep, f.replica.RootRef(), f.clk)
		if err := sess.RegisterActive("svc/echo", scope, r.ref, names.PolicyNeighborhood); err != nil {
			t.Fatal(err)
		}
	}
	resolves := obs.Node("192.168.0.1").Counter("names_resolves")
	rebinds := f.session.Ep.Metrics().Counter("core_rebinds")

	// callOn echoes through rb.Do and reports which object answered.
	callOn := func(rb *Rebinder) oref.Ref {
		t.Helper()
		var used oref.Ref
		err := rb.Do(context.Background(), func(ref oref.Ref) error {
			used = ref
			return f.session.Ep.Invoke(ref, "echo",
				func(e *wire.Encoder) { e.PutString("x") },
				func(d *wire.Decoder) error { _ = d.String(); return nil })
		})
		if err != nil {
			t.Fatal(err)
		}
		return used
	}

	if got := callOn(f.session.Service("svc/echo")); got != r1.ref {
		t.Fatalf("Service reached %v, want this host's replica %v", got, r1.ref)
	}
	as2 := f.session.ServiceAs("svc/echo", "10.2.0.9")
	before := resolves.Value()
	for i := 0; i < 3; i++ {
		if got := callOn(as2); got != r2.ref {
			t.Fatalf("ServiceAs(10.2.0.9) reached %v, want neighborhood 2's replica %v", got, r2.ref)
		}
	}
	if d := resolves.Value() - before; d != 1 {
		t.Fatalf("3 calls cost %d resolves, want 1 (resolve once, reuse)", d)
	}

	// Replica 2 is replaced.  The next call finds the held reference dead
	// and is itself the call that re-resolves — once — and succeeds.
	r2.ep.Close()
	r2b := startEcho(t, f.nw, "192.168.0.2")
	defer r2b.ep.Close()
	sess := NewSession(r2b.ep, f.replica.RootRef(), f.clk)
	if err := sess.RegisterActive("svc/echo", "2", r2b.ref, names.PolicyNeighborhood); err != nil {
		t.Fatal(err)
	}
	before, rebindsBefore := resolves.Value(), rebinds.Value()
	if got := callOn(as2); got != r2b.ref {
		t.Fatalf("after the restart reached %v, want %v", got, r2b.ref)
	}
	if d := rebinds.Value() - rebindsBefore; d != 1 {
		t.Fatalf("core_rebinds moved by %d, want 1", d)
	}
	if d := resolves.Value() - before; d != 1 {
		t.Fatalf("the rebinding call cost %d resolves, want 1", d)
	}
}

// imageSkel serves one large image as its only result.
type imageSkel struct{ image []byte }

func (imageSkel) TypeID() string { return "test.Image" }
func (s imageSkel) Dispatch(c *orb.ServerCall) error {
	c.PutBytesRef(s.image)
	return nil
}

// TestRebinderInvokeIntoAcrossRestart: the declared bulk call rebinds like
// any other, and the storage lent to the attempt that hit the dead
// reference is the storage the retry fills.
func TestRebinderInvokeIntoAcrossRestart(t *testing.T) {
	f := newFixture(t)
	start := func(fill byte) *orb.Endpoint {
		ep, err := orb.NewEndpoint(f.nw.Host("192.168.0.1"))
		if err != nil {
			t.Fatal(err)
		}
		ref := ep.Register("", imageSkel{image: bytes.Repeat([]byte{fill}, 1<<20)})
		if err := f.session.Root.Bind("svc-image", ref); err != nil {
			t.Fatal(err)
		}
		return ep
	}
	rb := f.session.Service("svc-image")
	dst := make([]byte, 1<<20)
	fetch := func() []byte {
		t.Helper()
		var img []byte
		err := rb.InvokeInto(context.Background(), "image", nil, dst,
			func(b []byte, _ *wire.Decoder) error { img = b; return nil })
		if err != nil {
			t.Fatal(err)
		}
		if &img[0] != &dst[0] || len(img) != len(dst) {
			t.Fatal("the image did not land in the storage lent for it")
		}
		return img
	}
	ep1 := start(1)
	if img := fetch(); img[0] != 1 || img[len(img)-1] != 1 {
		t.Fatal("first image damaged")
	}
	ep1.Close()
	if err := f.session.Root.Unbind("svc-image"); err != nil {
		t.Fatal(err)
	}
	ep2 := start(2)
	defer ep2.Close()
	if img := fetch(); img[0] != 2 || img[len(img)-1] != 2 {
		t.Fatal("image after the restart is not the new instance's")
	}
}

func TestRebinderWaitsForBackupWithBackoff(t *testing.T) {
	f := newFixture(t)
	rb := f.session.Service("svc-late")
	rb.Backoff = 2 * time.Second
	rb.MaxAttempts = 6

	done := make(chan error, 1)
	var got string
	go func() {
		err := rb.Invoke("echo",
			func(e *wire.Encoder) { e.PutString("eventually") },
			func(d *wire.Decoder) error { got = d.String(); return nil })
		done <- err
	}()

	// Let a couple of backoff sleeps elapse, then bind the service (a
	// backup finally taking over).
	svc := startEcho(t, f.nw, "192.168.0.1")
	defer svc.ep.Close()
	bound := false
	for i := 0; i < 200; i++ {
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("rebinder gave up: %v", err)
			}
			if got != "eventually" {
				t.Fatalf("echo = %q", got)
			}
			return
		default:
		}
		f.clk.Advance(time.Second)
		f.clk.Settle()
		if !bound && i >= 4 {
			if err := f.session.Root.Bind("svc-late", svc.ref); err == nil {
				bound = true
			}
		}
	}
	t.Fatal("rebinder never completed")
}

func TestRebinderNonRetryableErrorPassesThrough(t *testing.T) {
	f := newFixture(t)
	svc := startEcho(t, f.nw, "192.168.0.1")
	defer svc.ep.Close()
	if err := f.session.Root.Bind("svc-echo", svc.ref); err != nil {
		t.Fatal(err)
	}
	rb := f.session.Service("svc-echo")
	err := rb.Invoke("nonexistent", nil, nil)
	if !errors.Is(err, orb.ErrNoSuchMethod) {
		t.Fatalf("err = %v, want ErrNoSuchMethod untouched", err)
	}
}

// demotedSkel is a live replica that is no longer primary (§5.2): it
// answers every call, and refuses each one as Unavailable.
type demotedSkel struct{}

func (demotedSkel) TypeID() string { return "test.Echo" }
func (demotedSkel) Dispatch(*orb.ServerCall) error {
	return orb.Errf(orb.ExcUnavailable, "not primary")
}

// TestRebinderTreatsNotPrimaryAsStale: a rebinder holding a replica that
// demoted itself passes its refusal on once, and the next call re-resolves
// and reaches whoever holds the name now, rather than calling the live but
// demoted replica for as long as it runs.
func TestRebinderTreatsNotPrimaryAsStale(t *testing.T) {
	f := newFixture(t)
	ep, err := orb.NewEndpoint(f.nw.Host("192.168.0.2"))
	if err != nil {
		t.Fatal(err)
	}
	defer ep.Close()
	if err := f.session.Root.Bind("svc-echo", ep.Register("", demotedSkel{})); err != nil {
		t.Fatal(err)
	}
	rb := f.session.Service("svc-echo")
	if _, err := echoVia(rb, "hi"); !orb.IsApp(err, orb.ExcUnavailable) {
		t.Fatalf("call on the demoted replica: err = %v, want Unavailable", err)
	}

	// The name moves to a new primary while the demoted replica lives on.
	svc := startEcho(t, f.nw, "192.168.0.3")
	defer svc.ep.Close()
	if err := f.session.Root.Unbind("svc-echo"); err != nil {
		t.Fatal(err)
	}
	if err := f.session.Root.Bind("svc-echo", svc.ref); err != nil {
		t.Fatal(err)
	}
	if got, err := echoVia(rb, "again"); err != nil || got != "again" {
		t.Fatalf("second call = %q, %v; want the name's new holder to answer", got, err)
	}
}

func TestRebinderGivesUpAfterMaxAttempts(t *testing.T) {
	f := newFixture(t)
	rb := f.session.Service("never-bound")
	rb.MaxAttempts = 2
	err := rb.Invoke("echo", nil, nil)
	if !orb.IsApp(err, orb.ExcNotFound) {
		t.Fatalf("err = %v, want NotFound after giving up", err)
	}
}

// pingChecker implements names.StatusChecker by pinging objects — a
// minimal stand-in for the RAS in this package's tests.
type pingChecker struct{ ep *orb.Endpoint }

func (p pingChecker) CheckStatus(refs []oref.Ref) ([]bool, []uint64, error) {
	alive := make([]bool, len(refs))
	for i, r := range refs {
		alive[i] = !orb.Dead(p.ep.Ping(r))
	}
	return alive, make([]uint64, len(refs)), nil
}

func TestElectorPrimaryBackupFailover(t *testing.T) {
	f := newFixture(t)
	f.replica.SetChecker(pingChecker{ep: f.session.Ep})

	primary := startEcho(t, f.nw, "192.168.0.1")
	backup := startEcho(t, f.nw, "192.168.0.2")
	defer backup.ep.Close()

	sess1 := NewSession(primary.ep, f.replica.RootRef(), f.clk)
	sess2 := NewSession(backup.ep, f.replica.RootRef(), f.clk)

	var mu sync.Mutex
	var promotions []string
	e1 := sess1.NewElector("svc/ha", primary.ref)
	e1.OnPrimary = func() { mu.Lock(); promotions = append(promotions, "p1"); mu.Unlock() }
	e2 := sess2.NewElector("svc/ha", backup.ref)
	e2.OnPrimary = func() { mu.Lock(); promotions = append(promotions, "p2"); mu.Unlock() }

	if _, err := f.session.Root.BindNewContext("svc"); err != nil {
		t.Fatal(err)
	}
	e1.Start()
	f.waitFor("first replica becomes primary", e1.IsPrimary)
	e2.Start()
	defer e2.Close()

	// The backup stays a backup while the primary lives.
	f.clk.Advance(30 * time.Second)
	f.clk.Settle()
	if e2.IsPrimary() {
		t.Fatal("backup became primary while primary alive")
	}

	// Kill the primary's process: its endpoint dies, auditing removes the
	// binding, and the backup's bind retry succeeds (§5.2 + §4.7).
	primary.ep.Close()
	f.waitFor("backup takes over", e2.IsPrimary)
	got, err := f.session.Root.Resolve("svc/ha")
	if err != nil || got != backup.ref {
		t.Fatalf("post-failover binding = %v, %v", got, err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(promotions) != 2 || promotions[0] != "p1" || promotions[1] != "p2" {
		t.Fatalf("promotions = %v", promotions)
	}
}

func TestElectorCleanCloseHandsOver(t *testing.T) {
	f := newFixture(t)
	a := startEcho(t, f.nw, "192.168.0.1")
	defer a.ep.Close()
	b := startEcho(t, f.nw, "192.168.0.2")
	defer b.ep.Close()
	sessA := NewSession(a.ep, f.replica.RootRef(), f.clk)
	sessB := NewSession(b.ep, f.replica.RootRef(), f.clk)

	eA := sessA.NewElector("svc-clean", a.ref)
	eA.Start()
	f.waitFor("A primary", eA.IsPrimary)
	eB := sessB.NewElector("svc-clean", b.ref)
	eB.Start()
	defer eB.Close()

	// Clean shutdown unbinds immediately — no audit delay.
	eA.Close()
	f.waitFor("B takes over after clean handoff", eB.IsPrimary)
}

// TestElectorStoppedIsNotPrimary: a primary that abandons the election
// (a crash, whose binding waits for the audit) or closes it (a clean stop)
// no longer answers IsPrimary, so nothing that looks for the primary picks
// a dead instance.
func TestElectorStoppedIsNotPrimary(t *testing.T) {
	f := newFixture(t)
	for i, stop := range []func(*Elector){(*Elector).Abandon, (*Elector).Close} {
		a := startEcho(t, f.nw, fmt.Sprintf("192.168.0.%d", i+1))
		defer a.ep.Close()
		name := fmt.Sprintf("svc-stop-%d", i)
		e := NewSession(a.ep, f.replica.RootRef(), f.clk).NewElector(name, a.ref)
		e.Start()
		f.waitFor("primary", e.IsPrimary)
		stop(e)
		if e.IsPrimary() {
			t.Fatalf("%s: a stopped elector still reports primary", name)
		}
	}
}

func TestElectorDemotion(t *testing.T) {
	f := newFixture(t)
	a := startEcho(t, f.nw, "192.168.0.1")
	defer a.ep.Close()
	sess := NewSession(a.ep, f.replica.RootRef(), f.clk)
	demoted := make(chan struct{}, 1)
	e := sess.NewElector("svc-dem", a.ref)
	e.OnDemoted = func() { demoted <- struct{}{} }
	e.Start()
	defer e.Close()
	f.waitFor("primary", e.IsPrimary)

	// An operator rebinds the name elsewhere (or a wrong audit fired).
	if err := f.session.Root.Unbind("svc-dem"); err != nil {
		t.Fatal(err)
	}
	other := startEcho(t, f.nw, "192.168.0.3")
	defer other.ep.Close()
	if err := f.session.Root.Bind("svc-dem", other.ref); err != nil {
		t.Fatal(err)
	}
	f.waitFor("demotion noticed", func() bool {
		select {
		case <-demoted:
			return true
		default:
			return false
		}
	})
}

func TestRegisterActive(t *testing.T) {
	f := newFixture(t)
	r1 := startEcho(t, f.nw, "192.168.0.1")
	defer r1.ep.Close()
	r2 := startEcho(t, f.nw, "192.168.0.2")
	defer r2.ep.Close()

	sess1 := NewSession(r1.ep, f.replica.RootRef(), f.clk)
	sess2 := NewSession(r2.ep, f.replica.RootRef(), f.clk)

	if err := sess1.RegisterActive("svc/rds", "1", r1.ref, names.PolicyNeighborhood); err != nil {
		t.Fatal(err)
	}
	// Second replica joins the existing context.
	if err := sess2.RegisterActive("svc/rds", "2", r2.ref, names.PolicyNeighborhood); err != nil {
		t.Fatal(err)
	}
	all, err := f.session.Root.ListRepl("svc/rds")
	if err != nil || len(all) != 2 {
		t.Fatalf("ListRepl = %v, %v", all, err)
	}

	// Restart of replica 1: old binding is stale (dead object) and is
	// replaced without waiting for the audit.
	r1.ep.Close()
	r1b := startEcho(t, f.nw, "192.168.0.1")
	defer r1b.ep.Close()
	sess1b := NewSession(r1b.ep, f.replica.RootRef(), f.clk)
	if err := sess1b.RegisterActive("svc/rds", "1", r1b.ref, names.PolicyNeighborhood); err != nil {
		t.Fatalf("re-register after restart: %v", err)
	}
	got, err := f.session.Root.Resolve("svc/rds/1")
	if err != nil || got != r1b.ref {
		t.Fatalf("rebound replica = %v, %v", got, err)
	}

	// A live clash is refused.
	imposter := startEcho(t, f.nw, "192.168.0.9")
	defer imposter.ep.Close()
	sessI := NewSession(imposter.ep, f.replica.RootRef(), f.clk)
	if err := sessI.RegisterActive("svc/rds", "1", imposter.ref, names.PolicyNeighborhood); !orb.IsApp(err, orb.ExcAlreadyBound) {
		t.Fatalf("live clash err = %v", err)
	}
}
