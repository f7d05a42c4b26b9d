package ssc

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"itv/internal/clock"
	"itv/internal/orb"
	"itv/internal/oref"
	"itv/internal/proc"
	"itv/internal/transport"
)

// testService is a minimal OCS service: one endpoint, one object, wired to
// die with its process.
type testService struct {
	mu       sync.Mutex
	starts   int
	lastRef  oref.Ref
	lastPID  int
	failNext bool
}

func (ts *testService) spec(nw *transport.Network, host string) ServiceSpec {
	return ServiceSpec{
		Name: "echo",
		Start: func(p *proc.Process, ctl *Controller) error {
			ts.mu.Lock()
			fail := ts.failNext
			ts.failNext = false
			ts.starts++
			ts.mu.Unlock()
			if fail {
				return errors.New("injected start failure")
			}
			ep, err := orb.NewEndpoint(nw.Host(host))
			if err != nil {
				return err
			}
			p.OnKill(ep.Close)
			ref := ep.Register("", echoSkel{})
			ts.mu.Lock()
			ts.lastRef = ref
			ts.lastPID = p.PID()
			ts.mu.Unlock()
			ctl.NotifyReady(p.PID(), []oref.Ref{ref})
			return nil
		},
	}
}

func (ts *testService) ref() oref.Ref {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	return ts.lastRef
}

func (ts *testService) startCount() int {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	return ts.starts
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

type fixture struct {
	t   *testing.T
	clk *clock.Fake
	nw  *transport.Network
	ctl *Controller
	ts  *testService
}

func newFixture(t *testing.T) *fixture {
	t.Helper()
	clk := clock.NewFake()
	nw := transport.NewNetwork()
	ctl, err := New(nw.Host("192.168.0.1"), clk)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ctl.Close)
	ts := &testService{}
	ctl.AddSpec(ts.spec(nw, "192.168.0.1"))
	return &fixture{t: t, clk: clk, nw: nw, ctl: ctl, ts: ts}
}

func (f *fixture) waitFor(what string, cond func() bool) {
	f.t.Helper()
	if !f.clk.Await(500*time.Millisecond, 400, cond) {
		f.t.Fatalf("condition never held: %s", what)
	}
}

func TestStartAndStopService(t *testing.T) {
	f := newFixture(t)
	if err := f.ctl.StartService("echo"); err != nil {
		t.Fatal(err)
	}
	if got := f.ctl.Running(); len(got) != 1 || got[0] != "echo" {
		t.Fatalf("Running = %v", got)
	}
	// Double start is rejected.
	if err := f.ctl.StartService("echo"); !orb.IsApp(err, orb.ExcAlreadyBound) {
		t.Fatalf("double start err = %v", err)
	}
	if err := f.ctl.StopService("echo"); err != nil {
		t.Fatal(err)
	}
	f.waitFor("service stopped", func() bool { return len(f.ctl.Running()) == 0 })
	// Deliberate stop must NOT restart.
	f.clk.Advance(10 * time.Second)
	f.clk.Settle()
	if n := f.ts.startCount(); n != 1 {
		t.Fatalf("starts = %d after deliberate stop, want 1", n)
	}
}

func TestUnknownServiceRejected(t *testing.T) {
	f := newFixture(t)
	if err := f.ctl.StartService("ghost"); !orb.IsApp(err, orb.ExcNotFound) {
		t.Fatalf("err = %v", err)
	}
	if err := f.ctl.StopService("ghost"); !orb.IsApp(err, orb.ExcNotFound) {
		t.Fatalf("stop err = %v", err)
	}
}

func TestCrashRestartsService(t *testing.T) {
	f := newFixture(t)
	if err := f.ctl.StartService("echo"); err != nil {
		t.Fatal(err)
	}
	ref1 := f.ts.ref()

	// Kill the service as a fault: the SSC must restart it with a fresh
	// process whose objects carry a new incarnation.
	if err := f.ctl.KillService("echo"); err != nil {
		t.Fatal(err)
	}
	f.waitFor("service restarted", func() bool { return f.ts.startCount() == 2 })
	f.waitFor("restart registered", func() bool { return len(f.ctl.Running()) == 1 })
	ref2 := f.ts.ref()
	if ref1 == ref2 {
		t.Fatal("restart reused the same object reference")
	}
	if f.ctl.Restarts() != 1 {
		t.Fatalf("Restarts = %d", f.ctl.Restarts())
	}

	// The old reference is dead; the new one works.
	client, err := orb.NewEndpoint(f.nw.Host("10.1.0.5"))
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if err := client.Ping(ref1); !orb.Dead(err) {
		t.Fatalf("old ref ping = %v, want dead", err)
	}
	if err := client.Ping(ref2); err != nil {
		t.Fatalf("new ref ping = %v", err)
	}
}

func TestCallbacksSeeObjectLifecycle(t *testing.T) {
	f := newFixture(t)

	var mu sync.Mutex
	events := map[string]bool{} // key -> last reported aliveness
	cbHost, err := orb.NewEndpoint(f.nw.Host("192.168.0.1"))
	if err != nil {
		t.Fatal(err)
	}
	defer cbHost.Close()
	cbRef := cbHost.Register("cb", CallbackFunc(func(_ context.Context, refs []oref.Ref, alive bool) {
		mu.Lock()
		for _, r := range refs {
			events[r.Key()] = alive
		}
		mu.Unlock()
	}))

	if err := f.ctl.StartService("echo"); err != nil {
		t.Fatal(err)
	}
	ref1 := f.ts.ref()

	// Registering late still delivers the full live set (§6.1) — this is
	// how a restarted RAS recovers its state.
	f.ctl.RegisterCallback(cbRef)
	f.waitFor("initial live set delivered", func() bool {
		mu.Lock()
		defer mu.Unlock()
		alive, seen := events[ref1.Key()]
		return seen && alive
	})

	if err := f.ctl.KillService("echo"); err != nil {
		t.Fatal(err)
	}
	f.waitFor("death reported", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return !events[ref1.Key()]
	})
	f.waitFor("restarted object reported live", func() bool {
		mu.Lock()
		defer mu.Unlock()
		ref2 := f.ts.ref()
		return ref2 != ref1 && events[ref2.Key()]
	})
}

func TestFailedStartNotRunning(t *testing.T) {
	f := newFixture(t)
	f.ts.failNext = true
	if err := f.ctl.StartService("echo"); err == nil {
		t.Fatal("start should have failed")
	}
	if len(f.ctl.Running()) != 0 {
		t.Fatal("failed service listed as running")
	}
	// A later start succeeds.
	if err := f.ctl.StartService("echo"); err != nil {
		t.Fatal(err)
	}
}

func TestSSCCrashKillsChildren(t *testing.T) {
	f := newFixture(t)
	if err := f.ctl.StartService("echo"); err != nil {
		t.Fatal(err)
	}
	ref := f.ts.ref()
	client, err := orb.NewEndpoint(f.nw.Host("10.1.0.5"))
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if err := client.Ping(ref); err != nil {
		t.Fatal(err)
	}
	f.ctl.Crash()
	if err := client.Ping(ref); !orb.Dead(err) {
		t.Fatalf("child survived SSC crash: %v", err)
	}
	// No restart happens after a crash.
	f.clk.Advance(30 * time.Second)
	f.clk.Settle()
	if n := f.ts.startCount(); n != 1 {
		t.Fatalf("starts = %d after SSC crash, want 1", n)
	}
}

func TestRemoteStubDrivesSSC(t *testing.T) {
	f := newFixture(t)
	client, err := orb.NewEndpoint(f.nw.Host("192.168.0.2"))
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	stub := Stub{Ep: client, Ref: RefAt("192.168.0.1")}
	if err := stub.Ping(); err != nil {
		t.Fatal(err)
	}
	if err := stub.Start("echo"); err != nil {
		t.Fatal(err)
	}
	names, err := stub.Running()
	if err != nil || len(names) != 1 || names[0] != "echo" {
		t.Fatalf("Running = %v, %v", names, err)
	}
	if err := stub.Kill("echo"); err != nil {
		t.Fatal(err)
	}
	f.waitFor("restart after remote kill", func() bool { return f.ts.startCount() == 2 })
	if err := stub.Stop("echo"); err != nil {
		t.Fatal(err)
	}
	f.waitFor("stopped remotely", func() bool {
		names, err := stub.Running()
		return err == nil && len(names) == 0
	})
}

// TestConcurrentStartsLaunchOneInstance: two starts of one service racing —
// the monitor's restart of a crashed service and the start the CSC's
// reconcile sends when it sees the service missing — must leave one
// instance, supervised.  The second is refused while the first is still
// inside its Start; it used to pass the "already running?" check (the
// table was only written after Start returned) and run unsupervised.
func TestConcurrentStartsLaunchOneInstance(t *testing.T) {
	f := newFixture(t)
	entered, release := make(chan struct{}), make(chan struct{})
	var starts atomic.Int32
	f.ctl.AddSpec(ServiceSpec{Name: "slow", Start: func(p *proc.Process, c *Controller) error {
		starts.Add(1)
		entered <- struct{}{}
		<-release
		return nil
	}})
	first := make(chan error, 1)
	go func() { first <- f.ctl.StartService("slow") }()
	<-entered // the first launch is inside Start
	if err := f.ctl.StartService("slow"); !orb.IsApp(err, orb.ExcAlreadyBound) {
		t.Fatalf("start racing a start in progress: err = %v, want AlreadyBound", err)
	}
	close(release)
	if err := <-first; err != nil {
		t.Fatal(err)
	}
	if n := starts.Load(); n != 1 {
		t.Fatalf("Start ran %d times, want 1", n)
	}
	if got := f.ctl.Running(); len(got) != 1 || got[0] != "slow" {
		t.Fatalf("Running = %v", got)
	}
}
