package audit

import (
	"fmt"
	"math"
	"sync"
	"testing"
	"time"

	"itv/internal/clock"
	"itv/internal/obs"
	"itv/internal/orb"
	"itv/internal/oref"
	"itv/internal/proc"
	"itv/internal/settopmgr"
	"itv/internal/ssc"
	"itv/internal/transport"
)

// server is one simulated machine: SSC + RAS + Settop Manager.
type server struct {
	host string
	ctl  *ssc.Controller
	ras  *Service
	mgr  *settopmgr.Manager
}

type fixture struct {
	t       *testing.T
	clk     *clock.Fake
	nw      *transport.Network
	servers []*server
}

func newFixture(t *testing.T, n int) *fixture {
	t.Helper()
	f := &fixture{t: t, clk: clock.NewFake(), nw: transport.NewNetwork()}
	for i := 0; i < n; i++ {
		host := serverIP(i)
		ctl, err := ssc.New(f.nw.Host(host), f.clk)
		if err != nil {
			t.Fatal(err)
		}
		mgr, err := settopmgr.New(f.nw.Host(host), f.clk)
		if err != nil {
			t.Fatal(err)
		}
		ras, err := New(f.nw.Host(host), f.clk, Config{})
		if err != nil {
			t.Fatal(err)
		}
		s := &server{host: host, ctl: ctl, ras: ras, mgr: mgr}
		f.servers = append(f.servers, s)
		t.Cleanup(func() { ras.Close(); mgr.Close(); ctl.Close() })
	}
	return f
}

func serverIP(i int) string { return "192.168.0." + string(rune('1'+i)) }

// advanceUntil steps the fake clock until cond holds, letting background
// loops observe their tickers between steps.
func advanceUntil(t *testing.T, clk *clock.Fake, cond func() bool) {
	t.Helper()
	if !clk.Await(time.Second, 400, cond) {
		t.Fatal("condition never held")
	}
}

func (f *fixture) waitFor(what string, cond func() bool) {
	f.t.Helper()
	if !f.clk.Await(time.Second, 400, cond) {
		f.t.Fatalf("condition never held: %s", what)
	}
}

// startEcho starts a trivial service on server s under its SSC and returns
// its object ref.
func (f *fixture) startEcho(s *server, name string) oref.Ref {
	f.t.Helper()
	var mu sync.Mutex
	var ref oref.Ref
	s.ctl.AddSpec(ssc.ServiceSpec{
		Name: name,
		Start: func(p *proc.Process, ctl *ssc.Controller) error {
			ep, err := orb.NewEndpoint(f.nw.Host(s.host))
			if err != nil {
				return err
			}
			p.OnKill(ep.Close)
			r := ep.Register("", pingOnly{})
			mu.Lock()
			ref = r
			mu.Unlock()
			ctl.NotifyReady(p.PID(), []oref.Ref{r})
			return nil
		},
	})
	if err := s.ctl.StartService(name); err != nil {
		f.t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	return ref
}

type pingOnly struct{}

func (pingOnly) TypeID() string                 { return "test.PingOnly" }
func (pingOnly) Dispatch(*orb.ServerCall) error { return orb.ErrNoSuchMethod }

func check1(t *testing.T, s *Service, ref oref.Ref) bool {
	t.Helper()
	out, traces := s.CheckStatus([]oref.Ref{ref})
	if len(out) != 1 || len(traces) != 1 {
		t.Fatalf("CheckStatus returned %d results, %d traces", len(out), len(traces))
	}
	return out[0]
}

func TestLocalObjectLifecycle(t *testing.T) {
	f := newFixture(t, 1)
	s := f.servers[0]
	ref := f.startEcho(s, "echo")

	if !check1(t, s.ras, ref) {
		t.Fatal("live local object reported dead")
	}
	// Stop the service: the SSC callback fires and the RAS learns at once,
	// without any network polling (§7.2 mechanism 2).
	if err := s.ctl.StopService("echo"); err != nil {
		t.Fatal(err)
	}
	f.waitFor("local death visible", func() bool { return !check1(t, s.ras, ref) })
}

func TestUnknownLocalObjectBeforeSync(t *testing.T) {
	// A RAS on a host with no SSC answers "alive" — it has no information
	// and gives the benefit of the doubt.
	clk := clock.NewFake()
	nw := transport.NewNetwork()
	ras, err := New(nw.Host("192.168.0.9"), clk, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer ras.Close()
	ref := oref.Ref{Addr: "192.168.0.9:800", Incarnation: 1, TypeID: "x"}
	if got, _ := ras.CheckStatus([]oref.Ref{ref}); !got[0] {
		t.Fatal("unsynced RAS reported dead")
	}
}

func TestRemoteObjectTracking(t *testing.T) {
	f := newFixture(t, 2)
	s1, s2 := f.servers[0], f.servers[1]
	ref := f.startEcho(s2, "echo")

	// First question: unknown -> alive; monitoring begins.
	if !check1(t, s1.ras, ref) {
		t.Fatal("fresh remote object reported dead")
	}
	f.clk.Advance(6 * time.Second) // one peer poll
	f.clk.Settle()
	if !check1(t, s1.ras, ref) {
		t.Fatal("live remote object reported dead after poll")
	}

	// Kill the service on server 2: server 1's RAS learns within a peer
	// polling interval.
	if err := s2.ctl.StopService("echo"); err != nil {
		t.Fatal(err)
	}
	f.waitFor("remote death visible within poll interval", func() bool {
		return !check1(t, s1.ras, ref)
	})
}

func TestServerDeathMarksObjectsDead(t *testing.T) {
	f := newFixture(t, 2)
	s1, s2 := f.servers[0], f.servers[1]
	ref := f.startEcho(s2, "echo")
	if !check1(t, s1.ras, ref) {
		t.Fatal("fresh remote object reported dead")
	}
	f.nw.Cut(s2.host)
	f.waitFor("objects on dead server reported dead", func() bool {
		return !check1(t, s1.ras, ref)
	})
}

func TestSettopTracking(t *testing.T) {
	f := newFixture(t, 1)
	s := f.servers[0]
	s.mgr.Heartbeat("10.3.0.17")
	ref := SettopRef("10.3.0.17")

	if !check1(t, s.ras, ref) {
		t.Fatal("live settop reported dead")
	}
	// Keep heartbeating: stays up across polls.
	for i := 0; i < 3; i++ {
		f.clk.Advance(5 * time.Second)
		f.clk.Settle()
		s.mgr.Heartbeat("10.3.0.17")
	}
	if !check1(t, s.ras, ref) {
		t.Fatal("heartbeating settop reported dead")
	}
	// Crash the settop (heartbeats stop): dead within manager timeout +
	// one RAS poll of the Settop Manager.
	f.waitFor("crashed settop reported dead", func() bool {
		return !check1(t, s.ras, ref)
	})
}

func TestRASRestartRecoversFromSSC(t *testing.T) {
	// §7.2: "the RAS does not have to remember any state across failures".
	// After a restart it learns local objects from the SSC's registration
	// replay and remote/settop entities from fresh questions.
	f := newFixture(t, 1)
	s := f.servers[0]
	ref := f.startEcho(s, "echo")
	if !check1(t, s.ras, ref) {
		t.Fatal("precondition failed")
	}

	s.ras.Close()
	ras2, err := New(f.nw.Host(s.host), f.clk, Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ras2.Close)
	// The fresh RAS re-registers with the SSC and receives the full live
	// set; the still-running echo service must be reported alive.
	f.waitFor("restarted RAS sees live object", func() bool {
		return check1(t, ras2, ref)
	})
	if err := s.ctl.StopService("echo"); err != nil {
		t.Fatal(err)
	}
	f.waitFor("restarted RAS sees death", func() bool {
		return !check1(t, ras2, ref)
	})
}

func TestCheckStatusRemoteStub(t *testing.T) {
	f := newFixture(t, 1)
	s := f.servers[0]
	ref := f.startEcho(s, "echo")
	client, err := orb.NewEndpoint(f.nw.Host("192.168.0.8"))
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	alive, traces, err := (Stub{Ep: client, Ref: RefAt(s.host)}).CheckStatus([]oref.Ref{ref})
	if err != nil || len(alive) != 1 || !alive[0] || len(traces) != 1 || traces[0] != 0 {
		t.Fatalf("remote checkStatus = %v, %v, %v", alive, traces, err)
	}
}

func TestWatcherFiresOnDeath(t *testing.T) {
	f := newFixture(t, 1)
	s := f.servers[0]
	ref := f.startEcho(s, "echo")

	client, err := orb.NewEndpoint(f.nw.Host(s.host))
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	var mu sync.Mutex
	fired := 0
	w := NewWatcher(Stub{Ep: client, Ref: RefAt(s.host)}, f.clk, 5*time.Second)
	defer w.Close()
	w.Watch(ref, func(oref.Ref) {
		mu.Lock()
		fired++
		mu.Unlock()
	})

	if err := s.ctl.StopService("echo"); err != nil {
		t.Fatal(err)
	}
	f.waitFor("watcher callback fired", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return fired == 1
	})
	// Exactly once.
	f.clk.Advance(30 * time.Second)
	f.clk.Settle()
	mu.Lock()
	defer mu.Unlock()
	if fired != 1 {
		t.Fatalf("callback fired %d times", fired)
	}
	if w.Watching() != 0 {
		t.Fatal("dead watch not removed")
	}
}

func TestWatcherCancel(t *testing.T) {
	f := newFixture(t, 1)
	s := f.servers[0]
	ref := f.startEcho(s, "echo")
	client, err := orb.NewEndpoint(f.nw.Host(s.host))
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	fired := false
	w := NewWatcher(Stub{Ep: client, Ref: RefAt(s.host)}, f.clk, 5*time.Second)
	defer w.Close()
	w.Watch(ref, func(oref.Ref) { fired = true })
	// A watch is keyed as Ref.Key keys everything else here: by the object
	// incarnation, whatever type the holder of the reference narrowed it to.
	narrowed := ref
	narrowed.TypeID = "itv.Other"
	w.Cancel(narrowed)
	if n := w.Watching(); n != 0 {
		t.Fatalf("%d watches left after cancel", n)
	}
	if err := s.ctl.StopService("echo"); err != nil {
		t.Fatal(err)
	}
	f.clk.Advance(30 * time.Second)
	f.clk.Settle()
	if fired {
		t.Fatal("cancelled watch fired")
	}
}

func TestDurationTable(t *testing.T) {
	clk := clock.NewFake()
	var mu sync.Mutex
	var expired []string
	dt := NewDurationTable(clk, time.Second, func(id string) {
		mu.Lock()
		expired = append(expired, id)
		mu.Unlock()
	})
	defer dt.Close()
	dt.Grant("movie-1", 10*time.Second)
	dt.Grant("movie-2", 10*time.Second)
	dt.Release("movie-2")
	advanceUntil(t, clk, func() bool { return dt.Expired() == 1 })
	mu.Lock()
	defer mu.Unlock()
	if len(expired) != 1 || expired[0] != "movie-1" {
		t.Fatalf("expired = %v", expired)
	}
	if dt.Outstanding() != 0 || dt.Expired() != 1 {
		t.Fatalf("outstanding=%d expired=%d", dt.Outstanding(), dt.Expired())
	}
}

func TestLeaseTable(t *testing.T) {
	clk := clock.NewFake()
	var mu sync.Mutex
	var expired []string
	lt := NewLeaseTable(clk, 4*time.Second, func(id string) {
		mu.Lock()
		expired = append(expired, id)
		mu.Unlock()
	})
	defer lt.Close()
	lt.Grant("conn-1")
	// Renew on time: survives.
	for i := 0; i < 4; i++ {
		clk.Advance(2 * time.Second)
		clk.Settle()
		if !lt.Renew("conn-1") {
			t.Fatal("timely renewal rejected")
		}
	}
	mu.Lock()
	if len(expired) != 0 {
		t.Fatalf("renewed lease expired: %v", expired)
	}
	mu.Unlock()
	if lt.Renewals() != 4 {
		t.Fatalf("renewals = %d", lt.Renewals())
	}
	// Stop renewing (client crashed): reclaimed.
	clk.Advance(10 * time.Second)
	clk.Settle()
	mu.Lock()
	defer mu.Unlock()
	if len(expired) != 1 || expired[0] != "conn-1" {
		t.Fatalf("expired = %v", expired)
	}
	if lt.Renew("conn-1") {
		t.Fatal("expired lease renewed")
	}
}

// measurePeerRPCs builds an n-server cluster where every RAS tracks one
// remote object on each other server (the worst case of §7.1: every server
// holds resources for entities everywhere), runs the peer-polling loop for
// several rounds, and returns the cluster-wide number of peer-status RPCs
// per poll round, measured as obs counter deltas.  settops extra settop
// entities are registered on server 0 to show the per-round network cost
// does not depend on client count.
func measurePeerRPCs(t *testing.T, n, settops int) float64 {
	t.Helper()
	f := newFixture(t, n)
	refs := make([]oref.Ref, n)
	for i, s := range f.servers {
		refs[i] = f.startEcho(s, "echo")
	}
	for i, s := range f.servers {
		for j := range f.servers {
			if j != i && !check1(t, s.ras, refs[j]) {
				t.Fatal("fresh remote object reported dead")
			}
		}
	}
	for k := 0; k < settops; k++ {
		addr := fmt.Sprintf("10.7.0.%d", k+1)
		f.servers[0].mgr.Heartbeat(addr)
		if !check1(t, f.servers[0].ras, SettopRef(addr)) {
			t.Fatal("live settop reported dead")
		}
	}

	// obs.Node registries are process-global and accumulate across tests
	// that reuse the synthetic 192.168.0.x addresses, so all assertions
	// are on before/after deltas.
	type sampled struct{ rpcs, rounds int64 }
	sample := func() []sampled {
		out := make([]sampled, n)
		for i := range out {
			reg := obs.Node(serverIP(i))
			out[i] = sampled{
				rpcs:   reg.Counter("ras_peer_rpcs").Value(),
				rounds: reg.Counter("ras_poll_rounds").Value(),
			}
		}
		return out
	}
	latency := obs.Node(serverIP(0)).Histogram(
		obs.L("orb_call_latency", "method", TypeID+".localStatus"))
	latencyBefore := latency.Count()
	before := sample()
	const rounds = 8
	f.waitFor("poll rounds elapsed", func() bool {
		cur := sample()
		for i := range cur {
			if cur[i].rounds-before[i].rounds < rounds {
				return false
			}
		}
		return true
	})
	// The clock is no longer advancing; give any in-flight poll a moment
	// to finish counting its RPCs before the final sample.
	f.clk.Settle()
	after := sample()

	// The client-side ORB records a per-method latency histogram for the
	// peer-status calls server 0 made.
	if d := latency.Count() - latencyBefore; d < rounds {
		t.Fatalf("localStatus latency histogram grew by %d, want >= %d", d, rounds)
	}

	var total float64
	for i := range after {
		dRounds := after[i].rounds - before[i].rounds
		dRPCs := after[i].rpcs - before[i].rpcs
		if dRounds == 0 {
			t.Fatalf("server %d made no poll rounds", i)
		}
		total += float64(dRPCs) / float64(dRounds)
	}
	return total
}

// TestAuditMessageComplexity reproduces the scalability claim behind the
// §7.1 design choice: the audit scheme's network cost is one peer-status
// RPC per (server, other-server) pair per round — O(servers²) — and is
// independent of how many settops hold resources.
func TestAuditMessageComplexity(t *testing.T) {
	var r2, r2Settops, r4 float64
	// Run each cluster in a subtest so its services are torn down (and its
	// fake clock frozen) before the next cluster reuses the same hosts.
	t.Run("n2", func(t *testing.T) { r2 = measurePeerRPCs(t, 2, 0) })
	t.Run("n2settops", func(t *testing.T) { r2Settops = measurePeerRPCs(t, 2, 8) })
	t.Run("n4", func(t *testing.T) { r4 = measurePeerRPCs(t, 4, 0) })

	near := func(got, want float64) bool {
		return math.Abs(got-want) <= 0.2*want+0.1
	}
	if !near(r2, 2) { // n(n-1) = 2·1
		t.Errorf("2-server cluster: %.2f peer RPCs/round, want ~2", r2)
	}
	if !near(r4, 12) { // n(n-1) = 4·3
		t.Errorf("4-server cluster: %.2f peer RPCs/round, want ~12", r4)
	}
	// Quadratic growth in servers: 4 servers cost ~6x what 2 servers do.
	if ratio := r4 / r2; math.Abs(ratio-6) > 1.2 {
		t.Errorf("4-server/2-server RPC ratio = %.2f, want ~6 (O(servers^2))", ratio)
	}
	// Independence from client count: adding settops does not change the
	// server-to-server message rate (§7.1's argument for the RAS design).
	if math.Abs(r2Settops-r2) > 0.5 {
		t.Errorf("peer RPCs/round changed with settops: %.2f vs %.2f", r2Settops, r2)
	}
}

func TestPinger(t *testing.T) {
	f := newFixture(t, 1)
	s := f.servers[0]
	ref := f.startEcho(s, "echo")
	client, err := orb.NewEndpoint(f.nw.Host(s.host))
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	var mu sync.Mutex
	var dead []oref.Ref
	p := NewPinger(client, f.clk, 5*time.Second, func(r oref.Ref) {
		mu.Lock()
		dead = append(dead, r)
		mu.Unlock()
	})
	defer p.Close()
	p.Track(ref)
	advanceUntil(t, f.clk, func() bool { return p.Pings() > 0 })
	mu.Lock()
	if len(dead) != 0 {
		t.Fatalf("live object declared dead: %v", dead)
	}
	mu.Unlock()
	if p.Pings() == 0 {
		t.Fatal("no pings sent")
	}
	if err := s.ctl.StopService("echo"); err != nil {
		t.Fatal(err)
	}
	f.waitFor("pinger detects death", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(dead) == 1
	})
}

// TestCloseTwice: each periodic type here closes twice in a row, and from
// two goroutines at once, without a panic, and leaves no timer armed.
func TestCloseTwice(t *testing.T) {
	for _, tc := range []struct {
		name string
		open func(clk clock.Clock) (close func())
	}{
		{"DurationTable", func(clk clock.Clock) func() {
			return NewDurationTable(clk, time.Second, func(string) {}).Close
		}},
		{"LeaseTable", func(clk clock.Clock) func() {
			return NewLeaseTable(clk, time.Second, func(string) {}).Close
		}},
		{"Pinger", func(clk clock.Clock) func() {
			return NewPinger(nil, clk, time.Second, func(oref.Ref) {}).Close
		}},
		{"Watcher", func(clk clock.Clock) func() {
			return NewWatcher(Stub{}, clk, time.Second).Close
		}},
		{"Service", func(clk clock.Clock) func() {
			s, err := New(transport.NewNetwork().Host(serverIP(0)), clk, Config{})
			if err != nil {
				t.Fatal(err)
			}
			return s.Close
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			clk := clock.NewFake()
			stop := tc.open(clk)
			stop()
			stop()
			stop = tc.open(clk)
			var wg sync.WaitGroup
			for i := 0; i < 2; i++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					stop()
				}()
			}
			wg.Wait()
			if n := clk.Waiters(); n != 0 {
				t.Errorf("%d timers left armed after Close", n)
			}
		})
	}
}
