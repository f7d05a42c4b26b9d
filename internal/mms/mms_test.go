package mms

import (
	"testing"
	"time"

	"itv/internal/atm"
	"itv/internal/audit"
	"itv/internal/clock"
	"itv/internal/cmgr"
	"itv/internal/core"
	"itv/internal/media"
	"itv/internal/names"
	"itv/internal/orb"
	"itv/internal/transport"
)

// fixture wires the minimum the MMS needs: a name service, a RAS (with no
// SSC, so everything local reads alive), one Connection Manager and two
// MDS replicas with asymmetric catalogs.
type fixture struct {
	t      *testing.T
	clk    *clock.Fake
	nw     *transport.Network
	ns     *names.Replica
	fabric *atm.Network
	mds1   *media.Service // forge: T2 + Duck Amuck
	mds2   *media.Service // kiln: T2 only
	svc    *Service
}

func newFixture(t *testing.T) *fixture {
	t.Helper()
	f := &fixture{t: t, clk: clock.NewFake(), nw: transport.NewNetwork()}
	ns, err := names.NewReplica(f.nw.Host("192.168.0.1"), f.clk, names.Config{
		Peers: []string{"192.168.0.1:555"},
	})
	if err != nil {
		t.Fatal(err)
	}
	f.ns = ns
	t.Cleanup(ns.Close)
	f.waitFor("master", ns.IsMaster)

	ras, err := audit.New(f.nw.Host("192.168.0.1"), f.clk, audit.Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ras.Close)

	f.fabric = atm.New()
	f.fabric.AddServer("192.168.0.1", 100*atm.Mbps)
	f.fabric.AddServer("192.168.0.2", 100*atm.Mbps)
	f.fabric.AddSettop("10.1.0.5")

	cm := cmgr.New(f.session("192.168.0.1"), f.fabric, "1")
	cm.Elector().RetryInterval = 2 * time.Second
	cm.Start()
	t.Cleanup(cm.Close)
	f.waitFor("cmgr primary", cm.IsPrimary)

	movies := []media.MovieInfo{
		{Title: "T2", Size: 4_000_000_000, Bitrate: 4 * atm.Mbps},
	}
	f.mds1 = media.New(f.session("192.168.0.1"), "forge", append(movies,
		media.MovieInfo{Title: "Duck Amuck", Size: 300_000_000, Bitrate: 3 * atm.Mbps}))
	if err := f.mds1.Register(); err != nil {
		t.Fatal(err)
	}
	f.mds2 = media.New(f.session("192.168.0.2"), "kiln", movies)
	if err := f.mds2.Register(); err != nil {
		t.Fatal(err)
	}

	f.svc = New(f.session("192.168.0.1"), audit.RefAt("192.168.0.1"))
	f.svc.Elector().RetryInterval = 2 * time.Second
	f.svc.Start()
	t.Cleanup(f.svc.Close)
	f.waitFor("mms primary", f.svc.IsPrimary)
	return f
}

func (f *fixture) session(host string) *core.Session {
	f.t.Helper()
	ep, err := orb.NewEndpoint(f.nw.Host(host))
	if err != nil {
		f.t.Fatal(err)
	}
	f.t.Cleanup(ep.Close)
	return core.NewSession(ep, f.ns.RootRef(), f.clk)
}

func (f *fixture) waitFor(what string, cond func() bool) {
	f.t.Helper()
	if !f.clk.Await(time.Second, 600, cond) {
		f.t.Fatalf("condition never held: %s", what)
	}
}

func TestOpenChoosesReplicaWithTitle(t *testing.T) {
	f := newFixture(t)
	// Only forge stores "Duck Amuck".
	ref, id, err := f.svc.Open("Duck Amuck", "10.1.0.5")
	if err != nil {
		t.Fatal(err)
	}
	if ref.Addr != f.mds1.Ref().Addr {
		t.Fatalf("opened on %s, want forge", ref.Addr)
	}
	if f.svc.OpenCount() != 1 {
		t.Fatalf("open count = %d", f.svc.OpenCount())
	}
	if err := f.svc.CloseMovie(id); err != nil {
		t.Fatal(err)
	}
	if f.fabric.Conns() != 0 {
		t.Fatal("connection leaked")
	}
}

func TestOpenBalancesByLoad(t *testing.T) {
	f := newFixture(t)
	// Preload forge with open movies so kiln is lighter.
	for i := 0; i < 3; i++ {
		if _, _, err := f.mds1.Open("T2", "10.9.9.9", "x"); err != nil {
			t.Fatal(err)
		}
	}
	ref, _, err := f.svc.Open("T2", "10.1.0.5")
	if err != nil {
		t.Fatal(err)
	}
	if ref.Addr != f.mds2.Ref().Addr {
		t.Fatalf("opened on %s, want the lighter kiln", ref.Addr)
	}
}

func TestOpenUnknownTitle(t *testing.T) {
	f := newFixture(t)
	_, _, err := f.svc.Open("Nonexistent", "10.1.0.5")
	if !orb.IsApp(err, orb.ExcNotFound) {
		t.Fatalf("err = %v", err)
	}
}

func TestOpenSkipsDeadReplica(t *testing.T) {
	f := newFixture(t)
	// Kill kiln's MDS endpoint: opens must fall through to forge, and
	// kiln is remembered dead.
	f.mds2.Endpoint().Close()

	addr, err := f.openClose("T2")
	if err != nil {
		t.Fatal(err)
	}
	if addr != f.mds1.Ref().Addr {
		t.Fatalf("opened on %s, want forge", addr)
	}
	if !f.mdsDead("kiln") {
		t.Fatal("kiln not marked dead (§3.5.2 health tracking)")
	}

	// The mark belongs to the reference that earned it, not to the name:
	// kiln restarts and re-registers within seconds (no simulated time
	// passes here at all), and the very next open lists, finds a new
	// incarnation under the old name, and may use it.  Forge is loaded so
	// that the restarted, empty kiln is the lighter choice.
	for i := 0; i < 3; i++ {
		if _, _, err := f.mds1.Open("T2", "10.9.9.9", "x"); err != nil {
			t.Fatal(err)
		}
	}
	kiln := f.startMDS("192.168.0.2", "kiln", media.MovieInfo{Title: "T2", Size: 4_000_000_000, Bitrate: 4 * atm.Mbps})
	addr, err = f.openClose("T2")
	if err != nil {
		t.Fatal(err)
	}
	if addr != kiln.Ref().Addr {
		t.Fatalf("after kiln's restart opened on %s, want the restarted kiln at %s", addr, kiln.Ref().Addr)
	}
	if f.mdsDead("kiln") {
		t.Fatal("restarted kiln still carries its dead predecessor's mark")
	}
}

// TestWarmOpenAsksTheNameServiceNothing: after one open the MMS holds its
// Connection Manager reference and its MDS listing; further opens and
// closes, for any title, send the name service no request at all (§3.4.2).
func TestWarmOpenAsksTheNameServiceNothing(t *testing.T) {
	f := newFixture(t)
	cycle := func(title string) {
		t.Helper()
		if _, err := f.openClose(title); err != nil {
			t.Fatal(err)
		}
	}
	cycle("T2")
	before := f.nsRequests()
	for i := 0; i < 4; i++ {
		cycle("T2")
		cycle("Duck Amuck")
	}
	if got := f.ns.Endpoint().Stats().Received - before; got != 0 {
		t.Fatalf("8 warm open/close pairs sent the name service %d requests, want 0", got)
	}
	if f.fabric.Conns() != 0 {
		t.Fatal("connection leaked")
	}
}

// TestReplicaAddedAfterListingIsUsedWithinRetryInterval: the held listing
// is refreshed on the MDSRetryInterval tick (§3.5.2's periodic
// re-resolve), so a replica that registers at run time serves opens within
// one interval — and a title that was absent a moment ago is found as
// soon as a replica that stores it is listed (nothing remembers a "no").
func TestReplicaAddedAfterListingIsUsedWithinRetryInterval(t *testing.T) {
	f := newFixture(t)
	if _, err := f.openClose("T2"); err != nil { // listing: forge, kiln
		t.Fatal(err)
	}
	f.fabric.AddServer("192.168.0.3", 100*atm.Mbps)
	anvil := f.startMDS("192.168.0.3", "anvil", media.MovieInfo{Title: "Brazil", Size: 1_000_000_000, Bitrate: 4 * atm.Mbps})
	if _, err := f.openClose("Brazil"); !orb.IsApp(err, orb.ExcNotFound) {
		t.Fatalf("open before the refresh: err = %v, want NotFound", err)
	}
	var addr string
	if !f.clk.Await(time.Second, int(f.svc.MDSRetryInterval/time.Second)+1, func() bool {
		var err error
		addr, err = f.openClose("Brazil")
		return err == nil
	}) {
		t.Fatalf("anvil not used within MDSRetryInterval (%v) of registering", f.svc.MDSRetryInterval)
	}
	if addr != anvil.Ref().Addr {
		t.Fatalf("opened on %s, want anvil", addr)
	}
}

// TestStaleListedReplicaIsRelistedByTheOpenThatFindsItDead: a replica
// killed and restarted while the MMS held its old reference.  The open that
// probes the stale reference marks it and goes on with the other
// candidates; from that open on, opens list first until no dead-marked
// reference is listed — so the next one has the new incarnation.
func TestStaleListedReplicaIsRelistedByTheOpenThatFindsItDead(t *testing.T) {
	f := newFixture(t)
	if _, err := f.openClose("T2"); err != nil { // listing: forge, kiln
		t.Fatal(err)
	}
	f.mds1.Endpoint().Close() // forge: the only store of "Duck Amuck"
	forge := f.startMDS("192.168.0.1", "forge",
		media.MovieInfo{Title: "Duck Amuck", Size: 300_000_000, Bitrate: 3 * atm.Mbps})

	// The held reference to forge is a dead incarnation: this open finds
	// that out (and has no other store of the title to fall back on).
	if _, err := f.openClose("Duck Amuck"); !orb.IsApp(err, orb.ExcNotFound) {
		t.Fatalf("open through the stale reference: err = %v, want NotFound", err)
	}
	lists := f.nsRequests()
	addr, err := f.openClose("Duck Amuck")
	if err != nil {
		t.Fatalf("open after the stale reference was found dead: %v", err)
	}
	if addr != forge.Ref().Addr {
		t.Fatalf("opened on %s, want the restarted forge", addr)
	}
	if got := f.ns.Endpoint().Stats().Received - lists; got != 1 {
		t.Fatalf("the re-listing open sent the name service %d requests, want 1 (listRepl)", got)
	}
	// Nothing dead is listed any more: opens stop asking.
	lists = f.nsRequests()
	if _, err := f.openClose("Duck Amuck"); err != nil {
		t.Fatal(err)
	}
	if got := f.ns.Endpoint().Stats().Received - lists; got != 0 {
		t.Fatalf("open with a clean listing sent the name service %d requests, want 0", got)
	}
}

// nsRequests returns how many requests the name service has received, once
// the electors' self-checks, riding the clock ticks a waitFor just drove,
// have landed.
func (f *fixture) nsRequests() int64 {
	f.clk.Settle()
	return f.ns.Endpoint().Stats().Received
}

// openClose opens title for the fixture's settop, closes it again (the
// settop's link carries one movie at a time) and reports which MDS served.
func (f *fixture) openClose(title string) (mdsAddr string, err error) {
	ref, id, err := f.svc.Open(title, "10.1.0.5")
	if err != nil {
		return "", err
	}
	return ref.Addr, f.svc.CloseMovie(id)
}

// startMDS starts (or restarts) an MDS replica and registers it.
func (f *fixture) startMDS(host, name string, titles ...media.MovieInfo) *media.Service {
	f.t.Helper()
	m := media.New(f.session(host), name, titles)
	if err := m.Register(); err != nil {
		f.t.Fatal(err)
	}
	return m
}

// mdsDead reports whether the MMS's listing carries name marked dead.
func (f *fixture) mdsDead(name string) bool {
	f.svc.mu.Lock()
	defer f.svc.mu.Unlock()
	for _, r := range f.svc.mds {
		if r.name == name {
			return r.dead
		}
	}
	f.t.Fatalf("%s not in the MMS's svc/mds listing", name)
	return false
}

func TestNotPrimaryRefusesOpen(t *testing.T) {
	f := newFixture(t)
	backup := New(f.session("192.168.0.2"), audit.RefAt("192.168.0.1"))
	backup.Elector().RetryInterval = 2 * time.Second
	backup.Start()
	t.Cleanup(backup.Close)
	// The backup never becomes primary while f.svc lives.
	f.clk.Advance(20 * time.Second)
	f.clk.Settle()
	if _, _, err := backup.Open("T2", "10.1.0.5"); !orb.IsApp(err, orb.ExcUnavailable) {
		t.Fatalf("err = %v", err)
	}
}

func TestCloseUnknownMovie(t *testing.T) {
	f := newFixture(t)
	if err := f.svc.CloseMovie("ghost"); !orb.IsApp(err, orb.ExcNotFound) {
		t.Fatalf("err = %v", err)
	}
}
