package cmgr

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"itv/internal/atm"
	"itv/internal/clock"
	"itv/internal/core"
	"itv/internal/names"
	"itv/internal/obs"
	"itv/internal/orb"
	"itv/internal/oref"
	"itv/internal/transport"
	"itv/internal/wire"
)

type fixture struct {
	t      *testing.T
	clk    *clock.Fake
	nw     *transport.Network
	ns     *names.Replica
	fabric *atm.Network
	client *core.Session
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
	f.waitFor("ns master", ns.IsMaster)

	f.fabric = atm.New()
	f.fabric.AddServer("192.168.0.1", 100*atm.Mbps)
	f.fabric.AddServer("192.168.0.2", 100*atm.Mbps)
	for _, h := range []string{"10.1.0.5", "10.2.0.5"} {
		f.fabric.AddSettop(h)
	}

	ep, err := orb.NewEndpoint(f.nw.Host("10.1.0.5"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ep.Close)
	f.client = core.NewSession(ep, ns.RootRef(), f.clk)
	return f
}

func (f *fixture) waitFor(what string, cond func() bool) {
	f.t.Helper()
	if !f.clk.Await(time.Second, 600, cond) {
		f.t.Fatalf("condition never held: %s", what)
	}
}

// newReplica creates and starts a cmgr replica on the given server host.
func (f *fixture) newReplica(host, scope string) *Service {
	f.t.Helper()
	ep, err := orb.NewEndpoint(f.nw.Host(host))
	if err != nil {
		f.t.Fatal(err)
	}
	sess := core.NewSession(ep, f.ns.RootRef(), f.clk)
	s := New(sess, f.fabric, scope)
	s.elector.RetryInterval = 2 * time.Second
	s.Start()
	f.t.Cleanup(func() { s.Close(); ep.Close() })
	return s
}

func TestPrimaryAllocatesAndReleases(t *testing.T) {
	f := newFixture(t)
	s := f.newReplica("192.168.0.1", "1")
	f.waitFor("primary", s.IsPrimary)

	a, err := s.Allocate("10.1.0.5", "192.168.0.1", 4*atm.Mbps, atm.CBR)
	if err != nil {
		t.Fatal(err)
	}
	if f.fabric.Conns() != 1 {
		t.Fatal("fabric connection missing")
	}
	if s.Held("10.1.0.5") != 1 {
		t.Fatal("per-settop count wrong")
	}
	if err := s.Release(a.ID); err != nil {
		t.Fatal(err)
	}
	if f.fabric.Conns() != 0 || s.Held("10.1.0.5") != 0 {
		t.Fatal("release incomplete")
	}
	if err := s.Release(a.ID); !orb.IsApp(err, orb.ExcNotFound) {
		t.Fatalf("double release err = %v", err)
	}
}

func TestResourceLimitPerSettop(t *testing.T) {
	// §7.3: "A settop client is only allowed to open a certain number of
	// network connections ... If the settop attempts to acquire more
	// resources ... its request is denied."
	f := newFixture(t)
	s := f.newReplica("192.168.0.1", "1")
	f.waitFor("primary", s.IsPrimary)
	for i := 0; i < DefaultMaxConnsPerSettop; i++ {
		if _, err := s.Allocate("10.1.0.5", "192.168.0.1", 1*atm.Mbps, atm.CBR); err != nil {
			t.Fatal(err)
		}
	}
	_, err := s.Allocate("10.1.0.5", "192.168.0.1", 1*atm.Mbps, atm.CBR)
	if !orb.IsApp(err, orb.ExcExhausted) {
		t.Fatalf("over-limit err = %v", err)
	}
}

func TestBandwidthExhaustionSurfaced(t *testing.T) {
	f := newFixture(t)
	s := f.newReplica("192.168.0.1", "1")
	f.waitFor("primary", s.IsPrimary)
	// The settop's 6 Mb/s downstream refuses a second 4 Mb/s stream.
	if _, err := s.Allocate("10.1.0.5", "192.168.0.1", 4*atm.Mbps, atm.CBR); err != nil {
		t.Fatal(err)
	}
	_, err := s.Allocate("10.1.0.5", "192.168.0.1", 4*atm.Mbps, atm.CBR)
	if !orb.IsApp(err, orb.ExcExhausted) {
		t.Fatalf("err = %v", err)
	}
}

func TestNeighborhoodResolutionViaSelector(t *testing.T) {
	f := newFixture(t)
	s1 := f.newReplica("192.168.0.1", "1")
	s2 := f.newReplica("192.168.0.2", "2")
	f.waitFor("both primaries", func() bool { return s1.IsPrimary() && s2.IsPrimary() })

	// A settop in neighborhood 2 resolving "svc/cmgr" reaches replica 2.
	ep, err := orb.NewEndpoint(f.nw.Host("10.2.0.5"))
	if err != nil {
		t.Fatal(err)
	}
	defer ep.Close()
	sess := core.NewSession(ep, f.ns.RootRef(), f.clk)
	ref, err := sess.Root.Resolve(ContextPath)
	if err != nil {
		t.Fatal(err)
	}
	if ref != s2.Ref() {
		t.Fatalf("neighborhood 2 resolved %v, want replica 2", ref)
	}
	// Explicit indexing works too (Fig. 4's "svc/cmgr/1").
	ref1, err := sess.Root.Resolve(ContextPath + "/1")
	if err != nil || ref1 != s1.Ref() {
		t.Fatalf("explicit index = %v, %v", ref1, err)
	}
}

func TestBackupTakesOverWithMirroredState(t *testing.T) {
	f := newFixture(t)
	f.ns.SetChecker(pingChecker{f.client.Ep})

	primary := f.newReplica("192.168.0.1", "1")
	f.waitFor("primary elected", primary.IsPrimary)
	backup := f.newReplica("192.168.0.2", "1")

	// Let the backup register as a mirror, then allocate.
	f.waitFor("mirror registered", func() bool {
		primary.mu.Lock()
		defer primary.mu.Unlock()
		return len(primary.mirrors) == 1
	})
	a, err := primary.Allocate("10.1.0.5", "192.168.0.1", 3*atm.Mbps, atm.CBR)
	if err != nil {
		t.Fatal(err)
	}
	f.waitFor("allocation mirrored", func() bool {
		backup.mu.Lock()
		defer backup.mu.Unlock()
		_, ok := backup.table[a.ID]
		return ok
	})

	// Primary crashes; the backup is promoted with the table intact and
	// can release the connection the hardware still carries.
	primary.sess.Ep.Close()
	f.waitFor("backup promoted", backup.IsPrimary)
	if err := backup.Release(a.ID); err != nil {
		t.Fatalf("promoted backup could not release mirrored conn: %v", err)
	}
	if f.fabric.Conns() != 0 {
		t.Fatal("fabric still holds the connection")
	}
}

func TestRemoteStub(t *testing.T) {
	f := newFixture(t)
	s := f.newReplica("192.168.0.1", "1")
	f.waitFor("primary", s.IsPrimary)
	stub := Stub{Ep: f.client.Ep, Ref: s.Ref()}
	a, err := stub.Allocate("10.1.0.5", "192.168.0.1", 2*atm.Mbps, atm.CBR)
	if err != nil {
		t.Fatal(err)
	}
	list, err := stub.List()
	if err != nil || len(list) != 1 || list[0].ID != a.ID {
		t.Fatalf("List = %v, %v", list, err)
	}
	if err := stub.Release(a.ID); err != nil {
		t.Fatal(err)
	}
}

// TestJunkServersGrowNothing: allocations from servers the fabric does not
// know, twice as many as the server table holds, are refused and admit
// nothing; the first allocation from a real server admits its name.
func TestJunkServersGrowNothing(t *testing.T) {
	f := newFixture(t)
	s := f.newReplica("192.168.0.1", "1")
	f.waitFor("primary", s.IsPrimary)
	stub := Stub{Ep: f.client.Ep, Ref: s.Ref()}
	held := servers.Len()
	for i := 0; i < 2*wire.TableEntries; i++ {
		junk := fmt.Sprintf("10.99.%d.%d", i/256, i%256)
		if _, err := stub.Allocate("10.1.0.5", junk, atm.Mbps, atm.CBR); !orb.IsApp(err, orb.ExcExhausted) {
			t.Fatalf("Allocate from %s: %v", junk, err)
		}
	}
	if got := servers.Len(); got != held {
		t.Fatalf("server table went from %d to %d entries on servers no fabric carries", held, got)
	}
	a, err := stub.Allocate("10.1.0.5", "192.168.0.2", atm.Mbps, atm.CBR)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := servers.Lookup([]byte("192.168.0.2")); !ok || a.Server != "192.168.0.2" {
		t.Fatalf("allocation from %s: %+v, admitted %v", "192.168.0.2", a, ok)
	}
}

// pingChecker stands in for the RAS.
type pingChecker struct{ ep *orb.Endpoint }

func (p pingChecker) CheckStatus(refs []oref.Ref) ([]bool, []uint64, error) {
	alive := make([]bool, len(refs))
	for i, r := range refs {
		alive[i] = !orb.Dead(p.ep.Ping(r))
	}
	return alive, make([]uint64, len(refs)), nil
}

func TestResourceAccounting(t *testing.T) {
	// §7.3's future work, implemented: per-settop usage and buggy-client
	// detection through denied-request counts.
	f := newFixture(t)
	s := f.newReplica("192.168.0.1", "1")
	f.waitFor("primary", s.IsPrimary)

	// A well-behaved settop: one 4 Mb/s stream for 100 simulated seconds.
	a, err := s.Allocate("10.1.0.5", "192.168.0.1", 4*atm.Mbps, atm.CBR)
	if err != nil {
		t.Fatal(err)
	}
	f.clk.Advance(100 * time.Second)
	if err := s.Release(a.ID); err != nil {
		t.Fatal(err)
	}
	u := s.UsageOf("10.1.0.5")
	if u.Opened != 1 || u.Denied != 0 {
		t.Fatalf("usage = %+v", u)
	}
	// 4 Mb/s x 100 s = 400 megabit-seconds.
	if u.MbitSeconds < 399 || u.MbitSeconds > 401 {
		t.Fatalf("MbitSeconds = %f, want ~400", u.MbitSeconds)
	}

	// A buggy settop hammers past its connection limit.
	for i := 0; i < DefaultMaxConnsPerSettop; i++ {
		if _, err := s.Allocate("10.2.0.5", "192.168.0.2", 100_000, atm.CBR); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 5; i++ {
		if _, err := s.Allocate("10.2.0.5", "192.168.0.2", 100_000, atm.CBR); !orb.IsApp(err, orb.ExcExhausted) {
			t.Fatalf("err = %v", err)
		}
	}
	suspects := s.Suspects(5)
	if len(suspects) != 1 || suspects[0] != "10.2.0.5" {
		t.Fatalf("suspects = %v", suspects)
	}
	if s.Suspects(6) != nil {
		t.Fatal("threshold not applied")
	}

	// The report travels over the IDL.
	stub := Stub{Ep: f.client.Ep, Ref: s.Ref()}
	report, err := stub.Usage()
	if err != nil || len(report) != 2 {
		t.Fatalf("report = %v, %v", report, err)
	}
	if report[0].Settop != "10.1.0.5" || report[1].Denied != 5 {
		t.Fatalf("report rows = %+v", report)
	}
}

// serverSession is a session on a server host: where the services that
// hold a Directory (the MMS, the RDS) run.
func (f *fixture) serverSession(host string) *core.Session {
	f.t.Helper()
	ep, err := orb.NewEndpoint(f.nw.Host(host))
	if err != nil {
		f.t.Fatal(err)
	}
	f.t.Cleanup(ep.Close)
	return core.NewSession(ep, f.ns.RootRef(), f.clk)
}

// settled returns c's value once the electors' own resolves (self-check,
// mirror registration), riding the clock ticks a waitFor just drove, have
// landed.
func (f *fixture) settled(c *obs.Counter) int64 {
	f.clk.Settle()
	return c.Value()
}

// TestDirectoryHoldsOneReferencePerNeighborhood: settops are routed to
// their own neighborhood's Connection Manager through the selector, the
// directory never holds more entries than neighborhoods it has served, and
// once it has served a neighborhood the name service hears nothing more —
// with several callers at once.
func TestDirectoryHoldsOneReferencePerNeighborhood(t *testing.T) {
	f := newFixture(t)
	cm1 := f.newReplica("192.168.0.1", "1")
	cm2 := f.newReplica("192.168.0.2", "2")
	f.waitFor("both primaries", func() bool { return cm1.IsPrimary() && cm2.IsPrimary() })
	settops := []string{"10.1.0.5", "10.1.0.6", "10.2.0.5", "10.2.0.6"}
	for _, h := range settops[1:] {
		f.fabric.AddSettop(h) // AddSettop of a known settop is a no-op
	}
	d := NewDirectory(f.serverSession("192.168.0.1"))
	resolves := obs.Node("192.168.0.1").Counter("names_resolves")
	before := f.settled(resolves)

	var wg sync.WaitGroup
	for _, h := range settops {
		wg.Add(1)
		go func(settop string) {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				a, err := d.Allocate(settop, "192.168.0.1", atm.Mbps, atm.CBR)
				if err != nil {
					t.Errorf("allocate for %s: %v", settop, err)
					return
				}
				want, other := cm1, cm2
				if names.NeighborhoodOf(settop) == "2" {
					want, other = cm2, cm1
				}
				if want.Held(settop) != 1 || other.Held(settop) != 0 {
					t.Errorf("%s: held %d by its own cmgr and %d by the other, want 1 and 0",
						settop, want.Held(settop), other.Held(settop))
				}
				if err := d.Release(settop, a.ID); err != nil {
					t.Errorf("release for %s: %v", settop, err)
				}
			}
		}(h)
	}
	wg.Wait()

	d.mu.Lock()
	held := len(d.byNbhd)
	d.mu.Unlock()
	if held != 2 {
		t.Fatalf("directory holds %d references after serving 2 neighborhoods", held)
	}
	// Racing first calls may each resolve before one reference is stored;
	// after that nobody asks again.
	if got := resolves.Value() - before; got < 2 || got > int64(len(settops)) {
		t.Fatalf("40 calls cost %d resolves, want 2 (at most %d if the first calls raced)", got, len(settops))
	}
	before = f.settled(resolves)
	for _, h := range settops {
		a, err := d.Allocate(h, "192.168.0.1", atm.Mbps, atm.CBR)
		if err != nil {
			t.Fatal(err)
		}
		if err := d.Release(h, a.ID); err != nil {
			t.Fatal(err)
		}
	}
	if got := resolves.Value() - before; got != 0 {
		t.Fatalf("warm calls cost %d resolves, want 0", got)
	}
	if f.fabric.Conns() != 0 {
		t.Fatal("connection leaked")
	}
}

// TestDirectoryFollowsFailover: the reference a service holds dies with
// the primary.  The call that finds it dead is the call that replaces it —
// a release after the fail-over reaches the promoted backup, whose mirrored
// table still has the connection (§10.1.1), instead of being dropped on the
// dead reference.
func TestDirectoryFollowsFailover(t *testing.T) {
	f := newFixture(t)
	f.ns.SetChecker(pingChecker{f.client.Ep})
	primary := f.newReplica("192.168.0.1", "1")
	f.waitFor("primary elected", primary.IsPrimary)
	backup := f.newReplica("192.168.0.2", "1")
	f.waitFor("mirror registered", func() bool {
		primary.mu.Lock()
		defer primary.mu.Unlock()
		return len(primary.mirrors) == 1
	})

	sess := f.serverSession("192.168.0.2")
	d := NewDirectory(sess)
	a, err := d.Allocate("10.1.0.5", "192.168.0.1", 3*atm.Mbps, atm.CBR)
	if err != nil {
		t.Fatal(err)
	}
	f.waitFor("allocation mirrored", func() bool { return backup.Held("10.1.0.5") == 1 })

	primary.sess.Ep.Close()
	f.waitFor("backup promoted", backup.IsPrimary)
	rebinds := sess.Ep.Metrics().Counter("core_rebinds")
	resolves := obs.Node("192.168.0.1").Counter("names_resolves")
	rebindsBefore, resolvesBefore := rebinds.Value(), f.settled(resolves)
	if err := d.Release("10.1.0.5", a.ID); err != nil {
		t.Fatalf("release after the fail-over: %v", err)
	}
	if backup.Held("10.1.0.5") != 0 || f.fabric.Conns() != 0 {
		t.Fatalf("after release the new primary holds %d for the settop and the fabric %d connections, want 0 and 0",
			backup.Held("10.1.0.5"), f.fabric.Conns())
	}
	if got := rebinds.Value() - rebindsBefore; got != 1 {
		t.Fatalf("core_rebinds moved by %d, want 1", got)
	}
	if got := resolves.Value() - resolvesBefore; got != 1 {
		t.Fatalf("the rebinding call cost %d resolves, want 1", got)
	}
}

// TestDirectoryDropsADemotedPrimary: a replica that lost the binding but
// not its life answers "not primary" rather than dying.  That reference is
// stale too: the call that hears it fails, and the next one asks the name
// service again.
func TestDirectoryDropsADemotedPrimary(t *testing.T) {
	f := newFixture(t)
	old := f.newReplica("192.168.0.1", "1")
	f.waitFor("primary elected", old.IsPrimary)
	d := NewDirectory(f.serverSession("192.168.0.2"))
	a, err := d.Allocate("10.1.0.5", "192.168.0.1", atm.Mbps, atm.CBR)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Release("10.1.0.5", a.ID); err != nil {
		t.Fatal(err)
	}

	// An operator rebind (§5.2): the name now belongs to another object;
	// the old primary's self-check notices and demotes it.
	elsewhere := f.serverSession("192.168.0.2").Ep.Register("cmgr-elsewhere", allocSkel{})
	if err := f.client.Root.Unbind(ContextPath + "/1"); err != nil {
		t.Fatal(err)
	}
	if err := f.client.Root.Bind(ContextPath+"/1", elsewhere); err != nil {
		t.Fatal(err)
	}
	f.waitFor("old primary demoted", func() bool { return !old.IsPrimary() })

	if _, err := d.Allocate("10.1.0.5", "192.168.0.1", atm.Mbps, atm.CBR); !orb.IsApp(err, orb.ExcUnavailable) {
		t.Fatalf("allocate on the demoted replica: err = %v, want Unavailable", err)
	}
	a, err = d.Allocate("10.1.0.5", "192.168.0.1", atm.Mbps, atm.CBR)
	if err != nil || a.ID != "elsewhere" {
		t.Fatalf("allocate after the stale reference was dropped = %+v, %v; want the name's new holder to answer", a, err)
	}
}

// allocSkel answers "allocate" the way a primary would.
type allocSkel struct{}

func (allocSkel) TypeID() string { return TypeID }
func (allocSkel) Dispatch(c *orb.ServerCall) error {
	if c.Method() != "allocate" {
		return orb.ErrNoSuchMethod
	}
	(&Alloc{ID: "elsewhere"}).MarshalWire(c.Results())
	return nil
}

// TestHostileCountAllocatesNothing: allocations or usage records claimed
// 2^20 at a time, the wire's limit, in 1 MiB — one byte a record — are
// short of what a record takes at least, and fail before anything is sized
// by the claim (64 and 40 MiB of records).
func TestHostileCountAllocatesNothing(t *testing.T) {
	e := new(wire.Encoder)
	e.PutUint(1 << 20)
	e.PutRaw(make([]byte, 1<<20))
	for name, decode := range map[string]func(*wire.Decoder){
		"allocs": func(d *wire.Decoder) { getAllocs(d) },
		"usage":  func(d *wire.Decoder) { getUsages(d) },
	} {
		var d wire.Decoder
		d.Reset(e.Bytes())
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		decode(&d)
		runtime.ReadMemStats(&after)
		if n := after.TotalAlloc - before.TotalAlloc; !errors.Is(d.Err(), wire.ErrTruncated) || n > 64<<10 {
			t.Errorf("%s: %v after %d bytes allocated; want wire.ErrTruncated after next to none", name, d.Err(), n)
		}
	}
}
