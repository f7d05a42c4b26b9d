package rds

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"itv/internal/atm"
	"itv/internal/clock"
	"itv/internal/cmgr"
	"itv/internal/core"
	"itv/internal/names"
	"itv/internal/orb"
	"itv/internal/transport"
	"itv/internal/wire"
)

type fixture struct {
	t   *testing.T
	clk *clock.Fake
	nw  *transport.Network
	ns  *names.Replica
}

func newFixture(t *testing.T) *fixture {
	t.Helper()
	clk := clock.NewFake()
	nw := transport.NewNetwork()
	ns, err := names.NewReplica(nw.Host("192.168.0.1"), clk, names.Config{
		Peers: []string{"192.168.0.1:555"},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ns.Close)
	f := &fixture{t: t, clk: clk, nw: nw, ns: ns}
	f.waitFor("master", ns.IsMaster)
	return f
}

func (f *fixture) waitFor(what string, cond func() bool) {
	f.t.Helper()
	if !f.clk.Await(time.Second, 400, cond) {
		f.t.Fatalf("condition never held: %s", what)
	}
}

func (f *fixture) replica(host, scope string) *Service {
	f.t.Helper()
	ep, err := orb.NewEndpoint(f.nw.Host(host))
	if err != nil {
		f.t.Fatal(err)
	}
	f.t.Cleanup(ep.Close)
	s := New(core.NewSession(ep, f.ns.RootRef(), f.clk), scope, host)
	if err := s.Register(); err != nil {
		f.t.Fatal(err)
	}
	return s
}

func (f *fixture) stubOn(host string) Stub {
	f.t.Helper()
	ep, err := orb.NewEndpoint(f.nw.Host(host))
	if err != nil {
		f.t.Fatal(err)
	}
	f.t.Cleanup(ep.Close)
	return NewStub(core.NewSession(ep, f.ns.RootRef(), f.clk))
}

func TestOpenDataWithoutConnectionManager(t *testing.T) {
	// With no Connection Manager reachable, downloads proceed at the
	// nominal rate — availability over precision.
	f := newFixture(t)
	r := f.replica("192.168.0.1", "1")
	payload := bytes.Repeat([]byte{7}, 1024)
	r.Put("navigator", payload)

	stub := f.stubOn("10.1.0.5")
	data, rate, err := stub.OpenData("navigator")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, payload) {
		t.Fatal("payload mismatch")
	}
	if rate != DefaultDownloadRate {
		t.Fatalf("rate = %d, want nominal %d", rate, DefaultDownloadRate)
	}
	// §9.3: 2–4 MB at 1 MB/s takes 2–4 s; verify the arithmetic holds for
	// this payload too.
	if d := atm.TransferTime(int64(len(payload)), rate); d != time.Duration(1024*8)*time.Second/time.Duration(DefaultDownloadRate) {
		t.Fatalf("transfer time = %v", d)
	}
}

// TestOpenDataHoldsItsConnectionManagerReference: the first download for a
// neighborhood resolves its Connection Manager; later ones reuse the
// reference and send the name service nothing (§3.4.2).  When the Connection
// Manager goes away, the held reference must not turn availability-first
// into an error: the download proceeds at the nominal rate.
func TestOpenDataHoldsItsConnectionManagerReference(t *testing.T) {
	f := newFixture(t)
	fabric := atm.New()
	fabric.AddServer("192.168.0.1", 100*atm.Mbps)
	fabric.AddSettop("10.1.0.5")
	ep, err := orb.NewEndpoint(f.nw.Host("192.168.0.1"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ep.Close)
	cm := cmgr.New(core.NewSession(ep, f.ns.RootRef(), f.clk), fabric, "1")
	cm.Start()
	f.waitFor("cmgr primary", cm.IsPrimary)

	r := f.replica("192.168.0.1", "1")
	r.Put("navigator", bytes.Repeat([]byte{7}, 1024))
	stub := f.stubOn("10.1.0.5")
	download := func() int64 {
		t.Helper()
		_, rate, err := stub.OpenData("navigator")
		if err != nil {
			t.Fatal(err)
		}
		return rate
	}
	// The settop's downstream link (6 Mb/s) admits less than the 8 Mb/s
	// asked for: a rate that can only have come from the Connection Manager.
	if rate := download(); rate != atm.DefaultSettopDown {
		t.Fatalf("admitted rate = %d, want the settop link's %d", rate, atm.DefaultSettopDown)
	}
	// The Connection Manager's elector rides the clock ticks waitFor drove;
	// let its last self-check land before counting.
	f.clk.Settle()
	before := f.ns.Endpoint().Stats().Received
	for i := 0; i < 5; i++ {
		download()
	}
	if got := f.ns.Endpoint().Stats().Received - before; got != 0 {
		t.Fatalf("5 warm downloads sent the name service %d requests, want 0", got)
	}
	if fabric.Conns() != 0 {
		t.Fatal("download connection leaked")
	}

	cm.Close() // unbinds; the RDS still holds the reference
	if rate := download(); rate != DefaultDownloadRate {
		t.Fatalf("rate without a Connection Manager = %d, want nominal %d", rate, DefaultDownloadRate)
	}
}

func TestNeighborhoodRouting(t *testing.T) {
	f := newFixture(t)
	r1 := f.replica("192.168.0.1", "1")
	r2 := f.replica("192.168.0.2", "2")
	r1.Put("app", []byte("one"))
	r2.Put("app", []byte("two"))

	got, _, err := f.stubOn("10.1.0.9").OpenData("app")
	if err != nil || string(got) != "one" {
		t.Fatalf("nbhd 1 = %q, %v", got, err)
	}
	got, _, err = f.stubOn("10.2.0.9").OpenData("app")
	if err != nil || string(got) != "two" {
		t.Fatalf("nbhd 2 = %q, %v", got, err)
	}
}

func TestMissingItem(t *testing.T) {
	f := newFixture(t)
	f.replica("192.168.0.1", "1")
	_, _, err := f.stubOn("10.1.0.5").OpenData("ghost")
	if !orb.IsApp(err, orb.ExcNotFound) {
		t.Fatalf("err = %v", err)
	}
}

func TestItems(t *testing.T) {
	f := newFixture(t)
	r := f.replica("192.168.0.1", "1")
	r.Put("a", []byte("1"))
	r.Put("b", []byte("2"))
	if n := len(r.Items()); n != 2 {
		t.Fatalf("items = %d", n)
	}
}

func TestReplicaReplacementAfterRestart(t *testing.T) {
	// §9.5's workflow for the RDS: a replaced replica re-registers and the
	// settop's rebinding stub recovers.
	f := newFixture(t)
	r1 := f.replica("192.168.0.1", "1")
	r1.Put("app", []byte("v1"))
	stub := f.stubOn("10.1.0.5")
	if _, _, err := stub.OpenData("app"); err != nil {
		t.Fatal(err)
	}
	r1.sess.Ep.Close() // crash

	r2 := f.replica("192.168.0.1", "1") // restarted instance, fresh refs
	r2.Put("app", []byte("v2"))
	got, _, err := stub.OpenData("app")
	if err != nil || string(got) != "v2" {
		t.Fatalf("post-restart = %q, %v", got, err)
	}
}

// TestOversizeItemIsRefusedByName: an item too large for one frame fails
// its own download with ExcTooLarge — not the connection, and not with a
// Dead error that would send the rebinding stub re-resolving and retrying
// against the same blob.
func TestOversizeItemIsRefusedByName(t *testing.T) {
	f := newFixture(t)
	r := f.replica("192.168.0.1", "1")
	r.Put("huge", make([]byte, wire.MaxFrameSize+1))
	r.Put("app", []byte("fits"))

	stub := f.stubOn("10.1.0.5")
	if _, _, err := stub.OpenData("app"); err != nil {
		t.Fatal(err)
	}
	rebindCtr := stub.Svc.Session().Ep.Metrics().Counter("core_rebinds")
	rebinds := rebindCtr.Value()
	data, _, err := stub.OpenData("huge")
	if !orb.IsApp(err, orb.ExcTooLarge) || orb.Dead(err) || data != nil {
		t.Fatalf("oversize download = %d bytes, %v; want nil, %s", len(data), err, orb.ExcTooLarge)
	}
	if got, _, err := stub.OpenData("app"); err != nil || string(got) != "fits" {
		t.Fatalf("download after the refusal = %q, %v", got, err)
	}
	if n := rebindCtr.Value(); n != rebinds {
		t.Fatalf("rebinds %d -> %d: the refusal was treated as a dead reference", rebinds, n)
	}
}

// TestPutReplacesBlobUnderDownloads: Put replaces a blob while downloads of
// it are in flight.  Downloads send the stored slice itself, so this holds
// only because Put swaps the map entry and nobody writes into a stored
// slice: every download must be exactly the old or the new content.  Run
// with -race it also checks the lent segment is only ever read.
func TestPutReplacesBlobUnderDownloads(t *testing.T) {
	f := newFixture(t)
	r := f.replica("192.168.0.1", "1")
	rng := rand.New(rand.NewSource(16))
	versions := make([][]byte, 2)
	sums := make(map[uint32]bool)
	for i := range versions {
		versions[i] = make([]byte, 1<<20+i) // different lengths too
		rng.Read(versions[i])
		sums[crc32.ChecksumIEEE(versions[i])] = true
	}
	r.Put("app", versions[0])

	const downloaders, rounds = 4, 12
	stop := make(chan struct{})
	var putter sync.WaitGroup
	putter.Add(1)
	go func() {
		defer putter.Done()
		for i := 1; ; i++ {
			select {
			case <-stop:
				return
			default:
				r.Put("app", versions[i&1])
			}
		}
	}()
	var wg sync.WaitGroup
	for g := 0; g < downloaders; g++ {
		stub := f.stubOn(fmt.Sprintf("10.1.0.%d", 10+g))
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf []byte
			for i := 0; i < rounds; i++ {
				data, _, err := stub.OpenDataInto("app", buf)
				if err != nil {
					t.Errorf("download: %v", err)
					return
				}
				if !sums[crc32.ChecksumIEEE(data)] {
					t.Errorf("download of %d bytes matches neither version", len(data))
					return
				}
				buf = data
			}
		}()
	}
	wg.Wait()
	close(stop)
	putter.Wait()
}

// TestOpenDataIntoAllocatesOneCopy is the bulk path's allocation pin, the
// companion of the 3/4/0 allocs/op pins on the small-message path: a warm
// 3 MiB download into an adequate buffer is read off the connection into
// that buffer and allocates nothing of size — under 64 KiB a call, where
// the read loop's frame buffer cost 3 MiB and the copying path 9.
func TestOpenDataIntoAllocatesOneCopy(t *testing.T) {
	f := newFixture(t)
	r := f.replica("192.168.0.1", "1")
	payload := make([]byte, 3<<20)
	rand.New(rand.NewSource(3)).Read(payload)
	r.Put("app", payload)
	stub := f.stubOn("10.1.0.5")

	buf, _, err := stub.OpenDataInto("app", nil) // warm: resolve, dial, size the buffer
	if err != nil {
		t.Fatal(err)
	}
	const calls = 8
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < calls; i++ {
		data, _, err := stub.OpenDataInto("app", buf)
		if err != nil {
			t.Fatal(err)
		}
		if &data[0] != &buf[0] {
			t.Fatal("an adequate buffer was not reused")
		}
	}
	runtime.ReadMemStats(&after)
	if !bytes.Equal(buf, payload) {
		t.Fatal("payload mismatch")
	}
	perCall := (after.TotalAlloc - before.TotalAlloc) / calls
	if limit := uint64(64 << 10); perCall >= limit {
		t.Fatalf("allocated %d KiB per 3 MiB download, want under %d KiB", perCall>>10, limit>>10)
	}
}
