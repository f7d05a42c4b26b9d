package settop

import (
	"hash/crc32"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"itv/internal/bootsvc"
	"itv/internal/clock"
	"itv/internal/core"
	"itv/internal/names"
	"itv/internal/orb"
	"itv/internal/rds"
	"itv/internal/transport"
)

// The settop's full behaviour — boot, downloads, playback, crash recovery —
// is exercised end-to-end by the cluster integration suite
// (internal/cluster); these tests cover the standalone state machine.

func newSettop(t *testing.T) *Settop {
	t.Helper()
	nw := transport.NewNetwork()
	return New(nw.Host("10.3.0.17"), clock.NewFake(), "192.168.0.1:554")
}

func TestNeighborhoodDerivation(t *testing.T) {
	st := newSettop(t)
	if st.Neighborhood() != "3" {
		t.Fatalf("neighborhood = %q", st.Neighborhood())
	}
	if st.Host() != "10.3.0.17" {
		t.Fatalf("host = %q", st.Host())
	}
}

func TestOperationsRequireBoot(t *testing.T) {
	st := newSettop(t)
	if st.Up() {
		t.Fatal("powered-off settop reports up")
	}
	if _, err := st.DownloadApp("navigator"); err == nil {
		t.Fatal("download without boot succeeded")
	}
	if err := st.OpenMovie("T2"); err == nil {
		t.Fatal("open without boot succeeded")
	}
	if _, _, err := st.PollPlayback(); err == nil {
		t.Fatal("poll without playback succeeded")
	}
	if err := st.RecoverPlayback(); err == nil {
		t.Fatal("recover without playback succeeded")
	}
	// Closing with nothing playing is a no-op.
	if err := st.CloseMovie(); err != nil {
		t.Fatalf("idle close: %v", err)
	}
	// Crashing a powered-off settop is a no-op.
	st.Crash()
}

func TestBootFailsWithoutHeadEnd(t *testing.T) {
	st := newSettop(t)
	if _, err := st.Boot(); err == nil {
		t.Fatal("boot succeeded with no boot service")
	}
	if st.Up() {
		t.Fatal("failed boot left settop up")
	}
}

func TestPlaybackStateAccessors(t *testing.T) {
	st := newSettop(t)
	if _, ok := st.Playback(); ok {
		t.Fatal("phantom playback")
	}
	if st.CurrentApp() != "" {
		t.Fatal("phantom app")
	}
	if st.Session() != nil {
		t.Fatal("session before boot")
	}
}

// TestBootKeepsTheKernelItFetched: boot against a head end whose kernel
// image is large enough to travel as a lent segment.  The settop ends up
// holding the whole image, intact, in a slice of exactly its size that is
// the settop's own — the ORB read it there, nothing was cut out of a frame.
func TestBootKeepsTheKernelItFetched(t *testing.T) {
	clk := clock.NewFake()
	nw := transport.NewNetwork()
	ns, err := names.NewReplica(nw.Host("192.168.0.1"), clk, names.Config{
		Peers: []string{"192.168.0.1:555"},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ns.Close()
	if !clk.Await(time.Second, 400, ns.IsMaster) {
		t.Fatal("no name-service master")
	}
	headEnd, err := orb.NewEndpointOn(nw.Host("192.168.0.1"), bootsvc.WellKnownPort)
	if err != nil {
		t.Fatal(err)
	}
	defer headEnd.Close()
	sess := core.NewSession(headEnd, ns.RootRef(), clk)
	bootsvc.NewBoot(sess).SetFallback(bootsvc.Params{NameService: "192.168.0.1:555"})
	image := make([]byte, 1<<20+17)
	rand.New(rand.NewSource(5)).Read(image)
	if _, err := sess.Root.BindNewContext("svc"); err != nil {
		t.Fatal(err)
	}
	if err := sess.Root.Bind(bootsvc.KernelName, bootsvc.NewKernel(sess, image).Ref()); err != nil {
		t.Fatal(err)
	}

	st := New(nw.Host("10.3.0.17"), clk, "192.168.0.1:554")
	if _, err := st.Boot(); err != nil {
		t.Fatal(err)
	}
	kernel := st.kernel
	st.Crash()
	if len(kernel) != len(image) || cap(kernel) != len(image) {
		t.Fatalf("kernel in memory = %d bytes (capacity %d), want exactly the image's %d", len(kernel), cap(kernel), len(image))
	}
	if got, want := crc32.ChecksumIEEE(kernel), crc32.ChecksumIEEE(image); got != want {
		t.Fatalf("kernel crc %08x, image crc %08x", got, want)
	}
	if &kernel[0] == &image[0] {
		t.Fatal("the settop holds the service's own slice")
	}
}

// TestDownloadAppReusesApplicationMemory: the settop loads each application
// over the last one.  Cycling the §9.3 sizes (2/3/4/3 MiB), the first
// cycle grows the application memory — exactly, never by append-style
// overshoot — to the largest application; after that no download
// allocates an application buffer, and the ORB reads each one straight
// into it.
func TestDownloadAppReusesApplicationMemory(t *testing.T) {
	clk := clock.NewFake()
	nw := transport.NewNetwork()
	ns, err := names.NewReplica(nw.Host("192.168.0.1"), clk, names.Config{
		Peers: []string{"192.168.0.1:555"},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ns.Close()
	if !clk.Await(time.Second, 400, ns.IsMaster) {
		t.Fatal("no name-service master")
	}
	srvEp, err := orb.NewEndpoint(nw.Host("192.168.0.1"))
	if err != nil {
		t.Fatal(err)
	}
	defer srvEp.Close()
	svc := rds.New(core.NewSession(srvEp, ns.RootRef(), clk), "3", "192.168.0.1")
	if err := svc.Register(); err != nil {
		t.Fatal(err)
	}
	apps := []string{"navigator", "vod", "shopping", "games"}
	sizes := []int{2 << 20, 3 << 20, 4 << 20, 3 << 20}
	rng := rand.New(rand.NewSource(9))
	sums := make([]uint32, len(apps))
	for i, name := range apps {
		data := make([]byte, sizes[i])
		rng.Read(data)
		sums[i] = crc32.ChecksumIEEE(data)
		svc.Put(name, data)
	}

	// A settop past its boot sequence, as far as DownloadApp can tell.
	st := New(nw.Host("10.3.0.17"), clk, "192.168.0.1:554")
	ep, err := orb.NewEndpoint(st.tr)
	if err != nil {
		t.Fatal(err)
	}
	defer ep.Close()
	st.rdsStub = rds.NewStub(core.NewSession(ep, ns.RootRef(), clk))
	st.booted = true

	cycle := func() {
		t.Helper()
		for i, name := range apps {
			if _, err := st.DownloadApp(name); err != nil {
				t.Fatal(err)
			}
			if st.CurrentApp() != name || len(st.appBuf) != sizes[i] || crc32.ChecksumIEEE(st.appBuf) != sums[i] {
				t.Fatalf("after downloading %s: app %q, %d bytes in memory", name, st.CurrentApp(), len(st.appBuf))
			}
		}
	}
	cycle()
	if cap(st.appBuf) != 4<<20 {
		t.Fatalf("application memory = %d bytes after the first cycle, want exactly the largest application (%d)",
			cap(st.appBuf), 4<<20)
	}
	mem := &st.appBuf[0]

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	cycle()
	cycle()
	runtime.ReadMemStats(&after)
	if &st.appBuf[0] != mem || cap(st.appBuf) != 4<<20 {
		t.Fatal("application memory was replaced after the first cycle")
	}
	// Two cycles deliver 24 MiB; a frame buffer per download would be
	// those 24 MiB, an application buffer per download 24 more.
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Fatalf("two warm cycles allocated %d KiB, want under %d", got>>10, 1<<10)
	}
}
