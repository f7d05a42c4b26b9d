package media

import (
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"

	"itv/internal/atm"
	"itv/internal/clock"
	"itv/internal/core"
	"itv/internal/names"
	"itv/internal/orb"
	"itv/internal/transport"
	"itv/internal/wire"
)

func testCatalog() []MovieInfo {
	return []MovieInfo{
		{Title: "T2", Size: 4_000_000_000, Bitrate: 4 * atm.Mbps},
		{Title: "Casablanca", Size: 2_000_000_000, Bitrate: 3 * atm.Mbps},
	}
}

type fixture struct {
	t      *testing.T
	clk    *clock.Fake
	nw     *transport.Network
	ns     *names.Replica
	mds    *Service
	client *core.Session
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
	f.waitFor("ns master", ns.IsMaster)

	mdsEp, err := orb.NewEndpoint(nw.Host("192.168.0.1"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(mdsEp.Close)
	f.mds = New(core.NewSession(mdsEp, ns.RootRef(), clk), "forge", testCatalog())

	clientEp, err := orb.NewEndpoint(nw.Host("10.1.0.5"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(clientEp.Close)
	f.client = core.NewSession(clientEp, ns.RootRef(), clk)
	return f
}

func (f *fixture) waitFor(what string, cond func() bool) {
	f.t.Helper()
	if !f.clk.Await(time.Second, 600, cond) {
		f.t.Fatalf("condition never held: %s", what)
	}
}

func TestOpenPlayPositionClose(t *testing.T) {
	f := newFixture(t)
	stub := Stub{Ep: f.client.Ep, Ref: f.mds.Ref()}

	ref, id, err := stub.Open("T2", "10.1.0.5", "conn-1")
	if err != nil {
		t.Fatal(err)
	}
	if ref.TypeID != TypeMovie {
		t.Fatalf("movie type = %q", ref.TypeID)
	}
	movie := Movie{Ep: f.client.Ep, Ref: ref}

	if err := movie.Play(0); err != nil {
		t.Fatal(err)
	}
	// 10 simulated seconds at 4 Mb/s = 5,000,000 bytes.
	f.clk.Advance(10 * time.Second)
	pos, playing, err := movie.Position()
	if err != nil {
		t.Fatal(err)
	}
	if !playing || pos != 5_000_000 {
		t.Fatalf("pos = %d playing = %v, want 5000000 true", pos, playing)
	}

	if err := movie.Pause(); err != nil {
		t.Fatal(err)
	}
	f.clk.Advance(time.Minute)
	pos2, playing, _ := movie.Position()
	if playing || pos2 != pos {
		t.Fatalf("paused pos = %d playing = %v", pos2, playing)
	}

	// Resume in place.
	if err := movie.Play(-1); err != nil {
		t.Fatal(err)
	}
	f.clk.Advance(10 * time.Second)
	pos3, _, _ := movie.Position()
	if pos3 != 10_000_000 {
		t.Fatalf("resumed pos = %d, want 10000000", pos3)
	}

	// Close withdraws the object: the reference goes invalid (§9.2).
	if err := stub.CloseMovie(id); err != nil {
		t.Fatal(err)
	}
	if _, _, err := movie.Position(); !errors.Is(err, orb.ErrInvalidReference) {
		t.Fatalf("closed movie position err = %v", err)
	}
}

func TestSeekAndEndOfMovie(t *testing.T) {
	f := newFixture(t)
	ref, _, err := f.mds.Open("Casablanca", "10.1.0.5", "c")
	if err != nil {
		t.Fatal(err)
	}
	movie := Movie{Ep: f.client.Ep, Ref: ref}
	// Seek near the end: 2 GB movie, start 1 s of playback before the end.
	info, err := movie.Info()
	if err != nil {
		t.Fatal(err)
	}
	bytesPerSec := info.Bitrate / 8
	if err := movie.Play(info.Size - bytesPerSec); err != nil {
		t.Fatal(err)
	}
	f.clk.Advance(5 * time.Second)
	pos, playing, _ := movie.Position()
	if pos != info.Size {
		t.Fatalf("pos = %d, want clamped to size %d", pos, info.Size)
	}
	if playing {
		t.Fatal("finished movie still playing")
	}
	// Seeking past the end clamps.
	if err := movie.Play(info.Size + 999); err != nil {
		t.Fatal(err)
	}
	pos, _, _ = movie.Position()
	if pos != info.Size {
		t.Fatalf("overseek pos = %d", pos)
	}
}

func TestOpenUnknownTitle(t *testing.T) {
	f := newFixture(t)
	_, _, err := f.mds.Open("Nonexistent", "10.1.0.5", "c")
	if !orb.IsApp(err, orb.ExcNotFound) {
		t.Fatalf("err = %v", err)
	}
}

// TestProbeAndOpenMovies: one probe answers what "has" and "load" used to
// answer in two calls — the catalog record when the title is present,
// absence when it is not (and presence again once the title is added:
// nothing caches a "no"), and the open-movie count either way.
func TestProbeAndOpenMovies(t *testing.T) {
	f := newFixture(t)
	stub := Stub{Ep: f.client.Ep, Ref: f.mds.Ref()}
	info, ok, load, err := stub.Probe("T2")
	if err != nil || !ok || load != 0 || info.Bitrate != 4*atm.Mbps || info.Title != "T2" {
		t.Fatalf("Probe(T2) = %+v %v load %d, %v", info, ok, load, err)
	}
	if info, ok, load, err := stub.Probe("Nope"); err != nil || ok || load != 0 || info != (MovieInfo{}) {
		t.Fatalf("Probe(Nope) = %+v %v load %d, %v", info, ok, load, err)
	}
	f.mds.AddTitle(MovieInfo{Title: "Nope", Size: 1000, Bitrate: atm.Mbps})
	if info, ok, _, err := stub.Probe("Nope"); err != nil || !ok || info.Size != 1000 {
		t.Fatalf("Probe(Nope) after AddTitle = %+v %v, %v", info, ok, err)
	}
	_, id, err := stub.Open("T2", "10.1.0.5", "conn-9")
	if err != nil {
		t.Fatal(err)
	}
	// The load is reported whether or not the title is stored.
	for _, title := range []string{"T2", "Absent"} {
		if _, _, load, err := stub.Probe(title); err != nil || load != 1 {
			t.Fatalf("Probe(%s) load = %d, %v; want 1", title, load, err)
		}
	}
	movies, err := stub.OpenMovies()
	if err != nil || len(movies) != 1 {
		t.Fatalf("OpenMovies = %v, %v", movies, err)
	}
	om := movies[0]
	if om.MovieID != id || om.Title != "T2" || om.Settop != "10.1.0.5" || om.ConnID != "conn-9" {
		t.Fatalf("record = %+v", om)
	}
}

// TestJunkTitlesGrowNothing: probes and opens of titles no catalog
// carries, twice as many as the title table holds, leave the table where it
// was — a peer can name any title, so naming one admits nothing — and a
// title a catalog carries still decodes as the catalog's copy, allocating
// nothing.
func TestJunkTitlesGrowNothing(t *testing.T) {
	f := newFixture(t)
	stub := Stub{Ep: f.client.Ep, Ref: f.mds.Ref()}
	held := titles.Len()
	for i := 0; i < 2*wire.TableEntries; i++ {
		junk := fmt.Sprintf("junk-%d", i)
		if _, ok, _, err := stub.Probe(junk); err != nil || ok {
			t.Fatalf("Probe(%s) = %v, %v", junk, ok, err)
		}
		if _, _, err := stub.Open(junk, "10.1.0.5", "c"); !orb.IsApp(err, orb.ExcNotFound) {
			t.Fatalf("Open(%s): %v", junk, err)
		}
	}
	if got := titles.Len(); got != held {
		t.Fatalf("title table went from %d to %d entries on titles no catalog carries", held, got)
	}

	var e wire.Encoder
	e.PutString("T2")
	var d wire.Decoder
	allocs := testing.AllocsPerRun(100, func() {
		d.Reset(e.Bytes())
		if got := DecodeTitle(&d); got != "T2" {
			t.Fatalf("DecodeTitle = %q", got)
		}
	})
	if allocs != 0 {
		t.Fatalf("decoding a carried title allocates %.1f objects, want 0", allocs)
	}
}

func TestRegisterInNameSpace(t *testing.T) {
	f := newFixture(t)
	if err := f.mds.Register(); err != nil {
		t.Fatal(err)
	}
	ref, err := f.client.Root.Resolve("svc/mds/forge")
	if err != nil || ref != f.mds.Ref() {
		t.Fatalf("resolve = %v, %v", ref, err)
	}
	titles, err := (Stub{Ep: f.client.Ep, Ref: ref}).Titles()
	if err != nil || len(titles) != 2 {
		t.Fatalf("titles = %v, %v", titles, err)
	}
}

func TestMDSCrashInvalidatesMovies(t *testing.T) {
	f := newFixture(t)
	ref, _, err := f.mds.Open("T2", "10.1.0.5", "c")
	if err != nil {
		t.Fatal(err)
	}
	movie := Movie{Ep: f.client.Ep, Ref: ref}
	if err := movie.Play(0); err != nil {
		t.Fatal(err)
	}
	// The MDS process dies: the viewer's movie reference goes dead — the
	// "stops receiving data" signal of §3.5.2.
	f.mds.sess.Ep.Close()
	if _, _, err := movie.Position(); !orb.Dead(err) {
		t.Fatalf("post-crash position err = %v", err)
	}
}

func TestDurationHelper(t *testing.T) {
	m := MovieInfo{Title: "x", Size: 3_000_000, Bitrate: 8 * 1_000_000}
	if d := m.Duration(); d != 3*time.Second {
		t.Fatalf("Duration = %v", d)
	}
	if (MovieInfo{}).Duration() != 0 {
		t.Fatal("zero-bitrate duration")
	}
}

// TestHostileCountAllocatesNothing: open-movie records claimed 2^20 at a
// time, the wire's limit, in 1 MiB — one byte a record — are short of the
// four bytes a record takes at least, and fail before anything is sized by
// the claim (64 MiB of records).
func TestHostileCountAllocatesNothing(t *testing.T) {
	e := new(wire.Encoder)
	e.PutUint(1 << 20)
	e.PutRaw(make([]byte, 1<<20))
	var d wire.Decoder
	d.Reset(e.Bytes())
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	decodeOpenMovies(&d)
	runtime.ReadMemStats(&after)
	if n := after.TotalAlloc - before.TotalAlloc; !errors.Is(d.Err(), wire.ErrTruncated) || n > 64<<10 {
		t.Errorf("%v after %d bytes allocated; want wire.ErrTruncated after next to none", d.Err(), n)
	}
}
