package orb

import (
	"bytes"
	"context"
	"math/rand"
	"runtime"
	"runtime/debug"
	"sync"
	"testing"

	"itv/internal/oref"
	"itv/internal/transport"
	"itv/internal/wire"
)

// readsPair is a serving and a calling endpoint on transports whose read
// counters nobody else moves while the test runs: per-run memnet hosts, or
// the loopback node every transport.TCP() shares (tests in this package do
// not run in parallel).  On memnet the client's host counts on its own, in
// clientStats; on TCP the two ends share one count and clientStats is nil.
type readsPair struct {
	server, client *Endpoint
	srcs           []transport.StatsSource
	clientStats    transport.StatsSource
}

func newReadsPair(t *testing.T, network string) *readsPair {
	t.Helper()
	st, ct := transport.TCP(), transport.TCP()
	p := &readsPair{srcs: []transport.StatsSource{st.(transport.StatsSource)}}
	if network == "memnet" {
		nw := transport.NewNetwork()
		st, ct = nw.Host(perRun("192.168.21.1")), nw.Host(perRun("10.21.0.5"))
		p.clientStats = ct.(transport.StatsSource)
		p.srcs = []transport.StatsSource{st.(transport.StatsSource), p.clientStats}
	}
	var err error
	if p.server, err = NewEndpoint(st); err != nil {
		t.Fatal(err)
	}
	if p.client, err = NewEndpoint(ct); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.server.Close(); p.client.Close() })
	return p
}

// reads is the transport reads made so far, both ends summed.
func (p *readsPair) reads() (n int64) {
	for _, s := range p.srcs {
		n += s.Stats().Reads
	}
	return n
}

// TestSequentialCallCostsTwoReads is the count behind the read side's time
// claim (DESIGN.md §12): a call on an idle connection is two frames and two
// transport reads, one per frame — the server's of the request, the
// client's of the reply — where header-then-body took four.  A read is
// counted when it returns, so by the time a call has returned both of its
// reads are in the total and the two now blocked on the idle connection are
// not.
func TestSequentialCallCostsTwoReads(t *testing.T) {
	const calls = 300
	for _, network := range []string{"memnet", "tcp"} {
		p := newReadsPair(t, network)
		ref := p.server.Register("", &echoSkel{})
		if _, err := echo(t, p.client, ref, "warm: dial"); err != nil {
			t.Fatal(err)
		}
		before := p.reads()
		for i := 0; i < calls; i++ {
			if got, err := echo(t, p.client, ref, "thirty-two bytes of echo payload"); err != nil || len(got) != 32 {
				t.Fatalf("%s: call %d: %q, %v", network, i, got, err)
			}
		}
		got := p.reads() - before
		slack := int64(0)
		if network == "tcp" {
			slack = 8 // loopback may, in principle, hand a frame over in two pieces
		}
		if got < 2*calls || got > 2*calls+slack {
			t.Errorf("%s: %d sequential calls took %d transport reads, want %d", network, calls, got, 2*calls)
		}
	}
}

// TestSequentialCallClockReads is the count behind one clock reading per
// event (DESIGN.md §13): a warm sequential call reads the monotonic clock
// five times — the client at the call's start and end, the server at the
// request's arrival, the handler's end and the reply write's return.  The
// HLC stamps on both ends add none: NowAt and ObserveAt take these
// readings, and an HLC has no way to read Mono of its own.
func TestSequentialCallClockReads(t *testing.T) {
	const calls = 300
	p := newReadsPair(t, "memnet")
	ref := p.server.Register("", &echoSkel{})
	if _, err := echo(t, p.client, ref, "warm: dial"); err != nil {
		t.Fatal(err)
	}
	countMono.Store(true)
	before := monoReads.Load()
	for i := 0; i < calls; i++ {
		if _, err := echo(t, p.client, ref, "thirty-two bytes of echo payload"); err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
	}
	got := monoReads.Load() - before
	countMono.Store(false)
	if got != 5*calls {
		t.Errorf("%d sequential calls took %d clock readings, want %d (5 a call)", calls, got, 5*calls)
	}
}

// TestSequentialCallArmsNoTimer is the count behind one timer per
// connection (DESIGN.md §12): a call only registers its deadline, and the
// connection's timer, already pending for an earlier one, is not touched.
// A thousand warm sequential calls set it at most once.
func TestSequentialCallArmsNoTimer(t *testing.T) {
	const calls = 1000
	p := newReadsPair(t, "memnet")
	ref := p.server.Register("", &echoSkel{})
	if _, err := echo(t, p.client, ref, "warm: dial"); err != nil {
		t.Fatal(err)
	}
	p.client.mu.Lock()
	cc := p.client.conns[ref.Addr]
	p.client.mu.Unlock()
	arms := func() int {
		cc.tmu.Lock()
		defer cc.tmu.Unlock()
		return cc.arms
	}
	before := arms()
	for i := 0; i < calls; i++ {
		if _, err := echo(t, p.client, ref, "thirty-two bytes of echo payload"); err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
	}
	if n := arms() - before; n > 1 {
		t.Errorf("%d sequential calls set the deadline timer %d times, want at most once", calls, n)
	}
}

// TestPipelinedCallsShareReads: with 64 callers on one connection the
// writers coalesce frames into batches (DESIGN.md §12), and a batch that
// took one write to send takes one read to receive, so reads per frame fall
// below one.  On memnet, where a writer whose last bytes are still unread
// yields, so that requests queue behind it, and a reader woken on a busy
// link yields, so that it wakes to a batch, the client's writes stay under
// 0.9 per request; the loopback TCP node counts both ends' writes
// together, so there they are not checked.
func TestPipelinedCallsShareReads(t *testing.T) {
	const callers, each = 64, 100
	for _, network := range []string{"memnet", "tcp"} {
		p := newReadsPair(t, network)
		ref := p.server.Register("", &echoSkel{})
		if _, err := echo(t, p.client, ref, "warm: dial"); err != nil {
			t.Fatal(err)
		}
		before := p.reads()
		var wrote int64
		if p.clientStats != nil {
			wrote = p.clientStats.Stats().FramesSent
		}
		var wg sync.WaitGroup
		for c := 0; c < callers; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < each; i++ {
					var out string
					err := p.client.Invoke(ref, "echo",
						func(enc *wire.Encoder) { enc.PutString("thirty-two bytes of echo payload") },
						func(d *wire.Decoder) error { out = d.String(); return nil })
					if err != nil || len(out) != 32 {
						t.Errorf("%s: %q, %v", network, out, err)
						return
					}
				}
			}()
		}
		wg.Wait()
		reads, frames := p.reads()-before, int64(2*callers*each)
		if reads >= frames {
			t.Errorf("%s: %d frames under %d-way pipelining took %d reads, want fewer than one each", network, frames, callers, reads)
		}
		t.Logf("%s: %.2f reads per frame", network, float64(reads)/float64(frames))
		if p.clientStats != nil {
			writes, requests := p.clientStats.Stats().FramesSent-wrote, float64(callers*each)
			if float64(writes) >= 0.9*requests {
				t.Errorf("%s: %.0f requests under %d-way pipelining took %d client writes, want under 0.9 each", network, requests, callers, writes)
			}
			t.Logf("%s: %.2f client writes per request", network, float64(writes)/requests)
		}
	}
}

// mirror sends blob and takes the same bytes back into dst.
func mirror(e *Endpoint, ref oref.Ref, blob, dst []byte) ([]byte, error) {
	err := e.InvokeInto(context.Background(), ref, "mirror",
		func(enc *wire.Encoder) { enc.PutBytes(blob) }, dst,
		func(data []byte, _ *wire.Decoder) error { dst = data; return nil })
	return dst, err
}

// TestMidSizeFramesGrowTheBufferOnce: a request and a reply longer than the
// frame reader's read-ahead but under flushCopyLimit take the whole-frame
// path on both sides, in pooled buffers that grow to the frame once and
// come back from the pool at that size — not at the read-ahead's, regrown
// per call.
func TestMidSizeFramesGrowTheBufferOnce(t *testing.T) {
	blob := randBytes(rand.New(rand.NewSource(21)), 12<<10) // 12 KiB: between the two limits
	for _, network := range []string{"memnet", "tcp"} {
		p := newReadsPair(t, network)
		ref := p.server.Register("blob", &blobSkel{})
		dst, err := mirror(p.client, ref, blob, nil) // warm: dial, size every buffer
		if err != nil || !bytes.Equal(dst, blob) {
			t.Fatalf("%s: warm-up: %d bytes, %v", network, len(dst), err)
		}
		// No collection while counting: one would empty the pools and charge
		// this loop for refilling them.
		runtime.GC()
		gc := debug.SetGCPercent(-1)
		const calls = 64
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < calls; i++ {
			if dst, err = mirror(p.client, ref, blob, dst); err != nil || !bytes.Equal(dst, blob) {
				t.Fatalf("%s: call %d: %d bytes, %v", network, i, len(dst), err)
			}
		}
		runtime.ReadMemStats(&after)
		debug.SetGCPercent(gc)
		// Regrowing per call would cost a frame's worth on each side, 24 KiB.
		perCall := (after.TotalAlloc - before.TotalAlloc) / calls
		if limit := uint64(len(blob)); perCall >= limit && !raceEnabled {
			t.Errorf("%s: %d bytes allocated per %d KiB mirror call, want under %d", network, perCall, len(blob)>>10, limit)
		}
	}
}
