package orb

import (
	"bytes"
	"context"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"itv/internal/obs"
	"itv/internal/oref"
	"itv/internal/transport"
	"itv/internal/wire"
)

// napSkel serves one deliberately slow method, so the attribution tests
// have a handler whose service time dominates its queue and flush time.
type napSkel struct{ nap time.Duration }

func (s *napSkel) TypeID() string { return "test.Slow" }

func (s *napSkel) Dispatch(c *ServerCall) error {
	switch c.Method() {
	case "nap":
		time.Sleep(s.nap)
		return nil
	case "echo":
		c.Results().PutString(c.Args().String())
		return nil
	default:
		return ErrNoSuchMethod
	}
}

// runSeq numbers the host names perRun hands out.
var runSeq atomic.Uint32

// perRun returns host under a name no earlier test run in this process has
// used.  The obs registries, recorders and slow ledgers are process-lifetime
// and keyed by host, so under -count=N a fixed name hands run N the
// counters, events and EWMA thresholds runs 1..N-1 left behind.
func perRun(host string) string {
	return fmt.Sprintf("%s-run%d", host, runSeq.Add(1))
}

// newAttribPair builds a client/server pair on a private subnet, under
// per-run host names, so the per-host ledgers, recorders and registries
// start cold for each test and each -count repetition of it.
func newAttribPair(t *testing.T, serverHost, clientHost string) (*Endpoint, *Endpoint, oref.Ref) {
	nw := transport.NewNetwork()
	server, client, ref, closeAll := pairOn([2]transport.Transport{nw.Host(perRun(serverHost)), nw.Host(perRun(clientHost))},
		&napSkel{nap: 2 * time.Millisecond})
	t.Cleanup(closeAll)
	return server, client, ref
}

// sampledCtx returns a context carrying a fresh sampled span.
func sampledCtx() (context.Context, uint64) {
	sp := obs.Span{TraceID: obs.NewSpanID(), SpanID: obs.NewSpanID(), Sampled: true}
	return obs.ContextWithSpan(context.Background(), sp), sp.TraceID
}

func TestServerDecompositionObserved(t *testing.T) {
	server, client, ref := newAttribPair(t, "192.168.7.1", "10.7.0.5")
	for i := 0; i < 3; i++ {
		var out string
		if err := client.Invoke(ref, "echo",
			func(e *wire.Encoder) { e.PutString("x") },
			func(d *wire.Decoder) error { out = d.String(); return nil }); err != nil || out != "x" {
			t.Fatalf("echo: %q %v", out, err)
		}
	}
	// Attribution happens on the flusher after the response hits the wire,
	// so the client can observe its reply a beat before the histograms do.
	reg := server.Metrics()
	deadline := time.Now().Add(2 * time.Second)
	for {
		q := reg.Histogram(obs.L("orb_queue_wait", "method", "echo")).Count()
		s := reg.Histogram(obs.L("orb_service_time", "method", "echo")).Count()
		f := reg.Histogram(obs.L("orb_flush_wait", "method", "echo")).Count()
		if q == 3 && s == 3 && f == 3 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("decomposition counts q=%d s=%d f=%d, want 3/3/3", q, s, f)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestSampledCallLeavesExemplars(t *testing.T) {
	server, client, ref := newAttribPair(t, "192.168.7.2", "10.7.0.6")
	ctx, trace := sampledCtx()
	if err := client.InvokeCtx(ctx, ref, "nap", nil, nil); err != nil {
		t.Fatal(err)
	}

	// Client side: the per-method latency histogram carries the trace.
	lat := client.Metrics().Histogram(obs.L("orb_call_latency", "method", "test.Slow.nap"))
	var found bool
	for _, ex := range lat.Exemplars() {
		if ex != nil && ex.Trace == trace {
			found = true
		}
	}
	if !found {
		t.Fatal("client latency histogram has no exemplar for the sampled call")
	}

	// Server side: the service-time histogram gets one too, carrying the
	// full decomposition (flusher-side, so poll).
	st := server.Metrics().Histogram(obs.L("orb_service_time", "method", "nap"))
	deadline := time.Now().Add(2 * time.Second)
	for {
		var sx *obs.Exemplar
		for _, ex := range st.Exemplars() {
			if ex != nil && ex.Trace == trace {
				sx = ex
			}
		}
		if sx != nil {
			if sx.Service < time.Millisecond {
				t.Fatalf("service share = %s, want >= the 2ms nap's bulk", sx.Service)
			}
			if sx.Service <= sx.Queue || sx.Service <= sx.Flush {
				t.Fatalf("service %s should dominate queue %s and flush %s", sx.Service, sx.Queue, sx.Flush)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("server service-time histogram never got the exemplar")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestSlowRPC(t *testing.T) {
	server, client, ref := newAttribPair(t, "192.168.7.3", "10.7.0.7")
	ctx, trace := sampledCtx()
	if err := client.InvokeCtx(ctx, ref, "nap", nil, nil); err != nil {
		t.Fatal(err)
	}

	// The 2ms nap against a cold estimate crosses the 250µs floor and must
	// land in the ledger (flusher-side, so poll).
	deadline := time.Now().Add(2 * time.Second)
	var got obs.SlowCall
	for {
		rep, err := client.SlowOf(server.Addr())
		if err != nil {
			t.Fatal(err)
		}
		var found bool
		for _, c := range rep.Calls {
			if c.Method == "nap" && c.Trace == trace {
				got, found = c, true
			}
		}
		if found {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("nap never ledgered; ledger: %+v", rep.Calls)
		}
		time.Sleep(time.Millisecond)
	}
	if got.Node != server.Host() {
		t.Errorf("node = %q", got.Node)
	}
	if got.Service <= got.Queue || got.Service <= got.Flush {
		t.Errorf("blame should fall on service: q=%s s=%s f=%s", got.Queue, got.Service, got.Flush)
	}
	if got.Total < 2*time.Millisecond {
		t.Errorf("total = %s, want >= 2ms", got.Total)
	}
	if got.Threshold < DefaultSlowFloorForTest() {
		t.Errorf("threshold = %s below floor", got.Threshold)
	}

	// Local short-circuit path returns the same ledger.
	rep, err := server.SlowOf(server.Addr())
	if err != nil {
		t.Fatal(err)
	}
	var found bool
	for _, c := range rep.Calls {
		if c.Trace == trace {
			found = true
		}
	}
	if !found {
		t.Error("local _slow short-circuit missing the ledgered call")
	}
}

// DefaultSlowFloorForTest re-exports the obs floor so the assertion reads
// at the call site.
func DefaultSlowFloorForTest() time.Duration { return 250 * time.Microsecond }

func TestEventsPaginationRPC(t *testing.T) {
	server, client, _ := newAttribPair(t, "192.168.7.4", "10.7.0.8")
	rec := server.Recorder()
	base := time.Unix(100, 0)
	var seqs []uint64
	for i := 1; i <= 5; i++ {
		rec.Record(base.Add(time.Duration(i)*time.Second), 0, "page_rpc_event", fmt.Sprintf("%d", i))
	}
	all, err := client.EventsOf(server.Addr())
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range all {
		if e.Name == "page_rpc_event" {
			seqs = append(seqs, e.Seq)
		}
	}
	if len(seqs) != 5 {
		t.Fatalf("found %d page_rpc_events, want 5", len(seqs))
	}

	page, err := client.EventsPageOf(server.Addr(), seqs[1], 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(page) != 2 || page[0].Seq != seqs[1]+1 {
		t.Fatalf("page after %d = %d events starting at %d, want 2 starting at %d",
			seqs[1], len(page), page[0].Seq, seqs[1]+1)
	}

	// Local short-circuit honors the same cursor form.
	page, err = server.EventsPageOf(server.Addr(), seqs[4], 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range page {
		if e.Name == "page_rpc_event" {
			t.Fatalf("event %d returned past the cursor %d", e.Seq, seqs[4])
		}
	}
}

func TestProfileRPC(t *testing.T) {
	server, client, _ := newAttribPair(t, "192.168.7.5", "10.7.0.9")

	// A goroutine profile needs no collection window and must come back as
	// pprof's gzipped protobuf.
	data, err := client.ProfileOf(server.Addr(), "goroutine", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) < 2 || data[0] != 0x1f || data[1] != 0x8b {
		t.Fatalf("profile is not gzipped pprof output (%d bytes, magic %x)", len(data), data[:2])
	}

	// Heap works through the local short-circuit too.
	data, err = server.ProfileOf(server.Addr(), "heap", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) < 2 || data[0] != 0x1f {
		t.Fatalf("local heap profile bad (%d bytes)", len(data))
	}

	if _, err := client.ProfileOf(server.Addr(), "bogus", 0, 0); !IsApp(err, ExcBadArgs) {
		t.Fatalf("bogus kind = %v, want %s", err, ExcBadArgs)
	}

	// The collection event and counter fire on the serving node.
	if got := server.Metrics().Counter(obs.L("profile_collects", "kind", "goroutine")).Value(); got < 1 {
		t.Errorf("profile_collects{kind=goroutine} = %d", got)
	}
	var recorded bool
	for _, e := range server.Recorder().Events() {
		if e.Name == "profile_collected" {
			recorded = true
		}
	}
	if !recorded {
		t.Error("no profile_collected event on the serving node")
	}
}

func TestProfileChunking(t *testing.T) {
	server, _, _ := newAttribPair(t, "192.168.7.6", "10.7.0.10")

	// Stuff a buffered profile bigger than one chunk and page it out the
	// way ProfileOf would.
	big := bytes.Repeat([]byte{0xab}, profileChunk+profileChunk/2)
	server.profMu.Lock()
	server.profBuf = big
	server.profMu.Unlock()

	page := func(offset uint64) (uint64, []byte) {
		enc := new(wire.Encoder)
		enc.PutString("cpu")
		enc.PutUint(0)
		enc.PutUint(0)
		enc.PutUint(offset)
		d := new(wire.Decoder)
		d.Reset(enc.Bytes())
		total, chunk, err := server.serveProfile(d)
		if err != nil {
			t.Fatalf("offset %d: %v", offset, err)
		}
		return total, chunk
	}

	// offset must be nonzero to page (offset 0 would collect afresh); the
	// first chunk boundary is exercised by starting one byte in.
	total, first := page(1)
	if total != uint64(len(big)) {
		t.Fatalf("total = %d, want %d", total, len(big))
	}
	if len(first) != profileChunk {
		t.Fatalf("first chunk = %d bytes, want %d", len(first), profileChunk)
	}
	_, rest := page(1 + uint64(len(first)))
	if got := 1 + len(first) + len(rest); got != len(big) {
		t.Fatalf("paged %d bytes, want %d", got, len(big))
	}
	// Fully paged: the buffer is released.
	server.profMu.Lock()
	released := server.profBuf == nil
	server.profMu.Unlock()
	if !released {
		t.Error("profile buffer still pinned after full page-out")
	}
}

func TestDiagGuardBusy(t *testing.T) {
	server, client, ref := newAttribPair(t, "192.168.7.7", "10.7.0.11")

	// Saturate the guard: every guarded node operation refuses cleanly.
	server.diag.inflight.Add(maxDiagInflight)
	defer server.diag.inflight.Add(-maxDiagInflight)

	if _, err := client.EventsOf(server.Addr()); !IsApp(err, ExcBusy) {
		t.Errorf("_events under saturation = %v, want %s", err, ExcBusy)
	}
	if _, err := client.HealthOf(server.Addr(), 0); !IsApp(err, ExcBusy) {
		t.Errorf("_health under saturation = %v, want %s", err, ExcBusy)
	}
	if _, err := client.SlowOf(server.Addr()); !IsApp(err, ExcBusy) {
		t.Errorf("_slow under saturation = %v, want %s", err, ExcBusy)
	}
	if _, err := client.ProfileOf(server.Addr(), "goroutine", 0, 0); !IsApp(err, ExcBusy) {
		t.Errorf("_profile under saturation = %v, want %s", err, ExcBusy)
	}
	// The local short-circuits respect the same guard.
	if _, err := server.SlowOf(server.Addr()); !IsApp(err, ExcBusy) {
		t.Errorf("local _slow under saturation = %v, want %s", err, ExcBusy)
	}
	if _, err := server.EventsOf(server.Addr()); !IsApp(err, ExcBusy) {
		t.Errorf("local _events under saturation = %v, want %s", err, ExcBusy)
	}
	// The unguarded rows still answer: the scrape that shows why, and the
	// liveness probe.
	if _, err := client.MetricsOf(server.Addr()); err != nil {
		t.Errorf("_metrics under saturation = %v", err)
	}
	if err := client.Ping(ref); err != nil {
		t.Errorf("_ping under saturation = %v", err)
	}
}

func TestCPUProfileSingleFlight(t *testing.T) {
	server, client, _ := newAttribPair(t, "192.168.7.8", "10.7.0.12")

	// Hold the process-wide CPU slot: a cpu request must refuse busy rather
	// than error out of pprof's internals.
	if !cpuProfileBusy.CompareAndSwap(false, true) {
		t.Fatal("cpu slot already held")
	}
	defer cpuProfileBusy.Store(false)
	if _, err := client.ProfileOf(server.Addr(), "cpu", 1, 0); !IsApp(err, ExcBusy) {
		t.Fatalf("cpu profile with slot held = %v, want %s", err, ExcBusy)
	}
}

func TestConnClass(t *testing.T) {
	cases := []struct {
		err  error
		want string
	}{
		{nil, "ok"},
		{&ConnError{Op: "dial", Err: fmt.Errorf("refused")}, "dial"},
		{&ConnError{Op: "timeout", Err: errCallTimeout}, "timeout"},
		{ErrShutdown, "shutdown"},
		{ErrInvalidReference, "invalid_ref"},
		{ErrUnreachable, "unreachable"},
		{fmt.Errorf("surprise"), "error"},
	}
	for _, c := range cases {
		if got := ConnClass(c.err); got != c.want {
			t.Errorf("ConnClass(%v) = %q, want %q", c.err, got, c.want)
		}
	}
}
