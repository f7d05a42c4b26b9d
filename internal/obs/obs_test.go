package obs

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestCounterGauge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("rpcs")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if r.Counter("rpcs") != c {
		t.Fatal("Counter not idempotent")
	}
	g := r.Gauge("inflight")
	g.Inc()
	g.Inc()
	g.Dec()
	if got := g.Value(); got != 1 {
		t.Fatalf("gauge = %d, want 1", got)
	}
	g.Set(42)
	if got := g.Value(); got != 42 {
		t.Fatalf("gauge = %d, want 42", got)
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.HistogramBuckets("lat", []time.Duration{time.Millisecond, 10 * time.Millisecond})
	h.Observe(500 * time.Microsecond) // bucket 0
	h.Observe(time.Millisecond)       // bucket 0 (le is inclusive)
	h.Observe(2 * time.Millisecond)   // bucket 1
	h.Observe(time.Second)            // +Inf
	if got := h.Count(); got != 4 {
		t.Fatalf("count = %d, want 4", got)
	}
	wantSum := 500*time.Microsecond + time.Millisecond + 2*time.Millisecond + time.Second
	if got := h.Sum(); got != wantSum {
		t.Fatalf("sum = %v, want %v", got, wantSum)
	}
	if got := h.Quantile(0.5); got != time.Millisecond {
		t.Fatalf("p50 = %v, want 1ms", got)
	}
	// p100 lands in +Inf, reported as the last bound.
	if got := h.Quantile(1.0); got != 10*time.Millisecond {
		t.Fatalf("p100 = %v, want 10ms", got)
	}

	snap := r.Snapshot()
	want := map[string]float64{
		"lat{le=1ms}":  2,
		"lat{le=10ms}": 3,
		"lat{le=+Inf}": 4,
		"lat_count":    4,
	}
	got := map[string]float64{}
	for _, s := range snap {
		got[s.Name] = s.Value
	}
	for name, v := range want {
		if got[name] != v {
			t.Errorf("%s = %v, want %v (snapshot %v)", name, got[name], v, snap)
		}
	}
}

func TestSnapshotSortedAndText(t *testing.T) {
	r := NewRegistry()
	r.Counter("zeta").Add(3)
	r.Counter("alpha").Inc()
	r.Gauge("mid").Set(7)
	snap := r.Snapshot()
	var names []string
	for _, s := range snap {
		names = append(names, s.Name)
	}
	for i := 1; i < len(names); i++ {
		if names[i-1] > names[i] {
			t.Fatalf("snapshot not sorted: %v", names)
		}
	}
	text := r.Text()
	for _, line := range []string{"alpha 1\n", "mid 7\n", "zeta 3\n"} {
		if !strings.Contains(text, line) {
			t.Errorf("text missing %q:\n%s", line, text)
		}
	}
}

func TestLabels(t *testing.T) {
	if got := L("x"); got != "x" {
		t.Fatalf("L(x) = %q", got)
	}
	if got := L("x", "k", "v"); got != "x{k=v}" {
		t.Fatalf("L = %q", got)
	}
	if got := L("x", "a", "1", "b", "2"); got != "x{a=1,b=2}" {
		t.Fatalf("L = %q", got)
	}
	if got := insertLabel("x{a=1}", "le", "5ms"); got != "x{a=1,le=5ms}" {
		t.Fatalf("insertLabel = %q", got)
	}
}

func TestNodeRegistries(t *testing.T) {
	a := Node("198.51.100.1")
	b := Node("198.51.100.2")
	if a == b {
		t.Fatal("distinct hosts share a registry")
	}
	if Node("198.51.100.1") != a {
		t.Fatal("Node not stable")
	}
	a.Counter("test_node_counter").Inc()
	found := false
	for _, h := range Hosts() {
		if h == "198.51.100.1" {
			found = true
		}
	}
	if !found {
		t.Fatalf("Hosts() missing registered host: %v", Hosts())
	}
}

// TestConcurrency hammers one registry from many goroutines; run under
// -race this is the honesty check for the atomic counters.
func TestConcurrency(t *testing.T) {
	r := NewRegistry()
	const workers = 8
	const iters = 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				r.Counter("calls").Inc()
				r.Gauge("inflight").Inc()
				r.Histogram("lat").Observe(time.Duration(i) * time.Microsecond)
				r.Gauge("inflight").Dec()
				if i%100 == 0 {
					_ = r.Snapshot()
				}
			}
		}(w)
	}
	wg.Wait()
	if got := r.Counter("calls").Value(); got != workers*iters {
		t.Fatalf("calls = %d, want %d", got, workers*iters)
	}
	if got := r.Gauge("inflight").Value(); got != 0 {
		t.Fatalf("inflight = %d, want 0", got)
	}
	if got := r.Histogram("lat").Count(); got != workers*iters {
		t.Fatalf("observations = %d, want %d", got, workers*iters)
	}
}

var skewRuns atomic.Int64

// TestDebugServer serves the debug surface twice over the same host records
// — for one named host (itv-server's form) and for every host
// (itv-cluster's) — and checks each page renders from them.
func TestDebugServer(t *testing.T) {
	at := time.Unix(5, 0)
	for _, h := range []string{"debug-a", "debug-b"} {
		Node(h).Gauge("debug_hits").Set(9) // a level: the records outlive a -count repetition
		NodeRecorder(h).Record(at, 0xabc, "test_event", "hello from "+h)
		hl := NodeHealth(h)
		hl.Sample(at)
		Node(h).Histogram(L("orb_call_latency", "method", "itv.Test."+h)).Observe(time.Millisecond)
		hl.Sample(at.Add(time.Second))
		NodeSlowLedger(h).Record(SlowCall{Method: "slow_" + h, Total: time.Second})
	}
	get := func(addr, path string) (string, string) {
		resp, err := http.Get("http://" + addr + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		var b strings.Builder
		if _, err := io.Copy(&b, resp.Body); err != nil {
			t.Fatalf("read %s: %v", path, err)
		}
		if resp.StatusCode != 200 {
			t.Fatalf("GET %s = %d", path, resp.StatusCode)
		}
		return b.String(), resp.Header.Get("Content-Type")
	}
	pages := map[string]string{ // path -> what host debug-a contributes to it
		"/metrics":       "debug_hits 9",
		"/debug/events":  "hello from debug-a",
		"/debug/health":  "itv.Test.debug-a",
		"/debug/slow":    "slow_debug-a",
		"/debug/metrics": "debug_hits 9",
	}

	one, err := ServeDebug("127.0.0.1:0", "debug-a")
	if err != nil {
		t.Fatalf("ServeDebug: %v", err)
	}
	all, err := ServeDebug("127.0.0.1:0")
	if err != nil {
		t.Fatalf("ServeDebug: %v", err)
	}
	for path, want := range pages {
		body, _ := get(one, path)
		if !strings.Contains(body, want) || strings.Contains(body, "debug-b") {
			t.Errorf("one host %s = %q, want %q and nothing of debug-b", path, body, want)
		}
		body, _ = get(all, path)
		if !strings.Contains(body, want) || !strings.Contains(body, "debug-b") {
			t.Errorf("all hosts %s = %q, want %q and debug-b beside it", path, body, want)
		}
	}
	if body, _ := get(one, "/metrics"); strings.Contains(body, "# node") {
		t.Errorf("one host /metrics carries a node header:\n%s", body)
	}
	if body, _ := get(all, "/metrics"); !strings.Contains(body, "# node debug-a\n") {
		t.Errorf("all hosts /metrics lacks node headers:\n%s", body)
	}
	if _, ctype := get(one, "/metrics"); ctype != MetricsContentType {
		t.Fatalf("/metrics Content-Type = %q, want %q", ctype, MetricsContentType)
	}
	if body, _ := get(one, "/healthz"); body != "ok\n" {
		t.Fatalf("/healthz = %q", body)
	}
	get(one, "/debug/pprof/")

	// Skewed clocks: a cause recorded on a node whose wall clock runs an
	// hour fast, then its effect on a node that heard of it over an RPC.
	// The page prints them in causal (HLC) order, each with its own wall
	// time; a wall-time merge would print the effect an hour early.
	run := skewRuns.Add(1)
	cause, effect := fmt.Sprintf("cause %d", run), fmt.Sprintf("effect %d", run)
	NodeRecorder("debug-fast").Record(at.Add(time.Hour), 0xdef, "skew_event", cause)
	NodeHLC("debug-slow").ObserveAt(NodeHLC("debug-fast").Current(), Mono())
	NodeRecorder("debug-slow").Record(at.Add(time.Second), 0xdef, "skew_event", effect)
	body, _ := get(all, "/debug/events")
	lines := strings.Split(body, "\n")
	line := func(detail string) int {
		return slices.IndexFunc(lines, func(l string) bool { return strings.HasSuffix(l, " "+detail) })
	}
	ci, ei := line(cause), line(effect)
	if ci < 0 || ei < ci || !strings.Contains(lines[ci], " 01:00:05.000000 debug-fast ") ||
		!strings.Contains(lines[ei], " 00:00:06.000000 debug-slow ") {
		t.Errorf("skewed cause and effect out of causal order, or without their wall times:\n%s", body)
	}

	// A host that only ever kept a clock renders as nothing and gains
	// nothing by being rendered.
	NodeHLC("debug-bare")
	get(all, "/debug/events")
	if r := records([]string{"debug-bare"}); len(r) != 1 || r[0].rec != nil || r[0].health != nil || r[0].reg != nil {
		t.Errorf("rendering built parts of a bare host: %+v", r)
	}
}

// TestMetricsOrderingPinned pins the contract that every metrics surface
// depends on: snapshots are sorted by metric name, so successive scrapes are
// diffable line-by-line.
func TestMetricsOrderingPinned(t *testing.T) {
	r := NewRegistry()
	// Register in deliberately unsorted order.
	r.Counter("zz_last").Add(3)
	r.Counter("aa_first").Add(1)
	r.Gauge("mm_middle").Set(2)
	want := "aa_first 1\nmm_middle 2\nzz_last 3\n"
	if got := r.Text(); got != want {
		t.Fatalf("Text() = %q, want %q", got, want)
	}
	names := make([]string, 0, 3)
	for _, s := range r.Snapshot() {
		names = append(names, s.Name)
	}
	if !sort.StringsAreSorted(names) {
		t.Fatalf("snapshot not sorted: %v", names)
	}
}

func TestRecorderRing(t *testing.T) {
	rec := NewRecorder("n1", 4)
	for i := 1; i <= 6; i++ {
		rec.Record(time.Unix(int64(i), 0), 0, "ring_event", "")
	}
	evs := rec.Events()
	if len(evs) != 4 {
		t.Fatalf("ring kept %d events, want 4", len(evs))
	}
	// Oldest two were overwritten; the survivors are 3..6 in order.
	for i, e := range evs {
		if want := uint64(i + 3); e.Seq != want {
			t.Fatalf("evs[%d].Seq = %d, want %d", i, e.Seq, want)
		}
	}
}

func TestDumpEventsOnFailure(t *testing.T) {
	NodeRecorder("dump-node").Record(time.Unix(5, 0), 0, "dump_probe", "hello")

	t.Setenv("ITV_FLIGHT_DUMP", "")
	var b strings.Builder
	if DumpEventsOnFailure(&b) || b.Len() != 0 {
		t.Fatalf("dump without ITV_FLIGHT_DUMP wrote %q", b.String())
	}

	t.Setenv("ITV_FLIGHT_DUMP", "1")
	if !DumpEventsOnFailure(&b) {
		t.Fatal("dump with ITV_FLIGHT_DUMP set reported nothing written")
	}
	if !strings.Contains(b.String(), "dump_probe") || !strings.Contains(b.String(), "dump-node") {
		t.Fatalf("dump missing recorded event:\n%s", b.String())
	}
	if !strings.Contains(b.String(), "HLC order") {
		t.Fatalf("dump missing HLC-ordered section:\n%s", b.String())
	}

	// Any value other than "1" is a file path: the dump lands there too,
	// where CI picks it up as a workflow artifact.
	path := filepath.Join(t.TempDir(), "flight-dump.txt")
	t.Setenv("ITV_FLIGHT_DUMP", path)
	var b2 strings.Builder
	if !DumpEventsOnFailure(&b2) {
		t.Fatal("file-path dump reported nothing written")
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("dump file not written: %v", err)
	}
	if !strings.Contains(string(data), "dump_probe") {
		t.Fatalf("dump file missing recorded event:\n%s", data)
	}
	if !strings.Contains(b2.String(), "dump_probe") {
		t.Fatalf("file-path dump must still write the log copy:\n%s", b2.String())
	}
}

func TestSpanContext(t *testing.T) {
	if s := SpanFrom(context.Background()); s.Sampled || s.TraceID != 0 {
		t.Fatalf("background span = %+v, want zero", s)
	}
	root := NewTrace()
	if !root.Sampled || root.TraceID == 0 {
		t.Fatalf("NewTrace = %+v, want sampled", root)
	}
	ctx := ContextWithSpan(context.Background(), root)
	if got := SpanFrom(ctx); got != root {
		t.Fatalf("SpanFrom = %+v, want %+v", got, root)
	}

	SetTraceSampling(false)
	if s := NewTrace(); s.Sampled || s.TraceID != 0 {
		SetTraceSampling(true)
		t.Fatalf("NewTrace with sampling off = %+v, want zero", s)
	}
	SetTraceSampling(true)

	var sink TraceSink
	sctx := WithTraceSink(ctx, &sink)
	if SinkFrom(context.Background()) != nil {
		t.Fatal("background sink != nil")
	}
	SinkFrom(sctx).Set(0) // zero must not clobber
	SinkFrom(sctx).Set(42)
	SinkFrom(sctx).Set(0)
	if got := sink.Trace(); got != 42 {
		t.Fatalf("sink = %d, want 42", got)
	}
}
