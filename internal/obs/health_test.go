package obs

import (
	"strings"
	"testing"
	"time"

	"itv/internal/clock"
)

// winDelta finds a named sample in a window, or fails the test.
func winDelta(t *testing.T, w HealthWindow, name string) float64 {
	t.Helper()
	for _, s := range w.Samples {
		if s.Name == name {
			return s.Value
		}
	}
	t.Fatalf("window %v..%v has no sample %q (have %v)", w.Start, w.End, name, w.Samples)
	return 0
}

func TestHealthSampleDeltasAndGauges(t *testing.T) {
	reg := NewRegistry()
	h := NewHealth("health-test-deltas", reg, 8)
	c := reg.Counter("reqs")
	g := reg.Gauge("inflight")

	h.Sample(hlcEpoch) // first call primes the baseline only
	if n := len(h.Windows(0)); n != 0 {
		t.Fatalf("priming sample recorded %d windows", n)
	}

	c.Add(5)
	g.Set(3)
	h.Sample(hlcEpoch.Add(5 * time.Second))
	wins := h.Windows(0)
	if len(wins) != 1 {
		t.Fatalf("got %d windows, want 1", len(wins))
	}
	w := wins[0]
	if !w.Start.Equal(hlcEpoch) || !w.End.Equal(hlcEpoch.Add(5*time.Second)) {
		t.Fatalf("window span %v..%v", w.Start, w.End)
	}
	if w.HLC == 0 {
		t.Fatal("window missing HLC stamp")
	}
	if w.Goroutines <= 0 || w.HeapBytes <= 0 {
		t.Fatalf("runtime levels not sampled: %+v", w)
	}
	if d := winDelta(t, w, "reqs"); d != 5 {
		t.Fatalf("counter delta = %v, want 5", d)
	}
	if v := winDelta(t, w, "inflight"); v != 3 {
		t.Fatalf("gauge level = %v, want 3", v)
	}

	// No counter movement in the next window: the zero delta is omitted,
	// the gauge level still reported.
	h.Sample(hlcEpoch.Add(10 * time.Second))
	wins = h.Windows(0)
	if len(wins) != 2 {
		t.Fatalf("got %d windows, want 2", len(wins))
	}
	for _, s := range wins[1].Samples {
		if s.Name == "reqs" {
			t.Fatalf("zero counter delta reported: %+v", s)
		}
	}
	if v := winDelta(t, wins[1], "inflight"); v != 3 {
		t.Fatalf("gauge level = %v, want 3", v)
	}
}

func TestHealthRingWraps(t *testing.T) {
	reg := NewRegistry()
	h := NewHealth("health-test-wrap", reg, 3)
	c := reg.Counter("n")
	h.Sample(hlcEpoch)
	for i := 1; i <= 5; i++ {
		c.Add(int64(i))
		h.Sample(hlcEpoch.Add(time.Duration(i) * time.Second))
	}
	wins := h.Windows(0)
	if len(wins) != 3 {
		t.Fatalf("ring holds %d windows, want capacity 3", len(wins))
	}
	// Oldest first: the two earliest windows (deltas 1, 2) were evicted.
	for i, want := range []float64{3, 4, 5} {
		if d := winDelta(t, wins[i], "n"); d != want {
			t.Fatalf("window %d delta = %v, want %v", i, d, want)
		}
	}
	last2 := h.Windows(2)
	if len(last2) != 2 || winDelta(t, last2[0], "n") != 4 || winDelta(t, last2[1], "n") != 5 {
		t.Fatalf("Windows(2) = %v", last2)
	}
}

func TestHealthDefaultWindows(t *testing.T) {
	h := NewHealth("health-test-default", NewRegistry(), 0)
	if h.ring.max != DefaultHealthWindows {
		t.Fatalf("cap = %d, want %d", h.ring.max, DefaultHealthWindows)
	}
}

func TestHealthStartStop(t *testing.T) {
	reg := NewRegistry()
	h := NewHealth("health-test-startstop", reg, 8)
	clk := clock.NewFake()

	h.Start(clk, time.Second)
	h.Start(clk, time.Second) // idempotent: returns immediately while running

	// The sampler's ticker registers asynchronously: time moved before it
	// exists is time it never hears about.
	clk.Settle()
	if !clk.Await(time.Second, 100, func() bool { return len(h.Windows(0)) >= 3 }) {
		t.Fatalf("sampler never produced windows: have %d", len(h.Windows(0)))
	}

	h.Stop()
	clk.Settle() // let any in-flight tick drain
	n := len(h.Windows(0))
	clk.Await(time.Second, 5, func() bool { return false })
	if got := len(h.Windows(0)); got != n {
		t.Fatalf("sampling continued after Stop: %d -> %d windows", n, got)
	}
}

func TestHealthReport(t *testing.T) {
	reg := NewRegistry()
	h := NewHealth("health-test-report", reg, 4)
	if !MeasureOffset("health-test-report", "peer-b", hlcEpoch, hlcEpoch.Add(2*time.Millisecond), packHLC(hlcEpoch.Add(time.Second))) {
		t.Fatal("offset measurement rejected")
	}
	if !MeasureOffset("health-test-report", "peer-a", hlcEpoch, hlcEpoch.Add(2*time.Millisecond), packHLC(hlcEpoch.Add(time.Second))) {
		t.Fatal("offset measurement rejected")
	}
	h.Sample(hlcEpoch)
	reg.Counter("c").Inc()
	h.Sample(hlcEpoch.Add(time.Second))

	now := hlcEpoch.Add(time.Second)
	rep := h.Report(now, 0)
	if rep.Node != "health-test-report" || !rep.Now.Equal(now) {
		t.Fatalf("report identity: %+v", rep)
	}
	if rep.HLC == 0 {
		t.Fatal("report missing HLC")
	}
	if len(rep.Windows) != 1 {
		t.Fatalf("report has %d windows, want 1", len(rep.Windows))
	}
	if len(rep.Offsets) != 2 || rep.Offsets[0].Peer != "peer-a" || rep.Offsets[1].Peer != "peer-b" {
		t.Fatalf("offsets not sorted by peer: %+v", rep.Offsets)
	}
}

func TestRenderHealthREDTable(t *testing.T) {
	lat := func(le string, v float64) Sample {
		return Sample{Name: L("orb_call_latency", "method", "itv.NS.resolve", "le", le), Value: v, Kind: KindCounter}
	}
	win := HealthWindow{
		Start:      hlcEpoch,
		End:        hlcEpoch.Add(10 * time.Second),
		Goroutines: 7,
		HeapBytes:  1 << 20,
		Samples: []Sample{
			lat("1ms", 8), lat("5ms", 9), lat("+Inf", 10),
			{Name: L("orb_call_errors", "method", "itv.NS.resolve"), Value: 2, Kind: KindCounter},
			{Name: "inflight", Value: 4, Kind: KindGauge},
		},
	}
	rep := &HealthReport{
		Node:    "renderer",
		HLC:     packHLC(hlcEpoch),
		Offsets: []OffsetSample{{Peer: "kiln", Offset: 90 * time.Second, Uncertainty: 2 * time.Millisecond}},
		Windows: []HealthWindow{win},
	}
	var buf strings.Builder
	RenderHealth(&buf, []*HealthReport{rep, nil}, 0) // nil reports are skipped
	out := buf.String()

	for _, want := range []string{
		"node renderer", "goroutines 7", "offset[kiln]=1m30s±2ms",
		"METHOD", "P50", "P99", "itv.NS.resolve",
		"1.00", // 10 calls over a 10 s window
		"0.20", // 2 errors over the same window
	} {
		if !strings.Contains(out, want) {
			t.Errorf("dashboard missing %q:\n%s", want, out)
		}
	}

	var empty strings.Builder
	RenderHealth(&empty, nil, 0)
	if !strings.Contains(empty.String(), "no method activity") {
		t.Errorf("empty dashboard should say so, got:\n%s", empty.String())
	}
}

func TestParseText(t *testing.T) {
	text := "# scrape header\nfoo 3\nbar{k=v} 2.5\n\nnot-a-metric\nbad NaNope\n"
	got := ParseText(text)
	if len(got) != 2 {
		t.Fatalf("parsed %d samples, want 2: %v", len(got), got)
	}
	if got[0].Name != "foo" || got[0].Value != 3 {
		t.Fatalf("sample 0 = %+v", got[0])
	}
	if got[1].Name != "bar{k=v}" || got[1].Value != 2.5 {
		t.Fatalf("sample 1 = %+v", got[1])
	}
}

func TestSplitLE(t *testing.T) {
	cases := []struct {
		name, family, le string
		ok               bool
	}{
		{"lat{le=1ms}", "lat", "1ms", true},
		{"lat{method=itv.NS.resolve,le=5ms}", "lat{method=itv.NS.resolve}", "5ms", true},
		{"lat{le=+Inf,method=m}", "lat{method=m}", "+Inf", true},
		{"lat{method=m}", "", "", false},
		{"lat", "", "", false},
		{"lat{le=1ms", "", "", false},
	}
	for _, tc := range cases {
		family, le, ok := splitLE(tc.name)
		if family != tc.family || le != tc.le || ok != tc.ok {
			t.Errorf("splitLE(%q) = (%q, %q, %v), want (%q, %q, %v)",
				tc.name, family, le, ok, tc.family, tc.le, tc.ok)
		}
	}
}

// TestSummarizeHistogramsRoundTrip drives real observations through a
// Registry, serializes to text as the _metrics RPC does, parses it back,
// and checks the reassembled quantiles — the exact itv-admin path.
func TestSummarizeHistogramsRoundTrip(t *testing.T) {
	reg := NewRegistry()
	h := reg.HistogramBuckets(L("orb_call_latency", "method", "itv.T.m"),
		[]time.Duration{time.Millisecond, 10 * time.Millisecond, 100 * time.Millisecond})
	for i := 0; i < 90; i++ {
		h.Observe(500 * time.Microsecond) // <= 1ms
	}
	for i := 0; i < 10; i++ {
		h.Observe(50 * time.Millisecond) // (10ms, 100ms]
	}

	sums := SummarizeHistograms(ParseText(reg.Text()))
	if len(sums) != 1 {
		t.Fatalf("got %d summaries, want 1: %v", len(sums), sums)
	}
	s := sums[0]
	if s.Name != "orb_call_latency{method=itv.T.m}" {
		t.Fatalf("family name %q", s.Name)
	}
	if s.Count != 100 {
		t.Fatalf("count %d, want 100", s.Count)
	}
	if s.P50 > time.Millisecond {
		t.Fatalf("p50 %v, want within the 1ms bucket", s.P50)
	}
	if s.P95 <= 10*time.Millisecond || s.P95 > 100*time.Millisecond {
		t.Fatalf("p95 %v, want within the 100ms bucket", s.P95)
	}
	if s.P99 < s.P95 {
		t.Fatalf("p99 %v below p95 %v", s.P99, s.P95)
	}
}

func TestQuantileFromBuckets(t *testing.T) {
	if d := QuantileFromBuckets(nil, nil, 0.5); d != 0 {
		t.Fatalf("no buckets: %v", d)
	}
	bounds := []time.Duration{10 * time.Millisecond, 100 * time.Millisecond}
	if d := QuantileFromBuckets(bounds, []int64{0, 0, 0}, 0.5); d != 0 {
		t.Fatalf("no observations: %v", d)
	}
	// Median of 4 observations uniform in (0, 10ms]: rank 2 of 4,
	// interpolated to the bucket midpoint.
	if d := QuantileFromBuckets(bounds, []int64{4, 0, 0}, 0.5); d != 5*time.Millisecond {
		t.Fatalf("interpolated median = %v, want 5ms", d)
	}
	// Everything in +Inf: report the last finite bound, not infinity.
	if d := QuantileFromBuckets(bounds, []int64{0, 0, 8}, 0.99); d != 100*time.Millisecond {
		t.Fatalf("+Inf quantile = %v, want last bound", d)
	}
}
