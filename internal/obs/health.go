package obs

import (
	"fmt"
	"io"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"itv/internal/clock"
)

// Rolling health windows: every node keeps a short time series of windowed
// metric snapshots — counter and histogram *deltas* plus instantaneous
// gauges and Go runtime levels — so "what was this node doing in the last
// ten minutes" has an answer without an external metrics pipeline.  The
// ring feeds the ORB's node operation _health, the debug server's
// /debug/health page, and itv-admin's live `watch` dashboard; ROADMAP item
// 1's admission control will read the same windows.

// Health ring defaults: ~120 windows of 5 s covers the last ten minutes.
const (
	DefaultHealthWindows  = 120
	DefaultHealthInterval = 5 * time.Second
)

// HealthWindow is one sampling interval's worth of node activity.
//
// The Go runtime levels are process-wide; on the simulated memnet cluster
// (many nodes, one process) every node reports the same values, which is
// still the right signal for "is the test bed itself unhealthy".
type HealthWindow struct {
	Start, End time.Time
	HLC        HLCTime // node HLC at window close
	Goroutines int64
	HeapBytes  int64
	GCPauseNs  int64    // GC pause time accumulated during the window
	NumGC      int64    // GC cycles during the window
	Samples    []Sample // counter/histogram deltas (nonzero only) + gauge levels
}

// Health is one node's window ring.  Sampling is driven either by Start's
// goroutine on an injected clock or manually via Sample (tests, and nodes
// without an SSC).
type Health struct {
	node string
	reg  *Registry
	hlc  *HLC

	mu        sync.Mutex
	ring      ring[HealthWindow]
	prev      map[string]float64 // cumulative values at last sample
	prevAt    time.Time
	primed    bool
	prevPause uint64
	prevNumGC uint32

	runMu sync.Mutex  // serializes Start and Stop
	loop  *clock.Loop // Start's sampler; nil when stopped
}

// NewHealth returns a health ring over a registry (windows <= 0 means
// DefaultHealthWindows).
func NewHealth(node string, reg *Registry, windows int) *Health {
	return newHealth(node, reg, NodeHLC(node), windows)
}

func newHealth(node string, reg *Registry, hlc *HLC, windows int) *Health {
	if windows <= 0 {
		windows = DefaultHealthWindows
	}
	return &Health{
		node: node,
		reg:  reg,
		hlc:  hlc,
		ring: ring[HealthWindow]{buf: make([]HealthWindow, 0, windows), max: windows},
		prev: make(map[string]float64),
	}
}

// Sample closes the current window at now: it diffs accumulating metrics
// against the previous sample, reads the gauge levels and runtime stats,
// and appends the window to the ring.  The first call only primes the
// baseline and records nothing.
func (h *Health) Sample(now time.Time) {
	snap := h.reg.Snapshot()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)

	h.mu.Lock()
	defer h.mu.Unlock()
	if !h.primed {
		h.primed = true
		h.prevAt = now
		for _, s := range snap {
			if s.Kind == KindCounter {
				h.prev[s.Name] = s.Value
			}
		}
		h.prevPause = ms.PauseTotalNs
		h.prevNumGC = ms.NumGC
		return
	}

	w := HealthWindow{
		Start:      h.prevAt,
		End:        now,
		HLC:        h.hlc.Tick(now),
		Goroutines: int64(runtime.NumGoroutine()),
		HeapBytes:  int64(ms.HeapAlloc),
		GCPauseNs:  int64(ms.PauseTotalNs - h.prevPause),
		NumGC:      int64(ms.NumGC - h.prevNumGC),
	}
	for _, s := range snap {
		switch s.Kind {
		case KindCounter:
			d := s.Value - h.prev[s.Name]
			h.prev[s.Name] = s.Value
			if d != 0 {
				w.Samples = append(w.Samples, Sample{Name: s.Name, Value: d, Kind: KindCounter})
			}
		case KindGauge:
			w.Samples = append(w.Samples, s)
		}
	}
	h.prevAt = now
	h.prevPause = ms.PauseTotalNs
	h.prevNumGC = ms.NumGC

	h.ring.push(w)
}

// Windows returns up to max of the most recent windows, oldest first
// (max <= 0 means all).
func (h *Health) Windows(max int) []HealthWindow {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := h.ring.items()
	if max > 0 && len(out) > max {
		out = out[len(out)-max:]
	}
	return out
}

// Start begins periodic sampling on clk (interval <= 0 means
// DefaultHealthInterval).  Idempotent; a second Start while running is a
// no-op.  Stop ends sampling.
func (h *Health) Start(clk clock.Clock, interval time.Duration) {
	if interval <= 0 {
		interval = DefaultHealthInterval
	}
	h.runMu.Lock()
	defer h.runMu.Unlock()
	if h.loop != nil {
		return
	}
	h.Sample(clk.Now()) // prime the baseline at start time
	h.loop = clock.Every(clk, interval, false, h.Sample)
}

// Stop ends periodic sampling once a Sample in progress has finished.  The
// ring keeps its contents.
func (h *Health) Stop() {
	h.runMu.Lock()
	defer h.runMu.Unlock()
	if h.loop == nil {
		return
	}
	h.loop.Stop()
	h.loop = nil
	h.mu.Lock()
	h.primed = false
	h.mu.Unlock()
}

// HealthReport is the _health RPC's payload: one node's identity, clock
// state, measured peer offsets, and recent windows.
type HealthReport struct {
	Node    string
	Now     time.Time // node's own clock at report time
	HLC     HLCTime
	Offsets []OffsetSample
	Windows []HealthWindow
}

// Report assembles a report with up to maxWindows recent windows.  now is
// the node's own clock reading (passed in; obs does not pick clocks).
func (h *Health) Report(now time.Time, maxWindows int) *HealthReport {
	offs := NodeOffsets(h.node).Peers()
	sort.Slice(offs, func(i, j int) bool { return offs[i].Peer < offs[j].Peer })
	return &HealthReport{
		Node:    h.node,
		Now:     now,
		HLC:     h.hlc.Current(),
		Offsets: offs,
		Windows: h.Windows(maxWindows),
	}
}

// ---- RED rendering ----

// methodRED is per-method rate/errors/duration aggregated across reports.
type methodRED struct {
	method  string
	calls   float64
	errors  float64
	samples []Sample // summed latency-bucket deltas
	ex      ExemplarRef
	exOK    bool
}

// noteExemplar keeps the highest-bucket exemplar seen for this method;
// among equals the later window wins, so the trace shown is both the worst
// and the freshest.
func (r *methodRED) noteExemplar(ref ExemplarRef) {
	if !r.exOK || (ref.Inf && !r.ex.Inf) || (ref.Inf == r.ex.Inf && ref.Bound >= r.ex.Bound) {
		r.ex = ref
		r.exOK = true
	}
}

// RenderHealth writes the RED-style dashboard for a set of node reports:
// one header line per node (clock, offsets, runtime levels), then one row
// per ORB method with call rate, error rate, and p50/p99 over the last
// lastN windows (lastN <= 0 means all).  This is what `itv-admin watch`
// repaints and what /debug/health serves.
func RenderHealth(w io.Writer, reports []*HealthReport, lastN int) {
	var elapsed time.Duration
	methods := map[string]*methodRED{}

	for _, r := range reports {
		if r == nil {
			continue
		}
		wins := r.Windows
		if lastN > 0 && len(wins) > lastN {
			wins = wins[len(wins)-lastN:]
		}
		fmt.Fprintf(w, "node %-15s hlc %s", r.Node, r.HLC)
		if len(wins) > 0 {
			last := wins[len(wins)-1]
			span := wins[len(wins)-1].End.Sub(wins[0].Start)
			if span > elapsed {
				elapsed = span
			}
			fmt.Fprintf(w, "  goroutines %d  heap %.1fMB  gc %d",
				last.Goroutines, float64(last.HeapBytes)/(1<<20), last.NumGC)
		}
		for _, o := range r.Offsets {
			fmt.Fprintf(w, "  offset[%s]=%s±%s", o.Peer, o.Offset.Round(time.Millisecond), o.Uncertainty.Round(time.Millisecond))
		}
		fmt.Fprintln(w)

		for _, win := range wins {
			for _, s := range win.Samples {
				if s.Kind != KindCounter {
					// Exemplar rows travel as gauges; attach each to its
					// method so the dashboard can name a trace next to p99.
					if ref, eok := splitExemplar(s.Name); eok {
						if m, ok := methodOf(ref.Family, "orb_call_latency"); ok {
							red(methods, m).noteExemplar(ref)
						}
					}
					continue
				}
				if m, ok := methodOf(s.Name, "orb_call_latency"); ok {
					r := red(methods, m)
					r.samples = appendSum(r.samples, s)
					if _, le, lok := splitLE(s.Name); lok && le == "+Inf" {
						r.calls += s.Value
					}
				} else if m, ok := methodOf(s.Name, "orb_call_errors"); ok {
					red(methods, m).errors += s.Value
				}
			}
		}
	}

	names := make([]string, 0, len(methods))
	for m := range methods {
		names = append(names, m)
	}
	sort.Strings(names)
	if len(names) == 0 {
		fmt.Fprintln(w, "(no method activity in window)")
		return
	}
	if elapsed <= 0 {
		elapsed = time.Second
	}
	fmt.Fprintf(w, "%-32s %8s %8s %10s %10s %18s\n", "METHOD", "RATE/S", "ERR/S", "P50", "P99", "TRACE")
	for _, name := range names {
		m := methods[name]
		sum := SummarizeHistograms(m.samples)
		var p50, p99 time.Duration
		if len(sum) > 0 {
			p50, p99 = sum[0].P50, sum[0].P99
		}
		trace := "-"
		if m.exOK {
			trace = fmt.Sprintf("%016x", m.ex.Trace)
		}
		fmt.Fprintf(w, "%-32s %8.2f %8.2f %10s %10s %18s\n",
			name,
			m.calls/elapsed.Seconds(),
			m.errors/elapsed.Seconds(),
			p50.Round(time.Microsecond), p99.Round(time.Microsecond),
			trace)
	}
}

func red(m map[string]*methodRED, method string) *methodRED {
	r, ok := m[method]
	if !ok {
		r = &methodRED{method: method}
		m[method] = r
	}
	return r
}

// methodOf extracts the method label value from a metric row belonging to
// the given family, e.g. `orb_call_latency{method=itv.NS.resolve,le=1ms}`.
func methodOf(name, family string) (string, bool) {
	if !strings.HasPrefix(name, family) || len(name) == len(family) {
		return "", false
	}
	rest := name[len(family):]
	if !strings.HasPrefix(rest, "{") {
		return "", false
	}
	end := strings.IndexByte(rest, '}')
	if end < 0 {
		return "", false
	}
	for _, l := range strings.Split(rest[1:end], ",") {
		if v, ok := strings.CutPrefix(l, "method="); ok {
			return v, true
		}
	}
	return "", false
}

// appendSum accumulates a sample into a by-name sum, keeping one row per
// bucket so SummarizeHistograms sees merged deltas from every node.
func appendSum(samples []Sample, s Sample) []Sample {
	for i := range samples {
		if samples[i].Name == s.Name {
			samples[i].Value += s.Value
			return samples
		}
	}
	return append(samples, s)
}
