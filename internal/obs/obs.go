// Package obs is the observability substrate: allocation-conscious atomic
// counters, gauges and fixed-bucket latency histograms, collected in
// per-node registries that snapshot to a sortable text format.
//
// The paper reports its scalability claims as measured message counts and
// latencies (§7.2.1, §9.7); this package is the measurement machinery those
// claims are reproduced against.  Every layer — transport, ORB, name
// service, RAS, controllers — feeds counters here, and every node exposes
// its registry through the ORB's node operation _metrics, the itv-admin
// `metrics` subcommand, and the opt-in HTTP debug server.
//
// The package depends only on the standard library and is safe for
// concurrent use; metric updates are single atomic operations.
package obs

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing count.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an instantaneous level (in-flight calls, tracked entities).
type Gauge struct{ v atomic.Int64 }

// Set replaces the level.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add moves the level by n (negative to decrease).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Inc adds one.
func (g *Gauge) Inc() { g.v.Add(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.v.Add(-1) }

// Value returns the current level.
func (g *Gauge) Value() int64 { return g.v.Load() }

// DefaultLatencyBuckets spans RPC latencies from the memnet fast path
// (tens of microseconds) to the paper's tens-of-seconds fail-over times.
var DefaultLatencyBuckets = []time.Duration{
	50 * time.Microsecond,
	100 * time.Microsecond,
	250 * time.Microsecond,
	500 * time.Microsecond,
	time.Millisecond,
	5 * time.Millisecond,
	25 * time.Millisecond,
	100 * time.Millisecond,
	500 * time.Millisecond,
	time.Second,
	5 * time.Second,
	30 * time.Second,
}

// MicroLatencyBuckets resolves the microsecond range where queue-wait and
// flush-wait live on the in-memory transport; DefaultLatencyBuckets' 50µs
// floor would fold the whole server-side decomposition into one bucket.
var MicroLatencyBuckets = []time.Duration{
	time.Microsecond,
	5 * time.Microsecond,
	10 * time.Microsecond,
	25 * time.Microsecond,
	50 * time.Microsecond,
	100 * time.Microsecond,
	250 * time.Microsecond,
	500 * time.Microsecond,
	time.Millisecond,
	5 * time.Millisecond,
	25 * time.Millisecond,
	100 * time.Millisecond,
	time.Second,
}

// Exemplar ties one sampled observation to its causal trace: the trace ID,
// the node's HLC at capture, the observed value, and — for server-side
// observations — the queue/service/flush decomposition of where the time
// went.  An exemplar turns a histogram bucket from a count into a lead: the
// trace ID resolves through `itv-admin trace` to the cluster timeline of
// the exact call that put it there.
type Exemplar struct {
	Trace   uint64
	HLC     HLCTime
	Value   time.Duration
	Queue   time.Duration // accept -> worker pickup
	Service time.Duration // handler execution
	Flush   time.Duration // encode -> write, incl. coalescer budget wait
}

// Histogram is a fixed-bucket duration histogram.  Buckets are cumulative
// in snapshots (le=bound), with a final implicit +Inf bucket.  Each bucket
// additionally keeps one exemplar slot, populated only by sampled
// observations via ObserveExemplar.
type Histogram struct {
	bounds []time.Duration
	counts []atomic.Int64 // len(bounds)+1; last is the +Inf bucket
	exes   []atomic.Pointer[Exemplar]
	count  atomic.Int64
	sum    atomic.Int64 // nanoseconds
}

func newHistogram(bounds []time.Duration) *Histogram {
	return &Histogram{
		bounds: bounds,
		counts: make([]atomic.Int64, len(bounds)+1),
		exes:   make([]atomic.Pointer[Exemplar], len(bounds)+1),
	}
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	i := sort.Search(len(h.bounds), func(i int) bool { return d <= h.bounds[i] })
	h.counts[i].Add(1)
	h.count.Add(1)
	h.sum.Add(int64(d))
}

// ObserveExemplar records d and publishes ex as the exemplar of the bucket
// d lands in.  The publish is one load plus one compare-and-swap with no
// retry: a caller that loses the race drops its exemplar, because any
// sampled observation is an equally good representative and last-writer-
// wins needs no loop.  Unsampled callers must use Observe instead — taking
// *Exemplar here keeps the allocation on the rare sampled side, so the hot
// path stays allocation-free.
func (h *Histogram) ObserveExemplar(d time.Duration, ex *Exemplar) {
	i := sort.Search(len(h.bounds), func(i int) bool { return d <= h.bounds[i] })
	h.counts[i].Add(1)
	h.count.Add(1)
	h.sum.Add(int64(d))
	if ex == nil || ex.Trace == 0 {
		return
	}
	ex.Value = d
	cur := h.exes[i].Load()
	h.exes[i].CompareAndSwap(cur, ex)
}

// Exemplars returns the current per-bucket exemplars; index len(bounds) is
// the +Inf bucket.  Entries are nil where no sampled observation landed.
func (h *Histogram) Exemplars() []*Exemplar {
	out := make([]*Exemplar, len(h.exes))
	for i := range h.exes {
		out[i] = h.exes[i].Load()
	}
	return out
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the total of all observations.
func (h *Histogram) Sum() time.Duration { return time.Duration(h.sum.Load()) }

// Quantile estimates the q-quantile (0 < q <= 1) by linear interpolation
// within the bucket containing it; observations beyond the last bound
// report the last bound.  Good enough for operator eyeballs, not for SLO
// math.
func (h *Histogram) Quantile(q float64) time.Duration {
	counts := make([]int64, len(h.counts))
	for i := range h.counts {
		counts[i] = h.counts[i].Load()
	}
	return QuantileFromBuckets(h.bounds, counts, q)
}

// QuantileFromBuckets estimates a quantile from raw bucket data: bounds are
// the ascending finite upper bounds, counts the per-bucket (non-cumulative)
// observation counts with one extra trailing +Inf bucket.  Shared by live
// histograms, the itv-admin metrics summary and the health dashboard, all
// of which see the same bucket shape through different transports.
func QuantileFromBuckets(bounds []time.Duration, counts []int64, q float64) time.Duration {
	if len(bounds) == 0 {
		return 0
	}
	var n int64
	for _, c := range counts {
		n += c
	}
	if n == 0 {
		return 0
	}
	rank := int64(q * float64(n))
	if rank < 1 {
		rank = 1
	}
	var cum int64
	for i, c := range counts {
		if c > 0 && cum+c >= rank {
			if i >= len(bounds) {
				// The +Inf bucket has no upper bound to interpolate
				// toward; report the last finite bound.
				break
			}
			var lo time.Duration
			if i > 0 {
				lo = bounds[i-1]
			}
			frac := float64(rank-cum) / float64(c)
			return lo + time.Duration(frac*float64(bounds[i]-lo))
		}
		cum += c
	}
	return bounds[len(bounds)-1]
}

// L builds a labeled metric name: L("x", "k", "v") -> `x{k=v}`.  Pairs are
// emitted in argument order; callers keep the order stable so names stay
// comparable across snapshots.
func L(name string, kv ...string) string {
	if len(kv) == 0 {
		return name
	}
	var b strings.Builder
	b.Grow(len(name) + 16)
	b.WriteString(name)
	b.WriteByte('{')
	for i := 0; i+1 < len(kv); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(kv[i])
		b.WriteByte('=')
		b.WriteString(kv[i+1])
	}
	b.WriteByte('}')
	return b.String()
}

// insertLabel adds one more k=v pair to a (possibly already labeled) name.
func insertLabel(name, k, v string) string {
	if strings.HasSuffix(name, "}") {
		return name[:len(name)-1] + "," + k + "=" + v + "}"
	}
	return name + "{" + k + "=" + v + "}"
}

// suffixName inserts a suffix before the label block:
// suffixName("x{a=1}", "_exemplar") -> "x_exemplar{a=1}".
func suffixName(name, suffix string) string {
	if i := strings.IndexByte(name, '{'); i >= 0 {
		return name[:i] + suffix + name[i:]
	}
	return name + suffix
}

// SampleKind classifies a snapshot row for windowed health sampling:
// accumulating rows (counters, histogram buckets and sums) are meaningful
// as deltas between snapshots; level rows (gauges) are meaningful as-is.
type SampleKind uint8

const (
	KindCounter SampleKind = iota // accumulates; diff across windows
	KindGauge                     // instantaneous level
)

// Sample is one row of a registry snapshot.
type Sample struct {
	Name  string
	Value float64
	Kind  SampleKind
}

// Registry holds one node's metrics by name.  Lookups are get-or-create;
// hot paths should look a metric up once and keep the pointer.
type Registry struct {
	mu     sync.RWMutex
	counts map[string]*Counter
	gauges map[string]*Gauge
	hists  map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counts: make(map[string]*Counter),
		gauges: make(map[string]*Gauge),
		hists:  make(map[string]*Histogram),
	}
}

// lookup returns m[name], making it with mk on first use.  The hit path
// takes the read lock only.
func lookup[T any](r *Registry, m map[string]*T, name string, mk func() *T) *T {
	r.mu.RLock()
	v, ok := m[name]
	r.mu.RUnlock()
	if ok {
		return v
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if v, ok = m[name]; ok {
		return v
	}
	v = mk()
	m[name] = v
	return v
}

// Counter returns the named counter, creating it if needed.
func (r *Registry) Counter(name string) *Counter {
	return lookup(r, r.counts, name, func() *Counter { return new(Counter) })
}

// Gauge returns the named gauge, creating it if needed.
func (r *Registry) Gauge(name string) *Gauge {
	return lookup(r, r.gauges, name, func() *Gauge { return new(Gauge) })
}

// Histogram returns the named histogram with the default latency buckets,
// creating it if needed.
func (r *Registry) Histogram(name string) *Histogram {
	return r.HistogramBuckets(name, DefaultLatencyBuckets)
}

// HistogramBuckets returns the named histogram, creating it with the given
// bucket upper bounds if needed.  Bounds must be ascending.
func (r *Registry) HistogramBuckets(name string, bounds []time.Duration) *Histogram {
	return lookup(r, r.hists, name, func() *Histogram { return newHistogram(bounds) })
}

// Snapshot returns every metric as samples, sorted by metric name.  A
// histogram expands into cumulative le= buckets plus _count and _sum_ms
// rows, kept together in bucket order.
func (r *Registry) Snapshot() []Sample {
	r.mu.RLock()
	names := make([]string, 0, len(r.counts)+len(r.gauges)+len(r.hists))
	for n := range r.counts {
		names = append(names, n)
	}
	for n := range r.gauges {
		names = append(names, n)
	}
	for n := range r.hists {
		names = append(names, n)
	}
	sort.Strings(names)

	out := make([]Sample, 0, len(names))
	for _, n := range names {
		switch {
		case r.counts[n] != nil:
			out = append(out, Sample{n, float64(r.counts[n].Value()), KindCounter})
		case r.gauges[n] != nil:
			out = append(out, Sample{n, float64(r.gauges[n].Value()), KindGauge})
		default:
			h := r.hists[n]
			var cum int64
			for i, b := range h.bounds {
				cum += h.counts[i].Load()
				out = append(out, Sample{insertLabel(n, "le", b.String()), float64(cum), KindCounter})
			}
			cum += h.counts[len(h.bounds)].Load()
			out = append(out, Sample{insertLabel(n, "le", "+Inf"), float64(cum), KindCounter})
			out = append(out, Sample{n + "_count", float64(h.Count()), KindCounter})
			out = append(out, Sample{n + "_sum_ms", float64(h.Sum()) / float64(time.Millisecond), KindCounter})
			// Exemplar rows ride after the family: the bucket bound is
			// labeled ub= (not le=) so bucket reassembly ignores them, and
			// they snapshot as gauges (a trace ID is a level, not a rate)
			// so health windows carry them through unchanged.
			for i := range h.exes {
				e := h.exes[i].Load()
				if e == nil {
					continue
				}
				ub := "+Inf"
				if i < len(h.bounds) {
					ub = h.bounds[i].String()
				}
				en := insertLabel(suffixName(n, "_exemplar"), "ub", ub)
				en = insertLabel(en, "trace", fmt.Sprintf("%016x", e.Trace))
				if e.Queue != 0 || e.Service != 0 || e.Flush != 0 {
					en = insertLabel(en, "q", e.Queue.String())
					en = insertLabel(en, "s", e.Service.String())
					en = insertLabel(en, "f", e.Flush.String())
				}
				out = append(out, Sample{en, float64(e.Value) / float64(time.Millisecond), KindGauge})
			}
		}
	}
	r.mu.RUnlock()
	return out
}

// WriteText writes the snapshot as "name value" lines.
func (r *Registry) WriteText(w io.Writer) {
	for _, s := range r.Snapshot() {
		fmt.Fprintf(w, "%s %s\n", s.Name, formatValue(s.Value))
	}
}

// Text returns the snapshot as a string.
func (r *Registry) Text() string {
	var b strings.Builder
	r.WriteText(&b)
	return b.String()
}

func formatValue(v float64) string {
	if v == float64(int64(v)) {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'f', 3, 64)
}
