package orb

import (
	"sync"
	"time"

	"itv/internal/obs"
	"itv/internal/wire"
)

// mono is the ORB's clock: one monotonic reading per event of a call
// (DESIGN.md §13), which the call timers and the HLC stamps share.  An
// installed hook (pool.go) gives the readings instead: the cost card counts
// them, the schedule explorer keeps virtual time.
func mono() time.Duration {
	if h := hooked.Load(); h != nil {
		return (*h).now()
	}
	return obs.Mono()
}

// epMetrics caches this endpoint's obs counters so the invoke and dispatch
// hot paths touch only atomics.  All endpoints of one host (one simulated
// server) share the host's node registry.
type epMetrics struct {
	reg *obs.Registry

	clientCalls    *obs.Counter
	clientFailures *obs.Counter
	localCalls     *obs.Counter

	poolHits       *obs.Counter
	poolDials      *obs.Counter
	poolDialShared *obs.Counter
	poolDialErrors *obs.Counter

	readErrors   *obs.Counter
	decodeErrors *obs.Counter
	writeErrors  *obs.Counter
	callTimeouts *obs.Counter

	// Frame-coalescing activity (DESIGN.md §12): how often a flush found
	// more than one frame queued, and how many frames those batches
	// carried.  batchedFrames/batchedWrites is the mean batch depth.
	batchedWrites *obs.Counter
	batchedFrames *obs.Counter

	// Run-to-completion (DESIGN.md §12, the reader seat): requests the
	// server's reader served itself, replies a caller read itself, and
	// inline dispatches that outlasted the grace and handed the seat on.
	inlineDispatches *obs.Counter
	selfReads        *obs.Counter
	readerPromotions *obs.Counter

	dispatches  *obs.Counter
	appErrors   *obs.Counter
	invalidRefs *obs.Counter
	inflight    *obs.Gauge

	// Tail-latency attribution: admitted slow calls and on-demand profile
	// collections are rare, but their counters make the machinery's own
	// activity observable.
	slowAdmitted *obs.Counter

	// latency caches the per-method stats under a plain RWMutex-guarded
	// map: a read-locked lookup with a struct key costs no allocation,
	// where a sync.Map.Load boxed the key into an interface on every call —
	// per-call garbage on the Invoke hot path.  The name concatenation
	// happens only on the first call per method.
	latMu   sync.RWMutex
	latency map[methodKey]*methodStats

	// methods is the endpoint's table of the method names it serves: what
	// a request's method bytes resolve through, to the name as a string
	// that outlives the frame and to that method's queue/service/flush
	// histograms, keyed by name alone (node operations have no type).  A name
	// enters only once something here answered to it — a node operation on
	// sight, any other after a skeleton took the call — so a peer cannot
	// grow the table, or the registry behind it, by inventing names; calls
	// whose method is not in it are timed together in other (otherRow).
	methods   wire.Table[*serverMethodStats]
	otherOnce sync.Once
	other     *serverMethodStats
}

type methodKey struct{ typeID, method string }

// methodStats is the cached per-method instrumentation: the latency
// histogram plus the error counter the RED dashboard rates against it.
type methodStats struct {
	lat  *obs.Histogram
	errs *obs.Counter
}

// serverMethodStats decomposes one served method's latency into the three
// places time can go on a server: the accept queue (read loop -> worker
// pickup), the handler itself, and the response flush (encode -> write,
// including any wait behind an in-flight coalesced write).  This is the
// instrument that distinguishes saturation (queue dominates) from slow
// handlers (service dominates) from a congested write path (flush
// dominates).
type serverMethodStats struct {
	method  string
	queue   *obs.Histogram
	service *obs.Histogram
	flush   *obs.Histogram
}

func newEpMetrics(host string) *epMetrics {
	r := obs.Node(host)
	return &epMetrics{
		reg:            r,
		clientCalls:    r.Counter("orb_client_calls"),
		clientFailures: r.Counter("orb_client_failures"),
		localCalls:     r.Counter("orb_client_local_calls"),
		poolHits:       r.Counter("orb_pool_hits"),
		poolDials:      r.Counter("orb_pool_dials"),
		poolDialShared: r.Counter("orb_pool_dial_shared"),
		poolDialErrors: r.Counter("orb_pool_dial_errors"),
		readErrors:     r.Counter("orb_conn_read_errors"),
		decodeErrors:   r.Counter("orb_conn_decode_errors"),
		writeErrors:    r.Counter("orb_conn_write_errors"),
		callTimeouts:   r.Counter("orb_call_timeouts"),
		batchedWrites:  r.Counter("orb_conn_batched_writes"),
		batchedFrames:  r.Counter("orb_conn_batched_frames"),
		dispatches:     r.Counter("orb_server_dispatches"),
		appErrors:      r.Counter("orb_server_app_errors"),
		invalidRefs:    r.Counter("orb_server_invalid_refs"),
		inflight:       r.Gauge("orb_server_inflight"),
		slowAdmitted:   r.Counter("slow_call_admitted"),

		inlineDispatches: r.Counter("orb_server_inline_dispatches"),
		selfReads:        r.Counter("orb_client_self_reads"),
		readerPromotions: r.Counter("orb_server_reader_promotions"),
	}
}

// methodFor returns the per-method stats, creating and caching them on
// first use.  The fast path is a read-locked map hit with zero allocations.
func (m *epMetrics) methodFor(typeID, method string) *methodStats {
	k := methodKey{typeID, method}
	m.latMu.RLock()
	ms := m.latency[k]
	m.latMu.RUnlock()
	if ms != nil {
		return ms
	}
	name := typeID
	if name == "" {
		name = "?"
	}
	full := name + "." + method
	ms = &methodStats{
		lat:  m.reg.Histogram(obs.L("orb_call_latency", "method", full)),
		errs: m.reg.Counter(obs.L("orb_call_errors", "method", full)),
	}
	m.latMu.Lock()
	if existing, ok := m.latency[k]; ok {
		ms = existing
	} else {
		if m.latency == nil {
			m.latency = make(map[methodKey]*methodStats)
		}
		m.latency[k] = ms
	}
	m.latMu.Unlock()
	return ms
}

// otherMethods names the row that times every call whose method the table
// does not hold.  No skeleton serves a method by this name; one that did
// would share the row.
const otherMethods = "_other"

// serverFor resolves a request's method bytes: the name as a string safe
// to keep and, when the table holds it, the row that times it (nil when
// not: the call belongs in otherRow unless admitMethod says otherwise).  A
// held name costs one lock-free lookup and no allocation; any other is
// copied out of the frame.
func (m *epMetrics) serverFor(method []byte) (name string, ss *serverMethodStats) {
	if ss, ok := m.methods.Lookup(method); ok {
		return ss.method, ss
	}
	name = string(method)
	if nodeOpFor(name) != nil {
		ss, _ = m.admitMethod(name)
	}
	return name, ss
}

// otherRow returns the row shared by every call whose method has none of
// its own, made on first use: a node that is only ever asked for what it
// serves carries no such series.
func (m *epMetrics) otherRow() *serverMethodStats {
	m.otherOnce.Do(func() { m.other = m.newServerStats(otherMethods) })
	return m.other
}

// admitMethod gives name its own row, room permitting; the caller has seen
// a skeleton (or the endpoint) answer to it.
func (m *epMetrics) admitMethod(name string) (*serverMethodStats, bool) {
	return m.methods.Admit(name, m.newServerStats)
}

func (m *epMetrics) newServerStats(method string) *serverMethodStats {
	return &serverMethodStats{
		method:  method,
		queue:   m.reg.HistogramBuckets(obs.L("orb_queue_wait", "method", method), obs.MicroLatencyBuckets),
		service: m.reg.HistogramBuckets(obs.L("orb_service_time", "method", method), obs.MicroLatencyBuckets),
		flush:   m.reg.HistogramBuckets(obs.L("orb_flush_wait", "method", method), obs.MicroLatencyBuckets),
	}
}
