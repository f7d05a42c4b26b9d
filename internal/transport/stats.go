package transport

import "itv/internal/obs"

// Stats is the transport-level traffic summary for one host, identical in
// shape across memnet and TCP so benchmarks compare like for like.
// FramesSent counts write operations — a Write or a WriteBuffers call —
// which the ORB's write path makes one per frame (or per coalesced batch).
// Reads counts Read calls that returned, the receiving side's twin: the
// ORB's read loops make one per frame that arrives alone, fewer when frames
// arrive batched.
type Stats struct {
	BytesSent     int64
	BytesRecv     int64
	FramesSent    int64
	Reads         int64
	ConnsDialed   int64
	ConnsAccepted int64
	DialErrors    int64
}

// StatsSource is implemented by transports that report traffic statistics.
// Both the memnet host transport and the TCP transport implement it.
type StatsSource interface {
	Stats() Stats
}

// netCounters caches one host's transport counters so per-byte hot paths
// never take the registry lock.  Connections bind a *netCounters at
// creation time.
type netCounters struct {
	bytesSent     *obs.Counter
	bytesRecv     *obs.Counter
	framesSent    *obs.Counter
	reads         *obs.Counter
	connsDialed   *obs.Counter
	connsAccepted *obs.Counter
	dialErrors    *obs.Counter
}

func countersFor(host string) *netCounters {
	r := obs.Node(host)
	return &netCounters{
		bytesSent:     r.Counter("transport_bytes_sent"),
		bytesRecv:     r.Counter("transport_bytes_recv"),
		framesSent:    r.Counter("transport_frames_sent"),
		reads:         r.Counter("transport_reads"),
		connsDialed:   r.Counter("transport_conns_dialed"),
		connsAccepted: r.Counter("transport_conns_accepted"),
		dialErrors:    r.Counter("transport_dial_errors"),
	}
}

func statsFor(host string) Stats {
	c := countersFor(host)
	return Stats{
		BytesSent:     c.bytesSent.Value(),
		BytesRecv:     c.bytesRecv.Value(),
		FramesSent:    c.framesSent.Value(),
		Reads:         c.reads.Value(),
		ConnsDialed:   c.connsDialed.Value(),
		ConnsAccepted: c.connsAccepted.Value(),
		DialErrors:    c.dialErrors.Value(),
	}
}

// Sub returns s - o field by field; useful for before/after deltas in
// benchmarks and tests, since node counters accumulate for process life.
func (s Stats) Sub(o Stats) Stats {
	return Stats{
		BytesSent:     s.BytesSent - o.BytesSent,
		BytesRecv:     s.BytesRecv - o.BytesRecv,
		FramesSent:    s.FramesSent - o.FramesSent,
		Reads:         s.Reads - o.Reads,
		ConnsDialed:   s.ConnsDialed - o.ConnsDialed,
		ConnsAccepted: s.ConnsAccepted - o.ConnsAccepted,
		DialErrors:    s.DialErrors - o.DialErrors,
	}
}
