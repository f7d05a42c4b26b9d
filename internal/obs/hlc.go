package obs

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"itv/internal/clock"
)

// Hybrid logical clocks (DESIGN.md §11).
//
// An HLCTime packs a physical timestamp and a logical counter into one
// uint64: the top 48 bits are milliseconds since the Unix epoch, the low
// 16 bits count events within a millisecond.  Comparing two HLCTimes as
// integers compares them causally: if a happened-before b (same node, or
// coupled by a message), then HLC(a) < HLC(b), regardless of how far the
// two nodes' wall clocks disagree.
//
// The price is that a node whose clock runs behind its peers drifts up to
// the cluster's fastest physical clock: after observing a faster peer, the
// physical part of its HLC no longer reports its own wall time.  That is
// the correct trade — ordering over local legibility — and the raw wall
// reading survives separately in Event.Time.

// HLCTime is a packed hybrid-logical-clock reading.  The zero value means
// "no reading" and is never produced by a live clock.
type HLCTime uint64

const hlcLogicalBits = 16

// packHLC converts a physical time to an HLCTime with logical counter 0.
func packHLC(t time.Time) HLCTime {
	ms := t.UnixMilli()
	if ms < 0 {
		ms = 0
	}
	return HLCTime(uint64(ms) << hlcLogicalBits)
}

// Physical returns the physical component as a wall-clock time (millisecond
// resolution).
func (h HLCTime) Physical() time.Time {
	return time.UnixMilli(int64(h >> hlcLogicalBits)).UTC()
}

// Logical returns the logical counter component.
func (h HLCTime) Logical() uint16 { return uint16(h) }

// String renders the reading as wall-millisecond plus logical counter,
// e.g. "15:04:05.123+7".
func (h HLCTime) String() string {
	if h == 0 {
		return "-"
	}
	return fmt.Sprintf("%s+%d", h.Physical().Format("15:04:05.000"), h.Logical())
}

// HLC is one node's hybrid logical clock.  All methods are safe for
// concurrent use; the clock never moves backwards.
//
// A reading's physical part comes from the caller's monotonic reading
// (Mono): an event is timed and stamped from one read of the clock.  By
// default the HLC converts that reading to wall time through clock.WallAt,
// which reads the wall clock itself at most once a second.  A node whose
// SSC injects a clock.Clock (SetNow) reads that clock's Now instead and
// ignores the reading, so simulated clusters advance HLCs on fake time.
type HLC struct {
	state atomic.Uint64
	// src is the injected physical source, nil for the real clock.
	src atomic.Pointer[func() time.Time]
}

// NewHLC returns an HLC reading physical time from now, or from the real
// clock when now is nil.
func NewHLC(now func() time.Time) *HLC {
	h := &HLC{}
	h.SetNow(now)
	return h
}

// SetNow replaces the physical time source.  The clock stays monotonic
// across the swap: an earlier source's high readings keep the state pinned.
func (h *HLC) SetNow(now func() time.Time) {
	if now != nil {
		h.src.Store(&now)
	}
}

// Mono is clock.Mono, for the packages that keep to real time by design
// and so do not import internal/clock (the ORB's call timers): the
// monotonic reading the HLC stamps from.
func Mono() time.Duration { return clock.Mono() }

// phys is the physical time at Mono reading m.
func (h *HLC) phys(m time.Duration) HLCTime {
	if src := h.src.Load(); src != nil {
		return packHLC((*src)())
	}
	return packHLC(clock.WallAt(m))
}

// advance moves the clock to at least floor and at least one past the
// current state, returning the new reading.  Adding 1 to the packed value
// rolls the logical counter into the physical milliseconds after 2^16
// events in one tick — still monotonic, which is all ordering needs.
func (h *HLC) advance(floor HLCTime) HLCTime {
	for {
		cur := HLCTime(h.state.Load())
		next := cur + 1
		if floor > next {
			next = floor
		}
		if h.state.CompareAndSwap(uint64(cur), uint64(next)) {
			return next
		}
	}
}

// NowAt returns a fresh reading for a local event (send, record, sample)
// that happened at Mono reading m.
func (h *HLC) NowAt(m time.Duration) HLCTime { return h.advance(h.phys(m)) }

// ObserveAt merges a remote reading r into this clock (message receive at
// Mono reading m) and returns the local reading for the receive event,
// which is strictly after both r and every earlier local reading.  A zero
// r is a no-op NowAt.
func (h *HLC) ObserveAt(r HLCTime, m time.Duration) HLCTime {
	floor := h.phys(m)
	if r+1 > floor {
		floor = r + 1
	}
	return h.advance(floor)
}

// Tick returns a reading for an event whose physical time the caller
// already read from its own clock (the recorder's Record path, which takes
// the event time as an argument).
func (h *HLC) Tick(t time.Time) HLCTime { return h.advance(packHLC(t)) }

// Current returns the latest reading without advancing the clock.
func (h *HLC) Current() HLCTime { return HLCTime(h.state.Load()) }

// ClockSink mirrors TraceSink for time coupling: an RPC caller installs one
// in its context, and the client runtime deposits the peer's response HLC
// there so the caller can estimate the peer's clock offset.
type ClockSink struct {
	v atomic.Uint64
}

// Set records a reading; zero readings (no HLC on the wire) are ignored.
func (s *ClockSink) Set(h HLCTime) {
	if h != 0 {
		s.v.Store(uint64(h))
	}
}

// Last returns the most recent reading, or zero.
func (s *ClockSink) Last() HLCTime { return HLCTime(s.v.Load()) }

type clockSinkKey struct{}

// WithClockSink returns a context carrying a clock sink.  The ORB client
// deposits each response's HLC there, so a caller measuring a peer's clock
// wraps one RPC with a sink and reads the peer's reading back out.
func WithClockSink(ctx context.Context, s *ClockSink) context.Context {
	return context.WithValue(ctx, clockSinkKey{}, s)
}

// ClockSinkFrom returns the context's clock sink, or nil.
func ClockSinkFrom(ctx context.Context) *ClockSink {
	s, _ := ctx.Value(clockSinkKey{}).(*ClockSink)
	return s
}

// OffsetSample is one measured clock-offset estimate for a peer.
type OffsetSample struct {
	Peer        string
	Offset      time.Duration // peer clock minus local clock
	Uncertainty time.Duration // half-RTT plus HLC quantization
	At          time.Time     // local clock when measured
}

// EstimateOffset derives a bounded offset estimate from one RPC exchange,
// PTP-style: t1 and t4 are the local send and receive times, peer is the
// HLC the peer stamped on its response.  Assuming the peer stamped midway
// through the exchange, its clock leads ours by peer − (t1+t4)/2, with an
// error bound of half the round trip plus the HLC's 1 ms quantization.
//
// The estimate reads the peer's *HLC* physical component, which after
// coupling is an upper bound over the cluster's fastest clock rather than
// the peer's raw wall reading; see DESIGN.md §11 for why that bias is
// acceptable for flagging, not correcting, skew.
func EstimateOffset(t1, t4 time.Time, peer HLCTime) (OffsetSample, bool) {
	if peer == 0 || t4.Before(t1) {
		return OffsetSample{}, false
	}
	rtt := t4.Sub(t1)
	mid := t1.Add(rtt / 2)
	return OffsetSample{
		Offset:      peer.Physical().Sub(mid),
		Uncertainty: rtt/2 + time.Millisecond,
		At:          t4,
	}, true
}

// OffsetTable holds the latest offset estimate per peer for one node.
type OffsetTable struct {
	mu    sync.Mutex
	peers map[string]OffsetSample
}

// Observe stores the latest estimate for a peer.
func (t *OffsetTable) Observe(s OffsetSample) {
	if s.Peer == "" {
		return
	}
	t.mu.Lock()
	if t.peers == nil {
		t.peers = make(map[string]OffsetSample)
	}
	t.peers[s.Peer] = s
	t.mu.Unlock()
}

// Lookup returns the latest estimate for a peer.
func (t *OffsetTable) Lookup(peer string) (OffsetSample, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	s, ok := t.peers[peer]
	return s, ok
}

// Peers returns all current estimates in unspecified order.
func (t *OffsetTable) Peers() []OffsetSample {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]OffsetSample, 0, len(t.peers))
	for _, s := range t.peers {
		out = append(out, s)
	}
	return out
}

// MeasureOffset records one offset measurement from host toward peer and
// exports it as the clock_offset_ms / clock_offset_unc_ms gauges (both in
// milliseconds).  Returns false when the exchange yielded no usable reading.
func MeasureOffset(host, peer string, t1, t4 time.Time, peerHLC HLCTime) bool {
	s, ok := EstimateOffset(t1, t4, peerHLC)
	if !ok {
		return false
	}
	s.Peer = peer
	NodeOffsets(host).Observe(s)
	reg := Node(host)
	reg.Gauge(L("clock_offset_ms", "peer", peer)).Set(s.Offset.Milliseconds())
	reg.Gauge(L("clock_offset_unc_ms", "peer", peer)).Set(s.Uncertainty.Milliseconds())
	return true
}
