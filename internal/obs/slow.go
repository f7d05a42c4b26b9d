package obs

import (
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"
)

// The slow-call ledger answers "which call, and where did the time go" for
// the latency tail.  Aggregate histograms show that a p99 exists; the
// ledger keeps the identities: every call whose total latency exceeds an
// adaptive threshold lands in a per-node ring with its method, peer, trace
// ID, HLC stamp and queue/service/flush decomposition.  Admission is two
// atomics and a branch on the fast path — the ring mutex is only touched
// by calls that are already slow.

// DefaultSlowRing is the per-node ledger capacity.
const DefaultSlowRing = 128

// DefaultSlowFloor is the minimum admission threshold: calls faster than
// this are never ledgered no matter how tight the node's latency estimate
// gets, so a healthy microsecond-scale node doesn't ledger its own noise.
const DefaultSlowFloor = 250 * time.Microsecond

// slowMultShift: a call is slow when it exceeds the tail estimate << 2,
// i.e. four times the asymmetric-EWMA tracked tail.
const slowMultShift = 2

// SlowCall is one ledgered invocation.
type SlowCall struct {
	Seq       uint64
	Time      time.Time
	HLC       HLCTime
	Node      string
	Trace     uint64 // 0 when the call was unsampled
	Method    string
	Peer      string
	Total     time.Duration
	Queue     time.Duration
	Service   time.Duration
	Flush     time.Duration
	Threshold time.Duration // admission threshold at capture time
}

// SlowLedger is a per-node ring of slow calls with an adaptive admission
// threshold.  Note is safe for concurrent use and allocation-free; Record
// takes the ring mutex but only runs for admitted (already slow) calls.
type SlowLedger struct {
	node string
	est  atomic.Int64 // asymmetric-EWMA tail estimate, ns

	mu   sync.Mutex
	ring ring[SlowCall] // grows as calls are admitted: a healthy node keeps none
	seq  uint64
}

// NewSlowLedger returns a ledger holding up to size calls.
func NewSlowLedger(node string, size int) *SlowLedger {
	if size < 1 {
		size = 1
	}
	return &SlowLedger{node: node, ring: ring[SlowCall]{max: size}}
}

// Estimate returns the current tail estimate.
func (l *SlowLedger) Estimate() time.Duration { return time.Duration(l.est.Load()) }

// Note feeds one call's total latency to the admission filter and reports
// the threshold in force and whether the call should be ledgered.  The
// estimator is an asymmetric EWMA that chases the tail: it rises fast
// (1/8 of the gap per slower-than-estimate call) and decays slowly (1/1024
// per faster call), so it tracks roughly the upper tail rather than the
// mean, and the threshold — estimate ×4, floored — self-scales with the
// node's normal latency.  The update is one load, one CAS, no retry: a
// lost race drops one sample of a statistical estimator, which is free.
func (l *SlowLedger) Note(total time.Duration) (threshold time.Duration, slow bool) {
	t := int64(total)
	e := l.est.Load()
	var n int64
	if t > e {
		n = e + (t-e)>>3
	} else {
		n = e - e>>10
	}
	l.est.CompareAndSwap(e, n)
	thr := e << slowMultShift
	thr = max(thr, int64(DefaultSlowFloor))
	return time.Duration(thr), t > thr
}

// Record appends one admitted call, assigning its Seq.  The zero Seq is
// never issued.
func (l *SlowLedger) Record(c SlowCall) {
	c.Node = l.node
	l.mu.Lock()
	l.seq++
	c.Seq = l.seq
	l.ring.push(c)
	l.mu.Unlock()
}

// Calls returns the ledgered calls, oldest first.
func (l *SlowLedger) Calls() []SlowCall {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.ring.items()
}

// WriteSlowCalls renders ledger entries as one line per call.
func WriteSlowCalls(w io.Writer, calls []SlowCall) {
	for _, c := range calls {
		trace := "-"
		if c.Trace != 0 {
			trace = fmt.Sprintf("%016x", c.Trace)
		}
		fmt.Fprintf(w, "%6d %s %-14s %-18s %-16s total=%-10s q=%-10s s=%-10s f=%-10s thr=%s\n",
			c.Seq, c.HLC.String(), c.Node, c.Method, trace,
			c.Total, c.Queue, c.Service, c.Flush, c.Threshold)
	}
}
