package obs

import (
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"time"
)

// Flight recorder: a bounded per-node ring of the decisions that matter when
// reconstructing a failover — object deaths, audit evictions, unbinds and
// rebinds, elections, SSC restarts, CSC ping failures.  Counters say *how
// often* those happened; the recorder says *in what order, on which node,
// and as part of which causal trace*.  Every node exposes its ring through
// the ORB's node operation _events and the debug server's /debug/events;
// itv-admin merges the rings into one cluster timeline.
//
// Event names follow the subsystem_event convention (lowercase, underscore-
// separated, at least two words) — enforced by itv-vet's obsname check.

// DefaultEventRing is the per-node ring capacity.  Big enough to hold the
// full story of a failover plus the steady-state chatter around it; small
// enough that a ring is never a memory concern.  Tests size a recorder
// of their own through NewRecorder's size argument.
const DefaultEventRing = 256

// Event is one recorded decision.
type Event struct {
	Seq    uint64    // per-node sequence, 1-based, assigned at record time
	Time   time.Time // injected-clock time of the decision
	HLC    HLCTime   // hybrid-logical-clock reading, stamped at record time
	Node   string    // host identity of the recording node
	Trace  uint64    // causal trace id; 0 = not part of a sampled trace
	Name   string    // subsystem_event
	Detail string    // free-form context (names, addresses, errors)
}

// String formats one event as a timeline line.
func (e Event) String() string {
	trace := "-"
	if e.Trace != 0 {
		trace = fmt.Sprintf("%016x", e.Trace)
	}
	return fmt.Sprintf("%s %-15s %s %-22s %s",
		e.Time.UTC().Format("15:04:05.000000"), e.Node, trace, e.Name, e.Detail)
}

// Recorder is one node's bounded event ring.  Recording is mutex-guarded
// and cheap (no allocation beyond the detail strings the caller builds);
// it happens at failure-handling decision sites, never on the RPC hot path.
type Recorder struct {
	node string
	hlc  *HLC

	mu   sync.Mutex
	ring ring[Event]
	seq  uint64 // total events ever recorded
}

// NewRecorder returns a recorder for a node identity with the given ring
// capacity (DefaultEventRing if size <= 0).
func NewRecorder(node string, size int) *Recorder {
	return newRecorder(node, NodeHLC(node), size)
}

func newRecorder(node string, hlc *HLC, size int) *Recorder {
	if size <= 0 {
		size = DefaultEventRing
	}
	return &Recorder{node: node, hlc: hlc, ring: ring[Event]{buf: make([]Event, 0, size), max: size}}
}

// Record appends one event.  t is the injected clock's now — passed in by
// the caller because obs must not depend on any particular clock.  The
// node's hybrid logical clock is ticked with t, so the event carries both
// the raw local reading (Time) and the causally-comparable one (HLC).
func (r *Recorder) Record(t time.Time, trace uint64, name, detail string) {
	h := r.hlc.Tick(t)
	r.mu.Lock()
	r.seq++
	r.ring.push(Event{Seq: r.seq, Time: t, HLC: h, Node: r.node, Trace: trace, Name: name, Detail: detail})
	r.mu.Unlock()
}

// Events returns the ring's contents, oldest first.
func (r *Recorder) Events() []Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.ring.items()
}

// EventsAfter returns up to max events with Seq > afterSeq, oldest first
// (max <= 0 means no limit) — the pagination primitive behind the _events
// RPC, so a scraper can resume from the last Seq it saw instead of
// re-reading the whole ring.  Events that fell off the ring before the
// cursor are simply gone; the caller detects the gap by comparing the first
// returned Seq against afterSeq+1.
func (r *Recorder) EventsAfter(afterSeq uint64, max int) []Event {
	all := r.Events()
	i := sort.Search(len(all), func(i int) bool { return all[i].Seq > afterSeq })
	out := all[i:]
	if max > 0 && len(out) > max {
		out = out[:max]
	}
	return out
}

// MergeEvents merges per-node event lists into one timeline ordered by
// hybrid logical clock, then wall time, node and per-node sequence.  The
// order is causal under clock skew: whenever causality crossed nodes
// through an RPC, the receiver's HLC is strictly above the sender's,
// whatever their wall clocks said.  Events recorded without an HLC (zero)
// sort by wall time among themselves, first.
func MergeEvents(lists ...[]Event) []Event {
	var out []Event
	for _, l := range lists {
		out = append(out, l...)
	}
	sort.SliceStable(out, func(i, j int) bool {
		a, b := &out[i], &out[j]
		switch {
		case a.HLC != b.HLC:
			return a.HLC < b.HLC
		case !a.Time.Equal(b.Time):
			return a.Time.Before(b.Time)
		case a.Node != b.Node:
			return a.Node < b.Node
		}
		return a.Seq < b.Seq
	})
	return out
}

// Ambiguous reports whether the HLC ordering of two events from different
// nodes is within the measured clock uncertainty unc between those nodes —
// i.e. the merge printed them in *an* order, but the measurements cannot
// rule out the opposite one.  Same-node pairs are ordered by construction;
// pairs on the same sampled trace are taken as causally coupled (their
// HLCs met through the RPCs that carried the trace).  What remains are
// concurrent cross-node events, and those are ambiguous whenever their
// physical readings are closer together than the error bound.
func Ambiguous(a, b Event, unc time.Duration) bool {
	if a.Node == b.Node || a.HLC == 0 || b.HLC == 0 {
		return false
	}
	if a.Trace != 0 && a.Trace == b.Trace {
		return false
	}
	d := b.HLC.Physical().Sub(a.HLC.Physical())
	if d < 0 {
		d = -d
	}
	return d <= unc
}

// FilterTrace keeps only the events of one causal trace.
func FilterTrace(events []Event, trace uint64) []Event {
	out := make([]Event, 0, len(events))
	for _, e := range events {
		if e.Trace == trace {
			out = append(out, e)
		}
	}
	return out
}

// MinUncertainty is the clock uncertainty WriteEvents is given when no
// larger one was measured: what the HLC's millisecond quantization alone
// cannot order.
const MinUncertainty = 2 * time.Millisecond

// WriteEvents writes a merged timeline — the one format of itv-admin,
// /debug/events and the CI failure dump — one event per line: the HLC
// reading, then the event's wall time, node, trace, name and detail.  It
// marks events whose order relative to the previous line is ambiguous
// ("?~"): different nodes, no shared trace, and physical clocks within unc
// of each other.  Ambiguity is flagged rather than silently linearized —
// the printed order is the HLC's best effort, the marker says these clocks
// cannot prove it.
func WriteEvents(w io.Writer, events []Event, unc time.Duration) {
	for i, e := range events {
		mark := "  "
		if i > 0 && Ambiguous(events[i-1], e, unc) {
			mark = "?~"
		}
		fmt.Fprintf(w, "%s %-18s %s\n", mark, e.HLC, e.String())
	}
}

// DumpEventsOnFailure writes the merged cluster timeline to w when the
// ITV_FLIGHT_DUMP environment variable is set — called from TestMain on a
// failing run so CI logs carry the failover timeline for flaky-test triage.
// A value of "1" dumps to w only; any other value is additionally treated
// as a file path that receives a copy, which CI uploads as a workflow
// artifact.  It reports whether a dump was written.
func DumpEventsOnFailure(w io.Writer) bool {
	dst := os.Getenv("ITV_FLIGHT_DUMP")
	if dst == "" {
		return false
	}
	dump := func(w io.Writer) {
		fmt.Fprintln(w, "=== flight recorder (ITV_FLIGHT_DUMP), HLC order ===")
		writeEvents(w, records(nil))
	}
	dump(w)
	if dst != "1" {
		f, err := os.Create(dst)
		if err != nil {
			fmt.Fprintf(w, "flight dump file: %v\n", err)
			return true
		}
		dump(f)
		f.Close()
	}
	return true
}
