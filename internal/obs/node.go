package obs

import (
	"fmt"
	"io"
	"sort"
	"sync"
)

// hostRecord is everything one host reports about itself — the state behind
// the ORB's itv.Node object (DESIGN.md §7) and the HTTP debug surface.  All
// the endpoints and services of one simulated server, or the one real
// process on 127.0.0.1, share their host's record, and records live as long
// as the process.
//
// Each part is built on first use, so a host pays only for what it reports:
// a settop that never samples health never allocates a window ring.
type hostRecord struct {
	host    string
	reg     *Registry
	rec     *Recorder
	hlc     *HLC
	offsets *OffsetTable
	health  *Health
	slow    *SlowLedger
}

var (
	nodesMu sync.Mutex // guards nodes and every record's part pointers
	nodes   = make(map[string]*hostRecord)
)

// part returns one part of host's record (made on first mention); get runs
// under nodesMu and builds the part if the host never used it.
func part[T any](host string, get func(*hostRecord) T) T {
	nodesMu.Lock()
	defer nodesMu.Unlock()
	n := nodes[host]
	if n == nil {
		n = &hostRecord{host: host}
		nodes[host] = n
	}
	return get(n)
}

func (n *hostRecord) registry() *Registry {
	if n.reg == nil {
		n.reg = NewRegistry()
	}
	return n.reg
}

func (n *hostRecord) clock() *HLC {
	if n.hlc == nil {
		n.hlc = NewHLC(nil)
	}
	return n.hlc
}

func (n *hostRecord) recorder() *Recorder {
	if n.rec == nil {
		n.rec = newRecorder(n.host, n.clock(), DefaultEventRing)
	}
	return n.rec
}

func (n *hostRecord) offsetTable() *OffsetTable {
	if n.offsets == nil {
		n.offsets = &OffsetTable{}
	}
	return n.offsets
}

func (n *hostRecord) healthRing() *Health {
	if n.health == nil {
		n.health = newHealth(n.host, n.registry(), n.clock(), DefaultHealthWindows)
	}
	return n.health
}

func (n *hostRecord) ledger() *SlowLedger {
	if n.slow == nil {
		n.slow = NewSlowLedger(n.host, DefaultSlowRing)
	}
	return n.slow
}

// Node returns the registry for a host identity (a synthetic memnet IP, or
// "127.0.0.1" for a real TCP process).  Every layer of the host feeds it;
// the _metrics operation and the debug server expose it.
func Node(host string) *Registry { return part(host, (*hostRecord).registry) }

// NodeRecorder returns host's flight recorder.
func NodeRecorder(host string) *Recorder { return part(host, (*hostRecord).recorder) }

// NodeHLC returns host's hybrid logical clock: every endpoint, recorder and
// health sampler on the host shares it, so the node's events interleave
// correctly no matter which component stamps them.
func NodeHLC(host string) *HLC { return part(host, (*hostRecord).clock) }

// NodeOffsets returns host's table of measured peer clock offsets.
func NodeOffsets(host string) *OffsetTable { return part(host, (*hostRecord).offsetTable) }

// NodeHealth returns host's health ring over its registry.
func NodeHealth(host string) *Health { return part(host, (*hostRecord).healthRing) }

// NodeSlowLedger returns host's slow-call ledger.
func NodeSlowLedger(host string) *SlowLedger { return part(host, (*hostRecord).ledger) }

// Hosts lists every host with a record, sorted.
func Hosts() []string {
	nodesMu.Lock()
	out := make([]string, 0, len(nodes))
	for h := range nodes {
		out = append(out, h)
	}
	nodesMu.Unlock()
	sort.Strings(out)
	return out
}

// records returns the named hosts' records (every host's when none is
// named) as they stand: a reader renders the parts a host has and builds
// none.
func records(hosts []string) []hostRecord {
	if len(hosts) == 0 {
		hosts = Hosts()
	}
	nodesMu.Lock()
	defer nodesMu.Unlock()
	out := make([]hostRecord, 0, len(hosts))
	for _, h := range hosts {
		if n := nodes[h]; n != nil {
			out = append(out, *n)
		}
	}
	return out
}

// The four renderers below are the debug server's pages.  Given one record
// they write what that node's own itv-admin scrape would show; given
// several, metrics and ledgers go under "# node <host>" headers and events
// and health merge into one cluster view.

func header(w io.Writer, recs []hostRecord, n hostRecord) {
	if len(recs) > 1 {
		fmt.Fprintf(w, "# node %s\n", n.host)
	}
}

func writeMetrics(w io.Writer, recs []hostRecord) {
	for _, n := range recs {
		if n.reg != nil {
			header(w, recs, n)
			n.reg.WriteText(w)
		}
	}
}

func writeEvents(w io.Writer, recs []hostRecord) {
	WriteEvents(w, MergeEvents(eventLists(recs)...), MinUncertainty)
}

func eventLists(recs []hostRecord) [][]Event {
	lists := make([][]Event, 0, len(recs))
	for _, n := range recs {
		if n.rec != nil {
			lists = append(lists, n.rec.Events())
		}
	}
	return lists
}

func writeHealth(w io.Writer, recs []hostRecord) {
	reports := make([]*HealthReport, 0, len(recs))
	for _, n := range recs {
		if n.health != nil {
			reports = append(reports, n.health.Report(n.hlc.Current().Physical(), 0))
		}
	}
	RenderHealth(w, reports, 24)
}

func writeSlow(w io.Writer, recs []hostRecord) {
	for _, n := range recs {
		if n.slow != nil {
			header(w, recs, n)
			WriteSlowCalls(w, n.slow.Calls())
		}
	}
}
