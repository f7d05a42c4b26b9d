package cluster

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"itv/internal/obs"
	"itv/internal/orb"
	"itv/internal/ssc"
)

// TestFailoverCausalTrace is the end-to-end check of the distributed
// tracing story: kill the MMS primary under the fake clock, then scrape
// every node's flight recorder over the wire (the built-in _events call,
// exactly what itv-admin does) and reconstruct the failover as ONE causally
// ordered timeline under ONE trace id:
//
//	ssc_object_death (primary's node)
//	  -> names_audit_evicted (name-service master)
//	  -> names_rebound / core_elector_promoted (backup's node)
//
// The trace must span at least two machines: the death is observed on the
// old primary's server, the promotion happens on the backup's.
func TestFailoverCausalTrace(t *testing.T) {
	c := startCluster(t, twoServers())

	primary := c.MMSPrimary()
	if primary == nil {
		t.Fatal("no MMS primary")
	}

	scrape := newScraper(t, c)

	// Crash-stop the primary: no restart, so the backup must win the name
	// through audit eviction — the §5.2/§4.7 failover path.
	if err := primary.SSC.StopService("mms"); err != nil {
		t.Fatal(err)
	}
	waitFor(t, c, "MMS backup takes over", func() bool {
		p := c.MMSPrimary()
		return p != nil && p != primary
	})
	backup := c.MMSPrimary()

	// The promotion event carries the adopted failure trace; wait until it
	// shows up (the audit/adoption machinery runs on simulated intervals).
	var trace uint64
	waitFor(t, c, "traced mms promotion recorded", func() bool {
		for _, ev := range scrape() {
			if ev.Name == "core_elector_promoted" && ev.Trace != 0 &&
				strings.Contains(ev.Detail, "svc/mms") {
				trace = ev.Trace
				return true
			}
		}
		return false
	})

	chain := obs.FilterTrace(scrape(), trace)
	byName := func(name string) *obs.Event {
		for i := range chain {
			if chain[i].Name == name {
				return &chain[i]
			}
		}
		return nil
	}
	death := byName("ssc_object_death")
	evicted := byName("names_audit_evicted")
	rebound := byName("names_rebound")
	promoted := byName("core_elector_promoted")
	for name, ev := range map[string]*obs.Event{
		"ssc_object_death":      death,
		"names_audit_evicted":   evicted,
		"names_rebound":         rebound,
		"core_elector_promoted": promoted,
	} {
		if ev == nil {
			t.Fatalf("trace %016x missing %s; chain:\n%s", trace, name, timeline(chain))
		}
	}

	// Causal order: death happened before the eviction, which happened
	// before the promotion.
	if death.HLC > evicted.HLC || evicted.HLC > promoted.HLC {
		t.Fatalf("timeline out of causal order:\n%s", timeline(chain))
	}

	// The one trace spans at least two machines.
	nodes := map[string]bool{}
	for _, ev := range chain {
		nodes[ev.Node] = true
	}
	if len(nodes) < 2 {
		t.Fatalf("trace %016x confined to %v, want >= 2 nodes:\n%s", trace, nodes, timeline(chain))
	}
	if !nodes[primary.Spec.Host] || !nodes[backup.Spec.Host] {
		t.Fatalf("trace should touch old primary %s and backup %s, got %v",
			primary.Spec.Host, backup.Spec.Host, nodes)
	}
}

// TestSettopRebindJoinsFailureTrace: a settop's rebind after an MMS
// fail-over joins the trace that began with the old primary's death.  The
// settop resolves through its name-service fail-over wrapper (it was given
// both servers at boot), so the wrapper must carry the rebinding call's
// context — its trace sink — to the name service and back.
func TestSettopRebindJoinsFailureTrace(t *testing.T) {
	c := startCluster(t, twoServers())
	st := bootSettop(t, c, "1", 0)
	if err := st.OpenMovie("T2"); err != nil {
		t.Fatal(err)
	}
	primary := c.MMSPrimary()
	if primary == nil {
		t.Fatal("no MMS primary")
	}
	scrape := newScraper(t, c)
	if err := primary.SSC.StopService("mms"); err != nil {
		t.Fatal(err)
	}
	var trace uint64
	waitFor(t, c, "traced mms promotion recorded", func() bool {
		for _, ev := range scrape() {
			if ev.Name == "core_elector_promoted" && ev.Trace != 0 && strings.Contains(ev.Detail, "svc/mms") {
				trace = ev.Trace
				return true
			}
		}
		return false
	})

	// The close goes through the new primary whether or not it has rebuilt
	// the movie's state yet (NotFound), so either answer follows the rebind.
	if err := st.CloseMovie(); err != nil && !orb.IsApp(err, orb.ExcNotFound) {
		t.Fatalf("close after failover: %v", err)
	}
	var rebinds []obs.Event
	for _, ev := range obs.NodeRecorder(st.Host()).Events() {
		if ev.Name == "core_rebind_success" && ev.Trace == trace {
			rebinds = append(rebinds, ev)
		}
	}
	if len(rebinds) != 1 || !strings.HasPrefix(rebinds[0].Detail, "svc/mms ") {
		t.Fatalf("settop %s recorded %d rebinds on trace %016x, want the one svc/mms rebind:\n%s",
			st.Host(), len(rebinds), trace, timeline(obs.NodeRecorder(st.Host()).Events()))
	}
}

// newScraper dials an operator endpoint and returns a function that scrapes
// every node's flight recorder over the wire (the built-in _events call)
// and merges them in HLC order, exactly what itv-admin does.  The per-node
// rings are shared by every test in this package (recorders are keyed by
// host), so the scraper baselines each node's sequence number at creation
// and reports only events recorded afterwards — otherwise a trace latched
// from a scrape can be a previous test's, half rotated out of the ring.
func newScraper(t *testing.T, c *Cluster) func() []obs.Event {
	t.Helper()
	obs.NodeHLC("192.168.0.250").SetNow(c.Clk.Now) // keep the scraper on simulated time
	admin, err := orb.NewEndpoint(c.NW.Host("192.168.0.250"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(admin.Close)
	rawScrape := func() []obs.Event {
		var lists [][]obs.Event
		for _, s := range c.Servers {
			addr := fmt.Sprintf("%s:%d", s.Spec.Host, ssc.WellKnownPort)
			evs, err := admin.EventsOf(addr)
			if err != nil {
				t.Fatalf("EventsOf(%s): %v", addr, err)
			}
			lists = append(lists, evs)
		}
		return obs.MergeEvents(lists...)
	}
	base := map[string]uint64{}
	for _, ev := range rawScrape() {
		if ev.Seq > base[ev.Node] {
			base[ev.Node] = ev.Seq
		}
	}
	return func() []obs.Event {
		all := rawScrape()
		fresh := all[:0]
		for _, ev := range all {
			if ev.Seq > base[ev.Node] {
				fresh = append(fresh, ev)
			}
		}
		return fresh
	}
}

// TestFailoverCausalTraceSkewed re-runs the failover scenario with the old
// primary's machine running an hour fast: wall-clock timestamps now place
// the death AFTER the promotion it caused, so merging node timelines by
// wall time tells the failover story backwards.  The HLC merge must still
// order it death -> evicted -> rebound -> promoted, because the hybrid
// clocks couple on every RPC along the causal chain (§11).
func TestFailoverCausalTraceSkewed(t *testing.T) {
	cfg := twoServers()
	forgeSkew := time.Hour
	cfg.Servers[0].ClockSkew = forgeSkew // forge's wall clock runs an hour fast
	c := startCluster(t, cfg)

	// The scenario needs the death stamped by the fast clock and the
	// promotion by the true one: make forge the MMS primary, failing over
	// once if kiln won the boot-time election (KillService restarts the
	// killed replica, so it comes back as the backup).
	forge := c.ServerByName("forge")
	kiln := c.ServerByName("kiln")
	if c.MMSPrimary() != forge {
		old := kiln.MMS()
		if err := kiln.SSC.KillService("mms"); err != nil {
			t.Fatal(err)
		}
		waitFor(t, c, "mms normalizes onto forge", func() bool {
			m := kiln.MMS()
			return c.MMSPrimary() == forge && m != nil && m != old
		})
	}

	scrape := newScraper(t, c)

	// Crash-stop forge's primary; kiln's backup must win the name through
	// audit eviction.
	if err := forge.SSC.StopService("mms"); err != nil {
		t.Fatal(err)
	}
	waitFor(t, c, "MMS backup takes over", func() bool {
		p := c.MMSPrimary()
		return p != nil && p == kiln
	})

	var trace uint64
	waitFor(t, c, "traced mms promotion recorded", func() bool {
		for _, ev := range scrape() {
			if ev.Name == "core_elector_promoted" && ev.Trace != 0 &&
				strings.Contains(ev.Detail, "svc/mms") {
				trace = ev.Trace
				return true
			}
		}
		return false
	})

	merged := obs.FilterTrace(scrape(), trace)
	idx := func(name string) int {
		for i := range merged {
			if merged[i].Name == name {
				return i
			}
		}
		t.Fatalf("trace %016x missing %s; chain:\n%s", trace, name, timeline(merged))
		return -1
	}
	death := idx("ssc_object_death")
	evicted := idx("names_audit_evicted")
	rebound := idx("names_rebound")
	promoted := idx("core_elector_promoted")

	// Wall clocks tell the story backwards: the death was stamped an hour
	// in the future, after the promotion it caused.  (If this fails, the
	// skew never made it into the event timestamps and the HLC assertion
	// below proves nothing.)
	if !merged[death].Time.After(merged[promoted].Time) {
		t.Fatalf("expected wall-clock misorder under %v skew: death at %v, promotion at %v",
			forgeSkew, merged[death].Time, merged[promoted].Time)
	}

	// The HLC merge still gets causality right.
	if !(death < evicted && evicted < rebound && evicted < promoted && rebound < promoted) {
		t.Fatalf("HLC order wrong: death=%d evicted=%d rebound=%d promoted=%d\n%s",
			death, evicted, rebound, promoted, timeline(merged))
	}

	// The coupled events are not flagged ambiguous even under huge skew:
	// they share a trace, so their order is known causally.
	if obs.Ambiguous(merged[death], merged[promoted], 2*time.Millisecond) {
		t.Fatal("causally coupled events flagged ambiguous")
	}
}

// TestClusterHealthSurface exercises the live health surface end to end:
// every node's _health RPC serves windowed metric snapshots, and the
// RED-style render (what itv-admin watch shows) covers per-method traffic
// from at least two nodes.
func TestClusterHealthSurface(t *testing.T) {
	c := startCluster(t, twoServers())

	obs.NodeHLC("192.168.0.251").SetNow(c.Clk.Now) // keep the scraper on simulated time
	admin, err := orb.NewEndpoint(c.NW.Host("192.168.0.251"))
	if err != nil {
		t.Fatal(err)
	}
	defer admin.Close()

	fetch := func() []*obs.HealthReport {
		var reports []*obs.HealthReport
		for _, s := range c.Servers {
			addr := fmt.Sprintf("%s:%d", s.Spec.Host, ssc.WellKnownPort)
			rep, err := admin.HealthOf(addr, 0)
			if err != nil {
				t.Fatalf("HealthOf(%s): %v", addr, err)
			}
			reports = append(reports, rep)
		}
		return reports
	}

	// The samplers tick on the fake clock; drive time until every node has
	// rolled at least two windows (rates and deltas need a window pair).
	waitFor(t, c, "health windows on every node", func() bool {
		for _, rep := range fetch() {
			if len(rep.Windows) < 2 {
				return false
			}
		}
		return true
	})

	reports := fetch()
	var b strings.Builder
	obs.RenderHealth(&b, reports, 24)
	out := b.String()
	for _, s := range c.Servers {
		if !strings.Contains(out, s.Spec.Host) {
			t.Fatalf("render missing node %s:\n%s", s.Spec.Host, out)
		}
	}
	// The boot sequence alone generates ORB traffic on every node, so the
	// per-method RED table must have rows with quantiles.
	if !strings.Contains(out, "P99") || !strings.Contains(out, "itv.") {
		t.Fatalf("render has no per-method RED rows:\n%s", out)
	}
	for _, rep := range reports {
		if rep.HLC == 0 {
			t.Fatalf("node %s reports zero HLC", rep.Node)
		}
	}
}

func timeline(evs []obs.Event) string {
	var b strings.Builder
	obs.WriteEvents(&b, evs, obs.MinUncertainty)
	return b.String()
}
