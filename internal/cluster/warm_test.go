package cluster

import (
	"strings"
	"testing"

	"itv/internal/cmgr"
	"itv/internal/obs"
	"itv/internal/orb"
	"itv/internal/settop"
)

// nodeTotals sums every node's counters by name.  A histogram contributes
// its _count row under its full labelled name, so the calls of one method
// can be told from the rest.  The registries live as long as the process:
// only the difference of two readings means anything.
func nodeTotals() map[string]int64 {
	t := make(map[string]int64)
	for _, h := range obs.Hosts() {
		for _, s := range obs.Node(h).Snapshot() {
			if s.Kind == obs.KindCounter && (!strings.Contains(s.Name, "{") || strings.HasSuffix(s.Name, "_count")) {
				t[s.Name] += int64(s.Value)
			}
		}
	}
	return t
}

// quiesce settles the fake clock, so no background ORB call is left in
// flight, and returns the counters read at that point: what moves them
// afterwards is the caller's own doing.
func quiesce(c *Cluster) map[string]int64 {
	c.FakeClk.Settle()
	return nodeTotals()
}

// mirrorPushes counts the Connection Manager's primary-to-backup table
// pushes (§10.1.1).  Whether a backup has registered as a mirror yet
// depends on how much simulated time start-up took; the pushes ride on
// allocate and release and are not part of the flow under count.
func mirrorPushes(t map[string]int64) int64 {
	var n int64
	for name, v := range t {
		if strings.HasPrefix(name, "orb_call_latency{") &&
			(strings.Contains(name, ".mirrorPut\"") || strings.Contains(name, ".mirrorDel\"")) {
			n += v
		}
	}
	return n
}

// movieSession is the benchmark's movie_session op: 15 settop RPCs.
func movieSession(t *testing.T, st *settop.Settop, title string) {
	t.Helper()
	if err := st.OpenMovie(title); err != nil {
		t.Fatalf("open %q: %v", title, err)
	}
	for p := 0; p < 4; p++ {
		if _, playing, err := st.PollPlayback(); err != nil || !playing {
			t.Fatalf("poll %q: playing=%v, %v", title, playing, err)
		}
	}
	pb, open := st.Playback()
	if !open {
		t.Fatal("no playback after open")
	}
	if err := pb.Movie.Pause(); err != nil {
		t.Fatal(err)
	}
	if err := pb.Movie.Play(-1); err != nil {
		t.Fatal(err)
	}
	if err := st.CloseMovie(); err != nil {
		t.Fatal(err)
	}
}

// TestWarmFlowsLeaveTheNameServiceAlone pins what a warm movie session and
// a warm channel change cost the cluster, with every call signed: no name
// resolution anywhere — the settop's rebinders hold their references
// (§3.4.2) and so do the services behind them — and exactly 22 ORB calls a
// session: the settop's 15, plus one probe per MDS replica (3), allocate,
// the MDS open, closeMovie and release.
func TestWarmFlowsLeaveTheNameServiceAlone(t *testing.T) {
	cfg := Orlando()
	cfg.EnableAuth = true
	c := startCluster(t, cfg)
	st := bootSettop(t, c, "1", 0)
	titles := cfg.Servers[0].Movies
	apps := []string{"navigator", "vod", "shopping", "games"}

	// Warm-up: every rebinder on the settop, the MMS's listing and its
	// Connection Manager reference, the RDS's.
	for _, m := range titles {
		movieSession(t, st, m.Title)
	}
	if _, _, err := st.ChangeChannel(apps[0]); err != nil {
		t.Fatal(err)
	}

	const n = 6 // each title twice
	before := quiesce(c)
	for i := 0; i < n; i++ {
		movieSession(t, st, titles[i%len(titles)].Title)
	}
	after := quiesce(c)
	if d := after["names_resolves"] - before["names_resolves"]; d != 0 {
		t.Errorf("%d warm movie sessions cost %d name resolutions, want 0", n, d)
	}
	calls := after["orb_client_calls"] - before["orb_client_calls"] - (mirrorPushes(after) - mirrorPushes(before))
	if calls != 22*n {
		t.Errorf("%d warm movie sessions cost %d ORB calls (%.2f each), want exactly 22 each", n, calls, float64(calls)/n)
	}
	if d := after["core_rebinds"] - before["core_rebinds"]; d != 0 {
		t.Errorf("core_rebinds moved by %d in steady state", d)
	}
	// Every one of those calls (and pushes) is a request frame and a reply
	// frame on an idle connection: one transport read each, two a call.
	remote := after["orb_client_calls"] - before["orb_client_calls"] -
		(after["orb_client_local_calls"] - before["orb_client_local_calls"])
	if reads := after["transport_reads"] - before["transport_reads"]; reads != 2*remote {
		t.Errorf("%d remote ORB calls took %d transport reads, want two each", remote, reads)
	}

	before = quiesce(c)
	for i := 0; i < n; i++ {
		if _, _, err := st.ChangeChannel(apps[i%len(apps)]); err != nil {
			t.Fatal(err)
		}
	}
	after = quiesce(c)
	if d := after["names_resolves"] - before["names_resolves"]; d != 0 {
		t.Errorf("%d warm channel changes cost %d name resolutions, want 0", n, d)
	}
}

// TestMovieSessionAllocations pins what a warm, signed movie session
// allocates across the whole cluster: the settop's 15 calls and the 7 they
// fan out to.  The stubs' closures stay on the stack, the rebinder makes
// a trace sink only to rebind, an open registers its movie object without
// copying the object table, and titles and server names decode through
// tables (EXPERIMENTS.md E23).  It reads 23; each of those four cuts,
// undone alone, reads 29 to 61, so the bound sits below the smallest of
// them.
func TestMovieSessionAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts do not hold under the race detector")
	}
	cfg := Orlando()
	cfg.EnableAuth = true
	c := startCluster(t, cfg)
	st := bootSettop(t, c, "1", 0)
	titles := cfg.Servers[0].Movies
	for i := 0; i < 200; i++ {
		movieSession(t, st, titles[i%len(titles)].Title)
	}
	quiesce(c)
	i := 0
	allocs := testing.AllocsPerRun(100, func() {
		movieSession(t, st, titles[i%len(titles)].Title)
		i++
	})
	t.Logf("%.1f allocations per warm movie session", allocs)
	if allocs > 24 {
		t.Errorf("a warm movie session allocates %.1f objects, want ≤ 24", allocs)
	}
}

// cmgrBackup returns neighborhood nbhd's passive Connection Manager replica.
func cmgrBackup(t *testing.T, c *Cluster, nbhd string) *cmgr.Service {
	t.Helper()
	for _, s := range c.Servers {
		if cm := s.Cmgr(nbhd); cm != nil && !cm.IsPrimary() {
			return cm
		}
	}
	t.Fatalf("no cmgr-%s backup placed", nbhd)
	return nil
}

// failCmgrOver crash-stops neighborhood nbhd's Connection Manager primary
// (no restart, no unbind) and waits for backup to win the name through
// audit eviction (§5.2, §4.7).  The CSCs are stopped first: the placement
// plan would otherwise start a fresh replica in the dead one's place, which
// races the backup for the name and, when it wins, serves with an empty
// table — a different story from the one these tests tell.
func failCmgrOver(t *testing.T, c *Cluster, nbhd string, backup *cmgr.Service) {
	t.Helper()
	for _, s := range c.Servers {
		if err := s.SSC.StopService("csc"); err != nil && !orb.IsApp(err, orb.ExcNotFound) {
			t.Fatal(err)
		}
	}
	if err := c.CmgrPrimary(nbhd).SSC.StopService("cmgr-" + nbhd); err != nil {
		t.Fatal(err)
	}
	waitFor(t, c, "cmgr backup takes over", backup.IsPrimary)
}

// TestCloseAfterCmgrFailoverReleasesConnection: a movie is open when its
// neighborhood's Connection Manager primary dies.  The backup takes over
// with the connection table intact (mirrors, §10.1.1) and the fabric still
// carries the bandwidth, so the close must release on the *new* primary.
// Releasing on the reference remembered at open — and discarding the
// dead-reference error — leaked the connection until the settop hit its
// connection limit.
func TestCloseAfterCmgrFailoverReleasesConnection(t *testing.T) {
	c := startCluster(t, twoServers())
	st := bootSettop(t, c, "1", 0)
	backup := cmgrBackup(t, c, "1")
	if err := st.OpenMovie("T2"); err != nil {
		t.Fatal(err)
	}
	waitFor(t, c, "allocation mirrored to the backup", func() bool {
		return backup.Held(st.Host()) == 1
	})

	failCmgrOver(t, c, "1", backup)
	if held := backup.Held(st.Host()); held != 1 {
		t.Fatalf("promoted backup holds %d connections for the settop, want the mirrored 1", held)
	}
	if err := st.CloseMovie(); err != nil {
		t.Fatal(err)
	}
	if held := backup.Held(st.Host()); held != 0 {
		t.Fatalf("after close the new primary still holds %d connections for the settop", held)
	}
	if n := c.Fabric.Conns(); n != 0 {
		t.Fatalf("after close the fabric still carries %d connections", n)
	}
}

// TestCmgrFailoverRebindsServiceReferences: the MMS and the RDS hold their
// Connection Manager reference across calls, so each finds it dead on its
// first call after a fail-over.  That call is the one that replaces it —
// one core_rebinds on the service's node, one resolveAs, success for the
// settop — and the rebind joins the trace that began with the old primary's
// death, as a settop's rebind does.
func TestCmgrFailoverRebindsServiceReferences(t *testing.T) {
	c := startCluster(t, twoServers())
	st := bootSettop(t, c, "1", 0)
	if err := st.OpenMovie("T2"); err != nil { // the MMS resolves cmgr-1
		t.Fatal(err)
	}
	if err := st.CloseMovie(); err != nil {
		t.Fatal(err)
	}
	if _, err := st.DownloadApp("navigator"); err != nil { // the RDS does
		t.Fatal(err)
	}

	scrape := newScraper(t, c)
	failCmgrOver(t, c, "1", cmgrBackup(t, c, "1"))

	// rebound runs one settop operation and requires that it succeeded at
	// the price of exactly one rebind on node and one resolution anywhere.
	rebound := func(what string, node *Server, op func() error) {
		t.Helper()
		rebinds := node.Metrics().Counter("core_rebinds")
		before, rebindsBefore := quiesce(c), rebinds.Value()
		if err := op(); err != nil {
			t.Fatalf("%s after the fail-over: %v", what, err)
		}
		after := quiesce(c)
		if d := rebinds.Value() - rebindsBefore; d != 1 {
			t.Errorf("%s: core_rebinds on %s moved by %d, want 1", what, node.Spec.Name, d)
		}
		if d := after["names_resolves"] - before["names_resolves"]; d != 1 {
			t.Errorf("%s: %d name resolutions, want the one resolveAs", what, d)
		}
	}
	rebound("movie open", c.MMSPrimary(), func() error { return st.OpenMovie("T2") })
	if err := st.CloseMovie(); err != nil {
		t.Fatal(err)
	}
	var rdsNode *Server
	for _, s := range c.Servers {
		if s.RDS("1") != nil {
			rdsNode = s
		}
	}
	rebound("download", rdsNode, func() error { _, err := st.DownloadApp("navigator"); return err })

	// Both rebinds landed on the binding that repaired the eviction, so
	// both carry the failure's trace.
	var traced []obs.Event
	for _, ev := range scrape() {
		if ev.Name == "core_rebind_success" && ev.Trace != 0 && strings.HasPrefix(ev.Detail, "svc/cmgr ") {
			traced = append(traced, ev)
		}
	}
	if len(traced) != 2 {
		t.Fatalf("traced svc/cmgr rebinds = %d, want 2 (the MMS's and the RDS's):\n%s", len(traced), timeline(scrape()))
	}
	chain := obs.FilterTrace(scrape(), traced[0].Trace)
	var death bool
	for _, ev := range chain {
		death = death || ev.Name == "ssc_object_death"
	}
	if !death || traced[1].Trace != traced[0].Trace {
		t.Fatalf("rebinds carry traces %016x and %016x; want both on the trace that holds the primary's death:\n%s",
			traced[0].Trace, traced[1].Trace, timeline(chain))
	}
}
