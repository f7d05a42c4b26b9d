package cluster

import (
	"testing"
	"time"

	"itv/internal/atm"
	"itv/internal/clock"
	"itv/internal/core"
	"itv/internal/media"
	"itv/internal/mms"
	"itv/internal/orb"
	"itv/internal/settop"
)

// twoServers is a compact configuration for integration tests.
func twoServers() Config {
	movies := []media.MovieInfo{
		{Title: "T2", Size: 4_000_000_000, Bitrate: 4 * atm.Mbps},
		{Title: "Duck Amuck", Size: 300_000_000, Bitrate: 3 * atm.Mbps},
	}
	return Config{
		Servers: []ServerSpec{
			{Name: "forge", Host: "192.168.0.1", Neighborhoods: []string{"1"}, Movies: movies},
			{Name: "kiln", Host: "192.168.0.2", Neighborhoods: []string{"2"}, Movies: movies},
		},
		Apps: map[string][]byte{
			"navigator": make([]byte, 2<<20),
			"vod":       make([]byte, 3<<20),
		},
		Kernel: make([]byte, 1<<20),
	}
}

func startCluster(t *testing.T, cfg Config) *Cluster {
	t.Helper()
	c := New(cfg)
	c.Start()
	t.Cleanup(c.Stop)
	return c
}

func waitFor(t *testing.T, c *Cluster, what string, cond func() bool) {
	t.Helper()
	if !c.WaitFor(cond) {
		t.Fatalf("condition never held: %s", what)
	}
}

// play passes d of simulated playback in WaitFor's steps, so the settop's
// heartbeats keep pace with the RAS polls that judge them: in one jump a
// poll can run before the first heartbeat after it, find the settop silent
// for all of d, and reclaim its movie (E10 passes its playback the same
// way).
func play(c *Cluster, d time.Duration) {
	if c.FakeClk == nil {
		return
	}
	until := c.Clk.Now().Add(d)
	c.WaitFor(func() bool { return !c.Clk.Now().Before(until) })
}

// bootSettop provisions and boots one settop in a neighborhood.
func bootSettop(t *testing.T, c *Cluster, nbhd string, idx int) *settop.Settop {
	t.Helper()
	st := c.NewSettop(nbhd, idx)
	var bootErr error
	waitFor(t, c, "settop boots", func() bool {
		_, bootErr = st.Boot()
		return bootErr == nil
	})
	return st
}

func TestClusterBootsOrlandoConfiguration(t *testing.T) {
	c := startCluster(t, Orlando())

	// Fig. 8's name space: svc/mds per server name, svc/cmgr per
	// neighborhood, svc/mms, svc/csc.
	admin, err := orb.NewEndpoint(c.NW.Host("192.168.0.250"))
	if err != nil {
		t.Fatal(err)
	}
	defer admin.Close()
	sess := core.NewSession(admin, c.Servers[0].NS().RootRef(), c.Clk)

	for _, name := range []string{"forge", "kiln", "anvil"} {
		if _, err := sess.Root.Resolve("svc/mds/" + name); err != nil {
			t.Fatalf("svc/mds/%s: %v", name, err)
		}
	}
	for _, nb := range []string{"1", "2", "3", "4", "5", "6"} {
		if _, err := sess.Root.Resolve("svc/cmgr/" + nb); err != nil {
			t.Fatalf("svc/cmgr/%s: %v", nb, err)
		}
	}
	for _, svc := range []string{"svc/mms", "svc/csc", "svc/vod", "svc/kernel"} {
		if _, err := sess.Root.Resolve(svc); err != nil {
			t.Fatalf("%s: %v", svc, err)
		}
	}
}

func TestSettopBootDownloadAndChannelChange(t *testing.T) {
	c := startCluster(t, twoServers())
	st := bootSettop(t, c, "1", 0)

	// Fig. 3: the AM downloads an application through the RDS.
	cover, full, err := st.ChangeChannel("navigator")
	if err != nil {
		t.Fatal(err)
	}
	// §9.3: cover within 0.5 s; the full application in the seconds range.
	if cover > 500*time.Millisecond {
		t.Fatalf("cover latency %v exceeds 0.5s", cover)
	}
	// 2 MB at the settop's 6 Mb/s allowance is ~2.8 s.
	if full < time.Second || full > 10*time.Second {
		t.Fatalf("full app latency %v out of expected range", full)
	}
	if st.CurrentApp() != "navigator" {
		t.Fatalf("current app = %q", st.CurrentApp())
	}
}

func TestPlayMovieEndToEnd(t *testing.T) {
	c := startCluster(t, twoServers())
	st := bootSettop(t, c, "1", 0)
	if _, err := st.DownloadApp("vod"); err != nil {
		t.Fatal(err)
	}
	if err := st.OpenMovie("T2"); err != nil {
		t.Fatal(err)
	}
	if c.Fabric.Conns() != 1 {
		t.Fatalf("fabric conns = %d, want 1 CBR stream", c.Fabric.Conns())
	}

	// Playback advances with simulated time.
	play(c, 20*time.Second)
	pos, playing, err := st.PollPlayback()
	if err != nil {
		t.Fatal(err)
	}
	if !playing || pos <= 0 {
		t.Fatalf("pos=%d playing=%v", pos, playing)
	}

	// Close releases the connection (§3.4.5).
	if err := st.CloseMovie(); err != nil {
		t.Fatal(err)
	}
	if c.Fabric.Conns() != 0 {
		t.Fatalf("fabric conns = %d after close", c.Fabric.Conns())
	}
}

func TestSettopCrashReclaimsResources(t *testing.T) {
	// §3.5.1: the MMS polls the RAS about settops playing movies and
	// reclaims network and disk resources when one dies.
	c := startCluster(t, twoServers())
	st := bootSettop(t, c, "1", 0)
	if err := st.OpenMovie("T2"); err != nil {
		t.Fatal(err)
	}
	if c.Fabric.Conns() != 1 {
		t.Fatal("stream missing")
	}

	st.Crash()
	waitFor(t, c, "resources reclaimed after settop crash", func() bool {
		return c.Fabric.Conns() == 0
	})
	// The MDS's movie object is gone too.
	total := 0
	for _, s := range c.Servers {
		if m := s.MDS(); m != nil {
			total += len(m.OpenMovies())
		}
	}
	if total != 0 {
		t.Fatalf("open movies after reclaim = %d", total)
	}
}

func TestMDSCrashPlaybackRecovery(t *testing.T) {
	// §3.5.2: if the MDS crashes mid-play, the application closes the
	// movie and reopens it through the MMS, which picks another replica.
	c := startCluster(t, twoServers())
	st := bootSettop(t, c, "1", 0)
	if err := st.OpenMovie("T2"); err != nil {
		t.Fatal(err)
	}
	play(c, 30*time.Second)
	pos1, _, err := st.PollPlayback()
	if err != nil {
		t.Fatal(err)
	}
	if pos1 <= 0 {
		t.Fatal("no progress before crash")
	}

	// Which server is streaming?  Kill that MDS (no restart).
	pb, _ := st.Playback()
	var victim *Server
	for _, s := range c.Servers {
		if m := s.MDS(); m != nil && m.Ref().Addr == pb.Movie.Ref.Addr {
			victim = s
		}
	}
	if victim == nil {
		t.Fatal("could not locate streaming MDS")
	}
	if err := victim.SSC.StopService("mds"); err != nil {
		t.Fatal(err)
	}

	// The viewer notices delivery stopped.
	waitFor(t, c, "application detects MDS death", func() bool {
		_, _, err := st.PollPlayback()
		return orb.Dead(err)
	})

	// Recovery: close + reopen; the MMS must choose the surviving replica
	// and playback resumes at the settop's saved position.
	waitFor(t, c, "playback recovers on another replica", func() bool {
		return st.RecoverPlayback() == nil
	})
	pb2, _ := st.Playback()
	if pb2.Movie.Ref.Addr == pb.Movie.Ref.Addr {
		t.Fatal("recovered on the dead replica")
	}
	pos2, playing, err := st.PollPlayback()
	if err != nil || !playing {
		t.Fatalf("post-recovery poll: pos=%d playing=%v err=%v", pos2, playing, err)
	}
	if pos2 < pos1 {
		t.Fatalf("resumed at %d, before crash position %d", pos2, pos1)
	}
}

func TestMMSFailover(t *testing.T) {
	// §3.5.3 + §5.2: the MMS primary crashes; auditing removes its
	// binding; the backup binds and rebuilds state by querying the MDSes;
	// clients' rebinding stubs keep working.
	c := startCluster(t, twoServers())
	st := bootSettop(t, c, "1", 0)
	if err := st.OpenMovie("T2"); err != nil {
		t.Fatal(err)
	}

	primary := c.MMSPrimary()
	if primary == nil {
		t.Fatal("no MMS primary")
	}
	// Stop the primary replica.  What §5.2 promises is that another
	// replica takes the binding over: the backup, or a fresh replica the
	// CSC's reconciliation starts on the same server — so track the
	// instance, not the server.
	stopped := primary.MMS()
	if err := primary.SSC.StopService("mms"); err != nil {
		t.Fatal(err)
	}
	var promoted *mms.Service
	waitFor(t, c, "another MMS replica takes over", func() bool {
		if p := c.MMSPrimary(); p != nil {
			promoted = p.MMS()
		}
		return promoted != nil && promoted != stopped
	})

	// State rebuilt: the promoted replica knows about the open movie.
	waitFor(t, c, "state rebuilt from MDS queries", func() bool {
		return promoted.OpenCount() == 1
	})

	// The settop's stub rebinds transparently: closing the movie works.
	if err := st.CloseMovie(); err != nil {
		t.Fatalf("close after failover: %v", err)
	}
	if c.Fabric.Conns() != 0 {
		t.Fatalf("conns = %d after post-failover close", c.Fabric.Conns())
	}
}

func TestServiceKillRestartInvisible(t *testing.T) {
	// §9.5: "we can simply copy a corrected binary to the appropriate
	// servers and kill the service.  The service will be restarted running
	// the new version.  Clients using the service see no disruption."
	c := startCluster(t, twoServers())
	st := bootSettop(t, c, "1", 0)
	if _, err := st.DownloadApp("navigator"); err != nil {
		t.Fatal(err)
	}

	srv := c.ServerFor("1")
	if err := srv.SSC.KillService("rds-1"); err != nil {
		t.Fatal(err)
	}
	waitFor(t, c, "rds restarted", func() bool {
		for _, name := range srv.SSC.Running() {
			if name == "rds-1" {
				return true
			}
		}
		return false
	})
	// The settop's cached reference is stale; the rebinder recovers.
	waitFor(t, c, "download succeeds after restart", func() bool {
		_, err := st.DownloadApp("vod")
		return err == nil
	})
	if srv.SSC.Restarts() == 0 {
		t.Fatal("SSC recorded no restart")
	}
}

func TestServerRebootRepopulatedByCSC(t *testing.T) {
	// §6.3: "If a server machine is restarted in a functioning cluster,
	// the CSC detects the presence of the new SSC and instructs it to
	// start the appropriate services."
	c := startCluster(t, twoServers())
	kiln := c.ServerByName("kiln")
	kiln.Restart()
	waitFor(t, c, "rebooted server repopulated", func() bool {
		running := map[string]bool{}
		for _, name := range kiln.SSC.Running() {
			running[name] = true
		}
		return running["mds"] && running["cmgr-2"] && running["rds-2"] && running["boot"]
	})
	// The rebooted server's MDS re-registered under its name.
	admin, err := orb.NewEndpoint(c.NW.Host("192.168.0.250"))
	if err != nil {
		t.Fatal(err)
	}
	defer admin.Close()
	sess := core.NewSession(admin, c.Servers[0].NS().RootRef(), c.Clk)
	waitFor(t, c, "mds/kiln rebound", func() bool {
		ref, err := sess.Root.Resolve("svc/mds/kiln")
		return err == nil && admin.Ping(ref) == nil
	})
}

// TestRebootOfTheCSCPrimarysServer: the same reboot when the acting CSC
// lived on the rebooted machine.  Nothing on the fresh server exports an
// object yet, and its SSC used to replay only a non-empty live set, so its
// RAS never learned that it knew everything there was to know, vouched for
// every object of the old incarnation, the dead CSC's binding was never
// audited away, the backup never took over and nobody repopulated the
// server.  Which replica wins svc/csc at start-up is a race the first
// server's usually wins; the test forces the other outcome.
func TestRebootOfTheCSCPrimarysServer(t *testing.T) {
	c := startCluster(t, twoServers())
	forge, kiln := c.ServerByName("forge"), c.ServerByName("kiln")
	if forge.CSC() != nil && forge.CSC().IsPrimary() {
		if err := forge.SSC.KillService("csc"); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, c, "kiln's CSC replica acting", func() bool {
		return kiln.CSC() != nil && kiln.CSC().IsPrimary()
	})
	kiln.Restart()
	waitFor(t, c, "rebooted server repopulated by the surviving CSC", func() bool {
		running := map[string]bool{}
		for _, name := range kiln.SSC.Running() {
			running[name] = true
		}
		return running["mds"] && running["cmgr-2"] && running["rds-2"] && running["boot"]
	})
}

func TestVODPositionSurvivesSettopReboot(t *testing.T) {
	// §10.1.1: position is tracked on both sides; after a settop reboot,
	// the VOD service supplies the resume point.
	c := startCluster(t, twoServers())
	st := bootSettop(t, c, "1", 0)
	if err := st.OpenMovie("T2"); err != nil {
		t.Fatal(err)
	}
	play(c, 60*time.Second)
	pos1, _, err := st.PollPlayback() // checkpoints with the VOD service
	if err != nil {
		t.Fatal(err)
	}
	st.Crash()
	waitFor(t, c, "crash reclaimed", func() bool { return c.Fabric.Conns() == 0 })

	// Reboot and reopen: playback resumes at the service-side position.
	var bootErr error
	waitFor(t, c, "settop reboots", func() bool {
		_, bootErr = st.Boot()
		return bootErr == nil
	})
	waitFor(t, c, "movie reopens after reboot", func() bool {
		return st.OpenMovie("T2") == nil
	})
	pos2, _, err := st.PollPlayback()
	if err != nil {
		t.Fatal(err)
	}
	if pos2 < pos1 {
		t.Fatalf("resumed at %d, want >= checkpointed %d", pos2, pos1)
	}
}

// TestNeighborhoodIsolation: settops in different neighborhoods use their
// own cmgr/rds replicas — through the one MMS, which holds one Connection
// Manager reference per neighborhood and must never serve a settop from a
// reference it resolved for another neighborhood's.
func TestNeighborhoodIsolation(t *testing.T) {
	c := startCluster(t, twoServers())
	st1 := bootSettop(t, c, "1", 0)
	st2 := bootSettop(t, c, "2", 0)
	cm1 := c.CmgrPrimary("1").Cmgr("1")
	cm2 := c.CmgrPrimary("2").Cmgr("2")
	// Twice: the second round runs on held references.
	for round := 0; round < 2; round++ {
		if err := st1.OpenMovie("Duck Amuck"); err != nil {
			t.Fatal(err)
		}
		if err := st2.OpenMovie("Duck Amuck"); err != nil {
			t.Fatal(err)
		}
		if cm1.Held(st1.Host()) != 1 || cm1.Held(st2.Host()) != 0 {
			t.Fatalf("round %d: cmgr-1 held: %d/%d", round, cm1.Held(st1.Host()), cm1.Held(st2.Host()))
		}
		if cm2.Held(st2.Host()) != 1 || cm2.Held(st1.Host()) != 0 {
			t.Fatalf("round %d: cmgr-2 held: %d/%d", round, cm2.Held(st2.Host()), cm2.Held(st1.Host()))
		}
		if err := st1.CloseMovie(); err != nil {
			t.Fatal(err)
		}
		if err := st2.CloseMovie(); err != nil {
			t.Fatal(err)
		}
		if cm1.Held(st1.Host()) != 0 || cm2.Held(st2.Host()) != 0 {
			t.Fatalf("round %d: held after close: %d/%d", round, cm1.Held(st1.Host()), cm2.Held(st2.Host()))
		}
	}
}

func TestKernelFetchAndBootTime(t *testing.T) {
	c := startCluster(t, twoServers())
	st := c.NewSettop("2", 7)
	var d time.Duration
	var err error
	waitFor(t, c, "boot", func() bool {
		d, err = st.Boot()
		return err == nil
	})
	if d <= 0 {
		t.Fatalf("boot duration = %v", d)
	}
	if st.Neighborhood() != "2" {
		t.Fatalf("neighborhood = %q", st.Neighborhood())
	}
}

// TestStartStopRepeatedly: Start returns only once every name-service
// replica knows the master, so no service's first bind meets a slave that
// has nobody to forward it to — which used to panic Start about once in 150
// runs.  Two hundred clusters in a row, or as many as fit a minute.
func TestStartStopRepeatedly(t *testing.T) {
	cfg := twoServers()
	cfg.Apps, cfg.Kernel = nil, nil
	wall := clock.Real() // the budget is real time; the clusters run on fake clocks
	began := wall.Now()
	n := 0
	for ; n < 200 && wall.Since(began) < time.Minute; n++ {
		c := New(cfg)
		c.Start()
		for _, s := range c.Servers {
			_, _, master, _ := s.NS().Status()
			if master == "" {
				t.Fatalf("start %d: %s's replica knows no master after Start", n, s.Spec.Name)
			}
		}
		c.Stop()
	}
	t.Logf("%d consecutive Start/Stop", n)
}
