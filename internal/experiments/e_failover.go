package experiments

import (
	"fmt"
	"time"

	"itv/internal/atm"
	"itv/internal/cluster"
	"itv/internal/media"
	"itv/internal/orb"
)

// E4Failover reproduces §9.7: primary/backup fail-over time is bounded by
// the sum of three tunable intervals —
//
//	backup bind retry + name-service RAS poll + RAS peer poll
//
// which at the deployed settings (10 s + 10 s + 5 s) gives a maximum of
// 25 seconds.  The experiment kills the MMS primary repeatedly under
// several interval settings and compares the measured fail-over times in
// simulated seconds against the predicted bound.
func E4Failover() *Table {
	t := &Table{
		Title: "E4 (§9.7): MMS fail-over time vs polling intervals (simulated seconds)",
		Header: []string{"bindRetry", "nsPoll", "rasPoll", "predicted max",
			"measured mean", "measured max", "trials"},
	}
	settings := []struct {
		bind, ns, ras time.Duration
	}{
		{10 * time.Second, 10 * time.Second, 5 * time.Second}, // deployed (§9.7)
		{5 * time.Second, 5 * time.Second, 2 * time.Second},
		{2 * time.Second, 2 * time.Second, 1 * time.Second},
	}
	for _, s := range settings {
		mean, maxv, trials := failoverTrials(s.bind, s.ns, s.ras, 6)
		predicted := s.bind + s.ns + s.ras
		t.Rows = append(t.Rows, row(
			secs(s.bind), secs(s.ns), secs(s.ras), secs(predicted),
			secs(mean), secs(maxv), num(int64(trials)),
		))
	}
	t.Rows = append(t.Rows, row("paper:", "10s", "5s", "25s max", "", "", ""))
	return t
}

// failoverTrials runs n MMS-primary kills and measures time to a live
// primary being resolvable again.
func failoverTrials(bind, nsPoll, rasPoll time.Duration, n int) (mean, maxv time.Duration, done int) {
	cfg := twoServerConfig()
	cfg.Tunables = cluster.Tunables{
		BindRetry: bind,
		NSAudit:   nsPoll,
		RASPoll:   rasPoll,
	}
	c := cluster.New(cfg)
	c.Start()
	defer c.Stop()

	var sum time.Duration
	for i := 0; i < n; i++ {
		var primary *cluster.Server
		if !c.WaitFor(func() bool { primary = c.MMSPrimary(); return primary != nil }) {
			break
		}
		// Track the replica instance, not the server: after a restart the
		// same server hosts a fresh replica.
		primSvc := primary.MMS()
		start := c.Clk.Now()
		if err := primary.SSC.StopService("mms"); err != nil {
			break
		}
		ok := c.WaitFor(func() bool {
			p := c.MMSPrimary()
			return p != nil && p.MMS() != primSvc && p.MMS().IsPrimary()
		})
		if !ok {
			break
		}
		d := c.Clk.Now().Sub(start)
		sum += d
		if d > maxv {
			maxv = d
		}
		done++
		// Bring the stopped replica back as the new backup for the next
		// trial.  The CSC usually beats us to it — its reconciliation
		// restarts the service per the placement plan (§6.2).
		if err := primary.SSC.StartService("mms"); err != nil && !orb.IsApp(err, orb.ExcAlreadyBound) {
			break
		}
	}
	if done > 0 {
		mean = sum / time.Duration(done)
	}
	return mean, maxv, done
}

// twoServerConfig is the standard small test-bed for fail-over and media
// experiments.
func twoServerConfig() cluster.Config {
	movies := []media.MovieInfo{
		{Title: "T2", Size: 4_000_000_000, Bitrate: 4 * atm.Mbps},
		{Title: "Duck Amuck", Size: 300_000_000, Bitrate: 3 * atm.Mbps},
	}
	return cluster.Config{
		Servers: []cluster.ServerSpec{
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

// E10MDSCrash reproduces §3.5.2 + §10.1.1: playback survives MDS crashes —
// the application closes and reopens the movie, the MMS picks a surviving
// replica, and the VOD position redundancy resumes play at the right spot.
func E10MDSCrash() *Table {
	c := cluster.New(twoServerConfig())
	c.Start()
	defer c.Stop()

	st := c.NewSettop("1", 0)
	c.MustWaitFor("settop boots", func() bool {
		_, err := st.Boot()
		return err == nil
	})

	const trials = 8
	recovered, positionOK := 0, 0
	var totalOutage time.Duration
	for i := 0; i < trials; i++ {
		if err := st.OpenMovie("T2"); err != nil {
			break
		}
		if c.FakeClk != nil {
			// 30 s of playback, passed in WaitFor's steps so the settop's
			// heartbeats keep pace with the RAS polls that judge them: in one
			// 30 s jump a poll could run before the first heartbeat after it,
			// find the settop silent for 30 s, and reclaim its movie.
			played := c.Clk.Now().Add(30 * time.Second)
			c.WaitFor(func() bool { return !c.Clk.Now().Before(played) })
		}
		posBefore, _, err := st.PollPlayback()
		if err != nil {
			break
		}

		// Kill the streaming MDS (it restarts via the SSC, but the client
		// recovers first by reopening on the other replica).
		pb, _ := st.Playback()
		var victim *cluster.Server
		for _, s := range c.Servers {
			if m := s.MDS(); m != nil && m.Ref().Addr == pb.Movie.Ref.Addr {
				victim = s
			}
		}
		if victim == nil {
			break
		}
		start := c.Clk.Now()
		_ = victim.SSC.KillService("mds")

		c.WaitFor(func() bool {
			_, _, err := st.PollPlayback()
			return orb.Dead(err)
		})
		ok := c.WaitFor(func() bool { return st.RecoverPlayback() == nil })
		if !ok {
			_ = st.CloseMovie()
			continue
		}
		totalOutage += c.Clk.Now().Sub(start)
		recovered++
		pos2, _, err := st.PollPlayback()
		if err == nil && pos2 >= posBefore {
			positionOK++
		}
		_ = st.CloseMovie()
	}

	t := &Table{
		Title:  "E10 (§3.5.2, §10.1.1): playback recovery across MDS crashes",
		Header: []string{"metric", "value", "paper"},
	}
	t.Rows = append(t.Rows,
		row("crashes injected", num(trials), ""),
		row("playbacks recovered", num(int64(recovered)), "\"most MDS failures can be covered\""),
		row("resumed at/after crash position", num(int64(positionOK)), "resume where the movie stopped"),
	)
	if recovered > 0 {
		t.Rows = append(t.Rows,
			row("mean detect+reopen time (simulated)", secs(totalOutage/time.Duration(recovered)), "brief"))
	}
	if c.Fabric.Conns() != 0 {
		t.Rows = append(t.Rows, row("LEAK", fmt.Sprintf("%d connections", c.Fabric.Conns()), ""))
	}
	return t
}
