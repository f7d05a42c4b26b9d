package experiments

import (
	"errors"
	"fmt"
	"time"

	"itv/internal/atm"
	"itv/internal/cluster"
)

// E1Topology reproduces Fig. 1 / §3.1: the Orlando configuration — servers
// on a shared fabric, settops partitioned into neighborhoods by IP, with
// 50 Kb/s upstream and 6 Mb/s downstream per settop — and the admission
// behaviour those constraints imply, including what it takes to meet the
// trial's 1,000-concurrent-user target from a 4,000-settop community.
func E1Topology() *Table {
	cfg := cluster.Orlando()
	c := cluster.New(cfg)
	c.Start()
	defer c.Stop()

	const community = 4000
	perNbhd := community / 6
	for _, s := range c.Servers {
		for _, nb := range s.Spec.Neighborhoods {
			for i := 0; i < perNbhd; i++ {
				c.Fabric.AddSettop(fmt.Sprintf("10.%s.%d.%d", nb, i/250, i%250+1))
			}
		}
	}

	t := &Table{
		Title:  "E1 (Fig. 1, §3.1): Orlando topology and admission limits",
		Header: []string{"metric", "value"},
	}
	t.Rows = append(t.Rows,
		row("servers", num(int64(len(c.Servers)))),
		row("neighborhoods", "6 (2 per server)"),
		row("settops provisioned", num(community)),
		row("settop upstream", "50 Kb/s"),
		row("settop downstream", "6 Mb/s"),
	)

	// Per-settop: a second 4 Mb/s movie stream must be refused.
	host := "10.1.0.1"
	first, err := c.Fabric.Allocate(c.Servers[0].Spec.Host, host, 4*atm.Mbps, atm.CBR)
	if err != nil {
		t.Rows = append(t.Rows, row("ERROR", err.Error()))
		return t
	}
	_, err2 := c.Fabric.Allocate(c.Servers[0].Spec.Host, host, 4*atm.Mbps, atm.CBR)
	t.Rows = append(t.Rows,
		row("concurrent 4 Mb/s streams per settop", fmt.Sprintf("1 (second denied: %v)", errors.Is(err2, atm.ErrInsufficient))))
	_ = c.Fabric.Release(first.ID)

	// Per-server trunk: admit streams until the trunk is full.
	admitted := 0
	var ids []string
	for i := 0; ; i++ {
		h := fmt.Sprintf("10.1.%d.%d", i/250, i%250+1)
		conn, err := c.Fabric.Allocate(c.Servers[0].Spec.Host, h, 4*atm.Mbps, atm.CBR)
		if err != nil {
			break
		}
		ids = append(ids, conn.ID)
		admitted++
	}
	for _, id := range ids {
		_ = c.Fabric.Release(id)
	}
	clusterCap := admitted * len(c.Servers)
	needed := int64(1000) * 4 * atm.Mbps / int64(len(c.Servers)) / atm.Mbps
	t.Rows = append(t.Rows,
		row("concurrent 4 Mb/s streams per server trunk", num(int64(admitted))),
		row("cluster capacity (3 servers)", num(int64(clusterCap))),
		row("trial target (§3.1)", "1000 concurrent of 4000"),
		row("per-server trunk needed for target", fmt.Sprintf("%d Mb/s", needed)),
	)
	return t
}

// E2AppDownload reproduces Fig. 3 + §9.3: application start-up time is the
// download time at the deployed 1 MB/s, so a 2–4 MB application takes
// 2–4 s — masked by cover that appears within 0.5 s.
func E2AppDownload() *Table {
	cfg := cluster.Orlando()
	// §9.3's 1 MByte/s download requires 8 Mb/s to the settop.
	cfg.SettopDown = 8 * atm.Mbps
	cfg.Apps = map[string][]byte{
		"small-app":  make([]byte, 2<<20),
		"medium-app": make([]byte, 3<<20),
		"large-app":  make([]byte, 4<<20),
	}
	c := cluster.New(cfg)
	c.Start()
	defer c.Stop()

	st := c.NewSettop("1", 0)
	c.MustWaitFor("settop boots", func() bool {
		_, err := st.Boot()
		return err == nil
	})

	t := &Table{
		Title:  "E2 (Fig. 3, §9.3): application download at 1 MB/s",
		Header: []string{"application", "size", "cover", "full start-up", "paper"},
	}
	for _, app := range []struct {
		name  string
		sizMB int
		paper string
	}{
		{"small-app", 2, "2s"},
		{"medium-app", 3, "3s"},
		{"large-app", 4, "4s"},
	} {
		cover, full, err := st.ChangeChannel(app.name)
		if err != nil {
			t.Rows = append(t.Rows, row(app.name, "ERROR", err.Error()))
			continue
		}
		t.Rows = append(t.Rows, row(app.name,
			fmt.Sprintf("%d MB", app.sizMB), secs(cover), secs(full), "~"+app.paper))
	}
	t.Rows = append(t.Rows, row("cover bound (§9.3)", "", "<= 0.5s", "", "0.5s"))
	return t
}

// E3MovieOpen reproduces Fig. 4 + §3.4.4: the movie-open sequence, and the
// claim that "most of the name resolutions occur only the first time a
// movie is opened" — warm opens issue fewer messages than cold ones.
func E3MovieOpen() *Table {
	c := cluster.New(cluster.Orlando())
	c.Start()
	defer c.Stop()

	st := c.NewSettop("1", 0)
	c.MustWaitFor("settop boots", func() bool {
		_, err := st.Boot()
		return err == nil
	})

	// Resolutions the replicas served, counted in the handler before the
	// reply leaves: a caller that has its answer finds it counted.  (Every
	// request a name-service endpoint received would also count elector,
	// audit and re-register stragglers that fall inside the open.)
	nsResolves := func() int64 {
		var total int64
		for _, s := range c.Servers {
			total += s.Metrics().Counter("names_resolves").Value()
		}
		return total
	}
	settopSent := func() int64 { return st.Session().Ep.Stats().Sent }

	measure := func(title string) (rpcs, resolves int64, err error) {
		sentBefore, nsBefore := settopSent(), nsResolves()
		if err := st.OpenMovie(title); err != nil {
			return 0, 0, err
		}
		rpcs = settopSent() - sentBefore
		resolves = nsResolves() - nsBefore
		if err := st.CloseMovie(); err != nil {
			return rpcs, resolves, err
		}
		return rpcs, resolves, nil
	}

	t := &Table{
		Title:  "E3 (Fig. 4): movie-open message counts, cold vs warm",
		Header: []string{"open", "settop RPCs", "name resolutions"},
	}
	coldR, coldN, err := measure("T2")
	if err != nil {
		t.Rows = append(t.Rows, row("ERROR", err.Error(), ""))
		return t
	}
	warmR, warmN, err := measure("T2")
	if err != nil {
		t.Rows = append(t.Rows, row("ERROR", err.Error(), ""))
		return t
	}
	t.Rows = append(t.Rows,
		row("first (cold caches)", num(coldR), num(coldN)),
		row("subsequent (warm)", num(warmR), num(warmN)),
		row("paper", "resolve once, reuse ref (§3.4.2)", "fewer when warm"),
	)
	return t
}

// E12ResponseTime reproduces §9.3's response-time discipline over a run of
// channel changes and VCR operations: viewers see a response within 0.5 s
// (cover), full applications in 2–4 s, VCR operations within the familiar
// few seconds.
func E12ResponseTime() *Table {
	cfg := cluster.Orlando()
	cfg.SettopDown = 8 * atm.Mbps
	c := cluster.New(cfg)
	c.Start()
	defer c.Stop()

	st := c.NewSettop("2", 0)
	c.MustWaitFor("settop boots", func() bool {
		_, err := st.Boot()
		return err == nil
	})

	apps := []string{"navigator", "vod", "shopping", "games"}
	var coverMax, fullMin, fullMax, fullSum time.Duration
	n := 0
	for i := 0; i < 40; i++ {
		cover, full, err := st.ChangeChannel(apps[i%len(apps)])
		if err != nil {
			continue
		}
		n++
		if cover > coverMax {
			coverMax = cover
		}
		if fullMin == 0 || full < fullMin {
			fullMin = full
		}
		if full > fullMax {
			fullMax = full
		}
		fullSum += full
	}

	// VCR operations on an open movie: pause and resume round trips.
	vcrOK := "yes"
	if err := st.OpenMovie("T2"); err != nil {
		vcrOK = "open failed: " + err.Error()
	} else {
		pb, _ := st.Playback()
		if err := pb.Movie.Pause(); err != nil {
			vcrOK = "pause failed"
		} else if err := pb.Movie.Play(-1); err != nil {
			vcrOK = "resume failed"
		}
		_ = st.CloseMovie()
	}

	t := &Table{
		Title:  "E12 (§9.3): response times over 40 channel changes",
		Header: []string{"metric", "measured", "paper"},
	}
	t.Rows = append(t.Rows,
		row("channel changes completed", num(int64(n)), ""),
		row("cover latency (max)", secs(coverMax), "<= 0.5s"),
		row("full app start-up (min)", secs(fullMin), "2s"),
		row("full app start-up (mean)", secs(fullSum/time.Duration(max(n, 1))), "2-4s"),
		row("full app start-up (max)", secs(fullMax), "4s"),
		row("VCR pause/resume round trips", vcrOK, "a few seconds incl. UI"),
	)
	return t
}

// E13Restart reproduces §9.5's debugging workflow: kill a service, let the
// SSC restart it, and measure the client-visible interruption, which the
// rebinding library keeps brief.
func E13Restart() *Table {
	c := cluster.New(cluster.Orlando())
	c.Start()
	defer c.Stop()

	st := c.NewSettop("1", 0)
	c.MustWaitFor("settop boots", func() bool {
		_, err := st.Boot()
		return err == nil
	})
	if _, err := st.DownloadApp("navigator"); err != nil {
		return &Table{Title: "E13: setup failed: " + err.Error()}
	}

	srv := c.ServerFor("1")
	var gaps []time.Duration
	const kills = 10
	for i := 0; i < kills; i++ {
		if err := srv.SSC.KillService("rds-1"); err != nil {
			continue
		}
		start := c.Clk.Now()
		c.MustWaitFor("download succeeds after restart", func() bool {
			_, err := st.DownloadApp("navigator")
			return err == nil
		})
		gaps = append(gaps, c.Clk.Now().Sub(start))
	}
	var sum, maxGap time.Duration
	for _, g := range gaps {
		sum += g
		if g > maxGap {
			maxGap = g
		}
	}
	t := &Table{
		Title:  "E13 (§9.5, §8.1): service kill -> SSC restart, client-visible gap",
		Header: []string{"metric", "value", "paper"},
	}
	t.Rows = append(t.Rows,
		row("kills", num(int64(len(gaps))), ""),
		row("mean gap (simulated)", secs(sum/time.Duration(max(len(gaps), 1))), "\"only a very brief interruption\""),
		row("max gap (simulated)", secs(maxGap), ""),
		row("SSC restarts recorded", num(srv.SSC.Restarts()), ""),
	)
	return t
}
