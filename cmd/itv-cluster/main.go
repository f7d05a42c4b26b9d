// itv-cluster boots the full Orlando configuration on the in-memory
// test-bed and runs an interactive-TV load against it: settops boot,
// change channels, play movies, and occasionally crash, while injected
// server faults exercise the recovery machinery.  A status line is printed
// each simulated minute.
//
//	go run ./cmd/itv-cluster -settops 24 -minutes 30 -chaos
package main

import (
	"flag"
	"fmt"
	"log"
	"math/rand"
	"time"

	"itv/internal/cluster"
	"itv/internal/obs"
	"itv/internal/orb"
	"itv/internal/settop"
)

func main() {
	nSettops := flag.Int("settops", 12, "settops to boot (spread over 6 neighborhoods)")
	minutes := flag.Int("minutes", 10, "simulated minutes to run")
	chaos := flag.Bool("chaos", false, "inject service kills and settop crashes")
	seed := flag.Int64("seed", 1995, "random seed")
	debugAddr := flag.String("debug", "", "serve cluster-wide /metrics, /healthz and /debug/pprof on this address")
	flag.Parse()
	rng := rand.New(rand.NewSource(*seed))

	if *debugAddr != "" {
		// The simulated servers all live in this process, so one endpoint
		// exposes every node's registry, grouped by host.
		addr, err := obs.ServeDebug(*debugAddr)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("debug server on http://%s/metrics\n", addr)
	}

	c := cluster.New(cluster.Orlando())
	fmt.Println("booting the Orlando cluster (3 servers, 6 neighborhoods)...")
	c.Start()
	defer c.Stop()

	var settops []*settop.Settop
	for i := 0; i < *nSettops; i++ {
		nb := fmt.Sprintf("%d", i%6+1)
		st := c.NewSettop(nb, i/6)
		c.MustWaitFor("settop boot", func() bool {
			_, err := st.Boot()
			return err == nil
		})
		settops = append(settops, st)
	}
	fmt.Printf("%d settops booted\n", len(settops))

	apps := []string{"navigator", "vod", "shopping", "games"}
	titles := []string{"T2", "Casablanca", "Duck Amuck"}

	for minute := 1; minute <= *minutes; minute++ {
		// Viewer activity.
		for _, st := range settops {
			if !st.Up() {
				if _, err := st.Boot(); err == nil {
					fmt.Printf("  settop %s rebooted\n", st.Host())
				}
				continue
			}
			switch rng.Intn(5) {
			case 0:
				if _, _, err := st.ChangeChannel(apps[rng.Intn(len(apps))]); err != nil {
					fmt.Printf("  channel change failed on %s: %v\n", st.Host(), err)
				}
			case 1:
				if _, ok := st.Playback(); !ok {
					title := titles[rng.Intn(len(titles))]
					if err := st.OpenMovie(title); err != nil {
						fmt.Printf("  open %q failed on %s: %v\n", title, st.Host(), err)
					}
				}
			case 2:
				if _, ok := st.Playback(); ok {
					if _, _, err := st.PollPlayback(); orb.Dead(err) {
						if err := st.RecoverPlayback(); err != nil {
							fmt.Printf("  recovery failed on %s: %v\n", st.Host(), err)
						} else {
							fmt.Printf("  settop %s recovered its movie on another replica\n", st.Host())
						}
					}
				}
			case 3:
				_ = st.CloseMovie()
			}
		}

		// Chaos.
		if *chaos && rng.Intn(3) == 0 {
			srv := c.Servers[rng.Intn(len(c.Servers))]
			switch rng.Intn(3) {
			case 0:
				if err := srv.SSC.KillService("mds"); err == nil {
					fmt.Printf("  CHAOS: killed MDS on %s (SSC restarts it)\n", srv.Spec.Name)
				}
			case 1:
				if err := srv.SSC.KillService("mms"); err == nil {
					fmt.Printf("  CHAOS: killed MMS on %s\n", srv.Spec.Name)
				}
			case 2:
				st := settops[rng.Intn(len(settops))]
				if st.Up() {
					st.Crash()
					fmt.Printf("  CHAOS: settop %s lost power\n", st.Host())
				}
			}
		}

		if c.FakeClk != nil {
			for i := 0; i < 120; i++ {
				c.FakeClk.Advance(500 * time.Millisecond)
				time.Sleep(200 * time.Microsecond)
			}
		} else {
			time.Sleep(time.Minute)
		}

		playing := 0
		for _, st := range settops {
			if _, ok := st.Playback(); ok {
				playing++
			}
		}
		mmsSrv := c.MMSPrimary()
		mmsName := "NONE"
		if mmsSrv != nil {
			mmsName = mmsSrv.Spec.Name
		}
		fmt.Printf("[minute %2d] streams=%d playing=%d mms-primary=%s ns-master=%s\n",
			minute, c.Fabric.Conns(), playing, mmsName, nsMaster(c))
	}

	if c.Fabric.Conns() > 0 {
		// Open movies are fine; leaked ones are not.  Close everything and
		// verify reclamation.
		for _, st := range settops {
			if err := st.CloseMovie(); err != nil {
				fmt.Printf("  close on %s: %v\n", st.Host(), err)
			}
		}
		if !c.WaitFor(func() bool { return c.Fabric.Conns() == 0 }) {
			fmt.Println("LEAK DIAGNOSTICS:")
			for _, conn := range c.Fabric.List() {
				fmt.Printf("  %s %s %s->%s %d b/s\n", conn.ID, conn.Kind, conn.From, conn.To, conn.Rate)
			}
			for _, s := range c.Servers {
				if m := s.MMS(); m != nil {
					fmt.Printf("  mms on %s: primary=%v open=%d\n", s.Spec.Name, m.IsPrimary(), m.OpenCount())
				}
				if m := s.MDS(); m != nil {
					fmt.Printf("  mds on %s: load=%d\n", s.Spec.Name, len(m.OpenMovies()))
				}
			}
			log.Fatal("connections leaked")
		}
	}
	if err := c.Fabric.CheckInvariants(); err != nil {
		log.Fatalf("bandwidth invariant violated: %v", err)
	}
	fmt.Println("run complete: all connections drained, bandwidth accounting consistent")
}

func nsMaster(c *cluster.Cluster) string {
	for _, s := range c.Servers {
		if ns := s.NS(); ns != nil && ns.IsMaster() {
			return s.Spec.Name
		}
	}
	return "NONE"
}
