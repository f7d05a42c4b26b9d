// itv-cluster boots the full Orlando configuration on the in-memory
// test-bed and runs an interactive-TV load against it: settops boot,
// change channels, play movies, and occasionally crash, while injected
// server faults exercise the recovery machinery.  A status line is printed
// each simulated minute.
//
//	go run ./cmd/itv-cluster -settops 24 -minutes 30 -chaos
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"math/rand"
	"os"
	"time"

	"itv/internal/cluster"
	"itv/internal/obs"
	"itv/internal/orb"
	"itv/internal/settop"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil && !errors.Is(err, flag.ErrHelp) {
		log.Fatal(err)
	}
}

// run boots the cluster and drives the load the flags in args describe,
// writing the run's story to w.  It fails on a flag error, on connections
// still open after every settop closed its movie, and on broken bandwidth
// accounting.
func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("itv-cluster", flag.ContinueOnError)
	nSettops := fs.Int("settops", 12, "settops to boot (spread over 6 neighborhoods)")
	minutes := fs.Int("minutes", 10, "simulated minutes to run")
	chaos := fs.Bool("chaos", false, "inject service kills and settop crashes")
	seed := fs.Int64("seed", 1995, "random seed")
	debugAddr := fs.String("debug", "", "serve cluster-wide /metrics, /healthz and /debug/pprof on this address")
	if err := fs.Parse(args); err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(*seed))

	if *debugAddr != "" {
		// The simulated servers all live in this process, so one endpoint
		// exposes every node's registry, grouped by host.
		addr, err := obs.ServeDebug(*debugAddr)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "debug server on http://%s/metrics\n", addr)
	}

	c := cluster.New(cluster.Orlando())
	fmt.Fprintln(w, "booting the Orlando cluster (3 servers, 6 neighborhoods)...")
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
	fmt.Fprintf(w, "%d settops booted\n", len(settops))

	apps := []string{"navigator", "vod", "shopping", "games"}
	titles := []string{"T2", "Casablanca", "Duck Amuck"}

	for minute := 1; minute <= *minutes; minute++ {
		// Viewer activity.
		for _, st := range settops {
			if !st.Up() {
				if _, err := st.Boot(); err == nil {
					fmt.Fprintf(w, "  settop %s rebooted\n", st.Host())
				}
				continue
			}
			switch rng.Intn(5) {
			case 0:
				if _, _, err := st.ChangeChannel(apps[rng.Intn(len(apps))]); err != nil {
					fmt.Fprintf(w, "  channel change failed on %s: %v\n", st.Host(), err)
				}
			case 1:
				if _, ok := st.Playback(); !ok {
					title := titles[rng.Intn(len(titles))]
					if err := st.OpenMovie(title); err != nil {
						fmt.Fprintf(w, "  open %q failed on %s: %v\n", title, st.Host(), err)
					}
				}
			case 2:
				if _, ok := st.Playback(); ok {
					if _, _, err := st.PollPlayback(); orb.Dead(err) {
						if err := st.RecoverPlayback(); err != nil {
							fmt.Fprintf(w, "  recovery failed on %s: %v\n", st.Host(), err)
						} else {
							fmt.Fprintf(w, "  settop %s recovered its movie on another replica\n", st.Host())
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
					fmt.Fprintf(w, "  CHAOS: killed MDS on %s (SSC restarts it)\n", srv.Spec.Name)
				}
			case 1:
				if err := srv.SSC.KillService("mms"); err == nil {
					fmt.Fprintf(w, "  CHAOS: killed MMS on %s\n", srv.Spec.Name)
				}
			case 2:
				st := settops[rng.Intn(len(settops))]
				if st.Up() {
					st.Crash()
					fmt.Fprintf(w, "  CHAOS: settop %s lost power\n", st.Host())
				}
			}
		}

		if c.FakeClk != nil {
			c.FakeClk.Await(500*time.Millisecond, 120, func() bool { return false })
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
		fmt.Fprintf(w, "[minute %2d] streams=%d playing=%d mms-primary=%s ns-master=%s\n",
			minute, c.Fabric.Conns(), playing, mmsName, nsMaster(c))
	}

	if c.Fabric.Conns() > 0 {
		// Open movies are fine; leaked ones are not.  Close everything and
		// verify reclamation.
		for _, st := range settops {
			if err := st.CloseMovie(); err != nil {
				fmt.Fprintf(w, "  close on %s: %v\n", st.Host(), err)
			}
		}
		if !c.WaitFor(func() bool { return c.Fabric.Conns() == 0 }) {
			fmt.Fprintln(w, "LEAK DIAGNOSTICS:")
			for _, conn := range c.Fabric.List() {
				fmt.Fprintf(w, "  %s %s %s->%s %d b/s\n", conn.ID, conn.Kind, conn.From, conn.To, conn.Rate)
			}
			for _, s := range c.Servers {
				if m := s.MMS(); m != nil {
					fmt.Fprintf(w, "  mms on %s: primary=%v open=%d\n", s.Spec.Name, m.IsPrimary(), m.OpenCount())
				}
				if m := s.MDS(); m != nil {
					fmt.Fprintf(w, "  mds on %s: load=%d\n", s.Spec.Name, len(m.OpenMovies()))
				}
			}
			return errors.New("connections leaked")
		}
	}
	if err := c.Fabric.CheckInvariants(); err != nil {
		return fmt.Errorf("bandwidth invariant violated: %w", err)
	}
	fmt.Fprintln(w, "run complete: all connections drained, bandwidth accounting consistent")
	return nil
}

func nsMaster(c *cluster.Cluster) string {
	for _, s := range c.Servers {
		if ns := s.NS(); ns != nil && ns.IsMaster() {
			return s.Spec.Name
		}
	}
	return "NONE"
}
