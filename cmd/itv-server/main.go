// itv-server runs one complete ITV server node over real TCP on localhost
// — the closest analogue of an Orlando SGI Challenge server.  It brings up
// the §6.3 boot sequence with the deployed §9.7 intervals: SSC, name
// service, Settop Manager, RAS, database, then boot/kernel services, the
// Connection Manager for neighborhood 1, the MDS, RDS, MMS and VOD.
//
// Drive it with cmd/itv-admin from another terminal:
//
//	go run ./cmd/itv-server
//	go run ./cmd/itv-admin -ns 127.0.0.1:555 list svc
//	go run ./cmd/itv-admin status
//	go run ./cmd/itv-admin kill mds
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"time"

	"itv/internal/atm"
	"itv/internal/audit"
	"itv/internal/bootsvc"
	"itv/internal/clock"
	"itv/internal/cmgr"
	"itv/internal/core"
	"itv/internal/csc"
	"itv/internal/db"
	"itv/internal/media"
	"itv/internal/mms"
	"itv/internal/names"
	"itv/internal/obs"
	"itv/internal/orb"
	"itv/internal/oref"
	"itv/internal/proc"
	"itv/internal/rds"
	"itv/internal/settopmgr"
	"itv/internal/ssc"
	"itv/internal/transport"
	"itv/internal/vod"
)

func main() {
	dbPath := flag.String("db", "itv-server.db", "database log file (persistent across restarts)")
	name := flag.String("name", "forge", "server name (Fig. 4's forge/kiln)")
	debugAddr := flag.String("debug", "", "serve /metrics, /healthz and /debug/pprof on this address (e.g. 127.0.0.1:8080)")
	flag.Parse()

	tr := transport.TCP()
	clk := clock.Real()
	host := tr.Host()

	if *debugAddr != "" {
		// Every service on this node shares the host registry, so one
		// scrape covers the ORB, transport, names, RAS and SSC counters.
		addr, err := obs.ServeDebug(*debugAddr, host)
		if err != nil {
			log.Fatalf("debug server: %v", err)
		}
		fmt.Printf("debug server on http://%s/metrics\n", addr)
	}

	// §6.3 step 1: the SSC comes up first.
	ctl, err := ssc.New(tr, clk)
	if err != nil {
		log.Fatalf("ssc: %v (is another itv-server already running?)", err)
	}
	fmt.Printf("SSC up on %s:%d\n", host, ssc.WellKnownPort)

	fabric := atm.New()
	fabric.AddServer(host, 0)
	store, err := db.NewStore(*dbPath)
	if err != nil {
		log.Fatal(err)
	}
	nsAddr := fmt.Sprintf("%s:%d", host, names.WellKnownPort)

	session := func(p *proc.Process) (*core.Session, error) {
		ep, err := orb.NewEndpoint(tr)
		if err != nil {
			return nil, err
		}
		p.OnKill(ep.Close)
		return core.NewSession(ep, names.RootRefAt(nsAddr), clk), nil
	}

	// §6.3 step 2: basic services.
	ctl.AddSpec(ssc.ServiceSpec{Name: "ns", Start: func(p *proc.Process, _ *ssc.Controller) error {
		r, err := names.NewReplica(tr, clk, names.Config{Peers: []string{nsAddr}})
		if err != nil {
			return err
		}
		p.OnKill(r.Close)
		r.SetChecker(audit.Checker{Ep: r.Endpoint(), Ref: audit.RefAt(host)})
		return nil
	}})
	ctl.AddSpec(ssc.ServiceSpec{Name: "mgr", Start: func(p *proc.Process, _ *ssc.Controller) error {
		m, err := settopmgr.New(tr, clk)
		if err != nil {
			return err
		}
		p.OnKill(m.Close)
		return nil
	}})
	ctl.AddSpec(ssc.ServiceSpec{Name: "ras", Start: func(p *proc.Process, _ *ssc.Controller) error {
		r, err := audit.New(tr, clk, audit.Config{})
		if err != nil {
			return err
		}
		p.OnKill(r.Close)
		return nil
	}})
	ctl.AddSpec(ssc.ServiceSpec{Name: "db", Start: func(p *proc.Process, _ *ssc.Controller) error {
		svc, err := db.New(tr, store)
		if err != nil {
			return err
		}
		p.OnKill(svc.Close)
		return nil
	}})

	// App services.
	ctl.AddSpec(ssc.ServiceSpec{Name: "boot", Start: func(p *proc.Process, _ *ssc.Controller) error {
		ep, err := orb.NewEndpointOn(tr, bootsvc.WellKnownPort)
		if err != nil {
			return err
		}
		p.OnKill(ep.Close)
		b := bootsvc.NewBoot(core.NewSession(ep, names.RootRefAt(nsAddr), clk))
		b.SetFallback(bootsvc.Params{NameService: nsAddr, Servers: []string{host}})
		return nil
	}})
	ctl.AddSpec(ssc.ServiceSpec{Name: "kernel", Start: func(p *proc.Process, c *ssc.Controller) error {
		sess, err := session(p)
		if err != nil {
			return err
		}
		k := bootsvc.NewKernel(sess, make([]byte, 1<<20))
		el := sess.NewElector(bootsvc.KernelName, k.Ref())
		el.Start()
		p.OnKill(el.Abandon)
		c.NotifyReady(p.PID(), []oref.Ref{k.Ref()})
		return nil
	}})
	ctl.AddSpec(ssc.ServiceSpec{Name: "cmgr-1", Start: func(p *proc.Process, c *ssc.Controller) error {
		sess, err := session(p)
		if err != nil {
			return err
		}
		cm := cmgr.New(sess, fabric, "1")
		cm.Start()
		p.OnKill(cm.Abort)
		c.NotifyReady(p.PID(), []oref.Ref{cm.Ref()})
		return nil
	}})
	ctl.AddSpec(ssc.ServiceSpec{Name: "mds", Start: func(p *proc.Process, c *ssc.Controller) error {
		sess, err := session(p)
		if err != nil {
			return err
		}
		m := media.New(sess, *name, []media.MovieInfo{
			{Title: "T2", Size: 4_000_000_000, Bitrate: 4 * atm.Mbps},
			{Title: "Casablanca", Size: 2_400_000_000, Bitrate: 3 * atm.Mbps},
		})
		if err := m.Register(); err != nil {
			return err
		}
		c.NotifyReady(p.PID(), []oref.Ref{m.Ref()})
		return nil
	}})
	ctl.AddSpec(ssc.ServiceSpec{Name: "rds-1", Start: func(p *proc.Process, c *ssc.Controller) error {
		sess, err := session(p)
		if err != nil {
			return err
		}
		r := rds.New(sess, "1", host)
		r.Put("navigator", make([]byte, 2<<20))
		if err := r.Register(); err != nil {
			return err
		}
		c.NotifyReady(p.PID(), []oref.Ref{r.Ref()})
		return nil
	}})
	ctl.AddSpec(ssc.ServiceSpec{Name: "mms", Start: func(p *proc.Process, c *ssc.Controller) error {
		sess, err := session(p)
		if err != nil {
			return err
		}
		m := mms.New(sess, audit.RefAt(host))
		m.Start()
		p.OnKill(m.Abort)
		c.NotifyReady(p.PID(), []oref.Ref{m.Ref()})
		return nil
	}})
	ctl.AddSpec(ssc.ServiceSpec{Name: "vod", Start: func(p *proc.Process, c *ssc.Controller) error {
		sess, err := session(p)
		if err != nil {
			return err
		}
		v := vod.New(sess)
		v.Start()
		p.OnKill(v.Abort)
		c.NotifyReady(p.PID(), []oref.Ref{v.Ref()})
		return nil
	}})
	ctl.AddSpec(ssc.ServiceSpec{Name: "csc", Start: func(p *proc.Process, _ *ssc.Controller) error {
		sess, err := session(p)
		if err != nil {
			return err
		}
		cc := csc.New(sess, db.RefAt(host))
		cc.Start()
		p.OnKill(cc.Abort)
		return nil
	}})

	// Placement config so the CSC keeps this node converged.
	store.Put(csc.ServersTable, host, "")
	for _, svc := range []string{"ns", "mgr", "ras", "db", "boot", "kernel", "cmgr-1", "mds", "rds-1", "mms", "vod", "csc"} {
		store.Put(csc.ServicesTable, svc, host)
	}

	// §6.3 ordering: basic services first, then wait for the name-service
	// master election (step 3) before registering the rest (step 4).
	for _, svc := range []string{"ns", "mgr", "ras", "db"} {
		if err := ctl.StartService(svc); err != nil {
			log.Fatalf("start %s: %v", svc, err)
		}
		fmt.Printf("  started %s\n", svc)
	}
	fmt.Print("  waiting for name-service master election")
	for {
		role, _, _, _, err := names.StatusOf(ctl.Endpoint(), nsAddr)
		if err == nil && role == "master" {
			break
		}
		fmt.Print(".")
		clk.Sleep(500 * time.Millisecond)
	}
	fmt.Println(" elected")
	for _, svc := range []string{"boot", "kernel", "cmgr-1", "mds", "rds-1", "mms", "vod", "csc"} {
		if err := ctl.StartService(svc); err != nil {
			log.Fatalf("start %s: %v", svc, err)
		}
		fmt.Printf("  started %s\n", svc)
	}

	fmt.Printf("\nserver %q is up; name service at %s\n", *name, nsAddr)
	fmt.Println("drive it with: go run ./cmd/itv-admin -ns", nsAddr, "status")
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt)
	<-sig
	fmt.Println("\nshutting down")
	ctl.Close()
}
