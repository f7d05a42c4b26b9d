// itv-server runs one ITV server node over real TCP on localhost — the
// closest analogue of an Orlando SGI Challenge server.  It is the cluster
// package's own server: the supervised service set, §6.3 boot order and
// placement plan every test and experiment runs, for a cluster of one
// server serving neighborhood 1, with the deployed §9.7 intervals and the
// database log persisted in -db.  Drive it with cmd/itv-admin:
//
//	go run ./cmd/itv-server &
//	go run ./cmd/itv-admin status
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"

	"itv/internal/clock"
	"itv/internal/cluster"
	"itv/internal/db"
	"itv/internal/obs"
	"itv/internal/transport"
)

const host = "127.0.0.1" // the address transport.TCP binds

// config is the one-server cluster: the Orlando trial's first two movies,
// its navigator application and its kernel image.
func config(name string) cluster.Config {
	o := cluster.Orlando()
	return cluster.Config{
		Servers: []cluster.ServerSpec{{Name: name, Host: host, Neighborhoods: []string{"1"},
			Movies: o.Servers[0].Movies[:2]}},
		Apps:   map[string][]byte{"navigator": o.Apps["navigator"]},
		Kernel: o.Kernel,
		Clk:    clock.Real(),
	}
}

// loopback hands every host of the cluster the process's TCP transport.
type loopback struct{}

func (loopback) Host(string) transport.Transport { return transport.TCP() }

// start is Cluster.Start with its panic returned as an error.
func start(c *cluster.Cluster) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("%v", r)
		}
	}()
	c.Start()
	return nil
}

func main() {
	dbPath := flag.String("db", "itv-server.db", "database log file (persistent across restarts)")
	name := flag.String("name", "forge", "server name (Fig. 4's forge/kiln)")
	debugAddr := flag.String("debug", "", "serve /metrics, /healthz and /debug/pprof on this address (e.g. 127.0.0.1:8080)")
	flag.Parse()

	if *debugAddr != "" {
		addr, err := obs.ServeDebug(*debugAddr, host)
		if err != nil {
			log.Fatalf("debug server: %v", err)
		}
		fmt.Printf("debug server on http://%s/metrics\n", addr)
	}

	c := cluster.New(config(*name))
	c.NW = loopback{}
	var err error
	if c.Store, err = db.NewStore(*dbPath); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("booting server %q (waits for the name-service master election)\n", *name)
	if err := start(c); err != nil {
		log.Fatalf("%v (is another itv-server already running?)", err)
	}
	fmt.Printf("server %q is up; name service at %s\n", *name, c.NSAddrs()[0])
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt)
	<-sig
	fmt.Println("\nshutting down")
	c.Stop()
	if err := c.Store.Close(); err != nil {
		log.Fatal(err)
	}
}
