// Package csc implements the Cluster Service Controller (§6.2): the
// primary/backup service that decides where services run.  It reads a
// static configuration from the database, directs each server's SSC to
// start and stop services, pings the SSCs to detect server failures and
// recoveries (§6.3), and offers the operator tools for moving services
// between servers.
//
// The CSC elects its primary through the name service (§5.2) and keeps no
// replicated state: a backup that takes over rediscovers the cluster state
// by querying each SSC for what it is running (§6.2, §10.1.1).
package csc

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"itv/internal/clock"
	"itv/internal/core"
	"itv/internal/db"
	"itv/internal/obs"
	"itv/internal/orb"
	"itv/internal/oref"
	"itv/internal/ssc"
	"itv/internal/wire"
)

// TypeID is the IDL interface name.
const TypeID = "itv.CSC"

// ServiceName is the CSC's binding in the cluster name space; replicas
// elect their primary by racing to bind it.
const ServiceName = "svc/csc"

// Database tables the CSC reads (§6.2: "It reads a static configuration
// from the database to determine which services to run on each node").
const (
	// ServersTable lists the cluster's servers: key = host, value unused.
	ServersTable = "servers"
	// ServicesTable maps service name -> comma-separated hosts to run on.
	ServicesTable = "services"
	// PinnedTable lists services that must never be migrated off their
	// hosts (per-server infrastructure: name service, RAS, MDS, ...).
	PinnedTable = "pinned"
)

// Controller is one CSC replica.
type Controller struct {
	sess    *core.Session
	dbStub  db.Stub
	elector *core.Elector
	ref     oref.Ref

	// PingInterval is how often the primary pings every SSC (§6.3).
	PingInterval time.Duration
	// AutoMigrate implements the paper's stated future work (§8.1:
	// "Ultimately we expect the CSC to be able to automatically restart
	// services on other servers after a machine failure, but this is not
	// yet implemented"): when every planned host of a non-pinned service
	// has been down for MigrateAfter consecutive rounds, the service is
	// reassigned to the least-loaded live server.
	AutoMigrate bool
	// MigrateAfter is the consecutive-down-rounds threshold (default 3).
	MigrateAfter int

	mu         sync.Mutex
	serverUp   map[string]bool
	downRounds map[string]int
	migrations []string          // "svc: old -> new" event log
	lastError  map[string]string // per-server reconcile diagnostics

	loop *clock.Loop
}

// New creates a CSC replica.  The session's endpoint hosts the CSC object;
// call Start to begin campaigning and controlling.
func New(sess *core.Session, dbRef oref.Ref) *Controller {
	c := &Controller{
		sess:         sess,
		dbStub:       db.Stub{Ep: sess.Ep, Ref: dbRef},
		PingInterval: 5 * time.Second,
		MigrateAfter: 3,
		serverUp:     make(map[string]bool),
		downRounds:   make(map[string]int),
		lastError:    make(map[string]string),
	}
	c.ref = sess.Ep.Register("csc", &skel{c: c})
	c.elector = sess.NewElector(ServiceName, c.ref)
	return c
}

// Ref returns the CSC object's reference.
func (c *Controller) Ref() oref.Ref { return c.ref }

// Elector exposes the replica's primary/backup elector for interval tuning.
func (c *Controller) Elector() *core.Elector { return c.elector }

// IsPrimary reports whether this replica is the acting CSC.
func (c *Controller) IsPrimary() bool { return c.elector.IsPrimary() }

// Start begins the election campaign and, when primary, the control loop.
func (c *Controller) Start() {
	// Ensure the parent context exists before campaigning.
	if _, err := c.sess.Root.BindNewContext("svc"); err != nil && !orb.IsApp(err, orb.ExcAlreadyBound) {
		// Transient (no master yet): the elector retries anyway.
		_ = err
	}
	c.elector.Start()
	c.loop = clock.Every(c.sess.Clk, c.PingInterval, false, func(time.Time) {
		if c.elector.IsPrimary() {
			c.reconcile()
		}
	})
}

// Close stops the replica; if primary, the name binding is released so a
// backup takes over immediately.
func (c *Controller) Close() { c.shutdown(true) }

// Abort stops the replica with crash semantics (no unbind).
func (c *Controller) Abort() { c.shutdown(false) }

func (c *Controller) shutdown(clean bool) {
	c.loop.Stop()
	if clean {
		c.elector.Close()
	} else {
		c.elector.Abandon()
	}
	c.sess.Ep.Unregister("csc")
}

// Plan is the configured assignment: service -> hosts it should run on.
type Plan map[string][]string

// readPlan loads the static configuration from the database.
func (c *Controller) readPlan() (Plan, []string, error) {
	servers, err := c.dbStub.Keys(ServersTable)
	if err != nil {
		return nil, nil, err
	}
	svcRows, err := c.dbStub.All(ServicesTable)
	if err != nil {
		return nil, nil, err
	}
	plan := make(Plan, len(svcRows))
	for svc, hostsCSV := range svcRows {
		var hosts []string
		for _, h := range strings.Split(hostsCSV, ",") {
			if h = strings.TrimSpace(h); h != "" {
				hosts = append(hosts, h)
			}
		}
		sort.Strings(hosts)
		plan[svc] = hosts
	}
	return plan, servers, nil
}

// reconcile is one control round: ping every SSC, then make each live
// server run exactly its configured services.
func (c *Controller) reconcile() {
	plan, servers, err := c.readPlan()
	if err != nil {
		return // database momentarily unavailable; next tick retries
	}

	// Invert the plan: host -> set of services.
	want := make(map[string]map[string]bool)
	for _, h := range servers {
		want[h] = make(map[string]bool)
	}
	for svc, hosts := range plan {
		for _, h := range hosts {
			if _, known := want[h]; known {
				want[h][svc] = true
			}
		}
	}

	for _, host := range servers {
		stub := ssc.Stub{Ep: c.sess.Ep, Ref: ssc.RefAt(host)}
		// The liveness ping doubles as a clock-offset measurement: t1/t4
		// bracket the exchange, the sink captures the peer's HLC from the
		// response frame (§6.3 pays for the round trip anyway).
		var sink obs.ClockSink
		t1 := c.sess.Clk.Now()
		running, err := stub.RunningCtx(obs.WithClockSink(context.Background(), &sink))
		t4 := c.sess.Clk.Now()
		if err == nil {
			c.sess.Ep.Metrics().Counter("csc_pings_ok").Inc()
			obs.MeasureOffset(c.sess.Ep.Host(), host, t1, t4, sink.Last())
		} else {
			c.sess.Ep.Metrics().Counter("csc_pings_failed").Inc()
		}
		c.mu.Lock()
		wasUp, known := c.serverUp[host]
		c.serverUp[host] = err == nil
		if err == nil {
			c.downRounds[host] = 0
		} else {
			c.downRounds[host]++
		}
		c.mu.Unlock()
		if err != nil && (wasUp || !known) {
			// Record only the up->down transition, not every failed round:
			// the flight recorder wants the detection moment (§6.3), and a
			// long outage would otherwise flood the ring.
			c.sess.Ep.Recorder().Record(c.sess.Clk.Now(), 0, "csc_ping_failed",
				host+": "+err.Error())
		}
		if err != nil {
			// Server down (§6.3): replicated services elsewhere carry on;
			// singleton services stay down until restart or operator
			// reassignment (§8.1) — the deployed system's behaviour.
			continue
		}
		have := make(map[string]bool, len(running))
		for _, svc := range running {
			have[svc] = true
		}
		var firstErr string
		for svc := range want[host] {
			if !have[svc] {
				if err := stub.Start(svc); err != nil && firstErr == "" {
					firstErr = svc + ": " + err.Error()
				}
			}
		}
		for svc := range have {
			if !want[host][svc] {
				if err := stub.Stop(svc); err != nil && firstErr == "" {
					firstErr = svc + ": " + err.Error()
				}
			}
		}
		c.mu.Lock()
		c.lastError[host] = firstErr
		c.mu.Unlock()
	}

	if c.AutoMigrate {
		c.migrate(plan, servers)
	}
}

// migrate reassigns services stranded on dead servers (§8.1's future work,
// implemented).  A service migrates only when every planned host has been
// down for MigrateAfter consecutive rounds and the service is not pinned;
// the new placement is the least-loaded live server, written back to the
// database so the normal reconcile rounds (and any CSC successor) apply it.
func (c *Controller) migrate(plan Plan, servers []string) {
	pinned, err := c.dbStub.All(PinnedTable)
	if err != nil {
		return
	}
	c.mu.Lock()
	live := make([]string, 0, len(servers))
	allDead := func(hosts []string) bool {
		for _, h := range hosts {
			if c.downRounds[h] < c.MigrateAfter {
				return false
			}
		}
		return len(hosts) > 0
	}
	for _, h := range servers {
		if c.serverUp[h] {
			live = append(live, h)
		}
	}
	c.mu.Unlock()
	if len(live) == 0 {
		return
	}

	// Load = number of planned services per live server.
	load := make(map[string]int, len(live))
	for _, hosts := range plan {
		for _, h := range hosts {
			load[h]++
		}
	}
	for svc, hosts := range plan {
		if _, isPinned := pinned[svc]; isPinned {
			continue
		}
		if !allDead(hosts) {
			continue
		}
		target := live[0]
		for _, h := range live[1:] {
			if load[h] < load[target] {
				target = h
			}
		}
		if err := c.MoveService(svc, []string{target}); err != nil {
			continue
		}
		load[target]++
		c.sess.Ep.Metrics().Counter("csc_migrations").Inc()
		c.sess.Ep.Recorder().Record(c.sess.Clk.Now(), 0, "csc_service_migrated",
			fmt.Sprintf("%s: %s -> %s", svc, strings.Join(hosts, ","), target))
		c.mu.Lock()
		c.migrations = append(c.migrations,
			fmt.Sprintf("%s: %s -> %s", svc, strings.Join(hosts, ","), target))
		c.mu.Unlock()
	}
}

// Migrations returns the auto-migration event log.
func (c *Controller) Migrations() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]string(nil), c.migrations...)
}

// ServerUp reports the primary's last observation of a server.
func (c *Controller) ServerUp(host string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.serverUp[host]
}

// MoveService reassigns a service to exactly the given hosts (the
// operator tool of §6.2: "simple tools that allow an operator to cause a
// service or group of services to be stopped, started, or moved between
// nodes").  The change is written to the database; the next reconcile
// round applies it.
func (c *Controller) MoveService(svc string, hosts []string) error {
	return c.dbStub.Put(ServicesTable, svc, strings.Join(hosts, ","))
}

// Status summarizes the primary's view: per-server liveness and the
// configured plan.
type Status struct {
	Primary bool
	Servers map[string]bool
	Errors  map[string]string
}

// ClusterStatus returns the controller's current view.
func (c *Controller) ClusterStatus() Status {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := Status{
		Primary: c.elector.IsPrimary(),
		Servers: make(map[string]bool, len(c.serverUp)),
		Errors:  make(map[string]string, len(c.lastError)),
	}
	for h, up := range c.serverUp {
		st.Servers[h] = up
	}
	for h, e := range c.lastError {
		if e != "" {
			st.Errors[h] = e
		}
	}
	return st
}

// ---- IDL skeleton and stub ----

type skel struct{ c *Controller }

func (s *skel) TypeID() string { return TypeID }

func (s *skel) Dispatch(call *orb.ServerCall) error {
	switch call.Method() {
	case "move":
		svc := call.Args().String()
		hosts := call.Args().Strings()
		return s.c.MoveService(svc, hosts)
	case "status":
		st := s.c.ClusterStatus()
		e := call.Results()
		e.PutBool(st.Primary)
		hosts := make([]string, 0, len(st.Servers))
		for h := range st.Servers {
			hosts = append(hosts, h)
		}
		sort.Strings(hosts)
		e.PutUint(uint64(len(hosts)))
		for _, h := range hosts {
			e.PutString(h)
			e.PutBool(st.Servers[h])
		}
		return nil
	default:
		return orb.ErrNoSuchMethod
	}
}

// Stub is the operator-side proxy for the acting CSC.
type Stub struct {
	Svc *core.Rebinder
}

// NewStub returns a stub that follows the CSC primary through the name
// service.
func NewStub(sess *core.Session) Stub {
	return Stub{Svc: sess.Service(ServiceName)}
}

// Move reassigns a service to the given hosts.
func (s Stub) Move(svc string, hosts []string) error {
	return s.Svc.Invoke("move",
		func(e *wire.Encoder) { e.PutString(svc); e.PutStrings(hosts) }, nil)
}

// Status fetches the acting CSC's view of the cluster.
func (s Stub) Status() (map[string]bool, error) {
	out := make(map[string]bool)
	err := s.Svc.Invoke("status", nil,
		func(d *wire.Decoder) error {
			_ = d.Bool() // primary flag (always true: we reached the primary)
			n := d.Count()
			for i := 0; i < n && d.Err() == nil; i++ {
				h := d.String()
				out[h] = d.Bool()
			}
			return nil
		})
	return out, err
}
