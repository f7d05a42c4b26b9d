// Package ssc implements the Server Service Controller (§6.1): one replica
// runs on each server, starts and stops the services assigned to that
// server, monitors them, and restarts them when they fail.  It also keeps
// the association between processes and the service objects they export
// (notifyReady) and tells interested parties — the Resource Audit Service —
// when the set of live objects changes (registerCallback).
package ssc

import (
	"context"
	"fmt"
	"sync"
	"time"

	"itv/internal/clock"
	"itv/internal/obs"
	"itv/internal/orb"
	"itv/internal/oref"
	"itv/internal/proc"
	"itv/internal/transport"
	"itv/internal/wire"
)

// WellKnownPort is the SSC's fixed port on every server; the local RAS
// finds it there, and the CSC pings it there.
const WellKnownPort = 557

// IDL interface names.
const (
	TypeID       = "itv.SSC"
	TypeCallback = "itv.SSCCallback"
)

// StartFunc brings up one instance of a service inside process p.  It must
// wire every resource the service holds (endpoints above all) through
// p.OnKill, and report the service's exported objects with
// ctl.NotifyReady(p.PID(), refs).  It returns once the service is serving.
type StartFunc func(p *proc.Process, ctl *Controller) error

// ServiceSpec describes a service this server knows how to run.  The
// cluster installs the full spec catalogue on every server; the Cluster
// Service Controller decides which specs actually run where (§6.2).
type ServiceSpec struct {
	Name  string
	Start StartFunc
}

type running struct {
	p        *proc.Process
	stopped  bool // deliberate stop: do not restart
	starting bool // Start has not returned yet: claimed, not yet listed
}

// Controller is one server's SSC.
type Controller struct {
	tr  transport.Transport
	clk clock.Clock
	ep  *orb.Endpoint
	rec *obs.Recorder
	tbl *proc.Table

	mu        sync.Mutex
	specs     map[string]ServiceSpec
	running   map[string]*running
	objects   map[int][]oref.Ref // pid -> objects from notifyReady
	callbacks []oref.Ref
	restarts  int64
	closed    bool

	// RestartDelay is how long the SSC waits before restarting a failed
	// service, a small damper against crash loops.
	RestartDelay time.Duration
}

// New starts an SSC on tr's host at the well-known port.
func New(tr transport.Transport, clk clock.Clock) (*Controller, error) {
	ep, err := orb.NewEndpointOn(tr, WellKnownPort)
	if err != nil {
		return nil, err
	}
	c := &Controller{
		tr:           tr,
		clk:          clk,
		ep:           ep,
		rec:          obs.NodeRecorder(tr.Host()),
		tbl:          proc.NewTable(),
		specs:        make(map[string]ServiceSpec),
		running:      make(map[string]*running),
		objects:      make(map[int][]oref.Ref),
		RestartDelay: time.Second,
	}
	// The SSC is the first thing up on a server (§6.3), so it anchors the
	// node's time discipline: the shared HLC reads this server's clock, and
	// the health sampler starts rolling its metric windows.
	obs.NodeHLC(tr.Host()).SetNow(clk.Now)
	obs.NodeHealth(tr.Host()).Start(clk, obs.DefaultHealthInterval)
	ep.Register("", &skel{c: c})
	return c, nil
}

// Ref returns the persistent reference to this SSC.
func (c *Controller) Ref() oref.Ref {
	return oref.Persistent(c.ep.Addr(), TypeID, "")
}

// RefAt returns the SSC reference for the server at host.
func RefAt(host string) oref.Ref {
	return oref.Persistent(fmt.Sprintf("%s:%d", host, WellKnownPort), TypeID, "")
}

// Addr returns the SSC's "host:port".
func (c *Controller) Addr() string { return c.ep.Addr() }

// Endpoint exposes the SSC's endpoint for co-hosted helpers.
func (c *Controller) Endpoint() *orb.Endpoint { return c.ep }

// Restarts reports how many failure-driven restarts this SSC has done.
func (c *Controller) Restarts() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.restarts
}

// AddSpec installs a service the server knows how to run.
func (c *Controller) AddSpec(s ServiceSpec) {
	c.mu.Lock()
	c.specs[s.Name] = s
	c.mu.Unlock()
}

// Running returns the names of services currently running.
func (c *Controller) Running() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]string, 0, len(c.running))
	for name, r := range c.running {
		if !r.p.Exited() && !r.starting {
			out = append(out, name)
		}
	}
	return out
}

// StartService starts the named service.
func (c *Controller) StartService(name string) error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return orb.Errf(orb.ExcUnavailable, "ssc closed")
	}
	spec, ok := c.specs[name]
	if !ok {
		c.mu.Unlock()
		return orb.Errf(orb.ExcNotFound, "no service spec %q", name)
	}
	c.mu.Unlock()
	return c.launch(spec)
}

// launch starts spec unless an instance is running or starting.  The claim
// is made before Start runs: of two launches racing for one service (the
// monitor's restart, the CSC's reconcile) one is refused, not unsupervised.
func (c *Controller) launch(spec ServiceSpec) error {
	c.mu.Lock()
	if r, exists := c.running[spec.Name]; exists && !r.p.Exited() {
		c.mu.Unlock()
		return orb.Errf(orb.ExcAlreadyBound, "service %q already running", spec.Name)
	}
	p := c.tbl.Spawn(spec.Name)
	r := &running{p: p, starting: true}
	c.running[spec.Name] = r
	c.mu.Unlock()
	err := spec.Start(p, c)
	if err != nil {
		p.Kill()
		c.reapObjects(p)
	}
	c.mu.Lock()
	r.starting = false
	if err != nil && c.running[spec.Name] == r {
		delete(c.running, spec.Name)
	}
	n := len(c.running)
	c.mu.Unlock()
	obs.Node(c.tr.Host()).Gauge("ssc_services_running").Set(int64(n))
	if err == nil {
		go c.monitor(spec, p)
	}
	return err
}

// monitor implements the wait()-based supervision loop: when the process
// exits, its objects are reported dead, and unless the stop was deliberate
// the service is restarted after RestartDelay (§6.1, §8.1).
func (c *Controller) monitor(spec ServiceSpec, p *proc.Process) {
	<-p.Done()
	c.rec.Record(c.clk.Now(), 0, "ssc_service_exit", spec.Name)
	c.reapObjects(p)
	c.tbl.Reap(p.PID())

	c.mu.Lock()
	r := c.running[spec.Name]
	deliberate := r == nil || r.p != p || r.stopped
	closed := c.closed
	if r != nil && r.p == p {
		delete(c.running, spec.Name)
	}
	n := len(c.running)
	c.mu.Unlock()
	obs.Node(c.tr.Host()).Gauge("ssc_services_running").Set(int64(n))
	if deliberate || closed {
		return
	}

	c.clk.Sleep(c.RestartDelay)
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	if _, raced := c.running[spec.Name]; raced {
		c.mu.Unlock()
		return
	}
	c.restarts++
	c.mu.Unlock()
	obs.Node(c.tr.Host()).Counter("ssc_restarts").Inc()
	c.rec.Record(c.clk.Now(), 0, "ssc_service_restart", spec.Name)
	// A failed restart is retried on the next failure notification; a
	// service whose Start cannot succeed stays down until an operator or
	// the CSC intervenes.
	_ = c.launch(spec)
}

// reapObjects removes a dead process's objects and notifies callbacks.
// This is where a failover's causal trace is born: the SSC is the first
// observer of an object death (§6.1), so it mints the trace that the RAS
// notification, the name-space audit, and the eventual rebind all join.
func (c *Controller) reapObjects(p *proc.Process) {
	c.mu.Lock()
	refs := c.objects[p.PID()]
	delete(c.objects, p.PID())
	cbs := append([]oref.Ref(nil), c.callbacks...)
	c.mu.Unlock()
	if len(refs) == 0 {
		return
	}
	sp := obs.NewTrace()
	ctx := context.Background()
	if sp.Sampled {
		ctx = obs.ContextWithSpan(ctx, sp)
		c.rec.Record(c.clk.Now(), sp.TraceID, "ssc_object_death",
			fmt.Sprintf("%s: %d object(s) of pid %d", p.Name(), len(refs), p.PID()))
	}
	c.invokeCallbacks(ctx, cbs, refs, false)
}

// StopService stops the named service without restart.
func (c *Controller) StopService(name string) error {
	c.mu.Lock()
	r, ok := c.running[name]
	if !ok || r.p.Exited() {
		c.mu.Unlock()
		return orb.Errf(orb.ExcNotFound, "service %q not running", name)
	}
	r.stopped = true
	p := r.p
	c.mu.Unlock()
	p.Kill()
	return nil
}

// KillService kills the named service as a fault injection: the SSC treats
// it as a failure and restarts it.  This is the paper's debugging workflow
// (§9.5: copy a corrected binary and kill the service).
func (c *Controller) KillService(name string) error {
	c.mu.Lock()
	r, ok := c.running[name]
	if !ok || r.p.Exited() {
		c.mu.Unlock()
		return orb.Errf(orb.ExcNotFound, "service %q not running", name)
	}
	p := r.p
	c.mu.Unlock()
	p.Kill()
	return nil
}

// NotifyReady records the objects process pid exports and notifies
// callbacks they are live (§6.1).
func (c *Controller) NotifyReady(pid int, refs []oref.Ref) {
	c.mu.Lock()
	c.objects[pid] = append(c.objects[pid], refs...)
	cbs := append([]oref.Ref(nil), c.callbacks...)
	c.mu.Unlock()
	c.invokeCallbacks(context.Background(), cbs, refs, true)
}

// RegisterCallback adds a callback object invoked whenever the live-object
// set changes; it is immediately invoked with all currently live objects
// (§6.1), which is how a restarted RAS rebuilds its state.  An empty set is
// replayed too: on a server that has just rebooted it is the news that
// every object the old SSC supervised is gone.
func (c *Controller) RegisterCallback(cb oref.Ref) {
	c.mu.Lock()
	c.callbacks = append(c.callbacks, cb)
	var live []oref.Ref
	for _, refs := range c.objects {
		live = append(live, refs...)
	}
	c.mu.Unlock()
	c.invokeCallbacks(context.Background(), []oref.Ref{cb}, live, true)
}

func (c *Controller) invokeCallbacks(ctx context.Context, cbs []oref.Ref, refs []oref.Ref, alive bool) {
	for _, cb := range cbs {
		_ = c.ep.InvokeCtx(ctx, cb, "objectsChanged",
			func(e *wire.Encoder) {
				oref.PutRefs(e, refs)
				e.PutBool(alive)
			}, nil)
	}
}

// Crash simulates the SSC process dying: every service it started exits
// with it (§6.1's footnote), and its endpoint closes.  A fresh SSC must be
// created by init (the cluster harness) to recover the server.
func (c *Controller) Crash() {
	c.mu.Lock()
	c.closed = true
	c.mu.Unlock()
	obs.NodeHealth(c.tr.Host()).Stop()
	c.tbl.KillAll()
	c.ep.Close()
}

// Close shuts the SSC down cleanly, stopping all services without restart.
func (c *Controller) Close() { c.Crash() }
