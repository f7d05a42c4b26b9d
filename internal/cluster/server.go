package cluster

import (
	"sync"

	"itv/internal/audit"
	"itv/internal/auth"
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
	"itv/internal/vod"
)

// Server is one simulated machine: an SSC plus the services placed on it.
// Service handles are updated by the SSC start functions, so they always
// point at the current incarnation.
type Server struct {
	c     *Cluster
	index int
	Spec  ServerSpec
	// clk is this machine's wall clock: the cluster clock shifted by
	// Spec.ClockSkew.  Timers run at the cluster rate; only "what time is
	// it" differs, as on real machines with drifted clocks.
	clk clock.Clock
	SSC *ssc.Controller

	mu     sync.Mutex
	ns     *names.Replica
	ras    *audit.Service
	dbsvc  *db.Service
	cscCtl *csc.Controller
	mds    *media.Service
	mmsSvc *mms.Service
	vodSvc *vod.Service
	boot   *bootsvc.BootService
	kernel *bootsvc.KernelService
	cmgrs  map[string]*cmgr.Service
	rdss   map[string]*rds.Service
}

func newServer(c *Cluster, index int, spec ServerSpec) *Server {
	return &Server{
		c:     c,
		index: index,
		Spec:  spec,
		clk:   clock.WithOffset(c.Clk, spec.ClockSkew),
		cmgrs: make(map[string]*cmgr.Service),
		rdss:  make(map[string]*rds.Service),
	}
}

// Accessors (safe across restarts).

// NS returns the server's name-service replica, or nil if down.
func (s *Server) NS() *names.Replica { s.mu.Lock(); defer s.mu.Unlock(); return s.ns }

// RAS returns the server's Resource Audit Service.
func (s *Server) RAS() *audit.Service { s.mu.Lock(); defer s.mu.Unlock(); return s.ras }

// Metrics returns this server's node registry — the same snapshot the
// _metrics RPC serves, available in-process for tests and experiments.
func (s *Server) Metrics() *obs.Registry { return obs.Node(s.Spec.Host) }

// CSC returns the server's CSC replica, if placed here.
func (s *Server) CSC() *csc.Controller { s.mu.Lock(); defer s.mu.Unlock(); return s.cscCtl }

// MDS returns the server's Media Delivery Service.
func (s *Server) MDS() *media.Service { s.mu.Lock(); defer s.mu.Unlock(); return s.mds }

// MMS returns the server's MMS replica, if placed here.
func (s *Server) MMS() *mms.Service { s.mu.Lock(); defer s.mu.Unlock(); return s.mmsSvc }

// VOD returns the server's VOD replica, if placed here.
func (s *Server) VOD() *vod.Service { s.mu.Lock(); defer s.mu.Unlock(); return s.vodSvc }

// Cmgr returns the server's Connection Manager replica for a neighborhood.
func (s *Server) Cmgr(nbhd string) *cmgr.Service {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.cmgrs[nbhd]
}

// RDS returns the server's RDS replica for a neighborhood.
func (s *Server) RDS(nbhd string) *rds.Service {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.rdss[nbhd]
}

// session builds a fresh OCS session on this server for one service
// process, rooted at the local name-service replica (§4.6: every service
// uses its server's replica for lookups).
func (s *Server) session(p *proc.Process) (*core.Session, error) {
	ep, err := orb.NewEndpoint(s.c.NW.Host(s.Spec.Host))
	if err != nil {
		return nil, err
	}
	p.OnKill(ep.Close)
	s.secure(ep)
	return core.NewSession(ep, names.RootRefAt(s.nsAddr()), s.clk), nil
}

func (s *Server) nsAddr() string { return s.Spec.Host + ":555" }

// authPort is the authentication service's fixed port on the first server.
const authPort = 559

// verifier returns this server's realm verifier (nil without EnableAuth).
// Every server endpoint carries one, so all calls in the system are signed
// and verified by default (§3.3).
func (s *Server) verifier() *auth.Verifier {
	if s.c.Auth == nil {
		return nil
	}
	v := auth.NewVerifier(s.c.Auth.RealmKey(), s.clk)
	v.Name = "server/" + s.Spec.Host
	return v
}

// secure installs the realm verifier on an endpoint when auth is enabled.
func (s *Server) secure(ep *orb.Endpoint) {
	if v := s.verifier(); v != nil {
		ep.SetAuthenticator(v)
	}
}

// start creates the SSC, installs every spec, and launches the basic
// services (§6.3 steps 1–2).
func (s *Server) start() {
	ctl, err := ssc.New(s.c.NW.Host(s.Spec.Host), s.clk)
	if err != nil {
		panic("cluster: ssc on " + s.Spec.Host + ": " + err.Error())
	}
	s.SSC = ctl
	s.secure(ctl.Endpoint())
	s.c.Fabric.AddServer(s.Spec.Host, s.Spec.Egress)
	s.installSpecs()
	for _, name := range s.basicServices() {
		if err := ctl.StartService(name); err != nil {
			panic("cluster: start " + name + ": " + err.Error())
		}
	}
}

// Restart models the server machine rebooting: the old SSC (and every
// service it supervised) dies; a fresh SSC comes up with the basic
// services, and the CSC repopulates the rest (§6.3).
func (s *Server) Restart() {
	s.SSC.Crash()
	s.start()
}

func (s *Server) basicServices() []string {
	base := []string{"ns", "mgr", "ras"}
	if s.index == 0 {
		base = append(base, "db")
		if s.c.Auth != nil {
			base = append(base, "auth")
		}
	}
	return base
}

// placedServices returns the non-basic services this server runs at
// start-up, matching writePlacement.
func (s *Server) placedServices() []string {
	out := []string{"mds", "boot"}
	for _, nb := range s.Spec.Neighborhoods {
		out = append(out, "cmgr-"+nb, "rds-"+nb)
	}
	// Backups for the next server's neighborhoods run here too.
	n := len(s.c.Servers)
	prev := s.c.Servers[(s.index+n-1)%n]
	if prev != s {
		for _, nb := range prev.Spec.Neighborhoods {
			out = append(out, "cmgr-"+nb)
		}
	}
	if s.index == 0 || s.index == 1%n {
		out = append(out, "csc", "mms", "vod", "kernel")
	}
	return out
}

// installSpecs registers every service this server can run.
func (s *Server) installSpecs() {
	tun := s.c.Cfg.Tunables
	ctl := s.SSC

	// ---- basic services ----

	ctl.AddSpec(ssc.ServiceSpec{Name: "ns", Start: func(p *proc.Process, _ *ssc.Controller) error {
		r, err := names.NewReplica(s.c.NW.Host(s.Spec.Host), s.clk, names.Config{
			Peers:             s.c.NSAddrs(),
			HeartbeatInterval: tun.NSHeartbeat,
			ElectionTimeout:   tun.NSElection,
			AuditInterval:     tun.NSAudit,
		})
		if err != nil {
			return err
		}
		p.OnKill(r.Close)
		if v := s.verifier(); v != nil {
			r.SetAuthenticator(v)
		}
		r.SetChecker(audit.Stub{Ep: r.Endpoint(), Ref: audit.RefAt(s.Spec.Host)})
		s.mu.Lock()
		s.ns = r
		s.mu.Unlock()
		return nil
	}})

	ctl.AddSpec(ssc.ServiceSpec{Name: "mgr", Start: func(p *proc.Process, _ *ssc.Controller) error {
		m, err := settopmgr.New(s.c.NW.Host(s.Spec.Host), s.clk)
		if err != nil {
			return err
		}
		p.OnKill(m.Close)
		s.secure(m.Endpoint())
		return nil
	}})

	ctl.AddSpec(ssc.ServiceSpec{Name: "ras", Start: func(p *proc.Process, _ *ssc.Controller) error {
		r, err := audit.New(s.c.NW.Host(s.Spec.Host), s.clk, audit.Config{
			PeerPollInterval: tun.RASPoll,
		})
		if err != nil {
			return err
		}
		p.OnKill(r.Close)
		s.secure(r.Endpoint())
		s.mu.Lock()
		s.ras = r
		s.mu.Unlock()
		return nil
	}})

	ctl.AddSpec(ssc.ServiceSpec{Name: "db", Start: func(p *proc.Process, _ *ssc.Controller) error {
		svc, err := db.New(s.c.NW.Host(s.Spec.Host), s.c.Store)
		if err != nil {
			return err
		}
		p.OnKill(svc.Close)
		s.secure(svc.Endpoint())
		s.mu.Lock()
		s.dbsvc = svc
		s.mu.Unlock()
		return nil
	}})

	if s.c.Auth != nil && s.index == 0 {
		ctl.AddSpec(ssc.ServiceSpec{Name: "auth", Start: func(p *proc.Process, _ *ssc.Controller) error {
			ep, err := orb.NewEndpointOn(s.c.NW.Host(s.Spec.Host), authPort)
			if err != nil {
				return err
			}
			p.OnKill(ep.Close)
			// The ticket-granting exchange must bootstrap without
			// credentials (§3.3); responses are only usable by holders of
			// the enrolled key.
			anon := auth.NewVerifier(s.c.Auth.RealmKey(), s.clk)
			anon.AllowAnonymous = true
			ep.SetAuthenticator(anon)
			ep.Register("", &auth.ServiceSkeleton{Svc: s.c.Auth})
			return nil
		}})
	}

	// ---- placed services ----
	//
	// Each one reports its objects ready to the SSC before it binds a name.
	// The RAS answers for this server's objects from the SSC's live set, so
	// an audit between a bind and the notice would evict the new binding:
	// for good for an active replica (MDS, RDS), until the elector's next
	// self-check for a primary/backup one.

	ctl.AddSpec(ssc.ServiceSpec{Name: "csc", Start: func(p *proc.Process, c *ssc.Controller) error {
		sess, err := s.session(p)
		if err != nil {
			return err
		}
		cs := csc.New(sess, db.RefAt(s.c.Servers[0].Spec.Host))
		cs.PingInterval = tun.CSCPing
		cs.AutoMigrate = s.c.Cfg.AutoMigrate
		cs.Elector().RetryInterval = tun.BindRetry
		c.NotifyReady(p.PID(), []oref.Ref{cs.Ref()})
		cs.Start()
		p.OnKill(cs.Abort)
		s.mu.Lock()
		s.cscCtl = cs
		s.mu.Unlock()
		return nil
	}})

	ctl.AddSpec(ssc.ServiceSpec{Name: "mds", Start: func(p *proc.Process, c *ssc.Controller) error {
		sess, err := s.session(p)
		if err != nil {
			return err
		}
		m := media.New(sess, s.Spec.Name, s.Spec.Movies)
		c.NotifyReady(p.PID(), []oref.Ref{m.Ref()})
		if err := m.Register(); err != nil {
			return err
		}
		s.mu.Lock()
		s.mds = m
		s.mu.Unlock()
		return nil
	}})

	ctl.AddSpec(ssc.ServiceSpec{Name: "mms", Start: func(p *proc.Process, c *ssc.Controller) error {
		sess, err := s.session(p)
		if err != nil {
			return err
		}
		m := mms.New(sess, audit.RefAt(s.Spec.Host))
		m.Elector().RetryInterval = tun.BindRetry
		c.NotifyReady(p.PID(), []oref.Ref{m.Ref()})
		m.Start()
		p.OnKill(m.Abort)
		s.mu.Lock()
		s.mmsSvc = m
		s.mu.Unlock()
		return nil
	}})

	ctl.AddSpec(ssc.ServiceSpec{Name: "vod", Start: func(p *proc.Process, c *ssc.Controller) error {
		sess, err := s.session(p)
		if err != nil {
			return err
		}
		v := vod.New(sess)
		v.Elector().RetryInterval = tun.BindRetry
		c.NotifyReady(p.PID(), []oref.Ref{v.Ref()})
		v.Start()
		p.OnKill(v.Abort)
		s.mu.Lock()
		s.vodSvc = v
		s.mu.Unlock()
		return nil
	}})

	ctl.AddSpec(ssc.ServiceSpec{Name: "boot", Start: func(p *proc.Process, _ *ssc.Controller) error {
		ep, err := orb.NewEndpointOn(s.c.NW.Host(s.Spec.Host), bootsvc.WellKnownPort)
		if err != nil {
			return err
		}
		p.OnKill(ep.Close)
		if v := s.verifier(); v != nil {
			// Settops have no credentials before boot; the boot service is
			// the anonymous entry point (§3.4.1).
			v.AllowAnonymous = true
			ep.SetAuthenticator(v)
		}
		sess := core.NewSession(ep, names.RootRefAt(s.nsAddr()), s.clk)
		b := bootsvc.NewBoot(sess)
		allHosts := make([]string, len(s.c.Servers))
		for i, sv := range s.c.Servers {
			allHosts[i] = sv.Spec.Host
		}
		for _, sv := range s.c.Servers {
			for _, nb := range sv.Spec.Neighborhoods {
				b.SetNeighborhood(nb, bootsvc.Params{
					NameService: sv.nsAddr(),
					Servers:     allHosts,
				})
			}
		}
		b.SetFallback(bootsvc.Params{NameService: s.nsAddr(), Servers: allHosts})
		s.mu.Lock()
		s.boot = b
		s.mu.Unlock()
		return nil
	}})

	ctl.AddSpec(ssc.ServiceSpec{Name: "kernel", Start: func(p *proc.Process, c *ssc.Controller) error {
		sess, err := s.session(p)
		if err != nil {
			return err
		}
		k := bootsvc.NewKernel(sess, s.c.Cfg.Kernel)
		el := sess.NewElector(bootsvc.KernelName, k.Ref())
		el.RetryInterval = tun.BindRetry
		c.NotifyReady(p.PID(), []oref.Ref{k.Ref()})
		el.Start()
		p.OnKill(el.Abandon)
		s.mu.Lock()
		s.kernel = k
		s.mu.Unlock()
		return nil
	}})

	// Per-neighborhood services: every server knows how to run every
	// neighborhood's replicas (the binary is on every machine, §9.5), so
	// the CSC can place backups — and migrate stranded services (§8.1) —
	// anywhere.  Which ones actually run where is the placement plan's
	// decision.
	for _, sv := range s.c.Servers {
		for _, nb := range sv.Spec.Neighborhoods {
			s.addCmgrSpec(nb, tun)
			s.addRDSSpec(nb, tun)
		}
	}
}

func (s *Server) addCmgrSpec(nb string, tun Tunables) {
	s.SSC.AddSpec(ssc.ServiceSpec{Name: "cmgr-" + nb, Start: func(p *proc.Process, c *ssc.Controller) error {
		sess, err := s.session(p)
		if err != nil {
			return err
		}
		cm := cmgr.New(sess, s.c.Fabric, nb)
		cm.Elector().RetryInterval = tun.BindRetry
		c.NotifyReady(p.PID(), []oref.Ref{cm.Ref()})
		cm.Start()
		p.OnKill(cm.Abort)
		s.mu.Lock()
		s.cmgrs[nb] = cm
		s.mu.Unlock()
		return nil
	}})
}

func (s *Server) addRDSSpec(nb string, tun Tunables) {
	s.SSC.AddSpec(ssc.ServiceSpec{Name: "rds-" + nb, Start: func(p *proc.Process, c *ssc.Controller) error {
		sess, err := s.session(p)
		if err != nil {
			return err
		}
		r := rds.New(sess, nb, s.Spec.Host)
		for name, data := range s.c.Cfg.Apps {
			r.Put(name, data)
		}
		c.NotifyReady(p.PID(), []oref.Ref{r.Ref()})
		if err := r.Register(); err != nil {
			return err
		}
		s.mu.Lock()
		s.rdss[nb] = r
		s.mu.Unlock()
		return nil
	}})
}
