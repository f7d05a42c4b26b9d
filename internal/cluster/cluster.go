// Package cluster is the test-bed harness: it assembles the full Orlando
// configuration (Fig. 1) — multiprocessor servers on a shared fabric,
// settops partitioned into neighborhoods by IP address — and brings every
// service up in the paper's boot order (§6.3):
//
//  1. each server's SSC starts,
//  2. the SSC starts the basic services (name service, Settop Manager,
//     Resource Audit Service, database),
//  3. once a majority of name-service replicas elect a master, base-level
//     services register,
//  4. the service placement (from the database) is started: CSC, MDS,
//     Connection Managers, RDS, MMS, VOD, boot and kernel services.
//
// Everything runs as an SSC-supervised process, so fault injection
// (KillService, SSC.Crash, Network.Cut) and the recovery machinery behave
// exactly as in the paper's deployment.
package cluster

import (
	"fmt"
	"slices"
	"strings"
	"time"

	"itv/internal/atm"
	"itv/internal/auth"
	"itv/internal/clock"
	"itv/internal/csc"
	"itv/internal/db"
	"itv/internal/media"
	"itv/internal/obs"
	"itv/internal/settop"
	"itv/internal/transport"
)

// Tunables are the cluster's polling intervals; the zero value yields the
// paper's deployed settings (§9.7).
type Tunables struct {
	// BindRetry is the primary/backup bind-retry interval (10 s).
	BindRetry time.Duration
	// NSAudit is the name service's RAS polling interval (10 s).
	NSAudit time.Duration
	// RASPoll is the RAS peer-polling interval (5 s).
	RASPoll time.Duration
	// NSHeartbeat is the name-service master's heartbeat period (1 s).
	NSHeartbeat time.Duration
	// NSElection is the name-service election timeout base (3 s).
	NSElection time.Duration
	// CSCPing is the CSC's SSC-ping interval (5 s).
	CSCPing time.Duration
}

func (t *Tunables) fill() {
	if t.BindRetry == 0 {
		t.BindRetry = 10 * time.Second
	}
	if t.NSAudit == 0 {
		t.NSAudit = 10 * time.Second
	}
	if t.RASPoll == 0 {
		t.RASPoll = 5 * time.Second
	}
	if t.NSHeartbeat == 0 {
		t.NSHeartbeat = time.Second
	}
	if t.NSElection == 0 {
		t.NSElection = 3 * time.Second
	}
	if t.CSCPing == 0 {
		t.CSCPing = 5 * time.Second
	}
}

// ServerSpec describes one server machine.
type ServerSpec struct {
	// Name is the server's hostname ("forge", "kiln" — Fig. 4).
	Name string
	// Host is the server's IP on the in-memory network.
	Host string
	// Neighborhoods this server is responsible for (§3.1).
	Neighborhoods []string
	// Movies stocked on this server's disks.
	Movies []media.MovieInfo
	// Egress is the server's ATM trunk (0 = default).
	Egress int64
	// ClockSkew offsets this server's wall clock from the cluster clock —
	// every service on the server reads the skewed time.  The knob behind
	// the skewed-clock failover tests: HLC ordering must survive what
	// wall-clock ordering cannot.
	ClockSkew time.Duration
}

// Config describes a whole cluster.
type Config struct {
	Servers []ServerSpec
	// Apps are the RDS-downloadable items (application binaries, fonts).
	Apps map[string][]byte
	// Kernel is the settop kernel image.
	Kernel []byte
	// Tunables override polling intervals.
	Tunables Tunables
	// Clk is the cluster clock; nil creates a fake clock (tests/benches).
	Clk clock.Clock
	// SettopDown overrides the per-settop downstream allowance (§3.1).
	SettopDown int64
	// EnableAuth runs the cluster with the §3.3 security model: an
	// authentication service, realm-signed server-to-server calls, and
	// settops that sign every call with ticket session keys.  Unenrolled
	// callers are refused.
	EnableAuth bool
	// AutoMigrate enables the CSC's automatic reassignment of stranded
	// services after a server failure — the paper's §8.1 future work.
	AutoMigrate bool
}

// Orlando returns the trial's configuration scaled to the deployment of
// §9.6: three servers, each serving two neighborhoods.
func Orlando() Config {
	movies := []media.MovieInfo{
		{Title: "T2", Size: 4_000_000_000, Bitrate: 4 * atm.Mbps},
		{Title: "Casablanca", Size: 2_400_000_000, Bitrate: 3 * atm.Mbps},
		{Title: "Duck Amuck", Size: 300_000_000, Bitrate: 3 * atm.Mbps},
	}
	apps := map[string][]byte{
		"navigator": make([]byte, 2<<20), // 2 MB -> 2 s at 1 MB/s (§9.3)
		"vod":       make([]byte, 3<<20),
		"shopping":  make([]byte, 4<<20), // 4 MB -> 4 s
		"games":     make([]byte, 3<<20),
	}
	return Config{
		Servers: []ServerSpec{
			{Name: "forge", Host: "192.168.0.1", Neighborhoods: []string{"1", "2"}, Movies: movies},
			{Name: "kiln", Host: "192.168.0.2", Neighborhoods: []string{"3", "4"}, Movies: movies},
			{Name: "anvil", Host: "192.168.0.3", Neighborhoods: []string{"5", "6"}, Movies: movies[:2]},
		},
		Apps:   apps,
		Kernel: make([]byte, 1<<20),
	}
}

// Net gives a host its transport.  memnet's *transport.Network is one; a
// process serving real TCP hands every host transport.TCP().  New installs
// a fresh memnet; a caller may swap it (and Store) before Start.
type Net interface {
	Host(ip string) transport.Transport
}

// Cluster is a running test-bed.
type Cluster struct {
	Cfg     Config
	Clk     clock.Clock
	FakeClk *clock.Fake // non-nil when the cluster owns a fake clock
	NW      Net
	Fabric  *atm.Network
	Store   *db.Store
	// Auth is the cluster's authentication service state (nil unless
	// Config.EnableAuth); its endpoint runs on the first server.
	Auth *auth.Service

	Servers []*Server
	settops []*settop.Settop
}

// New builds (but does not start) a cluster.
func New(cfg Config) *Cluster {
	cfg.Tunables.fill()
	c := &Cluster{Cfg: cfg, NW: transport.NewNetwork(), Fabric: atm.New()}
	if cfg.Clk == nil {
		c.FakeClk = clock.NewFake()
		c.Clk = c.FakeClk
	} else {
		c.Clk = cfg.Clk
		if f, ok := cfg.Clk.(*clock.Fake); ok {
			c.FakeClk = f
		}
	}
	if cfg.SettopDown != 0 {
		c.Fabric.SetSettopDown(cfg.SettopDown)
	}
	c.Store, _ = db.NewStore("")
	if cfg.EnableAuth {
		c.Auth = auth.NewService(c.Clk)
	}
	for i, spec := range cfg.Servers {
		c.Servers = append(c.Servers, newServer(c, i, spec))
	}
	return c
}

// AuthAddr returns the authentication service's address (EnableAuth only).
func (c *Cluster) AuthAddr() string {
	return fmt.Sprintf("%s:%d", c.Servers[0].Spec.Host, authPort)
}

// NSAddrs returns the fixed addresses of every name-service replica.
func (c *Cluster) NSAddrs() []string {
	out := make([]string, len(c.Cfg.Servers))
	for i, s := range c.Cfg.Servers {
		out[i] = fmt.Sprintf("%s:555", s.Host)
	}
	return out
}

// ServerFor returns the server responsible for a neighborhood.
func (c *Cluster) ServerFor(nbhd string) *Server {
	for _, s := range c.Servers {
		for _, n := range s.Spec.Neighborhoods {
			if n == nbhd {
				return s
			}
		}
	}
	return nil
}

// ServerByName returns the named server.
func (c *Cluster) ServerByName(name string) *Server {
	for _, s := range c.Servers {
		if s.Spec.Name == name {
			return s
		}
	}
	return nil
}

// WaitFor drives simulated time until cond holds: 500 ms steps, each
// settled before cond is checked, for up to 20 simulated minutes (with a
// real clock, 10 ms polls for 24 s).  It returns false on timeout.
func (c *Cluster) WaitFor(cond func() bool) bool {
	if c.FakeClk != nil {
		return c.FakeClk.Await(500*time.Millisecond, 2400, cond)
	}
	for i := 0; i < 2400 && !cond(); i++ {
		c.Clk.Sleep(10 * time.Millisecond)
	}
	return cond()
}

// MustWaitFor is WaitFor that panics on timeout, for harness internals.
func (c *Cluster) MustWaitFor(what string, cond func() bool) {
	if !c.WaitFor(cond) {
		panic("cluster: condition never held: " + what)
	}
}

// Start brings the cluster up in the §6.3 order.
func (c *Cluster) Start() {
	// 1–2: SSCs and basic services.
	for _, s := range c.Servers {
		s.start()
	}
	// 3: wait for the name-service master — and for every replica to know
	// it.  A majority elects; a slave that has not heard the winner yet
	// answers the first bind a service sends through it with Unavailable.
	c.MustWaitFor("name-service master elected and known to every replica", func() bool {
		master := ""
		for _, s := range c.Servers {
			if r := s.NS(); r != nil && r.IsMaster() {
				master = r.Addr()
			}
		}
		for _, s := range c.Servers {
			if r := s.NS(); r != nil {
				if _, _, known, _ := r.Status(); known != master {
					return false
				}
			}
		}
		return master != ""
	})

	// 4: write the placement into the database and start it.
	c.writePlacement()
	for _, s := range c.Servers {
		for _, name := range s.placedServices() {
			if err := s.SSC.StartService(name); err != nil {
				panic(fmt.Sprintf("cluster: start %s on %s: %v", name, s.Spec.Name, err))
			}
		}
	}

	// Settle: every neighborhood's connection manager primary and the MMS
	// primary must be in place before the cluster is usable.  Either the
	// responsible server's replica or its backup may have won the bind.
	c.MustWaitFor("service primaries elected", func() bool {
		for _, s := range c.Servers {
			for _, n := range s.Spec.Neighborhoods {
				if c.CmgrPrimary(n) == nil {
					return false
				}
			}
		}
		return c.MMSPrimary() != nil
	})
}

// CmgrPrimary returns the acting Connection Manager for a neighborhood.
func (c *Cluster) CmgrPrimary(nbhd string) *Server {
	for _, s := range c.Servers {
		if cm := s.Cmgr(nbhd); cm != nil && cm.IsPrimary() {
			return s
		}
	}
	return nil
}

// MMSPrimary returns the server whose MMS replica is primary, if any.
func (c *Cluster) MMSPrimary() *Server {
	for _, s := range c.Servers {
		if m := s.MMS(); m != nil && m.IsPrimary() {
			return s
		}
	}
	return nil
}

// Stop tears the cluster down.
func (c *Cluster) Stop() {
	for _, st := range c.settops {
		st.Crash()
	}
	for _, s := range c.Servers {
		s.SSC.Close()
	}
}

// writePlacement stores the CSC's configuration (§6.2).  Each service
// lists a host once: on a one-server plan the "next server" that carries a
// backup is the server itself.
func (c *Cluster) writePlacement() {
	for _, s := range c.Servers {
		c.Store.Put(csc.ServersTable, s.Spec.Host, "")
	}
	rows := map[string][]string{}
	add := func(svc string, hosts ...string) {
		for _, h := range hosts {
			if !slices.Contains(rows[svc], h) {
				rows[svc] = append(rows[svc], h)
			}
		}
	}

	n := len(c.Servers)
	host := func(i int) string { return c.Servers[i%n].Spec.Host }
	add("db", host(0))
	if c.Auth != nil {
		add("auth", host(0))
	}
	for i, s := range c.Servers {
		// Basic services run everywhere (§6.3 step 2); listing them in the
		// plan keeps the CSC's reconciliation from stopping them and lets
		// it restore them after a reboot.
		add("ns", s.Spec.Host)
		add("mgr", s.Spec.Host)
		add("ras", s.Spec.Host)
		add("mds", s.Spec.Host)
		add("boot", s.Spec.Host)
		for _, nb := range s.Spec.Neighborhoods {
			// Neighborhood connection managers: active replica on the
			// responsible server, passive backup on the next (§5.2).
			add("cmgr-"+nb, s.Spec.Host, host(i+1))
			// RDS replicas are per neighborhood with no automatic
			// cross-server restart (§8.1).
			add("rds-"+nb, s.Spec.Host)
		}
	}
	add("csc", host(0), host(1))
	add("mms", host(0), host(1))
	add("vod", host(0), host(1))
	add("kernel", host(0), host(1))
	for svc, hosts := range rows {
		c.Store.Put(csc.ServicesTable, svc, strings.Join(hosts, ","))
	}
	// Per-server infrastructure never migrates (§8.1: "there is no reason
	// to restart its MDS replica on another server").
	for _, svc := range []string{"ns", "mgr", "ras", "db", "auth", "mds", "boot"} {
		c.Store.Put(csc.PinnedTable, svc, "")
	}
}

// NewSettop provisions a settop in the given neighborhood and returns it
// (powered off; call Boot).  idx distinguishes settops within the
// neighborhood.
func (c *Cluster) NewSettop(nbhd string, idx int) *settop.Settop {
	host := fmt.Sprintf("10.%s.%d.%d", nbhd, idx/250, idx%250+1)
	c.Fabric.AddSettop(host)
	// Pin the settop host's HLC to the simulated clock before its endpoint
	// caches it: a settop left on the real clock would stamp wall-time
	// readings onto every RPC and drag the whole cluster's HLCs decades
	// ahead of simulated time (Observe only ever lifts).
	obs.NodeHLC(host).SetNow(c.Clk.Now)
	srv := c.ServerFor(nbhd)
	if srv == nil {
		srv = c.Servers[0]
	}
	st := settop.New(c.NW.Host(host), c.Clk, fmt.Sprintf("%s:554", srv.Spec.Host))
	if c.Auth != nil {
		// Enroll the settop at provisioning time (§3.4.1's secure boot):
		// the secret is burned into the settop; every call it makes after
		// boot carries a ticket-keyed signature.
		principal := "settop/" + host
		st.Credentials = &settop.Credentials{
			Principal:   principal,
			Key:         c.Auth.Enroll(principal),
			AuthService: c.AuthAddr(),
		}
	}
	c.settops = append(c.settops, st)
	return st
}

// Settops returns every provisioned settop.
func (c *Cluster) Settops() []*settop.Settop { return c.settops }
