// Package cmgr implements the Connection Manager (§3.3): the service that
// allocates ATM connections between settops and servers.  It is the
// system's most elaborately replicated service — "the Connection Manager
// actually uses both forms of replication.  It has active replicas for
// each neighborhood ..., and the neighborhood replicas are backed up by
// passive replicas" (§5.2) — and, with the name service, one of only two
// services that require replicated state (§10.1.1): each primary mirrors
// its allocation table to its backups so a promoted backup can manage (and
// release) the connections the hardware still carries.
//
// It also enforces the per-settop resource limits of §7.3: a settop may
// hold only a bounded number of connections, which contains buggy clients.
package cmgr

import (
	"sync"
	"time"

	"itv/internal/atm"
	"itv/internal/clock"
	"itv/internal/core"
	"itv/internal/names"
	"itv/internal/orb"
	"itv/internal/oref"
	"itv/internal/wire"
)

// TypeID is the IDL interface name.
const TypeID = "itv.ConnectionManager"

// ContextPath is the replicated context holding per-neighborhood replicas;
// clients resolve "svc/cmgr" (their neighborhood's replica via the
// neighborhood selector) or "svc/cmgr/<n>" explicitly (Fig. 4).
const ContextPath = "svc/cmgr"

// DefaultMaxConnsPerSettop is the §7.3 resource limit.
const DefaultMaxConnsPerSettop = 4

// Alloc describes one admitted connection.
type Alloc struct {
	ID     string
	Settop string
	Server string
	Rate   int64
	Kind   int64 // atm.Kind
}

// servers holds the servers a fabric here has carried a connection from,
// admitted once Allocate succeeds, never from a call (DESIGN.md §9).
var servers wire.Table[string]

func (a *Alloc) MarshalWire(e *wire.Encoder) {
	e.PutString(a.ID)
	e.PutString(a.Settop)
	e.PutString(a.Server)
	e.PutInt(a.Rate)
	e.PutInt(a.Kind)
}

func (a *Alloc) UnmarshalWire(d *wire.Decoder) {
	a.ID = d.String()
	a.Settop = d.String()
	a.Server = d.Known(&servers)
	a.Rate = d.Int()
	a.Kind = d.Int()
}

func putAllocs(e *wire.Encoder, as []Alloc) {
	e.PutUint(uint64(len(as)))
	for i := range as {
		as[i].MarshalWire(e)
	}
}

// minAllocBytes is the least an allocation occupies on the wire: three
// empty strings and two one-byte numbers.
const minAllocBytes = 5

func getAllocs(d *wire.Decoder) []Alloc {
	n := d.CountOf(minAllocBytes)
	out := make([]Alloc, 0, n)
	for i := 0; i < n && d.Err() == nil; i++ {
		var a Alloc
		a.UnmarshalWire(d)
		out = append(out, a)
	}
	return out
}

// Service is one Connection Manager replica for one neighborhood.
type Service struct {
	sess    *core.Session
	fabric  *atm.Network
	scope   string // neighborhood number, e.g. "1"
	ref     oref.Ref
	elector *core.Elector

	// MaxConnsPerSettop bounds a settop's simultaneous connections (§7.3).
	MaxConnsPerSettop int
	// MirrorInterval is how often a backup (re)registers with the primary.
	MirrorInterval time.Duration

	mu       sync.Mutex
	table    map[string]Alloc
	perTop   map[string]int
	mirrors  map[string]oref.Ref // mirror key -> callback ref
	usage    map[string]*Usage   // §7.3 accounting, per settop
	openedAt map[string]time.Time

	loop *clock.Loop
}

// New builds a Connection Manager replica for the given neighborhood
// scope, operating the shared ATM fabric.
func New(sess *core.Session, fabric *atm.Network, scope string) *Service {
	s := &Service{
		sess:              sess,
		fabric:            fabric,
		scope:             scope,
		MaxConnsPerSettop: DefaultMaxConnsPerSettop,
		MirrorInterval:    5 * time.Second,
		table:             make(map[string]Alloc),
		perTop:            make(map[string]int),
		mirrors:           make(map[string]oref.Ref),
		usage:             make(map[string]*Usage),
		openedAt:          make(map[string]time.Time),
	}
	s.ref = sess.Ep.Register("cmgr-"+scope, &skel{s: s})
	s.elector = sess.NewElector(ContextPath+"/"+scope, s.ref)
	return s
}

// Ref returns this replica's object reference.
func (s *Service) Ref() oref.Ref { return s.ref }

// Elector exposes the replica's primary/backup elector for interval tuning.
func (s *Service) Elector() *core.Elector { return s.elector }

// IsPrimary reports whether this replica serves its neighborhood.
func (s *Service) IsPrimary() bool { return s.elector.IsPrimary() }

// Start begins the election campaign and the backup mirror loop.
func (s *Service) Start() {
	s.ensureContexts()
	s.elector.Start()
	s.loop = clock.Every(s.sess.Clk, s.MirrorInterval, false, func(time.Time) {
		if !s.elector.IsPrimary() {
			s.ensureContexts()
			s.registerAsMirror()
		}
	})
}

// Close stops the replica cleanly (unbinding if primary).
func (s *Service) Close() { s.shutdown(true) }

// Abort stops the replica with crash semantics (no unbind).
func (s *Service) Abort() { s.shutdown(false) }

func (s *Service) shutdown(clean bool) {
	s.loop.Stop()
	if clean {
		s.elector.Close()
	} else {
		s.elector.Abandon()
	}
	s.sess.Ep.Unregister("cmgr-" + s.scope)
}

// ensureContexts creates svc/cmgr as a neighborhood-selected replicated
// context so that resolving "svc/cmgr" finds the caller's replica (§5.1).
func (s *Service) ensureContexts() {
	if _, err := s.sess.Root.BindNewContext("svc"); err != nil && !orb.IsApp(err, orb.ExcAlreadyBound) {
		return
	}
	_, _ = s.sess.Root.BindReplContext(ContextPath, names.PolicyNeighborhood)
}

// registerAsMirror tells the current primary to stream state changes here,
// so this backup can take over with the connection table intact (§10.1.1).
func (s *Service) registerAsMirror() {
	primary, err := s.sess.Root.Resolve(ContextPath + "/" + s.scope)
	if err != nil || primary.Equal(s.ref) {
		return
	}
	_ = s.sess.Ep.Invoke(primary, "addMirror",
		func(e *wire.Encoder) { s.ref.MarshalWire(e) }, nil)
}

// Allocate admits a connection (primary only).
func (s *Service) Allocate(settop, server string, rate int64, kind atm.Kind) (Alloc, error) {
	if !s.elector.IsPrimary() {
		return Alloc{}, orb.Errf(orb.ExcUnavailable, "cmgr %s: not primary", s.scope)
	}
	s.mu.Lock()
	if s.perTop[settop] >= s.MaxConnsPerSettop {
		s.accountDenied(settop)
		s.mu.Unlock()
		return Alloc{}, orb.Errf(orb.ExcExhausted,
			"settop %s at its connection limit (%d)", settop, s.MaxConnsPerSettop)
	}
	s.mu.Unlock()

	conn, err := s.fabric.Allocate(server, settop, rate, kind)
	if err != nil {
		return Alloc{}, orb.Errf(orb.ExcExhausted, "%v", err)
	}
	a := Alloc{ID: conn.ID, Settop: settop, Server: wire.Canonical(&servers, server), Rate: conn.Rate, Kind: int64(kind)}
	s.mu.Lock()
	s.table[a.ID] = a
	s.perTop[settop]++
	s.accountOpen(settop)
	s.openedAt[a.ID] = s.sess.Clk.Now()
	mirrors := s.mirrorRefs()
	s.mu.Unlock()
	s.pushMirrors(mirrors, "mirrorPut", func(e *wire.Encoder) { a.MarshalWire(e) })
	return a, nil
}

// Release frees a connection.
func (s *Service) Release(id string) error {
	s.mu.Lock()
	a, ok := s.table[id]
	if ok {
		delete(s.table, id)
		if s.perTop[a.Settop] > 0 {
			s.perTop[a.Settop]--
		}
		if opened, tracked := s.openedAt[id]; tracked {
			s.accountClose(a, opened)
			delete(s.openedAt, id)
		}
	}
	mirrors := s.mirrorRefs()
	s.mu.Unlock()
	if !ok {
		return orb.Errf(orb.ExcNotFound, "no connection %q", id)
	}
	_ = s.fabric.Release(id)
	s.pushMirrors(mirrors, "mirrorDel", func(e *wire.Encoder) { e.PutString(id) })
	return nil
}

// List returns the allocation table — the query the MMS uses to rebuild
// its state after a fail-over (§10.1.1).
func (s *Service) List() []Alloc {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Alloc, 0, len(s.table))
	for _, a := range s.table {
		out = append(out, a)
	}
	return out
}

// Held reports how many connections a settop currently holds.
func (s *Service) Held(settop string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.perTop[settop]
}

func (s *Service) mirrorRefs() []oref.Ref {
	out := make([]oref.Ref, 0, len(s.mirrors))
	for _, r := range s.mirrors {
		out = append(out, r)
	}
	return out
}

func (s *Service) pushMirrors(mirrors []oref.Ref, method string, put func(*wire.Encoder)) {
	for _, m := range mirrors {
		if err := s.sess.Ep.Invoke(m, method, put, nil); err != nil && orb.Dead(err) {
			s.mu.Lock()
			delete(s.mirrors, m.Key())
			s.mu.Unlock()
		}
	}
}

// addMirror registers a backup and immediately sends it a full snapshot.
func (s *Service) addMirror(ref oref.Ref) {
	s.mu.Lock()
	s.mirrors[ref.Key()] = ref
	snapshot := make([]Alloc, 0, len(s.table))
	for _, a := range s.table {
		snapshot = append(snapshot, a)
	}
	s.mu.Unlock()
	_ = s.sess.Ep.Invoke(ref, "mirrorSnapshot",
		func(e *wire.Encoder) { putAllocs(e, snapshot) }, nil)
}

// Mirror application (backup side).
func (s *Service) mirrorPut(a Alloc) {
	s.mu.Lock()
	if _, dup := s.table[a.ID]; !dup {
		s.table[a.ID] = a
		s.perTop[a.Settop]++
	}
	s.mu.Unlock()
}

func (s *Service) mirrorDel(id string) {
	s.mu.Lock()
	if a, ok := s.table[id]; ok {
		delete(s.table, id)
		if s.perTop[a.Settop] > 0 {
			s.perTop[a.Settop]--
		}
	}
	s.mu.Unlock()
}

func (s *Service) mirrorSnapshot(as []Alloc) {
	s.mu.Lock()
	s.table = make(map[string]Alloc, len(as))
	s.perTop = make(map[string]int)
	for _, a := range as {
		s.table[a.ID] = a
		s.perTop[a.Settop]++
	}
	s.mu.Unlock()
}

type skel struct{ s *Service }

func (k *skel) TypeID() string { return TypeID }

func (k *skel) Dispatch(c *orb.ServerCall) error {
	s := k.s
	switch c.Method() {
	case "allocate":
		settop := c.Args().String()
		server := c.Args().Known(&servers)
		rate := c.Args().Int()
		kind := atm.Kind(c.Args().Int())
		a, err := s.Allocate(settop, server, rate, kind)
		if err != nil {
			return err
		}
		a.MarshalWire(c.Results())
		return nil
	case "release":
		return s.Release(c.Args().String())
	case "list":
		putAllocs(c.Results(), s.List())
		return nil
	case "addMirror":
		var ref oref.Ref
		ref.UnmarshalWire(c.Args())
		s.addMirror(ref)
		return nil
	case "mirrorPut":
		var a Alloc
		a.UnmarshalWire(c.Args())
		s.mirrorPut(a)
		return nil
	case "mirrorDel":
		s.mirrorDel(c.Args().String())
		return nil
	case "mirrorSnapshot":
		s.mirrorSnapshot(getAllocs(c.Args()))
		return nil
	case "usage":
		report := s.UsageReport()
		e := c.Results()
		e.PutUint(uint64(len(report)))
		for i := range report {
			report[i].MarshalWire(e)
		}
		return nil
	default:
		return orb.ErrNoSuchMethod
	}
}

// Stub is the client proxy for a Connection Manager.
type Stub struct {
	Ep  *orb.Endpoint
	Ref oref.Ref
}

// Allocate admits a connection between settop and server.
func (s Stub) Allocate(settop, server string, rate int64, kind atm.Kind) (Alloc, error) {
	var a Alloc
	err := s.Ep.Invoke(s.Ref, "allocate",
		func(e *wire.Encoder) {
			e.PutString(settop)
			e.PutString(server)
			e.PutInt(rate)
			e.PutInt(int64(kind))
		},
		func(d *wire.Decoder) error { a.UnmarshalWire(d); return nil })
	return a, err
}

// Release frees a connection.
func (s Stub) Release(id string) error {
	return s.Ep.Invoke(s.Ref, "release",
		func(e *wire.Encoder) { e.PutString(id) }, nil)
}

// List fetches the allocation table.
func (s Stub) List() ([]Alloc, error) {
	var out []Alloc
	err := s.Ep.Invoke(s.Ref, "list", nil,
		func(d *wire.Decoder) error { out = getAllocs(d); return nil })
	return out, err
}
