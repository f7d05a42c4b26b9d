// Package mms implements the Media Management Service (§3.3–3.5): the
// service applications ask to open movies.  For each open it chooses an
// MDS replica (by movie location and load), has the Connection Manager
// allocate the settop's high-bandwidth connection, opens the movie, and
// hands the movie object back to the application (Fig. 4).  It polls the
// Resource Audit Service about the settops holding movies and reclaims
// disk and network resources when one fails (§3.5.1).
//
// The MMS is replicated primary/backup (§5.2).  It keeps no replicated
// state: a newly promoted replica reconstructs its table by querying every
// MDS for its open movies and the Connection Manager for its allocations
// (§10.1.1).
package mms

import (
	"sync"
	"time"

	"itv/internal/atm"
	"itv/internal/audit"
	"itv/internal/clock"
	"itv/internal/cmgr"
	"itv/internal/core"
	"itv/internal/media"
	"itv/internal/names"
	"itv/internal/orb"
	"itv/internal/oref"
	"itv/internal/wire"
)

// TypeID is the IDL interface name.
const TypeID = "itv.MMS"

// ServiceName is the MMS's binding in the cluster name space.
const ServiceName = "svc/mms"

// DefaultRASPollInterval is how often the MMS polls the RAS about settops
// holding movies (Fig. 4 step 10; §9.7 pairs it with the name service's
// 10 s RAS poll).
const DefaultRASPollInterval = 10 * time.Second

// DefaultMDSRetryInterval is how often the MMS re-lists the MDS replicas
// and re-probes the ones it found dead (§3.5.2: "The MMS will periodically
// re-resolve and retry the MDS object reference for the failed MDS").
const DefaultMDSRetryInterval = 10 * time.Second

type openMovie struct {
	MovieID  string
	Title    string
	Settop   string
	ConnID   string
	MovieRef oref.Ref
	MDSRef   oref.Ref
}

// mdsReplica is one entry of the MMS's copy of the svc/mds listing.  dead
// marks the reference, not the name: a restarted replica is listed unmarked.
type mdsReplica struct {
	name string
	ref  oref.Ref
	dead bool
}

// Service is one MMS replica.
type Service struct {
	sess    *core.Session
	elector *core.Elector
	watcher *audit.Watcher
	ref     oref.Ref

	MDSRetryInterval time.Duration

	cmgrs *cmgr.Directory // one held reference per neighborhood served (§3.4.2)

	mu     sync.Mutex
	movies map[string]*openMovie // movieID -> record
	mds    []mdsReplica          // svc/mds as last listed; replaced, never written in place

	loop *clock.Loop
}

// New builds an MMS replica.  rasRef is the local server's RAS.
func New(sess *core.Session, rasRef oref.Ref) *Service {
	s := &Service{
		sess:             sess,
		MDSRetryInterval: DefaultMDSRetryInterval,
		cmgrs:            cmgr.NewDirectory(sess),
		movies:           make(map[string]*openMovie),
	}
	s.ref = sess.Ep.Register("mms", &skel{s: s})
	s.watcher = audit.NewWatcher(
		audit.Stub{Ep: sess.Ep, Ref: rasRef}, sess.Clk, DefaultRASPollInterval)
	s.elector = sess.NewElector(ServiceName, s.ref)
	s.elector.OnPrimary = s.rebuild
	return s
}

// Ref returns this replica's object reference.
func (s *Service) Ref() oref.Ref { return s.ref }

// Elector exposes the replica's primary/backup elector for interval
// tuning (§9.7's "backup retries bind" parameter).
func (s *Service) Elector() *core.Elector { return s.elector }

// IsPrimary reports whether this replica serves clients.
func (s *Service) IsPrimary() bool { return s.elector.IsPrimary() }

// OpenCount reports tracked open movies.
func (s *Service) OpenCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.movies)
}

// Start begins campaigning and background maintenance.
func (s *Service) Start() {
	_, _ = s.sess.Root.BindNewContext("svc") // bound already, or no master yet: the elector retries
	s.elector.Start()
	s.loop = clock.Every(s.sess.Clk, s.MDSRetryInterval, false, func(time.Time) { s.refreshMDS() })
}

// Close stops the replica cleanly, releasing the primary binding so a
// backup takes over at once.
func (s *Service) Close() { s.shutdown(true) }

// Abort stops the replica with crash semantics: the binding stays until
// auditing removes it, exercising the §9.7 fail-over path.  Process
// teardown (SSC kills) uses this.
func (s *Service) Abort() { s.shutdown(false) }

func (s *Service) shutdown(clean bool) {
	s.loop.Stop()
	s.watcher.Close()
	if clean {
		s.elector.Close()
	} else {
		s.elector.Abandon()
	}
	s.sess.Ep.Unregister("mms")
}

// replicas returns the MDS replicas to consider for an open, asking the
// name service only when nothing is listed yet or a listed reference has
// been found dead — from the open that finds it until a listing no longer
// carries it (audited out, or re-registered under a new incarnation).
func (s *Service) replicas() ([]mdsReplica, error) {
	s.mu.Lock()
	listed := s.mds
	s.mu.Unlock()
	fresh := len(listed) > 0
	for _, r := range listed {
		fresh = fresh && !r.dead
	}
	if fresh {
		return listed, nil
	}
	return s.relist()
}

// listMDS asks the name service for every replica bound in svc/mds.
func (s *Service) listMDS() ([]mdsReplica, error) {
	bindings, err := s.sess.Root.ListRepl(media.ContextPath)
	if err != nil {
		return nil, err
	}
	listed := make([]mdsReplica, 0, len(bindings))
	for _, b := range bindings {
		if b.Name != names.SelectorBinding {
			listed = append(listed, mdsReplica{name: b.Name, ref: b.Ref})
		}
	}
	return listed, nil
}

// relist replaces the held listing with the name service's, carrying a
// dead mark over only onto the very reference that earned it.
func (s *Service) relist() ([]mdsReplica, error) {
	listed, err := s.listMDS()
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := range listed {
		for _, old := range s.mds {
			if old.dead && old.ref.Equal(listed[i].ref) {
				listed[i].dead = true
			}
		}
	}
	s.mds = listed
	return listed, nil
}

// setMDSDead marks or forgives the listed replica holding ref.
func (s *Service) setMDSDead(ref oref.Ref, dead bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	listed := append([]mdsReplica(nil), s.mds...)
	for i := range listed {
		if listed[i].ref.Equal(ref) {
			listed[i].dead = dead
		}
	}
	s.mds = listed
}

// markMDSDead records a replica failure.
func (s *Service) markMDSDead(ref oref.Ref, err error) {
	if orb.Dead(err) {
		s.setMDSDead(ref, true)
	}
}

// refreshMDS is the periodic re-resolve of §3.5.2: one listing (how a
// replica added since the last one is noticed), then a ping to forgive the
// marked replicas that answer again.  An MMS holding no listing skips it.
func (s *Service) refreshMDS() {
	s.mu.Lock()
	idle := len(s.mds) == 0
	s.mu.Unlock()
	if idle {
		return
	}
	listed, err := s.relist()
	if err != nil {
		return
	}
	for _, r := range listed {
		if r.dead && s.sess.Ep.Ping(r.ref) == nil {
			s.setMDSDead(r.ref, false)
		}
	}
}

// Open implements the open operation (Fig. 4).  The settop's identity is
// the caller's host.
func (s *Service) Open(title, settopHost string) (oref.Ref, string, error) {
	if !s.elector.IsPrimary() {
		return oref.Ref{}, "", orb.Errf(orb.ExcUnavailable, "mms: not primary")
	}

	// Step 4a: ask every live MDS replica whether it stores the title and
	// how loaded it is.
	replicas, err := s.replicas()
	if err != nil {
		return oref.Ref{}, "", err
	}
	type candidate struct {
		ref  oref.Ref
		info media.MovieInfo
		load int
	}
	candidates := make([]candidate, 0, len(replicas))
	for _, r := range replicas {
		if r.dead {
			continue
		}
		info, has, load, err := (media.Stub{Ep: s.sess.Ep, Ref: r.ref}).Probe(title)
		if err != nil {
			s.markMDSDead(r.ref, err)
			continue
		}
		if has {
			candidates = append(candidates, candidate{ref: r.ref, info: info, load: load})
		}
	}
	if len(candidates) == 0 {
		return oref.Ref{}, "", orb.Errf(orb.ExcNotFound, "no live MDS replica stores %q", title)
	}

	// Steps 3 and 4b: try candidates lightest-first, each over a connection
	// from the settop's Connection Manager; an open failure marks the
	// replica dead and moves on (§3.5.2).
	sortCandidates(candidates, func(i, j int) bool { return candidates[i].load < candidates[j].load })
	var lastErr error
	for _, cand := range candidates {
		mdsHost := refHost(cand.ref.Addr)
		alloc, err := s.cmgrs.Allocate(settopHost, mdsHost, cand.info.Bitrate, atm.CBR)
		if err != nil {
			// Admission failure is about the settop or server links, not
			// the replica; surface it.
			return oref.Ref{}, "", err
		}
		movieRef, movieID, err := (media.Stub{Ep: s.sess.Ep, Ref: cand.ref}).Open(
			title, settopHost, alloc.ID)
		if err != nil {
			s.release(settopHost, alloc.ID)
			if orb.Dead(err) {
				s.markMDSDead(cand.ref, err)
				lastErr = err
				continue
			}
			return oref.Ref{}, "", err
		}

		om := &openMovie{
			MovieID:  movieID,
			Title:    title,
			Settop:   settopHost,
			ConnID:   alloc.ID,
			MovieRef: movieRef,
			MDSRef:   cand.ref,
		}
		s.track(om)
		return movieRef, movieID, nil
	}
	return oref.Ref{}, "", lastErr
}

// track records an open movie and watches its settop via the RAS
// (steps 9–10 of Fig. 4).  If a record under the same id already exists
// (which unique MDS-side ids should prevent), its resources are released
// first rather than silently dropped.
func (s *Service) track(om *openMovie) {
	s.mu.Lock()
	old, clash := s.movies[om.MovieID]
	s.movies[om.MovieID] = om
	s.mu.Unlock()
	if clash && old.ConnID != om.ConnID {
		s.release(old.Settop, old.ConnID)
	}
	s.watcher.Watch(audit.SettopRef(om.Settop), func(oref.Ref) {
		s.reclaimSettop(om.Settop)
	})
}

// release gives a connection back to whichever Connection Manager serves
// the settop now (after a fail-over, the backup that took the table over).
// The error left after rebinding, "no primary bound", has no handler here.
func (s *Service) release(settop, connID string) {
	_ = s.cmgrs.Release(settop, connID)
}

// Close releases one movie's resources (the application's close call,
// §3.4.5).
func (s *Service) CloseMovie(movieID string) error {
	s.mu.Lock()
	om, ok := s.movies[movieID]
	if ok {
		delete(s.movies, movieID)
	}
	remaining := 0
	if ok {
		for _, other := range s.movies {
			if other.Settop == om.Settop {
				remaining++
			}
		}
	}
	s.mu.Unlock()
	if !ok {
		return orb.Errf(orb.ExcNotFound, "no open movie %q", movieID)
	}
	_ = (media.Stub{Ep: s.sess.Ep, Ref: om.MDSRef}).CloseMovie(om.MovieID)
	s.release(om.Settop, om.ConnID)
	if remaining == 0 {
		s.watcher.Cancel(audit.SettopRef(om.Settop))
	}
	return nil
}

// reclaimSettop closes every movie a failed settop held (§3.5.1).
func (s *Service) reclaimSettop(settop string) {
	s.mu.Lock()
	var ids []string
	for id, om := range s.movies {
		if om.Settop == settop {
			ids = append(ids, id)
		}
	}
	s.mu.Unlock()
	for _, id := range ids {
		_ = s.CloseMovie(id)
	}
}

// rebuild reconstructs the table after promotion by querying every MDS
// (§10.1.1: "The volatile state of the MMS can be reconstructed by
// querying each MDS in the cluster and by querying the Connection
// Manager").
func (s *Service) rebuild() {
	replicas, err := s.listMDS()
	if err != nil {
		return
	}
	for _, r := range replicas {
		movies, err := (media.Stub{Ep: s.sess.Ep, Ref: r.ref}).OpenMovies()
		if err != nil {
			continue // the first open will find it dead and mark it
		}
		for _, m := range movies {
			s.track(&openMovie{
				MovieID: m.MovieID,
				Title:   m.Title,
				Settop:  m.Settop,
				ConnID:  m.ConnID,
				// The movie object id is registered on the MDS endpoint.
				MovieRef: oref.Ref{Addr: r.ref.Addr, Incarnation: r.ref.Incarnation,
					TypeID: media.TypeMovie, ObjectID: m.MovieID},
				MDSRef: r.ref,
			})
		}
	}
}

func refHost(addr string) string {
	for i := len(addr) - 1; i >= 0; i-- {
		if addr[i] == ':' {
			return addr[:i]
		}
	}
	return addr
}

func sortCandidates[T any](s []T, less func(i, j int) bool) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && less(j, j-1); j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// ---- IDL skeleton and stub ----

type skel struct{ s *Service }

func (k *skel) TypeID() string { return TypeID }

func (k *skel) Dispatch(c *orb.ServerCall) error {
	switch c.Method() {
	case "open":
		title := media.DecodeTitle(c.Args())
		ref, id, err := k.s.Open(title, c.Caller().Host())
		if err != nil {
			return err
		}
		ref.MarshalWire(c.Results())
		c.Results().PutString(id)
		return nil
	case "close":
		return k.s.CloseMovie(c.Args().String())
	default:
		return orb.ErrNoSuchMethod
	}
}

// Stub is the application-side proxy, following the MMS primary through
// the name service with automatic rebinding (§8.2).
type Stub struct {
	Svc *core.Rebinder
}

// NewStub returns a rebinding MMS proxy.
func NewStub(sess *core.Session) Stub {
	return Stub{Svc: sess.Service(ServiceName)}
}

// Open opens a movie for the calling settop (Fig. 4 step 2).
func (s Stub) Open(title string) (media.Movie, string, error) {
	var ref oref.Ref
	var id string
	err := s.Svc.Invoke("open",
		func(e *wire.Encoder) { e.PutString(title) },
		func(d *wire.Decoder) error {
			ref.UnmarshalWire(d)
			id = d.String()
			return nil
		})
	if err != nil {
		return media.Movie{}, "", err
	}
	return media.Movie{Ep: s.Svc.Session().Ep, Ref: ref}, id, nil
}

// Close releases a movie (§3.4.5).
func (s Stub) Close(movieID string) error {
	return s.Svc.Invoke("close",
		func(e *wire.Encoder) { e.PutString(movieID) }, nil)
}
