// Package media implements the Media Delivery Service (MDS, §3.3): the
// per-server service that delivers constant-bit-rate movie data from its
// disks into the network.  Each server runs its own MDS replica over its
// own movie store; movies are replicated across servers so that most MDS
// failures are covered by reopening the movie elsewhere (§3.5.2).
//
// The MDS is one of only two services that create objects dynamically
// (§9.2): every open movie is its own object, created at open and
// withdrawn at close, so a crashed MDS invalidates exactly the movie
// references its viewers hold.
//
// Playback is simulated against the clock: a playing movie's position
// advances at its bit rate.  This preserves what the evaluation needs —
// positions, stream lifetimes, bandwidth occupancy and crash behaviour —
// without shipping payload bytes.
package media

import (
	"fmt"
	"sync"
	"time"

	"itv/internal/core"
	"itv/internal/names"
	"itv/internal/orb"
	"itv/internal/oref"
	"itv/internal/wire"
)

// IDL interface names.
const (
	TypeID    = "itv.MDS"
	TypeMovie = "itv.Movie"
)

// ContextPath is the replicated context of MDS replicas, bound by server
// name ("svc/mds/forge", Fig. 4).
const ContextPath = "svc/mds"

// titles holds the titles this process's catalogs carry, admitted as they
// enter a catalog, never from a call (DESIGN.md §9).
var titles wire.Table[string]

// DecodeTitle decodes a title, as a catalog's copy when one here carries it.
func DecodeTitle(d *wire.Decoder) string { return d.Known(&titles) }

// MovieInfo describes a title in a server's store.
type MovieInfo struct {
	Title   string
	Size    int64 // bytes
	Bitrate int64 // bits/second
}

func (m *MovieInfo) MarshalWire(e *wire.Encoder) {
	e.PutString(m.Title)
	e.PutInt(m.Size)
	e.PutInt(m.Bitrate)
}

func (m *MovieInfo) UnmarshalWire(d *wire.Decoder) {
	m.Title = DecodeTitle(d)
	m.Size = d.Int()
	m.Bitrate = d.Int()
}

// Duration is the title's running time at its bit rate.
func (m MovieInfo) Duration() time.Duration {
	if m.Bitrate <= 0 {
		return 0
	}
	return time.Duration(float64(m.Size*8) / float64(m.Bitrate) * float64(time.Second))
}

// OpenMovie describes one open movie (the state-rebuild record the MMS
// queries after a fail-over, §10.1.1).
type OpenMovie struct {
	MovieID string
	Title   string
	Settop  string
	ConnID  string
}

func (o *OpenMovie) MarshalWire(e *wire.Encoder) {
	e.PutString(o.MovieID)
	e.PutString(o.Title)
	e.PutString(o.Settop)
	e.PutString(o.ConnID)
}

func (o *OpenMovie) UnmarshalWire(d *wire.Decoder) {
	o.MovieID = d.String()
	o.Title = DecodeTitle(d)
	o.Settop = d.String()
	o.ConnID = d.String()
}

type movieState struct {
	OpenMovie
	info      MovieInfo
	playing   bool
	offset    int64 // byte position at last play/pause boundary
	startedAt time.Time
}

// Service is one server's MDS replica.
type Service struct {
	sess       *core.Session
	serverName string

	mu      sync.Mutex
	catalog map[string]MovieInfo
	open    map[string]*movieState
	nextID  int64
}

// New builds an MDS replica named serverName (the paper's "forge"/"kiln")
// serving the given catalog.
func New(sess *core.Session, serverName string, titles []MovieInfo) *Service {
	s := &Service{
		sess:       sess,
		serverName: serverName,
		catalog:    make(map[string]MovieInfo, len(titles)),
		open:       make(map[string]*movieState),
	}
	for _, t := range titles {
		s.AddTitle(t)
	}
	sess.Ep.Register("mds", &skel{s: s})
	return s
}

// Ref returns the MDS service object's reference.
func (s *Service) Ref() oref.Ref { return s.sess.Ep.RefFor("mds") }

// Endpoint exposes the replica's ORB endpoint (fault injection in tests).
func (s *Service) Endpoint() *orb.Endpoint { return s.sess.Ep }

// Register binds this replica into the cluster name space under its
// server name (§5.1: per-server active replicas).
func (s *Service) Register() error {
	return s.sess.RegisterActive(ContextPath, s.serverName, s.Ref(), names.PolicyFirst)
}

// AddTitle adds a movie to the store (content distribution).
func (s *Service) AddTitle(t MovieInfo) {
	t.Title = wire.Canonical(&titles, t.Title)
	s.mu.Lock()
	s.catalog[t.Title] = t
	s.mu.Unlock()
}

// Probe reports whether the store carries a title and the replica's
// open-movie count, the load metric the MMS weighs when choosing a replica
// (§3.4.4).  The catalog is read afresh every time: a title added after a
// probe said "absent" is found by the next one.
func (s *Service) Probe(title string) (MovieInfo, bool, int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	info, ok := s.catalog[title]
	return info, ok, len(s.open)
}

// Open creates a movie object for the settop over the given connection and
// returns its reference (steps 6–7 of Fig. 4).
func (s *Service) Open(title, settop, connID string) (oref.Ref, string, error) {
	s.mu.Lock()
	info, ok := s.catalog[title]
	if !ok {
		s.mu.Unlock()
		return oref.Ref{}, "", orb.Errf(orb.ExcNotFound, "no movie %q on %s", title, s.serverName)
	}
	s.nextID++
	// The id embeds the process incarnation so ids are unique across MDS
	// replicas and restarts — the MMS tracks movies from every replica in
	// one table.
	id := fmt.Sprintf("movie-%d-%d", s.sess.Ep.Incarnation(), s.nextID)
	st := &movieState{
		OpenMovie: OpenMovie{MovieID: id, Title: title, Settop: settop, ConnID: connID},
		info:      info,
	}
	s.open[id] = st
	s.mu.Unlock()
	ref := s.sess.Ep.Register(id, &movieSkel{s: s, id: id})
	return ref, id, nil
}

// CloseMovie tears an open movie down, withdrawing its object.
func (s *Service) CloseMovie(id string) error {
	s.mu.Lock()
	_, ok := s.open[id]
	delete(s.open, id)
	s.mu.Unlock()
	if !ok {
		return orb.Errf(orb.ExcNotFound, "no open movie %q", id)
	}
	s.sess.Ep.Unregister(id)
	return nil
}

// OpenMovies lists the open movies for MMS state rebuilding.
func (s *Service) OpenMovies() []OpenMovie {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]OpenMovie, 0, len(s.open))
	for _, st := range s.open {
		out = append(out, st.OpenMovie)
	}
	return out
}

// Titles lists the catalog.
func (s *Service) Titles() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, 0, len(s.catalog))
	for t := range s.catalog {
		out = append(out, t)
	}
	return out
}

// ---- movie object semantics ----

// positionLocked computes the current byte position.
func (st *movieState) positionLocked(now time.Time) int64 {
	pos := st.offset
	if st.playing {
		elapsed := now.Sub(st.startedAt)
		pos += int64(elapsed.Seconds() * float64(st.info.Bitrate) / 8)
	}
	if pos > st.info.Size {
		pos = st.info.Size
	}
	return pos
}

// Play starts or resumes delivery at the given byte offset (offset < 0
// resumes from the current position).
func (s *Service) Play(id string, offset int64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	st, ok := s.open[id]
	if !ok {
		return orb.Errf(orb.ExcNotFound, "no open movie %q", id)
	}
	now := s.sess.Clk.Now()
	if offset >= 0 {
		if offset > st.info.Size {
			offset = st.info.Size
		}
		st.offset = offset
	} else {
		st.offset = st.positionLocked(now)
	}
	st.playing = true
	st.startedAt = now
	return nil
}

// Pause suspends delivery.
func (s *Service) Pause(id string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	st, ok := s.open[id]
	if !ok {
		return orb.Errf(orb.ExcNotFound, "no open movie %q", id)
	}
	st.offset = st.positionLocked(s.sess.Clk.Now())
	st.playing = false
	return nil
}

// Position reports the current byte position and whether the stream is
// delivering.
func (s *Service) Position(id string) (int64, bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	st, ok := s.open[id]
	if !ok {
		return 0, false, orb.Errf(orb.ExcNotFound, "no open movie %q", id)
	}
	pos := st.positionLocked(s.sess.Clk.Now())
	playing := st.playing && pos < st.info.Size
	return pos, playing, nil
}

// Info returns a movie's catalog record.
func (s *Service) Info(id string) (MovieInfo, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	st, ok := s.open[id]
	if !ok {
		return MovieInfo{}, orb.Errf(orb.ExcNotFound, "no open movie %q", id)
	}
	return st.info, nil
}
