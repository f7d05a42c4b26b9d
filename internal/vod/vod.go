// Package vod implements the Video-on-Demand application service
// (§10.1.1): the server half of the VOD application.  Its one piece of
// interesting state is the current playback position of every active
// viewing, which it keeps redundantly with the settop: "The Video on
// Demand service ... maintains information about the current point in
// movie play both in the settop and in its own service.  If either the
// settop or the service fails, the other can supply the information needed
// to start the MDS at the point where the movie stopped."
package vod

import (
	"sync"

	"itv/internal/core"
	"itv/internal/media"
	"itv/internal/orb"
	"itv/internal/oref"
	"itv/internal/wire"
)

// TypeID is the IDL interface name.
const TypeID = "itv.VOD"

// ServiceName is the VOD service's binding in the cluster name space.
const ServiceName = "svc/vod"

// Service is one VOD service replica (primary/backup; positions are
// volatile and recoverable from settops, so no state is mirrored).
type Service struct {
	sess    *core.Session
	elector *core.Elector
	ref     oref.Ref

	mu        sync.Mutex
	positions map[viewing]int64 // byte position
}

// New builds a VOD service replica.
func New(sess *core.Session) *Service {
	s := &Service{
		sess:      sess,
		positions: make(map[viewing]int64),
	}
	s.ref = sess.Ep.Register("vod", &skel{s: s})
	s.elector = sess.NewElector(ServiceName, s.ref)
	return s
}

// Ref returns this replica's object reference.
func (s *Service) Ref() oref.Ref { return s.ref }

// Elector exposes the replica's primary/backup elector for interval tuning.
func (s *Service) Elector() *core.Elector { return s.elector }

// IsPrimary reports whether this replica serves clients.
func (s *Service) IsPrimary() bool { return s.elector.IsPrimary() }

// Start begins campaigning.
func (s *Service) Start() {
	_, _ = s.sess.Root.BindNewContext("svc") // bound already, or no master yet: the elector retries
	s.elector.Start()
}

// Close stops the replica cleanly (unbinding if primary).
func (s *Service) Close() {
	s.elector.Close()
	s.sess.Ep.Unregister("vod")
}

// Abort stops the replica with crash semantics (no unbind).
func (s *Service) Abort() {
	s.elector.Abandon()
	s.sess.Ep.Unregister("vod")
}

// viewing keys the position table: one settop watching one title.
type viewing struct{ settop, title string }

// SavePosition records a viewing position for the settop.
func (s *Service) SavePosition(settop, title string, pos int64) {
	s.mu.Lock()
	s.positions[viewing{settop, title}] = pos
	s.mu.Unlock()
}

// Position returns the last saved position for the settop and title.
func (s *Service) Position(settop, title string) (int64, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	p, ok := s.positions[viewing{settop, title}]
	return p, ok
}

// Forget clears a finished viewing.
func (s *Service) Forget(settop, title string) {
	s.mu.Lock()
	delete(s.positions, viewing{settop, title})
	s.mu.Unlock()
}

type skel struct{ s *Service }

func (k *skel) TypeID() string { return TypeID }

func (k *skel) Dispatch(c *orb.ServerCall) error {
	settop := c.Caller().Host()
	switch c.Method() {
	case "savePosition":
		title := media.DecodeTitle(c.Args())
		pos := c.Args().Int()
		k.s.SavePosition(settop, title, pos)
		return nil
	case "getPosition":
		title := media.DecodeTitle(c.Args())
		pos, ok := k.s.Position(settop, title)
		c.Results().PutBool(ok)
		c.Results().PutInt(pos)
		return nil
	case "forget":
		k.s.Forget(settop, media.DecodeTitle(c.Args()))
		return nil
	default:
		return orb.ErrNoSuchMethod
	}
}

// Stub is the settop-side proxy, rebinding through the name service.
type Stub struct {
	Svc *core.Rebinder
}

// NewStub returns a rebinding VOD proxy.
func NewStub(sess *core.Session) Stub {
	return Stub{Svc: sess.Service(ServiceName)}
}

// SavePosition records the caller's viewing position.
func (s Stub) SavePosition(title string, pos int64) error {
	return s.Svc.Invoke("savePosition",
		func(e *wire.Encoder) { e.PutString(title); e.PutInt(pos) }, nil)
}

// GetPosition fetches the caller's saved position.
func (s Stub) GetPosition(title string) (int64, bool, error) {
	var pos int64
	var ok bool
	err := s.Svc.Invoke("getPosition",
		func(e *wire.Encoder) { e.PutString(title) },
		func(d *wire.Decoder) error {
			ok = d.Bool()
			pos = d.Int()
			return nil
		})
	return pos, ok, err
}

// Forget clears the caller's saved position for a title.
func (s Stub) Forget(title string) error {
	return s.Svc.Invoke("forget",
		func(e *wire.Encoder) { e.PutString(title) }, nil)
}
