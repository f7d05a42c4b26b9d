// Package rds implements the Reliable Delivery Service (§3.3, §3.4.2):
// the service that downloads data — fonts, images, application binaries —
// to settops over variable-bit-rate connections.  The Application Manager
// fetches every interactive application through it (Fig. 3).
//
// RDS replicas are active per neighborhood (§5.1, §8.1): each neighborhood
// binding in the replicated context "svc/rds" serves its own settops, and
// the neighborhood selector routes each caller to its replica.
//
// Downloads return the payload plus the simulated transfer duration at the
// admitted VBR rate; settops add that duration to their response-time
// accounting (§9.3's 2–4 s start-up arithmetic at 1 MB/s).
package rds

import (
	"context"
	"sync"

	"itv/internal/atm"
	"itv/internal/cmgr"
	"itv/internal/core"
	"itv/internal/names"
	"itv/internal/orb"
	"itv/internal/oref"
	"itv/internal/wire"
)

// TypeID is the IDL interface name.
const TypeID = "itv.RDS"

// ContextPath is the replicated context of per-neighborhood replicas.
const ContextPath = "svc/rds"

// DefaultDownloadRate is the paper's deployed download bandwidth (§9.3:
// "a download bandwidth of 1 MByte per second").
const DefaultDownloadRate = 8 * atm.Mbps

// Blob is one named downloadable item.
type Blob struct {
	Name string
	Data []byte
}

// Service is one RDS replica.
type Service struct {
	sess       *core.Session
	scope      string // neighborhood
	serverHost string
	cmgrs      *cmgr.Directory // per-neighborhood references, resolved once (§3.4.2)

	// DownloadRate is the VBR rate requested per transfer.
	DownloadRate int64

	mu    sync.Mutex
	blobs map[string][]byte
}

// New builds an RDS replica for a neighborhood on the given server.
func New(sess *core.Session, scope, serverHost string) *Service {
	s := &Service{
		sess:         sess,
		scope:        scope,
		serverHost:   serverHost,
		cmgrs:        cmgr.NewDirectory(sess),
		DownloadRate: DefaultDownloadRate,
		blobs:        make(map[string][]byte),
	}
	sess.Ep.Register("rds-"+scope, &skel{s: s})
	return s
}

// Ref returns this replica's object reference.
func (s *Service) Ref() oref.Ref { return s.sess.Ep.RefFor("rds-" + s.scope) }

// Register binds this replica under its neighborhood number (§5.1).
func (s *Service) Register() error {
	return s.sess.RegisterActive(ContextPath, s.scope, s.Ref(), names.PolicyNeighborhood)
}

// Put stores a downloadable item (content provisioning), replacing any
// item of that name.  The service takes ownership of data and treats it as
// immutable: downloads send it straight from this slice
// (orb.ServerCall.PutBytesRef) and may still be doing so after a later Put
// has replaced the entry, so the caller must never write into data again —
// new content is a new slice and another Put.
func (s *Service) Put(name string, data []byte) {
	s.mu.Lock()
	s.blobs[name] = data
	s.mu.Unlock()
}

// OpenData returns the named item plus the simulated transfer time over a
// VBR connection allocated (and immediately released) through the
// Connection Manager.
func (s *Service) OpenData(name, settopHost string) ([]byte, int64, error) {
	s.mu.Lock()
	data, ok := s.blobs[name]
	s.mu.Unlock()
	if !ok {
		return nil, 0, orb.Errf(orb.ExcNotFound, "rds: no item %q", name)
	}

	// A VBR connection for the transfer: the admitted rate determines the
	// simulated duration.  If the Connection Manager is unavailable the
	// transfer proceeds at the nominal rate — downloads must not depend on
	// a single service being up (availability first).
	rate := s.DownloadRate
	if alloc, err := s.cmgrs.Allocate(settopHost, s.serverHost, s.DownloadRate, atm.VBR); err == nil {
		rate = alloc.Rate
		defer func() { _ = s.cmgrs.Release(settopHost, alloc.ID) }()
	}
	return data, rate, nil
}

// Items lists stored item names.
func (s *Service) Items() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, 0, len(s.blobs))
	for n := range s.blobs {
		out = append(out, n)
	}
	return out
}

type skel struct{ s *Service }

func (k *skel) TypeID() string { return TypeID }

func (k *skel) Dispatch(c *orb.ServerCall) error {
	switch c.Method() {
	case "openData":
		name := c.Args().String()
		data, rate, err := k.s.OpenData(name, c.Caller().Host())
		if err != nil {
			return err
		}
		c.PutBytesRef(data)
		c.Results().PutInt(rate)
		return nil
	case "items":
		c.Results().PutStrings(k.s.Items())
		return nil
	default:
		return orb.ErrNoSuchMethod
	}
}

// Stub is the settop-side proxy, rebinding through the name service so a
// replaced replica is picked up transparently (§3.4.2).
type Stub struct {
	Svc *core.Rebinder
}

// NewStub returns a rebinding RDS proxy; the neighborhood selector routes
// the caller to its replica.
func NewStub(sess *core.Session) Stub {
	return Stub{Svc: sess.Service(ContextPath)}
}

// OpenData downloads the named item, returning the payload — a fresh
// slice the caller owns — and the admitted transfer rate (bits/second).
func (s Stub) OpenData(name string) ([]byte, int64, error) {
	return s.OpenDataInto(name, nil)
}

// OpenDataInto is OpenData with the payload delivered into dst's storage
// (core.Rebinder.InvokeInto): a caller that downloads repeatedly and passes
// the previous payload back in allocates only when an item outgrows its
// buffer, and a large item is read off the connection straight into it.
// dst is lent for the call; on error the result is nil and dst's contents
// are unspecified.
func (s Stub) OpenDataInto(name string, dst []byte) ([]byte, int64, error) {
	var data []byte
	var rate int64
	err := s.Svc.InvokeInto(context.Background(), "openData",
		func(e *wire.Encoder) { e.PutString(name) }, dst,
		func(b []byte, d *wire.Decoder) error {
			data = b
			rate = d.Int()
			return nil
		})
	if err != nil {
		return nil, 0, err
	}
	return data, rate, nil
}
