package cmgr

import (
	"context"
	"sync"

	"itv/internal/atm"
	"itv/internal/core"
	"itv/internal/names"
	"itv/internal/oref"
)

// Directory is how a service that works on behalf of settops (the MMS, the
// RDS) reaches each settop's Connection Manager: one rebinding reference
// per neighborhood served, resolved through svc/cmgr's selector on behalf
// of the first settop seen from there and then held as clients hold theirs
// (§3.4.2) — the name service is asked again only by the call that finds
// the reference dead.  Nothing expires: a stale reference is caught by its
// incarnation check, a vanished primary by the name service's audit, a
// demoted one by its own refusal (core.Rebinder.Do).
type Directory struct {
	sess *core.Session

	mu     sync.Mutex
	byNbhd map[string]*core.Rebinder // names.NeighborhoodOf(settop) -> svc/cmgr as that settop
}

// NewDirectory returns an empty directory resolving in sess's name space.
func NewDirectory(sess *core.Session) *Directory {
	return &Directory{sess: sess, byNbhd: make(map[string]*core.Rebinder)}
}

// forSettop returns the rebinder for settop's neighborhood (built outside
// the lock; of two racing builders the first stored wins).
func (d *Directory) forSettop(settop string) *core.Rebinder {
	nbhd := names.NeighborhoodOf(settop)
	d.mu.Lock()
	rb := d.byNbhd[nbhd]
	d.mu.Unlock()
	if rb != nil {
		return rb
	}
	fresh := d.sess.ServiceAs(ContextPath, settop)
	d.mu.Lock()
	defer d.mu.Unlock()
	if rb = d.byNbhd[nbhd]; rb == nil {
		rb = fresh
		d.byNbhd[nbhd] = rb
	}
	return rb
}

// Allocate admits a connection between settop and server.
func (d *Directory) Allocate(settop, server string, rate int64, kind atm.Kind) (Alloc, error) {
	var a Alloc
	err := d.forSettop(settop).Do(context.Background(), func(ref oref.Ref) (err error) {
		a, err = Stub{Ep: d.sess.Ep, Ref: ref}.Allocate(settop, server, rate, kind)
		return err
	})
	return a, err
}

// Release frees connection id on settop's Connection Manager as bound now:
// after a fail-over, the backup holding the mirrored table (§10.1.1).
func (d *Directory) Release(settop, id string) error {
	return d.forSettop(settop).Do(context.Background(), func(ref oref.Ref) error {
		return Stub{Ep: d.sess.Ep, Ref: ref}.Release(id)
	})
}
