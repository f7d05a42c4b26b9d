package names

import (
	"context"
	"slices"
	"sync"

	"itv/internal/orb"
	"itv/internal/oref"
	"itv/internal/wire"
)

// Failover retargets name-service invocations to another replica when a
// settop's assigned replica dies with its server.  Boot parameters give
// each settop one replica (§3.4.1), but boot parameters also carry the full
// server list; because the name space is replicated with identical context
// ids on every replica (§4.6), a context reference is position-independent
// — the same persistent reference works against any replica once its
// address is rewritten.  A Context carries one in its Failover field, and
// contexts copied from it share it.
//
// Only references whose address is one of the known replica addresses are
// retargeted; contexts implemented by other services (a remote
// FileSystemContext) are left alone.
type Failover struct {
	addrs []string // name-service replica addresses, preference order; fixed

	mu  sync.Mutex
	cur int // index into addrs of the replica that answered last
}

// NewFailover returns fail-over across the given replica addresses (the
// first is the assigned replica).
func NewFailover(addrs []string) *Failover {
	return &Failover{addrs: addrs}
}

// Current returns the currently preferred replica address.
func (f *Failover) Current() string {
	f.mu.Lock()
	defer f.mu.Unlock()
	if len(f.addrs) == 0 {
		return ""
	}
	return f.addrs[f.cur]
}

// invoke calls ref through ep with ctx on every attempt, so its trace
// span, its deadline and the TraceSink a rebinding call joins the
// failure's trace through travel with each.  A name-service reference is
// first retargeted to the preferred replica, then failed over to the
// others on dead-replica errors.
func (f *Failover) invoke(ctx context.Context, ep *orb.Endpoint, ref oref.Ref, method string, put func(*wire.Encoder), get func(*wire.Decoder) error) error {
	if !slices.Contains(f.addrs, ref.Addr) {
		return ep.InvokeCtx(ctx, ref, method, put, get)
	}
	f.mu.Lock()
	cur := f.cur
	f.mu.Unlock()
	var err error
	for i := range f.addrs {
		at := (cur + i) % len(f.addrs)
		ref.Addr = f.addrs[at]
		if err = ep.InvokeCtx(ctx, ref, method, put, get); !orb.Dead(err) {
			// Success or an application-level error: remember the replica
			// that answered.
			f.mu.Lock()
			f.cur = at
			f.mu.Unlock()
			return err
		}
	}
	return err
}
