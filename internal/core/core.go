// Package core packages the paper's primary contribution — the OCS recipe
// for building highly available, scalable services — as a small client and
// server library over the substrate packages:
//
//   - Session: a process's handle on the cluster (its endpoint plus the
//     root naming context from its boot parameters).
//   - Rebinder: the client-side library code of §8.2 — invoke through a
//     name, and on an invalid reference automatically re-resolve and
//     retry, with optional backoff against recovery storms.
//   - Elector: the primary/backup pattern of §5.2 — replicas race to bind
//     the service name; the winner is primary; the losers retry on an
//     interval and take over when auditing removes the dead primary's
//     binding.
//   - RegisterActive: the multiple-active-replica pattern of §5.1 — bind
//     a replica into a replicated context and let selectors spread
//     clients across the replicas.
package core

import (
	"context"
	"sync"
	"time"

	"itv/internal/clock"
	"itv/internal/names"
	"itv/internal/obs"
	"itv/internal/orb"
	"itv/internal/oref"
	"itv/internal/wire"
)

// Session is one process's view of the cluster.
type Session struct {
	Ep   *orb.Endpoint
	Root names.Context
	Clk  clock.Clock
}

// NewSession builds a session from an endpoint and the root-context
// reference delivered in boot parameters (§3.4.1).
func NewSession(ep *orb.Endpoint, rootRef oref.Ref, clk clock.Clock) *Session {
	return &Session{
		Ep:   ep,
		Root: names.Context{Ep: ep, Ref: rootRef},
		Clk:  clk,
	}
}

// Service returns a rebinding proxy for the named service.
func (s *Session) Service(name string) *Rebinder { return s.ServiceAs(name, "") }

// ServiceAs is Service resolving on behalf of callerHost, so that an
// IP-derived selector picks the replica serving that host: how a service
// holds a client's neighborhood replica under the client's rule (§3.4.2).
func (s *Session) ServiceAs(name, callerHost string) *Rebinder {
	return &Rebinder{s: s, name: name, as: callerHost, MaxAttempts: 4}
}

// Rebinder invokes operations on whatever object the name currently
// resolves to, transparently re-resolving on failure (§8.2): "library code
// in the client automatically returns to the name service to obtain
// another object reference for the service."
type Rebinder struct {
	s    *Session
	name string
	as   string // resolve on behalf of this host; "" resolves as the caller

	// MaxAttempts bounds resolve+invoke rounds per call (default 4).
	MaxAttempts int
	// Backoff, if set, sleeps Backoff·2^attempt between retries — the
	// §8.2 mitigation for recovery storms.
	Backoff time.Duration

	mu  sync.Mutex
	ref oref.Ref
}

// Name returns the service name the rebinder targets.
func (rb *Rebinder) Name() string { return rb.name }

// Session returns the session the rebinder operates in; service stubs use
// it to build sibling proxies for objects a call returns (§3.2.1: object
// references may be returned as results).
func (rb *Rebinder) Session() *Session { return rb.s }

// Ref returns the current object reference, resolving if necessary.
// The name-service call happens outside rb.mu: the resolve path can
// re-enter client code (replicated contexts forward to the master,
// which may audit back), so blocking the mutex on it invites the
// distributed deadlock mutexacrossrpc exists to prevent.  Concurrent
// resolvers race benignly; the first cached result wins.
func (rb *Rebinder) Ref() (oref.Ref, error) {
	return rb.refCtx(context.Background())
}

func (rb *Rebinder) refCtx(ctx context.Context) (oref.Ref, error) {
	rb.mu.Lock()
	cached := rb.ref
	rb.mu.Unlock()
	if !cached.IsNil() {
		return cached, nil
	}

	var ref oref.Ref
	var err error
	if rb.as != "" {
		ref, err = rb.s.Root.ResolveAsCtx(ctx, rb.name, rb.as)
	} else {
		ref, err = rb.s.Root.ResolveCtx(ctx, rb.name)
	}
	if err != nil {
		return oref.Ref{}, err
	}

	rb.mu.Lock()
	if rb.ref.IsNil() {
		rb.ref = ref
	} else {
		ref = rb.ref
	}
	rb.mu.Unlock()
	return ref, nil
}

// Invalidate drops the cached reference; the next call re-resolves.
func (rb *Rebinder) Invalidate() {
	rb.mu.Lock()
	rb.ref = oref.Ref{}
	rb.mu.Unlock()
}

// retryable reports whether an error is worth re-resolving for: the
// object is gone (§8.2), the binding is momentarily absent (a backup has
// not yet bound itself, §5.2), or the name service has no master.
func retryable(err error) bool {
	return orb.Dead(err) ||
		orb.IsApp(err, orb.ExcNotFound) ||
		orb.IsApp(err, orb.ExcUnavailable)
}

// Invoke performs one operation with automatic rebinding.
func (rb *Rebinder) Invoke(method string, put func(*wire.Encoder), get func(*wire.Decoder) error) error {
	return rb.InvokeCtx(context.Background(), method, put, get)
}

// InvokeCtx is Invoke with context propagation: an active trace span
// travels with the call and with any rebinding resolves, and when a
// re-resolve lands on a binding that repaired an audit eviction, the
// rebind joins the failure's trace — the client-side end of the §8.2
// fail-over story.
func (rb *Rebinder) InvokeCtx(ctx context.Context, method string, put func(*wire.Encoder), get func(*wire.Decoder) error) error {
	return rb.Do(ctx, func(ref oref.Ref) error {
		return rb.s.Ep.InvokeCtx(ctx, ref, method, put, get)
	})
}

// InvokeInto is InvokeCtx for a call whose results begin with one large
// byte string, delivered into dst's storage (orb.Endpoint.InvokeInto).
// dst is lent across every rebinding attempt.
func (rb *Rebinder) InvokeInto(ctx context.Context, method string, put func(*wire.Encoder), dst []byte, get func(data []byte, d *wire.Decoder) error) error {
	return rb.Do(ctx, func(ref oref.Ref) error {
		return rb.s.Ep.InvokeInto(ctx, ref, method, put, dst, get)
	})
}

// Do runs call against the name's current reference, re-resolving and
// retrying while the failure says the reference is dead.  A replica that
// answers Unavailable is alive but not the one to call: Do returns the
// refusal and drops the reference, so the next call re-resolves.  An ordinary
// {Ep, Ref} stub built on the reference call is handed runs under rebinding.
func (rb *Rebinder) Do(ctx context.Context, call func(oref.Ref) error) error {
	attempts := rb.MaxAttempts
	if attempts <= 0 {
		attempts = 4
	}
	var lastErr error
	rebinding := false
	for attempt := 0; attempt < attempts; attempt++ {
		if attempt > 0 && rb.Backoff > 0 {
			rb.s.Clk.Sleep(rb.Backoff << (attempt - 1))
		}
		var sink *obs.TraceSink // made only to rebind: &sink would escape every call
		rctx := ctx
		if rebinding {
			sink = new(obs.TraceSink)
			rctx = obs.WithTraceSink(ctx, sink)
		}
		ref, err := rb.refCtx(rctx)
		if err != nil {
			lastErr = err
			if retryable(err) {
				continue
			}
			return err
		}
		if rebinding {
			rebinding = false
			if t := sink.Trace(); t != 0 {
				rb.s.Ep.Recorder().Record(rb.s.Clk.Now(), t,
					"core_rebind_success", rb.name+" -> "+ref.Key())
			}
		}
		err = call(ref)
		if orb.IsApp(err, orb.ExcUnavailable) {
			// A live replica that is not primary, or no longer is (§5.2): its
			// reference is stale too.  The caller hears the refusal, and the
			// next call asks the name service again.
			rb.Invalidate()
			return err
		}
		if err == nil || !orb.Dead(err) {
			return err
		}
		lastErr = err
		// The §8.2 moment: the reference is dead, go back to the name
		// service.  This counter is the rebind-rate evidence the fail-over
		// measurements (§9.7) report against.
		rb.s.Ep.Metrics().Counter("core_rebinds").Inc()
		rb.s.Ep.Recorder().Record(rb.s.Clk.Now(), obs.SpanFrom(ctx).TraceID,
			"core_rebind_attempt", rb.name+": "+err.Error())
		rb.Invalidate()
		rebinding = true
	}
	return lastErr
}

// Resolve is Invoke's counterpart for callers that need the reference
// itself (to pass along, §3.2.1), retrying transient resolution failures.
func (rb *Rebinder) Resolve() (oref.Ref, error) {
	attempts := rb.MaxAttempts
	if attempts <= 0 {
		attempts = 4
	}
	var lastErr error
	for attempt := 0; attempt < attempts; attempt++ {
		if attempt > 0 && rb.Backoff > 0 {
			rb.s.Clk.Sleep(rb.Backoff << (attempt - 1))
		}
		ref, err := rb.Ref()
		if err == nil {
			return ref, nil
		}
		lastErr = err
		if !retryable(err) {
			return oref.Ref{}, err
		}
	}
	return oref.Ref{}, lastErr
}
