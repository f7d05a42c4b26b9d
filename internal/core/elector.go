package core

import (
	"context"
	"sync"
	"time"

	"itv/internal/clock"
	"itv/internal/obs"
	"itv/internal/orb"
	"itv/internal/oref"
)

// DefaultBindRetryInterval is the deployed backup-retry interval of §9.7:
// "Backup retries bind every 10 seconds."
const DefaultBindRetryInterval = 10 * time.Second

// Elector runs the primary/backup election protocol of §5.2 for one
// service replica: "When the replicas begin execution, they try to bind
// themselves in the global name space under the service name.  The first
// one to succeed becomes the primary.  The others periodically retry the
// binding request, which will fail so long as the primary is alive."
//
// When the primary fails, auditing removes its binding (§4.7) and a
// backup's retry succeeds — no replica-to-replica protocol is needed.
type Elector struct {
	s    *Session
	name string
	ref  oref.Ref

	// RetryInterval is the bind-retry period (default 10s, §9.7).  It is
	// also the primary's self-check period.
	RetryInterval time.Duration
	// OnPrimary fires (once per promotion) when this replica becomes
	// primary — the point where it recovers state by querying peers or
	// the database (§9.4).
	OnPrimary func()
	// OnDemoted fires if a primary discovers its binding now names someone
	// else (e.g. it was wrongly audited out during a partition).
	OnDemoted func()

	mu      sync.Mutex
	primary bool

	loop *clock.Loop
}

// NewElector starts an elector that campaigns to bind ref at name.
func (s *Session) NewElector(name string, ref oref.Ref) *Elector {
	e := &Elector{
		s:             s,
		name:          name,
		ref:           ref,
		RetryInterval: DefaultBindRetryInterval,
	}
	return e
}

// Start begins campaigning: the first attempt runs at once, then one every
// RetryInterval.  Configure intervals and callbacks first.
func (e *Elector) Start() {
	e.loop = clock.Every(e.s.Clk, e.RetryInterval, true, func(time.Time) { e.attempt() })
}

// IsPrimary reports whether this replica currently holds the binding.
func (e *Elector) IsPrimary() bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.primary
}

// Close withdraws from the election; if primary, the binding is unbound so
// a backup can take over immediately (clean shutdown rather than waiting
// out the audit).
func (e *Elector) Close() {
	if e.shutdown() {
		_ = e.s.Root.Unbind(e.name)
	}
}

// Abandon stops campaigning without releasing the binding — crash
// semantics: the dead primary's binding stays in the name space until
// auditing removes it (§4.7), which is exactly the fail-over path the
// paper measures (§9.7).
func (e *Elector) Abandon() { e.shutdown() }

// shutdown stops the loop and reports whether this replica was primary.
// A stopped replica is no longer primary, whether or not its binding
// outlives it: IsPrimary answers for a replica that can still serve.
func (e *Elector) shutdown() (wasPrimary bool) {
	e.loop.Stop()
	e.mu.Lock()
	wasPrimary, e.primary = e.primary, false
	e.mu.Unlock()
	return wasPrimary
}

func (e *Elector) attempt() {
	e.mu.Lock()
	primary := e.primary
	e.mu.Unlock()

	if primary {
		// Self-check: a primary that lost its binding (wrong audit, or an
		// operator rebind) must demote itself before two primaries serve.
		got, err := e.s.Root.Resolve(e.name)
		if err == nil && got.Equal(e.ref) {
			return
		}
		if orb.IsApp(err, orb.ExcUnavailable) || orb.Dead(err) {
			return // name service momentarily unreachable; keep serving
		}
		e.mu.Lock()
		e.primary = false
		demoted := e.OnDemoted
		e.mu.Unlock()
		e.s.Ep.Metrics().Counter("core_elector_demotions").Inc()
		e.s.Ep.Recorder().Record(e.s.Clk.Now(), 0, "core_elector_demoted", e.name)
		if demoted != nil {
			demoted()
		}
		// Fall through to campaign again at once.
	}

	// Bind with a trace sink: when this bind repairs an audit eviction, the
	// name service reports the failure's trace back, and the promotion event
	// joins the trace that began with the old primary's death — usually on
	// another machine.
	var sink obs.TraceSink
	err := e.s.Root.BindCtx(obs.WithTraceSink(context.Background(), &sink), e.name, e.ref)
	switch {
	case err == nil:
		e.mu.Lock()
		e.primary = true
		promoted := e.OnPrimary
		e.mu.Unlock()
		e.s.Ep.Metrics().Counter("core_elector_promotions").Inc()
		e.s.Ep.Recorder().Record(e.s.Clk.Now(), sink.Trace(), "core_elector_promoted",
			e.name+" -> "+e.ref.Key())
		if promoted != nil {
			promoted()
		}
	case orb.IsApp(err, orb.ExcAlreadyBound):
		// A primary lives; stay a backup.
	default:
		// Name service unavailable or unreachable: retry next tick.
	}
}
