package audit

import (
	"sync"
	"time"

	"itv/internal/clock"
	"itv/internal/oref"
)

// This file implements the three resource-recovery alternatives the paper
// considered and rejected (§7.1), so the evaluation suite can reproduce
// the comparison that motivated the RAS:
//
//  1. DurationTable — time-outs based on expected duration of usage.  The
//     MDS initially shipped this way; it proved "too conservative,
//     especially in a development environment" where clients crashed
//     holding movies and leakage made the system unusable.
//  2. LeaseTable — aggressive short-term grants the client must renew.
//     Rejected for scaling: thousands of clients × several resources each
//     costs continuous network bandwidth and server CPU.
//  3. Pinger — each service tracks its own clients by pinging their
//     objects.  This was the original liveness mechanism inside the RAS
//     too; it was replaced by SSC callbacks because single-threaded
//     services could not answer pings in time (§7.2).

// DurationTable grants resources for an estimated duration and reclaims
// them when it elapses, regardless of whether the client still lives.
type DurationTable struct {
	clk      clock.Clock
	onExpire func(id string)

	mu     sync.Mutex
	grants map[string]time.Time // id -> deadline
	leaked int64                // reclaimed by timeout (not by release)

	loop *clock.Loop
}

// NewDurationTable starts a duration-timeout table; onExpire fires for
// every grant reclaimed by timeout.
func NewDurationTable(clk clock.Clock, checkEvery time.Duration, onExpire func(id string)) *DurationTable {
	t := &DurationTable{
		clk:      clk,
		onExpire: onExpire,
		grants:   make(map[string]time.Time),
	}
	t.loop = clock.Every(clk, checkEvery, false, func(time.Time) { t.check() })
	return t
}

// Grant records a resource expected to be used for d.
func (t *DurationTable) Grant(id string, d time.Duration) {
	t.mu.Lock()
	t.grants[id] = t.clk.Now().Add(d)
	t.mu.Unlock()
}

// Release frees a resource explicitly.
func (t *DurationTable) Release(id string) {
	t.mu.Lock()
	delete(t.grants, id)
	t.mu.Unlock()
}

// Outstanding reports grants not yet released or expired.
func (t *DurationTable) Outstanding() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.grants)
}

// Expired reports how many grants were reclaimed by timeout.
func (t *DurationTable) Expired() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.leaked
}

// Close stops the table.
func (t *DurationTable) Close() { t.loop.Stop() }

func (t *DurationTable) check() {
	now := t.clk.Now()
	var expired []string
	t.mu.Lock()
	for id, dl := range t.grants {
		if now.After(dl) {
			expired = append(expired, id)
			delete(t.grants, id)
			t.leaked++
		}
	}
	t.mu.Unlock()
	for _, id := range expired {
		t.onExpire(id)
	}
}

// LeaseTable grants short leases that the client must renew; a missed
// renewal reclaims the resource.
type LeaseTable struct {
	clk clock.Clock
	ttl time.Duration

	mu       sync.Mutex
	leases   map[string]time.Time
	renewals int64
	onExpire func(id string)

	loop *clock.Loop
}

// NewLeaseTable starts a lease table with the given time-to-live.
func NewLeaseTable(clk clock.Clock, ttl time.Duration, onExpire func(id string)) *LeaseTable {
	t := &LeaseTable{
		clk:      clk,
		ttl:      ttl,
		leases:   make(map[string]time.Time),
		onExpire: onExpire,
	}
	t.loop = clock.Every(clk, ttl/2, false, func(time.Time) { t.check() })
	return t
}

// Grant opens a lease.
func (t *LeaseTable) Grant(id string) {
	t.mu.Lock()
	t.leases[id] = t.clk.Now().Add(t.ttl)
	t.mu.Unlock()
}

// Renew extends a lease; it reports false if the lease already expired —
// the client must re-acquire the resource.
func (t *LeaseTable) Renew(id string) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, ok := t.leases[id]; !ok {
		return false
	}
	t.leases[id] = t.clk.Now().Add(t.ttl)
	t.renewals++
	return true
}

// Release frees a lease explicitly.
func (t *LeaseTable) Release(id string) {
	t.mu.Lock()
	delete(t.leases, id)
	t.mu.Unlock()
}

// Outstanding reports live leases.
func (t *LeaseTable) Outstanding() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.leases)
}

// Renewals reports total renewal messages processed — the cost that made
// the paper reject this scheme at scale (§7.1).
func (t *LeaseTable) Renewals() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.renewals
}

// Close stops the table.
func (t *LeaseTable) Close() { t.loop.Stop() }

func (t *LeaseTable) check() {
	now := t.clk.Now()
	var expired []string
	t.mu.Lock()
	for id, dl := range t.leases {
		if now.After(dl) {
			expired = append(expired, id)
			delete(t.leases, id)
		}
	}
	t.mu.Unlock()
	for _, id := range expired {
		t.onExpire(id)
	}
}

// Pinger tracks client objects by pinging them directly — per-service
// client tracking (§7.1's third alternative).
type Pinger struct {
	ep     PingInvoker
	onDead func(oref.Ref)

	mu      sync.Mutex
	targets map[string]oref.Ref
	pings   int64

	loop *clock.Loop
}

// PingInvoker is the slice of orb.Endpoint the pinger needs.
type PingInvoker interface {
	Ping(ref oref.Ref) error
}

// NewPinger starts a pinger.
func NewPinger(ep PingInvoker, clk clock.Clock, interval time.Duration, onDead func(oref.Ref)) *Pinger {
	p := &Pinger{
		ep:      ep,
		onDead:  onDead,
		targets: make(map[string]oref.Ref),
	}
	p.loop = clock.Every(clk, interval, false, func(time.Time) { p.pingAll() })
	return p
}

// Track adds a client object to ping.
func (p *Pinger) Track(ref oref.Ref) {
	p.mu.Lock()
	p.targets[ref.Key()] = ref
	p.mu.Unlock()
}

// Forget stops pinging ref.
func (p *Pinger) Forget(ref oref.Ref) {
	p.mu.Lock()
	delete(p.targets, ref.Key())
	p.mu.Unlock()
}

// Pings reports total ping messages sent.
func (p *Pinger) Pings() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.pings
}

// Close stops the pinger.
func (p *Pinger) Close() { p.loop.Stop() }

func (p *Pinger) pingAll() {
	p.mu.Lock()
	refs := make([]oref.Ref, 0, len(p.targets))
	for _, r := range p.targets {
		refs = append(refs, r)
	}
	p.pings += int64(len(refs))
	p.mu.Unlock()
	for _, r := range refs {
		if err := p.ep.Ping(r); err != nil {
			p.Forget(r)
			p.onDead(r)
		}
	}
}
