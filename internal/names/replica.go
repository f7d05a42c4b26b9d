package names

import (
	"context"
	"fmt"
	"hash/fnv"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"time"

	"itv/internal/clock"
	"itv/internal/obs"
	"itv/internal/orb"
	"itv/internal/oref"
	"itv/internal/transport"
	"itv/internal/wire"
)

// StatusChecker reports liveness of object references; the Resource Audit
// Service's stub (audit.Stub) is one.  The name service polls its local
// checker on the audit interval and removes dead objects from the name
// space (§4.7).
type StatusChecker interface {
	// CheckStatus returns, aligned with refs, whether each is alive and,
	// for a dead one, the causal trace of its observed death (0 if
	// untraced).  Unknown objects are reported alive until the checker
	// learns otherwise (§7.2: status builds up over time, starting
	// "unknown").  The trace lets the audit's eviction, and the rebind
	// that repairs it, join the trace the SSC minted when the object died,
	// even on another machine.
	CheckStatus(refs []oref.Ref) (alive []bool, traces []uint64, err error)
}

// Config parameterizes a name-service replica.  The interval defaults are
// the paper's deployed settings (§9.7).
type Config struct {
	// Port is the fixed listening port (default WellKnownPort).
	Port int
	// Peers lists the "host:port" addresses of every replica, including
	// this one.  Majority is computed over this set.
	Peers []string
	// HeartbeatInterval is the master's heartbeat period (default 1s).
	HeartbeatInterval time.Duration
	// ElectionTimeout is the base follower patience before standing for
	// election; each attempt jitters it up to 2x (default 3s).
	ElectionTimeout time.Duration
	// AuditInterval is how often the master polls the local RAS for the
	// liveness of bound objects — the "name service polls RAS" interval of
	// §9.7 (default 10s).
	AuditInterval time.Duration
}

func (c *Config) fill() {
	if c.Port == 0 {
		c.Port = WellKnownPort
	}
	if c.HeartbeatInterval == 0 {
		c.HeartbeatInterval = time.Second
	}
	if c.ElectionTimeout == 0 {
		c.ElectionTimeout = 3 * time.Second
	}
	if c.AuditInterval == 0 {
		c.AuditInterval = 10 * time.Second
	}
}

type role int

const (
	follower role = iota
	candidate
	master
)

func (r role) String() string {
	switch r {
	case follower:
		return "follower"
	case candidate:
		return "candidate"
	case master:
		return "master"
	}
	return "?"
}

// Replica is one name-service replica.  Each server node runs one (§4.6);
// any replica serves lookups from local state, while updates are forwarded
// to the elected master, which serializes them and multicasts them to the
// slaves.
type Replica struct {
	ep  *orb.Endpoint
	clk clock.Clock
	cfg Config
	rng *rand.Rand
	rr  *rrState

	// Cached node counters (shared host registry, see internal/obs).
	reg           *obs.Registry
	rec           *obs.Recorder
	resolves      *obs.Counter
	resolveErrors *obs.Counter
	binds         *obs.Counter
	unbinds       *obs.Counter
	auditRounds   *obs.Counter
	auditRemoved  *obs.Counter
	pickMu        sync.Mutex
	picks         map[string]*obs.Counter // names_selector_pick by replica name

	mu         sync.RWMutex
	store      *store
	seq        int64
	term       int64
	votedFor   string
	role       role
	masterAddr string
	lastHB     time.Time
	needSync   bool
	checker    StatusChecker
	lastAudit  time.Time

	replMu sync.Mutex   // serializes the update stream to slaves
	push   wire.Encoder // the update being pushed; under replMu

	loop *clock.Loop // election, heartbeats, sync and audit
}

// NewReplica starts a name-service replica on tr's host.  It participates
// in master election immediately; reads are served from whatever state it
// has, matching the paper's local-lookup property.
func NewReplica(tr transport.Transport, clk clock.Clock, cfg Config) (*Replica, error) {
	cfg.fill()
	ep, err := orb.NewEndpointOn(tr, cfg.Port)
	if err != nil {
		return nil, err
	}
	h := fnv.New64a()
	h.Write([]byte(ep.Addr()))
	reg := obs.Node(tr.Host())
	r := &Replica{
		ep:            ep,
		clk:           clk,
		cfg:           cfg,
		rng:           rand.New(rand.NewSource(int64(h.Sum64()))),
		rr:            newRRState(),
		reg:           reg,
		rec:           obs.NodeRecorder(tr.Host()),
		resolves:      reg.Counter("names_resolves"),
		resolveErrors: reg.Counter("names_resolve_errors"),
		binds:         reg.Counter("names_binds"),
		unbinds:       reg.Counter("names_unbinds"),
		auditRounds:   reg.Counter("names_audit_rounds"),
		auditRemoved:  reg.Counter("names_audit_removed"),
		picks:         make(map[string]*obs.Counter),
		store:         newStore(),
	}
	r.lastHB = clk.Now()
	r.lastAudit = clk.Now()
	// Replication and election traffic must fail fast so a dead slave does
	// not stall the update stream for the full default call timeout.
	ep.SetCallTimeout(2 * time.Second)
	ep.Register("ns", &replicaSkel{r: r})
	ep.Register(RootContextID, &ctxSkel{r: r, ctxID: RootContextID})
	r.loop = clock.Every(clk, cfg.HeartbeatInterval, false, func(time.Time) { r.tick() })
	return r, nil
}

// SetAuthenticator installs call signing on the replica's endpoint.
func (r *Replica) SetAuthenticator(a orb.Authenticator) { r.ep.SetAuthenticator(a) }

// SetChecker installs the liveness checker used by auditing.  The RAS
// starts after the name service in the boot sequence (§6.3), so this is a
// separate step.
func (r *Replica) SetChecker(c StatusChecker) {
	r.mu.Lock()
	r.checker = c
	r.mu.Unlock()
}

// Addr returns the replica's "host:port".
func (r *Replica) Addr() string { return r.ep.Addr() }

// Endpoint exposes the replica's endpoint (the cluster harness co-hosts
// light objects such as built-in selectors on it).
func (r *Replica) Endpoint() *orb.Endpoint { return r.ep }

// RootRef returns the persistent reference to this replica's root context —
// the reference distributed to settops in their boot parameters (§3.4.1).
func (r *Replica) RootRef() oref.Ref {
	return oref.Persistent(r.ep.Addr(), TypeContext, RootContextID)
}

// RootRefAt returns the root-context reference of the replica at addr.
func RootRefAt(addr string) oref.Ref {
	return oref.Persistent(addr, TypeContext, RootContextID)
}

// Status reports the replica's view of the replication group.
func (r *Replica) Status() (roleName string, term int64, masterAddr string, seq int64) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.role.String(), r.term, r.masterAddr, r.seq
}

// IsMaster reports whether this replica currently believes it is master.
func (r *Replica) IsMaster() bool {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.role == master
}

// Close stops the replica, modelling a name-service crash: its endpoint
// dies with it, but its persistent references become valid again when a
// new replica starts on the same address.
func (r *Replica) Close() {
	r.loop.Stop()
	r.ep.Close()
}

func (r *Replica) majority() int { return len(r.cfg.Peers)/2 + 1 }

func (r *Replica) peerRef(addr string) oref.Ref {
	return oref.Persistent(addr, TypeReplica, "ns")
}

// ctxRef synthesizes this replica's reference for a local context.
// Context references are persistent: the name service is the designed
// exception to reference invalidation (§3.2.1), and contexts "are
// persistent so that they can be activated on demand" (§9.2).
func (r *Replica) ctxRef(id string) oref.Ref {
	typeID := TypeContext
	r.mu.RLock()
	if n, ok := r.store.ctxs[id]; ok && n.repl {
		typeID = TypeReplContext
	}
	r.mu.RUnlock()
	return oref.Persistent(r.ep.Addr(), typeID, id)
}

// ctxRefLocked is ctxRef for callers already holding the lock.
func (r *Replica) ctxRefLocked(id string) oref.Ref {
	typeID := TypeContext
	if n, ok := r.store.ctxs[id]; ok && n.repl {
		typeID = TypeReplContext
	}
	return oref.Persistent(r.ep.Addr(), typeID, id)
}

// ---- main loop: election, heartbeats, sync, audit ----

func (r *Replica) tick() {
	r.mu.Lock()
	role := r.role
	sinceHB := r.clk.Now().Sub(r.lastHB)
	needSync := r.needSync
	masterAddr := r.masterAddr
	timeout := r.cfg.ElectionTimeout +
		time.Duration(r.rng.Int63n(int64(r.cfg.ElectionTimeout)))
	r.mu.Unlock()

	switch role {
	case master:
		r.sendHeartbeats()
		r.maybeAudit()
	case follower, candidate:
		if needSync && masterAddr != "" && masterAddr != r.ep.Addr() {
			r.pullSnapshot(masterAddr)
		}
		if sinceHB > timeout {
			r.runElection()
		}
	}
}

func (r *Replica) sendHeartbeats() {
	r.mu.RLock()
	term, seq := r.term, r.seq
	self := r.ep.Addr()
	peers := r.cfg.Peers
	r.mu.RUnlock()

	alive := 1 // self
	var wg sync.WaitGroup
	var aliveMu sync.Mutex
	for _, p := range peers {
		if p == self {
			continue
		}
		wg.Add(1)
		go func(addr string) {
			defer wg.Done()
			err := r.ep.Invoke(r.peerRef(addr), "heartbeat",
				func(e *wire.Encoder) {
					e.PutInt(term)
					e.PutString(self)
					e.PutInt(seq)
				},
				func(d *wire.Decoder) error {
					ok := d.Bool()
					peerTerm := d.Int()
					if !ok && peerTerm > term {
						r.stepDown(peerTerm)
					}
					return nil
				})
			if err == nil {
				aliveMu.Lock()
				alive++
				aliveMu.Unlock()
			}
		}(p)
	}
	wg.Wait()
	if alive < r.majority() {
		// Lost contact with the majority: stop accepting updates until a
		// new election settles leadership (§4.6's availability condition).
		r.mu.Lock()
		if r.role == master && r.term == term {
			r.role = follower
			r.masterAddr = ""
		}
		r.mu.Unlock()
	}
}

func (r *Replica) stepDown(term int64) {
	r.mu.Lock()
	if term > r.term {
		r.term = term
		r.votedFor = ""
		r.role = follower
		r.masterAddr = ""
	}
	r.mu.Unlock()
}

func (r *Replica) runElection() {
	r.mu.Lock()
	if r.role == master {
		r.mu.Unlock()
		return
	}
	r.term++
	r.votedFor = r.ep.Addr()
	r.role = candidate
	term := r.term
	self := r.ep.Addr()
	peers := r.cfg.Peers
	r.lastHB = r.clk.Now() // restart patience for the next attempt
	r.mu.Unlock()

	votes := 1
	var wg sync.WaitGroup
	var vmu sync.Mutex
	for _, p := range peers {
		if p == self {
			continue
		}
		wg.Add(1)
		go func(addr string) {
			defer wg.Done()
			var granted bool
			var peerTerm int64
			err := r.ep.Invoke(r.peerRef(addr), "requestVote",
				func(e *wire.Encoder) { e.PutInt(term); e.PutString(self) },
				func(d *wire.Decoder) error {
					granted = d.Bool()
					peerTerm = d.Int()
					return nil
				})
			if err != nil {
				return
			}
			if granted {
				vmu.Lock()
				votes++
				vmu.Unlock()
			} else if peerTerm > term {
				r.stepDown(peerTerm)
			}
		}(p)
	}
	wg.Wait()

	r.mu.Lock()
	if r.role == candidate && r.term == term && votes >= r.majority() {
		r.role = master
		r.masterAddr = self
		r.needSync = false
		r.mu.Unlock()
		r.sendHeartbeats()
		return
	}
	if r.role == candidate {
		r.role = follower
	}
	r.mu.Unlock()
}

func (r *Replica) pullSnapshot(masterAddr string) {
	var seq int64
	var data []byte
	err := r.ep.Invoke(r.peerRef(masterAddr), "snapshot", nil,
		func(d *wire.Decoder) error {
			seq = d.Int()
			data = d.Bytes()
			return nil
		})
	if err != nil {
		return
	}
	st, err := storeFromSnapshot(data)
	if err != nil {
		return
	}
	r.mu.Lock()
	if r.role == master {
		r.mu.Unlock()
		return
	}
	old := r.store.contextIDs()
	r.store = st
	r.seq = seq
	r.needSync = false
	now := st.contextIDs()
	r.mu.Unlock()
	r.syncContextObjects(old, now)
}

// syncContextObjects reconciles the endpoint's exported context objects
// with the store's context set.
func (r *Replica) syncContextObjects(old, now []string) {
	oldSet := make(map[string]bool, len(old))
	for _, id := range old {
		oldSet[id] = true
	}
	nowSet := make(map[string]bool, len(now))
	for _, id := range now {
		nowSet[id] = true
	}
	for _, id := range old {
		if !nowSet[id] {
			r.ep.Unregister(id)
		}
	}
	for _, id := range now {
		if !oldSet[id] {
			r.ep.Register(id, &ctxSkel{r: r, ctxID: id})
		}
	}
}

// maybeAudit runs the §4.7 audit pass when due: ask the local RAS about
// every bound object and unbind the dead ones.
func (r *Replica) maybeAudit() {
	r.mu.Lock()
	checker := r.checker
	due := r.clk.Now().Sub(r.lastAudit) >= r.cfg.AuditInterval
	if due {
		r.lastAudit = r.clk.Now()
	}
	entries := r.store.leafRefs()
	r.mu.Unlock()
	if !due || checker == nil || len(entries) == 0 {
		return
	}
	refs := make([]oref.Ref, len(entries))
	for i, en := range entries {
		refs[i] = en.ref
	}
	r.auditRounds.Inc()
	alive, traces, err := checker.CheckStatus(refs)
	if err != nil || len(alive) != len(refs) || len(traces) != len(refs) {
		return
	}
	for i, en := range entries {
		if !alive[i] {
			trace := traces[i]
			ctx := context.Background()
			if trace != 0 {
				ctx = obs.ContextWithSpan(ctx, obs.Span{
					TraceID: trace, SpanID: obs.NewSpanID(), Sampled: true,
				})
			}
			// Unbind through the normal serialized-update path so slaves
			// see the removal too; the death trace rides in the update and
			// leaves a failure tombstone the repairing bind will adopt.
			u := &update{Op: opUnbind, Ctx: en.ctx, Name: en.name, Ref: en.ref, Trace: trace}
			if _, _, err := r.submit(ctx, u); err == nil {
				r.auditRemoved.Inc()
				if trace != 0 {
					r.rec.Record(r.clk.Now(), trace, "names_audit_evicted",
						en.ctx+"/"+en.name+" -> "+en.ref.Key())
				}
			}
		}
	}
}

// ---- the write path ----

// submit validates, applies and replicates one update.  On a slave it
// forwards to the master; with no master known it reports Unavailable.
// The ctx propagates any active trace across the forwarding hop; adopted
// is the failure trace a bind inherited from the eviction it repairs.
func (r *Replica) submit(ctx context.Context, u *update) (newID string, adopted uint64, err error) {
	switch u.Op {
	case opBind, opNewContext:
		r.binds.Inc()
	case opUnbind:
		r.unbinds.Inc()
	}
	r.mu.RLock()
	isMaster := r.role == master
	masterAddr := r.masterAddr
	self := r.ep.Addr()
	r.mu.RUnlock()

	if !isMaster {
		if masterAddr == "" || masterAddr == self {
			return "", 0, errUnavailable("no name-service master elected")
		}
		// Forward to the master (§4.6: "all updates are forwarded to the
		// master, which serializes them and multicasts them to the slaves").
		var created string
		var adoptedRemote uint64
		err := r.ep.InvokeCtx(ctx, r.peerRef(masterAddr), "apply",
			func(e *wire.Encoder) {
				ue := wire.GetEncoder()
				u.MarshalWire(ue)
				e.PutBytes(ue.Bytes())
				wire.PutEncoder(ue)
			},
			func(d *wire.Decoder) error {
				created = d.String()
				adoptedRemote = d.Uint()
				return nil
			})
		return created, adoptedRemote, err
	}

	// Master: serialize the update stream.
	r.replMu.Lock()
	defer r.replMu.Unlock()

	r.mu.Lock()
	if r.role != master {
		r.mu.Unlock()
		return "", 0, errUnavailable("mastership lost")
	}
	if u.Op == opNewContext && u.NewID == "" {
		u.NewID = r.store.allocID()
	}
	created, removed, adopted, err := r.store.apply(u)
	if err != nil {
		r.mu.Unlock()
		return "", 0, err
	}
	r.seq++
	seq, term := r.seq, r.term
	peers := r.cfg.Peers
	r.mu.Unlock()

	// syncContextObjects touches Endpoint.mu while replMu is held; replMu
	// exists solely to order the multicast (see below) and nothing in orb
	// calls back into names under its own locks, so the nesting is safe.
	r.syncContextObjects(nil, created)
	for _, id := range removed {
		r.ep.Unregister(id)
	}
	if adopted != 0 {
		r.rec.Record(r.clk.Now(), adopted, "names_rebound",
			u.Ctx+"/"+u.Name+" -> "+u.Ref.Key())
	}

	r.push.Reset()
	u.MarshalWire(&r.push)
	buf := r.push.Bytes()
	for _, p := range peers {
		if p == self {
			continue
		}
		// Failures are fine: a lagging slave detects the sequence gap at
		// the next heartbeat and pulls a snapshot.
		//
		// replMu is held across this Invoke on purpose: it exists solely
		// to keep the multicast in sequence order (§4.6 — the master
		// "serializes them and multicasts them to the slaves").  Slaves
		// handle "update" without calling back into the master, and
		// forwarded client updates arrive on their own handler
		// goroutines, so no lock cycle can form.
		//lint:ignore mutexacrossrpc replMu orders the multicast; slaves never call back under it
		_ = r.ep.InvokeCtx(ctx, r.peerRef(p), "update",
			func(e *wire.Encoder) {
				e.PutInt(term)
				e.PutInt(seq)
				e.PutBytes(buf)
			}, nil)
	}
	return u.NewID, adopted, nil
}

// ---- read path: resolution ----

// resolvePath resolves path relative to ctxID on behalf of callerHost,
// recursing across local contexts and remote context objects (§4.3), and
// applying selectors at replicated contexts (§4.5).  The returned trace is
// the failure trace the final binding adopted when it repaired an audit
// eviction (0 otherwise, and 0 for results reached through a remote name
// service — adoption is propagated one level, not through recursion).
func (r *Replica) resolvePath(ctxID, path, callerHost string) (oref.Ref, uint64, error) {
	r.resolves.Inc()
	ref, trace, err := r.resolvePathInner(ctxID, path, callerHost)
	if err != nil {
		r.resolveErrors.Inc()
	}
	return ref, trace, err
}

func (r *Replica) resolvePathInner(ctxID, path, callerHost string) (oref.Ref, uint64, error) {
	const maxHops = 64 // cycle guard for malicious or accidental loops
	cur := ctxID
	// path is what remains to resolve, head its first component ("" when
	// nothing remains) and rest what follows head.
	path = strings.TrimLeft(path, "/")
	for hop := 0; hop < maxHops; hop++ {
		head, rest := nextComponent(path)
		r.mu.RLock()
		node, ok := r.store.ctxs[cur]
		if !ok {
			r.mu.RUnlock()
			return oref.Ref{}, 0, errNotFound(cur)
		}

		if node.repl {
			// Direct index: an explicit replica name in the path, e.g.
			// "svc/cmgr/1" or "svc/mds/forge" (§3.4.4) bypasses the
			// selector.
			if head != "" {
				if e, exists := node.bindings[head]; exists {
					next, ref, trace, done, err := r.stepLocked(e, rest)
					r.mu.RUnlock()
					if err != nil {
						return oref.Ref{}, 0, err
					}
					if done {
						return ref, trace, nil
					}
					if next != "" {
						cur = next
						path = rest
						continue
					}
					return r.remoteResolve(ref, rest, callerHost)
				}
			}
			// Selector choice among the replicas (§4.5).
			bindings := r.bindingsLocked(node)
			policy, selRef := node.policy, node.selector
			id := node.id
			r.mu.RUnlock()

			chosen, err := r.choose(policy, selRef, bindings, callerHost, id)
			if err != nil {
				return oref.Ref{}, 0, err
			}
			r.mu.RLock()
			node2, ok := r.store.ctxs[cur]
			if !ok {
				r.mu.RUnlock()
				return oref.Ref{}, 0, errNotFound(cur)
			}
			e, exists := node2.bindings[chosen.Name]
			if !exists {
				r.mu.RUnlock()
				return oref.Ref{}, 0, errNotFound(chosen.Name)
			}
			next, ref, trace, done, err := r.stepLocked(e, path)
			r.mu.RUnlock()
			if err != nil {
				return oref.Ref{}, 0, err
			}
			if done {
				return ref, trace, nil
			}
			if next != "" {
				cur = next
				continue
			}
			return r.remoteResolve(ref, path, callerHost)
		}

		// Ordinary context.
		if head == "" {
			ref := r.ctxRefLocked(cur)
			r.mu.RUnlock()
			return ref, 0, nil
		}
		e, exists := node.bindings[head]
		if !exists {
			r.mu.RUnlock()
			return oref.Ref{}, 0, errNotFound(head)
		}
		next, ref, trace, done, err := r.stepLocked(e, rest)
		r.mu.RUnlock()
		if err != nil {
			return oref.Ref{}, 0, err
		}
		if done {
			return ref, trace, nil
		}
		if next != "" {
			cur = next
			path = rest
			continue
		}
		return r.remoteResolve(ref, rest, callerHost)
	}
	return oref.Ref{}, 0, orb.Errf(orb.ExcNotContext, "resolution exceeded hop limit")
}

// stepLocked classifies one traversal step over entry e with `rest` of the
// path remaining.  Exactly one of these holds on success:
//   - done: ref is the final result (trace is its adopted failure trace);
//   - next != "": descend into local context next;
//   - otherwise: ref is a remote context to continue in.
func (r *Replica) stepLocked(e entry, rest string) (next string, ref oref.Ref, trace uint64, done bool, err error) {
	if e.childCtx != "" {
		if rest == "" {
			// An ordinary context is itself the result; a replicated
			// context is resolved through its selector (§4.5), so descend
			// and let the replicated-context branch choose.
			if n, ok := r.store.ctxs[e.childCtx]; ok && n.repl {
				return e.childCtx, oref.Ref{}, 0, false, nil
			}
			return "", r.ctxRefLocked(e.childCtx), 0, true, nil
		}
		return e.childCtx, oref.Ref{}, 0, false, nil
	}
	if rest == "" {
		return "", e.ref, e.trace, true, nil
	}
	if !IsContextType(e.ref.TypeID) {
		return "", oref.Ref{}, 0, false, errNotContext(e.ref.TypeID)
	}
	return "", e.ref, 0, false, nil
}

// remoteResolve continues resolution in a context implemented by another
// name service (§4.3's third class of bound object).  Trace adoption does
// not cross this hop: the remote service reports adoption on its own
// responses, and callers resolving through us see only local adoption.
func (r *Replica) remoteResolve(ctx oref.Ref, path, callerHost string) (oref.Ref, uint64, error) {
	if path == "" {
		return ctx, 0, nil
	}
	ref, err := Context{Ep: r.ep, Ref: ctx}.ResolveAs(path, callerHost)
	return ref, 0, err
}

// bindingsLocked lists a context's bindings in name order, with
// local-context references synthesized for this replica.  The slice is the
// node's cache (ctxNode.sorted): callers must not write into it, and it is
// made to its exact length, so an append copies it.
func (r *Replica) bindingsLocked(node *ctxNode) []Binding {
	if p := node.sorted.Load(); p != nil {
		return *p
	}
	out := make([]Binding, 0, len(node.bindings))
	for name, e := range node.bindings {
		ref := e.ref
		if e.childCtx != "" {
			ref = r.ctxRefLocked(e.childCtx)
		}
		out = append(out, Binding{Name: name, Ref: ref})
	}
	slices.SortFunc(out, func(a, b Binding) int { return strings.Compare(a.Name, b.Name) })
	node.sorted.Store(&out)
	return out
}

// choose runs the context's selector: a built-in policy evaluated locally,
// or an invocation of the custom selector object.  If a custom selector is
// dead, resolution falls back to the first binding rather than failing —
// availability over precision.
func (r *Replica) choose(policy string, selRef oref.Ref, bindings []Binding, callerHost, ctxID string) (Binding, error) {
	chosen, err := r.chooseInner(policy, selRef, bindings, callerHost, ctxID)
	if err == nil {
		// Pick distribution per replica name: the evidence for the paper's
		// load-spreading claim (§4.5).  Every resolve or list through a
		// replicated context picks, so each name's counter is looked up in
		// the registry once and kept.
		r.pickMu.Lock()
		c := r.picks[chosen.Name]
		if c == nil {
			c = r.reg.Counter(obs.L("names_selector_pick", "replica", chosen.Name))
			r.picks[chosen.Name] = c
		}
		r.pickMu.Unlock()
		c.Inc()
	}
	return chosen, err
}

func (r *Replica) chooseInner(policy string, selRef oref.Ref, bindings []Binding, callerHost, ctxID string) (Binding, error) {
	if !selRef.IsNil() {
		name, err := (SelectorStub{Ep: r.ep, Ref: selRef}).Select(bindings, callerHost)
		if err == nil {
			for _, b := range bindings {
				if b.Name == name {
					return b, nil
				}
			}
			return Binding{}, errNotFound(name)
		}
		if !orb.Dead(err) {
			return Binding{}, err
		}
		// fall through to the built-in policy
	}
	return selectLocal(policy, bindings, callerHost, r.rr, ctxID)
}

func (r *Replica) String() string {
	roleName, term, masterAddr, seq := r.Status()
	return fmt.Sprintf("ns[%s %s term=%d master=%s seq=%d]", r.ep.Addr(), roleName, term, masterAddr, seq)
}
