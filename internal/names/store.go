package names

import (
	"fmt"
	"sort"
	"sync/atomic"

	"itv/internal/oref"
	"itv/internal/wire"
)

// store is the replicated state of the name service: the graph of contexts
// and their bindings.  It is pure data — all mutation goes through apply,
// so master and slaves stay byte-identical given the same update stream —
// and every access is guarded by the owning replica's lock.
type store struct {
	ctxs   map[string]*ctxNode
	nextID int64 // allocator for context object ids; master-owned

	// failures maps "ctx\x00name" to the causal trace of the audit eviction
	// that removed the binding.  When a backup's election Bind lands on the
	// same name, it consumes the tombstone: the new binding inherits the
	// trace of the failure it repairs, which is how one trace id spans
	// death → eviction → re-election across machines.  Bounded: cleared
	// wholesale past maxFailureTombs (rebinds normally consume entries long
	// before that).
	failures map[string]uint64
}

// maxFailureTombs bounds the failure-tombstone map; see store.failures.
const maxFailureTombs = 256

func failureKey(ctx, name string) string { return ctx + "\x00" + name }

// ctxNode is one context.  Replicated contexts carry a selector: either a
// built-in policy evaluated locally on each replica, or a reference to a
// remote selector object (§4.5).
type ctxNode struct {
	id       string
	repl     bool
	policy   string   // built-in selector policy (replicated contexts)
	selector oref.Ref // custom selector object; overrides policy when set
	bindings map[string]entry

	// sorted caches the bindings as readers see them (Replica.bindingsLocked):
	// built by the first read after a change, dropped by every apply on
	// this context, shared by every reader in between.
	sorted atomic.Pointer[[]Binding]
}

// entry is one name binding.  Local child contexts are stored by id (their
// object references are synthesized per-replica at read time, because each
// replica exports its own context objects); everything else is a reference.
type entry struct {
	ref      oref.Ref
	childCtx string // non-empty: binding is a context implemented by this name service
	trace    uint64 // causal trace adopted from the failure this binding repaired
}

func newStore() *store {
	s := &store{ctxs: make(map[string]*ctxNode), failures: make(map[string]uint64)}
	s.ctxs[RootContextID] = &ctxNode{id: RootContextID, bindings: make(map[string]entry)}
	return s
}

// ---- update operations (the replication stream) ----

// op codes for replicated updates.
const (
	opBind uint64 = iota
	opUnbind
	opNewContext
	opSetSelector
)

// update is one serialized name-space mutation.  The master assigns ids for
// new contexts before replicating, so slaves apply deterministically.
type update struct {
	Op     uint64
	Ctx    string // target context id
	Name   string
	Ref    oref.Ref // opBind, opSetSelector; opUnbind: evict only while the name still holds it
	NewID  string   // opNewContext
	Repl   bool     // opNewContext
	Policy string   // opNewContext
	Trace  uint64   // opUnbind: causal trace of the death behind the eviction
}

func (u *update) MarshalWire(e *wire.Encoder) {
	e.PutUint(u.Op)
	e.PutString(u.Ctx)
	e.PutString(u.Name)
	u.Ref.MarshalWire(e)
	e.PutString(u.NewID)
	e.PutBool(u.Repl)
	e.PutString(u.Policy)
	e.PutUint(u.Trace)
}

func (u *update) UnmarshalWire(d *wire.Decoder) {
	u.Op = d.Uint()
	u.Ctx = d.String()
	u.Name = d.String()
	u.Ref.UnmarshalWire(d)
	u.NewID = d.String()
	u.Repl = d.Bool()
	u.Policy = d.String()
	u.Trace = d.Uint()
}

// decode is wire.Unmarshal for an update, with the decoder on the caller's
// stack: buf must hold exactly one update.  Every decoded string is a copy
// or an interned symbol, so buf may be a view of the request's bytes.
func (u *update) decode(buf []byte) error {
	var d wire.Decoder
	d.Reset(buf)
	u.UnmarshalWire(&d)
	if d.Err() == nil && d.Remaining() != 0 {
		return fmt.Errorf("wire: %d trailing bytes", d.Remaining())
	}
	return d.Err()
}

// apply mutates the store.  It returns the set of context ids created and
// removed so the replica can adjust its exported ORB objects, plus the
// failure trace the update adopted: an opBind landing on a name with a
// failure tombstone consumes the tombstone and inherits its trace.
func (s *store) apply(u *update) (created, removed []string, adopted uint64, err error) {
	ctx, ok := s.ctxs[u.Ctx]
	if !ok {
		return nil, nil, 0, fmt.Errorf("names: no context %q", u.Ctx)
	}
	ctx.sorted.Store(nil)
	switch u.Op {
	case opBind:
		if _, exists := ctx.bindings[u.Name]; exists {
			return nil, nil, 0, errAlreadyBound(u.Name)
		}
		if len(s.failures) > 0 {
			k := failureKey(u.Ctx, u.Name)
			adopted = s.failures[k]
			delete(s.failures, k)
		}
		ctx.bindings[u.Name] = entry{ref: u.Ref, trace: adopted}
	case opUnbind:
		e, exists := ctx.bindings[u.Name]
		// An audit eviction names the dead reference it is about; a name a
		// restarted replica has rebound since is not the audit's to remove.
		if !exists || !u.Ref.IsNil() && !e.ref.Equal(u.Ref) {
			return nil, nil, 0, errNotFound(u.Name)
		}
		delete(ctx.bindings, u.Name)
		if e.childCtx != "" {
			removed = s.removeSubtree(e.childCtx, removed)
		}
		if u.Trace != 0 {
			if len(s.failures) >= maxFailureTombs {
				s.failures = make(map[string]uint64)
			}
			s.failures[failureKey(u.Ctx, u.Name)] = u.Trace
		}
	case opNewContext:
		if _, exists := ctx.bindings[u.Name]; exists {
			return nil, nil, 0, errAlreadyBound(u.Name)
		}
		s.ctxs[u.NewID] = &ctxNode{
			id:       u.NewID,
			repl:     u.Repl,
			policy:   u.Policy,
			bindings: make(map[string]entry),
		}
		ctx.bindings[u.Name] = entry{childCtx: u.NewID}
		created = append(created, u.NewID)
	case opSetSelector:
		target := ctx
		if u.Name != "" {
			e, exists := ctx.bindings[u.Name]
			if !exists || e.childCtx == "" {
				return nil, nil, 0, errNotFound(u.Name)
			}
			target = s.ctxs[e.childCtx]
		}
		if !target.repl {
			return nil, nil, 0, errNotRepl(target.id)
		}
		target.selector = u.Ref
	default:
		return nil, nil, 0, fmt.Errorf("names: unknown op %d", u.Op)
	}
	return created, removed, adopted, nil
}

// removeSubtree deletes a context and, recursively, the local contexts
// bound inside it.
func (s *store) removeSubtree(id string, removed []string) []string {
	node, ok := s.ctxs[id]
	if !ok {
		return removed
	}
	delete(s.ctxs, id)
	removed = append(removed, id)
	for _, e := range node.bindings {
		if e.childCtx != "" {
			removed = s.removeSubtree(e.childCtx, removed)
		}
	}
	return removed
}

// allocID reserves the next context id (master side).
func (s *store) allocID() string {
	s.nextID++
	return fmt.Sprintf("c%d", s.nextID)
}

// ---- snapshot (full-state transfer for lagging or fresh slaves) ----

func (s *store) snapshot() []byte {
	e := new(wire.Encoder)
	e.PutInt(s.nextID)
	ids := make([]string, 0, len(s.ctxs))
	for id := range s.ctxs {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	e.PutUint(uint64(len(ids)))
	for _, id := range ids {
		n := s.ctxs[id]
		e.PutString(n.id)
		e.PutBool(n.repl)
		e.PutString(n.policy)
		n.selector.MarshalWire(e)
		names := make([]string, 0, len(n.bindings))
		for name := range n.bindings {
			names = append(names, name)
		}
		sort.Strings(names)
		e.PutUint(uint64(len(names)))
		for _, name := range names {
			b := n.bindings[name]
			e.PutString(name)
			b.ref.MarshalWire(e)
			e.PutString(b.childCtx)
			e.PutUint(b.trace)
		}
	}
	fkeys := make([]string, 0, len(s.failures))
	for k := range s.failures {
		fkeys = append(fkeys, k)
	}
	sort.Strings(fkeys)
	e.PutUint(uint64(len(fkeys)))
	for _, k := range fkeys {
		e.PutString(k)
		e.PutUint(s.failures[k])
	}
	return e.Bytes()
}

func storeFromSnapshot(buf []byte) (*store, error) {
	d := new(wire.Decoder)
	d.Reset(buf)
	s := &store{ctxs: make(map[string]*ctxNode), failures: make(map[string]uint64)}
	s.nextID = d.Int()
	nctx := d.Count()
	for i := 0; i < nctx && d.Err() == nil; i++ {
		n := &ctxNode{bindings: make(map[string]entry)}
		n.id = d.String()
		n.repl = d.Bool()
		n.policy = d.String()
		n.selector.UnmarshalWire(d)
		nb := d.Count()
		for j := 0; j < nb && d.Err() == nil; j++ {
			name := d.String()
			var e entry
			e.ref.UnmarshalWire(d)
			e.childCtx = d.String()
			e.trace = d.Uint()
			n.bindings[name] = e
		}
		s.ctxs[n.id] = n
	}
	nf := d.Count()
	for i := 0; i < nf && d.Err() == nil; i++ {
		k := d.String()
		s.failures[k] = d.Uint()
	}
	if d.Err() != nil {
		return nil, d.Err()
	}
	if _, ok := s.ctxs[RootContextID]; !ok {
		return nil, fmt.Errorf("names: snapshot missing root context")
	}
	return s, nil
}

// contextIDs returns all context ids, for object (re)registration.
func (s *store) contextIDs() []string {
	ids := make([]string, 0, len(s.ctxs))
	for id := range s.ctxs {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// leafRefs returns every non-context object reference bound anywhere in
// the name space (replica bindings included) along with the context id and
// binding name holding it — the audit set (§4.7).
func (s *store) leafRefs() []auditEntry {
	var out []auditEntry
	ids := s.contextIDs()
	for _, id := range ids {
		n := s.ctxs[id]
		for name, e := range n.bindings {
			if e.childCtx == "" && !e.ref.IsNil() {
				out = append(out, auditEntry{ctx: id, name: name, ref: e.ref})
			}
		}
	}
	return out
}

type auditEntry struct {
	ctx  string
	name string
	ref  oref.Ref
}
