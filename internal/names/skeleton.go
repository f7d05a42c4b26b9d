package names

import (
	"context"
	"strings"

	"itv/internal/orb"
	"itv/internal/oref"
	"itv/internal/wire"
)

// ctxSkel exports one naming context over the ORB.  One instance is
// registered per context id; the IDL operations are those of §4.4 plus the
// ReplicatedContext extensions of §4.5.
type ctxSkel struct {
	r     *Replica
	ctxID string
}

func (s *ctxSkel) TypeID() string {
	s.r.mu.RLock()
	defer s.r.mu.RUnlock()
	if n, ok := s.r.store.ctxs[s.ctxID]; ok && n.repl {
		return TypeReplContext
	}
	return TypeContext
}

func (s *ctxSkel) Dispatch(c *orb.ServerCall) error {
	switch c.Method() {
	case "resolve":
		name := c.Args().String()
		ref, trace, err := s.r.resolvePath(s.ctxID, name, c.Caller().Host())
		if err != nil {
			return err
		}
		c.AdoptTrace(trace)
		ref.MarshalWire(c.Results())
		return nil

	case "resolveAs":
		name := c.Args().String()
		callerHost := c.Args().String()
		ref, trace, err := s.r.resolvePath(s.ctxID, name, callerHost)
		if err != nil {
			return err
		}
		c.AdoptTrace(trace)
		ref.MarshalWire(c.Results())
		return nil

	case "bind":
		name := c.Args().String()
		var ref oref.Ref
		ref.UnmarshalWire(c.Args())
		adopted, err := s.r.bindIn(c.Context(), s.ctxID, name, ref)
		if err != nil {
			return err
		}
		c.AdoptTrace(adopted)
		return nil

	case "unbind":
		name := c.Args().String()
		ctx, last, err := s.r.parentOf(s.ctxID, name)
		if err != nil {
			return err
		}
		_, _, err = s.r.submit(c.Context(), &update{Op: opUnbind, Ctx: ctx, Name: last})
		return err

	case "bindNewContext":
		return s.bindCtx(c, false)

	case "bindReplContext":
		return s.bindCtx(c, true)

	case "list":
		name := c.Args().String()
		bs, err := s.r.list(s.ctxID, name, c.Caller().Host())
		if err != nil {
			return err
		}
		PutBindings(c.Results(), bs)
		return nil

	case "listRepl":
		name := c.Args().String()
		bs, err := s.r.listRepl(s.ctxID, name)
		if err != nil {
			return err
		}
		PutBindings(c.Results(), bs)
		return nil

	case "setSelector":
		name := c.Args().String()
		var sel oref.Ref
		sel.UnmarshalWire(c.Args())
		return s.r.setSelector(c.Context(), s.ctxID, name, sel)

	default:
		return orb.ErrNoSuchMethod
	}
}

func (s *ctxSkel) bindCtx(c *orb.ServerCall, repl bool) error {
	name := c.Args().String()
	policy := ""
	if repl {
		policy = c.Args().String()
		if policy == "" {
			policy = PolicyFirst
		}
		if err := validPolicy(policy); err != nil {
			return err
		}
	}
	ctx, last, err := s.r.parentOf(s.ctxID, name)
	if err != nil {
		return err
	}
	newID, _, err := s.r.submit(c.Context(), &update{Op: opNewContext, Ctx: ctx, Name: last, Repl: repl, Policy: policy})
	if err != nil {
		return err
	}
	s.r.ctxRef(newID).MarshalWire(c.Results())
	return nil
}

func validPolicy(p string) error {
	switch p {
	case PolicyFirst, PolicyRoundRobin, PolicyNeighborhood, PolicyServerAffinity, PolicyHash:
		return nil
	}
	return orb.Errf(orb.ExcBadArgs, "unknown selector policy %q", p)
}

// ---- write-path helpers on Replica ----

// parentOf walks all but the last component of name through local contexts
// and returns the containing context id plus the final component.
func (r *Replica) parentOf(ctxID, name string) (string, string, error) {
	dir, last := "", strings.TrimRight(name, "/")
	if i := strings.LastIndexByte(last, '/'); i >= 0 {
		dir, last = last[:i], last[i+1:]
	}
	if last == "" {
		return "", "", orb.Errf(orb.ExcBadArgs, "empty name")
	}
	ctx, err := r.walkLocal(ctxID, dir)
	if err != nil {
		return "", "", err
	}
	return ctx, last, nil
}

// walkLocal descends through locally implemented contexts only; update
// operations on remote contexts must be invoked on those contexts directly.
func (r *Replica) walkLocal(ctxID, path string) (string, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	cur := ctxID
	for p, rest := nextComponent(path); p != ""; p, rest = nextComponent(rest) {
		node, ok := r.store.ctxs[cur]
		if !ok {
			return "", errNotFound(cur)
		}
		e, exists := node.bindings[p]
		if !exists {
			return "", errNotFound(p)
		}
		if e.childCtx == "" {
			return "", errNotContext(p)
		}
		cur = e.childCtx
	}
	if _, ok := r.store.ctxs[cur]; !ok {
		return "", errNotFound(cur)
	}
	return cur, nil
}

// bindIn binds ref at name under ctxID.  Binding the reserved "selector"
// name in a replicated context installs the selector object (§4.5).  The
// returned trace is the failure trace the bind adopted, if it repaired an
// audit eviction.
func (r *Replica) bindIn(cc context.Context, ctxID, name string, ref oref.Ref) (uint64, error) {
	ctx, last, err := r.parentOf(ctxID, name)
	if err != nil {
		return 0, err
	}
	if last == SelectorBinding && r.isRepl(ctx) {
		_, _, err := r.submit(cc, &update{Op: opSetSelector, Ctx: ctx, Ref: ref})
		return 0, err
	}
	_, adopted, err := r.submit(cc, &update{Op: opBind, Ctx: ctx, Name: last, Ref: ref})
	return adopted, err
}

func (r *Replica) isRepl(ctxID string) bool {
	r.mu.RLock()
	defer r.mu.RUnlock()
	n, ok := r.store.ctxs[ctxID]
	return ok && n.repl
}

// setSelector installs a selector object on the replicated context named
// by name ("" for the context itself).
func (r *Replica) setSelector(cc context.Context, ctxID, name string, sel oref.Ref) error {
	if name == "" {
		_, _, err := r.submit(cc, &update{Op: opSetSelector, Ctx: ctxID, Ref: sel})
		return err
	}
	target, err := r.walkLocal(ctxID, name)
	if err != nil {
		return err
	}
	_, _, err = r.submit(cc, &update{Op: opSetSelector, Ctx: target, Ref: sel})
	return err
}

// list implements the list operation (§4.4): the bindings of the context
// named by name, where a replicated context reports only the selected
// binding (§4.5).
func (r *Replica) list(ctxID, name, callerHost string) ([]Binding, error) {
	if id, err := r.walkLocal(ctxID, name); err == nil {
		// The named path denotes a context implemented here: list it.  A
		// replicated context reports only the selector's choice, so the
		// distinction between one object and many replicas stays hidden.
		r.mu.RLock()
		node, ok := r.store.ctxs[id]
		if !ok {
			r.mu.RUnlock()
			return nil, errNotFound(id)
		}
		bindings := r.bindingsLocked(node)
		repl, policy, selRef := node.repl, node.policy, node.selector
		r.mu.RUnlock()
		if !repl {
			return bindings, nil
		}
		chosen, err := r.choose(policy, selRef, bindings, callerHost, id)
		if err != nil {
			return nil, err
		}
		return []Binding{chosen}, nil
	}
	// Not a purely local context path: resolve it (possibly crossing
	// remote name services) and list the resulting remote context.
	ref, _, err := r.resolvePath(ctxID, name, callerHost)
	if err != nil {
		return nil, err
	}
	if !IsContextType(ref.TypeID) {
		return nil, errNotContext(name)
	}
	return Context{Ep: r.ep, Ref: ref}.List("")
}

// listRepl returns all bindings of a local replicated context, including
// the installed selector under its reserved name.
func (r *Replica) listRepl(ctxID, name string) ([]Binding, error) {
	id, err := r.walkLocal(ctxID, name)
	if err != nil {
		return nil, err
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	node, ok := r.store.ctxs[id]
	if !ok {
		return nil, errNotFound(id)
	}
	if !node.repl {
		return nil, errNotRepl(name)
	}
	out := r.bindingsLocked(node)
	if !node.selector.IsNil() {
		// out is made to its exact length: this append copies the cache.
		out = append(out, Binding{Name: SelectorBinding, Ref: node.selector})
	}
	return out, nil
}

// localCtxID reports whether ref denotes a context on this replica.
func (r *Replica) localCtxID(ref oref.Ref) (string, bool) {
	if ref.Addr != r.ep.Addr() {
		return "", false
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	_, ok := r.store.ctxs[ref.ObjectID]
	return ref.ObjectID, ok
}

// ---- internal replication/election skeleton ----

type replicaSkel struct {
	r *Replica
}

func (s *replicaSkel) TypeID() string { return TypeReplica }

func (s *replicaSkel) Dispatch(c *orb.ServerCall) error {
	r := s.r
	switch c.Method() {
	case "requestVote":
		term := c.Args().Int()
		cand := c.Args().String()
		r.mu.Lock()
		if term > r.term {
			r.term = term
			r.votedFor = ""
			r.role = follower
			r.masterAddr = ""
		}
		granted := term == r.term && (r.votedFor == "" || r.votedFor == cand)
		if granted {
			r.votedFor = cand
			r.lastHB = r.clk.Now()
		}
		curTerm := r.term
		r.mu.Unlock()
		c.Results().PutBool(granted)
		c.Results().PutInt(curTerm)
		return nil

	case "heartbeat":
		term := c.Args().Int()
		masterAddr := c.Args().String()
		seq := c.Args().Int()
		r.mu.Lock()
		if term < r.term {
			curTerm := r.term
			r.mu.Unlock()
			c.Results().PutBool(false)
			c.Results().PutInt(curTerm)
			return nil
		}
		if term > r.term {
			r.term = term
			r.votedFor = ""
		}
		r.role = follower
		r.masterAddr = masterAddr
		r.lastHB = r.clk.Now()
		if r.seq != seq {
			r.needSync = true
		}
		curTerm := r.term
		r.mu.Unlock()
		c.Results().PutBool(true)
		c.Results().PutInt(curTerm)
		return nil

	case "update":
		term := c.Args().Int()
		seq := c.Args().Int()
		buf := c.Args().BytesView()
		r.mu.Lock()
		if term < r.term {
			curTerm := r.term
			r.mu.Unlock()
			c.Results().PutBool(false)
			c.Results().PutInt(curTerm)
			return nil
		}
		if term > r.term {
			r.term = term
			r.votedFor = ""
		}
		r.role = follower
		r.lastHB = r.clk.Now()
		ok := false
		var created, removed []string
		var u update
		var adopted uint64
		if seq == r.seq+1 {
			if err := u.decode(buf); err == nil {
				var aerr error
				created, removed, adopted, aerr = r.store.apply(&u)
				if aerr == nil {
					r.seq = seq
					ok = true
				} else {
					r.needSync = true
				}
			} else {
				r.needSync = true
			}
		} else {
			r.needSync = true
		}
		curTerm := r.term
		r.mu.Unlock()
		// Mirror the master's flight-recorder view of traced mutations so a
		// slave's ring tells the failover story even if the master dies.
		if ok && u.Op == opUnbind && u.Trace != 0 {
			r.rec.Record(r.clk.Now(), u.Trace, "names_unbind_applied", u.Ctx+"/"+u.Name)
		}
		if ok && adopted != 0 {
			r.rec.Record(r.clk.Now(), adopted, "names_rebound",
				u.Ctx+"/"+u.Name+" -> "+u.Ref.Key())
		}
		// Object registration happens outside the replica lock: context
		// skeletons consult replica state to compute their type ids.
		for _, id := range created {
			r.ep.Register(id, &ctxSkel{r: r, ctxID: id})
		}
		for _, id := range removed {
			r.ep.Unregister(id)
		}
		c.Results().PutBool(ok)
		c.Results().PutInt(curTerm)
		return nil

	case "snapshot":
		r.mu.RLock()
		if r.role != master {
			r.mu.RUnlock()
			return errUnavailable("not master")
		}
		seq := r.seq
		data := r.store.snapshot()
		r.mu.RUnlock()
		c.Results().PutInt(seq)
		c.Results().PutBytes(data)
		return nil

	case "apply":
		// A client update forwarded from a slave (§4.6).
		var u update
		if err := u.decode(c.Args().BytesView()); err != nil {
			return orb.Errf(orb.ExcBadArgs, "bad update: %v", err)
		}
		if !r.IsMaster() {
			return errUnavailable("not master")
		}
		newID, adopted, err := r.submit(c.Context(), &u)
		if err != nil {
			return err
		}
		c.AdoptTrace(adopted)
		c.Results().PutString(newID)
		c.Results().PutUint(adopted)
		return nil

	case "status":
		roleName, term, masterAddr, seq := r.Status()
		c.Results().PutString(roleName)
		c.Results().PutInt(term)
		c.Results().PutString(masterAddr)
		c.Results().PutInt(seq)
		return nil

	default:
		return orb.ErrNoSuchMethod
	}
}

// MasterAddr returns the replica's current view of the master's address.
func (r *Replica) MasterAddr() string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.masterAddr
}

// StatusOf queries a remote replica's status over the ORB; admin tooling
// and tests use it.
func StatusOf(ep Invoker, addr string) (roleName string, term int64, masterAddr string, seq int64, err error) {
	err = ep.Invoke(oref.Persistent(addr, TypeReplica, "ns"), "status", nil,
		func(d *wire.Decoder) error {
			roleName = d.String()
			term = d.Int()
			masterAddr = d.String()
			seq = d.Int()
			return nil
		})
	return roleName, term, masterAddr, seq, err
}
