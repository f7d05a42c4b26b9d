// Package names implements the name service (§4), the fundamental OCS
// component: a hierarchical object-oriented name space through which
// services publish object references and clients locate them, extended
// beyond Spring's model with two features that carry the paper's
// availability and scalability story:
//
//   - ReplicatedContext (§4.5): a context holding replica bindings plus a
//     selector that picks one at resolve time — the mechanism that hides
//     replication from clients and implements load balancing.
//   - Auditing (§4.7): dead object references are removed from the name
//     space within seconds of their implementor's death, which (combined
//     with first-bind-wins semantics) is the election primitive for
//     primary/backup services (§5.2).
//
// The name service itself is replicated on every server with master-slave
// replication: a master elected by a majority scheme serializes all
// updates and pushes them to the slaves, while any replica answers resolve
// and list operations from its local state (§4.6).
package names

import (
	"context"
	"strings"

	"itv/internal/orb"
	"itv/internal/oref"
	"itv/internal/wire"
)

// IDL interface names.
const (
	TypeContext     = "itv.NamingContext"
	TypeReplContext = "itv.ReplicatedContext"
	TypeSelector    = "itv.Selector"
	TypeReplica     = "itv.NameReplica" // internal replication/election interface
)

// WellKnownPort is the fixed port every name-service replica listens on;
// a settop's boot parameters name its replica as "<serverIP>:555".
const WellKnownPort = 555

// RootContextID is the object id of the root context on every replica.
const RootContextID = "root"

// SelectorBinding is the reserved binding name under which a replicated
// context's selector object is installed (§4.5).
const SelectorBinding = "selector"

// Binding pairs a name with the object bound to it.
type Binding struct {
	Name string
	Ref  oref.Ref
}

func (b *Binding) MarshalWire(e *wire.Encoder) {
	e.PutString(b.Name)
	b.Ref.MarshalWire(e)
}

func (b *Binding) UnmarshalWire(d *wire.Decoder) {
	b.Name = d.String()
	b.Ref.UnmarshalWire(d)
}

// minBindingBytes is the least a binding occupies on the wire: an empty
// name and an empty reference.
const minBindingBytes = 1 + oref.MinWireBytes

// PutBindings encodes a slice of bindings.
func PutBindings(e *wire.Encoder, bs []Binding) {
	e.PutUint(uint64(len(bs)))
	for i := range bs {
		bs[i].MarshalWire(e)
	}
}

// Bindings decodes a slice of bindings.
func Bindings(d *wire.Decoder) []Binding {
	n := d.CountOf(minBindingBytes)
	out := make([]Binding, 0, n)
	for i := 0; i < n && d.Err() == nil; i++ {
		var b Binding
		b.UnmarshalWire(d)
		out = append(out, b)
	}
	return out
}

// nextComponent splits the first component off a slash-separated name,
// ignoring leading and duplicate slashes: head is "" when the name has no
// component left, and rest is "" when head is the last one.  Resolution
// walks a name with it, one substring at a time, with no slice of parts.
func nextComponent(name string) (head, rest string) {
	name = strings.TrimLeft(name, "/")
	i := strings.IndexByte(name, '/')
	if i < 0 {
		return name, ""
	}
	return name[:i], strings.TrimLeft(name[i+1:], "/")
}

// SplitPath splits a slash-separated name into components, ignoring
// leading, trailing and duplicate slashes.
func SplitPath(name string) []string {
	out := make([]string, 0, strings.Count(name, "/")+1)
	for head, rest := nextComponent(name); head != ""; head, rest = nextComponent(rest) {
		out = append(out, head)
	}
	return out
}

// Invoker is orb.Invoker, under the name this package's stubs (and the
// benchmark) have always used for it.
type Invoker = orb.Invoker

// Context is the client-side proxy for any object implementing the
// NamingContext interface — a name-service context, a remote
// FileSystemContext, or any other service exporting the context protocol.
// Failover, when set, retargets calls on name-service references across
// the replicas it lists (see Failover); nil means a plain call.
type Context struct {
	Ep       *orb.Endpoint
	Ref      oref.Ref
	Failover *Failover
}

// call is the one way every Context method invokes.  Ep is concrete, so
// the callers' closures stay on their stacks.
func (c Context) call(ctx context.Context, method string, put func(*wire.Encoder), get func(*wire.Decoder) error) error {
	if c.Failover != nil {
		return c.Failover.invoke(ctx, c.Ep, c.Ref, method, put, get)
	}
	return c.Ep.InvokeCtx(ctx, c.Ref, method, put, get)
}

// Resolve resolves a (possibly multi-component) name to an object
// reference (§4.4).  Resolution recurses server-side across local and
// remote contexts.
func (c Context) Resolve(name string) (oref.Ref, error) {
	return c.ResolveCtx(context.Background(), name)
}

// ResolveCtx is Resolve with context propagation: an active trace span in
// ctx travels with the call, and a TraceSink in ctx receives the failure
// trace the resolved binding adopted, if any (the rebind-after-failover
// causal join, §8.2).
func (c Context) ResolveCtx(ctx context.Context, name string) (oref.Ref, error) {
	var out oref.Ref
	err := c.call(ctx, "resolve",
		func(e *wire.Encoder) { e.PutString(name) },
		func(d *wire.Decoder) error { out.UnmarshalWire(d); return nil })
	return out, err
}

// Bind associates name with obj in this context (§4.4).  Binding an
// already-bound name fails with AlreadyBound — the first-bind-wins rule
// primary/backup services elect through (§5.2).
func (c Context) Bind(name string, obj oref.Ref) error {
	return c.BindCtx(context.Background(), name, obj)
}

// BindCtx is Bind with context propagation.  A TraceSink in ctx receives
// the failure trace this bind adopted when it repaired an audit eviction —
// how a backup's election win learns which failure it is the answer to.
func (c Context) BindCtx(ctx context.Context, name string, obj oref.Ref) error {
	return c.call(ctx, "bind",
		func(e *wire.Encoder) { e.PutString(name); obj.MarshalWire(e) }, nil)
}

// Unbind removes the named binding.
func (c Context) Unbind(name string) error {
	return c.call(context.Background(), "unbind",
		func(e *wire.Encoder) { e.PutString(name) }, nil)
}

// BindNewContext creates a fresh NamingContext bound at name and returns
// its reference.
func (c Context) BindNewContext(name string) (oref.Ref, error) {
	var out oref.Ref
	err := c.call(context.Background(), "bindNewContext",
		func(e *wire.Encoder) { e.PutString(name) },
		func(d *wire.Decoder) error { out.UnmarshalWire(d); return nil })
	return out, err
}

// BindReplContext creates a ReplicatedContext bound at name, with the given
// built-in selector policy (see Policy*), and returns its reference.
func (c Context) BindReplContext(name, policy string) (oref.Ref, error) {
	var out oref.Ref
	err := c.call(context.Background(), "bindReplContext",
		func(e *wire.Encoder) { e.PutString(name); e.PutString(policy) },
		func(d *wire.Decoder) error { out.UnmarshalWire(d); return nil })
	return out, err
}

// List returns the bindings of the context named by name ("" for this
// context).  Listing a replicated context returns only the selected
// binding (§4.5); use ListRepl for all of them.
func (c Context) List(name string) ([]Binding, error) {
	return c.list("list", name)
}

// ListRepl returns every binding of the named replicated context,
// including replica bindings that the selector would hide (§4.5).
func (c Context) ListRepl(name string) ([]Binding, error) {
	return c.list("listRepl", name)
}

func (c Context) list(method, name string) ([]Binding, error) {
	var out []Binding
	err := c.call(context.Background(), method,
		func(e *wire.Encoder) { e.PutString(name) },
		func(d *wire.Decoder) error { out = Bindings(d); return nil })
	return out, err
}

// SetSelector installs a custom selector object on the replicated context
// named by name, replacing its built-in policy.  Equivalent to binding the
// object under the reserved "selector" name (§4.5).
func (c Context) SetSelector(name string, sel oref.Ref) error {
	return c.call(context.Background(), "setSelector",
		func(e *wire.Encoder) { e.PutString(name); sel.MarshalWire(e) }, nil)
}

// ResolveAs resolves name on behalf of the original caller at callerHost.
// The name service uses it when recursing across remote contexts so that
// IP-derived selectors see the originating client, not the intermediate
// name-service replica.  Non-name-service context implementations may
// treat it exactly as Resolve.
func (c Context) ResolveAs(name, callerHost string) (oref.Ref, error) {
	return c.ResolveAsCtx(context.Background(), name, callerHost)
}

// ResolveAsCtx is ResolveAs with ResolveCtx's context propagation.
func (c Context) ResolveAsCtx(ctx context.Context, name, callerHost string) (oref.Ref, error) {
	var out oref.Ref
	err := c.call(ctx, "resolveAs",
		func(e *wire.Encoder) { e.PutString(name); e.PutString(callerHost) },
		func(d *wire.Decoder) error { out.UnmarshalWire(d); return nil })
	return out, err
}

// IsContextType reports whether a reference's IDL type speaks the
// NamingContext protocol, meaning multi-component resolution may recurse
// into it.
func IsContextType(typeID string) bool {
	switch typeID {
	case TypeContext, TypeReplContext:
		return true
	}
	// Subtypes advertise the context protocol with a "+ctx" suffix, e.g.
	// the file service's "itv.FileSystemContext+ctx" (§4.6).
	return strings.HasSuffix(typeID, "+ctx")
}

// SelectorStub is the client proxy for remote selector objects.
type SelectorStub struct {
	Ep  Invoker
	Ref oref.Ref
}

// Select asks the selector to choose among bindings for a caller at
// callerHost; it returns the chosen binding name (§4.5).
func (s SelectorStub) Select(bindings []Binding, callerHost string) (string, error) {
	var chosen string
	err := s.Ep.Invoke(s.Ref, "select",
		func(e *wire.Encoder) {
			PutBindings(e, bindings)
			e.PutString(callerHost)
		},
		func(d *wire.Decoder) error { chosen = d.String(); return nil })
	return chosen, err
}

// ErrUnavailable is raised when no name-service master is known; callers
// retry after a short delay (the client library's rebind loop, §8.2).
func errUnavailable(msg string) error { return orb.Errf(orb.ExcUnavailable, "%s", msg) }
