package orb

import (
	"sync/atomic"

	"itv/internal/obs"
	"itv/internal/oref"
	"itv/internal/wire"
)

// Every endpoint serves one object nobody registered: the node itself,
// type itv.Node, the ORB face of its host's diagnostic record (package
// obs).  Its operations are the rows of nodeOps and run on the ordinary
// dispatch path; DESIGN.md §7 tabulates their arguments and results.

// nodeOp is one operation of the node object.
type nodeOp struct {
	name string
	// guarded operations serialise a ring or collect a profile, so they
	// share the endpoint's diagnostic concurrency bound and refuse with
	// ExcBusy past it.
	guarded bool
	// validated operations answer only through a reference that names a
	// live object of this incarnation; the rest describe the node, not an
	// object, and answer whatever the reference says — scrapers hold no
	// valid reference to a server they are inspecting, and the whole point
	// of _events is the story of nodes whose references died.
	validated bool
	handle    func(*Endpoint, *ServerCall) error
}

var nodeOps = [...]nodeOp{
	// Unguarded: a liveness probe (§7.2's ping-based tracking, kept for the
	// E5/E11 comparison) must not read a busy scraper as a death.
	{name: "_ping", validated: true, handle: func(*Endpoint, *ServerCall) error { return nil }},
	// Unguarded: the scrape an operator uses to see why a node is refusing
	// diagnostics.
	{name: "_metrics", handle: (*Endpoint).serveMetrics},
	{name: "_events", guarded: true, handle: (*Endpoint).serveEvents},
	{name: "_health", guarded: true, handle: (*Endpoint).serveHealth},
	{name: "_slow", guarded: true, handle: (*Endpoint).serveSlow},
	{name: "_profile", guarded: true, handle: (*Endpoint).serveProfilePage},
}

// nodeOpFor returns the node operation called method, or nil.  Anything
// that does not start with an underscore — every call on the hot path — is
// turned away by its first byte.
func nodeOpFor(method string) *nodeOp {
	if method == "" || method[0] != '_' {
		return nil
	}
	for i := range nodeOps {
		if nodeOps[i].name == method {
			return &nodeOps[i]
		}
	}
	return nil
}

// NodeRef returns the reference node operations are invoked through: the
// node object of whatever endpoint listens at addr, in any incarnation.
func NodeRef(addr string) oref.Ref {
	return oref.Ref{Addr: addr, Incarnation: oref.AnyIncarnation, TypeID: "itv.Node"}
}

// nodeSkel is the node object's skeleton.
type nodeSkel struct{ e *Endpoint }

func (n *nodeSkel) TypeID() string { return "itv.Node" }

func (n *nodeSkel) Dispatch(c *ServerCall) error {
	op := nodeOpFor(c.method)
	if op == nil {
		return ErrNoSuchMethod
	}
	if op.guarded {
		if !n.e.diag.acquire() {
			return Errf(ExcBusy, "diagnostic endpoint busy")
		}
		defer n.e.diag.release()
	}
	return op.handle(n.e, c)
}

// answerer is the routing step remote and local dispatch share: which
// skeleton answers method, given what the object table holds under the
// reference's object id (obj, nil for nothing) and the incarnation the
// reference names.  Nil means the reference is invalid.
func (e *Endpoint) answerer(method string, obj Skeleton, incarnation int64) Skeleton {
	op := nodeOpFor(method)
	if op != nil && !op.validated {
		return e.node
	}
	if obj == nil || (incarnation != e.incarnation && incarnation != oref.AnyIncarnation) {
		e.metrics.invalidRefs.Inc()
		return nil
	}
	if op != nil {
		return e.node
	}
	return obj
}

// maxDiagInflight bounds concurrently served guarded node operations per
// endpoint; past it, callers get ExcBusy instead of queueing behind each
// other on the dispatch workers.
const maxDiagInflight = 4

// diagGuard is that bound.  acquire/release cost one atomic each.
type diagGuard struct {
	inflight atomic.Int32
}

func (g *diagGuard) acquire() bool {
	if g.inflight.Add(1) > maxDiagInflight {
		g.inflight.Add(-1)
		return false
	}
	return true
}

func (g *diagGuard) release() { g.inflight.Add(-1) }

// optUint decodes a trailing optional uint argument: absent reads as zero.
func optUint(d *wire.Decoder) uint64 {
	if d.Remaining() == 0 {
		return 0
	}
	return d.Uint()
}

func (e *Endpoint) serveMetrics(c *ServerCall) error {
	c.results.PutString(e.metrics.reg.Text())
	return nil
}

func (e *Endpoint) serveEvents(c *ServerCall) error {
	afterSeq := optUint(c.args)
	appendEvents(c.results, e.recorder.EventsAfter(afterSeq, int(optUint(c.args))))
	return nil
}

// serveHealth reports the node's own idea of "now" as its HLC physical
// reading, so nodes on injected clocks report simulated time.
func (e *Endpoint) serveHealth(c *ServerCall) error {
	h := obs.NodeHealth(e.tr.Host())
	appendHealth(c.results, h.Report(e.hlc.Current().Physical(), int(optUint(c.args))))
	return nil
}

func (e *Endpoint) serveSlow(c *ServerCall) error {
	appendSlowCalls(c.results, e.ledger)
	return nil
}

func (e *Endpoint) serveProfilePage(c *ServerCall) error {
	total, chunk, err := e.serveProfile(c.args)
	if err != nil {
		return err
	}
	c.results.PutUint(total)
	c.results.PutBytes(chunk)
	return nil
}
