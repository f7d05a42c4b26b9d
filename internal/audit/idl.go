package audit

import (
	"context"

	"itv/internal/orb"
	"itv/internal/oref"
	"itv/internal/wire"
)

type skel struct{ s *Service }

func (k *skel) TypeID() string { return TypeID }

func (k *skel) Dispatch(c *orb.ServerCall) error {
	switch c.Method() {
	case "checkStatus":
		refs := oref.Refs(c.Args())
		alive := k.s.CheckStatus(refs)
		putBools(c.Results(), alive)
		return nil
	case "checkStatusT":
		refs := oref.Refs(c.Args())
		alive, traces := k.s.CheckStatusT(refs)
		putStatuses(c.Results(), alive, traces)
		return nil
	case "localStatus":
		// Peer-to-peer: evaluate only against this server's SSC live set.
		refs := oref.Refs(c.Args())
		alive, _ := k.s.localStatusT(refs)
		putBools(c.Results(), alive)
		return nil
	case "localStatusT":
		// localStatus plus the death trace per dead reference — the hop
		// that carries a failure's causal trace between RAS peers.
		refs := oref.Refs(c.Args())
		alive, traces := k.s.localStatusT(refs)
		putStatuses(c.Results(), alive, traces)
		return nil
	default:
		return orb.ErrNoSuchMethod
	}
}

func putBools(e *wire.Encoder, bs []bool) {
	e.PutUint(uint64(len(bs)))
	for _, b := range bs {
		e.PutBool(b)
	}
}

func getBools(d *wire.Decoder) []bool {
	n := d.Count()
	out := make([]bool, 0, n)
	for i := 0; i < n && d.Err() == nil; i++ {
		out = append(out, d.Bool())
	}
	return out
}

func putStatuses(e *wire.Encoder, alive []bool, traces []uint64) {
	e.PutUint(uint64(len(alive)))
	for i, a := range alive {
		e.PutBool(a)
		var t uint64
		if i < len(traces) {
			t = traces[i]
		}
		e.PutUint(t)
	}
}

func getStatuses(d *wire.Decoder) ([]bool, []uint64) {
	n := d.Count()
	alive := make([]bool, 0, n)
	traces := make([]uint64, 0, n)
	for i := 0; i < n && d.Err() == nil; i++ {
		alive = append(alive, d.Bool())
		traces = append(traces, d.Uint())
	}
	return alive, traces
}

// Stub is the client proxy for a RAS instance.
type Stub struct {
	Ep  orb.Invoker
	Ref oref.Ref
}

// CheckStatus asks the RAS for the liveness of each reference.
func (s Stub) CheckStatus(refs []oref.Ref) ([]bool, error) {
	var out []bool
	err := s.Ep.Invoke(s.Ref, "checkStatus",
		func(e *wire.Encoder) { oref.PutRefs(e, refs) },
		func(d *wire.Decoder) error { out = getBools(d); return nil })
	return out, err
}

// CheckStatusT is CheckStatus with the death trace per dead reference.
func (s Stub) CheckStatusT(refs []oref.Ref) ([]bool, []uint64, error) {
	var alive []bool
	var traces []uint64
	err := s.Ep.Invoke(s.Ref, "checkStatusT",
		func(e *wire.Encoder) { oref.PutRefs(e, refs) },
		func(d *wire.Decoder) error { alive, traces = getStatuses(d); return nil })
	return alive, traces, err
}

// LocalStatus evaluates refs against the remote server's local live set
// (the peer-polling operation).
func (s Stub) LocalStatus(refs []oref.Ref) ([]bool, error) {
	var out []bool
	err := s.Ep.Invoke(s.Ref, "localStatus",
		func(e *wire.Encoder) { oref.PutRefs(e, refs) },
		func(d *wire.Decoder) error { out = getBools(d); return nil })
	return out, err
}

// LocalStatusT is LocalStatus with the death trace per dead reference.
func (s Stub) LocalStatusT(refs []oref.Ref) ([]bool, []uint64, error) {
	return s.LocalStatusTCtx(context.Background(), refs)
}

// LocalStatusTCtx is LocalStatusT with a caller-supplied context, so the
// RAS peer-poll loop can attach an obs.ClockSink and measure the peer's
// clock offset from the same exchange it uses for auditing.
func (s Stub) LocalStatusTCtx(ctx context.Context, refs []oref.Ref) ([]bool, []uint64, error) {
	var alive []bool
	var traces []uint64
	err := orb.InvokeVia(ctx, s.Ep, s.Ref, "localStatusT",
		func(e *wire.Encoder) { oref.PutRefs(e, refs) },
		func(d *wire.Decoder) error { alive, traces = getStatuses(d); return nil })
	return alive, traces, err
}

// Checker adapts a RAS stub to the name service's StatusChecker interface —
// the wiring behind §4.7/§8.3 (the name service is one of the RAS's two
// clients, along with the MMS).
type Checker struct {
	Ep  orb.Invoker
	Ref oref.Ref
}

// CheckStatus implements names.StatusChecker.
func (c Checker) CheckStatus(refs []oref.Ref) (map[string]bool, error) {
	alive, err := (Stub{Ep: c.Ep, Ref: c.Ref}).CheckStatus(refs)
	if err != nil {
		return nil, err
	}
	out := make(map[string]bool, len(refs))
	for i, r := range refs {
		if i < len(alive) {
			out[r.Key()] = alive[i]
		}
	}
	return out, nil
}

// CheckStatusTraced implements names.TracedChecker: liveness plus, for dead
// references, the causal trace of the observed death — what lets the name
// service's audit eviction join the trace the SSC minted when the object
// died, even when the death happened on another server.
func (c Checker) CheckStatusTraced(refs []oref.Ref) (map[string]bool, map[string]uint64, error) {
	alive, traces, err := (Stub{Ep: c.Ep, Ref: c.Ref}).CheckStatusT(refs)
	if err != nil {
		return nil, nil, err
	}
	out := make(map[string]bool, len(refs))
	tr := make(map[string]uint64)
	for i, r := range refs {
		if i < len(alive) {
			out[r.Key()] = alive[i]
		}
		if i < len(traces) && traces[i] != 0 {
			tr[r.Key()] = traces[i]
		}
	}
	return out, tr, nil
}

// SettopRef builds the conventional entity reference for a settop.
func SettopRef(host string) oref.Ref {
	return oref.Ref{Addr: host + ":0", TypeID: TypeSettop}
}
