package audit

import (
	"context"

	"itv/internal/orb"
	"itv/internal/oref"
	"itv/internal/wire"
)

type skel struct{ s *Service }

func (k *skel) TypeID() string { return TypeID }

// Both operations answer, per reference, liveness and the causal trace of
// an observed death (0 when alive or untraced).
func (k *skel) Dispatch(c *orb.ServerCall) error {
	switch c.Method() {
	case "checkStatus":
		alive, traces := k.s.CheckStatus(oref.Refs(c.Args()))
		putStatuses(c.Results(), alive, traces)
		return nil
	case "localStatus":
		// Peer-to-peer: evaluate only against this server's SSC live set.
		// The traces are the hop that carries a failure's causal trace
		// between RAS peers.
		alive, traces := k.s.localStatus(oref.Refs(c.Args()))
		putStatuses(c.Results(), alive, traces)
		return nil
	default:
		return orb.ErrNoSuchMethod
	}
}

func putStatuses(e *wire.Encoder, alive []bool, traces []uint64) {
	e.PutUint(uint64(len(alive)))
	for i, a := range alive {
		e.PutBool(a)
		e.PutUint(traces[i])
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

// Stub is the client proxy for a RAS instance.  It is the name service's
// names.StatusChecker.
type Stub struct {
	Ep  *orb.Endpoint
	Ref oref.Ref
}

// CheckStatus asks the RAS for the liveness of each reference and, per
// dead one, the causal trace of its death (0 when untraced).
func (s Stub) CheckStatus(refs []oref.Ref) (alive []bool, traces []uint64, err error) {
	err = s.Ep.Invoke(s.Ref, "checkStatus",
		func(e *wire.Encoder) { oref.PutRefs(e, refs) },
		func(d *wire.Decoder) error { alive, traces = getStatuses(d); return nil })
	return alive, traces, err
}

// LocalStatus evaluates refs against the remote server's local live set
// (the peer-polling operation), with the death trace per dead reference.
// The ctx lets the peer-poll loop attach an obs.ClockSink and measure the
// peer's clock offset from the same exchange it uses for auditing.
func (s Stub) LocalStatus(ctx context.Context, refs []oref.Ref) (alive []bool, traces []uint64, err error) {
	err = s.Ep.InvokeCtx(ctx, s.Ref, "localStatus",
		func(e *wire.Encoder) { oref.PutRefs(e, refs) },
		func(d *wire.Decoder) error { alive, traces = getStatuses(d); return nil })
	return alive, traces, err
}

// SettopRef builds the conventional entity reference for a settop.
func SettopRef(host string) oref.Ref {
	return oref.Ref{Addr: host + ":0", TypeID: TypeSettop}
}
