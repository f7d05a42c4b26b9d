package ssc

import (
	"context"

	"itv/internal/orb"
	"itv/internal/oref"
	"itv/internal/wire"
)

// skel exports the Controller over the ORB.
type skel struct {
	c *Controller
}

func (s *skel) TypeID() string { return TypeID }

func (s *skel) Dispatch(c *orb.ServerCall) error {
	switch c.Method() {
	case "notifyReady":
		pid := int(c.Args().Int())
		refs := oref.Refs(c.Args())
		s.c.NotifyReady(pid, refs)
		return nil
	case "registerCallback":
		var cb oref.Ref
		cb.UnmarshalWire(c.Args())
		s.c.RegisterCallback(cb)
		return nil
	case "start":
		return s.c.StartService(c.Args().String())
	case "stop":
		return s.c.StopService(c.Args().String())
	case "kill":
		return s.c.KillService(c.Args().String())
	case "running":
		c.Results().PutStrings(s.c.Running())
		return nil
	default:
		return orb.ErrNoSuchMethod
	}
}

// Stub is the client-side proxy for a remote SSC; the CSC drives SSCs
// through it (§6.2).
type Stub struct {
	Ep  *orb.Endpoint
	Ref oref.Ref
}

// NotifyReady reports a process's exported objects.
func (s Stub) NotifyReady(pid int, refs []oref.Ref) error {
	return s.Ep.Invoke(s.Ref, "notifyReady",
		func(e *wire.Encoder) {
			e.PutInt(int64(pid))
			oref.PutRefs(e, refs)
		}, nil)
}

// RegisterCallback registers a liveness callback object.
func (s Stub) RegisterCallback(cb oref.Ref) error {
	return s.Ep.Invoke(s.Ref, "registerCallback",
		func(e *wire.Encoder) { cb.MarshalWire(e) }, nil)
}

// Start starts the named service on the remote server.
func (s Stub) Start(name string) error {
	return s.Ep.Invoke(s.Ref, "start",
		func(e *wire.Encoder) { e.PutString(name) }, nil)
}

// Stop stops the named service without restart.
func (s Stub) Stop(name string) error {
	return s.Ep.Invoke(s.Ref, "stop",
		func(e *wire.Encoder) { e.PutString(name) }, nil)
}

// Kill kills the named service; the SSC restarts it.
func (s Stub) Kill(name string) error {
	return s.Ep.Invoke(s.Ref, "kill",
		func(e *wire.Encoder) { e.PutString(name) }, nil)
}

// Running lists the services the remote SSC is running; the CSC uses it to
// rediscover cluster state after a fail-over (§6.2).
func (s Stub) Running() ([]string, error) {
	return s.RunningCtx(context.Background())
}

// RunningCtx is Running with a caller-supplied context, so the CSC's ping
// loop can attach an obs.ClockSink and measure the peer's clock offset from
// the same exchange it uses for liveness.
func (s Stub) RunningCtx(ctx context.Context) ([]string, error) {
	var out []string
	err := s.Ep.InvokeCtx(ctx, s.Ref, "running", nil,
		func(d *wire.Decoder) error { out = d.Strings(); return nil })
	return out, err
}

// Ping probes the SSC's liveness (the CSC's server-failure detector, §6.3).
func (s Stub) Ping() error { return orb.Ping(s.Ep, s.Ref) }

// CallbackFunc adapts a Go function to the SSCCallback IDL.  The context is
// the server call's: when the SSC reported a death under a sampled trace,
// the callback can continue that trace (obs.SpanFrom) into its own work.
type CallbackFunc func(ctx context.Context, refs []oref.Ref, alive bool)

// TypeID implements orb.Skeleton.
func (CallbackFunc) TypeID() string { return TypeCallback }

// Dispatch implements orb.Skeleton.
func (f CallbackFunc) Dispatch(c *orb.ServerCall) error {
	if c.Method() != "objectsChanged" {
		return orb.ErrNoSuchMethod
	}
	refs := oref.Refs(c.Args())
	alive := c.Args().Bool()
	f(c.Context(), refs, alive)
	return nil
}
