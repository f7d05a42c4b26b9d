package mortalref

import (
	"context"

	"golden/internal/core"
	"golden/internal/orb"
)

type Invoker interface {
	Invoke(ref orb.Ref, method string) error
}

type Stub struct{ Ep Invoker }

func (s Stub) Put() error { return s.Ep.Invoke(orb.Ref{}, "put") }

// positives: three statement forms that silently drop the error.
func bad(ep *orb.Endpoint, s Stub) {
	ep.Ping("host") // want "discards its error"
	go s.Put()      // want "go statement"
	defer s.Put()   // want "defer statement"
}

// positives: the context, caller-buffer, rebinding and Invoker forms drop
// the signal just the same.
func badForms(ctx context.Context, ep *orb.Endpoint, rb *core.Rebinder, buf []byte) {
	ep.InvokeCtx(ctx, orb.Ref{}, "m")       // want "orb.Endpoint.InvokeCtx"
	ep.InvokeInto(ctx, orb.Ref{}, "m", buf) // want "orb.Endpoint.InvokeInto"
	rb.Invoke("m")                          // want "core.Rebinder.Invoke"
	orb.Ping(ep, orb.Ref{})                 // want "orb.Ping"
}

// negatives: handled, or explicitly discarded with _.
func good(ep *orb.Endpoint, s Stub) error {
	_ = ep.Ping("host")
	if err := s.Put(); err != nil {
		return err
	}
	return nil
}
