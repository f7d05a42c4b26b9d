// Package orb is a miniature stand-in for itv/internal/orb, just enough
// shape for the analyzers: an Endpoint with its request-sending methods,
// the package helper that invokes through an Invoker, and a couple of
// sentinel errors.
package orb

import (
	"context"
	"errors"
)

type Ref struct{ ID string }

type Endpoint struct{}

func (e *Endpoint) Invoke(ref Ref, method string) error { return nil }
func (e *Endpoint) InvokeCtx(ctx context.Context, ref Ref, method string) error {
	return nil
}
func (e *Endpoint) InvokeInto(ctx context.Context, ref Ref, method string, dst []byte) error {
	return nil
}
func (e *Endpoint) Ping(host string) error                { return nil }
func (e *Endpoint) MetricsOf(host string) (string, error) { return "", nil }

// Invoker is what a stub invokes through.
type Invoker interface {
	Invoke(ref Ref, method string) error
}

func Ping(inv Invoker, ref Ref) error { return nil }

var (
	ErrUnreachable  = errors.New("unreachable")
	ErrNoSuchMethod = errors.New("no such method")
)
