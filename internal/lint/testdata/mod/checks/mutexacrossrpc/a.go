package mutexacrossrpc

import (
	"context"
	"sync"

	"golden/internal/core"
	"golden/internal/orb"
)

type svc struct {
	mu sync.Mutex
	ep *orb.Endpoint
}

type Invoker interface {
	Invoke(ref orb.Ref, method string) error
}

type Stub struct{ Ep Invoker }

func (st Stub) Get() error { return st.Ep.Invoke(orb.Ref{}, "get") }

// positive: deferred unlock pins the mutex across the Invoke.
func (s *svc) bad() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ep.Invoke(orb.Ref{}, "m") // want "while holding s.mu"
}

// positive: the context and caller-buffer forms are remote calls too.
func (s *svc) badCtx(ctx context.Context, buf []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.ep.InvokeCtx(ctx, orb.Ref{}, "m"); err != nil { // want "orb.Endpoint.InvokeCtx"
		return err
	}
	return s.ep.InvokeInto(ctx, orb.Ref{}, "m", buf) // want "orb.Endpoint.InvokeInto"
}

// positive: a rebinding call resolves a name and invokes.
func (s *svc) badRebinder(ctx context.Context, rb *core.Rebinder) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := rb.InvokeCtx(ctx, "m"); err != nil { // want "core.Rebinder.InvokeCtx"
		return err
	}
	return rb.Do(ctx, func(orb.Ref) error { return nil }) // want "core.Rebinder.Do"
}

// positive: the RPC is one same-package call deeper.
func (s *svc) depth() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.callOut() // want "performs remote calls"
}

func (s *svc) callOut() error { return s.ep.Invoke(orb.Ref{}, "m") }

// positive: an exported method on a stub-shaped struct counts as remote.
func (s *svc) badStub(st Stub) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return st.Get() // want "Stub.Get"
}

// negative: snapshot under the lock, release, then invoke.
func (s *svc) good() error {
	s.mu.Lock()
	method := "m"
	s.mu.Unlock()
	return s.ep.Invoke(orb.Ref{}, method)
}

// negative: a goroutine literal is its own lock scope.
func (s *svc) goodAsync() {
	s.mu.Lock()
	defer s.mu.Unlock()
	go func() {
		_ = s.ep.Ping("peer")
	}()
}
