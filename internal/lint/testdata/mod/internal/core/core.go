// Package core is a miniature stand-in for itv/internal/core: a Rebinder,
// whose calls resolve a name and invoke through the ORB.
package core

import (
	"context"

	"golden/internal/orb"
)

type Rebinder struct{}

func (rb *Rebinder) Invoke(method string) error                                      { return nil }
func (rb *Rebinder) InvokeCtx(ctx context.Context, method string) error              { return nil }
func (rb *Rebinder) InvokeInto(ctx context.Context, method string, dst []byte) error { return nil }
func (rb *Rebinder) Do(ctx context.Context, call func(orb.Ref) error) error          { return nil }
