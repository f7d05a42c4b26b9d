package xtest_test

import (
	"errors"

	"golden/checks/xtest"
	"golden/internal/orb"
)

// positive: the external test package is a unit of its own, and sees the
// seam its package's in-package test files export.
func bad() bool {
	return xtest.Seam() == orb.ErrUnreachable // want "errors.Is"
}

// negative.
func good() bool {
	return errors.Is(xtest.Seam(), orb.ErrUnreachable)
}
