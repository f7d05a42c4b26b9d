// Package orb implements the object exchange layer (§3.2): transparent
// method calls on object references across the network.  Each service
// process owns an Endpoint, which combines the server side (an object
// adapter dispatching incoming invocations to registered skeletons) and the
// client side (connection pooling, request multiplexing, and typed failure
// reporting that higher layers use to drive rebinding, §8.2).
package orb

import (
	"errors"
	"fmt"
)

// ErrUnreachable reports that the implementing process could not be
// contacted at all — connection refused, host down, or I/O failure.  Like
// an invalid reference, it signals the client library to re-resolve (§8.2).
var ErrUnreachable = errors.New("orb: server unreachable")

// ErrInvalidReference reports that the reference's incarnation no longer
// matches the implementing process, or the object id is no longer
// registered: the object this reference denoted is gone (§3.2.1).
var ErrInvalidReference = errors.New("orb: invalid object reference")

// ErrNoSuchMethod reports an invocation of an undefined operation.
var ErrNoSuchMethod = errors.New("orb: no such method")

// ErrShutdown reports use of a closed endpoint.
var ErrShutdown = errors.New("orb: endpoint closed")

// ConnError reports a transport-level connection failure with its
// operation ("dial", "read", "decode", "write", "timeout") and underlying
// cause preserved — a read error means the peer died, a decode error means
// protocol corruption, and callers diagnosing one should not be told the
// other.  errors.Is(err, ErrUnreachable) still holds, so rebinding logic
// (§8.2) is unaffected.
type ConnError struct {
	Op  string
	Err error
}

func (e *ConnError) Error() string { return "orb: connection " + e.Op + ": " + e.Err.Error() }

// Unwrap makes a ConnError match both ErrUnreachable and its real cause.
func (e *ConnError) Unwrap() []error { return []error{ErrUnreachable, e.Err} }

// ConnClass returns the coarse failure class of an error for operator
// display: the ConnError operation ("dial", "read", "decode", "write",
// "timeout") when one is present, otherwise a stable word for the known
// sentinels.  itv-admin uses it to label UNREACHABLE rows instead of
// dropping unreachable nodes from its output.
func ConnClass(err error) string {
	var ce *ConnError
	switch {
	case err == nil:
		return "ok"
	case errors.As(err, &ce):
		return ce.Op
	case errors.Is(err, ErrShutdown):
		return "shutdown"
	case errors.Is(err, ErrInvalidReference):
		return "invalid_ref"
	case errors.Is(err, ErrUnreachable):
		return "unreachable"
	default:
		return "error"
	}
}

// errCallTimeout is the cause recorded when a round trip exceeds the
// endpoint's call timeout.
var errCallTimeout = errors.New("call timed out awaiting response")

// VersionError reports a wire-protocol version mismatch: the server decoded
// our envelope, refused the rest, and told us which version it accepts.
// It is deliberately not Dead(): rebinding to another replica of the same
// build will not fix a protocol gap, and retry storms against a mismatched
// server help nobody.
type VersionError struct {
	Client uint64 // version this process speaks
	Server uint64 // version the peer accepts
}

func (e *VersionError) Error() string {
	return fmt.Sprintf("orb: wire version mismatch: client speaks v%d, server accepts v%d", e.Client, e.Server)
}

// AppError is an application-level exception raised by a skeleton and
// re-raised in the client, identified by a stable name (the IDL exception
// tag) plus a human-readable message.
type AppError struct {
	Name string
	Msg  string
}

func (e *AppError) Error() string { return fmt.Sprintf("%s: %s", e.Name, e.Msg) }

// Errf builds an application exception.
func Errf(name, format string, args ...interface{}) error {
	return &AppError{Name: name, Msg: fmt.Sprintf(format, args...)}
}

// IsApp reports whether err is an application exception with the given name.
func IsApp(err error, name string) bool {
	if err == nil {
		return false // the common case; errors.As would send ae to the heap
	}
	var ae *AppError
	return errors.As(err, &ae) && ae.Name == name
}

// Dead reports whether err means the reference's object is gone for good —
// the condition under which the client library must re-resolve the name
// rather than retry the same reference (§8.2).
func Dead(err error) bool {
	return errors.Is(err, ErrUnreachable) || errors.Is(err, ErrInvalidReference) || errors.Is(err, ErrShutdown)
}

// Common IDL exception names shared across services.
const (
	ExcNotFound     = "NotFound"     // name or resource does not exist
	ExcAlreadyBound = "AlreadyBound" // bind over an existing binding (§5.2 election)
	ExcNotContext   = "NotContext"   // path component is not a context
	ExcBadArgs      = "BadArgs"      // request arguments failed to decode
	ExcDenied       = "Denied"       // authentication / authorization failure
	ExcExhausted    = "Exhausted"    // resource admission failure (bandwidth, limits)
	ExcUnavailable  = "Unavailable"  // service present but cannot serve (e.g. no master)
	ExcBusy         = "Busy"         // diagnostic endpoint at its concurrency bound
	ExcTooLarge     = "TooLarge"     // reply does not fit one frame (wire.MaxFrameSize)
)
