package orb

import "itv/internal/wire"

// SetWireVersionForTest makes the endpoint *accept* (and therefore serve)
// only the given protocol version, simulating a server built at a different
// wire version than the client.  Test-only: the version an endpoint speaks
// as a client is always wireVersion.
func (e *Endpoint) SetWireVersionForTest(v uint64) { e.wireVer.Store(v) }

// WireVersion exposes the protocol version constant to tests.
const WireVersion = wireVersion

// send enqueues one encoded frame with no attribution and no call behind
// it: the write path as the frameWriter tests drive it.
func (w *frameWriter) send(fe *wire.Encoder) { w.sendFrame(queuedFrame{fe: fe}) }
