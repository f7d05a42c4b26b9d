package wire

import "sync"

// Encoder pooling for the RPC hot path.  One remote invocation used to cost
// a fresh Encoder (and its backing array) for the argument marshal, another
// for the request frame, and a third on the server for results; under
// millions of settops that is pure allocator pressure for buffers whose
// lifetime is one call.  GetEncoder/PutEncoder recycle them instead.
//
// Ownership contract: an encoder's Bytes() alias its internal buffer, so a
// caller must be completely done with every slice obtained from the encoder
// (written to the network, copied, or decoded out of) before PutEncoder.

// maxPooledBuf bounds the capacity a pooled encoder (or pooled frame
// buffer) may retain.  A single 16 MB application-image frame must not pin
// 16 MB in the pool forever; oversized buffers are dropped to the GC.
const maxPooledBuf = 1 << 20

var encPool = sync.Pool{New: func() any { return &Encoder{buf: make([]byte, 0, 256)} }}

// GetEncoder returns an empty encoder from the pool.
func GetEncoder() *Encoder {
	e := encPool.Get().(*Encoder)
	e.Reset()
	return e
}

// PutEncoder returns an encoder to the pool.  The caller must not use the
// encoder, or any slice obtained from it, afterwards.
func PutEncoder(e *Encoder) {
	if e == nil || cap(e.buf) > maxPooledBuf {
		return
	}
	encPool.Put(e)
}

// CapOK reports whether a scratch buffer of the given capacity is worth
// pooling under the same retention bound PutEncoder applies.  Connection
// read loops use it to decide whether to keep a grown frame buffer.
func CapOK(c int) bool { return c <= maxPooledBuf }
