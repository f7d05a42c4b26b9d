package auth

import (
	"crypto/sha256"
	"encoding"
	"hash"
	"sync"
)

// The per-call signature hot path (§3.3: every control-plane call is
// signed) cannot afford crypto/hmac's per-call construction: hmac.New
// allocates the two digest states and the key pads on every call.  The
// HMAC definition itself needs nothing per-call beyond a SHA-256 state
// and the two XOR-padded key blocks, and the blocks hash to the same two
// states every time, so we hash them once per key (macState keeps the
// states after them, marshaled) and borrow the digest from a pool.  The
// digest carries no key material between calls — each use restores a
// state over whatever it held — so one pool serves every principal,
// session and realm key in the process.

// hmacBlockSize is SHA-256's block size, the pad width HMAC is defined
// over.  Keys longer than a block are first hashed down (RFC 2104); ours
// are KeySize (32) bytes, but init handles the general case so macState
// is byte-identical to crypto/hmac for any key.
const hmacBlockSize = 64

// sigSize is the byte length of a call signature (HMAC-SHA256).
const sigSize = sha256.Size

// digest is a SHA-256 state that can be restored from a marshaled one.
type digest interface {
	hash.Hash
	encoding.BinaryUnmarshaler
}

var digestPool = sync.Pool{New: func() any { return sha256.New() }}

// getDigest borrows a SHA-256 state from the pool, to be restored before
// use.  Callers must release it with putDigest on every path (itv-vet
// poolown enforces this like the wire encoder pools).
func getDigest() digest { return digestPool.Get().(digest) }

// putDigest returns a borrowed digest to the pool.
func putDigest(d digest) { digestPool.Put(d) }

// macState is the precomputed half of an HMAC-SHA256 keyed by one
// secret: the SHA-256 states after the inner and outer XOR-padded key
// blocks, marshaled.  It is immutable after init, so concurrent appendSum
// calls on one state are safe — the mutable digest is per-call, from the
// pool.
type macState struct {
	inner, outer []byte
}

// init precomputes the two states for key.
func (ms *macState) init(key []byte) {
	if len(key) > hmacBlockSize {
		sum := sha256.Sum256(key)
		key = sum[:]
	}
	var ipad, opad [hmacBlockSize]byte
	for i := range ipad {
		ipad[i], opad[i] = 0x36, 0x5c
	}
	for i, b := range key {
		ipad[i] ^= b
		opad[i] ^= b
	}
	ms.inner, ms.outer = midstate(ipad[:]), midstate(opad[:])
}

// midstate is the marshaled SHA-256 state after hashing one block.
func midstate(block []byte) []byte {
	d := sha256.New()
	d.Write(block)
	st, _ := d.(encoding.BinaryMarshaler).MarshalBinary()
	return st
}

// appendSum computes HMAC(key, payload) and appends it to sigBuf,
// returning the extended slice.  With cap(sigBuf) >= len(sigBuf)+sigSize
// (callers pass a fixed scratch array) the call allocates nothing.  The
// intermediate inner digest is staged in the same buffer: Sum computes
// the checksum before appending, so overwriting the staged bytes with
// the final Sum is safe.
func (ms *macState) appendSum(sigBuf, payload []byte) []byte {
	d := getDigest()
	d.UnmarshalBinary(ms.inner)
	d.Write(payload)
	inner := d.Sum(sigBuf)
	d.UnmarshalBinary(ms.outer)
	d.Write(inner[len(sigBuf):])
	out := d.Sum(sigBuf)
	putDigest(d)
	return out
}
