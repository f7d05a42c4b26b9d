package orb

import (
	"bytes"
	"fmt"
	"runtime"
	"runtime/pprof"
	"sync/atomic"
	"time"

	"itv/internal/obs"
	"itv/internal/wire"
)

// On-demand profiling surface (DESIGN.md §13.4): the node operation
// _profile collects a runtime/pprof profile on the serving node and pages it
// back in bounded chunks, so an operator who spotted a suspicious trace in
// the slow ledger can pull a profile from that exact node without
// restarting it or exposing an HTTP port.
//
// Wire form of the request: kind (string: cpu|heap|goroutine|mutex|block),
// seconds (uint; bounds cpu/mutex/block collection, clamped server-side),
// rate (uint; mutex fraction / block rate for the collection window), and
// offset (uint).  offset 0 collects a fresh profile and returns its first
// chunk; subsequent calls with a nonzero offset page the rest out of the
// buffered result.  The response is the total byte count followed by the
// chunk.
//
// Rate discipline: mutex and block profiling are sampled only for the
// collection window — the rates are reset to zero afterwards, so a profile
// pull never leaves the node paying sampling overhead.

const (
	// profileChunk bounds one _profile response body, keeping the frames of
	// a large profile transfer well under the wire retention caps.
	profileChunk = 256 << 10

	// maxProfileSeconds caps a timed collection (cpu/mutex/block) so a
	// mistyped duration cannot pin the diagnostic guard for minutes.
	maxProfileSeconds = 30
)

// cpuProfileBusy serializes CPU profiling process-wide: runtime/pprof
// supports one CPU profile at a time, and in the in-memory test-bed every
// simulated node shares the process.  The loser gets ExcBusy, not an error
// from deep inside pprof.
var cpuProfileBusy atomic.Bool

// serveProfile handles one _profile request whose arguments are in d.  It
// returns the profile's total size and the requested chunk (aliasing the
// endpoint's buffered profile; the caller copies it into the results before
// any new collection can replace the buffer).
func (e *Endpoint) serveProfile(d *wire.Decoder) (total uint64, chunk []byte, err error) {
	kind := d.String()
	seconds := d.Uint()
	rate := d.Uint()
	offset := d.Uint()
	if d.Err() != nil || kind == "" {
		return 0, nil, Errf(ExcBadArgs, "profile args: kind, seconds, rate, offset")
	}
	if offset == 0 {
		if cerr := e.collectProfile(kind, seconds, rate); cerr != nil {
			return 0, nil, cerr
		}
	}
	e.profMu.Lock()
	buf := e.profBuf
	if offset >= uint64(len(buf)) && offset != 0 {
		e.profMu.Unlock()
		return uint64(len(buf)), nil, Errf(ExcBadArgs, "profile offset %d beyond buffered %d bytes", offset, len(buf))
	}
	end := offset + profileChunk
	if end > uint64(len(buf)) {
		end = uint64(len(buf))
	}
	chunk = buf[offset:end]
	if end == uint64(len(buf)) {
		// Fully paged: drop the buffer so a large profile is not pinned
		// until the next collection.  The returned chunk still aliases the
		// old backing array, which stays valid.
		e.profBuf = nil
	}
	e.profMu.Unlock()
	return uint64(len(buf)), chunk, nil
}

// collectProfile gathers one profile into the endpoint's buffer.  Timed
// kinds block the calling worker for the collection window — that is the
// point; the diagnostic guard bounds how many callers can do so at once,
// and the cpu slot keeps pprof's process-global profiler single-writer.
func (e *Endpoint) collectProfile(kind string, seconds, rate uint64) error {
	secs := int(seconds)
	if secs < 1 {
		secs = 1
	}
	if secs > maxProfileSeconds {
		secs = maxProfileSeconds
	}
	var buf bytes.Buffer
	switch kind {
	case "cpu":
		if !cpuProfileBusy.CompareAndSwap(false, true) {
			return Errf(ExcBusy, "cpu profile already in flight")
		}
		if err := pprof.StartCPUProfile(&buf); err != nil {
			cpuProfileBusy.Store(false)
			return Errf(ExcBusy, "cpu profile: %v", err)
		}
		time.Sleep(time.Duration(secs) * time.Second)
		pprof.StopCPUProfile()
		cpuProfileBusy.Store(false)
	case "heap", "goroutine":
		if err := pprof.Lookup(kind).WriteTo(&buf, 0); err != nil {
			return Errf("ServerError", "%s profile: %v", kind, err)
		}
	case "mutex", "block":
		setRate, r := func(r int) { runtime.SetMutexProfileFraction(r) }, 5 // 1/5 of contention events
		if kind == "block" {
			setRate, r = runtime.SetBlockProfileRate, 10000 // one sample per ~10µs blocked
		}
		if asked := int(rate); asked > 0 {
			r = asked
		}
		setRate(r)
		time.Sleep(time.Duration(secs) * time.Second)
		err := pprof.Lookup(kind).WriteTo(&buf, 0)
		setRate(0) // never leave sampling on
		if err != nil {
			return Errf("ServerError", "%s profile: %v", kind, err)
		}
	default:
		return Errf(ExcBadArgs, "unknown profile kind %q (want cpu|heap|goroutine|mutex|block)", kind)
	}
	e.profMu.Lock()
	e.profBuf = buf.Bytes()
	e.profMu.Unlock()
	e.metrics.reg.Counter(obs.L("profile_collects", "kind", kind)).Inc()
	e.recorder.Record(e.hlc.Current().Physical(), 0, "profile_collected",
		fmt.Sprintf("kind=%s bytes=%d seconds=%d", kind, buf.Len(), secs))
	return nil
}

// ProfileOf pulls one runtime profile from the node at addr via the
// node operation _profile and returns the complete serialized profile
// (pprof's gzipped protobuf form).  kind is cpu, heap, goroutine, mutex or
// block; seconds bounds the timed kinds (clamped to 1..30 server-side) and
// rate sets the mutex fraction / block rate for the collection window
// (0 picks a default; the node resets the rate to zero afterwards).
//
// For the timed kinds the endpoint's call timeout must exceed seconds
// (SetCallTimeout): collection happens synchronously inside the first
// call, and later calls page the remainder in bounded chunks.
func (e *Endpoint) ProfileOf(addr, kind string, seconds, rate int) ([]byte, error) {
	ref := NodeRef(addr)
	var out []byte
	offset := uint64(0)
	for {
		var total uint64
		var more bool
		err := e.Invoke(ref, "_profile", func(enc *wire.Encoder) {
			enc.PutString(kind)
			enc.PutUint(uint64(seconds))
			enc.PutUint(uint64(rate))
			enc.PutUint(offset)
		}, func(d *wire.Decoder) error {
			total = d.Uint()
			chunk := d.Bytes()
			out = append(out, chunk...)
			more = len(chunk) > 0
			return nil
		})
		if err != nil {
			return nil, err
		}
		offset = uint64(len(out))
		if offset >= total || !more {
			return out, nil
		}
	}
}
