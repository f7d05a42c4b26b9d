package orb

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"itv/internal/obs"
	"itv/internal/wire"
)

// Adaptive frame coalescing (DESIGN.md §12).  Both sides of a connection
// funnel their outgoing frames through a frameWriter instead of writing
// under a mutex: the first sender becomes the flusher and writes
// immediately (an idle connection keeps today's direct-write latency),
// while frames arriving during an in-flight write queue up and leave in
// one batched write when it returns.  Batching is purely opportunistic —
// no timers, no deliberate delay — so the worst-case added latency for
// any frame is one in-flight write, and under concurrent load N small
// frames collapse into one syscall (frames/op < 1 in the parallel
// benchmark is this mechanism working).

const (
	// flushCopyLimit is the batch size up to which frames are coalesced
	// by copying into one contiguous buffer and issuing a single write.
	// Above it the flush switches to a vectored net.Buffers write, which
	// avoids the copy: one writev on a transport connection that offers
	// WriteBuffers (transport.TCP does), one write per buffer elsewhere.
	// The same size decides whether a reply body is worth lending to the
	// frame as a borrowed segment instead of copying it into the results
	// (ServerCall.PutBytesRef).
	flushCopyLimit = 16 << 10

	// maxBatchFrames bounds the frames in one flush so a single write —
	// and therefore the latency of the frames queued behind it — stays
	// bounded no matter how deep the queue gets.
	maxBatchFrames = 64
)

// encodeFrame marshals m into a pooled frame encoder and returns it with
// ownership: the caller hands it to a frameWriter, whose flusher releases
// it back to the wire pool after the batch is written.  segLen is the
// length of a borrowed segment that completes the frame on the wire
// (wire.AppendSplitFrame); zero for every frame but a bulk reply.
func encodeFrame(m wire.Marshaler, segLen int) (*wire.Encoder, error) {
	e := wire.GetEncoder()
	if err := wire.AppendSplitFrame(e, m, segLen); err != nil {
		wire.PutEncoder(e)
		return nil, err
	}
	return e, nil
}

// encodeResponse frames a reply.  When r carries a borrowed segment the
// encoder holds only the bytes around it, and the returned queuedFrame
// takes over the loan from r together with the offset where the segment
// splices in.  The frame on the wire is byte-for-byte the one r would
// make with the segment copied into its body.
func encodeResponse(r *response) (queuedFrame, error) {
	fe, err := encodeFrame(r, len(r.seg))
	if err != nil {
		return queuedFrame{}, err
	}
	qf := queuedFrame{fe: fe, seg: r.seg, split: r.split}
	r.seg = nil // a worker's idle scratch must not keep a replaced blob reachable
	return qf, nil
}

// frameMeta is the attribution a server response frame carries through the
// write path: after the flush completes, the flusher observes the
// queue/service/flush decomposition on sms, captures an exemplar for
// sampled calls, and runs slow-ledger admission on the end-to-end total.
// Client frames and error responses travel with the zero meta (sms nil)
// and pay nothing beyond the struct copy.
type frameMeta struct {
	sms     *serverMethodStats
	led     *obs.SlowLedger
	rec     *obs.Recorder
	hlc     obs.HLCTime
	trace   uint64
	sampled bool
	method  string
	peer    string
	queue   time.Duration
	service time.Duration
	handoff time.Duration // Mono reading: the worker handed the frame to the writer
}

// queuedFrame is one frame awaiting flush plus its attribution.  With a
// borrowed segment the frame's bytes are fe[:split] + seg + fe[split:];
// seg belongs to the service that lent it and is only read, until the
// flush that writes it returns.
type queuedFrame struct {
	fe    *wire.Encoder
	seg   []byte
	split int
	meta  frameMeta
}

// buffersWriter is the vectored-write path a transport connection may
// offer: the whole list leaves in one operation (writev on TCP) and counts
// as one frame write, which net.Buffers.WriteTo cannot arrange through a
// wrapping net.Conn.
type buffersWriter interface {
	WriteBuffers(bufs *net.Buffers) (int64, error)
}

// frameWriter serializes and coalesces frame writes on one connection.
type frameWriter struct {
	conn net.Conn
	m    *epMetrics
	// onErr is invoked, with no frameWriter lock held, once per failed
	// flush; the owner decides whether that kills the connection.
	onErr func(error)

	mu       sync.Mutex
	q        []queuedFrame // frames awaiting flush; encoder ownership held here
	spare    []queuedFrame // recycled queue backing for the swap
	flushing bool
	buf      []byte      // copy-coalesce scratch, reused across flushes
	vecs     net.Buffers // vectored-flush scratch, reused across flushes

	// due is when the flush in progress runs out, a Mono reading (zero
	// between flushes): on a client the deadline of the call whose frame
	// made it the flusher, or after a spared cut the latest deadline among
	// the frames that lead next (spares); on a server the batch's start
	// plus the endpoint's call timeout (limit), timed by the writer's own
	// stall timer.  latest is the latest deadline among the client frames
	// in q.  cutAt is the Mono reading at which cut set a past write
	// deadline on the connection (zero when it has not), which the flush
	// lifts when it ends or a spared cut's successors have time left.
	due    time.Duration
	latest time.Duration
	cutAt  time.Duration
	limit  func() time.Duration
	stall  dueTimer

	// queued numbers the frames in the order they join the queue, from 1;
	// lost is the number of the first frame of which no byte reached the
	// connection (0 while every write has succeeded).  Writes go in queue
	// order and a failed one ends the connection, so every frame numbered
	// from lost on was never sent: a caller tells from its own frame's
	// number alone, and the writer keeps no hold on the call.
	queued uint64
	lost   atomic.Uint64
}

// sendFrame enqueues one encoded frame (taking ownership of qf.fe) and, if
// no flush is in progress, becomes the flusher: it drains the queue —
// including frames other senders append while it is writing — and only
// then returns.  Write errors are routed to onErr; the remaining queue
// still drains (releasing every frame) with writes failing fast on the now
// dead connection.
//
// A server's reply frame has no call behind it.
func (w *frameWriter) sendFrame(qf queuedFrame) { w.sendFor(qf, nil) }

// sendFor is sendFrame for the frame of call by, a client request: its
// deadline bounds the flush the frame leads, and a call that is over
// already drops its frame here.  It returns the frame's number in the
// queue (unsent), 0 for a dropped one.
func (w *frameWriter) sendFor(qf queuedFrame, by *waiter) uint64 {
	sched(pSend, by)
	w.mu.Lock()
	if by != nil && by.state.Load()&fired != 0 {
		// A flush it led would have no deadline left to cut it short: the
		// timer ends calls before it cuts, which reads due under w.mu.
		w.mu.Unlock()
		wire.PutEncoder(qf.fe)
		return 0
	}
	w.q = append(w.q, qf)
	w.queued++
	seq := w.queued
	if by != nil {
		w.latest = max(w.latest, by.due)
	}
	if w.flushing {
		w.mu.Unlock()
		return seq
	}
	w.flushing = true
	// own: the batch is due by its own frames' deadlines, the leading
	// call's at first.
	own := by != nil
	// now is the flush's latest clock reading, the previous batch's write
	// return, zero before the first batch or when that batch needed none.
	var now time.Duration
	for len(w.q) > 0 {
		batch := w.q
		first := w.queued - uint64(len(batch)) + 1
		w.q = w.spare[:0]
		w.spare = nil
		if own {
			w.due = w.latest
			if w.cutAt != 0 && w.due > w.cutAt {
				w.cutAt = 0 // a spared cut, and this batch's calls have time left
				w.conn.SetWriteDeadline(time.Time{})
			}
		}
		w.latest = 0
		if w.limit != nil {
			// The batch starts writing now: at the previous write's return,
			// or, for the first, at its leading frame's hand-off.
			if now == 0 {
				now = batch[0].meta.handoff
			}
			if now == 0 {
				now = mono() // a reply without meta
			}
			w.due = now + w.limit()
			w.stall.arm(w.due, now)
		}
		w.mu.Unlock()

		sched(pFlushOwn, by)
		unwritten, err := w.writeBatch(batch, first)
		// Attribution happens here, outside w.mu, so the observes and the
		// (rare) ledger admission never extend the lock hold of concurrent
		// senders.  One clock reading covers the whole batch: every frame in
		// it left the wire at the same write return.
		now = 0
		for i := range batch {
			b := &batch[i]
			if b.meta.sms != nil {
				if now == 0 {
					now = mono()
				}
				w.attribute(&b.meta, now)
			}
			// The loan of a borrowed segment ends here, before the
			// encoder that framed it can serve another reply.
			fe := b.fe
			*b = queuedFrame{}
			wire.PutEncoder(fe)
		}
		spared := err != nil && w.spares(own && unwritten == first, unwritten)
		if err != nil && !spared && w.onErr != nil {
			w.onErr(err)
		}
		own = spared

		sched(pFlushRelease, by)
		w.mu.Lock()
		w.spare = batch[:0]
	}
	w.flushing, w.due = false, 0
	if w.cutAt != 0 {
		// The deadline outlived the write it was meant to cut short.
		w.cutAt = 0
		w.conn.SetWriteDeadline(time.Time{})
	}
	w.mu.Unlock()
	return seq
}

// spares decides what a failed write costs.  A cut batch due by its own
// frames' deadlines — the leading call's frame, or the frames that lead
// after a spared cut — of which no byte reached the connection (clean)
// costs only the calls it carried.  The cut came no earlier than the
// latest of their deadlines, and the connection's timer ends every call
// past its deadline before it cuts, so those calls are over already.
// Frames go whole or not at all, so the stream is intact: the connection
// is spared, and the frames queued behind lead the flush from here, due by
// the latest of their deadlines (sendFor lifts the cut's deadline for
// them when that is still to come).  Otherwise every frame from the first
// unwritten one on is lost, and the connection goes (onErr).
func (w *frameWriter) spares(clean bool, unwritten uint64) bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	if clean && w.cutAt != 0 {
		return true
	}
	if unwritten != 0 {
		w.lost.CompareAndSwap(0, unwritten)
	}
	return false
}

// unsent reports whether frame seq, as numbered by sendFor, was lost
// whole to a failed write: such a request can be sent again on another
// connection without risking a second execution.
func (w *frameWriter) unsent(seq uint64) bool {
	lost := w.lost.Load()
	return lost != 0 && seq >= lost
}

// cut ends the flush in progress once its due time has passed, at Mono
// reading now: its writes fail from here on, and the connection goes with
// them (onErr) unless no byte of them went (spares).  Otherwise it returns
// the due time, for a timer to be set by; zero when no flush is running.
// It is the one rule for both sides:
// a client's flush is due by its leading call's deadline, whether or not
// that call has its reply — it stays in sendFor while it leads, so its
// waiter is not pooled — and a server's batch by its start plus the call
// timeout.  Frames queued behind someone else's flush ride on it.
func (w *frameWriter) cut(now time.Duration) time.Duration {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.due == 0 || w.due > now {
		return w.due
	}
	w.cutAt = now
	w.conn.SetWriteDeadline(aLongTimeAgo)
	return 0
}

// stalled is the server's stall timer: it cuts a batch past its due time,
// and is set again for the batch being written otherwise.
func (w *frameWriter) stalled() {
	sched(pStalled, nil)
	w.stall.ran()
	now := mono()
	if due := w.cut(now); due != 0 {
		w.stall.arm(due, now)
	}
}

// attribute records one served call's decomposition after its response
// frame was written.  Unsampled calls — the hot path — cost three
// histogram observes and two ledger atomics, no allocation; sampled calls
// additionally publish exemplars carrying the trace ID and the full
// three-way split.
func (w *frameWriter) attribute(m *frameMeta, now time.Duration) {
	flush := now - m.handoff
	if flush < 0 {
		flush = 0
	}
	if m.sampled && m.trace != 0 {
		m.sms.queue.ObserveExemplar(m.queue, &obs.Exemplar{Trace: m.trace, HLC: m.hlc,
			Queue: m.queue, Service: m.service, Flush: flush})
		m.sms.service.ObserveExemplar(m.service, &obs.Exemplar{Trace: m.trace, HLC: m.hlc,
			Queue: m.queue, Service: m.service, Flush: flush})
		m.sms.flush.ObserveExemplar(flush, &obs.Exemplar{Trace: m.trace, HLC: m.hlc,
			Queue: m.queue, Service: m.service, Flush: flush})
	} else {
		m.sms.queue.Observe(m.queue)
		m.sms.service.Observe(m.service)
		m.sms.flush.Observe(flush)
	}
	if m.led == nil {
		return
	}
	total := m.queue + m.service + flush
	thr, slow := m.led.Note(total)
	if !slow {
		return
	}
	// Ledger admission: everything below runs only for calls already past
	// the adaptive threshold, so formatting cost is off the hot path.
	if w.m != nil {
		w.m.slowAdmitted.Inc()
	}
	m.led.Record(obs.SlowCall{
		Time: m.hlc.Physical(), HLC: m.hlc, Trace: m.trace,
		Method: m.method, Peer: m.peer,
		Total: total, Queue: m.queue, Service: m.service, Flush: flush,
		Threshold: thr,
	})
	if m.rec != nil {
		m.rec.Record(m.hlc.Physical(), m.trace, "slow_call_recorded",
			fmt.Sprintf("%s peer=%s total=%s q=%s s=%s f=%s thr=%s",
				m.method, m.peer, total, m.queue, m.service, flush, thr))
	}
}

// writeBatch writes a drained batch, whose first frame is numbered first,
// in groups of at most maxBatchFrames.  When a write fails it returns the
// number of the first frame of which no byte reached the connection (0
// when every frame was at least begun).
func (w *frameWriter) writeBatch(batch []queuedFrame, first uint64) (unwritten uint64, err error) {
	for len(batch) > 0 {
		n := min(len(batch), maxBatchFrames)
		written, err := w.writeGroup(batch[:n])
		if err != nil {
			for i := range batch {
				if written <= 0 {
					return first + uint64(i), err
				}
				written -= int64(batch[i].fe.Len() + len(batch[i].seg))
			}
			return 0, err
		}
		batch, first = batch[n:], first+uint64(n)
	}
	return 0, nil
}

// writeGroup issues one group as a single write, in one of three shapes:
// direct for a lone contiguous frame (the idle fast path), copy-coalesced
// up to flushCopyLimit, vectored above it.  A frame with a borrowed
// segment is always past the limit (PutBytesRef lends nothing smaller), so
// it leaves vectored — head, segment, tail — even when it is alone.  It
// returns how many bytes the connection took.
func (w *frameWriter) writeGroup(group []queuedFrame) (int64, error) {
	if len(group) == 1 && group[0].seg == nil {
		n, err := w.conn.Write(group[0].fe.Bytes())
		return int64(n), err
	}
	if len(group) > 1 && w.m != nil {
		w.m.batchedWrites.Inc()
		w.m.batchedFrames.Add(int64(len(group)))
	}
	total := 0
	for i := range group {
		total += group[i].fe.Len() + len(group[i].seg)
	}
	if total <= flushCopyLimit {
		w.buf = w.buf[:0]
		for _, qf := range group {
			w.buf = append(w.buf, qf.fe.Bytes()...)
		}
		n, err := w.conn.Write(w.buf)
		return int64(n), err
	}
	vecs := w.vecs[:0]
	for _, qf := range group {
		b := qf.fe.Bytes()
		if qf.seg == nil {
			vecs = append(vecs, b)
		} else {
			vecs = append(vecs, b[:qf.split], qf.seg, b[qf.split:])
		}
	}
	w.vecs = vecs // keep the full-length view; the write consumes the local one
	var n int64
	var err error
	if bw, ok := w.conn.(buffersWriter); ok {
		n, err = bw.WriteBuffers(&vecs)
	} else {
		n, err = (&vecs).WriteTo(w.conn)
	}
	for i := range w.vecs {
		w.vecs[i] = nil // drop buffer refs before encoders are pooled and segments returned
	}
	w.vecs = w.vecs[:0]
	return n, err
}
