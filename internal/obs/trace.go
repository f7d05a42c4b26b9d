package obs

import (
	"context"
	"sync/atomic"
	"time"
)

// ---- causal trace spans ----
//
// A Span names one hop of a cross-machine causal trace.  Traces are
// head-sampled: the decision is made once, where the trace is born (NewTrace),
// and every downstream hop either carries the sampled span or carries
// nothing.  An unsampled call is represented by the zero Span, costs no
// allocations anywhere on the invoke path, and leaves no events behind.
//
// Spans travel two ways: forward inside a context.Context (injected into the
// ORB request record by the client, re-materialized by the server), and
// backward via a TraceSink (a server that *adopted* a stored trace reports
// its id on the response, so the caller learns which causal story its call
// joined — the rebind path uses this to tag its events with the trace of the
// failure that forced the rebind).

// Span identifies one hop of a causal trace.  TraceID is stable across the
// whole causal chain; SpanID names this hop; Sampled gates all recording.
type Span struct {
	TraceID uint64
	SpanID  uint64
	Sampled bool
}

type spanKey struct{}

// ContextWithSpan returns a context carrying s.
func ContextWithSpan(ctx context.Context, s Span) context.Context {
	return context.WithValue(ctx, spanKey{}, s)
}

// SpanFrom returns the span carried by ctx, or the zero Span.  The lookup
// performs no allocation, so it is safe on the unsampled hot path.
func SpanFrom(ctx context.Context) Span {
	if s, ok := ctx.Value(spanKey{}).(Span); ok {
		return s
	}
	return Span{}
}

// spanIDState seeds span-id generation; mixed through splitmix64 so ids from
// different processes started in the same nanosecond still diverge quickly.
var spanIDState atomic.Uint64

//lint:ignore sleepyclock the wall clock is an entropy source here, not a timestamp; ids must diverge across processes before any clock is injected
func init() { spanIDState.Store(uint64(time.Now().UnixNano())) }

// NewSpanID returns a process-unique nonzero 64-bit id.
func NewSpanID() uint64 {
	x := spanIDState.Add(0x9e3779b97f4a7c15)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	if x == 0 {
		x = 1
	}
	return x
}

// traceDisabled gates head sampling; the zero value means sampling is on.
var traceDisabled atomic.Bool

// SetTraceSampling turns head sampling on or off process-wide.  With
// sampling off NewTrace returns the zero Span and no trace fields travel on
// the wire — the configuration the bench gate measures.
func SetTraceSampling(on bool) { traceDisabled.Store(!on) }

// NewTrace mints the root span of a new causal trace, or the zero Span when
// sampling is off.
func NewTrace() Span {
	if traceDisabled.Load() {
		return Span{}
	}
	id := NewSpanID()
	return Span{TraceID: id, SpanID: id, Sampled: true}
}

// TraceSink carries a trace id *backward*: a callee that adopts a stored
// trace reports it on the response, and the ORB client deposits it here.
type TraceSink struct{ v atomic.Uint64 }

// Set records a nonzero adopted trace id.
func (s *TraceSink) Set(t uint64) {
	if t != 0 {
		s.v.Store(t)
	}
}

// Trace returns the adopted trace id, or 0.
func (s *TraceSink) Trace() uint64 { return s.v.Load() }

type sinkKey struct{}

// WithTraceSink returns a context that collects adopted trace ids into s.
func WithTraceSink(ctx context.Context, s *TraceSink) context.Context {
	return context.WithValue(ctx, sinkKey{}, s)
}

// SinkFrom returns the sink carried by ctx, or nil.  Allocation-free.
func SinkFrom(ctx context.Context) *TraceSink {
	if s, ok := ctx.Value(sinkKey{}).(*TraceSink); ok {
		return s
	}
	return nil
}
