package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// spanName indexes spanNames; spans carry the index so that recording one
// copies no string.
type spanName uint8

const (
	spOp spanName = iota
	spOrbInvoke
	spResolveFlat
	spResolveDeep
	spResolveRepl
	spList
	spWritePair
	spRdsOpenData
	spMmsOpen
	spMmsClose
	spMediaPlay
	spMediaPosition
	spMediaPause
	spVodGetPosition
	spVodSavePosition
	spVodForget
	numSpanNames
)

var spanNames = [numSpanNames]string{
	"settop.op", "orb.invoke",
	"names.resolve_flat", "names.resolve_deep", "names.resolve_repl", "names.list", "names.write_pair",
	"rds.open_data",
	"mms.open", "mms.close", "media.play", "media.position", "media.pause",
	"vod.get_position", "vod.save_position", "vod.forget",
}

// span is one timed call into a layer.  parent is the index of the span
// that caused it (-1 for a root); spans of one op share op.
type span struct {
	name       spanName
	start, end int64 // ns since the tracer was made
	parent     int32
	op         int32
	children   int64 // ns covered by child spans
}

// spanTotals accumulates every finished span of one name, so per-layer
// metrics cover the whole run even after the ring has wrapped.
type spanTotals struct {
	count int64
	total int64 // ns
	self  int64 // ns: total minus the part child spans cover
}

// tracer records spans from the harness's own files, around the calls into
// each layer, in a preallocated ring that is written out when the run
// ends.  One goroutine uses it, so open spans form a stack.
type tracer struct {
	t0     time.Time
	ring   []span
	next   int32 // spans begun so far; ring index is next % len(ring)
	open   int32 // index of the innermost open span, -1 if none
	op     int32
	totals [numSpanNames]spanTotals
	// opHist holds the duration of every root span.
	opHist histogram
}

const ringSize = 1 << 16

func newTracer() *tracer {
	return &tracer{t0: wall.Now(), ring: make([]span, ringSize), open: -1}
}

func (t *tracer) at(i int32) *span { return &t.ring[int(i)%len(t.ring)] }

// begin opens a span under the innermost open one.
func (t *tracer) begin(name spanName) int32 {
	i := t.next
	t.next++
	if t.open < 0 {
		t.op++
	}
	*t.at(i) = span{name: name, start: int64(wall.Since(t.t0)), parent: t.open, op: t.op}
	t.open = i
	return i
}

// end closes span i, which must be the innermost open one.
func (t *tracer) end(i int32) {
	s := t.at(i)
	s.end = int64(wall.Since(t.t0))
	d := s.end - s.start
	tot := &t.totals[s.name]
	tot.count++
	tot.total += d
	tot.self += selfTime(d, s.children)
	t.open = s.parent
	if s.parent >= 0 {
		t.at(s.parent).children += d
	} else {
		t.opHist.record(time.Duration(d))
	}
}

// selfTime is a span's duration minus the part its child spans cover.
func selfTime(duration, children int64) int64 {
	if children > duration {
		return 0
	}
	return duration - children
}

// meanMicros is the mean duration of the named span in microseconds.
func (t *tracer) meanMicros(name spanName) float64 {
	tot := t.totals[name]
	if tot.count == 0 {
		return 0
	}
	return float64(tot.total) / float64(tot.count) / 1e3
}

// write stores the spans still in the ring, oldest first, one JSON object
// a line.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	first := int32(0)
	if t.next > int32(len(t.ring)) {
		first = t.next - int32(len(t.ring))
	}
	for i := first; i < t.next; i++ {
		s := t.at(i)
		fmt.Fprintf(w, `{"id":%d,"name":%q,"start_ns":%d,"end_ns":%d,"parent":%d,"op":%d,"self_ns":%d}`+"\n",
			i, spanNames[s.name], s.start, s.end, s.parent, s.op, selfTime(s.end-s.start, s.children))
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
