// Package clock abstracts time so that every OCS service can run either
// against the wall clock (examples, deployments) or against a fake clock
// (tests, benchmarks).  The paper's fail-over arithmetic (§9.7: 10 s backup
// retry + 10 s name-service poll + 5 s RAS poll = 25 s max) is about how
// polling intervals compose, which is independent of clock rate; the fake
// clock lets the experiment suite measure those compositions in simulated
// seconds without waiting for them.  Fake.Await is the one pump, and each
// of its steps ends when every goroutine the step woke is parked again.
package clock

import (
	"bytes"
	"container/heap"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"time"
)

// Clock is the time source used throughout the system.  Implementations
// must be safe for concurrent use.
type Clock interface {
	// Now returns the current time.
	Now() time.Time
	// After returns a channel that delivers the then-current time once d
	// has elapsed.
	After(d time.Duration) <-chan time.Time
	// NewTicker returns a ticker firing every d.
	NewTicker(d time.Duration) Ticker
	// Sleep blocks until d has elapsed.
	Sleep(d time.Duration)
	// Since returns the time elapsed since t.
	Since(t time.Time) time.Duration
}

// Ticker is the subset of time.Ticker the system needs.
type Ticker interface {
	C() <-chan time.Time
	Stop()
}

// Real returns a Clock backed by package time.
func Real() Clock { return realClock{} }

type realClock struct{}

func (realClock) Now() time.Time                         { return time.Now() }
func (realClock) After(d time.Duration) <-chan time.Time { return time.After(d) }
func (realClock) Sleep(d time.Duration)                  { time.Sleep(d) }
func (realClock) Since(t time.Time) time.Duration        { return time.Since(t) }

func (realClock) NewTicker(d time.Duration) Ticker {
	return realTicker{time.NewTicker(d)}
}

type realTicker struct{ t *time.Ticker }

func (r realTicker) C() <-chan time.Time { return r.t.C }
func (r realTicker) Stop()               { r.t.Stop() }

// WithOffset returns a clock whose Now reads d ahead of (or, negative,
// behind) base.  Durations are unaffected: After, NewTicker and Sleep
// delegate to base, so a skewed clock runs at the same rate and fires on
// the same schedule — only its idea of "what time it is" differs.  Tests
// use this to give each simulated server a deliberately wrong wall clock
// over one shared Fake.
func WithOffset(base Clock, d time.Duration) Clock {
	if d == 0 {
		return base
	}
	return offsetClock{base: base, d: d}
}

type offsetClock struct {
	base Clock
	d    time.Duration
}

func (o offsetClock) Now() time.Time                  { return o.base.Now().Add(o.d) }
func (o offsetClock) Since(t time.Time) time.Duration { return o.Now().Sub(t) }

func (o offsetClock) After(d time.Duration) <-chan time.Time { return o.base.After(d) }
func (o offsetClock) NewTicker(d time.Duration) Ticker       { return o.base.NewTicker(d) }
func (o offsetClock) Sleep(d time.Duration)                  { o.base.Sleep(d) }

// Fake is a manually advanced clock.  Advance moves simulated time forward
// and fires every timer and ticker that comes due, in order.  The zero
// value is not usable; construct with NewFake.
type Fake struct {
	mu      sync.Mutex
	now     time.Time
	waiters waiterHeap
	seq     int64 // tie-break so equal deadlines fire in creation order
	dumpMu  sync.Mutex
	dump    []byte // Settle's goroutine dump buffer, guarded by dumpMu
	dumps   int    // the dumps Settle has taken, guarded by dumpMu
}

// NewFake returns a fake clock starting at a fixed, arbitrary epoch.
func NewFake() *Fake {
	return &Fake{now: time.Date(1995, time.December, 3, 0, 0, 0, 0, time.UTC)}
}

type waiter struct {
	at     time.Time
	seq    int64
	ch     chan time.Time
	period time.Duration // 0 for one-shot timers
	dead   bool
}

type waiterHeap []*waiter

func (h waiterHeap) Len() int { return len(h) }
func (h waiterHeap) Less(i, j int) bool {
	if h[i].at.Equal(h[j].at) {
		return h[i].seq < h[j].seq
	}
	return h[i].at.Before(h[j].at)
}
func (h waiterHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *waiterHeap) Push(x interface{}) { *h = append(*h, x.(*waiter)) }
func (h *waiterHeap) Pop() interface{} {
	old := *h
	n := len(old)
	w := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return w
}

// Now returns the current simulated time.
func (f *Fake) Now() time.Time {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.now
}

// Since returns simulated time elapsed since t.
func (f *Fake) Since(t time.Time) time.Duration { return f.Now().Sub(t) }

// After returns a channel that fires when simulated time has advanced by d.
// A non-positive d fires at the current instant on the next Advance(0) or
// later advance.
func (f *Fake) After(d time.Duration) <-chan time.Time {
	f.mu.Lock()
	defer f.mu.Unlock()
	w := &waiter{at: f.now.Add(d), seq: f.seq, ch: make(chan time.Time, 1)}
	f.seq++
	heap.Push(&f.waiters, w)
	return w.ch
}

// Sleep blocks until simulated time advances by d.  It must run in a
// goroutine other than the one calling Advance.
func (f *Fake) Sleep(d time.Duration) { <-f.After(d) }

// NewTicker returns a ticker on the simulated clock.
func (f *Fake) NewTicker(d time.Duration) Ticker {
	if d <= 0 {
		panic("clock: non-positive ticker period")
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	w := &waiter{at: f.now.Add(d), seq: f.seq, ch: make(chan time.Time, 1), period: d}
	f.seq++
	heap.Push(&f.waiters, w)
	return &fakeTicker{f: f, w: w}
}

type fakeTicker struct {
	f *Fake
	w *waiter
}

func (t *fakeTicker) C() <-chan time.Time { return t.w.ch }

func (t *fakeTicker) Stop() {
	t.f.mu.Lock()
	defer t.f.mu.Unlock()
	t.w.dead = true
}

// Advance moves simulated time forward by d, delivering to every timer and
// ticker that comes due.  Ticker deliveries that would block (an unread
// previous tick) are dropped, matching time.Ticker semantics.
func (f *Fake) Advance(d time.Duration) {
	f.mu.Lock()
	target := f.now.Add(d)
	for f.waiters.Len() > 0 {
		next := f.waiters[0]
		if next.at.After(target) {
			break
		}
		heap.Pop(&f.waiters)
		if next.dead {
			continue
		}
		f.now = next.at
		select {
		case next.ch <- f.now:
		default:
		}
		if next.period > 0 {
			next.at = next.at.Add(next.period)
			next.seq = f.seq
			f.seq++
			heap.Push(&f.waiters, next)
		}
	}
	f.now = target
	f.mu.Unlock()
}

// Settle returns once every goroutine but the caller has reached its next
// blocking point, without moving simulated time.  It reads goroutine
// states from runtime.Stack dumps, yielding 128 times between dumps, until
// none but the caller's is running, runnable or in a system call.  This is
// the single sanctioned wall-clock wait in fake-clock tests: itv-vet's
// sleepyclock check bans raw time.Sleep polling wherever a clock.Clock is
// reachable, and this helper (plus Await) replaces it.  Limits: a goroutine
// parked on a real-time timer (an ORB call timeout, the reader seat's 1 ms
// promotion) counts as parked; quiet is process-wide, so parallel tests
// hold each other's settles; a dump stops the world (~0.7 ms at a few
// hundred goroutines); and a goroutine still busy after settleCap of real
// time makes Settle panic with its stack rather than let the next Advance
// race it.
func (f *Fake) Settle() { f.settle(settleCap) }

const settleCap = 10 * time.Second

func (f *Fake) settle(limit time.Duration) {
	f.dumpMu.Lock()
	defer f.dumpMu.Unlock()
	for deadline := time.Now().Add(limit); ; {
		for i := 0; i < 128; i++ {
			runtime.Gosched()
		}
		busy := f.busy()
		if len(busy) == 0 {
			return
		}
		if time.Now().After(deadline) {
			panic(fmt.Sprintf("clock: Settle: goroutines still busy after %v:\n\n%s", limit, strings.Join(busy, "\n\n")))
		}
	}
}

// busy returns the stacks of the goroutines that are not parked, the
// caller's (the first in the dump) excepted.
func (f *Fake) busy() []string {
	f.dumps++
	n := runtime.Stack(f.dump, true)
	for n == len(f.dump) { // truncated, or no buffer yet
		f.dump = make([]byte, 2*len(f.dump)+64<<10)
		n = runtime.Stack(f.dump, true)
	}
	var busy []string
	for _, g := range bytes.Split(f.dump[:n], []byte("\n\n"))[1:] {
		state, _, _ := bytes.Cut(g[bytes.IndexByte(g, '[')+1:], []byte("]"))
		state, _, _ = bytes.Cut(state, []byte(","))
		switch string(bytes.TrimSuffix(state, []byte(" (scan)"))) {
		case "running", "runnable", "syscall", "preempted", "copystack":
			busy = append(busy, string(g))
		}
	}
	return busy
}

// Await drives the fake clock until cond holds: each round lets the system
// settle, checks cond, and advances simulated time by step.  It makes at
// most tries advances and reports whether cond ever held.  This is the
// deterministic replacement for the `for { advance; time.Sleep }` polling
// loops failover tests used to hand-roll.
func (f *Fake) Await(step time.Duration, tries int, cond func() bool) bool {
	for i := 0; i < tries; i++ {
		if cond() {
			return true
		}
		f.Advance(step)
		f.Settle()
	}
	return cond()
}

// Waiters reports how many timers/tickers are pending; tests use it to
// confirm the system has quiesced before advancing.
func (f *Fake) Waiters() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	n := 0
	for _, w := range f.waiters {
		if !w.dead {
			n++
		}
	}
	return n
}
