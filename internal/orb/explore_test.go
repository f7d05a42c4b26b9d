package orb

import (
	"bytes"
	"cmp"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"itv/internal/obs"
	"itv/internal/oref"
	"itv/internal/transport"
	"itv/internal/wire"
)

// A seeded explorer of one connection's hand-offs, in the manner of CHESS
// (Musuvathi et al., OSDI 2008), on virtual time as in FoundationDB's
// simulation.  Every hand-off in the client connection, its frame writer
// and the server's reader seat is a schedule point (sched).  The explorer
// is the ORB's hook (pool.go): it lets goroutines run until every one is
// parked, read from goroutine dumps as clock.Fake.Settle reads them, then
// releases one waiting at a point, chosen by the seed, or lets time pass —
// to the earliest pending timer, which it runs.  While goroutines wait at
// points, time passes only by the seed's choice and to a timer due within
// lag; once every goroutine waits for time it passes however far, and with
// no timer pending the run is a deadlock.  A seed is one interleaving of
// hand-offs and timers, and it replays exactly.

// explorer is one run's schedule: the goroutines parked at points, the
// seeded choice among them, the virtual clock and its pending timers, and
// the points released and timers run so far.
type explorer struct {
	rng *rand.Rand

	mu     sync.Mutex
	parked []*parking
	timers []*vtimer // pending, in the order they were set
	clock  time.Duration
	start  time.Duration
	made   int              // timers made
	labels map[int64]string // goroutine id → its label
	trace  []string
	notes  []string
	bad    []string // transitions the state table does not allow
	closed bool
}

// parking is one goroutine waiting at a point.
type parking struct {
	p     point
	id    uint64
	label string
	run   chan struct{}
}

// pSleep is the point a scenario's own sleep (explorer.sleep) reaches.
const pSleep = pHeld + 1

// pointNames names the points in schedules, in the order of their values.
var pointNames = strings.Fields(`register claim lend lent end sweep sit stand put seat-take seat-pass
	seat-release send flush-own flush-release expire idle grace stalled kick fail held sleep`)

func (p point) String() string {
	if int(p) < len(pointNames) {
		return pointNames[p]
	}
	return fmt.Sprintf("point(%d)", p)
}

// reach parks the calling goroutine at p until the explorer runs it; a
// real timer's run, made before the explorer by another test, passes.
func (x *explorer) reach(p point, w *waiter) {
	k := &parking{p: p, run: make(chan struct{})}
	if w != nil {
		k.id = w.id
	}
	g, timerRun := goid()
	x.mu.Lock()
	if x.closed || timerRun {
		x.mu.Unlock()
		return
	}
	k.label = x.labels[g]
	x.parked = append(x.parked, k)
	x.mu.Unlock()
	<-k.run
}

// misstep records a move from a word its row of the state table does not
// allow.
func (x *explorer) misstep(p point, w *waiter, word uint32) {
	x.mu.Lock()
	x.bad = append(x.bad, fmt.Sprintf("%s#%d from %05b", p, w.id, word))
	x.mu.Unlock()
}

// now is the virtual clock.
func (x *explorer) now() time.Duration {
	x.mu.Lock()
	defer x.mu.Unlock()
	return x.clock
}

// vtimer is a timer on the virtual clock, named for its point and the
// order it was made in.  A scenario's own sleep runs only once every
// goroutine waits for time (quiet).
type vtimer struct {
	x       *explorer
	name    string
	f       func()
	due     time.Duration
	pending bool
	quiet   bool
}

func (x *explorer) timer(p point, f func()) timer {
	x.mu.Lock()
	defer x.mu.Unlock()
	x.made++
	return &vtimer{x: x, name: fmt.Sprintf("%s.%d", p, x.made), f: f}
}

func (t *vtimer) Reset(d time.Duration) bool {
	t.x.mu.Lock()
	defer t.x.mu.Unlock()
	was := t.stop()
	t.due, t.pending = t.x.clock+d, true
	t.x.timers = append(t.x.timers, t)
	return was
}

func (t *vtimer) Stop() bool {
	t.x.mu.Lock()
	defer t.x.mu.Unlock()
	return t.stop()
}

// stop takes t off the pending timers, under x.mu.
func (t *vtimer) stop() bool {
	if !t.pending {
		return false
	}
	t.pending = false
	t.x.timers = slices.DeleteFunc(t.x.timers, func(o *vtimer) bool { return o == t })
	return true
}

// next is the earliest pending timer, the first set among equals, quiet
// ones only when quiet is set; nil when none is pending.
func (x *explorer) next(quiet bool) *vtimer {
	var first *vtimer
	for _, t := range x.timers {
		if (quiet || !t.quiet) && (first == nil || t.due < first.due) {
			first = t
		}
	}
	return first
}

// fire lets time pass to t and runs it, on a goroutine of its own labelled
// with its name, under x.mu.
func (x *explorer) fire(t *vtimer) {
	t.stop()
	x.clock = max(x.clock, t.due)
	x.trace = append(x.trace, fmt.Sprintf("%s@%s", t.name, x.clock-x.start))
	go func() {
		x.label(t.name)
		t.f()
	}()
}

// label names the calling goroutine in the schedule.
func (x *explorer) label(name string) {
	g, _ := goid()
	x.mu.Lock()
	x.labels[g] = name
	x.mu.Unlock()
}

// goid is the calling goroutine's id, and whether it runs a real timer.
func goid() (id int64, timerRun bool) {
	buf := make([]byte, 8<<10)
	b := buf[:runtime.Stack(buf, false)]
	id, _ = strconv.ParseInt(string(bytes.Fields(b)[1]), 10, 64)
	return id, bytes.Contains(b, []byte("\ncreated by time.goFunc"))
}

// A schedule longer than maxSteps, or a scenario still running maxWall of
// real time after it began, is a hang.  lag is how far time may pass while
// a goroutine waits at a point.
const (
	maxSteps = 5000
	maxWall  = 10 * time.Second
	lag      = seatGrace
)

// result is a run's schedule, the premises it noted and what it found wrong.
type result struct {
	schedule, notes []string
	err             error
}

// explore runs scenario once under seed.
func explore(seed int64, scenario func(x *explorer) error) result {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	x := &explorer{rng: rand.New(rand.NewSource(seed)), labels: map[int64]string{}}
	x.clock = obs.Mono()
	x.start = x.clock
	var h hook = x
	hooked.Store(&h)
	var err error
	var done atomic.Bool
	go func() {
		defer done.Store(true)
		x.label("scenario")
		err = scenario(x)
	}()
	var dump []byte
	hang := "" // why the run did not finish
	for steps, deadline := 0, time.Now().Add(maxWall); ; steps++ {
		if steps == maxSteps || time.Now().After(deadline) {
			hang = fmt.Sprintf("no end after %d steps", steps)
			break
		}
		dump = settle(dump, deadline)
		x.mu.Lock()
		n := len(x.parked)
		t := x.next(n == 0)
		if n == 0 && (t == nil || done.Load()) {
			if !done.Load() {
				hang = "deadlock: no goroutine can move and no timer is pending"
			}
			x.mu.Unlock()
			break
		}
		if n == 0 || t != nil && t.due <= x.clock+lag && x.rng.Intn(n+1) == 0 {
			// Letting time pass is one choice among the parked goroutines'
			// runs while a timer is due within lag.
			x.fire(t)
		} else {
			slices.SortStableFunc(x.parked, func(a, b *parking) int {
				return cmp.Or(cmp.Compare(a.p, b.p), cmp.Compare(a.id, b.id), strings.Compare(a.label, b.label))
			})
			i := x.rng.Intn(n)
			k := x.parked[i]
			x.parked = slices.Delete(x.parked, i, i+1)
			x.trace = append(x.trace, fmt.Sprintf("%s#%d:%s", k.p, k.id, k.label))
			close(k.run)
		}
		x.mu.Unlock()
	}
	// Release whatever still waits, and let it run unexplored from here;
	// after a hang, what waits for a virtual timer waits for ever.
	hooked.Store(nil)
	x.mu.Lock()
	defer x.mu.Unlock()
	x.closed = true
	for _, k := range x.parked {
		close(k.run)
	}
	r := result{schedule: x.trace, notes: slices.Clone(x.notes)}
	if hang == "" && err == nil && len(x.bad) == 0 {
		return r
	}
	if hang == "" {
		hang = fmt.Sprint(err)
	}
	r.err = fmt.Errorf("%s\n  illegal transitions: %q\n  schedule: ... %s", hang, x.bad,
		strings.Join(x.trace[max(0, len(x.trace)-60):], " "))
	return r
}

// settle returns once every goroutine but the caller is parked, or at
// deadline: it reads their states from goroutine dumps, yielding between
// dumps, as clock.Fake.Settle does (the ORB's tests must not import the
// clock, where real time is theirs to use).  dump is the buffer to reuse.
func settle(dump []byte, deadline time.Time) []byte {
	for time.Now().Before(deadline) {
		for i := 0; i < 128; i++ {
			runtime.Gosched()
		}
		n := runtime.Stack(dump, true)
		for n == len(dump) {
			dump = make([]byte, 2*len(dump)+64<<10)
			n = runtime.Stack(dump, true)
		}
		busy := false
		for _, g := range bytes.Split(dump[:n], []byte("\n\n"))[1:] {
			state, _, _ := bytes.Cut(g[bytes.IndexByte(g, '[')+1:], []byte("]"))
			state, _, _ = bytes.Cut(state, []byte(","))
			switch string(bytes.TrimSuffix(state, []byte(" (scan)"))) {
			case "running", "runnable", "syscall", "preempted", "copystack":
				busy = true
			}
		}
		if !busy {
			break
		}
	}
	return dump
}

// saw counts the goroutines labelled label (any, if empty) released at p.
func (x *explorer) saw(p point, label string) int {
	x.mu.Lock()
	defer x.mu.Unlock()
	n := 0
	for _, step := range x.trace {
		if strings.HasPrefix(step, p.String()+"#") && (label == "" || strings.HasSuffix(step, ":"+label)) {
			n++
		}
	}
	return n
}

// note records a premise the run reached.
func (x *explorer) note(premise string) {
	x.mu.Lock()
	x.notes = append(x.notes, premise)
	x.mu.Unlock()
}

// sleep waits d on the virtual clock, and longer: until every goroutine
// waits for time.
func (x *explorer) sleep(d time.Duration) {
	woke := make(chan struct{})
	t := x.timer(pSleep, func() { close(woke) }).(*vtimer)
	t.quiet = true
	t.Reset(d)
	<-woke
}

// ctx is a context whose deadline is timeout away on the virtual clock
// (until, pool.go).
func (x *explorer) ctx(timeout time.Duration) (context.Context, context.CancelFunc) {
	return context.WithDeadline(context.Background(), monoZero.Add(mono()+timeout))
}

// slack is how far past its deadline a call may return on the virtual
// clock: time that passed while it was ready to run.
const slack = 5 * lag

func (x *explorer) margin() time.Duration { return slack }

// A clock is what a scenario waits and times its calls on: the explorer's
// virtual clock, or real time (wallClock), for a run over TCP.
type clock interface {
	label(name string)
	sleep(d time.Duration)
	ctx(timeout time.Duration) (context.Context, context.CancelFunc)
	margin() time.Duration // how far past its deadline a call may return
}

type wallClock struct{}

func (wallClock) label(string)          {}
func (wallClock) sleep(d time.Duration) { time.Sleep(d) }
func (wallClock) margin() time.Duration { return 100 * time.Millisecond }
func (wallClock) ctx(timeout time.Duration) (context.Context, context.CancelFunc) {
	return context.WithTimeout(context.Background(), timeout)
}

// timed calls method on ref with a context timeout, returning how long the
// call took on c and its error.
func timed(c clock, e *Endpoint, ref oref.Ref, method, arg string, timeout time.Duration) (time.Duration, error) {
	ctx, cancel := c.ctx(timeout)
	defer cancel()
	start := mono()
	err := e.InvokeCtx(ctx, ref, method, func(enc *wire.Encoder) { enc.PutString(arg) }, nil)
	return mono() - start, err
}

// A scenario is named, and explored seedsPerRun seeds at a time; each run
// of a test in one process (go test -count=N) explores the next range, as
// perRun hands each run the next host names.
type scenario struct {
	name string
	run  func(x *explorer) error
}

const seedsPerRun = 4

var (
	seedMu   sync.Mutex
	seedRuns = map[string]int64{}
)

// nextSeeds returns the first seed of this run's range for name.
func nextSeeds(name string) int64 {
	seedMu.Lock()
	defer seedMu.Unlock()
	base := seedRuns[name] * seedsPerRun
	seedRuns[name]++
	return base
}

func exploreRange(t *testing.T, scs ...scenario) {
	for _, sc := range scs {
		base := nextSeeds(sc.name)
		for seed := base; seed < base+seedsPerRun; seed++ {
			if r := explore(seed, sc.run); r.err != nil {
				t.Errorf("%s, seed %d: %v", sc.name, seed, r.err)
			}
		}
	}
}

// scenarios is every scenario, in the order TestExploreReplays runs them.
var scenarios = []scenario{seatedTimer, leadingFlush, resend, promotion, expiredBeforeWrite,
	earlierDeadline, resentDeadline, expiredLeavesNothing, ownWrite, replyBound, cancelWhileQueued, bulkRace, sparedCut, refreshRace}

func TestExploreSeatedTimer(t *testing.T)  { exploreRange(t, seatedTimer) }
func TestExploreLeadingFlush(t *testing.T) { exploreRange(t, leadingFlush) }
func TestExploreResend(t *testing.T)       { exploreRange(t, resend) }
func TestExplorePromotion(t *testing.T)    { exploreRange(t, promotion) }

// TestExploreDeadlines explores the scenarios of the once-staged seat tests.
func TestExploreDeadlines(t *testing.T) {
	exploreRange(t, expiredBeforeWrite, earlierDeadline, resentDeadline, expiredLeavesNothing, ownWrite, replyBound,
		cancelWhileQueued, bulkRace, sparedCut)
}

// A seedPin is a seed a test runs by name: one that found a race, or one that
// reaches the premise of a seat test, which the run must note.
type seedPin struct {
	test    string
	sc      scenario
	seed    int64
	premise string
}

var pins = []seedPin{
	// Races brought back by hand on copies of this code fail at these seeds
	// every run (EXPERIMENTS.md E24): the kick's deadline outliving the
	// seated caller it kicked (15), a flush left running past its leading
	// call's deadline once that call had its reply (the leading flush's 0),
	// and a cut flush with nothing written costing the connection, and with
	// it the bulk call B had sent on it (118) or the call queued behind it
	// (the spared cut's 0).
	{"TestExploreFoundSeeds", seatedTimer, 118, premiseSparedCut},
	{"TestExploreFoundSeeds", sparedCut, 0, ""},
	{"TestKickDoesNotOutliveItsCaller", seatedTimer, 15, premiseKick},
	{"TestLeadingCallsDeadlineOutlivesItsReply", leadingFlush, 0, premiseLeaderFlushed},
	{"TestCallDeadlineBoundsItsOwnWrite", ownWrite, 0, ""},
	{"TestCallExpiredBeforeItsWrite", expiredBeforeWrite, 0, ""},
	{"TestEarlierDeadlineRearmsTheTimer", earlierDeadline, 0, ""},
	{"TestResentRequestKeepsItsDeadline", resentDeadline, 0, ""},
	{"TestExpiredCallLeavesNothingBehind", expiredLeavesNothing, 0, ""},
	{"TestServerReplyWriteIsBounded", replyBound, 0, ""},
	{"TestInvokeCtxCancelWhileQueued", cancelWhileQueued, 0, ""},
	{"TestBulkReplyRacingTimer", bulkRace, 0, ""},
	{"TestHeldTicketOutlivesARefresh", refreshRace, 0, premiseOldBehindNew},
}

// explorePins runs the seeds pinned to t's name: each must run clean and
// note its premise.
func explorePins(t *testing.T) {
	ran := false
	for _, p := range pins {
		if p.test != t.Name() {
			continue
		}
		ran = true
		r := explore(p.seed, p.sc.run)
		if r.err != nil {
			t.Errorf("%s, seed %d: %v", p.sc.name, p.seed, r.err)
		} else if p.premise != "" && !slices.Contains(r.notes, p.premise) {
			t.Errorf("%s, seed %d: ran clean without reaching its premise (%s)", p.sc.name, p.seed, p.premise)
		}
	}
	if !ran {
		t.Fatalf("no seed is pinned to %s", t.Name())
	}
}

func TestExploreFoundSeeds(t *testing.T) { explorePins(t) }

// TestExploreReplays runs each scenario's first seeds and every pinned
// seed twice, and requires the same schedule and the same outcome of both.
func TestExploreReplays(t *testing.T) {
	if RaceEnabled {
		t.Skip("the race detector shuffles the run queue: a seed fixes the explorer's choices, not the schedule")
	}
	runs := slices.Clone(pins)
	for _, sc := range scenarios {
		for seed := int64(0); seed < seedsPerRun; seed++ {
			runs = append(runs, seedPin{sc: sc, seed: seed})
		}
	}
	for _, p := range runs {
		var got [2]string
		for i := range got {
			r := explore(p.seed, p.sc.run)
			got[i] = fmt.Sprintf("%q %q %v", r.schedule, r.notes, r.err)
		}
		if a, b := got[0], got[1]; a != b {
			i := 0
			for i < min(len(a), len(b)) && a[i] == b[i] {
				i++
			}
			t.Errorf("%s, seed %d: two runs part at byte %d:\n  %.300s\n  %.300s", p.sc.name, p.seed, i, a[i:], b[i:])
		}
	}
}

// ---- scenarios ----

// handSkel serves the scenarios and the seat tests: "echo", "wait" (held
// until gate closes or passes one on, signalling entered as it starts),
// "bulk" (the lent blob, its hand-off to the write path sent on replied if
// set) and "once" (counted by its argument, after which the server severs
// every connection it serves).
type handSkel struct {
	server  *Endpoint
	blob    []byte
	gate    chan struct{}
	entered chan struct{}
	replied chan time.Duration

	mu   sync.Mutex
	seen map[string]int
}

func newHandSkel() *handSkel {
	return &handSkel{blob: bytes.Repeat([]byte("hand-off"), 8<<10), gate: make(chan struct{}),
		entered: make(chan struct{}, 16), seen: map[string]int{}}
}

func (s *handSkel) TypeID() string { return "test.Hand" }

func (s *handSkel) Dispatch(c *ServerCall) error {
	switch c.Method() {
	case "echo":
		c.Results().PutString(c.Args().String())
	case "wait":
		s.entered <- struct{}{}
		<-s.gate
	case "bulk":
		c.PutBytesRef(s.blob)
		if s.replied != nil {
			s.replied <- mono()
		}
	case "once":
		s.mu.Lock()
		s.seen[c.Args().String()]++
		s.mu.Unlock()
		s.server.mu.Lock()
		for conn := range s.server.serving {
			conn.Close()
		}
		s.server.mu.Unlock()
	default:
		return ErrNoSuchMethod
	}
	return nil
}

// memnet returns a server and a client host on a fresh memnet.  The host
// names repeat from seed to seed, so the scenarios read counters as deltas.
func memnet() [2]transport.Transport {
	nw := transport.NewNetwork()
	return [2]transport.Transport{nw.Host("192.168.39.1"), nw.Host("10.39.0.5")}
}

// pairOn serves sk on trs[0] to a client endpoint on trs[1].  closeAll
// ends every goroutine the two started.
func pairOn(trs [2]transport.Transport, sk Skeleton) (server, client *Endpoint, ref oref.Ref, closeAll func()) {
	server, err := NewEndpoint(trs[0])
	if err != nil {
		panic(err)
	}
	client, err = NewEndpoint(trs[1])
	if err != nil {
		panic(err)
	}
	return server, client, server.Register("", sk), func() { client.Close(); server.Close() }
}

// handPair is pairOn with a handSkel, on memnet.
func handPair() (server, client *Endpoint, sk *handSkel, ref oref.Ref, closeAll func()) {
	sk = newHandSkel()
	server, client, ref, closeAll = pairOn(memnet(), sk)
	sk.server = server
	return server, client, sk, ref, closeAll
}

// peerOn listens on tr, running serve on each connection it accepts; with
// no serve it reads nothing, the peer of a flush that never ends.  stop
// closes the listener and the connections, and waits for serve.
func peerOn(tr transport.Transport, serve func(c net.Conn)) (ref oref.Ref, stop func()) {
	ln, addr, err := tr.Listen()
	if err != nil {
		panic(err)
	}
	var mu sync.Mutex
	var conns []net.Conn
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			mu.Lock()
			conns = append(conns, c)
			mu.Unlock()
			if serve != nil {
				wg.Add(1)
				go func() { defer wg.Done(); serve(c) }()
			}
		}
	}()
	return oref.Persistent(addr, "test.Peer", "peer"), func() {
		ln.Close()
		mu.Lock()
		for _, c := range conns {
			c.Close()
		}
		mu.Unlock()
		wg.Wait()
	}
}

// answerOne reads one request frame off c and answers it with an empty
// statusOK reply.
func answerOne(c net.Conn) {
	frame, err := wire.ReadFrameInto(c, nil)
	if err != nil {
		return
	}
	var req request
	var dec wire.Decoder
	dec.Reset(frame)
	req.UnmarshalWire(&dec)
	e := new(wire.Encoder)
	if wire.AppendFrame(e, &response{ReqID: req.ReqID, Status: statusOK}) == nil {
		c.Write(e.Bytes())
	}
}

// The premises pinned seeds must reach (pins).
const (
	premiseKick          = "A's timer kicked A out of its read"
	premiseSparedCut     = "A led a flush, and its request never reached the server"
	premiseLeaderFlushed = "the leading call's flush carried the large request"
)

// seatedTimer: caller A's handler blocks, and A sits on the connection
// reading until its deadline kicks it out of Read; meanwhile B's bulk reply
// is read straight into B's storage by whoever holds the seat next.  A gets
// its timeout, its kick never lands on another reader (no read fails), B
// gets its reply even when A's deadline cut a flush A led, and a call after
// both is served — on the same connection when A was kicked.
var seatedTimer = scenario{"seated timer", func(x *explorer) error {
	_, client, sk, ref, closeAll := handPair()
	defer closeAll()
	if _, err := timed(x, client, ref, "echo", "warm", time.Second); err != nil {
		return fmt.Errorf("warm call: %w", err)
	}
	readErrs := counterDelta(client.Metrics(), "orb_conn_read_errors")
	dials := counterDelta(client.Metrics(), "orb_pool_dials")
	const aTimeout = 2 * time.Millisecond
	var errs [3]error
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		x.label("A")
		if took, err := timed(x, client, ref, "wait", "", aTimeout); ConnClass(err) != "timeout" || took > aTimeout+slack {
			errs[0] = fmt.Errorf("A returned after %s with %v; want its timeout", took, err)
		}
	}()
	go func() {
		defer wg.Done()
		x.label("B")
		var dst []byte
		err := client.InvokeInto(context.Background(), ref, "bulk", nil, make([]byte, len(sk.blob)),
			func(data []byte, _ *wire.Decoder) error { dst = data; return nil })
		if err != nil || !bytes.Equal(dst, sk.blob) {
			errs[1] = fmt.Errorf("B's bulk reply: %d bytes, %v", len(dst), err)
		}
	}()
	wg.Wait()
	close(sk.gate)
	kicked := x.saw(pKick, "") > 0
	if kicked {
		x.note(premiseKick)
	}
	if _, err := timed(x, client, ref, "echo", "after", time.Second); err != nil {
		errs[2] = fmt.Errorf("the call after A and B: %v", err)
	}
	if n := readErrs(); n != 0 {
		errs[2] = errors.Join(errs[2], fmt.Errorf("%d read errors on the connection; A's kick landed on another reader", n))
	}
	if n := dials(); kicked && n != 0 {
		errs[2] = errors.Join(errs[2], fmt.Errorf("%d dials after A's kick; want the connection to outlive it", n))
	}
	// Closed, the server has run every request that reached it.
	closeAll()
	if x.saw(pFlushOwn, "A") > 0 && len(sk.entered) == 0 {
		x.note(premiseSparedCut)
	}
	return errors.Join(errs[:]...)
}}

// sparedCut: L's large request leads the flush to a peer that reads
// nothing until well after L's deadline, and Q's small one queues behind
// it.  No byte of L's went, so the cut costs L alone: Q's request leads
// the flush from there, due by Q's deadline, and Q gets its reply on the
// same connection.
var sparedCut = scenario{"spared cut", func(x *explorer) error {
	nw := transport.NewNetwork()
	ref, stop := peerOn(nw.Host("192.168.39.7"), func(c net.Conn) { x.sleep(20 * time.Millisecond); answerOne(c) })
	defer stop()
	client, err := NewEndpoint(nw.Host("10.39.0.10"))
	if err != nil {
		return err
	}
	defer client.Close()
	dials := counterDelta(client.Metrics(), "orb_pool_dials")
	lead := make(chan error, 1)
	go func() {
		x.label("L")
		_, err := timed(x, client, ref, "echo", string(make([]byte, stallPayload)), 5*time.Millisecond)
		lead <- err
	}()
	for !leadsFlush(client, ref.Addr) {
		x.sleep(time.Millisecond)
	}
	_, qerr := timed(x, client, ref, "echo", "Q", 100*time.Millisecond)
	if lerr := <-lead; ConnClass(lerr) != "timeout" || qerr != nil || dials() != 1 {
		return fmt.Errorf("L: %v, want its timeout; Q: %v, want its reply; %d dials, want 1", lerr, qerr, dials())
	}
	return nil
}}

// leadingFlush: the peer answers the first request and then reads nothing
// more.  Whichever call's frame makes it the flusher, each call returns by
// its deadline; when the leader's flush carried the large request
// (premiseLeaderFlushed), TestLeadingCallsDeadlineOutlivesItsReply holds.
var leadingFlush = scenario{"leading flush", func(x *explorer) error {
	nw := transport.NewNetwork()
	var first sync.Once
	ref, stop := peerOn(nw.Host("192.168.39.2"), func(c net.Conn) { first.Do(func() { answerOne(c) }) })
	client, err := NewEndpoint(nw.Host("10.39.0.6"))
	if err != nil {
		return err
	}
	dials := counterDelta(client.Metrics(), "orb_pool_dials")
	big := string(make([]byte, stallPayload))
	const leadTimeout, bigTimeout = 10 * time.Millisecond, 40 * time.Millisecond
	var took [2]time.Duration
	var errs [2]error
	var wg sync.WaitGroup
	wg.Add(2)
	call := func(i int, label, arg string, timeout time.Duration) {
		defer wg.Done()
		x.label(label)
		took[i], errs[i] = timed(x, client, ref, "echo", arg, timeout)
	}
	go call(0, "lead", "lead", leadTimeout)
	go call(1, "big", big, bigTimeout)
	wg.Wait()
	client.Close()
	stop()
	var bad []error
	for i, timeout := range []time.Duration{leadTimeout, bigTimeout} {
		if took[i] > timeout+slack {
			bad = append(bad, fmt.Errorf("a call with a %s timeout returned after %s (%v)", timeout, took[i], errs[i]))
		}
	}
	if x.saw(pFlushOwn, "lead") > 1 {
		x.note(premiseLeaderFlushed)
		if errs[0] != nil {
			bad = append(bad, fmt.Errorf("leading call: %v, want its reply", errs[0]))
		}
		if errs[1] == nil {
			bad = append(bad, errors.New("large call succeeded against a peer that never read it"))
		}
		if n := dials(); n != 2 {
			bad = append(bad, fmt.Errorf("%d dials; want the connection the leader's deadline cut given up", n))
		}
	}
	return errors.Join(bad...)
}}

// resend: the server severs an idle pooled connection.  Two calls meet it
// dead, one of them queued behind the other's flush, and are sent again on
// a fresh dial if not a byte of theirs left; the second caller then makes a
// call the server receives and answers by severing the connection.  That
// call must not be sent again: the server has it.
var resend = scenario{"resend", func(x *explorer) error {
	server, client, sk, ref, closeAll := handPair()
	defer closeAll()
	if _, err := timed(x, client, ref, "echo", "warm", time.Second); err != nil {
		return fmt.Errorf("warm call: %w", err)
	}
	server.mu.Lock()
	for conn := range server.serving {
		conn.Close()
	}
	server.mu.Unlock()
	const timeout = 50 * time.Millisecond
	var errs [2]error
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		x.label("F")
		if took, _ := timed(x, client, ref, "echo", string(make([]byte, 32<<10)), timeout); took > timeout+slack {
			errs[0] = fmt.Errorf("F returned after %s", took)
		}
	}()
	go func() {
		defer wg.Done()
		x.label("X")
		if took, _ := timed(x, client, ref, "echo", "x", timeout); took > timeout+slack {
			errs[1] = fmt.Errorf("X returned after %s", took)
		}
		if took, _ := timed(x, client, ref, "once", "y", timeout); took > timeout+slack {
			errs[1] = errors.Join(errs[1], fmt.Errorf("Y returned after %s", took))
		}
	}()
	wg.Wait()
	sk.mu.Lock()
	n := sk.seen["y"]
	sk.mu.Unlock()
	if n > 1 {
		errs[1] = errors.Join(errs[1], fmt.Errorf("the server received Y %d times", n))
	}
	return errors.Join(errs[:]...)
}}

// promotion: a call dispatched inline on the server's reader blocks there;
// past the grace a worker takes the reader seat, and a second call on the
// same connection completes behind it.  When the blocked call reaches a
// worker instead (the reader saw another call still in flight), nothing is
// promoted and the second call completes all the same.
var promotion = scenario{"promotion", func(x *explorer) error {
	_, client, sk, ref, closeAll := handPair()
	defer closeAll()
	if _, err := timed(x, client, ref, "echo", "warm", time.Second); err != nil {
		return fmt.Errorf("warm call: %w", err)
	}
	blocked := make(chan error, 1)
	go func() {
		x.label("blocked")
		_, err := timed(x, client, ref, "wait", "", time.Second)
		blocked <- err
	}()
	<-sk.entered
	var errs [2]error
	if took, err := timed(x, client, ref, "echo", "behind", time.Second); err != nil {
		errs[0] = fmt.Errorf("the call behind a blocked handler failed after %s: %v", took, err)
	}
	close(sk.gate)
	if err := <-blocked; err != nil {
		errs[1] = fmt.Errorf("blocked call: %w", err)
	}
	return errors.Join(errs[:]...)
}}
