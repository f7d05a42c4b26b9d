package orb

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"itv/internal/oref"
	"itv/internal/transport"
	"itv/internal/wire"
)

// A seeded explorer of one connection's hand-offs, in the manner of CHESS
// (Musuvathi et al., OSDI 2008).  Every hand-off in the client connection,
// its frame writer and the server's reader seat is a schedule point
// (sched).  While a scenario runs, the explorer lets goroutines run until
// every one is parked — read from goroutine states, as clock.Fake.Settle
// reads them — and then releases one goroutine waiting at a point, chosen
// by the seed, or none, letting real time pass so that a timer can fire.
// One goroutine moves between points at a time, so a seed is one
// interleaving of the hand-offs, and a scenario's checks hold under every
// seed or name the seed that breaks them.  Timers run on real time, so a
// seed repeats its interleaving only as far as its timers fire in the same
// steps: the found seeds below reproduce their failures in some reruns,
// not all.
//
// The scenarios are the hand-offs races were found in: a seated caller
// whose timer fires, a flush whose leading call has its reply, a request
// sent again after its connection died, an inline dispatch promoted past
// its grace.

// explorer is one run's schedule: the goroutines parked at points, the
// seeded choice among them, and the points released so far.
type explorer struct {
	rng     *rand.Rand
	arrived chan struct{}

	mu     sync.Mutex
	parked []*parking
	trace  []string
	bad    []string // transitions the state table does not allow
	closed bool
}

// misstep records a move from a word its row of the state table does not
// allow.
func (x *explorer) misstep(p point, w *waiter, word uint32) {
	x.mu.Lock()
	x.bad = append(x.bad, fmt.Sprintf("%s#%d from %05b", p, w.id, word))
	x.mu.Unlock()
}

// parking is one goroutine waiting at a point.
type parking struct {
	p   point
	id  uint64
	run chan struct{}
}

// pointNames names the points in traces.
var pointNames = [...]string{
	pRegister: "register", pClaim: "claim", pLend: "lend", pLent: "lent", pEnd: "end",
	pSweep: "sweep", pSit: "sit", pStand: "stand", pPut: "put",
	pSeatTake: "seat-take", pSeatPass: "seat-pass", pSeatRelease: "seat-release",
	pSend: "send", pFlushOwn: "flush-own", pFlushRelease: "flush-release",
	pExpire: "expire", pKick: "kick", pIdle: "idle", pGrace: "grace", pStalled: "stalled",
	pFail: "fail",
}

func (p point) String() string {
	if int(p) < len(pointNames) && pointNames[p] != "" {
		return pointNames[p]
	}
	return fmt.Sprintf("point(%d)", p)
}

// reach parks the calling goroutine at p until the explorer runs it.
func (x *explorer) reach(p point, w *waiter) {
	k := &parking{p: p, run: make(chan struct{})}
	if w != nil {
		k.id = w.id
	}
	x.mu.Lock()
	if x.closed {
		x.mu.Unlock()
		return
	}
	x.parked = append(x.parked, k)
	x.mu.Unlock()
	select {
	case x.arrived <- struct{}{}:
	default:
	}
	<-k.run
}

// A schedule longer than maxSteps, or a scenario still running maxWall
// after it began, is a hang; letting time pass lasts until a goroutine
// reaches a point, or a tick.
const (
	maxSteps = 5000
	maxWall  = 10 * time.Second
	tick     = 500 * time.Microsecond
)

// explore runs scenario once under seed and returns what it found wrong,
// with the schedule that got there.
func explore(seed int64, scenario func() error) error {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	x := &explorer{rng: rand.New(rand.NewSource(seed)), arrived: make(chan struct{}, 1)}
	setExplorer(x)
	var err error
	done := make(chan struct{})
	go func() {
		defer close(done)
		err = scenario()
	}()
	var dump []byte
	hang := ""
	for steps, start := 0, time.Now(); ; steps++ {
		if steps == maxSteps || time.Since(start) > maxWall {
			hang = fmt.Sprintf("no end after %d steps in %s", steps, time.Since(start).Round(time.Millisecond))
			break
		}
		dump = settle(dump, start.Add(maxWall))
		x.mu.Lock()
		n := len(x.parked)
		if n == 0 {
			x.mu.Unlock()
			select {
			case <-done:
			default:
				x.pass()
				continue
			}
			break
		}
		// Releasing nobody is one choice among the parked goroutines' runs,
		// taken at most one time in four: a call's deadline, a grace or an
		// idle check fires only while time passes.
		if x.rng.Intn(4*(n+1)) < 4 {
			x.mu.Unlock()
			x.pass()
			continue
		}
		slices.SortStableFunc(x.parked, func(a, b *parking) int {
			if a.p != b.p {
				return int(a.p) - int(b.p)
			}
			return int(a.id) - int(b.id)
		})
		i := x.rng.Intn(n)
		k := x.parked[i]
		x.parked = slices.Delete(x.parked, i, i+1)
		x.trace = append(x.trace, fmt.Sprintf("%s#%d", k.p, k.id))
		x.mu.Unlock()
		close(k.run)
	}
	// Release whatever still waits and run unexplored from here.
	setExplorer(nil)
	x.mu.Lock()
	x.closed = true
	for _, k := range x.parked {
		close(k.run)
	}
	x.parked = nil
	x.mu.Unlock()
	<-done
	if hang != "" {
		err = errors.Join(errors.New(hang), err)
	}
	if err == nil && len(x.bad) == 0 {
		return nil
	}
	return fmt.Errorf("%v\n  illegal transitions: %q\n  schedule: %s", err, x.bad, x.schedule())
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

// pass lets real time pass until a goroutine reaches a point, or a tick.
func (x *explorer) pass() {
	t := time.NewTimer(tick)
	defer t.Stop()
	select {
	case <-x.arrived:
	case <-t.C:
	}
}

// schedule is the trace's tail, the points released last.
func (x *explorer) schedule() string {
	x.mu.Lock()
	defer x.mu.Unlock()
	tr := x.trace
	if len(tr) > 60 {
		tr = append([]string{"..."}, tr[len(tr)-60:]...)
	}
	return strings.Join(tr, " ")
}

// A scenario is named, and explored seedsPerRun seeds at a time; each run
// of a test in one process (go test -count=N) explores the next range, as
// perRun hands each run the next host names.
type scenario struct {
	name string
	run  func() error
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

func exploreRange(t *testing.T, sc scenario) {
	base := nextSeeds(sc.name)
	for seed := base; seed < base+seedsPerRun; seed++ {
		if err := explore(seed, sc.run); err != nil {
			t.Errorf("%s, seed %d: %v", sc.name, seed, err)
		}
	}
}

func TestExploreSeatedTimer(t *testing.T)  { exploreRange(t, seatedTimer) }
func TestExploreLeadingFlush(t *testing.T) { exploreRange(t, leadingFlush) }
func TestExploreResend(t *testing.T)       { exploreRange(t, resend) }
func TestExplorePromotion(t *testing.T)    { exploreRange(t, promotion) }

// TestExploreFoundSeeds runs the seeds that found the three races found
// earlier in this code (4b860d3, 044a2a4), each brought back by hand on a
// copy of it (EXPERIMENTS.md E24): a timer's kick landing on the next
// reader, a flush left running past its leading call's deadline once that
// call had its reply, and a request sent a second time after its pooled
// waiter was marked unsent.  With the races fixed, each must run clean.
func TestExploreFoundSeeds(t *testing.T) {
	for _, c := range []struct {
		sc   scenario
		seed int64
	}{{seatedTimer, 750}, {leadingFlush, 2}, {resend, 26}} {
		if err := explore(c.seed, c.sc.run); err != nil {
			t.Errorf("%s, seed %d: %v", c.sc.name, c.seed, err)
		}
	}
}

// ---- scenarios ----

// handSkel serves the scenarios: "echo", "wait" (held until gate closes,
// signalling entered as it starts), "bulk" (a lent blob, read on the client
// straight into the caller's storage) and "once" (counted by its argument,
// after which the server severs every connection it serves).
type handSkel struct {
	server  *Endpoint
	blob    []byte
	gate    chan struct{}
	entered chan struct{}

	mu   sync.Mutex
	seen map[string]int
}

func newHandSkel() *handSkel {
	return &handSkel{blob: bytes.Repeat([]byte("hand-off"), 8<<10), gate: make(chan struct{}),
		entered: make(chan struct{}, 8), seen: map[string]int{}}
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

// handPair serves a handSkel on a fresh memnet to a client endpoint.  The
// host names repeat from seed to seed, so the scenarios read counters as
// deltas; closing both endpoints ends every goroutine they started.
func handPair() (server, client *Endpoint, sk *handSkel, ref oref.Ref, closeAll func()) {
	nw := transport.NewNetwork()
	server, err := NewEndpoint(nw.Host("192.168.39.1"))
	if err != nil {
		panic(err)
	}
	client, err = NewEndpoint(nw.Host("10.39.0.5"))
	if err != nil {
		panic(err)
	}
	sk = newHandSkel()
	sk.server = server
	ref = server.Register("", sk)
	return server, client, sk, ref, func() { client.Close(); server.Close() }
}

// timed calls method on ref with a context timeout, returning how long the
// call took and its error.
func timed(e *Endpoint, ref oref.Ref, method, arg string, timeout time.Duration) (time.Duration, error) {
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	start := time.Now()
	err := e.InvokeCtx(ctx, ref, method, func(enc *wire.Encoder) { enc.PutString(arg) }, nil)
	return time.Since(start), err
}

// slack is how far past its deadline a call may return under the explorer,
// whose steps each take a goroutine dump.
const slack = 250 * time.Millisecond

// seatedTimer: caller A's handler blocks, and A sits on the connection
// reading until its deadline fires and kicks it out of Read; meanwhile B's
// bulk reply, on the same connection, is read straight into B's storage by
// whoever holds the seat next.  A gets its timeout, and its kick never
// lands on another reader: no read on the connection fails, and B gets its
// reply.  One thing may still cost B its call: A's deadline cuts a flush A
// leads (frameWriter.cut), and the connection goes with the cut write.
var seatedTimer = scenario{"seated timer", func() error {
	_, client, sk, ref, closeAll := handPair()
	defer closeAll()
	if _, err := timed(client, ref, "echo", "warm", time.Second); err != nil {
		return fmt.Errorf("warm call: %w", err)
	}
	readErrs := counterDelta(client.Metrics(), "orb_conn_read_errors")
	const aTimeout = 2 * time.Millisecond
	var errs [2]error
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		if took, err := timed(client, ref, "wait", "", aTimeout); ConnClass(err) != "timeout" || took > aTimeout+slack {
			errs[0] = fmt.Errorf("A returned after %s with %v; want its timeout", took, err)
		}
	}()
	go func() {
		defer wg.Done()
		var dst []byte
		err := client.InvokeInto(context.Background(), ref, "bulk", nil, make([]byte, len(sk.blob)),
			func(data []byte, _ *wire.Decoder) error { dst = data; return nil })
		if err == nil && !bytes.Equal(dst, sk.blob) || err != nil && ConnClass(err) != "timeout" {
			errs[1] = fmt.Errorf("B's bulk reply: %d bytes, %v", len(dst), err)
		}
	}()
	wg.Wait()
	close(sk.gate)
	if n := readErrs(); n != 0 {
		errs[1] = errors.Join(errs[1], fmt.Errorf("%d read errors on the connection; A's kick landed on another reader", n))
	}
	return errors.Join(errs[:]...)
}}

// leadingFlush: the peer answers the first request and then reads nothing
// more.  Whichever call's frame makes it the flusher, each call returns by
// its deadline: a leader whose reply came while it was still writing a
// large request queued behind its own is cut out of that write by its own
// deadline.
var leadingFlush = scenario{"leading flush", func() error {
	nw := transport.NewNetwork()
	ln, addr, err := nw.Host("192.168.39.2").Listen()
	if err != nil {
		return err
	}
	peerDone := make(chan struct{})
	var peer net.Conn
	go func() {
		defer close(peerDone)
		c, err := ln.Accept()
		if err != nil {
			return
		}
		peer = c
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
	}()
	client, err := NewEndpoint(nw.Host("10.39.0.6"))
	if err != nil {
		return err
	}
	ref := oref.Persistent(addr, "test.Peer", "peer")
	big := string(make([]byte, stallPayload))
	const leadTimeout, bigTimeout = 10 * time.Millisecond, 40 * time.Millisecond
	var errs [2]error
	var wg sync.WaitGroup
	wg.Add(2)
	call := func(i int, arg string, timeout time.Duration) {
		defer wg.Done()
		if took, err := timed(client, ref, "echo", arg, timeout); took > timeout+slack {
			errs[i] = fmt.Errorf("a call with a %s timeout returned after %s (%v)", timeout, took, err)
		}
	}
	go call(0, "lead", leadTimeout)
	go call(1, big, bigTimeout)
	stuck := make(chan struct{})
	go func() { wg.Wait(); close(stuck) }()
	select {
	case <-stuck:
	case <-time.After(bigTimeout + 2*slack):
		errs[0] = errors.Join(errs[0], errors.New("a call is still in its flush past its deadline"))
	}
	client.Close()
	<-stuck
	ln.Close()
	<-peerDone
	if peer != nil {
		peer.Close()
	}
	return errors.Join(errs[:]...)
}}

// resend: the server severs an idle pooled connection.  Two calls meet it
// dead, one of them queued behind the other's flush, and are sent again on
// a fresh dial if not a byte of theirs left; the second caller then makes a
// call the server receives and answers by severing the connection.  That
// call must not be sent again: the server has it.
var resend = scenario{"resend", func() error {
	server, client, sk, ref, closeAll := handPair()
	defer closeAll()
	if _, err := timed(client, ref, "echo", "warm", time.Second); err != nil {
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
		if took, _ := timed(client, ref, "echo", string(make([]byte, 32<<10)), timeout); took > timeout+slack {
			errs[0] = fmt.Errorf("F returned after %s", took)
		}
	}()
	go func() {
		defer wg.Done()
		if took, _ := timed(client, ref, "echo", "x", timeout); took > timeout+slack {
			errs[1] = fmt.Errorf("X returned after %s", took)
		}
		if took, _ := timed(client, ref, "once", "y", timeout); took > timeout+slack {
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
var promotion = scenario{"promotion", func() error {
	_, client, sk, ref, closeAll := handPair()
	defer closeAll()
	if _, err := timed(client, ref, "echo", "warm", time.Second); err != nil {
		return fmt.Errorf("warm call: %w", err)
	}
	blocked := make(chan error, 1)
	go func() {
		_, err := timed(client, ref, "wait", "", time.Second)
		blocked <- err
	}()
	<-sk.entered
	var errs [2]error
	if took, err := timed(client, ref, "echo", "behind", time.Second); err != nil {
		errs[0] = fmt.Errorf("the call behind a blocked handler failed after %s: %v", took, err)
	}
	close(sk.gate)
	if err := <-blocked; err != nil {
		errs[1] = fmt.Errorf("blocked call: %w", err)
	}
	return errors.Join(errs[:]...)
}}
