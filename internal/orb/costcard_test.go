package orb_test

import (
	"bytes"
	"cmp"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"text/tabwriter"

	"itv/internal/auth"
	"itv/internal/clock"
	"itv/internal/obs"
	"itv/internal/orb"
	"itv/internal/oref"
	"itv/internal/transport"
	"itv/internal/wire"
)

// The cost card: what a warm call costs in counts, rung by rung.  A row is
// a rung, a column a count, and a cell a bound the count must meet.  Counts
// are deterministic in steady state, so most cells are exact; one that
// cannot be is a bound, and its probe says why.  What the calls cost in
// time is `bash bench/run.sh`'s to measure.  To see the card:
//
//	go test -run CostCard -v ./internal/orb

var payload = []byte("thirty-two bytes of echo payload") // every call's: rpc_small's 32 bytes

// echoer echoes its argument and keeps nothing, so that whatever a call to
// it allocates is the ORB's own.
type echoer struct{}

func (echoer) TypeID() string { return "test.CostCard" }

func (echoer) Dispatch(c *orb.ServerCall) error {
	c.Results().PutBytes(c.Args().BytesView())
	return nil
}

func putPayload(e *wire.Encoder) { e.PutBytes(payload) }

func getPayload(d *wire.Decoder) error {
	if !bytes.Equal(d.BytesView(), payload) {
		return errors.New("costcard: wrong reply")
	}
	return nil
}

// rig is a server endpoint serving echoer and p.conns client endpoints
// (at least one), each warmed by p.warm calls, over memnet, p.net "tcp" or
// — the server calling itself — "local".  Memnet hosts are per-run, so no
// other test moves their counters; on TCP every end counts on the one
// loopback node.  Signed, the server verifies and each client signs.
type rig struct {
	server  *orb.Endpoint
	clients []*orb.Endpoint
	ref     oref.Ref
	srcs    []transport.StatsSource // the server's counters, then the clients' on memnet
	counts  *orb.Counts             // what the ORB did while the card measured it
}

func newRig(tb testing.TB, p probe) *rig {
	nw := transport.NewNetwork()
	r := &rig{}
	endpoint := func(name string) *orb.Endpoint {
		tr := transport.TCP()
		if p.net != "tcp" {
			tr = nw.Host(orb.PerRun(name))
		}
		if p.net != "tcp" || r.srcs == nil {
			r.srcs = append(r.srcs, tr.(transport.StatsSource))
		}
		ep, err := orb.NewEndpoint(tr)
		if err != nil {
			tb.Fatal(err)
		}
		tb.Cleanup(ep.Close)
		return ep
	}
	r.server = endpoint("192.168.36.1")
	clk := clock.NewFake()
	svc := auth.NewService(clk)
	if p.signed {
		r.server.SetAuthenticator(auth.NewVerifier(svc.RealmKey(), clk))
	}
	r.ref = r.server.Register("", echoer{})
	if p.net == "local" {
		r.clients = []*orb.Endpoint{r.server}
	}
	for i := 0; i < max(p.conns, 1) && p.net != "local"; i++ {
		name := fmt.Sprintf("10.36.0.%d", i+1)
		ep := endpoint(name)
		if p.signed {
			principal := "settop/" + name
			key := svc.Enroll(principal)
			ep.SetAuthenticator(auth.NewSigner(principal, key, clk,
				func() ([]byte, []byte, error) { return svc.IssueTicket(principal) }))
		}
		r.clients = append(r.clients, ep)
	}
	for _, ep := range r.clients {
		r.calls(tb, ep, p.warm)
	}
	return r
}

// call makes one call from ep: an echo of payload.
func (r *rig) call(ep *orb.Endpoint) error {
	return ep.InvokeCtx(context.Background(), r.ref, "echo", putPayload, getPayload)
}

// calls makes n calls in a row from ep, and seq from the first client.
func (r *rig) calls(tb testing.TB, ep *orb.Endpoint, n int) {
	for i := 0; i < n; i++ {
		if err := r.call(ep); err != nil {
			tb.Fatalf("call %d: %v", i, err)
		}
	}
}

func (r *rig) seq(tb testing.TB, n int) { r.calls(tb, r.clients[0], n) }

// callers runs callers goroutines, spread over the clients round robin,
// until they have made calls calls between them.
func (r *rig) callers(tb testing.TB, callers, calls int) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(ep *orb.Endpoint) {
			defer wg.Done()
			for next.Add(1) <= int64(calls) {
				if err := r.call(ep); err != nil {
					tb.Error(err)
					return
				}
			}
		}(r.clients[i%len(r.clients)])
	}
	wg.Wait()
}

// reads is the transport reads made so far, every end summed.
func (r *rig) reads() (n int64) {
	for _, s := range r.srcs {
		n += s.Stats().Reads
	}
	return n
}

// allocated returns the allocations and bytes f makes with the collector
// off: a collection would empty the pools and charge f for refilling them.
func allocated(f func()) (mallocs, total uint64) {
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs, after.TotalAlloc - before.TotalAlloc
}

// schedSamples is the runtime's count of goroutine runs it sampled for
// scheduling latency: one run in eight of every goroutine.
func schedSamples() uint64 {
	s := []metrics.Sample{{Name: "/sched/latencies:seconds"}}
	metrics.Read(s)
	var n uint64
	for _, c := range s[0].Value.Float64Histogram().Counts {
		n += c
	}
	return n
}

// bound is what a cell may read: from lo to hi, below hi when open.
type bound struct {
	lo, hi float64
	open   bool
}

func exactly(v float64) bound { return bound{lo: v, hi: v} }
func atMost(v float64) bound  { return bound{hi: v} }
func under(v float64) bound   { return bound{hi: v, open: true} }

func (b bound) holds(v float64) bool { return v >= b.lo && (v < b.hi || !b.open && v == b.hi) }

func (b bound) String() string {
	switch {
	case b.open:
		return "<" + count(b.hi)
	case b.lo == b.hi:
		return "=" + count(b.hi)
	case b.lo == 0:
		return "≤" + count(b.hi)
	}
	return count(b.lo) + "–" + count(b.hi)
}

func count(v float64) string { return strconv.FormatFloat(v, 'g', 4, 64) }

// A cell is one count of one rung and its bound.
type cell struct {
	rung, col string
	bound
}

// A probe measures its cells in one run on a rig, returning their counts
// in order.  Its pin, where it has one, is the test that also runs it alone
// (runPin).  An alloc probe is skipped under the race detector, whose
// sync.Pool drops a quarter of what is put back.  A loaded machine (the
// race detector's slowdown is one) can stall a sequential call past the
// seat's grace, and the reader seat then changes hands: a server's reader
// is promoted past an inline dispatch, or an idle check seats a background
// reader, and the window counts that goroutine's clock reads, syscalls and
// hand-offs as the calls'.  So a retry probe's window in which the seat
// changed hands is measured again on a new rig, up to three times.
type probe struct {
	cells        []cell
	pin          string
	net          string
	conns, warm  int
	signed       bool
	alloc, retry bool
	run          func(t *testing.T, r *rig) []float64
}

const (
	seqCalls    = 300   // sequential calls a read or hand-off count is taken over
	manyCalls   = 20000 // calls a concurrent allocation count is taken over
	schedCalls  = 5000  // calls, and round trips, a goroutine-run count is taken over
	syscallRuns = 1000  // calls a syscall count is taken over
	byteCalls   = 100   // calls a byte count is taken over, their request ids one byte each
)

// zeroAllocs: a warm call alone on its connection allocates nothing
// anywhere in the process.  Signed, both ends sign and verify in pooled
// scratch, and the verifier finds the ticket in its session cache.
func zeroAllocs(t *testing.T, r *rig) []float64 {
	return []float64{testing.AllocsPerRun(1000, func() { r.seq(t, 1) })}
}

// concurrentAllocs: with the pools and the write path contended, counted
// over many calls, as the odd goroutine start (an idle connection's reader,
// a lazy worker) is no call's.  A busy connection's request that finds the
// resident workers taken starts a goroutine, which allocates: 16 callers
// on one connection read about 0.6 on two cores, 64 on 64 about 0.02.
func concurrentAllocs(callers int) func(*testing.T, *rig) []float64 {
	return func(t *testing.T, r *rig) []float64 {
		r.callers(t, callers, manyCalls) // every caller meets every pool, the server its peak of workers
		mallocs, _ := allocated(func() { r.callers(t, callers, manyCalls) })
		return []float64{float64(mallocs) / manyCalls}
	}
}

// mirrorBytes: a 12 KiB request and reply, above the frame reader's
// read-ahead and under the flush copy limit, go whole into pooled buffers
// that grow to the frame once; regrowing per call would cost 24 KiB.
func mirrorBytes(t *testing.T, r *rig) []float64 {
	blob, dst := bytes.Repeat([]byte("mirror"), 2<<10), []byte(nil)
	mirror := func() {
		err := r.clients[0].InvokeInto(context.Background(), r.ref, "echo",
			func(e *wire.Encoder) { e.PutBytes(blob) }, dst,
			func(data []byte, _ *wire.Decoder) error { dst = data; return nil })
		if err != nil || !bytes.Equal(dst, blob) {
			t.Fatalf("%d bytes, %v", len(dst), err)
		}
	}
	mirror() // dial, size every buffer
	_, n := allocated(func() {
		for i := 0; i < 64; i++ {
			mirror()
		}
	})
	return []float64{float64(n/64) / 1024}
}

// echoBytes is a warm unsigned echo of payload on the wire: a 4-byte frame
// header each way, a 66-byte request and a 48-byte reply.
const echoBytes = 122

// wireBytes: what a warm call puts on the wire, both frames, counted where
// they are read: a reader counts a frame before it hands it on, so a call
// that returned has both of its frames counted, where the server's count
// of its reply's write may lag the caller.  Signed, it is the unsigned
// call's bytes and the signature's 32: the first call on the connection
// carried the ticket and the principal, and the server holds them from its
// reply on (DESIGN.md §12).
func wireBytes(t *testing.T, r *rig) []float64 {
	read := func() (n int64) {
		for _, s := range r.srcs {
			n += s.Stats().BytesRecv
		}
		return n
	}
	before := read()
	r.seq(t, byteCalls)
	return []float64{float64(read()-before) / byteCalls}
}

// seqReads: a call is two frames and two reads, one per frame.  A read is
// counted when it returns, so a returned call's two are in and the two
// then blocked on the idle connection are not.  Loopback TCP may hand a
// frame over in two pieces, so there eight more in all are allowed.
func seqReads(t *testing.T, r *rig) []float64 {
	before := r.reads()
	r.seq(t, seqCalls)
	return []float64{float64(r.reads()-before) / seqCalls}
}

// clockReads: one reading per event — the client at the call's start and
// end, the server at the request's arrival, the handler's end and the
// reply write's return.  The HLC stamps take these readings, not their own.
// The write return can come after the caller has its reply, so the count
// starts and stops only once the server has timed every flush so far.
func clockReads(t *testing.T, r *rig) []float64 {
	flushed := r.server.Metrics().Histogram(obs.L("orb_flush_wait", "method", "echo"))
	settle := func(n int64) {
		for i := 0; flushed.Count() < n && i < 1e6; i++ {
			runtime.Gosched()
		}
	}
	settle(1) // the warm call
	before := r.counts.ClockReads()
	r.seq(t, seqCalls)
	settle(1 + seqCalls)
	return []float64{float64(r.counts.ClockReads()-before) / seqCalls}
}

// timerArms: a call only registers its deadline with the connection's one
// timer, which is already pending for an earlier call's.
func timerArms(t *testing.T, r *rig) []float64 {
	before := r.counts.TimerArms()
	r.seq(t, 1000)
	return []float64{float64(r.counts.TimerArms() - before)}
}

// handsOff: one call at a time, the server's reader dispatches every
// request and the caller reads every reply itself.
func handsOff(t *testing.T, r *rig) []float64 {
	inline := r.server.Metrics().Counter("orb_server_inline_dispatches")
	self := r.clients[0].Metrics().Counter("orb_client_self_reads")
	i0, s0 := inline.Value(), self.Value()
	r.seq(t, seqCalls)
	return []float64{float64(inline.Value()-i0) / seqCalls, float64(self.Value()-s0) / seqCalls}
}

// syscalls: over TCP each side's first read returns EAGAIN before the
// netpoller parks it: 4 read and 2 write syscalls a call.  RawConn.Read
// cannot cut the EAGAIN read (internal/poll's prepareRead resets read
// readiness before the callback, and a reply arriving between would hang
// its caller), so a 5th read is a regression.  The probe's own reads are
// taken off; a runtime wake of the netpoller (its eventfd written and read)
// is no call's, so eight more of each are allowed in all.
func syscalls(t *testing.T, r *rig) []float64 {
	var rd, wr [3]int64 // before and after a probe, and after the calls
	for i := range rd {
		if i == 2 {
			r.seq(t, syscallRuns)
		}
		b, err := os.ReadFile("/proc/self/io")
		if err != nil {
			t.Skip("no /proc/self/io")
		}
		var rc, wc int64
		if _, err := fmt.Sscanf(string(b), "rchar: %d\nwchar: %d\nsyscr: %d\nsyscw: %d", &rc, &wc, &rd[i], &wr[i]); err != nil {
			t.Fatal(err)
		}
	}
	per := func(n [3]int64) float64 { return float64(n[2]-n[1]-(n[1]-n[0])) / syscallRuns }
	return []float64{per(rd), per(wr)}
}

// pipelined: 64 callers on one connection coalesce frames into batches,
// and a batch written at once is read at once.  On memnet, whose writers
// and woken readers yield to a busy link, the client's writes per request
// fall too; the loopback TCP node counts both ends' writes as one.
func pipelined(t *testing.T, r *rig) []float64 {
	const calls = 6400
	client := r.srcs[len(r.srcs)-1] // the client's own counters, on memnet
	before, wrote := r.reads(), client.Stats().FramesSent
	r.callers(t, 64, calls)
	got := []float64{float64(r.reads()-before) / (2 * calls)}
	if len(r.srcs) > 1 {
		got = append(got, float64(client.Stats().FramesSent-wrote)/calls)
	}
	return got
}

// goroutineRuns: at GOMAXPROCS(1) a memnet call is the caller and the
// server's reader, so it costs what two goroutines ping-ponging over bare
// memnet cost: about two runs a round trip (0.25 samples), as a write that
// fits the link's buffer does not wait for the reader.  The call may sit
// 3/4 of a run above, for the GC and grace timers; a hand-off costs 1.
func goroutineRuns(t *testing.T, r *rig) []float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	perRound := func(round func(), n int) float64 {
		for i := 0; i < 1000; i++ {
			round()
		}
		s0 := schedSamples()
		for i := 0; i < n; i++ {
			round()
		}
		return float64(schedSamples()-s0) / float64(n)
	}
	perCall := perRound(func() { r.seq(t, 1) }, schedCalls)
	nw := transport.NewNetwork()
	ln, addr, err := nw.Host(orb.PerRun("192.168.36.9")).Listen()
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		if b, err := ln.Accept(); err == nil {
			io.Copy(b, b)
			b.Close()
		}
	}()
	a, err := nw.Host(orb.PerRun("10.36.0.99")).Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	buf := make([]byte, 40)
	floor := perRound(func() { a.Write(buf); io.ReadFull(a, buf) }, schedCalls)
	return []float64{floor, perCall - floor}
}

// probes is the card, in the order its rungs are printed.
var probes = []probe{
	{cells: []cell{{"memnet call", "allocs/call", exactly(0)}}, pin: "TestRemoteCallAllocatesNothing", warm: 8, alloc: true, run: zeroAllocs},
	{cells: []cell{{"memnet call", "reads/call", exactly(2)}}, pin: "TestSequentialCallCostsTwoReads", warm: 1, run: seqReads},
	{cells: []cell{{"memnet call", "bytes/call", exactly(echoBytes)}}, pin: "TestWarmCallBytes", warm: 1, run: wireBytes},
	{cells: []cell{{"memnet call", "clock reads/call", exactly(5)}}, pin: "TestSequentialCallClockReads", warm: 1, retry: true, run: clockReads},
	{cells: []cell{{"memnet call", "arms/1000 calls", atMost(1)}}, pin: "TestSequentialCallArmsNoTimer", warm: 1, run: timerArms},
	{cells: []cell{{"memnet call", "inline/call", exactly(1)}, {"memnet call", "self reads/call", exactly(1)}},
		pin: "TestSequentialCallHandsOffNothing", warm: 1, retry: true, run: handsOff},
	{cells: []cell{{"tcp call", "allocs/call", exactly(0)}}, pin: "TestRemoteCallAllocatesNothing", net: "tcp", warm: 8, alloc: true, run: zeroAllocs},
	{cells: []cell{{"tcp call", "reads/call", bound{lo: 2, hi: float64(2*seqCalls+8) / seqCalls}}}, pin: "TestSequentialCallCostsTwoReads", net: "tcp", warm: 1, run: seqReads},
	{cells: []cell{{"tcp call", "inline/call", exactly(1)}, {"tcp call", "self reads/call", exactly(1)}},
		pin: "TestSequentialCallHandsOffNothing", net: "tcp", warm: 1, retry: true, run: handsOff},
	{cells: []cell{{"tcp call", "read syscalls/call", atMost(float64(4*syscallRuns+8) / syscallRuns)},
		{"tcp call", "write syscalls/call", atMost(float64(2*syscallRuns+8) / syscallRuns)}},
		net: "tcp", warm: 8, retry: true, run: syscalls},
	{cells: []cell{{"local call", "allocs/call", exactly(0)}}, pin: "TestLocalCallAllocatesNothing", net: "local", warm: 8, alloc: true, run: zeroAllocs},
	{cells: []cell{{"signed memnet", "allocs/call", exactly(0)}}, warm: 8, signed: true, alloc: true, run: zeroAllocs},
	{cells: []cell{{"signed memnet", "bytes/call", exactly(echoBytes + 32)}}, pin: "TestWarmCallBytes", warm: 1, signed: true, run: wireBytes},
	{cells: []cell{{"signed tcp", "allocs/call", exactly(0)}}, net: "tcp", warm: 8, signed: true, alloc: true, run: zeroAllocs},
	{cells: []cell{{"12 KiB mirror memnet", "KiB/call", under(12)}}, pin: "TestMidSizeFramesGrowTheBufferOnce", alloc: true, run: mirrorBytes},
	{cells: []cell{{"12 KiB mirror tcp", "KiB/call", under(12)}}, pin: "TestMidSizeFramesGrowTheBufferOnce", net: "tcp", alloc: true, run: mirrorBytes},
	{cells: []cell{{"16 callers, 1 conn", "allocs/call", under(1)}}, pin: "TestConcurrentCallAllocations", warm: 8, alloc: true, run: concurrentAllocs(16)},
	{cells: []cell{{"64 callers, 64 conns", "allocs/call", under(0.5)}}, pin: "TestConcurrentCallAllocations", conns: 64, warm: 8, alloc: true, run: concurrentAllocs(64)},
	{cells: []cell{{"64 signed, 64 conns", "allocs/call", under(0.5)}}, conns: 64, warm: 8, signed: true, alloc: true, run: concurrentAllocs(64)},
	{cells: []cell{{"64 pipelined memnet", "reads/frame", under(1)}, {"64 pipelined memnet", "writes/req", under(0.9)}},
		pin: "TestPipelinedCallsShareReads", warm: 1, run: pipelined},
	{cells: []cell{{"64 pipelined tcp", "reads/frame", under(1)}}, pin: "TestPipelinedCallsShareReads", net: "tcp", warm: 1, run: pipelined},
	{cells: []cell{{"memnet ping-pong", "sched/round trip", atMost(0.30)}, {"memnet call", "sched over floor", atMost(3.0 / 32)}},
		pin: "TestSequentialCallGoroutineRuns", run: goroutineRuns},
}

// TestCostCard fails on any cell outside its bound.  Under -v, or on any
// failure, it logs the whole card, each count beside its bound.
func TestCostCard(t *testing.T) {
	got := measure(t, probes)
	if testing.Verbose() || t.Failed() {
		t.Log("the cost card, each count beside its bound (- unmeasured):\n" + card(got))
	}
}

// The pins run their own probes alone, under the names they had as tests
// before the card, so that one count can be repeated or bisected by itself.
func TestRemoteCallAllocatesNothing(t *testing.T)     { runPin(t) }
func TestLocalCallAllocatesNothing(t *testing.T)      { runPin(t) }
func TestConcurrentCallAllocations(t *testing.T)      { runPin(t) }
func TestMidSizeFramesGrowTheBufferOnce(t *testing.T) { runPin(t) }
func TestSequentialCallCostsTwoReads(t *testing.T)    { runPin(t) }
func TestSequentialCallClockReads(t *testing.T)       { runPin(t) }
func TestSequentialCallArmsNoTimer(t *testing.T)      { runPin(t) }
func TestPipelinedCallsShareReads(t *testing.T)       { runPin(t) }
func TestSequentialCallHandsOffNothing(t *testing.T)  { runPin(t) }
func TestSequentialCallGoroutineRuns(t *testing.T)    { runPin(t) }
func TestWarmCallBytes(t *testing.T)                  { runPin(t) }

// runPin measures the probes pinned by t's name, and logs the card on a
// failure.
func runPin(t *testing.T) {
	var ps []probe
	for _, p := range probes {
		if p.pin == t.Name() {
			ps = append(ps, p)
		}
	}
	if len(ps) == 0 {
		t.Fatalf("no probe is pinned by %s", t.Name())
	}
	if got := measure(t, ps); t.Failed() {
		t.Log("the cost card, each count beside its bound (- unmeasured):\n" + card(got))
	}
}

// measure runs each probe as a subtest and fails it on any cell outside its
// bound, returning every count it measured.
func measure(t *testing.T, ps []probe) map[cell]string {
	got := map[cell]string{}
	for _, p := range ps {
		t.Run(strings.ReplaceAll(p.cells[0].rung+" "+p.cells[0].col, "/", " per "), func(t *testing.T) {
			if p.alloc && orb.RaceEnabled {
				t.Skip("allocation counts do not hold under the race detector")
			}
			run := func() (vs []float64, moved int64) {
				orb.Count(func(c *orb.Counts) {
					r := newRig(t, p)
					r.counts = c
					promoted := r.server.Metrics().Counter("orb_server_reader_promotions")
					p0, s0 := promoted.Value(), c.SeatPasses()
					vs = p.run(t, r)
					moved = c.SeatPasses() - s0 + promoted.Value() - p0
				})
				return vs, moved
			}
			vs, moved := run()
			for try := 1; p.retry && moved > 0 && try < 3; try++ {
				t.Logf("attempt %d: %v, the reader seat changed hands %d times; measuring again", try, vs, moved)
				vs, moved = run()
			}
			for i, c := range p.cells {
				got[c] = count(vs[i])
				if !c.holds(vs[i]) {
					t.Errorf("%s: %s %s, want %s", c.rung, count(vs[i]), c.col, c.bound)
				}
			}
		})
	}
	return got
}

// card lays the cells out as a table, rungs down and columns across, each
// in the order the probes first name it.
func card(got map[cell]string) string {
	var rungs, columns []string
	grid := map[[2]string]string{}
	for _, p := range probes {
		for _, c := range p.cells {
			if !slices.Contains(rungs, c.rung) {
				rungs = append(rungs, c.rung)
			}
			if !slices.Contains(columns, c.col) {
				columns = append(columns, c.col)
			}
			grid[[2]string{c.rung, c.col}] = cmp.Or(got[c], "-") + " " + c.bound.String()
		}
	}
	var b strings.Builder
	tw := tabwriter.NewWriter(&b, 0, 0, 2, ' ', 0)
	fmt.Fprintf(tw, "rung\t%s\t\n", strings.Join(columns, "\t"))
	for _, rung := range rungs {
		fmt.Fprint(tw, rung)
		for _, col := range columns {
			fmt.Fprintf(tw, "\t%s", grid[[2]string{rung, col}])
		}
		fmt.Fprint(tw, "\t\n")
	}
	tw.Flush()
	return b.String()
}

// BenchmarkInvoke is a warm call over memnet, the hot path to profile; it
// gates nothing:
//
//	go test -run - -bench Invoke -cpu 1 -cpuprofile cpu.out ./internal/orb
func BenchmarkInvoke(b *testing.B) {
	r := newRig(b, probe{warm: 8})
	b.ReportAllocs()
	b.ResetTimer()
	r.seq(b, b.N)
}

// BenchmarkInvokeParallel is the same call from GOMAXPROCS goroutines at
// once, remote over 64 connections and local on the server itself: every
// dispatch reads the server's object table under its read lock, so -cpu 2
// and up shows what readers on different cores cost each other.  It gates
// nothing.
func BenchmarkInvokeParallel(b *testing.B) {
	b.Run("remote", func(b *testing.B) {
		r := newRig(b, probe{conns: 64, warm: 8})
		var next atomic.Int64
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			ep := r.clients[int(next.Add(1))%len(r.clients)]
			for pb.Next() {
				if err := r.call(ep); err != nil {
					b.Error(err)
					return
				}
			}
		})
	})
	b.Run("local", func(b *testing.B) {
		r := newRig(b, probe{warm: 8})
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				if err := r.call(r.server); err != nil {
					b.Error(err)
					return
				}
			}
		})
	})
}
