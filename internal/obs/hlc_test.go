package obs

import (
	"context"
	"strings"
	"sync"
	"testing"
	"time"

	"itv/internal/clock"
)

var hlcEpoch = time.Date(1995, 12, 3, 12, 0, 0, 0, time.UTC)

func TestHLCTimePacking(t *testing.T) {
	h := packHLC(hlcEpoch)
	if got := h.Physical().UnixMilli(); got != hlcEpoch.UnixMilli() {
		t.Fatalf("physical round-trip: got %d want %d", got, hlcEpoch.UnixMilli())
	}
	if h.Logical() != 0 {
		t.Fatalf("fresh packing has logical %d", h.Logical())
	}
	if (h + 3).Logical() != 3 {
		t.Fatalf("logical increment: got %d", (h + 3).Logical())
	}
	var zero HLCTime
	if zero.String() != "-" {
		t.Fatalf("zero HLC renders %q", zero.String())
	}
}

func TestHLCMonotonicUnderFrozenClock(t *testing.T) {
	h := NewHLC(func() time.Time { return hlcEpoch }) // frozen physical clock
	prev := h.NowAt(Mono())
	for i := 0; i < 100; i++ {
		cur := h.NowAt(Mono())
		if cur <= prev {
			t.Fatalf("HLC went backwards: %v then %v", prev, cur)
		}
		prev = cur
	}
	if prev.Logical() == 0 {
		t.Fatal("frozen clock should force the logical counter up")
	}
}

func TestHLCObserveAdoptsFasterPeer(t *testing.T) {
	h := NewHLC(func() time.Time { return hlcEpoch })
	peer := packHLC(hlcEpoch.Add(time.Hour)) // a peer an hour ahead
	got := h.ObserveAt(peer, Mono())
	if got <= peer {
		t.Fatalf("ObserveAt(%v) = %v, want a reading after the peer's", peer, got)
	}
	// Local reads stay above the adopted reading even though the physical
	// clock is still an hour behind.
	if next := h.NowAt(Mono()); next <= got {
		t.Fatalf("post-observe NowAt %v not after %v", next, got)
	}
}

func TestHLCObserveZeroAndPast(t *testing.T) {
	h := NewHLC(func() time.Time { return hlcEpoch })
	cur := h.NowAt(Mono())
	if got := h.ObserveAt(0, Mono()); got <= cur {
		t.Fatalf("ObserveAt(0) must still advance: %v then %v", cur, got)
	}
	past := packHLC(hlcEpoch.Add(-time.Hour))
	if got := h.ObserveAt(past, Mono()); got <= cur {
		t.Fatalf("observing a lagging peer must not rewind: %v then %v", cur, got)
	}
}

func TestHLCLogicalOverflowRollsIntoPhysical(t *testing.T) {
	h := NewHLC(func() time.Time { return hlcEpoch })
	start := h.NowAt(Mono())
	// Drain the 16-bit logical space; the packed value keeps growing, so
	// ordering survives even a pathological same-millisecond burst.
	var last HLCTime
	for i := 0; i < 1<<16; i++ {
		last = h.NowAt(Mono())
	}
	if last <= start {
		t.Fatal("ordering lost across logical overflow")
	}
	if last.Physical().Before(start.Physical()) {
		t.Fatal("physical component went backwards")
	}
}

func TestHLCConcurrentNowIsStrictlyOrderedPerGoroutine(t *testing.T) {
	h := NewHLC(nil)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			prev := h.NowAt(Mono())
			for i := 0; i < 1000; i++ {
				cur := h.NowAt(Mono())
				if cur <= prev {
					t.Errorf("HLC not monotonic under concurrency: %v then %v", prev, cur)
					return
				}
				prev = cur
			}
		}()
	}
	wg.Wait()
}

// TestRealHLCStampsFromThePassedReading: on the real clock an HLC takes
// its physical time from the caller's Mono reading, not from a clock read
// of its own, so a reading taken ten seconds ago stamps ten seconds ago.
func TestRealHLCStampsFromThePassedReading(t *testing.T) {
	m := Mono() - 10*time.Second
	if got, want := NewHLC(nil).NowAt(m), packHLC(clock.WallAt(m)); got != want {
		t.Fatalf("NowAt(reading 10s ago) = %v, want %v", got, want)
	}
	if got, want := NewHLC(nil).ObserveAt(0, m), packHLC(clock.WallAt(m)); got != want {
		t.Fatalf("ObserveAt(0, reading 10s ago) = %v, want %v", got, want)
	}
	if n := testing.AllocsPerRun(1000, func() {
		h := NodeHLC("hlc-test-allocs")
		h.ObserveAt(h.NowAt(Mono()), Mono())
	}); n != 0 {
		t.Errorf("a stamp and an observe allocate %.0f times, want 0", n)
	}
}

// TestInjectedHLCIgnoresThePassedReading: an HLC on an injected clock reads
// that clock, whatever reading the caller passes.
func TestInjectedHLCIgnoresThePassedReading(t *testing.T) {
	f := clock.NewFake()
	h := NewHLC(f.Now)
	want := packHLC(f.Now())
	for _, m := range []time.Duration{1, Mono(), Mono() + time.Hour} {
		if got := h.NowAt(m); got.Physical() != want.Physical() {
			t.Fatalf("NowAt(%v) on a fake clock = %v, want the fake clock's %v", m, got, want)
		}
	}
}

// TestHLCMonotonicAcrossReanchorAndSwap: a reading a minute ahead forces
// the real clock's anchor to re-read the wall clock and stamps a minute
// ahead; the readings after it, and after a swap to a fake clock decades
// behind, still only go up.
func TestHLCMonotonicAcrossReanchorAndSwap(t *testing.T) {
	h := NewHLC(nil)
	prev := h.NowAt(Mono())
	next := func(what string, m time.Duration) {
		t.Helper()
		cur := h.NowAt(m)
		if cur <= prev {
			t.Fatalf("%s: HLC went back from %v to %v", what, prev, cur)
		}
		prev = cur
	}
	next("a minute ahead", Mono()+time.Minute)
	next("back to now", Mono())
	h.SetNow(clock.NewFake().Now)
	next("swapped to a fake clock", Mono())
	next("on the fake clock", Mono())
}

func TestNodeHLCRegistry(t *testing.T) {
	a := NodeHLC("hlc-test-a")
	if NodeHLC("hlc-test-a") != a {
		t.Fatal("NodeHLC not stable per host")
	}
	if NodeHLC("hlc-test-b") == a {
		t.Fatal("NodeHLC shared across hosts")
	}
}

func TestClockSink(t *testing.T) {
	var s ClockSink
	if s.Last() != 0 {
		t.Fatal("fresh sink not zero")
	}
	s.Set(0) // zero readings are "no reading", never stored
	if s.Last() != 0 {
		t.Fatal("zero reading stored")
	}
	s.Set(42)
	if s.Last() != 42 {
		t.Fatalf("Last = %v", s.Last())
	}

	ctx := WithClockSink(context.Background(), &s)
	if ClockSinkFrom(ctx) != &s {
		t.Fatal("sink lost in context")
	}
	if ClockSinkFrom(context.Background()) != nil {
		t.Fatal("sink invented from empty context")
	}
}

func TestEstimateOffset(t *testing.T) {
	t1 := hlcEpoch
	t4 := hlcEpoch.Add(10 * time.Millisecond)

	// Peer read its clock mid-flight at local midpoint + 30s: offset ~ +30s,
	// uncertainty bounded by half the RTT plus quantization.
	peer := packHLC(hlcEpoch.Add(30*time.Second + 5*time.Millisecond))
	s, ok := EstimateOffset(t1, t4, peer)
	if !ok {
		t.Fatal("estimate rejected")
	}
	if d := s.Offset - 30*time.Second; d < -time.Millisecond || d > time.Millisecond {
		t.Fatalf("offset %v, want ~30s", s.Offset)
	}
	if s.Uncertainty < 5*time.Millisecond || s.Uncertainty > 7*time.Millisecond {
		t.Fatalf("uncertainty %v, want rtt/2 + quantization", s.Uncertainty)
	}

	if _, ok := EstimateOffset(t1, t4, 0); ok {
		t.Fatal("zero peer reading accepted")
	}
	if _, ok := EstimateOffset(t4, t1, peer); ok {
		t.Fatal("negative RTT accepted")
	}
}

func TestOffsetTable(t *testing.T) {
	var tbl OffsetTable
	if _, ok := tbl.Lookup("kiln"); ok {
		t.Fatal("lookup on empty table")
	}
	tbl.Observe(OffsetSample{Peer: "kiln", Offset: time.Second, Uncertainty: time.Millisecond, At: hlcEpoch})
	tbl.Observe(OffsetSample{Peer: "anvil", Offset: -time.Second, Uncertainty: time.Millisecond, At: hlcEpoch})
	tbl.Observe(OffsetSample{}) // nameless samples are dropped, not stored
	s, ok := tbl.Lookup("kiln")
	if !ok || s.Offset != time.Second {
		t.Fatalf("lookup kiln: %v %v", s, ok)
	}
	names := map[string]bool{}
	for _, p := range tbl.Peers() {
		names[p.Peer] = true
	}
	if len(names) != 2 || !names["kiln"] || !names["anvil"] {
		t.Fatalf("peers = %v", names)
	}
}

func TestMeasureOffsetExportsGauges(t *testing.T) {
	host, peer := "measure-test-local", "measure-test-peer"
	t1 := hlcEpoch
	t4 := hlcEpoch.Add(4 * time.Millisecond)
	peerHLC := packHLC(hlcEpoch.Add(90 * time.Second))
	if !MeasureOffset(host, peer, t1, t4, peerHLC) {
		t.Fatal("measurement rejected")
	}
	if MeasureOffset(host, peer, t1, t4, 0) {
		t.Fatal("zero peer reading measured")
	}
	s, ok := NodeOffsets(host).Lookup(peer)
	if !ok {
		t.Fatal("sample not recorded")
	}
	if d := s.Offset - 90*time.Second; d < -5*time.Millisecond || d > 5*time.Millisecond {
		t.Fatalf("offset %v, want ~90s", s.Offset)
	}
	snap := Node(host).Snapshot()
	find := func(name string) float64 {
		for _, s := range snap {
			if s.Name == name {
				return s.Value
			}
		}
		t.Fatalf("no sample %q", name)
		return 0
	}
	if v := find(L("clock_offset_ms", "peer", peer)); v < 89_000 || v > 91_000 {
		t.Fatalf("clock_offset_ms gauge = %v", v)
	}
	if v := find(L("clock_offset_unc_ms", "peer", peer)); v < 1 || v > 10 {
		t.Fatalf("clock_offset_unc_ms gauge = %v", v)
	}
}

func TestMergeEventsHLCAndAmbiguity(t *testing.T) {
	// Node A's wall clock runs an hour fast; HLCs are causally coupled.
	base := packHLC(hlcEpoch)
	evs := []Event{
		{Seq: 1, Node: "a", Time: hlcEpoch.Add(time.Hour), HLC: base + 1, Name: "a_first", Trace: 7},
		{Seq: 1, Node: "b", Time: hlcEpoch.Add(time.Second), HLC: base + 9, Name: "b_second", Trace: 7},
	}
	merged := MergeEvents([]Event{evs[1]}, []Event{evs[0]})
	if merged[0].Name != "a_first" || merged[1].Name != "b_second" {
		t.Fatalf("HLC merge order wrong: %v, %v", merged[0].Name, merged[1].Name)
	}
	// Wall order would reverse it.
	if !evs[1].Time.Before(evs[0].Time) {
		t.Fatal("expected wall order to disagree — fixture no longer proves anything")
	}
	if tr := FilterTrace(merged, 7); len(tr) != 2 || tr[0].Name != "a_first" || tr[1].Name != "b_second" {
		t.Fatalf("FilterTrace = %v", tr)
	}

	// Same trace: causally coupled, never ambiguous even at equal physical.
	if Ambiguous(merged[0], merged[1], time.Hour) {
		t.Fatal("same-trace events flagged ambiguous")
	}
	// Different traces on different nodes within the uncertainty: ambiguous.
	x := Event{Node: "a", HLC: base + 1, Trace: 1}
	y := Event{Node: "b", HLC: base + 2, Trace: 2}
	if !Ambiguous(x, y, 2*time.Millisecond) {
		t.Fatal("near-simultaneous cross-node events not flagged")
	}
	// Outside the uncertainty: ordered.
	z := Event{Node: "b", HLC: packHLC(hlcEpoch.Add(time.Second)), Trace: 2}
	if Ambiguous(x, z, 2*time.Millisecond) {
		t.Fatal("clearly separated events flagged ambiguous")
	}
	// Same node: sequence numbers order them, never ambiguous.
	if Ambiguous(x, Event{Node: "a", HLC: base + 2, Trace: 2}, time.Hour) {
		t.Fatal("same-node events flagged ambiguous")
	}
	// Zero HLCs (pre-upgrade events): unordered by HLC but not flagged.
	if Ambiguous(Event{Node: "a"}, Event{Node: "b"}, time.Hour) {
		t.Fatal("zero-HLC events flagged ambiguous")
	}
}

func TestWriteEventsHLCMarksAmbiguity(t *testing.T) {
	base := packHLC(hlcEpoch)
	evs := []Event{
		{Node: "a", HLC: base, Name: "a_one", Trace: 1},
		{Node: "b", HLC: base + 1, Name: "b_two", Trace: 2},
		{Node: "b", HLC: packHLC(hlcEpoch.Add(time.Minute)), Name: "b_three", Trace: 2},
	}
	var buf strings.Builder
	WriteEvents(&buf, evs, MinUncertainty)
	out := buf.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("got %d lines:\n%s", len(lines), out)
	}
	if lines[0][:2] != "  " || lines[1][:2] != "?~" || lines[2][:2] != "  " {
		t.Fatalf("ambiguity markers wrong:\n%s", out)
	}
}
