package clock

import (
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestRealClockNow(t *testing.T) {
	c := Real()
	a := c.Now()
	b := c.Now()
	if b.Before(a) {
		t.Fatalf("real clock went backwards: %v then %v", a, b)
	}
}

func TestRealClockTicker(t *testing.T) {
	c := Real()
	tk := c.NewTicker(time.Millisecond)
	defer tk.Stop()
	select {
	case <-tk.C():
	case <-time.After(time.Second):
		t.Fatal("real ticker never fired")
	}
}

func TestFakeAfterFiresAtDeadline(t *testing.T) {
	f := NewFake()
	ch := f.After(10 * time.Second)
	f.Advance(9 * time.Second)
	select {
	case <-ch:
		t.Fatal("fired early")
	default:
	}
	f.Advance(time.Second)
	select {
	case got := <-ch:
		want := NewFake().Now().Add(10 * time.Second)
		if !got.Equal(want) {
			t.Fatalf("fired at %v, want %v", got, want)
		}
	default:
		t.Fatal("did not fire at deadline")
	}
}

func TestFakeAfterZeroDuration(t *testing.T) {
	f := NewFake()
	ch := f.After(0)
	f.Advance(0)
	select {
	case <-ch:
	default:
		t.Fatal("zero-duration timer did not fire on Advance(0)")
	}
}

func TestFakeTickerPeriodic(t *testing.T) {
	f := NewFake()
	tk := f.NewTicker(5 * time.Second)
	defer tk.Stop()
	fired := 0
	for i := 0; i < 3; i++ {
		f.Advance(5 * time.Second)
		select {
		case <-tk.C():
			fired++
		default:
			t.Fatalf("tick %d missing", i)
		}
	}
	if fired != 3 {
		t.Fatalf("fired %d times, want 3", fired)
	}
}

func TestFakeTickerDropsMissedTicks(t *testing.T) {
	f := NewFake()
	tk := f.NewTicker(time.Second)
	defer tk.Stop()
	f.Advance(10 * time.Second) // 10 ticks due, buffer of 1
	n := 0
	for {
		select {
		case <-tk.C():
			n++
			continue
		default:
		}
		break
	}
	if n != 1 {
		t.Fatalf("received %d ticks, want 1 (extra ticks must be dropped)", n)
	}
}

func TestFakeTickerStop(t *testing.T) {
	f := NewFake()
	tk := f.NewTicker(time.Second)
	tk.Stop()
	f.Advance(5 * time.Second)
	select {
	case <-tk.C():
		t.Fatal("stopped ticker fired")
	default:
	}
	if f.Waiters() != 0 {
		t.Fatalf("stopped ticker still counted as waiter: %d", f.Waiters())
	}
}

func TestFakeOrderingAtSameInstant(t *testing.T) {
	f := NewFake()
	first := f.After(time.Second)
	second := f.After(time.Second)
	f.Advance(time.Second)
	// Both fire; creation order is preserved by seq tie-break.  We can only
	// observe both fired since delivery is via independent channels.
	for i, ch := range []<-chan time.Time{first, second} {
		select {
		case <-ch:
		default:
			t.Fatalf("timer %d did not fire", i)
		}
	}
}

func TestFakeSleepUnblocks(t *testing.T) {
	f := NewFake()
	var wg sync.WaitGroup
	wg.Add(1)
	started := make(chan struct{})
	go func() {
		defer wg.Done()
		close(started)
		f.Sleep(3 * time.Second)
	}()
	<-started
	// Let the sleeper register its waiter.
	for f.Waiters() == 0 {
		time.Sleep(100 * time.Microsecond)
	}
	f.Advance(3 * time.Second)
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("Sleep did not unblock after Advance")
	}
}

func TestFakeSinceTracksAdvance(t *testing.T) {
	f := NewFake()
	start := f.Now()
	f.Advance(42 * time.Second)
	if got := f.Since(start); got != 42*time.Second {
		t.Fatalf("Since = %v, want 42s", got)
	}
}

func TestFakeAdvancePartialStepsAccumulate(t *testing.T) {
	f := NewFake()
	ch := f.After(time.Second)
	for i := 0; i < 10; i++ {
		f.Advance(100 * time.Millisecond)
	}
	select {
	case <-ch:
	default:
		t.Fatal("timer did not fire after accumulated advances")
	}
}

func TestWithOffsetShiftsNowOnly(t *testing.T) {
	f := NewFake()
	if c := WithOffset(f, 0); c != Clock(f) {
		t.Fatal("zero offset should return the base clock unchanged")
	}
	c := WithOffset(f, time.Hour)
	if got, want := c.Now(), f.Now().Add(time.Hour); !got.Equal(want) {
		t.Fatalf("Now = %v, want %v", got, want)
	}

	// Since measures against the shifted Now, so durations of events
	// timestamped by the same skewed clock stay correct.
	start := c.Now()
	f.Advance(time.Minute)
	if got := c.Since(start); got != time.Minute {
		t.Fatalf("Since = %v, want 1m", got)
	}

	// Timers delegate to base: a skewed clock runs at the same rate and
	// fires on the same schedule.
	ch := c.After(10 * time.Second)
	f.Advance(9 * time.Second)
	select {
	case <-ch:
		t.Fatal("offset clock timer fired early")
	default:
	}
	f.Advance(time.Second)
	select {
	case <-ch:
	default:
		t.Fatal("offset clock timer did not fire at the base deadline")
	}

	tk := c.NewTicker(time.Second)
	defer tk.Stop()
	f.Advance(time.Second)
	select {
	case <-tk.C():
	default:
		t.Fatal("offset clock ticker did not tick")
	}
}

func TestWithOffsetNegative(t *testing.T) {
	f := NewFake()
	c := WithOffset(f, -30*time.Minute)
	if got, want := c.Now(), f.Now().Add(-30*time.Minute); !got.Equal(want) {
		t.Fatalf("Now = %v, want %v", got, want)
	}
}

// TestSettleWaitsForComputation: a goroutine that takes its tick and then
// computes for 5 ms of real time before it records the result has done so
// by the time Settle returns — however long the computation outlasts a
// scheduler yield.
func TestSettleWaitsForComputation(t *testing.T) {
	clk := NewFake()
	tick := clk.After(time.Second)
	var done atomic.Bool
	go func() {
		<-tick
		for start := time.Now(); time.Since(start) < 5*time.Millisecond; {
		}
		done.Store(true)
	}()
	clk.Advance(time.Second)
	clk.Settle()
	if !done.Load() {
		t.Fatal("Settle returned while the ticked goroutine was still computing")
	}
}

// TestSettleIdleIsCheap: settling a world with nothing to do costs one
// goroutine dump and some yields, not a real-time pause, so a fake-clock
// walk through hours of simulated seconds stays fast.  It counts the dumps;
// the wall time, which a loaded machine stretches, is only logged.
func TestSettleIdleIsCheap(t *testing.T) {
	clk := NewFake()
	start := time.Now()
	for i := 0; i < 1000; i++ {
		clk.Settle()
	}
	t.Logf("1000 idle settles took %v", time.Since(start))
	clk.dumpMu.Lock()
	defer clk.dumpMu.Unlock()
	if clk.dumps != 1000 {
		t.Fatalf("1000 idle settles took %d goroutine dumps, want one each", clk.dumps)
	}
}

// TestSettlePanicsOnSpinner: a goroutine that never blocks is reported by
// name once the cap passes, instead of letting the next Advance race it.
func TestSettlePanicsOnSpinner(t *testing.T) {
	var stop atomic.Bool
	defer stop.Store(true)
	go spin(&stop)
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "clock.spin(") {
			t.Fatalf("panic %q does not name the spinning goroutine", msg)
		}
	}()
	NewFake().settle(50 * time.Millisecond)
	t.Fatal("settle returned while a goroutine spins")
}

func spin(stop *atomic.Bool) {
	for !stop.Load() {
	}
}
