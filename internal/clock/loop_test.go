package clock

import (
	"sync"
	"testing"
	"time"
)

// ticks records the times a loop's f was called with.
type ticks struct {
	mu  sync.Mutex
	got []time.Time
}

func (k *ticks) add(now time.Time) {
	k.mu.Lock()
	k.got = append(k.got, now)
	k.mu.Unlock()
}

func (k *ticks) times() []time.Time {
	k.mu.Lock()
	defer k.mu.Unlock()
	return append([]time.Time(nil), k.got...)
}

// TestEveryIsArmedAtItsStart: the first tick comes exactly d after Every,
// even when simulated time moves before the loop's goroutine has run once.
func TestEveryIsArmedAtItsStart(t *testing.T) {
	clk := NewFake()
	start := clk.Now()
	var k ticks
	l := Every(clk, 10*time.Second, false, k.add)
	defer l.Stop()
	clk.Advance(10*time.Second - time.Nanosecond)
	clk.Settle()
	if got := k.times(); len(got) != 0 {
		t.Fatalf("ran at %v, before its first period ended", got)
	}
	clk.Advance(time.Nanosecond)
	clk.Settle()
	clk.Advance(10 * time.Second)
	clk.Settle()
	got := k.times()
	if len(got) != 2 || !got[0].Equal(start.Add(10*time.Second)) || !got[1].Equal(start.Add(20*time.Second)) {
		t.Fatalf("ran at %v, want +10s and +20s", got)
	}
}

// TestEveryAtStart: with atStart, f runs once before the first tick, at
// the reading Every was called at, and then on the ticks.
func TestEveryAtStart(t *testing.T) {
	clk := NewFake()
	start := clk.Now()
	var k ticks
	l := Every(clk, 10*time.Second, true, k.add)
	defer l.Stop()
	clk.Settle()
	clk.Advance(10 * time.Second)
	clk.Settle()
	got := k.times()
	if len(got) != 2 || !got[0].Equal(start) || !got[1].Equal(start.Add(10*time.Second)) {
		t.Fatalf("ran at %v, want +0s and +10s", got)
	}
}

// TestLoopStopIsSafe: Stop on a nil loop, a stopped one and from several
// goroutines at once returns, and no tick runs f after it.
func TestLoopStopIsSafe(t *testing.T) {
	var nilLoop *Loop
	nilLoop.Stop()

	clk := NewFake()
	var k ticks
	l := Every(clk, time.Second, false, k.add)
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			l.Stop()
		}()
	}
	wg.Wait()
	l.Stop()
	clk.Advance(time.Minute)
	clk.Settle()
	if got := k.times(); len(got) != 0 {
		t.Fatalf("a stopped loop ran at %v", got)
	}
	if n := clk.Waiters(); n != 0 {
		t.Fatalf("a stopped loop left %d waiters armed", n)
	}
}

// TestLoopStopWaitsForTheRunInProgress: Stop returns only once the run of
// f it found in progress has finished.
func TestLoopStopWaitsForTheRunInProgress(t *testing.T) {
	clk := NewFake()
	entered := make(chan struct{})
	release := make(chan struct{})
	var finished bool // written by f, read after Stop returns
	l := Every(clk, time.Second, false, func(time.Time) {
		close(entered)
		<-release
		finished = true
	})
	clk.Advance(time.Second)
	<-entered
	stopped := make(chan struct{})
	go func() {
		l.Stop()
		close(stopped)
	}()
	clk.Settle()
	select {
	case <-stopped:
		t.Fatal("Stop returned while f was still running")
	default:
	}
	close(release)
	<-stopped
	if !finished {
		t.Fatal("Stop returned before f finished")
	}
}
