package clock

import (
	"sync"
	"time"
)

// Loop is a periodic task: every poll, ping, heartbeat and bind retry in
// the system is one.  The fail-over bound of §9.7 is arithmetic over these
// loops' periods, so they share one phase rule and one stop rule.
type Loop struct {
	once sync.Once
	stop chan struct{}
	done chan struct{}
}

// Every runs f on one goroutine every d of clk until Stop, passing each
// tick's time.  The ticker is armed before Every returns, so the first tick
// comes exactly d after the call however late the goroutine first runs.
// With atStart, f also runs as soon as the goroutine starts, with clk's
// reading then.
func Every(clk Clock, d time.Duration, atStart bool, f func(time.Time)) *Loop {
	l := &Loop{stop: make(chan struct{}), done: make(chan struct{})}
	tick := clk.NewTicker(d)
	go func() {
		defer close(l.done)
		defer tick.Stop()
		if atStart {
			f(clk.Now())
		}
		for {
			select {
			case <-l.stop:
				return
			case now := <-tick.C():
				f(now)
			}
		}
	}()
	return l
}

// Stop ends the loop and returns once a run of f already in progress has
// finished; no run starts after it returns.  It is safe on a nil Loop, a
// stopped one, and from several goroutines at once, but not from f.
func (l *Loop) Stop() {
	if l == nil {
		return
	}
	l.once.Do(func() { close(l.stop) })
	<-l.done
}
