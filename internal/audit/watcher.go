package audit

import (
	"sync"
	"time"

	"itv/internal/clock"
	"itv/internal/oref"
)

// Watcher is the client-side callback library of §7.2: the RAS exports
// only checkStatus, and this library turns it into callbacks by polling on
// behalf of the registering service.  The advantage over a server-side
// callback interface is that the RAS need not remember callbacks across
// failures.
//
// The Media Management Service uses a Watcher to learn of settop deaths
// and reclaim movie resources (§3.5.1).
type Watcher struct {
	ras      Stub
	clk      clock.Clock
	interval time.Duration

	mu      sync.Mutex
	watches map[oref.Ref]watch // by watchKey

	stop chan struct{}
	done chan struct{}
}

type watch struct {
	ref    oref.Ref
	onDead func(oref.Ref)
}

// watchKey identifies a watched object incarnation — what Ref.Key spells
// out as a string — as a comparable value, so a watch set and cancelled
// around every movie session allocates no key.
func watchKey(ref oref.Ref) oref.Ref {
	ref.TypeID = ""
	return ref
}

// NewWatcher starts a watcher polling the given RAS every interval.
func NewWatcher(ras Stub, clk clock.Clock, interval time.Duration) *Watcher {
	w := &Watcher{
		ras:      ras,
		clk:      clk,
		interval: interval,
		watches:  make(map[oref.Ref]watch),
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	go w.run()
	return w
}

// Watch registers onDead to fire once if the entity behind ref dies.
func (w *Watcher) Watch(ref oref.Ref, onDead func(oref.Ref)) {
	w.mu.Lock()
	w.watches[watchKey(ref)] = watch{ref: ref, onDead: onDead}
	w.mu.Unlock()
}

// Cancel stops watching ref (the resource was released normally).
func (w *Watcher) Cancel(ref oref.Ref) {
	w.mu.Lock()
	delete(w.watches, watchKey(ref))
	w.mu.Unlock()
}

// Watching reports the number of active watches.
func (w *Watcher) Watching() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return len(w.watches)
}

// Close stops the watcher.
func (w *Watcher) Close() {
	select {
	case <-w.stop:
	default:
		close(w.stop)
		<-w.done
	}
}

func (w *Watcher) run() {
	defer close(w.done)
	tick := w.clk.NewTicker(w.interval)
	defer tick.Stop()
	for {
		select {
		case <-w.stop:
			return
		case <-tick.C():
			w.pollOnce()
		}
	}
}

func (w *Watcher) pollOnce() {
	w.mu.Lock()
	refs := make([]oref.Ref, 0, len(w.watches))
	for _, wt := range w.watches {
		refs = append(refs, wt.ref)
	}
	w.mu.Unlock()
	if len(refs) == 0 {
		return
	}
	alive, _, err := w.ras.CheckStatus(refs)
	if err != nil || len(alive) != len(refs) {
		return // RAS momentarily unavailable; state rebuilds on its own
	}
	var dead []watch
	w.mu.Lock()
	for i, ref := range refs {
		if !alive[i] {
			k := watchKey(ref)
			if wt, ok := w.watches[k]; ok {
				dead = append(dead, wt)
				delete(w.watches, k)
			}
		}
	}
	w.mu.Unlock()
	for _, wt := range dead {
		wt.onDead(wt.ref)
	}
}
