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
	ras Stub

	mu      sync.Mutex
	watches map[oref.Ref]watch // by watchKey

	loop *clock.Loop
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
		ras:     ras,
		watches: make(map[oref.Ref]watch),
	}
	w.loop = clock.Every(clk, interval, false, func(time.Time) { w.pollOnce() })
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
func (w *Watcher) Close() { w.loop.Stop() }

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
