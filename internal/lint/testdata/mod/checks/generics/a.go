// Package generics pins that the loader and the dataflow analyzers
// handle type parameters: everything here must load, type-check, and
// analyze without a single finding.
package generics

import "sync"

type box[T any] struct{ v T }

// A concrete pool pair over a generic type: recognized and tracked.
func getBox() *box[int]  { return &box[int]{} }
func putBox(b *box[int]) {}

func useBox(cond bool) {
	b := getBox()
	if cond {
		putBox(b)
		return
	}
	b.v++
	putBox(b)
}

// A generic pair: instantiated calls must not confuse the matcher.
func getGen[T any]() *box[T]  { return &box[T]{} }
func putGen[T any](b *box[T]) {}

func useGen() {
	b := getGen[string]()
	putGen(b)
}

// Type-param locals, range loops, and multi-result returns through the
// CFG builder.
func mapKeys[K comparable, V any](m map[K]V) []K {
	out := make([]K, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}

func first[T any](xs []T, pred func(T) bool) (T, bool) {
	for _, x := range xs {
		if pred(x) {
			return x, true
		}
	}
	var zero T
	return zero, false
}

// A generic guarded container: mutexacrossrpc must recognize the mutex
// through the instantiated receiver without panicking.
type guarded[T any] struct {
	mu  sync.Mutex
	val T
}

func (g *guarded[T]) set(v T) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.val = v
}

func (g *guarded[T]) get() T {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.val
}

func swap[T any](a, b *guarded[T]) {
	a.mu.Lock()
	b.mu.Lock()
	v := a.val
	a.val = b.val
	b.val = v
	b.mu.Unlock()
	a.mu.Unlock()
}
