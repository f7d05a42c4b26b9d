package obs

// ring keeps the newest max values pushed into it: it fills to max, then
// overwrites the oldest.  Its owner's mutex guards it.  Storage may be
// preallocated (buf with capacity max) or left to grow as values arrive.
type ring[T any] struct {
	buf  []T
	next int // overwrite position once full
	max  int
}

func (r *ring[T]) push(v T) {
	if len(r.buf) < r.max {
		r.buf = append(r.buf, v)
		return
	}
	r.buf[r.next] = v
	r.next = (r.next + 1) % r.max
}

// items returns a copy of the contents, oldest first.
func (r *ring[T]) items() []T {
	out := make([]T, 0, len(r.buf))
	if len(r.buf) == r.max {
		out = append(out, r.buf[r.next:]...)
		return append(out, r.buf[:r.next]...)
	}
	return append(out, r.buf...)
}
