package poolown

import (
	"io"

	"golden/internal/wire"
)

// Same-package pool pair, recognized by naming convention.
type thing struct{ n int }

func getThing() *thing  { return &thing{} }
func putThing(t *thing) {}

// ---- ownership: positive cases ----

func leakOnOnePath(cond bool) {
	e := wire.GetEncoder() // want "not released on every path"
	e.PutInt(1)
	if cond {
		wire.PutEncoder(e)
	}
}

func leakEverywhere() {
	e := wire.GetEncoder() // want "never released"
	e.PutInt(1)
}

func useAfterPut() {
	e := wire.GetEncoder()
	wire.PutEncoder(e)
	e.PutInt(1) // want "used after release"
}

func doublePut() {
	t := getThing()
	putThing(t)
	putThing(t) // want "released twice"
}

func putAfterSend(ch chan *thing) {
	t := getThing()
	ch <- t
	putThing(t) // want "released after its ownership was handed off"
}

func discarded() {
	wire.GetEncoder() // want "discarded"
}

func discardedBlank() {
	_ = wire.GetEncoder() // want "discarded"
}

func overwrittenInLoop(n int) {
	t := getThing() // first acquire leaks when the loop reassigns
	for i := 0; i < n; i++ {
		t = getThing() // want "overwritten while holding a live pooled value"
	}
	putThing(t)
}

func mayUseAfterRelease(cond bool) {
	t := getThing()
	if cond {
		putThing(t)
	}
	_ = t.n     // want "may be used after release"
	putThing(t) // want "may already be released"
}

// ---- ownership: negative cases ----

func okStraight() {
	e := wire.GetEncoder()
	e.PutInt(1)
	wire.PutEncoder(e)
}

func okDeferred() {
	e := wire.GetEncoder()
	defer wire.PutEncoder(e)
	e.PutInt(1)
}

func okBranches(cond bool) {
	e := wire.GetEncoder()
	if cond {
		wire.PutEncoder(e)
		return
	}
	e.PutInt(2)
	wire.PutEncoder(e)
}

func okHandoffSend(ch chan *thing) {
	t := getThing()
	ch <- t // ownership moves to the receiver
}

func okHandoffReturn() *thing {
	t := getThing()
	return t // ownership moves to the caller
}

func okHandoffClosure(run func(func())) {
	t := getThing()
	run(func() {
		putThing(t) // the closure owns it now
	})
}

func okLoopRecycle(ch chan *thing, n int) {
	for i := 0; i < n; i++ {
		t := getThing()
		if i%2 == 0 {
			putThing(t)
			continue
		}
		ch <- t
	}
}

func okMove() {
	t := getThing()
	u := t // move, not a copy: the release under the new name counts
	putThing(u)
}

func okSwitch(mode int) {
	t := getThing()
	switch mode {
	case 0:
		putThing(t)
	default:
		putThing(t)
	}
}

// ---- aliases: positive cases ----

type msg struct{ Body []byte }

var global []byte

func aliasField(d *wire.Decoder, m *msg) {
	v := d.BytesView()
	m.Body = v // want "escapes the frame buffer"
}

func aliasGlobal(d *wire.Decoder) {
	global = d.BytesView() // want "package variable"
}

func aliasGlobalVar(d *wire.Decoder) {
	v := d.BytesView()
	global = v // want "package variable"
}

func aliasSend(d *wire.Decoder, ch chan []byte) {
	v := d.BytesView()
	ch <- v // want "sent on a channel"
}

func aliasReturn(d *wire.Decoder) []byte {
	v := d.BytesView()
	return v // want "returned to the caller"
}

func aliasClosure(d *wire.Decoder, spawn func(func())) {
	v := d.BytesView()
	spawn(func() {
		_ = v // want "captured by a closure"
	})
}

func aliasPropagates(d *wire.Decoder, m *msg) {
	v := d.BytesView()
	w := v     // local copy still aliases
	m.Body = w // want "escapes the frame buffer"
}

// ---- aliases: negative cases ----

// UnmarshalWire may store views into its own receiver: the decoded
// message owns them until the next Reset.
func (m *msg) UnmarshalWire(d *wire.Decoder) {
	m.Body = d.BytesView()
}

func aliasLocalUse(d *wire.Decoder) int {
	v := d.BytesView()
	return len(v) // using the view inside the frame's lifetime is fine
}

type frameBox struct{ buf []byte }

func recycleSanctioned(r io.Reader, f *frameBox) error {
	frame, err := wire.ReadFrameInto(r, f.buf)
	if err != nil {
		return err
	}
	f.buf = frame // sanctioned: stored back into the slot it was read from
	return nil
}

// serveLoop is the read loop's recycle: each frame goes back into the slot
// the next one is read into.
func serveLoop(fr *wire.FrameReader, f *frameBox) error {
	for {
		frame, err := fr.Next(f.buf)
		if err != nil {
			return err
		}
		f.buf = frame // sanctioned: stored back into the slot it was read from
	}
}

func frameKept(fr *wire.FrameReader, f *frameBox, m *msg) error {
	frame, err := fr.Next(f.buf)
	if err != nil {
		return err
	}
	m.Body = frame // want "FrameReader.Next alias stored to m.Body escapes the frame buffer"
	return nil
}

func recycleLocal(r io.Reader, buf []byte) int {
	got, err := wire.ReadFrameInto(r, buf)
	if err != nil {
		return 0
	}
	buf = got // plain local rebinding stays inside the frame's lifetime
	return len(buf)
}
