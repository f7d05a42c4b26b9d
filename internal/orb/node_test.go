package orb

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"itv/internal/obs"
	"itv/internal/oref"
	"itv/internal/wire"
)

// nodeProbes gives each node operation the arguments to call it with and a
// projection of its decoded result onto the state TestNodeTable planted, so
// results compare equal across calls whatever the node's counters and clocks
// did in between.
var nodeProbes = map[string]struct {
	put     func(*wire.Encoder)
	project func(*wire.Decoder) string
}{
	"_ping": {project: func(d *wire.Decoder) string { return fmt.Sprint(d.Remaining()) }},
	"_metrics": {project: func(d *wire.Decoder) string {
		for _, s := range obs.ParseText(d.String()) {
			if s.Name == "node_table_probe" {
				return fmt.Sprint(s.Value)
			}
		}
		return "no probe counter"
	}},
	"_events": {project: func(d *wire.Decoder) string {
		var b strings.Builder
		for _, ev := range decodeEvents(d) {
			if ev.Name == "node_table_probe" {
				fmt.Fprintf(&b, "%d:%s ", ev.Seq, ev.Detail)
			}
		}
		return b.String()
	}},
	"_health": {
		put: func(e *wire.Encoder) { e.PutUint(2) },
		project: func(d *wire.Decoder) string {
			r := decodeHealth(d)
			return fmt.Sprintf("%s windows=%d", r.Node, len(r.Windows))
		},
	},
	"_slow": {project: func(d *wire.Decoder) string {
		var b strings.Builder
		for _, c := range decodeSlowCalls(d).Calls {
			if c.Method == "node_table_probe" {
				fmt.Fprintf(&b, "%d:%s ", c.Seq, c.Total)
			}
		}
		return b.String()
	}},
	"_profile": {
		// A nonzero offset pages the buffered profile and collects nothing.
		put: func(e *wire.Encoder) {
			e.PutString("heap")
			e.PutUint(0)
			e.PutUint(0)
			e.PutUint(1)
		},
		project: func(d *wire.Decoder) string {
			total, chunk := d.Uint(), d.BytesView()
			return fmt.Sprintf("total=%d chunk=%d of %x", total, len(chunk), chunk[:1])
		},
	},
}

// TestNodeTable calls every row of the node table remotely and locally,
// through a good reference and through one naming a stale incarnation and an
// object nobody registered: a node operation answers all four the same way,
// and _ping — the one row that validates its reference — answers the good
// reference only.
func TestNodeTable(t *testing.T) {
	server, client, ref := newAttribPair(t, "192.168.7.20", "10.7.0.20")

	server.Metrics().Counter("node_table_probe").Add(7)
	at := time.Unix(100, 0)
	server.Recorder().Record(at, 0, "node_table_probe", "one")
	server.Recorder().Record(at, 0, "node_table_probe", "two")
	health := obs.NodeHealth(server.Host())
	for i := 0; i < 4; i++ {
		health.Sample(at.Add(time.Duration(i) * time.Second))
	}
	server.ledger.Record(obs.SlowCall{Method: "node_table_probe", Total: time.Second})
	server.profMu.Lock()
	server.profBuf = bytes.Repeat([]byte{0xab}, profileChunk+16)
	server.profMu.Unlock()

	good := NodeRef(server.Addr())
	good.ObjectID = ref.ObjectID
	stale := good
	stale.Incarnation = server.Incarnation() + 1
	stale.ObjectID = "nobody-registered-this"

	for _, op := range nodeOps {
		probe, ok := nodeProbes[op.name]
		if !ok {
			t.Errorf("%s: node table row without a probe in this test", op.name)
			continue
		}
		call := func(ep *Endpoint, r oref.Ref) (string, error) {
			var got string
			err := ep.Invoke(r, op.name, probe.put, func(d *wire.Decoder) error {
				got = probe.project(d)
				return nil
			})
			return got, err
		}
		want, err := call(client, good)
		if err != nil || want == "" {
			t.Errorf("%s remote: %q, %v", op.name, want, err)
			continue
		}
		if got, err := call(server, good); err != nil || got != want {
			t.Errorf("%s local: %q, %v; remote said %q", op.name, got, err, want)
		}
		for _, ep := range []*Endpoint{client, server} {
			got, err := call(ep, stale)
			switch {
			case op.validated:
				if !errors.Is(err, ErrInvalidReference) {
					t.Errorf("%s through a stale reference from %s: %q, %v, want ErrInvalidReference", op.name, ep.Host(), got, err)
				}
			case err != nil || got != want:
				t.Errorf("%s through a stale reference from %s: %q, %v, want %q", op.name, ep.Host(), got, err, want)
			}
		}
	}
}

// TestLocalCallGetsRemoteDispatch pins that a co-located call runs the
// dispatch a remote one does: a panicking skeleton is a ServerPanic
// exception, not the end of the process, and the call is counted.
func TestLocalCallGetsRemoteDispatch(t *testing.T) {
	server, _, _, ref := newPair(t)
	dispatches := counterDelta(server.Metrics(), "orb_server_dispatches")
	appErrs := counterDelta(server.Metrics(), "orb_server_app_errors")

	if err := server.Invoke(ref, "panic", nil, nil); !IsApp(err, "ServerPanic") {
		t.Fatalf("local panic = %v, want ServerPanic", err)
	}
	if got, err := echo(t, server, ref, "still up"); err != nil || got != "still up" {
		t.Fatalf("local echo after panic = %q, %v", got, err)
	}
	if err := server.Invoke(ref, "echo", nil, nil); !IsApp(err, ExcBadArgs) {
		t.Fatalf("local echo without its argument = %v, want %s", err, ExcBadArgs)
	}
	if got := dispatches(); got != 3 {
		t.Errorf("orb_server_dispatches delta = %d, want 3", got)
	}
	if got := appErrs(); got != 2 {
		t.Errorf("orb_server_app_errors delta = %d, want 2", got)
	}
	if got := server.Metrics().Gauge("orb_server_inflight").Value(); got != 0 {
		t.Errorf("orb_server_inflight = %d after the calls returned", got)
	}
}

// allocated returns how many bytes f allocates.
func allocated(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestHostileCountAllocatesNothing: a reply claiming 2^20 events at one
// byte an event is short of the seven bytes an event takes at least, and
// fails before anything is sized by the claim (96 MiB of events).
func TestHostileCountAllocatesNothing(t *testing.T) {
	e := new(wire.Encoder)
	e.PutUint(1 << 20) // the wire's limit, in 1 MiB
	e.PutRaw(make([]byte, 1<<20))
	var d wire.Decoder
	d.Reset(e.Bytes())
	if n := allocated(func() { decodeEvents(&d) }); !errors.Is(d.Err(), wire.ErrTruncated) || n > 64<<10 {
		t.Errorf("%v after %d bytes allocated; want wire.ErrTruncated after next to none", d.Err(), n)
	}
}

// FuzzNodeReplies feeds the decoders of the node operations' replies —
// events, health, slow calls — arbitrary bodies: none panics, and none
// allocates more than 64 bytes a byte of its input, plus 4 KiB.
func FuzzNodeReplies(f *testing.F) {
	e := new(wire.Encoder)
	appendEvents(e, []obs.Event{{Seq: 1, Node: "n", Name: "x", Detail: "d"}})
	f.Add(bytes.Clone(e.Bytes()))
	f.Add([]byte{0x80, 0x80, 0x40, 0, 0, 0}) // a count of 2^20
	decoders := map[string]func(*wire.Decoder){
		"events": func(d *wire.Decoder) { decodeEvents(d) },
		"health": func(d *wire.Decoder) { decodeHealth(d) },
		"slow":   func(d *wire.Decoder) { decodeSlowCalls(d) },
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		for name, decode := range decoders {
			var d wire.Decoder
			d.Reset(body)
			if n := allocated(func() { decode(&d) }); n > 64*uint64(len(body))+4<<10 {
				t.Errorf("%s: %d bytes allocated decoding %d", name, n, len(body))
			}
		}
	})
}
