package orb

import (
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"itv/internal/obs"
	"itv/internal/transport"
	"itv/internal/wire"
)

// counterDelta reads a counter now and returns a func reporting how much it
// has grown since.  Node registries accumulate for process life (tests
// share synthetic IPs), so assertions are always on deltas.
func counterDelta(r *obs.Registry, name string) func() int64 {
	start := r.Counter(name).Value()
	return func() int64 { return r.Counter(name).Value() - start }
}

func TestInvokeMetrics(t *testing.T) {
	server, client, _, ref := newPair(t)
	creg, sreg := client.Metrics(), server.Metrics()
	calls := counterDelta(creg, "orb_client_calls")
	hits := counterDelta(creg, "orb_pool_hits")
	dials := counterDelta(creg, "orb_pool_dials")
	dispatches := counterDelta(sreg, "orb_server_dispatches")
	appErrs := counterDelta(sreg, "orb_server_app_errors")

	latName := obs.L("orb_call_latency", "method", "test.Echo.echo")
	lat0 := creg.Histogram(latName).Count()

	for i := 0; i < 3; i++ {
		if _, err := echo(t, client, ref, "hi"); err != nil {
			t.Fatal(err)
		}
	}
	if err := client.Invoke(ref, "fail",
		func(enc *wire.Encoder) { enc.PutString("gone") }, nil); !IsApp(err, ExcNotFound) {
		t.Fatalf("fail = %v", err)
	}

	if got := calls(); got != 4 {
		t.Errorf("orb_client_calls delta = %d, want 4", got)
	}
	if got := dials(); got != 1 {
		t.Errorf("orb_pool_dials delta = %d, want 1", got)
	}
	if got := hits(); got != 3 {
		t.Errorf("orb_pool_hits delta = %d, want 3", got)
	}
	if got := dispatches(); got != 4 {
		t.Errorf("orb_server_dispatches delta = %d, want 4", got)
	}
	if got := appErrs(); got != 1 {
		t.Errorf("orb_server_app_errors delta = %d, want 1", got)
	}
	if got := creg.Histogram(latName).Count() - lat0; got != 3 {
		t.Errorf("echo latency observations delta = %d, want 3", got)
	}
}

func TestMetricsRPC(t *testing.T) {
	server, client, _, ref := newPair(t)
	if _, err := echo(t, client, ref, "warm"); err != nil {
		t.Fatal(err)
	}
	// Remote scrape of the server's node registry, with no valid reference.
	text, err := client.MetricsOf(server.Addr())
	if err != nil {
		t.Fatalf("MetricsOf: %v", err)
	}
	if !strings.Contains(text, "orb_server_dispatches") {
		t.Errorf("scrape missing dispatch counter:\n%s", text)
	}
	if !strings.Contains(text, "transport_bytes_sent") {
		t.Errorf("scrape missing transport counters:\n%s", text)
	}
	// Local short-circuit scrape (same address).
	text, err = server.MetricsOf(server.Addr())
	if err != nil {
		t.Fatalf("local MetricsOf: %v", err)
	}
	if !strings.Contains(text, "orb_server_dispatches") {
		t.Errorf("local scrape missing dispatch counter:\n%s", text)
	}
}

// TestReadErrorClassified severs the network mid-call and checks the
// client reports a wrapped read error — still ErrUnreachable for rebinding
// purposes, but carrying the real cause and counted as a read error, not a
// decode error.
func TestReadErrorClassified(t *testing.T) {
	nw := transport.NewNetwork()
	server, err := NewEndpoint(nw.Host("192.168.0.1"))
	if err != nil {
		t.Fatal(err)
	}
	// A host name of its own: "10.1.0.5" shares a registry with every other
	// test's client, whose connections die (and count a read error) on
	// their own schedule after those tests return.
	client, err := NewEndpoint(nw.Host(perRun("10.1.0.5")))
	if err != nil {
		t.Fatal(err)
	}
	skel := &echoSkel{block: make(chan struct{})}
	t.Cleanup(func() { server.Close(); client.Close() })
	t.Cleanup(func() { close(skel.block) }) // unblock dispatch before Close waits
	ref := server.Register("", skel)

	readErrs := counterDelta(client.Metrics(), "orb_conn_read_errors")
	decodeErrs := counterDelta(client.Metrics(), "orb_conn_decode_errors")

	var wg sync.WaitGroup
	wg.Add(1)
	var callErr error
	go func() {
		defer wg.Done()
		callErr = client.Invoke(ref, "block", nil, nil)
	}()
	// Wait for the call to arrive at the skeleton, then cut the server's
	// host: every connection is severed, as in a machine crash.
	deadline := time.Now().Add(2 * time.Second)
	for {
		skel.mu.Lock()
		n := len(skel.callers)
		skel.mu.Unlock()
		if n > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("call never reached the skeleton")
		}
		time.Sleep(time.Millisecond)
	}
	nw.Cut("192.168.0.1")
	wg.Wait()

	if callErr == nil {
		t.Fatal("call against killed server succeeded")
	}
	if !Dead(callErr) {
		t.Fatalf("err %v is not Dead", callErr)
	}
	var ce *ConnError
	if !errors.As(callErr, &ce) {
		t.Fatalf("err %v is not a ConnError", callErr)
	}
	if ce.Op != "read" {
		t.Fatalf("ConnError.Op = %q, want read (err %v)", ce.Op, callErr)
	}
	if ce.Err == nil {
		t.Fatal("ConnError lost the underlying cause")
	}
	if got := readErrs(); got != 1 {
		t.Errorf("orb_conn_read_errors delta = %d, want 1", got)
	}
	if got := decodeErrs(); got != 0 {
		t.Errorf("orb_conn_decode_errors delta = %d, want 0", got)
	}
}

func TestConnErrorUnwrap(t *testing.T) {
	cause := errors.New("pipe torn")
	err := &ConnError{Op: "read", Err: cause}
	if !errors.Is(err, ErrUnreachable) {
		t.Error("ConnError does not match ErrUnreachable")
	}
	if !errors.Is(err, cause) {
		t.Error("ConnError does not match its cause")
	}
	if !Dead(err) {
		t.Error("ConnError not Dead")
	}
}
