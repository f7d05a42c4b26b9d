package orb

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"testing"

	"itv/internal/oref"
	"itv/internal/transport"
	"itv/internal/wire"
)

// The ORB's allocation floor (DESIGN.md §9).  A warm call, remote or local,
// alone on its connection, allocates nothing anywhere in the process: not in
// the caller, not in the server's reader, not in the flusher.  Allocations
// are deterministic in steady state, so the floor is pinned exactly, by
// tests that run with every `go test`; the signed path's pins are in
// internal/auth.  What the same calls cost in time is measured end to end by
// `bash bench/run.sh` (`rpc_small`, `movie_session`), which no test runs.

// allocEcho echoes its argument and keeps nothing, so that whatever a call
// to it allocates is the ORB's own.
type allocEcho struct{}

func (allocEcho) TypeID() string { return "test.AllocEcho" }

func (allocEcho) Dispatch(c *ServerCall) error {
	if c.Method() != "echo" {
		return ErrNoSuchMethod
	}
	c.Results().PutString(c.Args().String())
	return nil
}

// echoOne makes one call with a one-byte argument and result; a one-byte
// string decodes without allocating.
func echoOne(ep *Endpoint, ref oref.Ref) error {
	return ep.InvokeCtx(context.Background(), ref, "echo",
		func(e *wire.Encoder) { e.PutString("x") },
		func(d *wire.Decoder) error { _ = d.String(); return nil })
}

// allocPair serves allocEcho on st to a client endpoint on ct, after the
// calls that dial the connection and fill the pools.
func allocPair(tb testing.TB, st, ct transport.Transport) (*Endpoint, oref.Ref) {
	tb.Helper()
	server, err := NewEndpoint(st)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(server.Close)
	client, err := NewEndpoint(ct)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(client.Close)
	ref := server.Register("", allocEcho{})
	warmAlloc(tb, client, ref)
	return client, ref
}

func warmAlloc(tb testing.TB, ep *Endpoint, ref oref.Ref) {
	for i := 0; i < 8; i++ {
		if err := echoOne(ep, ref); err != nil {
			tb.Fatal(err)
		}
	}
}

// skipUnderRace: the race detector's sync.Pool drops a quarter of what is
// put back, so no allocation count holds under it.
func skipUnderRace(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts do not hold under the race detector")
	}
}

func TestRemoteCallAllocatesNothing(t *testing.T) {
	skipUnderRace(t)
	nw := transport.NewNetwork()
	for network, trs := range map[string][2]transport.Transport{
		"memnet": {nw.Host("192.168.0.1"), nw.Host("10.1.0.5")},
		"tcp":    {transport.TCP(), transport.TCP()},
	} {
		client, ref := allocPair(t, trs[0], trs[1])
		n := testing.AllocsPerRun(1000, func() {
			if err := echoOne(client, ref); err != nil {
				t.Fatal(err)
			}
		})
		if n != 0 {
			t.Errorf("%s: a warm remote call allocates %.0f times, want 0", network, n)
		}
	}
}

func TestLocalCallAllocatesNothing(t *testing.T) {
	skipUnderRace(t)
	server, err := NewEndpoint(transport.NewNetwork().Host("192.168.0.1"))
	if err != nil {
		t.Fatal(err)
	}
	defer server.Close()
	ref := server.Register("", allocEcho{})
	warmAlloc(t, server, ref)
	n := testing.AllocsPerRun(1000, func() {
		if err := echoOne(server, ref); err != nil {
			t.Fatal(err)
		}
	})
	if n != 0 {
		t.Errorf("a warm local call allocates %.0f times, want 0", n)
	}
}

// TestConcurrentCallAllocations holds the floor where the pools and the
// write path are contended: 16 callers on one connection, so frames queue
// behind an in-flight write and requests queue for the server's workers, and
// 64 callers on 64 connections to one server.  Allocations are counted over
// many calls, because the odd goroutine start (a background reader lent to
// an idle connection, a worker started lazily) is not a per-call cost.  One
// is, on a busy connection: a request that finds the resident workers taken
// runs on a goroutine of its own, and starting it allocates its closure.  So
// the one-connection shape is held under one allocation per call (about 0.6
// on two cores), the 64-connection shape under half of one (about 0.05).
func TestConcurrentCallAllocations(t *testing.T) {
	skipUnderRace(t)
	const calls = 20000
	for _, shape := range []struct {
		name                 string
		callers, connections int
		max                  float64 // allocations per call
	}{
		{"one connection", 16, 1, 1},
		{"64 connections", 64, 64, 0.5},
	} {
		nw := transport.NewNetwork()
		server, err := NewEndpoint(nw.Host("192.168.0.1"))
		if err != nil {
			t.Fatal(err)
		}
		defer server.Close()
		ref := server.Register("", allocEcho{})
		clients := make([]*Endpoint, shape.connections)
		for i := range clients {
			if clients[i], err = NewEndpoint(nw.Host(fmt.Sprintf("10.2.0.%d", i+1))); err != nil {
				t.Fatal(err)
			}
			defer clients[i].Close()
			warmAlloc(t, clients[i], ref)
		}
		run := func() {
			var next atomic.Int64
			var wg sync.WaitGroup
			for i := 0; i < shape.callers; i++ {
				wg.Add(1)
				go func(ep *Endpoint) {
					defer wg.Done()
					for next.Add(1) <= calls {
						if err := echoOne(ep, ref); err != nil {
							t.Error(err)
							return
						}
					}
				}(clients[i%len(clients)])
			}
			wg.Wait()
		}
		run() // every caller has met every pool, and the server its peak of workers
		// No collection while counting: one would empty the pools and charge
		// the calls for refilling them.
		runtime.GC()
		gc := debug.SetGCPercent(-1)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		run()
		runtime.ReadMemStats(&after)
		debug.SetGCPercent(gc)
		perCall := float64(after.Mallocs-before.Mallocs) / calls
		t.Logf("%s: %.4f allocations per call", shape.name, perCall)
		if perCall >= shape.max {
			t.Errorf("%s: %.4f allocations per call, want under %.2f", shape.name, perCall, shape.max)
		}
	}
}

// BenchmarkInvoke is a warm call over memnet, the hot path to profile:
//
//	go test -run - -bench Invoke -cpu 1 -cpuprofile cpu.out ./internal/orb
//
// It gates nothing.  Its allocations are pinned by the tests above, and its
// time is bench/'s `rpc_small`.
func BenchmarkInvoke(b *testing.B) {
	nw := transport.NewNetwork()
	client, ref := allocPair(b, nw.Host("192.168.0.1"), nw.Host("10.1.0.5"))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := echoOne(client, ref); err != nil {
			b.Fatal(err)
		}
	}
}
