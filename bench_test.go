package itv

// The benchmark harness regenerates every figure/claim of the paper's
// evaluation (see DESIGN.md §4 for the experiment index and EXPERIMENTS.md
// for recorded results).  Each BenchmarkE* drives one experiment from
// internal/experiments and reports its headline quantities as custom
// metrics; the rendered tables appear with -v.
//
// The experiments run on a simulated clock, so "seconds" metrics are
// simulated seconds (a 25-second fail-over costs milliseconds of wall
// time).  Run with:
//
//	go test -bench=. -benchtime=1x -benchmem
//
// since each iteration is a complete experiment, not a micro-operation.

import (
	"bytes"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"itv/internal/auth"
	"itv/internal/clock"
	"itv/internal/experiments"
	"itv/internal/names"
	"itv/internal/orb"
	"itv/internal/oref"
	"itv/internal/transport"
	"itv/internal/wire"
)

// metric extracts a numeric cell ("12", "12.5s", "1.2ms") by row label.
func metric(tab *experiments.Table, rowLabel string, col int) float64 {
	for _, r := range tab.Rows {
		if len(r.Cols) > col && r.Cols[0] == rowLabel {
			s := strings.TrimSuffix(strings.TrimSpace(r.Cols[col]), "s")
			if v, err := strconv.ParseFloat(s, 64); err == nil {
				return v
			}
		}
	}
	return -1
}

func BenchmarkE1Topology(b *testing.B) {
	var tab *experiments.Table
	for i := 0; i < b.N; i++ {
		tab = experiments.E1Topology()
	}
	b.Log("\n" + tab.Format())
	b.ReportMetric(metric(tab, "cluster capacity (3 servers)", 1), "streams")
}

func BenchmarkE2AppDownload(b *testing.B) {
	var tab *experiments.Table
	for i := 0; i < b.N; i++ {
		tab = experiments.E2AppDownload()
	}
	b.Log("\n" + tab.Format())
	b.ReportMetric(metric(tab, "small-app", 3), "small_app_s")
	b.ReportMetric(metric(tab, "large-app", 3), "large_app_s")
}

func BenchmarkE3MovieOpen(b *testing.B) {
	var tab *experiments.Table
	for i := 0; i < b.N; i++ {
		tab = experiments.E3MovieOpen()
	}
	b.Log("\n" + tab.Format())
	b.ReportMetric(metric(tab, "first (cold caches)", 1), "cold_rpcs")
	b.ReportMetric(metric(tab, "subsequent (warm)", 1), "warm_rpcs")
}

func BenchmarkE4Failover(b *testing.B) {
	var tab *experiments.Table
	for i := 0; i < b.N; i++ {
		tab = experiments.E4Failover()
	}
	b.Log("\n" + tab.Format())
	// The deployed-settings row: 10s/10s/5s -> 25s predicted max.
	for _, r := range tab.Rows {
		if len(r.Cols) >= 6 && r.Cols[0] == "10.0s" {
			if v, err := strconv.ParseFloat(strings.TrimSuffix(r.Cols[5], "s"), 64); err == nil {
				b.ReportMetric(v, "failover_max_s")
			}
		}
	}
}

func BenchmarkE5AuditMessages(b *testing.B) {
	var tab *experiments.Table
	for i := 0; i < b.N; i++ {
		tab = experiments.E5AuditMessages()
	}
	b.Log("\n" + tab.Format())
	for _, r := range tab.Rows {
		if r.Cols[0] == "RAS peer polling" && r.Cols[1] == "8" {
			if v, err := strconv.ParseFloat(r.Cols[3], 64); err == nil {
				b.ReportMetric(v, "ras_msgs_per_min_8srv")
			}
		}
	}
}

func BenchmarkE6Scaling(b *testing.B) {
	var tab *experiments.Table
	for i := 0; i < b.N; i++ {
		tab = experiments.E6Scaling()
	}
	b.Log("\n" + tab.Format())
	b.ReportMetric(metric(tab, "3", 1), "streams_3srv")
}

func BenchmarkE7RecoveryStorm(b *testing.B) {
	var tab *experiments.Table
	for i := 0; i < b.N; i++ {
		tab = experiments.E7RecoveryStorm()
	}
	b.Log("\n" + tab.Format())
	for _, r := range tab.Rows {
		if len(r.Cols) >= 3 && r.Cols[0] == "200" && r.Cols[1] == "none" {
			if v, err := strconv.ParseFloat(r.Cols[2], 64); err == nil {
				b.ReportMetric(v, "storm_requests_no_backoff")
			}
		}
	}
}

func BenchmarkE8Selectors(b *testing.B) {
	var tab *experiments.Table
	for i := 0; i < b.N; i++ {
		tab = experiments.E8Selectors()
	}
	b.Log("\n" + tab.Format())
	b.ReportMetric(metric(tab, "neighborhood", 2), "nbhd_max_per_replica")
}

func BenchmarkE9NameService(b *testing.B) {
	var tab *experiments.Table
	for i := 0; i < b.N; i++ {
		tab = experiments.E9NameService()
	}
	b.Log("\n" + tab.Format())
}

func BenchmarkE10MDSCrash(b *testing.B) {
	var tab *experiments.Table
	for i := 0; i < b.N; i++ {
		tab = experiments.E10MDSCrash()
	}
	b.Log("\n" + tab.Format())
	b.ReportMetric(metric(tab, "playbacks recovered", 1), "recovered")
}

func BenchmarkE11Leakage(b *testing.B) {
	var tab *experiments.Table
	for i := 0; i < b.N; i++ {
		tab = experiments.E11Leakage()
	}
	b.Log("\n" + tab.Format())
	b.ReportMetric(metric(tab, "RAS (deployed intervals)", 1), "ras_reclaim_s")
}

func BenchmarkE12ResponseTime(b *testing.B) {
	var tab *experiments.Table
	for i := 0; i < b.N; i++ {
		tab = experiments.E12ResponseTime()
	}
	b.Log("\n" + tab.Format())
	b.ReportMetric(metric(tab, "cover latency (max)", 1), "cover_max_s")
	b.ReportMetric(metric(tab, "full app start-up (max)", 1), "startup_max_s")
}

func BenchmarkE13Restart(b *testing.B) {
	var tab *experiments.Table
	for i := 0; i < b.N; i++ {
		tab = experiments.E13Restart()
	}
	b.Log("\n" + tab.Format())
	b.ReportMetric(metric(tab, "max gap (simulated)", 1), "restart_gap_max_s")
}

func BenchmarkE14NewService(b *testing.B) {
	var tab *experiments.Table
	for i := 0; i < b.N; i++ {
		tab = experiments.E14NewService()
	}
	b.Log("\n" + tab.Format())
}

// ---- micro-benchmarks of the substrate hot paths ----

// netStats samples the client transport's obs counters before the timed
// loop and reports the per-operation wire cost (bytes and frames sent,
// transport reads made) afterwards.  The counters are process-global per host, so only the delta
// across the benchmark is meaningful.
type netStats struct {
	src    transport.StatsSource
	before transport.Stats
}

func startNetStats(tr transport.Transport) *netStats {
	src, ok := tr.(transport.StatsSource)
	if !ok {
		return nil
	}
	return &netStats{src: src, before: src.Stats()}
}

func (s *netStats) report(b *testing.B) {
	if s == nil {
		return
	}
	d := s.src.Stats().Sub(s.before)
	b.ReportMetric(float64(d.BytesSent)/float64(b.N), "wire_B/op")
	b.ReportMetric(float64(d.FramesSent)/float64(b.N), "frames/op")
	b.ReportMetric(float64(d.Reads)/float64(b.N), "reads/op")
}

// BenchmarkORBInvoke measures one remote method invocation round trip over
// the in-memory transport — the "quite fast" resolve/invoke cost the paper
// leans on in §8.2.
func BenchmarkORBInvoke(b *testing.B) {
	nw := transport.NewNetwork()
	server, err := orb.NewEndpoint(nw.Host("192.168.0.1"))
	if err != nil {
		b.Fatal(err)
	}
	defer server.Close()
	clientTr := nw.Host("10.1.0.5")
	client, err := orb.NewEndpoint(clientTr)
	if err != nil {
		b.Fatal(err)
	}
	defer client.Close()
	ref := server.Register("", benchEcho{})

	// Warm the connection and the hot-path pools so allocs/op reflects the
	// steady state even under -benchtime=1x (the CI allocation gate).
	warmInvoke(b, client, ref)
	stats := startNetStats(clientTr)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		err := client.Invoke(ref, "echo",
			func(e *wire.Encoder) { e.PutString("x") },
			func(d *wire.Decoder) error { _ = d.String(); return nil })
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	stats.report(b)
}

// BenchmarkORBInvokeParallel measures the same round trip under concurrency
// — many settop client goroutines sharing one endpoint against one server —
// which is what contends on the connection write lock, the waiter pool, and
// the frame-buffer pools.
func BenchmarkORBInvokeParallel(b *testing.B) {
	nw := transport.NewNetwork()
	server, err := orb.NewEndpoint(nw.Host("192.168.0.1"))
	if err != nil {
		b.Fatal(err)
	}
	defer server.Close()
	clientTr := nw.Host("10.1.0.5")
	client, err := orb.NewEndpoint(clientTr)
	if err != nil {
		b.Fatal(err)
	}
	defer client.Close()
	ref := server.Register("", benchEcho{})

	warmInvoke(b, client, ref)
	stats := startNetStats(clientTr)
	b.ReportAllocs()
	// Oversubscribe GOMAXPROCS so frames genuinely queue behind in-flight
	// writes even on a 2-core CI runner; the frames/op gate in BENCH_pr9.json
	// asserts the coalescer is batching (< 1 frame per call on the wire).
	b.SetParallelism(8)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			err := client.Invoke(ref, "echo",
				func(e *wire.Encoder) { e.PutString("x") },
				func(d *wire.Decoder) error { _ = d.String(); return nil })
			if err != nil {
				b.Fatal(err)
			}
		}
	})
	b.StopTimer()
	stats.report(b)
}

// warmInvoke primes connection, pools, and metrics outside the timed loop.
func warmInvoke(b *testing.B, client *orb.Endpoint, ref oref.Ref) {
	b.Helper()
	for i := 0; i < 8; i++ {
		err := client.Invoke(ref, "echo",
			func(e *wire.Encoder) { e.PutString("x") },
			func(d *wire.Decoder) error { _ = d.String(); return nil })
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLocalInvoke measures the same-process short-circuit dispatch.
func BenchmarkLocalInvoke(b *testing.B) {
	nw := transport.NewNetwork()
	server, err := orb.NewEndpoint(nw.Host("192.168.0.1"))
	if err != nil {
		b.Fatal(err)
	}
	defer server.Close()
	ref := server.Register("", benchEcho{})

	warmInvoke(b, server, ref)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		err := server.Invoke(ref, "echo",
			func(e *wire.Encoder) { e.PutString("x") },
			func(d *wire.Decoder) error { _ = d.String(); return nil })
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkORBInvokeSigned measures the same round trip with the §3.3
// security model: the client signs with a ticket session key, the server
// verifies ticket and HMAC — the "signed but not encrypted" default.
func BenchmarkORBInvokeSigned(b *testing.B) {
	clk := clock.NewFake()
	nw := transport.NewNetwork()
	svc := auth.NewService(clk)

	server, err := orb.NewEndpoint(nw.Host("192.168.0.1"))
	if err != nil {
		b.Fatal(err)
	}
	defer server.Close()
	server.SetAuthenticator(auth.NewVerifier(svc.RealmKey(), clk))
	ref := server.Register("", benchEcho{})

	key := svc.Enroll("settop/10.1.0.5")
	clientTr := nw.Host("10.1.0.5")
	client, err := orb.NewEndpoint(clientTr)
	if err != nil {
		b.Fatal(err)
	}
	defer client.Close()
	client.SetAuthenticator(auth.NewSigner("settop/10.1.0.5", key, clk,
		func() ([]byte, []byte, error) { return svc.IssueTicket("settop/10.1.0.5") }))

	warmInvoke(b, client, ref)
	stats := startNetStats(clientTr)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		err := client.Invoke(ref, "echo",
			func(e *wire.Encoder) { e.PutString("x") },
			func(d *wire.Decoder) error { _ = d.String(); return nil })
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	stats.report(b)
}

type benchEcho struct{}

func (benchEcho) TypeID() string { return "bench.Echo" }
func (benchEcho) Dispatch(c *orb.ServerCall) error {
	if c.Method() != "echo" {
		return orb.ErrNoSuchMethod
	}
	c.Results().PutString(c.Args().String())
	return nil
}

// benchBindings builds the typical 8-entry binding list the wire
// round-trip benchmarks marshal.
func benchBindings() []names.Binding {
	bindings := make([]names.Binding, 8)
	for i := range bindings {
		bindings[i] = names.Binding{
			Name: "replica",
			Ref:  oref.Ref{Addr: "192.168.0.1:555", Incarnation: 42, TypeID: names.TypeContext, ObjectID: "c7"},
		}
	}
	return bindings
}

// bindingsMsg adapts a binding list to the wire.Marshaler that the framed
// encode path (AppendFrame) takes.  Pointer receiver so the interface
// conversion in the benchmark loop does not box a slice header per call.
type bindingsMsg []names.Binding

func (m *bindingsMsg) MarshalWire(e *wire.Encoder) { names.PutBindings(e, *m) }

// BenchmarkWireRoundTrip measures IDL marshaling of a typical binding list
// over the shipped hot path: pooled encoder, length-prefixed frame via
// AppendFrame, frame recovery with ReadFrameInto into a reused buffer —
// exactly what the ORB's connection loops do per message.
func BenchmarkWireRoundTrip(b *testing.B) {
	msg := bindingsMsg(benchBindings())
	var (
		rd   bytes.Reader
		dec  wire.Decoder
		rbuf []byte
	)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := wire.GetEncoder()
		if err := wire.AppendFrame(e, &msg); err != nil {
			b.Fatal(err)
		}
		rd.Reset(e.Bytes())
		payload, err := wire.ReadFrameInto(&rd, rbuf[:0])
		if err != nil {
			b.Fatal(err)
		}
		rbuf = payload
		dec.Reset(payload)
		got := names.Bindings(&dec)
		wire.PutEncoder(e)
		if len(got) != len(msg) || dec.Err() != nil {
			b.Fatal("round trip failed")
		}
	}
}

// benchSaturation drives b.N echo calls through 64 concurrent client
// endpoints (each its own connection) against one server and reports
// aggregate throughput as calls/s — the §8.2 saturation figure the
// BENCH_pr9.json gate tracks.  The work is drawn from a shared atomic
// counter so the fastest connections soak up the slack of the slowest.
func benchSaturation(b *testing.B, signed bool) {
	const conns = 64
	clk := clock.NewFake()
	nw := transport.NewNetwork()
	var svc *auth.Service
	server, err := orb.NewEndpoint(nw.Host("192.168.0.1"))
	if err != nil {
		b.Fatal(err)
	}
	defer server.Close()
	if signed {
		svc = auth.NewService(clk)
		server.SetAuthenticator(auth.NewVerifier(svc.RealmKey(), clk))
	}
	ref := server.Register("", benchEcho{})

	clients := make([]*orb.Endpoint, conns)
	for i := range clients {
		addr := fmt.Sprintf("10.2.0.%d", i+1)
		c, err := orb.NewEndpoint(nw.Host(addr))
		if err != nil {
			b.Fatal(err)
		}
		defer c.Close()
		if signed {
			principal := "settop/" + addr
			key := svc.Enroll(principal)
			c.SetAuthenticator(auth.NewSigner(principal, key, clk,
				func() ([]byte, []byte, error) { return svc.IssueTicket(principal) }))
		}
		// Warm each connection (and, when signed, fetch each ticket) so the
		// timed region measures steady-state throughput only.
		warmInvoke(b, c, ref)
		clients[i] = c
	}

	b.ReportAllocs()
	b.ResetTimer()
	var next atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < conns; i++ {
		wg.Add(1)
		go func(c *orb.Endpoint) {
			defer wg.Done()
			for next.Add(1) <= int64(b.N) {
				err := c.Invoke(ref, "echo",
					func(e *wire.Encoder) { e.PutString("x") },
					func(d *wire.Decoder) error { _ = d.String(); return nil })
				if err != nil {
					b.Error(err)
					return
				}
			}
		}(clients[i])
	}
	wg.Wait()
	b.StopTimer()
	if secs := b.Elapsed().Seconds(); secs > 0 {
		b.ReportMetric(float64(b.N)/secs, "calls/s")
	}
}

// BenchmarkORBSaturation is the unsigned 64-connection saturation run.
func BenchmarkORBSaturation(b *testing.B) { benchSaturation(b, false) }

// BenchmarkORBSaturationSigned is the same run with every call carrying a
// ticket and HMAC under the §3.3 "signed but not encrypted" default.
func BenchmarkORBSaturationSigned(b *testing.B) { benchSaturation(b, true) }
