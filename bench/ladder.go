package main

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"net"
	"os"
	"runtime"
	"sync"
	"time"

	"itv/internal/atm"
	"itv/internal/auth"
	"itv/internal/clock"
	"itv/internal/cmgr"
	"itv/internal/core"
	"itv/internal/names"
	"itv/internal/orb"
	"itv/internal/oref"
	"itv/internal/transport"
	"itv/internal/wire"
)

// The ladder measures each mechanism alone, from the wire codec up to a
// name resolve, with the workload's own payload sizes: each rung's cost is
// the rung below plus a named delta.

// ladderRungs is how many timed rungs share the ladder's time.
const ladderRungs = 24

// rung times fn in a closed loop for about per, in five rounds, and
// returns the median round's nanoseconds per call.
func rung(per time.Duration, fn func()) float64 {
	const rounds = 5
	var v [rounds]float64
	for r := range v {
		t0 := wall.Now()
		calls := 0
		var d time.Duration
		for {
			for j := 0; j < 8; j++ {
				fn()
			}
			calls += 8
			if d = wall.Since(t0); d >= per/rounds {
				break
			}
		}
		v[r] = float64(d) / float64(calls)
	}
	return median(v[:])
}

// allocsPer runs fn n times and returns the mallocs and bytes allocated
// per call.
func allocsPer(n int, fn func()) (mallocs, bytes float64) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < n; i++ {
		fn()
	}
	runtime.ReadMemStats(&m1)
	return float64(m1.Mallocs-m0.Mallocs) / float64(n), float64(m1.TotalAlloc-m0.TotalAlloc) / float64(n)
}

type stringMsg struct{ s string }

func (m *stringMsg) MarshalWire(e *wire.Encoder) { e.PutString(m.s) }

type bytesMsg struct{ b []byte }

func (m *bytesMsg) MarshalWire(e *wire.Encoder) { e.PutBytes(m.b) }

type bindingsMsg []names.Binding

func (m *bindingsMsg) MarshalWire(e *wire.Encoder) { names.PutBindings(e, *m) }

// codecRoundTrip is one message through the shipped hot path: pooled
// encoder, AppendFrame, ReadFrameInto a reused buffer, decode — what the
// ORB's connection loops do per message.
type codecRoundTrip struct {
	rd   bytes.Reader
	dec  wire.Decoder
	rbuf []byte
}

func (c *codecRoundTrip) do(m wire.Marshaler, decode func(*wire.Decoder) bool) {
	e := wire.GetEncoder()
	err := wire.AppendFrame(e, m)
	if err == nil {
		c.rd.Reset(e.Bytes())
		c.rbuf, err = wire.ReadFrameInto(&c.rd, c.rbuf[:0])
	}
	if err == nil {
		c.dec.Reset(c.rbuf)
		if !decode(&c.dec) || c.dec.Err() != nil {
			err = fmt.Errorf("decoded message differs")
		}
	}
	wire.PutEncoder(e)
	if err != nil {
		panic("itv-perfbench: wire round trip: " + err.Error())
	}
}

// pingPong is a raw connection pair with no ORB: the client writes req
// bytes, the server answers with reply bytes.
type pingPong struct {
	conn  net.Conn
	ln    net.Listener
	req   []byte
	reply []byte
	wg    sync.WaitGroup
}

func newPingPong(server, client transport.Transport, req, reply int) (*pingPong, error) {
	ln, addr, err := server.Listen()
	if err != nil {
		return nil, err
	}
	p := &pingPong{ln: ln, req: make([]byte, req), reply: make([]byte, reply)}
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		in, out := make([]byte, req), make([]byte, reply)
		for {
			if _, err := io.ReadFull(conn, in); err != nil {
				return // the client closed the connection
			}
			if _, err := conn.Write(out); err != nil {
				return
			}
		}
	}()
	if p.conn, err = client.Dial(addr); err != nil {
		ln.Close()
		p.wg.Wait()
		return nil, err
	}
	return p, nil
}

func (p *pingPong) roundTrip() {
	if _, err := p.conn.Write(p.req); err != nil {
		panic("itv-perfbench: ping-pong write: " + err.Error())
	}
	if _, err := io.ReadFull(p.conn, p.reply); err != nil {
		panic("itv-perfbench: ping-pong read: " + err.Error())
	}
}

func (p *pingPong) close() {
	p.conn.Close()
	p.ln.Close()
	p.wg.Wait()
}

// transportRungs measures the small round trip and the bulk transfer over
// raw connections of one transport.
func transportRungs(server, client transport.Transport, per time.Duration, small, bulk int) (rttNs, bulkNs float64, err error) {
	pp, err := newPingPong(server, client, small, small)
	if err != nil {
		return 0, 0, err
	}
	rttNs = rung(per, pp.roundTrip)
	pp.close()
	if pp, err = newPingPong(server, client, small, bulk); err != nil {
		return 0, 0, err
	}
	bulkNs = rung(per, pp.roundTrip)
	pp.close()
	return rttNs, bulkNs, nil
}

// endpointPair is a client and a server endpoint with the echo object,
// whose "blob" method answers from blob.
type endpointPair struct {
	client, server *orb.Endpoint
	ref            oref.Ref
}

func newEndpointPair(server, client transport.Transport, blob []byte) (*endpointPair, error) {
	s, err := orb.NewEndpoint(server)
	if err != nil {
		return nil, err
	}
	c, err := orb.NewEndpoint(client)
	if err != nil {
		s.Close()
		return nil, err
	}
	return &endpointPair{client: c, server: s, ref: s.Register("", echoSkel{blob})}, nil
}

func (p *endpointPair) close() { p.client.Close(); p.server.Close() }

// must runs an echo call and stops the harness if its output is wrong: a
// rung has no failure count of its own.
func must(c *echoCaller, i *int) func() {
	return func() {
		if !c.call(*i) {
			panic("itv-perfbench: ladder echo call failed")
		}
		*i++
	}
}

// rebindInvoker lets an echoCaller call through a core.Rebinder.
type rebindInvoker struct{ rb *core.Rebinder }

func (r rebindInvoker) Invoke(_ oref.Ref, method string, put func(*wire.Encoder), get func(*wire.Decoder) error) error {
	return r.rb.Invoke(method, put, get)
}

func climbLadder(w *workload, e *env, seed int64, budget time.Duration, r *result) error {
	rng := rand.New(rand.NewSource(seed + 1))
	per := budget / ladderRungs
	small := randomName(rng, w.smallLen)
	bulk := make([]byte, w.bulkBytes)
	rng.Read(bulk)
	bulkMiB := float64(len(bulk)) / (1 << 20)
	var i int

	// ---- wire ----
	var codec codecRoundTrip
	sm := &stringMsg{small}
	r.set("wire.small_roundtrip_ns", rung(per, func() {
		codec.do(sm, func(d *wire.Decoder) bool { return d.String() == small })
	}))
	bindings := make(bindingsMsg, 8)
	for b := range bindings {
		bindings[b] = names.Binding{Name: randomName(rng, 7), Ref: benchRef(rng, b)}
	}
	bindingsTrip := func() {
		codec.do(&bindings, func(d *wire.Decoder) bool { return len(names.Bindings(d)) == len(bindings) })
	}
	r.set("wire.bindings_roundtrip_ns", rung(per, bindingsTrip))
	mallocs, _ := allocsPer(2000, bindingsTrip)
	r.set("wire.bindings_allocs", mallocs)
	bm := &bytesMsg{bulk}
	bulkTrip := func() {
		codec.do(bm, func(d *wire.Decoder) bool { return len(d.Bytes()) == len(bulk) })
	}
	r.set("wire.bulk_us_per_mib", rung(per, bulkTrip)/1e3/bulkMiB)
	_, allocBytes := allocsPer(20, bulkTrip)
	r.set("wire.bulk_alloc_kb_per_mib", allocBytes/1024/bulkMiB)

	// ---- transport: raw frames, no ORB ----
	frame := w.smallLen + 48 // a small call's frame: payload plus the request envelope
	nw := transport.NewNetwork()
	memRTT, memBulk, err := transportRungs(nw.Host("192.168.0.1"), nw.Host("10.1.0.5"), per, frame, len(bulk))
	if err != nil {
		return fmt.Errorf("memnet ping-pong: %w", err)
	}
	r.set("transport.memnet_rtt_us", memRTT/1e3)
	r.set("transport.memnet_bulk_us_per_mib", memBulk/1e3/bulkMiB)
	tcpRTT, tcpBulk, err := transportRungs(transport.TCP(), transport.TCP(), per, frame, len(bulk))
	if err != nil {
		// No loopback in this sandbox: the TCP rungs stay 0.
		fmt.Fprintf(os.Stderr, "itv-perfbench: TCP rungs skipped: %v\n", err)
	}
	r.set("transport.tcp_rtt_us", tcpRTT/1e3)
	r.set("transport.tcp_bulk_us_per_mib", tcpBulk/1e3/bulkMiB)

	// ---- orb: plain, local, bulk, TCP, signed ----
	pair, err := newEndpointPair(nw.Host("192.168.0.1"), nw.Host("10.1.0.5"), bulk)
	if err != nil {
		return err
	}
	defer pair.close()
	plain := newEchoCaller(pair.client, pair.ref, rng, w.smallLen)
	for n := 0; n < 1000; n++ { // connection, pools and method stats
		must(plain, &i)()
	}
	invokeNs := rung(per, must(plain, &i))
	r.set("orb.invoke_us", invokeNs/1e3)
	r.set("orb.invoke_self_us", (invokeNs-memRTT-2*r.Metrics["wire.small_roundtrip_ns"].Value)/1e3)
	var hist histogram
	call := must(plain, &i)
	for t0 := wall.Now(); wall.Since(t0) < per; {
		c0 := wall.Now()
		call()
		hist.record(wall.Since(c0))
	}
	r.set("orb.invoke_p50_us", hist.quantile(0.50)/1e3)
	r.set("orb.invoke_p99_us", hist.quantile(0.99)/1e3)
	fmt.Printf("orb.invoke percentiles from %d calls\n", hist.n)

	local := newEchoCaller(pair.server, pair.ref, rng, w.smallLen)
	r.set("orb.local_invoke_ns", rung(per, must(local, &i)))

	var got int
	putN := func(e *wire.Encoder) { e.PutInt(int64(len(bulk))) }
	getN := func(d *wire.Decoder) error { got = len(d.Bytes()); return nil }
	r.set("orb.bulk_invoke_us_per_mib", rung(per, func() {
		if err := pair.client.Invoke(pair.ref, "blob", putN, getN); err != nil || got != len(bulk) {
			panic("itv-perfbench: ladder bulk call failed")
		}
	})/1e3/bulkMiB)

	if tcpRTT > 0 {
		tcp, err := newEndpointPair(transport.TCP(), transport.TCP(), nil)
		if err != nil {
			return err
		}
		r.set("orb.invoke_tcp_us", rung(per, must(newEchoCaller(tcp.client, tcp.ref, rng, w.smallLen), &i))/1e3)
		tcp.close()
	}

	clk := clock.NewFake()
	svc := auth.NewService(clk)
	verifier := auth.NewVerifier(svc.RealmKey(), clk)
	const principal = "settop/10.1.0.6"
	signer := auth.NewSigner(principal, svc.Enroll(principal), clk,
		func() ([]byte, []byte, error) { return svc.IssueTicket(principal) })
	signed, err := newEndpointPair(nw.Host("192.168.0.2"), nw.Host("10.1.0.6"), nil)
	if err != nil {
		return err
	}
	defer signed.close()
	signed.server.SetAuthenticator(verifier)
	signed.client.SetAuthenticator(signer)
	r.set("auth.signed_delta_us", (rung(per, must(newEchoCaller(signed.client, signed.ref, rng, w.smallLen), &i))-invokeNs)/1e3)
	payload := []byte(randomName(rng, frame))
	var sigBuf, macBuf [64]byte
	who, ticket, sig, err := signer.Sign(payload, sigBuf[:0])
	if err != nil {
		return fmt.Errorf("sign: %w", err)
	}
	sig = append([]byte(nil), sig...)
	r.set("auth.sign_ns", rung(per, func() {
		if _, _, _, err := signer.Sign(payload, sigBuf[:0]); err != nil {
			panic("itv-perfbench: sign: " + err.Error())
		}
	}))
	r.set("auth.verify_ns", rung(per, func() {
		if _, err := verifier.Verify(who, ticket, sig, payload, macBuf[:0]); err != nil {
			panic("itv-perfbench: verify: " + err.Error())
		}
	}))

	if e.cl != nil {
		return clusterRungs(e, rng, per, r)
	}
	return nil
}

// clusterRungs are the rungs that need a running cluster: name resolves
// against the non-master replica, the rebinding call, and one connection
// allocated and released.
func clusterRungs(e *env, rng *rand.Rand, per time.Duration, r *result) error {
	ce := e.cl
	ns := e.ns
	if ns == nil {
		var err error
		if ns, err = populate(ce.root(), rng); err != nil {
			return err
		}
	}
	var idx uint8
	for kind, metric := range [numNameOps]string{
		"names.resolve_flat_us", "names.resolve_deep_us", "names.resolve_repl_us", "names.list_us", "names.write_pair_us",
	} {
		r.set(metric, rung(per, func() {
			if !ns.do(nameOp{uint8(kind), idx}) {
				panic("itv-perfbench: ladder name op failed: " + metric)
			}
			idx++
		})/1e3)
	}
	r.set("names.resolve_self_us", r.Metrics["names.resolve_flat_us"].Value-r.Metrics["orb.invoke_us"].Value)

	// The rebinding call against a direct call on the same reference, in
	// alternating rounds so that drift cancels.
	server, err := orb.NewEndpoint(ce.c.NW.Host("192.168.0.200"))
	if err != nil {
		return err
	}
	defer server.Close()
	ref := server.Register("", echoSkel{})
	const echoName = "bm-echo"
	if err := ce.root().Bind(echoName, ref); err != nil {
		return fmt.Errorf("bind %s: %w", echoName, err)
	}
	sess := core.NewSession(ce.ep, names.RootRefAt(ce.slave), ce.c.Clk)
	direct := newEchoCaller(ce.ep, ref, rng, 8)
	rebinding := newEchoCaller(rebindInvoker{sess.Service(echoName)}, ref, rng, 8)
	var i int
	var diffs [5]float64
	for n := range diffs {
		diffs[n] = rung(per/5, must(rebinding, &i)) - rung(per/5, must(direct, &i))
	}
	r.set("core.rebinder_overhead_ns", median(diffs[:]))
	if err := ce.root().Unbind(echoName); err != nil {
		return fmt.Errorf("unbind %s: %w", echoName, err)
	}

	if ce.st != nil {
		cmgrRef, err := ce.root().Resolve(cmgr.ContextPath + "/" + ce.st.Neighborhood())
		if err != nil {
			return fmt.Errorf("resolve connection manager: %w", err)
		}
		stub := cmgr.Stub{Ep: ce.ep, Ref: cmgrRef}
		server := ce.c.ServerFor(ce.st.Neighborhood()).Spec.Host
		r.set("cmgr.allocate_release_us", rung(per, func() {
			a, err := stub.Allocate(ce.st.Host(), server, 1*atm.Mbps, atm.VBR)
			if err == nil {
				err = stub.Release(a.ID)
			}
			if err != nil {
				panic("itv-perfbench: ladder allocate/release: " + err.Error())
			}
		})/1e3)
	}
	return nil
}
