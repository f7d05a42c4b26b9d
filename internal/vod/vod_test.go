package vod

import (
	"testing"
	"time"

	"itv/internal/clock"
	"itv/internal/core"
	"itv/internal/names"
	"itv/internal/orb"
	"itv/internal/oref"
	"itv/internal/transport"
)

type fixture struct {
	t   *testing.T
	clk *clock.Fake
	nw  *transport.Network
	ns  *names.Replica
}

func newFixture(t *testing.T) *fixture {
	t.Helper()
	clk := clock.NewFake()
	nw := transport.NewNetwork()
	ns, err := names.NewReplica(nw.Host("192.168.0.1"), clk, names.Config{
		Peers: []string{"192.168.0.1:555"},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ns.Close)
	f := &fixture{t: t, clk: clk, nw: nw, ns: ns}
	f.waitFor("master", ns.IsMaster)
	return f
}

func (f *fixture) waitFor(what string, cond func() bool) {
	f.t.Helper()
	if !f.clk.Await(time.Second, 400, cond) {
		f.t.Fatalf("condition never held: %s", what)
	}
}

func (f *fixture) service(host string) *Service {
	f.t.Helper()
	ep, err := orb.NewEndpoint(f.nw.Host(host))
	if err != nil {
		f.t.Fatal(err)
	}
	f.t.Cleanup(ep.Close)
	svc := New(core.NewSession(ep, f.ns.RootRef(), f.clk))
	svc.Elector().RetryInterval = 2 * time.Second
	svc.Start()
	f.t.Cleanup(svc.Close)
	return svc
}

func (f *fixture) settopStub(host string) Stub {
	f.t.Helper()
	ep, err := orb.NewEndpoint(f.nw.Host(host))
	if err != nil {
		f.t.Fatal(err)
	}
	f.t.Cleanup(ep.Close)
	return NewStub(core.NewSession(ep, f.ns.RootRef(), f.clk))
}

func TestPositionsPerSettop(t *testing.T) {
	f := newFixture(t)
	svc := f.service("192.168.0.1")
	f.waitFor("primary", svc.IsPrimary)

	a := f.settopStub("10.1.0.5")
	b := f.settopStub("10.1.0.6")

	if err := a.SavePosition("T2", 1000); err != nil {
		t.Fatal(err)
	}
	if err := b.SavePosition("T2", 2000); err != nil {
		t.Fatal(err)
	}

	// Positions are keyed by the caller's identity: a sees its own.
	pos, ok, err := a.GetPosition("T2")
	if err != nil || !ok || pos != 1000 {
		t.Fatalf("a position = %d %v %v", pos, ok, err)
	}
	pos, ok, err = b.GetPosition("T2")
	if err != nil || !ok || pos != 2000 {
		t.Fatalf("b position = %d %v %v", pos, ok, err)
	}

	// Unknown title reports absent.
	if _, ok, _ := a.GetPosition("Nope"); ok {
		t.Fatal("phantom position")
	}

	// Forget clears only the caller's record.
	if err := a.Forget("T2"); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := a.GetPosition("T2"); ok {
		t.Fatal("forgotten position persists")
	}
	if _, ok, _ := b.GetPosition("T2"); !ok {
		t.Fatal("forget leaked across settops")
	}
}

func TestPrimaryBackupTakeover(t *testing.T) {
	f := newFixture(t)
	f.ns.SetChecker(pingChecker{f.clientEp(t)})

	p := f.service("192.168.0.1")
	f.waitFor("primary", p.IsPrimary)
	b := f.service("192.168.0.2")

	// Positions are volatile: after fail-over the settop's own copy is the
	// recovery source (§10.1.1).  Here we verify the takeover itself.
	p.sess.Ep.Close()
	f.waitFor("backup takes over", b.IsPrimary)

	st := f.settopStub("10.1.0.9")
	if err := st.SavePosition("T2", 42); err != nil {
		t.Fatalf("save after takeover: %v", err)
	}
	pos, ok, err := st.GetPosition("T2")
	if err != nil || !ok || pos != 42 {
		t.Fatalf("position after takeover = %d %v %v", pos, ok, err)
	}
}

func (f *fixture) clientEp(t *testing.T) *orb.Endpoint {
	t.Helper()
	ep, err := orb.NewEndpoint(f.nw.Host("192.168.0.200"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ep.Close)
	return ep
}

type pingChecker struct{ ep *orb.Endpoint }

func (p pingChecker) CheckStatus(refs []oref.Ref) ([]bool, []uint64, error) {
	alive := make([]bool, len(refs))
	for i, r := range refs {
		alive[i] = !orb.Dead(p.ep.Ping(r))
	}
	return alive, make([]uint64, len(refs)), nil
}
