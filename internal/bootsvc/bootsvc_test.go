package bootsvc

import (
	"bytes"
	"math/rand"
	"testing"
	"time"

	"itv/internal/clock"
	"itv/internal/core"
	"itv/internal/names"
	"itv/internal/orb"
	"itv/internal/transport"
	"itv/internal/wire"
)

func newFixture(t *testing.T) (*clock.Fake, *transport.Network, *names.Replica) {
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
	if !clk.Await(time.Second, 400, ns.IsMaster) {
		t.Fatal("no master")
	}
	return clk, nw, ns
}

func TestParamsWireRoundTrip(t *testing.T) {
	in := Params{
		NameService:  "192.168.0.1:555",
		Neighborhood: "3",
		Servers:      []string{"192.168.0.1", "192.168.0.2"},
		SealedKey:    []byte{1, 2, 3},
	}
	var out Params
	if err := wire.Unmarshal(wire.Marshal(&in), &out); err != nil {
		t.Fatal(err)
	}
	if out.NameService != in.NameService || out.Neighborhood != in.Neighborhood ||
		len(out.Servers) != 2 || !bytes.Equal(out.SealedKey, in.SealedKey) {
		t.Fatalf("round trip = %+v", out)
	}
}

func TestBootParamsByNeighborhood(t *testing.T) {
	clk, nw, ns := newFixture(t)
	ep, err := orb.NewEndpointOn(nw.Host("192.168.0.1"), WellKnownPort)
	if err != nil {
		t.Fatal(err)
	}
	defer ep.Close()
	sess := core.NewSession(ep, ns.RootRef(), clk)
	b := NewBoot(sess)
	b.SetNeighborhood("2", Params{NameService: "192.168.0.2:555"})
	b.SetFallback(Params{NameService: "192.168.0.1:555"})

	// A neighborhood-2 settop gets its assigned replica.
	st2, err := orb.NewEndpoint(nw.Host("10.2.0.5"))
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	p, err := BootParams(st2, "192.168.0.1:554")
	if err != nil {
		t.Fatal(err)
	}
	if p.NameService != "192.168.0.2:555" || p.Neighborhood != "2" {
		t.Fatalf("params = %+v", p)
	}

	// An unassigned neighborhood falls back.
	st9, err := orb.NewEndpoint(nw.Host("10.9.0.5"))
	if err != nil {
		t.Fatal(err)
	}
	defer st9.Close()
	p, err = BootParams(st9, "192.168.0.1:554")
	if err != nil || p.NameService != "192.168.0.1:555" {
		t.Fatalf("fallback params = %+v, %v", p, err)
	}
}

func TestBootParamsNoConfig(t *testing.T) {
	clk, nw, ns := newFixture(t)
	ep, err := orb.NewEndpointOn(nw.Host("192.168.0.1"), WellKnownPort)
	if err != nil {
		t.Fatal(err)
	}
	defer ep.Close()
	_ = NewBoot(core.NewSession(ep, ns.RootRef(), clk))
	st, err := orb.NewEndpoint(nw.Host("10.7.0.5"))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if _, err := BootParams(st, "192.168.0.1:554"); !orb.IsApp(err, orb.ExcNotFound) {
		t.Fatalf("err = %v", err)
	}
}

func TestKernelServiceAndUpgrade(t *testing.T) {
	clk, nw, ns := newFixture(t)
	ep, err := orb.NewEndpoint(nw.Host("192.168.0.1"))
	if err != nil {
		t.Fatal(err)
	}
	defer ep.Close()
	sess := core.NewSession(ep, ns.RootRef(), clk)
	k := NewKernel(sess, []byte("v1"))
	if err := sess.Root.Bind(KernelName, k.Ref()); err != nil {
		// KernelName is "svc/kernel": create the parent first.
		if _, cerr := sess.Root.BindNewContext("svc"); cerr != nil {
			t.Fatal(cerr)
		}
		if err := sess.Root.Bind(KernelName, k.Ref()); err != nil {
			t.Fatal(err)
		}
	}

	client, err := orb.NewEndpoint(nw.Host("10.1.0.5"))
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	csess := core.NewSession(client, ns.RootRef(), clk)
	img, err := FetchKernel(csess.Service(KernelName))
	if err != nil || string(img) != "v1" {
		t.Fatalf("kernel = %q, %v", img, err)
	}
	k.SetImage([]byte("v2"))
	img, err = FetchKernel(csess.Service(KernelName))
	if err != nil || string(img) != "v2" {
		t.Fatalf("upgraded kernel = %q, %v", img, err)
	}
	// A kernel-sized image travels as a borrowed segment of the reply.
	big := make([]byte, 1<<20)
	rand.New(rand.NewSource(1)).Read(big)
	k.SetImage(big)
	img, err = FetchKernel(csess.Service(KernelName))
	if err != nil || !bytes.Equal(img, big) {
		t.Fatalf("1 MiB kernel: %d bytes, %v", len(img), err)
	}
}
