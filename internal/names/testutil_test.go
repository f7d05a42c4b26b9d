package names

import (
	"fmt"
	"testing"
	"time"

	"itv/internal/clock"
	"itv/internal/orb"
	"itv/internal/transport"
)

// nsCluster is a test fixture: n name-service replicas on an in-memory
// network with a fake clock, plus a settop-side client endpoint.
type nsCluster struct {
	t        *testing.T
	clk      *clock.Fake
	nw       *transport.Network
	replicas []*Replica
	client   *orb.Endpoint
}

func serverIP(i int) string { return fmt.Sprintf("192.168.0.%d", i+1) }

func newNSCluster(t *testing.T, n int) *nsCluster {
	t.Helper()
	clk := clock.NewFake()
	nw := transport.NewNetwork()
	peers := make([]string, n)
	for i := 0; i < n; i++ {
		peers[i] = fmt.Sprintf("%s:%d", serverIP(i), WellKnownPort)
	}
	c := &nsCluster{t: t, clk: clk, nw: nw}
	for i := 0; i < n; i++ {
		r, err := NewReplica(nw.Host(serverIP(i)), clk, Config{Peers: peers})
		if err != nil {
			t.Fatal(err)
		}
		c.replicas = append(c.replicas, r)
	}
	client, err := orb.NewEndpoint(nw.Host("10.1.0.200"))
	if err != nil {
		t.Fatal(err)
	}
	c.client = client
	t.Cleanup(func() {
		client.Close()
		for _, r := range c.replicas {
			r.Close()
		}
	})
	return c
}

// waitFor advances the fake clock in steps until cond holds, letting
// goroutines react between steps.
func (c *nsCluster) waitFor(what string, cond func() bool) {
	c.t.Helper()
	if !c.clk.Await(500*time.Millisecond, 400, cond) {
		c.t.Fatalf("condition never held: %s", what)
	}
}

// waitForMaster waits until exactly one live replica is master and every
// live replica knows it, and returns it.
func (c *nsCluster) waitForMaster() *Replica {
	c.t.Helper()
	var m *Replica
	c.waitFor("a single master elected, known to every live replica", func() bool {
		m = nil
		count := 0
		for _, r := range c.replicas {
			if r.ep.Closed() {
				continue
			}
			if r.IsMaster() {
				m = r
				count++
			}
		}
		if count != 1 {
			return false
		}
		// A slave that has not heard from the master yet refuses the
		// updates it would forward.
		for _, r := range c.replicas {
			if _, _, known, _ := r.Status(); !r.ep.Closed() && known != m.ep.Addr() {
				return false
			}
		}
		return true
	})
	return m
}

// root returns a Context stub for replica i's root, invoked from the
// settop-side client endpoint.
func (c *nsCluster) root(i int) Context {
	return Context{Ep: c.client, Ref: c.replicas[i].RootRef()}
}

// clientOn returns a Context stub for replica i's root invoked from a new
// endpoint on the given host IP (to exercise caller-IP selectors).
func (c *nsCluster) clientOn(hostIP string, i int) Context {
	c.t.Helper()
	ep, err := orb.NewEndpoint(c.nw.Host(hostIP))
	if err != nil {
		c.t.Fatal(err)
	}
	c.t.Cleanup(ep.Close)
	return Context{Ep: ep, Ref: c.replicas[i].RootRef()}
}
