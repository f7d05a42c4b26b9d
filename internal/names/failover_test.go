package names

import (
	"testing"

	"itv/internal/orb"
)

func TestFailoverRetargetsAcrossReplicas(t *testing.T) {
	c := newNSCluster(t, 3)
	m := c.waitForMaster()
	root := c.root(0)
	if err := root.Bind("svc-x", svcRef("a:1", 1)); err != nil {
		t.Fatal(err)
	}

	addrs := make([]string, 0, 3)
	for _, r := range c.replicas {
		addrs = append(addrs, r.Addr())
	}
	fi := NewFailover(addrs)
	froot := Context{Ep: c.client, Ref: c.replicas[0].RootRef(), Failover: fi}

	if got, err := froot.Resolve("svc-x"); err != nil || got != svcRef("a:1", 1) {
		t.Fatalf("resolve via failover = %v, %v", got, err)
	}
	if fi.Current() != c.replicas[0].Addr() {
		t.Fatalf("preferred replica = %s", fi.Current())
	}

	// Kill the assigned replica: the same context reference keeps working
	// against the survivors.
	c.replicas[0].Close()
	if m == c.replicas[0] {
		c.waitFor("new master", func() bool {
			return c.replicas[1].IsMaster() || c.replicas[2].IsMaster()
		})
	}
	got, err := froot.Resolve("svc-x")
	if err != nil || got != svcRef("a:1", 1) {
		t.Fatalf("resolve after replica death = %v, %v", got, err)
	}
	if fi.Current() == addrs[0] {
		t.Fatal("failover did not advance the preferred replica")
	}

	// Application errors (NotFound) must NOT trigger failover churn.
	before := fi.Current()
	if _, err := froot.Resolve("nothing"); !orb.IsApp(err, orb.ExcNotFound) {
		t.Fatalf("err = %v", err)
	}
	if fi.Current() != before {
		t.Fatal("app error rotated the replica")
	}
}

func TestFailoverLeavesForeignRefsAlone(t *testing.T) {
	c := newNSCluster(t, 1)
	c.waitForMaster()
	fi := NewFailover([]string{c.replicas[0].Addr()})
	// A dead reference NOT belonging to a name-service replica must fail
	// without address rewriting.
	foreign := svcRef("192.168.9.9:700", 1)
	_, err := Context{Ep: c.client, Ref: foreign, Failover: fi}.Resolve("x")
	if !orb.Dead(err) {
		t.Fatalf("err = %v, want dead", err)
	}
}
