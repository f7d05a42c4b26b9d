package names

import (
	"fmt"
	"testing"

	"itv/internal/oref"
)

// opRef is a reference shaped like a service's: its address and type id
// decode through the process's tables, its object id is a fresh string.
func opRef(i int) oref.Ref {
	return oref.Ref{Addr: "192.168.9.1:7000", Incarnation: 1 << 40, TypeID: "itv.TestService", ObjectID: fmt.Sprintf("obj-%d", i)}
}

// TestNameOpAllocations pins what one name-service op allocates, client
// and all three replicas together, with the client calling a slave as a
// settop does.  A resolve allocates the name the replica decodes and the
// object id the client decodes; a list of 8, the name, the slice and two
// strings a binding; a bind+unbind pair, the strings its four hops decode
// (10 for the bind, 6 for the unbind); the slave forwards the update from a
// pooled encoder.  The closures stay on the client's
// stack, the replica reads its context's cached sorted bindings, each
// replica decodes an update in place, and the master pushes from one
// buffer (EXPERIMENTS.md E26).
func TestNameOpAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts do not hold under the race detector")
	}
	c := newNSCluster(t, 3)
	m := c.waitForMaster()
	slave := 0
	if c.replicas[slave] == m {
		slave = 1
	}
	root := c.root(slave)
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(root.Bind("flat", opRef(0)))
	for _, dir := range []string{"deep", "deep/d0"} {
		_, err := root.BindNewContext(dir)
		must(err)
	}
	must(root.Bind("deep/d0/leaf", opRef(1)))
	_, err := root.BindReplContext("repl", PolicyRoundRobin)
	must(err)
	for i := 0; i < 4; i++ {
		must(root.Bind(fmt.Sprintf("repl/r%d", i), opRef(10+i)))
	}
	_, err = root.BindNewContext("list")
	must(err)
	for i := 0; i < 8; i++ {
		must(root.Bind(fmt.Sprintf("list/b%d", i), opRef(20+i)))
	}
	c.waitFor("the slave holds the list", func() bool {
		bs, err := root.List("list")
		return err == nil && len(bs) == 8
	})

	tmp := opRef(30)
	ops := []struct {
		name  string
		bound float64
		op    func() error
	}{
		{"flat resolve", 2, func() error { _, err := root.Resolve("flat"); return err }},
		{"deep resolve", 2, func() error { _, err := root.Resolve("deep/d0/leaf"); return err }},
		{"replicated resolve", 2, func() error { _, err := root.Resolve("repl"); return err }},
		{"list of 8", 18, func() error { _, err := root.List("list"); return err }},
		{"bind+unbind pair", 18, func() error {
			if err := root.Bind("tmp", tmp); err != nil {
				return err
			}
			return root.Unbind("tmp")
		}},
	}
	for _, o := range ops {
		for i := 0; i < 50; i++ {
			must(o.op())
		}
		n := testing.AllocsPerRun(200, func() { must(o.op()) })
		t.Logf("%-20s %5.1f allocs/op  bound ≤%v", o.name, n, o.bound)
		if n > o.bound {
			t.Errorf("%s: %.1f allocs/op, want ≤%v", o.name, n, o.bound)
		}
	}
}
