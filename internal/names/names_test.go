package names

import (
	"errors"
	"slices"
	"strings"
	"sync"
	"testing"

	"itv/internal/obs"
	"itv/internal/orb"
	"itv/internal/oref"
	"itv/internal/wire"
)

func svcRef(host string, n int) oref.Ref {
	return oref.Ref{Addr: host, Incarnation: int64(n), TypeID: "itv.TestService"}
}

func TestSingleReplicaElectsItself(t *testing.T) {
	c := newNSCluster(t, 1)
	m := c.waitForMaster()
	if m != c.replicas[0] {
		t.Fatal("wrong master")
	}
}

func TestBindResolveRoundTrip(t *testing.T) {
	c := newNSCluster(t, 1)
	c.waitForMaster()
	root := c.root(0)
	ref := svcRef("192.168.0.1:900", 1)
	if err := root.Bind("rds", ref); err != nil {
		t.Fatal(err)
	}
	got, err := root.Resolve("rds")
	if err != nil {
		t.Fatal(err)
	}
	if got != ref {
		t.Fatalf("resolved %v, want %v", got, ref)
	}
}

func TestHierarchicalResolution(t *testing.T) {
	c := newNSCluster(t, 1)
	c.waitForMaster()
	root := c.root(0)
	if _, err := root.BindNewContext("svc"); err != nil {
		t.Fatal(err)
	}
	if _, err := root.BindNewContext("svc/media"); err != nil {
		t.Fatal(err)
	}
	ref := svcRef("192.168.0.1:901", 2)
	if err := root.Bind("svc/media/mds", ref); err != nil {
		t.Fatal(err)
	}
	got, err := root.Resolve("svc/media/mds")
	if err != nil {
		t.Fatal(err)
	}
	if got != ref {
		t.Fatalf("resolved %v, want %v", got, ref)
	}
	// Resolving a context name returns a context reference usable as a
	// stub target (§4.2: any prefix of the path denotes a context).
	ctxRef, err := root.Resolve("svc/media")
	if err != nil {
		t.Fatal(err)
	}
	sub := Context{Ep: c.client, Ref: ctxRef}
	got2, err := sub.Resolve("mds")
	if err != nil {
		t.Fatal(err)
	}
	if got2 != ref {
		t.Fatalf("relative resolve = %v, want %v", got2, ref)
	}
}

func TestBindFirstWins(t *testing.T) {
	c := newNSCluster(t, 1)
	c.waitForMaster()
	root := c.root(0)
	if err := root.Bind("mms", svcRef("a:1", 1)); err != nil {
		t.Fatal(err)
	}
	err := root.Bind("mms", svcRef("b:1", 2))
	if !orb.IsApp(err, orb.ExcAlreadyBound) {
		t.Fatalf("second bind err = %v, want AlreadyBound", err)
	}
	// After unbind, the backup's bind succeeds (§5.2).
	if err := root.Unbind("mms"); err != nil {
		t.Fatal(err)
	}
	if err := root.Bind("mms", svcRef("b:1", 2)); err != nil {
		t.Fatalf("rebind after unbind: %v", err)
	}
}

func TestUnbindNotFound(t *testing.T) {
	c := newNSCluster(t, 1)
	c.waitForMaster()
	err := c.root(0).Unbind("ghost")
	if !orb.IsApp(err, orb.ExcNotFound) {
		t.Fatalf("err = %v, want NotFound", err)
	}
}

func TestResolveThroughLeafFails(t *testing.T) {
	c := newNSCluster(t, 1)
	c.waitForMaster()
	root := c.root(0)
	if err := root.Bind("leaf", svcRef("a:1", 1)); err != nil {
		t.Fatal(err)
	}
	_, err := root.Resolve("leaf/deeper")
	if !orb.IsApp(err, orb.ExcNotContext) {
		t.Fatalf("err = %v, want NotContext", err)
	}
}

func TestResolveMissing(t *testing.T) {
	c := newNSCluster(t, 1)
	c.waitForMaster()
	_, err := c.root(0).Resolve("nothing/here")
	if !orb.IsApp(err, orb.ExcNotFound) {
		t.Fatalf("err = %v, want NotFound", err)
	}
}

func TestUnbindRemovesSubtree(t *testing.T) {
	c := newNSCluster(t, 1)
	c.waitForMaster()
	root := c.root(0)
	if _, err := root.BindNewContext("apps"); err != nil {
		t.Fatal(err)
	}
	if err := root.Bind("apps/vod", svcRef("a:1", 1)); err != nil {
		t.Fatal(err)
	}
	ctxRef, err := root.Resolve("apps")
	if err != nil {
		t.Fatal(err)
	}
	if err := root.Unbind("apps"); err != nil {
		t.Fatal(err)
	}
	if _, err := root.Resolve("apps/vod"); !orb.IsApp(err, orb.ExcNotFound) {
		t.Fatalf("resolve into removed subtree: %v", err)
	}
	// The removed context's object is withdrawn from the ORB as well.
	sub := Context{Ep: c.client, Ref: ctxRef}
	if _, err := sub.Resolve("vod"); !errors.Is(err, orb.ErrInvalidReference) {
		t.Fatalf("stale context ref err = %v, want ErrInvalidReference", err)
	}
}

func TestReplicatedContextSelectorFirst(t *testing.T) {
	c := newNSCluster(t, 1)
	c.waitForMaster()
	root := c.root(0)
	if _, err := root.BindReplContext("rds", PolicyFirst); err != nil {
		t.Fatal(err)
	}
	r1, r2 := svcRef("192.168.0.1:900", 1), svcRef("192.168.0.2:900", 2)
	if err := root.Bind("rds/1", r1); err != nil {
		t.Fatal(err)
	}
	if err := root.Bind("rds/2", r2); err != nil {
		t.Fatal(err)
	}
	got, err := root.Resolve("rds")
	if err != nil {
		t.Fatal(err)
	}
	if got != r1 {
		t.Fatalf("first policy chose %v, want %v", got, r1)
	}
}

func TestReplicatedContextRoundRobin(t *testing.T) {
	c := newNSCluster(t, 1)
	c.waitForMaster()
	root := c.root(0)
	if _, err := root.BindReplContext("svc", PolicyRoundRobin); err != nil {
		t.Fatal(err)
	}
	refs := map[oref.Ref]int{}
	r1, r2 := svcRef("a:1", 1), svcRef("b:1", 2)
	if err := root.Bind("svc/1", r1); err != nil {
		t.Fatal(err)
	}
	if err := root.Bind("svc/2", r2); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		got, err := root.Resolve("svc")
		if err != nil {
			t.Fatal(err)
		}
		refs[got]++
	}
	if refs[r1] != 3 || refs[r2] != 3 {
		t.Fatalf("round robin distribution %v", refs)
	}
}

func TestNeighborhoodSelector(t *testing.T) {
	c := newNSCluster(t, 1)
	c.waitForMaster()
	root := c.root(0)
	if _, err := root.BindReplContext("cmgr", PolicyNeighborhood); err != nil {
		t.Fatal(err)
	}
	r1, r2 := svcRef("192.168.0.1:700", 1), svcRef("192.168.0.2:700", 2)
	if err := root.Bind("cmgr/1", r1); err != nil {
		t.Fatal(err)
	}
	if err := root.Bind("cmgr/2", r2); err != nil {
		t.Fatal(err)
	}
	// A settop in neighborhood 2 resolves to replica "2".
	n2 := c.clientOn("10.2.0.17", 0)
	got, err := n2.Resolve("cmgr")
	if err != nil {
		t.Fatal(err)
	}
	if got != r2 {
		t.Fatalf("neighborhood 2 got %v, want %v", got, r2)
	}
	// A settop in an unserved neighborhood gets NotFound.
	n9 := c.clientOn("10.9.0.1", 0)
	if _, err := n9.Resolve("cmgr"); !orb.IsApp(err, orb.ExcNotFound) {
		t.Fatalf("unserved neighborhood err = %v", err)
	}
}

func TestServerAffinitySelector(t *testing.T) {
	c := newNSCluster(t, 1)
	c.waitForMaster()
	root := c.root(0)
	if _, err := root.BindReplContext("ras", PolicyServerAffinity); err != nil {
		t.Fatal(err)
	}
	r1 := svcRef("192.168.0.1:700", 1)
	r2 := svcRef("192.168.0.77:700", 2)
	if err := root.Bind("ras/a", r1); err != nil {
		t.Fatal(err)
	}
	if err := root.Bind("ras/b", r2); err != nil {
		t.Fatal(err)
	}
	// A caller on 192.168.0.77 gets the replica on its own host.
	local := c.clientOn("192.168.0.77", 0)
	got, err := local.Resolve("ras")
	if err != nil {
		t.Fatal(err)
	}
	if got != r2 {
		t.Fatalf("affinity got %v, want %v", got, r2)
	}
	// A caller on an unknown host falls back to the first binding.
	other := c.clientOn("192.168.0.99", 0)
	got, err = other.Resolve("ras")
	if err != nil {
		t.Fatal(err)
	}
	if got != r1 {
		t.Fatalf("fallback got %v, want %v", got, r1)
	}
}

func TestDirectIndexIntoReplicatedContext(t *testing.T) {
	// §3.4.4: resolve("svc/cmgr/1") names the neighborhood-1 replica
	// explicitly, bypassing the selector.
	c := newNSCluster(t, 1)
	c.waitForMaster()
	root := c.root(0)
	if _, err := root.BindNewContext("svc"); err != nil {
		t.Fatal(err)
	}
	if _, err := root.BindReplContext("svc/cmgr", PolicyNeighborhood); err != nil {
		t.Fatal(err)
	}
	r1, r2 := svcRef("a:1", 1), svcRef("b:1", 2)
	if err := root.Bind("svc/cmgr/1", r1); err != nil {
		t.Fatal(err)
	}
	if err := root.Bind("svc/cmgr/2", r2); err != nil {
		t.Fatal(err)
	}
	got, err := root.Resolve("svc/cmgr/2")
	if err != nil {
		t.Fatal(err)
	}
	if got != r2 {
		t.Fatalf("direct index got %v, want %v", got, r2)
	}
}

func TestSelectorChoosesContextToCompleteLookup(t *testing.T) {
	// Figure 7: a replicated context whose bindings are themselves
	// contexts; the selector picks the context in which the remaining path
	// resolves.
	c := newNSCluster(t, 1)
	c.waitForMaster()
	root := c.root(0)
	if _, err := root.BindReplContext("bin", PolicyFirst); err != nil {
		t.Fatal(err)
	}
	if _, err := root.BindNewContext("bin/1"); err != nil {
		t.Fatal(err)
	}
	if _, err := root.BindNewContext("bin/2"); err != nil {
		t.Fatal(err)
	}
	v1, v2 := svcRef("a:1", 1), svcRef("b:1", 2)
	if err := root.Bind("bin/1/vod", v1); err != nil {
		t.Fatal(err)
	}
	if err := root.Bind("bin/2/vod", v2); err != nil {
		t.Fatal(err)
	}
	got, err := root.Resolve("bin/vod")
	if err != nil {
		t.Fatal(err)
	}
	if got != v1 {
		t.Fatalf("bin/vod resolved %v, want %v (selector-chosen context 1)", got, v1)
	}
}

func TestListAndListRepl(t *testing.T) {
	c := newNSCluster(t, 1)
	c.waitForMaster()
	root := c.root(0)
	if _, err := root.BindReplContext("rds", PolicyFirst); err != nil {
		t.Fatal(err)
	}
	r1, r2 := svcRef("a:1", 1), svcRef("b:1", 2)
	if err := root.Bind("rds/1", r1); err != nil {
		t.Fatal(err)
	}
	if err := root.Bind("rds/2", r2); err != nil {
		t.Fatal(err)
	}
	// list of a replicated context returns the selected binding only.
	sel, err := root.List("rds")
	if err != nil {
		t.Fatal(err)
	}
	if len(sel) != 1 || sel[0].Name != "1" {
		t.Fatalf("list(repl) = %v, want the selected binding \"1\"", sel)
	}
	// listRepl returns everything.
	all, err := root.ListRepl("rds")
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 2 {
		t.Fatalf("listRepl = %v, want 2 bindings", all)
	}
	// list of an ordinary context returns all bindings.
	if err := root.Bind("plain", r1); err != nil {
		t.Fatal(err)
	}
	rootList, err := root.List("")
	if err != nil {
		t.Fatal(err)
	}
	if len(rootList) != 2 { // "rds" and "plain"
		t.Fatalf("root list = %v", rootList)
	}
	// listRepl of an ordinary context is an error.
	if _, err := root.ListRepl("plain"); !orb.IsApp(err, orb.ExcNotContext) {
		t.Fatalf("listRepl(plain) err = %v", err)
	}
}

func TestCustomSelectorObject(t *testing.T) {
	c := newNSCluster(t, 1)
	c.waitForMaster()
	root := c.root(0)
	if _, err := root.BindReplContext("mds", PolicyFirst); err != nil {
		t.Fatal(err)
	}
	if err := root.Bind("mds/forge", svcRef("a:1", 1)); err != nil {
		t.Fatal(err)
	}
	if err := root.Bind("mds/kiln", svcRef("b:1", 2)); err != nil {
		t.Fatal(err)
	}
	// A custom selector that always picks the last binding, installed by
	// binding it under the reserved "selector" name (§4.5).
	selRef := c.client.Register("sel-last", SelectorFunc(
		func(bs []Binding, _ string) (string, error) { return bs[len(bs)-1].Name, nil }))
	if err := root.Bind("mds/selector", selRef); err != nil {
		t.Fatal(err)
	}
	got, err := root.Resolve("mds")
	if err != nil {
		t.Fatal(err)
	}
	if got != svcRef("b:1", 2) {
		t.Fatalf("custom selector got %v", got)
	}
	// listRepl exposes the installed selector.
	all, err := root.ListRepl("mds")
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, b := range all {
		if b.Name == SelectorBinding && b.Ref == selRef {
			found = true
		}
	}
	if !found {
		t.Fatalf("selector binding missing from listRepl: %v", all)
	}
	// If the selector object dies, resolution falls back to the built-in
	// policy instead of failing.
	c.client.Unregister("sel-last")
	got, err = root.Resolve("mds")
	if err != nil {
		t.Fatal(err)
	}
	if got != svcRef("a:1", 1) {
		t.Fatalf("fallback got %v", got)
	}
}

func TestLoadSelector(t *testing.T) {
	c := newNSCluster(t, 1)
	c.waitForMaster()
	root := c.root(0)
	if _, err := root.BindReplContext("mds", PolicyFirst); err != nil {
		t.Fatal(err)
	}
	if err := root.Bind("mds/forge", svcRef("a:1", 1)); err != nil {
		t.Fatal(err)
	}
	if err := root.Bind("mds/kiln", svcRef("b:1", 2)); err != nil {
		t.Fatal(err)
	}
	ls := NewLoadSelector()
	selRef := c.client.Register("sel-load", ls)
	if err := root.SetSelector("mds", selRef); err != nil {
		t.Fatal(err)
	}
	sel := SelectorStub{Ep: c.client, Ref: selRef}
	if err := Report(c.client, sel, "forge", 10); err != nil {
		t.Fatal(err)
	}
	if err := Report(c.client, sel, "kiln", 1); err != nil {
		t.Fatal(err)
	}
	got, err := root.Resolve("mds")
	if err != nil {
		t.Fatal(err)
	}
	if got != svcRef("b:1", 2) {
		t.Fatalf("load selector got %v, want the lightly loaded kiln", got)
	}
}

func TestBadSelectorPolicyRejected(t *testing.T) {
	c := newNSCluster(t, 1)
	c.waitForMaster()
	_, err := c.root(0).BindReplContext("x", "no-such-policy")
	if !orb.IsApp(err, orb.ExcBadArgs) {
		t.Fatalf("err = %v, want BadArgs", err)
	}
}

func TestNeighborhoodOf(t *testing.T) {
	cases := map[string]string{
		"10.3.0.17":   "3",
		"10.12.200.9": "12",
		"192.168.0.1": "",
		"not-an-ip":   "",
		"10.1.2":      "",
		"10.0.0.0":    "0",
		"127.0.0.1":   "",
		"10.255.1.1":  "255",
		"10.1.0.5":    "1",
		"10.1.0":      "",
		"10.1.0.5.6":  "",
		"11.1.0.5":    "",
		"":            "",
		"10..0.5":     "",
		"10.1.0.":     "1",
	}
	for host, want := range cases {
		if got := NeighborhoodOf(host); got != want {
			t.Errorf("NeighborhoodOf(%q) = %q, want %q", host, got, want)
		}
	}
	// It runs on every movie open (the Connection Manager directory keys
	// on it): a substring, never a split.
	if n := testing.AllocsPerRun(100, func() { NeighborhoodOf("10.1.0.5") }); n != 0 {
		t.Errorf("NeighborhoodOf allocates %.0f objects, want 0", n)
	}
}

func TestSplitPath(t *testing.T) {
	// The reference: split on every slash, drop the empty pieces.
	ref := func(name string) []string {
		var out []string
		for _, p := range strings.Split(name, "/") {
			if p != "" {
				out = append(out, p)
			}
		}
		return out
	}
	for _, in := range []string{"", "/", "//", "a", "a/b", "/a//b/", "svc/mds/forge", "a/ /b", "///x"} {
		got, want := SplitPath(in), ref(in)
		if len(got) != len(want) {
			t.Fatalf("SplitPath(%q) = %q, want %q", in, got, want)
		}
		// The resolver walks the same name without the slice; the two must
		// agree component by component, and on where the name ends.
		head, rest := nextComponent(in)
		for i := range want {
			if got[i] != want[i] || head != want[i] {
				t.Fatalf("component %d of %q: SplitPath %q, nextComponent %q, want %q", i, in, got[i], head, want[i])
			}
			if last := i == len(want)-1; (rest == "") != last {
				t.Fatalf("after component %d of %q rest = %q", i, in, rest)
			}
			head, rest = nextComponent(rest)
		}
		if head != "" || rest != "" {
			t.Fatalf("nextComponent ran past the end of %q: %q, %q", in, head, rest)
		}
	}
}

// TestUpdatePathsNormalize: the write path finds the parent context and
// the last component of a name however its slashes are doubled up, the
// same as the read path does.
func TestUpdatePathsNormalize(t *testing.T) {
	c := newNSCluster(t, 1)
	c.waitForMaster()
	root := c.root(0)
	if _, err := root.BindNewContext("/a/"); err != nil {
		t.Fatal(err)
	}
	if _, err := root.BindNewContext("a//b"); err != nil {
		t.Fatal(err)
	}
	want := svcRef("x:1", 1)
	if err := root.Bind("//a///b//c//", want); err != nil {
		t.Fatal(err)
	}
	if got, err := root.Resolve("a/b/c"); err != nil || got != want {
		t.Fatalf("Resolve = %v, %v", got, err)
	}
	bs, err := root.List("a//b/")
	if err != nil || len(bs) != 1 || bs[0].Name != "c" {
		t.Fatalf("List = %v, %v", bs, err)
	}
	if err := root.Unbind("a/b//c/"); err != nil {
		t.Fatal(err)
	}
	if _, err := root.Resolve("a/b/c"); !orb.IsApp(err, orb.ExcNotFound) {
		t.Fatalf("after unbind: %v", err)
	}
	for _, empty := range []string{"", "/", "///"} {
		if err := root.Bind(empty, want); !orb.IsApp(err, orb.ExcBadArgs) {
			t.Fatalf("Bind(%q) = %v, want BadArgs", empty, err)
		}
	}
}

// TestBindingsHostileCount: a count the message cannot hold fails at the
// count.  Before the bound, these three bytes reserved 75 MiB on the way to
// the same error.
func TestBindingsHostileCount(t *testing.T) {
	d := new(wire.Decoder)
	d.Reset([]byte{0xff, 0xff, 0x3f})
	if out := Bindings(d); len(out) != 0 || cap(out) != 0 {
		t.Fatalf("decoded %d bindings (capacity %d) from a bare count", len(out), cap(out))
	}
	if d.Err() == nil {
		t.Fatal("a count with nothing behind it decoded cleanly")
	}
}

// TestSortedBindingsCache walks a replicated context through every change
// that must drop its cached sorted bindings, checking what list and
// listRepl return at each step on a slave (the replica the client calls)
// and what the context's selector is handed: the selector binding is never
// among the bindings a selector chooses from, and listRepl's append of it
// never reaches the cache the other readers share.
func TestSortedBindingsCache(t *testing.T) {
	c := newNSCluster(t, 3)
	m := c.waitForMaster()
	slave := c.replicas[0]
	if slave == m {
		slave = c.replicas[1]
	}
	root := Context{Ep: c.client, Ref: slave.RootRef()}
	rc, err := root.BindReplContext("rc", PolicyFirst)
	if err != nil {
		t.Fatal(err)
	}
	a, b := Binding{"a", svcRef("a:1", 1)}, Binding{"b", svcRef("b:1", 2)}
	want := func(step, op string, got []Binding, err error, want ...Binding) {
		t.Helper()
		if err != nil || !slices.Equal(got, want) {
			t.Fatalf("%s: %s = %v, %v; want %v", step, op, got, err, want)
		}
	}
	check := func(step string, list []Binding, repl ...Binding) {
		t.Helper()
		got, err := root.List("rc")
		want(step, "list", got, err, list...)
		got, err = root.ListRepl("rc")
		want(step, "listRepl", got, err, repl...)
		slave.mu.RLock()
		cached := slave.store.ctxs[rc.ObjectID].sorted.Load()
		slave.mu.RUnlock()
		if cached != nil && slices.ContainsFunc((*cached)[:cap(*cached)], func(x Binding) bool { return x.Name == SelectorBinding }) {
			t.Fatalf("%s: listRepl's append reached the shared cache: %v", step, (*cached)[:cap(*cached)])
		}
	}

	// bind: the cache is built after the change and sorted.
	if err := root.Bind("rc/b", b.Ref); err != nil {
		t.Fatal(err)
	}
	if err := root.Bind("rc/a", a.Ref); err != nil {
		t.Fatal(err)
	}
	check("bind", []Binding{a}, a, b)

	// A selector installed: listRepl shows it, the selector never sees it.
	var offered [][]Binding
	selRef := c.client.Register("sel-last", SelectorFunc(func(bs []Binding, _ string) (string, error) {
		offered = append(offered, bs)
		return bs[len(bs)-1].Name, nil
	}))
	if err := root.SetSelector("rc", selRef); err != nil {
		t.Fatal(err)
	}
	sel := Binding{SelectorBinding, selRef}
	check("selector", []Binding{b}, a, b, sel)

	// unbind: the cache drops the binding.
	if err := root.Unbind("rc/b"); err != nil {
		t.Fatal(err)
	}
	check("unbind", []Binding{a}, a, sel)

	if len(offered) != 2 || !slices.Equal(offered[0], []Binding{a, b}) || !slices.Equal(offered[1], []Binding{a}) {
		t.Fatalf("the selector was offered %v, want [[a b] [a]]", offered)
	}
}

// TestSortedBindingsUnderWrites: readers on a slave list, listRepl and
// resolve through a replicated context while a writer binds and unbinds in
// it, so the cache is built, shared and dropped from several goroutines at
// once (run it under -race).  Every answer is one of the context's states.
func TestSortedBindingsUnderWrites(t *testing.T) {
	c := newNSCluster(t, 3)
	m := c.waitForMaster()
	slave := c.replicas[0]
	if slave == m {
		slave = c.replicas[1]
	}
	root := Context{Ep: c.client, Ref: slave.RootRef()}
	if _, err := root.BindReplContext("rc", PolicyRoundRobin); err != nil {
		t.Fatal(err)
	}
	a, b := Binding{"a", svcRef("a:1", 1)}, Binding{"b", svcRef("b:1", 2)}
	if err := root.Bind("rc/a", a.Ref); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				if bs, err := root.ListRepl("rc"); err != nil || !slices.Equal(bs, []Binding{a}) && !slices.Equal(bs, []Binding{a, b}) {
					t.Errorf("listRepl = %v, %v; want [a] or [a b]", bs, err)
					return
				}
				if bs, err := root.List("rc"); err != nil || len(bs) != 1 || bs[0] != a && bs[0] != b {
					t.Errorf("list = %v, %v; want [a] or [b]", bs, err)
					return
				}
				// The selector may pick b just before the writer unbinds it.
				if ref, err := root.Resolve("rc"); err != nil && !orb.IsApp(err, orb.ExcNotFound) || err == nil && ref != a.Ref && ref != b.Ref {
					t.Errorf("resolve = %v, %v; want a's or b's reference", ref, err)
					return
				}
			}
		}()
	}
	for i := 0; i < 100; i++ {
		if err := root.Bind("rc/b", b.Ref); err != nil {
			t.Error(err)
			break
		}
		if err := root.Unbind("rc/b"); err != nil {
			t.Error(err)
			break
		}
	}
	close(done)
	wg.Wait()
}

// TestSelectorPickCounters: every pick counts once, under the name of the
// replica it picked, in the counter the replica keeps for that name.
func TestSelectorPickCounters(t *testing.T) {
	c := newNSCluster(t, 1)
	c.waitForMaster()
	root := c.root(0)
	if _, err := root.BindReplContext("rr", PolicyRoundRobin); err != nil {
		t.Fatal(err)
	}
	replicas := []string{"pick-a", "pick-b", "pick-c"}
	picks := func() (each []int64) {
		for _, name := range replicas {
			each = append(each, c.replicas[0].reg.Counter(obs.L("names_selector_pick", "replica", name)).Value())
		}
		return each
	}
	for i, name := range replicas {
		if err := root.Bind("rr/"+name, svcRef("a:1", i)); err != nil {
			t.Fatal(err)
		}
	}
	before := picks()
	const n = 30
	for i := 0; i < n; i++ {
		if _, err := root.Resolve("rr"); err != nil {
			t.Fatal(err)
		}
	}
	var sum int64
	each := picks()
	for i := range each {
		each[i] -= before[i]
		sum += each[i]
	}
	if sum != n || !slices.Equal(each, []int64{n / 3, n / 3, n / 3}) {
		t.Fatalf("%d round-robin resolves counted %v picks, want %d in all, %d each", n, each, n, n/3)
	}
}

// TestBindingListRoundTripAllocations pins what a `list` reply of eight
// bindings costs to encode and decode: 17 allocations, one string per
// binding name, one per object id and the slice.  The references' addresses
// and type ids come out of the process's tables (oref), so they cost
// nothing.  (Framing and reading the frame cost nothing either; the wire
// package pins that.)
func TestBindingListRoundTripAllocations(t *testing.T) {
	list := make([]Binding, 8)
	for i := range list {
		list[i] = Binding{Name: "replica", Ref: oref.Ref{Addr: "192.168.0.1:555", Incarnation: 42, TypeID: TypeContext, ObjectID: "c7"}}
	}
	var (
		enc wire.Encoder
		dec wire.Decoder
	)
	n := testing.AllocsPerRun(200, func() {
		enc.Reset()
		PutBindings(&enc, list)
		dec.Reset(enc.Bytes())
		if got := Bindings(&dec); len(got) != len(list) || dec.Err() != nil || got[7] != list[7] {
			t.Fatalf("round trip: %d bindings, %v", len(got), dec.Err())
		}
	})
	if n != 17 {
		t.Errorf("an 8-binding list costs %.0f allocations to encode and decode, want 17", n)
	}
}

// FuzzBindings: arbitrary bytes never panic the decoder and never make it
// reserve room for more bindings than the bytes could encode; what decodes
// cleanly round-trips.
func FuzzBindings(f *testing.F) {
	e := new(wire.Encoder)
	PutBindings(e, []Binding{{Name: "mds-1", Ref: svcRef("10.0.0.1:1024", 3)}, {}})
	f.Add(e.Bytes())
	f.Add([]byte{0xff, 0xff, 0x3f})
	f.Add([]byte{0x01, 0x00, 0x00})
	f.Fuzz(func(t *testing.T, raw []byte) {
		d := new(wire.Decoder)
		d.Reset(raw)
		out := Bindings(d)
		if cap(out)*minBindingBytes > len(raw) {
			t.Fatalf("%d bytes reserved room for %d bindings", len(raw), cap(out))
		}
		if d.Err() != nil {
			return
		}
		e := new(wire.Encoder)
		PutBindings(e, out)
		d.Reset(e.Bytes())
		again := Bindings(d)
		if len(again) != len(out) {
			t.Fatalf("round trip changed %d bindings into %d", len(out), len(again))
		}
		for i := range out {
			if again[i] != out[i] {
				t.Fatalf("binding %d: %v became %v", i, out[i], again[i])
			}
		}
	})
}

// FuzzUpdate: arbitrary bytes never panic an update's decode, which a
// replica runs on every write it is forwarded or pushed; a decode that
// succeeds fails once a byte is appended, round-trips, and keeps none of
// the input's bytes (the replica decodes a view of the request, which the
// ORB reuses once the call ends).
func FuzzUpdate(f *testing.F) {
	f.Add(wire.Marshal(&update{Op: opBind, Ctx: RootContextID, Name: "svc/mds", Ref: svcRef("10.0.0.1:1024", 3), Trace: 7}))
	f.Add(wire.Marshal(&update{Op: opNewContext, Ctx: "c1", Name: "rds", NewID: "c2", Repl: true, Policy: PolicyRoundRobin}))
	f.Add([]byte{0x00, 0x04, 'r', 'o', 'o', 't'})
	f.Add([]byte{0xff, 0xff, 0x3f})
	f.Fuzz(func(t *testing.T, raw []byte) {
		var u update
		if u.decode(raw) != nil {
			return
		}
		if err := new(update).decode(append(slices.Clip(raw), 0)); err == nil {
			t.Fatalf("%x plus a trailing byte decoded", raw)
		}
		enc := wire.Marshal(&u)
		var again update
		if err := again.decode(enc); err != nil || again != u {
			t.Fatalf("round trip: %+v became %+v, %v", u, again, err)
		}
		for i := range raw {
			raw[i] ^= 0xff
		}
		if after := wire.Marshal(&u); !slices.Equal(after, enc) {
			t.Fatalf("the decoded update changed with its input: %x became %x", enc, after)
		}
	})
}
