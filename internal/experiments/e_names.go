package experiments

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"itv/internal/atm"
	"itv/internal/clock"
	"itv/internal/cluster"
	"itv/internal/core"
	"itv/internal/names"
	"itv/internal/orb"
	"itv/internal/oref"
	"itv/internal/transport"
	"itv/internal/wire"
)

// nsFixture is a one-replica name service plus helpers, for the naming and
// selector experiments.
type nsFixture struct {
	clk *clock.Fake
	nw  *transport.Network
	ns  *names.Replica
}

func newNSFixture() (*nsFixture, error) {
	clk := clock.NewFake()
	nw := transport.NewNetwork()
	ns, err := names.NewReplica(nw.Host("192.168.0.1"), clk, names.Config{
		Peers: []string{"192.168.0.1:555"},
	})
	if err != nil {
		return nil, err
	}
	f := &nsFixture{clk: clk, nw: nw, ns: ns}
	if !clk.Await(time.Second, 400, ns.IsMaster) {
		ns.Close()
		return nil, fmt.Errorf("no master elected")
	}
	return f, nil
}

func (f *nsFixture) close() { f.ns.Close() }

func (f *nsFixture) session(host string) (*core.Session, func(), error) {
	ep, err := orb.NewEndpoint(f.nw.Host(host))
	if err != nil {
		return nil, nil, err
	}
	return core.NewSession(ep, f.ns.RootRef(), f.clk), ep.Close, nil
}

// E6Scaling reproduces §9.6: "system capacity grows linearly with the
// number of servers" — most service replicas operate nearly independently,
// so adding a server adds its full streaming capacity, and clients reach
// the new replicas automatically through the replicated contexts.
func E6Scaling() *Table {
	t := &Table{
		Title:  "E6 (§9.6, §5.1): streaming capacity vs number of servers",
		Header: []string{"servers", "admitted 4 Mb/s streams", "per server", "linear?"},
	}
	base := 0
	for _, n := range []int{1, 2, 3} {
		admitted := streamCapacity(n)
		if n == 1 {
			base = admitted
		}
		linear := "yes"
		if base > 0 && admitted < base*n {
			linear = fmt.Sprintf("%.2fx", float64(admitted)/float64(base*n))
		}
		t.Rows = append(t.Rows, row(num(int64(n)), num(int64(admitted)),
			num(int64(admitted/n)), linear))
	}
	t.Rows = append(t.Rows, row("paper:", "\"capacity grows linearly", "with the number of servers\"", ""))
	return t
}

// streamCapacity builds an n-server cluster and admits streams through the
// real Connection Manager path until the fabric refuses.
func streamCapacity(n int) int {
	cfg := cluster.Config{
		Apps:   map[string][]byte{"navigator": make([]byte, 1<<20)},
		Kernel: make([]byte, 1<<20),
	}
	for i := 0; i < n; i++ {
		cfg.Servers = append(cfg.Servers, cluster.ServerSpec{
			Name:          fmt.Sprintf("srv%d", i+1),
			Host:          fmt.Sprintf("192.168.0.%d", i+1),
			Neighborhoods: []string{fmt.Sprintf("%d", i+1)},
			Egress:        100 * atm.Mbps,
		})
	}
	c := cluster.New(cfg)
	c.Start()
	defer c.Stop()

	admitted := 0
	for i := 0; i < n; i++ {
		nb := fmt.Sprintf("%d", i+1)
		srv := c.CmgrPrimary(nb)
		if srv == nil {
			continue
		}
		cm := srv.Cmgr(nb)
		serverHost := c.Servers[i].Spec.Host
		for j := 0; ; j++ {
			settop := fmt.Sprintf("10.%s.%d.%d", nb, j/250, j%250+1)
			c.Fabric.AddSettop(settop)
			if _, err := cm.Allocate(settop, serverHost, 4*atm.Mbps, atm.CBR); err != nil {
				break
			}
			admitted++
		}
	}
	return admitted
}

// E7RecoveryStorm reproduces §8.2: when a popular service crashes, many
// clients re-resolve at once.  "Because the resolve operation is quite
// fast, we do not expect this to be a problem.  If performance
// difficulties arise, we can modify the library routine to back off."
// Both behaviours are measured: the resolve load the storm puts on the
// name service, with and without client backoff.
func E7RecoveryStorm() *Table {
	t := &Table{
		Title:  "E7 (§8.2): recovery storm — N clients re-resolving after a crash",
		Header: []string{"clients", "backoff", "NS requests during storm", "recovered", "wall time"},
	}
	for _, n := range []int{50, 200} {
		for _, backoff := range []time.Duration{0, 2 * time.Second} {
			reqs, recovered, wall := storm(n, backoff)
			bs := "none"
			if backoff > 0 {
				bs = backoff.String()
			}
			t.Rows = append(t.Rows, row(num(int64(n)), bs, num(reqs),
				fmt.Sprintf("%d/%d", recovered, n), wall.Truncate(time.Millisecond).String()))
		}
	}
	t.Rows = append(t.Rows, row("paper:", "resolve fast enough;", "backoff as the documented mitigation", "", ""))
	return t
}

func storm(n int, backoff time.Duration) (nsReqs int64, recovered int64, wall time.Duration) {
	f, err := newNSFixture()
	if err != nil {
		return -1, 0, 0
	}
	defer f.close()

	// A service everyone uses, then loses.
	svcEp, err := orb.NewEndpoint(f.nw.Host("192.168.0.1"))
	if err != nil {
		return -1, 0, 0
	}
	ref := svcEp.Register("", echoSkel{})
	adminSess, adminClose, err := f.session("192.168.0.9")
	if err != nil {
		return -1, 0, 0
	}
	defer adminClose()
	if err := adminSess.Root.Bind("popular", ref); err != nil {
		return -1, 0, 0
	}

	var rebinders []*core.Rebinder
	var closers []func()
	for i := 0; i < n; i++ {
		sess, cl, err := f.session(fmt.Sprintf("10.1.%d.%d", i/250, i%250+1))
		if err != nil {
			return -1, 0, 0
		}
		closers = append(closers, cl)
		rb := sess.Service("popular")
		// The storm ends when the replacement binds, 60 ms of real time
		// in; the attempt budget must not end it sooner for anyone.  At
		// ~10 µs a failed resolve, a client the scheduler favours gets
		// through hundreds of attempts in that window.
		rb.MaxAttempts = 1 << 20
		rb.Backoff = backoff
		if err := rb.Invoke("echo", func(e *wire.Encoder) { e.PutString("warm") },
			func(d *wire.Decoder) error { _ = d.String(); return nil }); err != nil {
			return -1, 0, 0
		}
		rebinders = append(rebinders, rb)
	}
	defer func() {
		for _, cl := range closers {
			cl()
		}
	}()

	// Crash and replace the service; the binding is gone for a moment
	// (exactly the storm window).
	svcEp.Close()
	_ = adminSess.Root.Unbind("popular")

	before := f.ns.Endpoint().Stats().Received
	rt := clock.Real() // the storm is measured in real time by design
	start := rt.Now()
	var ok, finished atomic.Int64
	for _, rb := range rebinders {
		go func(rb *core.Rebinder) {
			defer finished.Add(1)
			err := rb.Invoke("echo", func(e *wire.Encoder) { e.PutString("again") },
				func(d *wire.Decoder) error { _ = d.String(); return nil })
			if err == nil {
				ok.Add(1)
			}
		}(rb)
	}

	// Bring the replacement up only after a real storm window, so clients
	// genuinely retry against a missing binding (the backup-bind delay of
	// §5.2); pump the fake clock meanwhile so backoff sleeps elapse.
	go func() {
		rt.Sleep(60 * time.Millisecond)
		svcEp2, err := orb.NewEndpoint(f.nw.Host("192.168.0.1"))
		if err != nil {
			return
		}
		ref2 := svcEp2.Register("", echoSkel{})
		_ = adminSess.Root.Bind("popular", ref2)
	}()
	f.clk.Await(500*time.Millisecond, 1<<16, func() bool { return finished.Load() == int64(n) })
	return f.ns.Endpoint().Stats().Received - before, ok.Load(), rt.Since(start)
}

type echoSkel struct{}

func (echoSkel) TypeID() string { return "itv.Echo" }
func (echoSkel) Dispatch(c *orb.ServerCall) error {
	if c.Method() != "echo" {
		return orb.ErrNoSuchMethod
	}
	c.Results().PutString(c.Args().String())
	return nil
}

// E8Selectors reproduces §5.1: the deployed static selectors (neighborhood
// and server affinity) plus the generic ones, measured by how they spread
// 4,200 settops across 6 replicas; and the load-based selector that
// implements §11's planned dynamic policies.
func E8Selectors() *Table {
	t := &Table{
		Title:  "E8 (§5.1, §11): selector load spread — 4200 resolutions over 6 replicas",
		Header: []string{"selector", "min per replica", "max per replica", "note"},
	}
	f, err := newNSFixture()
	if err != nil {
		return t
	}
	defer f.close()
	adminSess, adminClose, err := f.session("192.168.0.9")
	if err != nil {
		return t
	}
	defer adminClose()

	refs := make(map[string]oref.Ref)
	setup := func(name, policy string) names.Context {
		_, _ = adminSess.Root.BindReplContext(name, policy)
		for i := 1; i <= 6; i++ {
			r := oref.Ref{Addr: fmt.Sprintf("192.168.0.%d:900", i), Incarnation: int64(i), TypeID: "itv.RDS"}
			refs[r.Addr] = r
			_ = adminSess.Root.Bind(fmt.Sprintf("%s/%d", name, i), r)
		}
		return adminSess.Root
	}

	spread := func(name string) (minC, maxC int) {
		counts := map[string]int{}
		for i := 0; i < 4200; i++ {
			nbhd := i%6 + 1
			host := fmt.Sprintf("10.%d.%d.%d", nbhd, i/250, i%250+1)
			ref, err := adminSess.Root.ResolveAs(name, host)
			if err != nil {
				continue
			}
			counts[ref.Addr]++
		}
		first := true
		for _, c := range counts {
			if first || c < minC {
				minC = c
			}
			if first || c > maxC {
				maxC = c
			}
			first = false
		}
		return minC, maxC
	}

	for _, p := range []struct {
		policy, note string
	}{
		{names.PolicyNeighborhood, "deployed: exact per-neighborhood partition"},
		{names.PolicyHash, "static spread by caller hash"},
		{names.PolicyRoundRobin, "uniform rotation"},
	} {
		name := "sel-" + p.policy
		setup(name, p.policy)
		minC, maxC := spread(name)
		t.Rows = append(t.Rows, row(p.policy, num(int64(minC)), num(int64(maxC)), p.note))
	}

	// Load-based selector (§11 future work): replicas report load; the
	// selector sends work to the lightest, self-balancing via anticipation.
	name := "sel-load"
	setup(name, names.PolicyFirst)
	ls := names.NewLoadSelector()
	selEp, err := orb.NewEndpoint(f.nw.Host("192.168.0.9"))
	if err == nil {
		defer selEp.Close()
		selRef := selEp.Register("load-sel", ls)
		_ = adminSess.Root.SetSelector(name, selRef)
		stub := names.SelectorStub{Ep: adminSess.Ep, Ref: selRef}
		for i := 1; i <= 6; i++ {
			_ = names.Report(adminSess.Ep, stub, fmt.Sprintf("%d", i), float64(i))
		}
		minC, maxC := spread(name)
		t.Rows = append(t.Rows, row("load-based (dynamic)", num(int64(minC)), num(int64(maxC)),
			"§11: \"more powerful selectors\""))
	}
	return t
}

// E9NameService reproduces §4.6: every replica answers lookups locally
// (read throughput scales with replicas), updates are serialized through
// an elected master, and the service requires a majority for updates while
// reads keep working.
func E9NameService() *Table {
	t := &Table{
		Title:  "E9 (§4.6): name-service locality, throughput and majority behaviour",
		Header: []string{"metric", "value"},
	}

	// Read throughput: 1 vs 3 replicas, clients pinned to replicas.
	for _, n := range []int{1, 3} {
		ops := resolveThroughput(n)
		t.Rows = append(t.Rows, row(
			fmt.Sprintf("resolves/sec, %d replica(s), %d clients", n, 6),
			fmt.Sprintf("%.0f", ops)))
	}

	// Majority behaviour on a 3-replica group.
	clk := clock.NewFake()
	nw := transport.NewNetwork()
	peers := []string{"192.168.0.1:555", "192.168.0.2:555", "192.168.0.3:555"}
	var reps []*names.Replica
	for i := 0; i < 3; i++ {
		r, err := names.NewReplica(nw.Host(fmt.Sprintf("192.168.0.%d", i+1)), clk, names.Config{Peers: peers})
		if err != nil {
			return t
		}
		defer r.Close()
		reps = append(reps, r)
	}
	waitCond(clk, func() bool {
		for _, r := range reps {
			if r.IsMaster() {
				return true
			}
		}
		return false
	})
	ep, err := orb.NewEndpoint(nw.Host("10.1.0.1"))
	if err != nil {
		return t
	}
	defer ep.Close()
	root := names.Context{Ep: ep, Ref: reps[0].RootRef()}
	wall := clock.Real() // update latency is a wall-clock measurement
	bindStart := wall.Now()
	_ = root.Bind("probe", oref.Ref{Addr: "x:1", Incarnation: 1, TypeID: "t"})
	t.Rows = append(t.Rows, row("update latency (bind, serialized via master)",
		wall.Since(bindStart).Truncate(time.Microsecond).String()))

	// Partition away two replicas: updates refused, reads still served.
	nw.Cut("192.168.0.2")
	nw.Cut("192.168.0.3")
	waitCond(clk, func() bool { return !reps[0].IsMaster() })
	err = root.Bind("minority", oref.Ref{Addr: "y:1", Incarnation: 1, TypeID: "t"})
	writeRefused := orb.IsApp(err, orb.ExcUnavailable) || orb.Dead(err)
	_, rerr := root.Resolve("probe")
	t.Rows = append(t.Rows,
		row("minority update refused", fmt.Sprintf("%v", writeRefused)),
		row("minority local read still served", fmt.Sprintf("%v", rerr == nil)),
		row("paper", "\"available as long as a majority of replicas are alive\"; local lookups always"))
	return t
}

func waitCond(clk *clock.Fake, cond func() bool) {
	clk.Await(500*time.Millisecond, 600, cond)
}

// resolveThroughput measures wall-clock resolve throughput with clients
// spread across n replicas.
func resolveThroughput(n int) float64 {
	clk := clock.NewFake()
	nw := transport.NewNetwork()
	var peers []string
	for i := 0; i < n; i++ {
		peers = append(peers, fmt.Sprintf("192.168.0.%d:555", i+1))
	}
	var reps []*names.Replica
	for i := 0; i < n; i++ {
		r, err := names.NewReplica(nw.Host(fmt.Sprintf("192.168.0.%d", i+1)), clk, names.Config{Peers: peers})
		if err != nil {
			return 0
		}
		defer r.Close()
		reps = append(reps, r)
	}
	var master *names.Replica
	waitCond(clk, func() bool {
		for _, r := range reps {
			if r.IsMaster() {
				master = r
				return true
			}
		}
		return false
	})
	if master == nil {
		return 0
	}
	ep0, err := orb.NewEndpoint(nw.Host("10.9.0.1"))
	if err != nil {
		return 0
	}
	defer ep0.Close()
	root := names.Context{Ep: ep0, Ref: master.RootRef()}
	_ = root.Bind("svc-x", oref.Ref{Addr: "h:1", Incarnation: 1, TypeID: "t"})

	const clients = 6
	const duration = 100 * time.Millisecond
	var total atomic.Int64
	var wg sync.WaitGroup
	wall := clock.Real() // throughput is resolves per real second
	stopAt := wall.Now().Add(duration)
	for cI := 0; cI < clients; cI++ {
		wg.Add(1)
		go func(cI int) {
			defer wg.Done()
			ep, err := orb.NewEndpoint(nw.Host(fmt.Sprintf("10.1.0.%d", cI+1)))
			if err != nil {
				return
			}
			defer ep.Close()
			// Each client uses "its" replica — the per-server locality the
			// paper relies on.
			r := names.Context{Ep: ep, Ref: reps[cI%n].RootRef()}
			for wall.Now().Before(stopAt) {
				if _, err := r.Resolve("svc-x"); err == nil {
					total.Add(1)
				}
			}
		}(cI)
	}
	wg.Wait()
	return float64(total.Load()) / duration.Seconds()
}

// E14NewService reproduces §9.1: the six-step recipe that let ~25 services
// be built in 15 months, executed programmatically: define the interface
// (a skeleton), implement it, export it through the name service, and call
// it from a client — measuring how little code and time the OCS recipe
// needs.
func E14NewService() *Table {
	t := &Table{
		Title:  "E14 (§9.1): building and deploying a new service, end to end",
		Header: []string{"step", "result"},
	}
	f, err := newNSFixture()
	if err != nil {
		return t
	}
	defer f.close()
	wall := clock.Real() // the recipe's end-to-end time is wall-clock
	start := wall.Now()

	// Steps 1–3: interface + skeleton (hand-written here; generated by the
	// IDL compiler in the paper's toolchain).
	svcEp, err := orb.NewEndpoint(f.nw.Host("192.168.0.1"))
	if err != nil {
		return t
	}
	defer svcEp.Close()
	t.Rows = append(t.Rows, row("1-3. IDL interface, stubs, skeleton", "echo service skeleton"))

	// Step 4: fill in the implementation.
	ref := svcEp.Register("", echoSkel{})
	t.Rows = append(t.Rows, row("4. implement service", "done"))

	// Step 5: create and export through the name service.
	sess, cl, err := f.session("192.168.0.1")
	if err != nil {
		return t
	}
	defer cl()
	if err := sess.Root.Bind("svc-echo", ref); err != nil {
		t.Rows = append(t.Rows, row("5. export via name service", "FAILED: "+err.Error()))
		return t
	}
	t.Rows = append(t.Rows, row("5. export via name service", "bound at svc-echo"))

	// Step 6: client looks it up and invokes.
	csess, ccl, err := f.session("10.1.0.5")
	if err != nil {
		return t
	}
	defer ccl()
	var out string
	err = csess.Service("svc-echo").Invoke("echo",
		func(e *wire.Encoder) { e.PutString("hello orlando") },
		func(d *wire.Decoder) error { out = d.String(); return nil })
	t.Rows = append(t.Rows,
		row("6. client resolves and invokes", fmt.Sprintf("%q, err=%v", out, err)),
		row("total wall time", wall.Since(start).Truncate(time.Microsecond).String()),
		row("paper", "~25 services in under 15 months with this recipe"))
	return t
}
