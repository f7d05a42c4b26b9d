package experiments

import (
	"fmt"
	"time"

	"itv/internal/audit"
	"itv/internal/clock"
	"itv/internal/cluster"
	"itv/internal/orb"
	"itv/internal/oref"
	"itv/internal/settopmgr"
	"itv/internal/ssc"
	"itv/internal/transport"
)

// E5AuditMessages reproduces §7.1–7.2.1: the message-cost comparison that
// led to the RAS design.  The RAS's network traffic is peer polling —
// O(servers²) messages per interval, independent of how many clients hold
// resources — while the rejected alternatives scale with client count:
// client-renewed leases cost renewals ∝ clients × resources, and
// per-service pinging costs pings ∝ tracked clients.
func E5AuditMessages() *Table {
	t := &Table{
		Title:  "E5 (§7.1, §7.2.1): audit-scheme message rates (messages per simulated minute)",
		Header: []string{"scheme", "servers", "clients", "msgs/min", "scales with"},
	}

	// RAS: vary servers with a fixed large client population.
	for _, servers := range []int{2, 4, 8} {
		rate := rasMessageRate(servers, 1000)
		t.Rows = append(t.Rows, row("RAS peer polling", num(int64(servers)), "1000",
			num(rate), "servers^2"))
	}

	// Lease renewal: vary clients (2 resources each, 30 s TTL, renew at
	// TTL/2 — the §7.1 "short periods of time" scheme).
	for _, clients := range []int{100, 1000, 10000} {
		rate := leaseMessageRate(clients, 2, 30*time.Second)
		t.Rows = append(t.Rows, row("client lease renewal", "-", num(int64(clients)),
			num(rate), "clients x resources"))
	}

	// Per-service pinging: 3 services each pinging its clients every 5 s.
	// The rate is measured with real pings at small scale to validate the
	// model (services × clients × polls/min), then the model extrapolates:
	// at 10,000 clients the real pinger cannot even keep up with its own
	// interval, which is §7.2's point.
	measured := pingMessageRate(3, 100)
	t.Rows = append(t.Rows, row("per-service pinging", "-", "100",
		num(measured), "services x clients (measured)"))
	for _, clients := range []int{1000, 10000} {
		model := int64(3 * clients * 12)
		t.Rows = append(t.Rows, row("per-service pinging", "-", num(int64(clients)),
			num(model), "services x clients (modeled)"))
	}
	t.Rows = append(t.Rows, row("paper:", "RAS chosen —", "\"only a small number of",
		"network messages\",", "independent of clients"))
	return t
}

// rasMessageRate measures real RAS network messages over a simulated
// minute with `servers` RAS instances cross-watching objects, while
// `clients` local queries arrive (which cost no network messages at all).
func rasMessageRate(servers, clients int) int64 {
	clk := clock.NewFake()
	nw := transport.NewNetwork()
	type node struct {
		ras *audit.Service
		ctl *ssc.Controller
		mgr *settopmgr.Manager
	}
	var nodes []node
	host := func(i int) string { return fmt.Sprintf("192.168.0.%d", i+1) }
	for i := 0; i < servers; i++ {
		ctl, err := ssc.New(nw.Host(host(i)), clk)
		if err != nil {
			return -1
		}
		mgr, err := settopmgr.New(nw.Host(host(i)), clk)
		if err != nil {
			return -1
		}
		ras, err := audit.New(nw.Host(host(i)), clk, audit.Config{})
		if err != nil {
			return -1
		}
		defer ras.Close()
		defer mgr.Close()
		defer ctl.Close()
		nodes = append(nodes, node{ras: ras, ctl: ctl, mgr: mgr})
	}

	// Every RAS watches 20 objects on every other server (an MMS-like
	// watch set), plus answers local client questions.
	for i, n := range nodes {
		var refs []oref.Ref
		for j := range nodes {
			if j == i {
				continue
			}
			for k := 0; k < 20; k++ {
				refs = append(refs, oref.Ref{
					Addr:        fmt.Sprintf("%s:9%02d", host(j), k),
					Incarnation: int64(k + 1),
					TypeID:      "itv.Test",
				})
			}
		}
		n.ras.CheckStatus(refs)
	}

	totalSent := func() int64 {
		var total int64
		for _, n := range nodes {
			total += n.ras.Endpoint().Stats().Sent
		}
		return total
	}

	// Local client load: checkStatus is answered from memory (§7.2) and
	// costs no network messages, no matter how many clients ask.
	clk.Await(step, 2, never)
	before := totalSent()
	for s := 0; s < 60; s++ {
		for c := 0; c < clients/60; c++ {
			nodes[0].ras.CheckStatus([]oref.Ref{audit.SettopRef(fmt.Sprintf("10.1.0.%d", c%250+1))})
		}
		clk.Await(step, 2, never)
	}
	return totalSent() - before
}

// step is the simulated time one fake-clock advance covers; the audit
// experiments run for a fixed stretch as clk.Await(step, n, never).
const step = 500 * time.Millisecond

func never() bool { return false }

// leaseMessageRate counts renewal messages for a client population over a
// simulated minute.
func leaseMessageRate(clients, resourcesEach int, ttl time.Duration) int64 {
	clk := clock.NewFake()
	lt := audit.NewLeaseTable(clk, ttl, func(string) {})
	defer lt.Close()
	for c := 0; c < clients; c++ {
		for r := 0; r < resourcesEach; r++ {
			lt.Grant(fmt.Sprintf("c%d-r%d", c, r))
		}
	}
	renewEvery := ttl / 2
	steps := int(time.Minute / renewEvery)
	for s := 0; s < steps; s++ {
		clk.Await(step, int(renewEvery/step), never)
		for c := 0; c < clients; c++ {
			for r := 0; r < resourcesEach; r++ {
				lt.Renew(fmt.Sprintf("c%d-r%d", c, r))
			}
		}
	}
	return lt.Renewals()
}

// pingMessageRate counts ping messages from `services` services each
// tracking `clients` client objects over a simulated minute.
func pingMessageRate(services, clients int) int64 {
	clk := clock.NewFake()
	nw := transport.NewNetwork()
	target, err := orb.NewEndpoint(nw.Host("10.1.0.1"))
	if err != nil {
		return -1
	}
	defer target.Close()
	refs := make([]oref.Ref, clients)
	for c := 0; c < clients; c++ {
		refs[c] = target.Register(fmt.Sprintf("c%d", c), pingable{})
	}

	var pingers []*audit.Pinger
	for s := 0; s < services; s++ {
		ep, err := orb.NewEndpoint(nw.Host(fmt.Sprintf("192.168.0.%d", s+1)))
		if err != nil {
			return -1
		}
		defer ep.Close()
		p := audit.NewPinger(ep, clk, 5*time.Second, func(oref.Ref) {})
		defer p.Close()
		for _, ref := range refs {
			p.Track(ref)
		}
		pingers = append(pingers, p)
	}
	clk.Await(step, 2, never)
	var before int64
	for _, p := range pingers {
		before += p.Pings()
	}
	clk.Await(step, int(time.Minute/step), never)
	var after int64
	for _, p := range pingers {
		after += p.Pings()
	}
	return after - before
}

type pingable struct{}

func (pingable) TypeID() string                 { return "itv.Pingable" }
func (pingable) Dispatch(*orb.ServerCall) error { return orb.ErrNoSuchMethod }

// E11Leakage reproduces §7.1's motivating failure: with duration-based
// time-outs, crashed development clients leaked movies until the estimated
// duration expired and "resource leakage began to make the system
// unusable"; leases reclaim within a TTL; the RAS path reclaims within the
// settop-manager timeout plus two polling intervals.
func E11Leakage() *Table {
	t := &Table{
		Title:  "E11 (§7.1): resource reclamation delay after a client crash",
		Header: []string{"scheme", "reclaim delay (simulated)", "leaked movie-minutes per 100 crashes"},
	}

	// Duration time-out: a 2-hour movie granted for its full duration.
	{
		clk := clock.NewFake()
		reclaimed := make(chan struct{}, 1)
		dt := audit.NewDurationTable(clk, time.Second, func(string) { reclaimed <- struct{}{} })
		dt.Grant("movie", 2*time.Hour)
		start := clk.Now()
		// The client crashes immediately; nothing happens until expiry.
		var delay time.Duration
		if clk.Await(time.Second, 9000, func() bool { return len(reclaimed) > 0 }) {
			delay = clk.Now().Sub(start)
		}
		dt.Close()
		t.Rows = append(t.Rows, row("duration time-out (2h estimate)",
			secs(delay), fmt.Sprintf("%.0f", delay.Minutes()*100)))
	}

	// Lease renewal (30 s TTL): reclaim within ~1.5 TTL.
	{
		clk := clock.NewFake()
		reclaimed := make(chan struct{}, 1)
		lt := audit.NewLeaseTable(clk, 30*time.Second, func(string) { reclaimed <- struct{}{} })
		lt.Grant("movie")
		start := clk.Now()
		var delay time.Duration
		if clk.Await(time.Second, 600, func() bool { return len(reclaimed) > 0 }) {
			delay = clk.Now().Sub(start)
		}
		lt.Close()
		t.Rows = append(t.Rows, row("client-renewed lease (30s TTL)",
			secs(delay), fmt.Sprintf("%.0f", delay.Minutes()*100)))
	}

	// RAS: the full cluster path measured end to end — settop crash to
	// bandwidth released (settop-manager timeout + RAS poll + MMS poll).
	{
		c := cluster.New(twoServerConfig())
		c.Start()
		defer c.Stop()
		st := c.NewSettop("1", 0)
		c.MustWaitFor("boot", func() bool { _, err := st.Boot(); return err == nil })
		if err := st.OpenMovie("T2"); err == nil {
			start := c.Clk.Now()
			st.Crash()
			c.MustWaitFor("reclaimed", func() bool { return c.Fabric.Conns() == 0 })
			delay := c.Clk.Now().Sub(start)
			t.Rows = append(t.Rows, row("RAS (deployed intervals)",
				secs(delay), fmt.Sprintf("%.0f", delay.Minutes()*100)))
		}
	}
	t.Rows = append(t.Rows, row("paper:", "duration scheme \"too conservative ... unusable\"", "RAS within seconds"))
	return t
}
