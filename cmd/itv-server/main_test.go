package main

import (
	"bytes"
	"slices"
	"strings"
	"testing"

	"itv/internal/admin"
	"itv/internal/cluster"
	"itv/internal/csc"
	"itv/internal/obs"
	"itv/internal/orb"
)

// TestServerBoots boots the server's one-server cluster over memnet, in
// simulated time, and reads its service set back through the operator's
// commands: the name-service master and the server up, all twelve services
// supervised, and the services that bind a name in the name space.
func TestServerBoots(t *testing.T) {
	cfg := config("forge")
	cfg.Clk = nil // a fake clock: the §9.7 intervals pass in simulated time
	c := cluster.New(cfg)
	if err := start(c); err != nil {
		t.Fatal(err)
	}
	defer c.Stop()

	for svc, hosts := range c.Store.All(csc.ServicesTable) {
		if hosts != host {
			t.Errorf("placement of %s = %q, want %q once", svc, hosts, host)
		}
	}

	obs.NodeHLC(host).SetNow(c.Clk.Now) // keep the operator on simulated time
	ep, err := orb.NewEndpoint(c.NW.Host(host))
	if err != nil {
		t.Fatal(err)
	}
	defer ep.Close()
	// run returns one command's output, normalised to one line of fields
	// per output line, once it satisfies ok — retrying while simulated time
	// moves on: the acting CSC pings its servers, and the services bind
	// their names, on their own schedules.
	run := func(ok func(lines []string) bool, args ...string) {
		t.Helper()
		var out bytes.Buffer
		var err error
		if !c.WaitFor(func() bool {
			out.Reset()
			if err = admin.Run(&out, ep, c.NSAddrs()[0], args); err != nil {
				return false
			}
			var lines []string
			for _, l := range strings.Split(strings.TrimSpace(out.String()), "\n") {
				lines = append(lines, strings.Join(strings.Fields(l), " "))
			}
			return ok(lines)
		}) {
			t.Fatalf("itv-admin %s: err %v, output:\n%s", strings.Join(args, " "), err, out.String())
		}
	}
	is := func(want ...string) func([]string) bool {
		return func(got []string) bool { return slices.Equal(got, want) }
	}

	run(func(l []string) bool {
		return len(l) == 3 && strings.HasPrefix(l[0], "name service "+host+":555: master, ") &&
			l[2] == host+" UP"
	}, "status")
	run(func(l []string) bool {
		slices.Sort(l)
		return is("boot", "cmgr-1", "csc", "db", "kernel", "mds", "mgr", "mms", "ns", "ras", "rds-1", "vod")(l)
	}, "running", host)
	run(is("cmgr itv.ReplicatedContext", "1 itv.ConnectionManager",
		"csc itv.CSC",
		"kernel itv.KernelBroadcast",
		"mds itv.ReplicatedContext", "forge itv.MDS",
		"mms itv.MMS",
		"rds itv.ReplicatedContext", "1 itv.RDS",
		"vod itv.VOD"), "list", "svc")
}
