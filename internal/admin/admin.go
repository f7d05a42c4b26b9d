// Package admin is the operator tool's command set (§6.2), behind
// cmd/itv-admin: one Run per command line, writing what the operator sees.
// It is a package of its own so a test can drive it against an in-process
// cluster as well as the command drives it against a TCP one.
package admin

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"itv/internal/clock"
	"itv/internal/cmgr"
	"itv/internal/core"
	"itv/internal/csc"
	"itv/internal/names"
	"itv/internal/obs"
	"itv/internal/orb"
	"itv/internal/ssc"
)

// Run executes one command (args[0]) through ep against the cluster whose
// name service answers at nsAddr, writing what the operator sees to w.
func Run(w io.Writer, ep *orb.Endpoint, nsAddr string, args []string) error {
	sess := core.NewSession(ep, names.RootRefAt(nsAddr), clock.Real())
	cmd, args := args[0], args[1:]
	need := func(n int, usage string) error {
		if len(args) < n {
			return fmt.Errorf("usage: %s %s", cmd, usage)
		}
		return nil
	}

	switch cmd {
	case "list":
		path := ""
		if len(args) > 0 {
			path = args[0]
		}
		return listTree(w, sess, path, 0)

	case "resolve":
		if err := need(1, "<name>"); err != nil {
			return err
		}
		ref, err := sess.Root.Resolve(args[0])
		if err != nil {
			return err
		}
		fmt.Fprintln(w, ref)
		if err := ep.Ping(ref); err != nil {
			fmt.Fprintln(w, "liveness: DEAD —", err)
		} else {
			fmt.Fprintln(w, "liveness: up")
		}

	case "status":
		role, term, master, seq, err := names.StatusOf(ep, nsAddr)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "name service %s: %s, term %d, master %s, seq %d\n",
			nsAddr, role, term, master, seq)
		st, err := csc.NewStub(sess).Status()
		if err != nil {
			fmt.Fprintln(w, "csc: unavailable:", err)
			return nil
		}
		fmt.Fprintln(w, "cluster (per the acting CSC):")
		for h, up := range st {
			state := "UP"
			if !up {
				state = "DOWN"
			}
			fmt.Fprintf(w, "  %-16s %s\n", h, state)
		}

	case "running":
		if err := need(1, "<host>"); err != nil {
			return err
		}
		svcs, err := ssc.Stub{Ep: ep, Ref: ssc.RefAt(args[0])}.Running()
		if err != nil {
			return err
		}
		for _, s := range svcs {
			fmt.Fprintln(w, " ", s)
		}

	case "kill", "stop", "start":
		if err := need(2, "<host> <svc>"); err != nil {
			return err
		}
		stub := ssc.Stub{Ep: ep, Ref: ssc.RefAt(args[0])}
		do := map[string]func(string) error{"kill": stub.Kill, "stop": stub.Stop, "start": stub.Start}[cmd]
		if err := do(args[1]); err != nil {
			return err
		}
		fmt.Fprintf(w, "%s %s on %s: ok\n", cmd, args[1], args[0])

	case "usage":
		// §7.3 resource accounting from the caller's neighborhood cmgr.
		ref, err := sess.Root.Resolve("svc/cmgr")
		if err != nil {
			// No neighborhood match for an admin host: take any replica.
			all, lerr := sess.Root.ListRepl("svc/cmgr")
			if lerr != nil || len(all) == 0 {
				return err
			}
			ref = all[0].Ref
		}
		report, err := (cmgr.Stub{Ep: ep, Ref: ref}).Usage()
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%-18s %8s %8s %14s\n", "settop", "opened", "denied", "Mbit-seconds")
		for _, u := range report {
			fmt.Fprintf(w, "%-18s %8d %8d %14.1f\n", u.Settop, u.Opened, u.Denied, u.MbitSeconds)
		}

	case "metrics":
		// Scrape any ORB endpoint's node registry over the wire (works
		// against servers that never opened a debug HTTP port).
		if err := need(1, "<host:port>"); err != nil {
			return err
		}
		text, err := ep.MetricsOf(args[0])
		if err != nil {
			return err
		}
		fmt.Fprint(w, text)
		// Latency quantiles, interpolated from the histogram buckets above,
		// with the highest-bucket exemplar's trace id beside them — the
		// sampled call an operator chasing the p99 resolves via `trace`.
		samples := obs.ParseText(text)
		exes := obs.ParseExemplars(samples)
		if sums := obs.SummarizeHistograms(samples); len(sums) > 0 {
			fmt.Fprintf(w, "\n%-44s %8s %8s %8s %8s %18s\n", "HISTOGRAM", "COUNT", "P50", "P95", "P99", "TRACE")
			for _, s := range sums {
				trace := "-"
				if ex, ok := obs.TopExemplar(exes, s.Name); ok {
					trace = fmt.Sprintf("%016x", ex.Trace)
				}
				fmt.Fprintf(w, "%-44s %8d %8s %8s %8s %18s\n", s.Name, s.Count, s.P50, s.P95, s.P99, trace)
			}
		}

	case "events":
		// Fan the _events scrape out across the cluster and print one merged
		// timeline in HLC order (wall order lies across skewed machines);
		// unorderable neighbors are marked "?~".
		merged, unc, err := timeline(w, ep, sess, args)
		if err != nil {
			return err
		}
		obs.WriteEvents(w, merged, unc)

	case "trace":
		// Reconstruct one failover end-to-end: every node's flight-recorder
		// entries carrying the given trace id, in causal (HLC) order.
		if err := need(1, "<trace-id> [host ...]"); err != nil {
			return err
		}
		id, err := strconv.ParseUint(strings.TrimPrefix(args[0], "0x"), 16, 64)
		if err != nil || id == 0 {
			return fmt.Errorf("bad trace id %q (want hex, e.g. 4a1f00d2c3b4a596)", args[0])
		}
		merged, unc, err := timeline(w, ep, sess, args[1:])
		if err != nil {
			return err
		}
		chain := obs.FilterTrace(merged, id)
		if len(chain) == 0 {
			return fmt.Errorf("no events for trace %016x (rings are bounded; scrape sooner)", id)
		}
		obs.WriteEvents(w, chain, unc)

	case "watch":
		// Live cluster dashboard: every node's _health windows rendered as
		// per-method RED rows (rate, errors, p50/p99) plus runtime gauges
		// and measured clock offsets.
		wf := flag.NewFlagSet("watch", flag.ContinueOnError)
		once := wf.Bool("once", false, "render a single frame and exit")
		interval := wf.Duration("interval", 2*time.Second, "refresh interval")
		if err := wf.Parse(args); err != nil {
			return err
		}
		hosts, err := clusterHosts(sess, wf.Args())
		if err != nil {
			return err
		}
		for {
			// A frame is built whole, then painted over the last one.
			var frame bytes.Buffer
			var reports []*obs.HealthReport
			scrape(&frame, hosts,
				func(addr string) (*obs.HealthReport, error) { return ep.HealthOf(addr, 0) },
				func(_ string, r *obs.HealthReport) { reports = append(reports, r) })
			obs.RenderHealth(&frame, reports, 24)
			if !*once {
				fmt.Fprint(w, "\x1b[H\x1b[2J") // clear screen, cursor home
			}
			w.Write(frame.Bytes())
			if *once {
				return nil
			}
			clock.Real().Sleep(*interval)
		}

	case "slow":
		// Fan the _slow scrape out across the cluster: each node's ledger of
		// calls past its adaptive tail threshold, with the
		// queue/service/flush split saying where the time went.
		hosts, err := clusterHosts(sess, args)
		if err != nil {
			return err
		}
		scrape(w, hosts, ep.SlowOf, func(h string, rep *orb.SlowReport) {
			fmt.Fprintf(w, "# node %s  tail-estimate %s  entries %d\n", h, rep.Estimate, len(rep.Calls))
			obs.WriteSlowCalls(w, rep.Calls)
		})

	case "profile":
		// Pull a runtime profile from one node over the ORB (_profile): cpu,
		// heap, goroutine, mutex or block, written as pprof's gzipped
		// protobuf for `go tool pprof`.
		pf := flag.NewFlagSet("profile", flag.ContinueOnError)
		seconds := pf.Int("seconds", 5, "collection window for cpu/mutex/block profiles")
		rate := pf.Int("rate", 0, "mutex fraction / block rate during collection (0 = default)")
		out := pf.String("o", "", "output file (default <kind>.pb.gz)")
		if err := pf.Parse(args); err != nil {
			return err
		}
		if pf.NArg() < 2 {
			return fmt.Errorf("usage: profile [-seconds N] [-rate R] [-o file] <cpu|heap|goroutine|mutex|block> <host>")
		}
		kind, host := pf.Arg(0), pf.Arg(1)
		// Timed collections run synchronously inside the first call; give the
		// round trip room beyond the collection window.
		ep.SetCallTimeout(time.Duration(*seconds)*time.Second + 30*time.Second)
		data, err := ep.ProfileOf(sscAddr(host), kind, *seconds, *rate)
		if err != nil {
			return err
		}
		name := *out
		if name == "" {
			name = kind + ".pb.gz"
		}
		if err := os.WriteFile(name, data, 0o644); err != nil {
			return err
		}
		fmt.Fprintf(w, "%s profile of %s: %d bytes -> %s\n", kind, host, len(data), name)

	case "move":
		if err := need(2, "<svc> <host,...>"); err != nil {
			return err
		}
		if err := csc.NewStub(sess).Move(args[0], strings.Split(args[1], ",")); err != nil {
			return err
		}
		fmt.Fprintf(w, "move %s -> %s: recorded; the CSC applies it on its next round\n", args[0], args[1])

	default:
		return fmt.Errorf("unknown command %q", cmd)
	}
	return nil
}

// clusterHosts resolves the target host list: the ones given, or every
// server the acting CSC knows.
func clusterHosts(sess *core.Session, hosts []string) ([]string, error) {
	if len(hosts) > 0 {
		return hosts, nil
	}
	st, err := csc.NewStub(sess).Status()
	if err != nil {
		return nil, fmt.Errorf("no hosts given and CSC unavailable: %w", err)
	}
	for h := range st {
		hosts = append(hosts, h)
	}
	sort.Strings(hosts)
	return hosts, nil
}

// sscAddr turns a bare host into its SSC endpoint address.
func sscAddr(h string) string {
	if strings.Contains(h, ":") {
		return h
	}
	return fmt.Sprintf("%s:%d", h, ssc.WellKnownPort)
}

// scrape runs one node operation against every host and hands each result
// to each.  A down node is part of the story, not a reason to abort or a
// footnote on stderr: it is rendered to w as an explicit UNREACHABLE row
// with the failure class, and the survivors are still scraped.
func scrape[T any](w io.Writer, hosts []string, get func(addr string) (T, error), each func(host string, v T)) {
	for _, h := range hosts {
		v, err := get(sscAddr(h))
		if err != nil {
			fmt.Fprintf(w, "node %-15s UNREACHABLE (%s)\n", h, orb.ConnClass(err))
			continue
		}
		each(h, v)
	}
}

// timeline scrapes the flight recorders of hosts (every server's when none
// is given) into one HLC-ordered list, and returns beside it the worst
// measured clock-offset uncertainty across those nodes (the
// clock_offset_unc_ms gauges the CSC ping and RAS poll loops maintain),
// floored at obs.MinUncertainty — the bound WriteEvents uses to flag
// orderings the clocks cannot prove.
func timeline(w io.Writer, ep *orb.Endpoint, sess *core.Session, hosts []string) ([]obs.Event, time.Duration, error) {
	hosts, err := clusterHosts(sess, hosts)
	if err != nil {
		return nil, 0, err
	}
	var lists [][]obs.Event
	scrape(w, hosts, ep.EventsOf, func(_ string, evs []obs.Event) { lists = append(lists, evs) })
	unc := obs.MinUncertainty
	scrape(io.Discard, hosts, ep.MetricsOf, func(_ string, text string) {
		for _, s := range obs.ParseText(text) {
			if strings.HasPrefix(s.Name, "clock_offset_unc_ms") {
				if d := time.Duration(s.Value) * time.Millisecond; d > unc {
					unc = d
				}
			}
		}
	})
	return obs.MergeEvents(lists...), unc, nil
}

// listTree prints the name space as an indented tree (Fig. 8).
func listTree(w io.Writer, sess *core.Session, path string, depth int) error {
	bindings, err := sess.Root.List(path)
	if err != nil {
		return err
	}
	for _, b := range bindings {
		full := b.Name
		if path != "" {
			full = path + "/" + b.Name
		}
		fmt.Fprintf(w, "%s%-20s %s\n", strings.Repeat("  ", depth), b.Name, b.Ref.TypeID)
		if names.IsContextType(b.Ref.TypeID) {
			// Replicated contexts are expanded through listRepl so every
			// replica shows, not just the selected one.
			if b.Ref.TypeID == names.TypeReplContext {
				all, err := sess.Root.ListRepl(full)
				if err == nil {
					for _, r := range all {
						fmt.Fprintf(w, "%s%-20s %s\n", strings.Repeat("  ", depth+1), r.Name, r.Ref.TypeID)
					}
					continue
				}
			}
			if err := listTree(w, sess, full, depth+1); err != nil {
				return err
			}
		}
	}
	return nil
}
