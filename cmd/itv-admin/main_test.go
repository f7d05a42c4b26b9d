package main

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"itv/internal/admin"
	"itv/internal/cluster"
	"itv/internal/core"
	"itv/internal/csc"
	"itv/internal/names"
	"itv/internal/obs"
	"itv/internal/orb"
)

// runSeq numbers the test's runs within the process: the nodes' records are
// process-lifetime and keyed by host, so what a run plants in them carries
// the run's number and a -count=N repetition reads back only its own.
var runSeq atomic.Uint64

var normalisers = []struct {
	re   *regexp.Regexp
	with string
}{
	{regexp.MustCompile(`\d\d:\d\d:\d\d\.\d{3}\+\d+`), "<hlc>"},
	{regexp.MustCompile(`\d\d:\d\d:\d\d\.\d{6}`), "<time>"},
	{regexp.MustCompile(`offset\[[^ ]+`), "<offset>"},
	{regexp.MustCompile(`\b\d+(\.\d+)?(ns|µs|ms|s|MB)\b`), "<n>"},
	{regexp.MustCompile(`(goroutines|gc|entries) \d+\b`), "$1 <n>"},
}

// varying matches a whole column that is a rate, a sum or (leading a line) a
// ledger sequence number.
var varying = regexp.MustCompile(`^\d+\.\d+$`)

// normalise rewrites what differs from run to run — clock readings,
// durations, rates, runtime levels, column padding — and keeps the rest.
func normalise(line string) string {
	for _, n := range normalisers {
		line = n.re.ReplaceAllString(line, n.with)
	}
	cols := strings.Fields(line)
	for i, c := range cols {
		if _, err := strconv.Atoi(c); varying.MatchString(c) || (i == 0 && err == nil) {
			cols[i] = "<n>"
		}
	}
	return strings.Join(cols, " ")
}

// TestRun drives the operator's read-only commands through admin.Run
// against an in-process Orlando cluster over memnet.  Each command's output
// is the cluster's own chatter, which differs from boot to boot, plus what
// the test planted in two servers' records under a probe name of its own;
// the planted part is compared line for line, normalised, with what an
// operator should see.
func TestRun(t *testing.T) {
	c := cluster.New(cluster.Orlando())
	c.Start()
	defer c.Stop()
	forge, kiln := c.Servers[0].Spec.Host, c.Servers[1].Spec.Host

	const adminHost = "192.168.0.249"
	obs.NodeHLC(adminHost).SetNow(c.Clk.Now) // keep the operator on simulated time
	ep, err := orb.NewEndpoint(c.NW.Host(adminHost))
	if err != nil {
		t.Fatal(err)
	}
	defer ep.Close()
	sess := core.NewSession(ep, names.RootRefAt(c.NSAddrs()[0]), c.Clk)
	c.MustWaitFor("the acting CSC has pinged every server", func() bool {
		st, err := csc.NewStub(sess).Status()
		return err == nil && len(st) == len(c.Servers)
	})

	seq := runSeq.Add(1)
	probe, method := fmt.Sprintf("admin_probe_%d", seq), fmt.Sprintf("itv.Probe.call%d", seq)
	trace := uint64(0xad0000000000) + seq
	traceHex := fmt.Sprintf("%016x", trace)

	// Plant: a counter and a traced histogram on forge; one traced event on
	// forge and a later one on kiln; a ledgered call on each; and calls to
	// a method nobody else makes, inside one health window of forge's.
	reg := obs.Node(forge)
	reg.Counter(probe).Add(7)
	lat := reg.Histogram(obs.L(probe+"_latency", "method", "probe"))
	for i := 0; i < 9; i++ {
		lat.Observe(300 * time.Microsecond)
	}
	lat.ObserveExemplar(20*time.Millisecond, &obs.Exemplar{Trace: trace})
	obs.NodeRecorder(forge).Record(c.Clk.Now(), trace, probe, "planted on forge")
	c.FakeClk.Advance(time.Second)
	// The call that carried the trace from forge to kiln coupled their clocks.
	obs.NodeHLC(kiln).ObserveAt(obs.NodeHLC(forge).Current(), obs.Mono())
	obs.NodeRecorder(kiln).Record(c.Clk.Now(), trace, probe, "planted on kiln")
	for _, h := range []string{forge, kiln} {
		obs.NodeSlowLedger(h).Record(obs.SlowCall{HLC: obs.NodeHLC(h).Current(), Trace: trace, Method: probe,
			Total: 40 * time.Millisecond, Queue: time.Millisecond, Service: 38 * time.Millisecond,
			Flush: time.Millisecond, Threshold: 10 * time.Millisecond})
	}
	health := obs.NodeHealth(forge)
	health.Sample(c.Clk.Now())
	calls := reg.Histogram(obs.L("orb_call_latency", "method", method))
	for i := 0; i < 10; i++ {
		calls.Observe(300 * time.Microsecond)
	}
	reg.Counter(obs.L("orb_call_errors", "method", method)).Add(2)
	c.FakeClk.Advance(time.Second)
	health.Sample(c.Clk.Now())

	// planted runs one command and returns the lines of its output that
	// contain keep, normalised.  The commands here only read, so one that
	// fails is retried while simulated time moves on: the host-less forms
	// resolve the csc binding, which a CSC fail-over leaves unbound a while.
	names := strings.NewReplacer(probe, "PROBE", method, "itv.Probe.call", traceHex, "<trace>")
	planted := func(keep *regexp.Regexp, args ...string) []string {
		t.Helper()
		var out bytes.Buffer
		var err error
		if !c.WaitFor(func() bool {
			out.Reset()
			err = admin.Run(&out, ep, c.NSAddrs()[0], args)
			return err == nil
		}) {
			t.Fatalf("itv-admin %s: %v\n%s", strings.Join(args, " "), err, out.String())
		}
		var lines []string
		for _, l := range strings.Split(out.String(), "\n") {
			if keep.MatchString(l) {
				lines = append(lines, normalise(names.Replace(l)))
			}
		}
		return lines
	}
	probed := regexp.MustCompile(probe + `|UNREACHABLE|# node|HISTOGRAM`)
	called := regexp.MustCompile(method + `|^METHOD|^node`)
	check := func(what string, got []string, want ...string) {
		t.Helper()
		if strings.Join(got, "\n") != strings.Join(want, "\n") {
			t.Errorf("%s:\n%s\nwant:\n%s", what, strings.Join(got, "\n"), strings.Join(want, "\n"))
		}
	}

	check("metrics", planted(probed, "metrics", forge+":557"),
		"PROBE 7",
		"PROBE_latency{method=probe,le=<n>} 0", // 50µs
		"PROBE_latency{method=probe,le=<n>} 0", // 100µs
		"PROBE_latency{method=probe,le=<n>} 0", // 250µs
		"PROBE_latency{method=probe,le=<n>} 9", // 500µs
		"PROBE_latency{method=probe,le=<n>} 9",
		"PROBE_latency{method=probe,le=<n>} 9", // 5ms
		"PROBE_latency{method=probe,le=<n>} 10",
		"PROBE_latency{method=probe,le=<n>} 10",
		"PROBE_latency{method=probe,le=<n>} 10",
		"PROBE_latency{method=probe,le=<n>} 10",
		"PROBE_latency{method=probe,le=<n>} 10",
		"PROBE_latency{method=probe,le=<n>} 10", // 30s
		"PROBE_latency{method=probe,le=+Inf} 10",
		"PROBE_latency{method=probe}_count 10",
		"PROBE_latency{method=probe}_sum_ms <n>",
		"PROBE_latency_exemplar{method=probe,ub=<n>,trace=<trace>} 20",
		"HISTOGRAM COUNT P50 P95 P99 TRACE",
		"PROBE_latency{method=probe} 10 <n> <n> <n> <trace>")

	// No hosts given: the fan-out asks the acting CSC who the servers are —
	// and a CSC promoted a moment ago has not pinged them all yet, so ask
	// until it names both.  Whether a planted line is marked unorderable
	// depends on the cluster's own event printed before it, so the mark is
	// not compared here.
	var events []string
	c.WaitFor(func() bool {
		events = planted(probed, "events")
		return len(events) == 2
	})
	for i := range events {
		events[i] = strings.TrimPrefix(events[i], "?~ ")
	}
	check("events", events,
		"<hlc> <time> "+forge+" <trace> PROBE planted on forge",
		"<hlc> <time> "+kiln+" <trace> PROBE planted on kiln")

	// Every line of a trace is the probe's: nothing else carries its id.  A
	// host nobody listens on is a row of the answer, not an error.
	check("trace", planted(probed, "trace", traceHex, forge, "192.168.0.99", kiln),
		"node 192.168.0.99 UNREACHABLE (dial)",
		"<hlc> <time> "+forge+" <trace> PROBE planted on forge",
		"<hlc> <time> "+kiln+" <trace> PROBE planted on kiln")

	check("slow", planted(probed, "slow", forge, kiln),
		"# node "+forge+" tail-estimate <n> entries <n>",
		"<n> <hlc> "+forge+" PROBE <trace> total=<n> q=<n> s=<n> f=<n> thr=<n>",
		"# node "+kiln+" tail-estimate <n> entries <n>",
		"<n> <hlc> "+kiln+" PROBE <trace> total=<n> q=<n> s=<n> f=<n> thr=<n>")

	frame := planted(called, "watch", "-once", forge)
	if len(frame) != 3 || !regexp.MustCompile(`^node `+regexp.QuoteMeta(forge)+` hlc <hlc> goroutines <n> heap <n> gc <n>( <offset>)*$`).MatchString(frame[0]) {
		t.Fatalf("watch -once: %q", frame)
	}
	check("watch -once", frame[1:],
		"METHOD RATE/S ERR/S P50 P99 TRACE",
		"itv.Probe.call <n> <n> <n> <n> -")

	if err := admin.Run(&bytes.Buffer{}, ep, c.NSAddrs()[0], []string{"trace", "0000000000000bad", forge}); err == nil {
		t.Error("trace for an id nobody recorded: want an error")
	}
	for _, bad := range []struct{ args, want string }{
		{"metrics", "usage: metrics"},
		{"kill " + forge, "usage: kill <host> <svc>"},
		{"move mms", "usage: move <svc> <host,...>"},
		{"profile heap", "usage: profile"},
		{"frobnicate", `unknown command "frobnicate"`},
	} {
		if err := admin.Run(&bytes.Buffer{}, ep, c.NSAddrs()[0], strings.Fields(bad.args)); err == nil || !strings.Contains(err.Error(), bad.want) {
			t.Errorf("itv-admin %s = %v, want %q", bad.args, err, bad.want)
		}
	}

	// The commands that change the cluster.  Each prints one line of its
	// own; what it did is read back through running, as an operator would.
	do := func(want string, args ...string) {
		t.Helper()
		var out bytes.Buffer
		if err := admin.Run(&out, ep, c.NSAddrs()[0], args); err != nil || strings.TrimSpace(out.String()) != want {
			t.Fatalf("itv-admin %s = %v, %q; want %q", strings.Join(args, " "), err, out.String(), want)
		}
	}
	runs := func(host, svc string) bool {
		var out bytes.Buffer
		if err := admin.Run(&out, ep, c.NSAddrs()[0], []string{"running", host}); err != nil {
			t.Fatalf("itv-admin running %s: %v", host, err)
		}
		return slices.Contains(strings.Fields(out.String()), svc)
	}

	// move re-places a service; the acting CSC applies it on its next round.
	anvil := c.Servers[2].Spec.Host
	do("move rds-6 -> "+kiln+": recorded; the CSC applies it on its next round", "move", "rds-6", kiln)
	if !c.WaitFor(func() bool { return runs(kiln, "rds-6") && !runs(anvil, "rds-6") }) {
		t.Fatalf("rds-6 not moved from %s to %s", anvil, kiln)
	}

	// stop takes a service out of running; start puts it back.  Both act
	// at once, so they go while no CSC round is under way (the one that
	// applied the move has done its last server): a round would start
	// the stopped service again.
	do("stop vod on "+kiln+": ok", "stop", kiln, "vod")
	if runs(kiln, "vod") {
		t.Fatal("running still lists vod after stop")
	}
	do("start vod on "+kiln+": ok", "start", kiln, "vod")
	if !c.WaitFor(func() bool { return runs(kiln, "vod") }) {
		t.Fatal("running never lists vod again after start")
	}

	// §9.5: kill a service and its server's SSC runs it again — a new
	// incarnation, bound under the same name — well inside one audit
	// interval.  The SSC's own restart waits out its restart delay, so a
	// CSC round in between can ask the SSC for the launch first.
	resolve := func(name string) string {
		var out bytes.Buffer
		if err := admin.Run(&out, ep, c.NSAddrs()[0], []string{"resolve", name}); err != nil {
			return ""
		}
		return out.String()
	}
	var before string
	if !c.WaitFor(func() bool { before = resolve("svc/mds/forge"); return strings.HasSuffix(before, "liveness: up\n") }) {
		t.Fatalf("svc/mds/forge before the kill:\n%s", before)
	}
	killed := c.Clk.Now()
	do("kill mds on "+forge+": ok", "kill", forge, "mds")
	if runs(forge, "mds") {
		t.Fatal("running still lists mds right after kill")
	}
	var after string
	if !c.WaitFor(func() bool {
		after = resolve("svc/mds/forge")
		return runs(forge, "mds") && after != before && strings.HasSuffix(after, "liveness: up\n")
	}) {
		t.Fatalf("mds on %s never ran again: svc/mds/forge was\n%sand is\n%s", forge, before, after)
	}
	if took, audit := c.Clk.Since(killed), c.Cfg.Tunables.NSAudit; took > audit {
		t.Errorf("mds ran again %s after the kill, want within the %s audit interval", took, audit)
	}

	// profile pulls a heap profile from a node: pprof's gzipped protobuf.
	file := filepath.Join(t.TempDir(), "heap.pb.gz")
	var out bytes.Buffer
	if err := admin.Run(&out, ep, c.NSAddrs()[0], []string{"profile", "-seconds", "1", "-o", file, "heap", forge}); err != nil {
		t.Fatalf("profile: %v", err)
	}
	if want := regexp.MustCompile(`^heap profile of ` + regexp.QuoteMeta(forge) + `: \d+ bytes -> ` + regexp.QuoteMeta(file) + `\n$`); !want.MatchString(out.String()) {
		t.Errorf("profile printed %q", out.String())
	}
	f, err := os.Open(file)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	zr, err := gzip.NewReader(f)
	if err != nil {
		t.Fatalf("profile is not gzip: %v", err)
	}
	if body, err := io.ReadAll(zr); err != nil || len(body) == 0 {
		t.Fatalf("profile decompresses to %d bytes, %v", len(body), err)
	}
}
