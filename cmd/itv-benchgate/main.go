// itv-benchgate parses `go test -bench` output and enforces the committed
// perf budget for the RPC hot path — allocations, latency, and throughput —
// so a PR that quietly re-adds per-call garbage or halves calls/sec fails
// CI rather than landing.
//
// Usage (see .github/workflows/ci.yml):
//
//	go test -run xxx -bench 'ORBInvoke|WireRoundTrip' -benchmem -benchtime=1x . \
//	  | go run ./cmd/itv-benchgate -baseline BENCH_pr9.json -out bench_ci.json
//
// The baseline file carries both the recorded perf trajectory (before/after
// of the PR that introduced it) and a "gates" section mapping benchmark
// names to budgets.  Each gate may set any of:
//
//	max_allocs_op  — allocation ceiling, enforced EXACTLY (allocs are
//	                 deterministic in steady state; no tolerance applies)
//	max_ns_op      — latency ceiling in ns/op
//	min_extra      — floors on custom metrics, e.g. {"calls/s": 50000}
//	max_extra      — ceilings on custom metrics, e.g. {"frames/op": 0.9}
//	tolerance_pct  — slack applied to max_ns_op / min_extra / max_extra
//	                 (CI machines are noisy; allocs are not)
//
// A gate naming a metric the benchmark did not report is a failure — a
// silently vanished metric must not read as a pass.  The tool writes the
// parsed results as a JSON artifact and exits nonzero on any gate breach.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// benchResult is one parsed benchmark line.
type benchResult struct {
	NsOp     float64            `json:"ns_op"`
	BOp      float64            `json:"b_op,omitempty"`
	AllocsOp float64            `json:"allocs_op,omitempty"`
	Extra    map[string]float64 `json:"extra,omitempty"` // custom metrics (wire_B/op, frames/op, ...)
}

// gate is one benchmark's committed budget.  Pointer fields distinguish
// "absent" from a literal zero budget (max_allocs_op: 0 is a real, strict
// gate on the local-invoke path).
type gate struct {
	MaxAllocsOp  *float64           `json:"max_allocs_op,omitempty"`
	MaxNsOp      *float64           `json:"max_ns_op,omitempty"`
	MinExtra     map[string]float64 `json:"min_extra,omitempty"`
	MaxExtra     map[string]float64 `json:"max_extra,omitempty"`
	TolerancePct float64            `json:"tolerance_pct,omitempty"`
}

// baseline mirrors the committed BENCH_*.json schema.
type baseline struct {
	Gates map[string]gate `json:"gates"`
}

// benchLine matches e.g.
//
//	BenchmarkORBInvoke-8  269827  8417 ns/op  1.000 frames/op  27.94 wire_B/op  1608 B/op  33 allocs/op
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+\d+\s+(.*)$`)

func main() {
	baselinePath := flag.String("baseline", "", "committed BENCH_*.json with a gates section")
	outPath := flag.String("out", "", "write parsed results as JSON here")
	flag.Parse()

	results, err := parse(os.Stdin)
	if err != nil {
		fmt.Fprintf(os.Stderr, "itv-benchgate: %v\n", err)
		os.Exit(2)
	}
	if len(results) == 0 {
		fmt.Fprintln(os.Stderr, "itv-benchgate: no benchmark lines on stdin")
		os.Exit(2)
	}

	if *outPath != "" {
		blob, _ := json.MarshalIndent(map[string]any{"results": results}, "", "  ")
		if err := os.WriteFile(*outPath, append(blob, '\n'), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "itv-benchgate: %v\n", err)
			os.Exit(2)
		}
	}

	failed := false
	if *baselinePath != "" {
		var base baseline
		blob, err := os.ReadFile(*baselinePath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "itv-benchgate: %v\n", err)
			os.Exit(2)
		}
		if err := json.Unmarshal(blob, &base); err != nil {
			fmt.Fprintf(os.Stderr, "itv-benchgate: %s: %v\n", *baselinePath, err)
			os.Exit(2)
		}
		names := make([]string, 0, len(base.Gates))
		for name := range base.Gates {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			g := base.Gates[name]
			r, ok := results[name]
			if !ok {
				fmt.Fprintf(os.Stderr, "GATE MISSING  %-32s not found in bench output\n", name)
				failed = true
				continue
			}
			if !checkGate(name, g, r) {
				failed = true
			}
		}
	}
	if failed {
		os.Exit(1)
	}
}

// checkGate enforces one benchmark's budget, printing one line per bound.
// Allocation ceilings are exact; latency and custom-metric bounds get the
// gate's tolerance_pct of slack (in the regression-permitting direction)
// because CI machines are noisy in time but deterministic in allocs.
func checkGate(name string, g gate, r benchResult) bool {
	ok := true
	slack := 1 + g.TolerancePct/100
	bound := func(metric string, got float64, pass bool, cmp string, budget float64) {
		if pass {
			fmt.Printf("gate ok       %-32s %g %s %s budget %g\n", name, got, metric, cmp, budget)
		} else {
			fmt.Fprintf(os.Stderr, "GATE FAIL     %-32s %g %s breaches budget %g\n", name, got, metric, budget)
			ok = false
		}
	}
	if g.MaxAllocsOp != nil {
		bound("allocs/op", r.AllocsOp, r.AllocsOp <= *g.MaxAllocsOp, "<=", *g.MaxAllocsOp)
	}
	if g.MaxNsOp != nil {
		bound("ns/op", r.NsOp, r.NsOp <= *g.MaxNsOp*slack, "<~", *g.MaxNsOp)
	}
	keys := func(m map[string]float64) []string {
		ks := make([]string, 0, len(m))
		for k := range m {
			ks = append(ks, k)
		}
		sort.Strings(ks)
		return ks
	}
	for _, metric := range keys(g.MinExtra) {
		budget := g.MinExtra[metric]
		got, have := r.Extra[metric]
		if !have {
			fmt.Fprintf(os.Stderr, "GATE FAIL     %-32s metric %q not reported\n", name, metric)
			ok = false
			continue
		}
		bound(metric, got, got >= budget/slack, ">~", budget)
	}
	for _, metric := range keys(g.MaxExtra) {
		budget := g.MaxExtra[metric]
		got, have := r.Extra[metric]
		if !have {
			fmt.Fprintf(os.Stderr, "GATE FAIL     %-32s metric %q not reported\n", name, metric)
			ok = false
			continue
		}
		bound(metric, got, got <= budget*slack, "<~", budget)
	}
	return ok
}

// parse reads `go test -bench` output, returning results keyed by benchmark
// name with the -GOMAXPROCS suffix stripped.
func parse(f *os.File) (map[string]benchResult, error) {
	results := make(map[string]benchResult)
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		m := benchLine.FindStringSubmatch(strings.TrimSpace(sc.Text()))
		if m == nil {
			continue
		}
		r := benchResult{Extra: map[string]float64{}}
		fields := strings.Fields(m[2])
		for i := 0; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			switch fields[i+1] {
			case "ns/op":
				r.NsOp = v
			case "B/op":
				r.BOp = v
			case "allocs/op":
				r.AllocsOp = v
			default:
				r.Extra[fields[i+1]] = v
			}
		}
		if len(r.Extra) == 0 {
			r.Extra = nil
		}
		results[m[1]] = r
	}
	return results, sc.Err()
}
