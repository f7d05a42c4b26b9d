// The repository's benchmark: four serial, single-core workloads that
// drive the system through its public functions and print end-to-end
// metrics (-trace 0) or per-layer metrics (-trace 1).  BENCHMARK.json at
// the root of the repository records the command, the workloads and every
// metric; README.md in this directory is the glossary.
//
//	bash bench/run.sh -workload movie_session -seed 1 -seconds 20 -trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"
)

// setups is how many times a run sets the workload up; setup_s is the
// median, and the last set-up is the one measured on.
const setups = 3

func main() {
	var (
		name     = flag.String("workload", "", "workload to run: rpc_small, name_mix, app_download or movie_session")
		seed     = flag.Int64("seed", 1, "seed the workload's inputs are generated from")
		seconds  = flag.Float64("seconds", 25, "how long the run measures")
		trace    = flag.Int("trace", 0, "1 = traced run printing the per-layer metrics, 0 = end-to-end metrics")
		traceOut = flag.String("trace-out", "", "file the traced run writes its spans to (default .bench_build/spans-<workload>.jsonl)")
		aa       = flag.Int("aa", 0, "run two interleaved sets of N runs of each workload (or of -workload) and compare them against the bounds")
	)
	flag.Parse()
	// One caller and its servers share this process; on a small shared
	// host a second P adds cross-core wake-ups, not capacity, and makes
	// every number noisier (README.md, noise table).
	runtime.GOMAXPROCS(1)

	if *aa > 0 {
		os.Exit(runAA(*aa, *name, *seconds))
	}
	w := workloadByName(*name)
	if w == nil {
		fmt.Fprintf(os.Stderr, "itv-perfbench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	fmt.Printf("workload=%s seed=%d seconds=%g trace=%d GOMAXPROCS=%d nproc=%d %s\n",
		w.name, *seed, *seconds, *trace, runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.Version())

	total := time.Duration(*seconds * float64(time.Second))
	var (
		res *result
		err error
	)
	if *trace == 0 {
		res, err = runEndToEnd(w, *seed, total)
	} else {
		out := *traceOut
		if out == "" {
			out = ".bench_build/spans-" + w.name + ".jsonl"
		}
		res, err = runTraced(w, *seed, total, out)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "itv-perfbench: %s: %v\n", w.name, err)
		os.Exit(1)
	}
	res.print(os.Stdout)
}

// metricValue is one reported metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is what a run reports; its JSON form is the last line of output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// newResult makes a result holding every metric in defs at zero, so that a
// run prints each metric BENCHMARK.json names even where the workload does
// not exercise its layer.
func newResult(defs []metricDef) *result {
	r := &result{Metrics: make(map[string]metricValue, len(defs))}
	for _, d := range defs {
		r.Metrics[d.Name] = metricValue{Unit: d.Unit}
	}
	return r
}

func (r *result) set(name string, v float64) {
	m, ok := r.Metrics[name]
	if !ok {
		panic("itv-perfbench: metric not declared in metrics.go: " + name)
	}
	m.Value = v
	r.Metrics[name] = m
}

func (r *result) count(p *phase) {
	r.Attempted += p.ops
	r.Failed += p.failed
	r.Correct = r.Failed == 0
}

func (r *result) print(f *os.File) {
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(f, "%-34s %16.4f %s\n", n, r.Metrics[n].Value, r.Metrics[n].Unit)
	}
	fmt.Fprintf(f, "ops_attempted %d\nops_failed %d\n", r.Attempted, r.Failed)
	line, err := json.Marshal(r)
	if err != nil {
		panic(err)
	}
	fmt.Fprintf(f, "%s\n", line)
}

// setUp sets the workload up and runs its fixed warm-up, returning the
// environment and how long both took.
func setUp(w *workload, seed int64) (*env, time.Duration, error) {
	t0 := wall.Now()
	e, err := w.setup(seed)
	if err != nil {
		return nil, 0, err
	}
	for i := 0; i < w.warmOps; i++ {
		if !e.op(i) {
			e.close()
			return nil, 0, fmt.Errorf("warm-up op %d gave a wrong output", i)
		}
	}
	return e, wall.Since(t0), nil
}

// runEndToEnd is the untraced run: set up setups times, measure on the
// last for the given time.
func runEndToEnd(w *workload, seed int64, total time.Duration) (*result, error) {
	var (
		e     *env
		times []float64
	)
	for s := 0; s < setups; s++ {
		if e != nil {
			e.close()
		}
		var took time.Duration
		var err error
		if e, took, err = setUp(w, seed); err != nil {
			return nil, err
		}
		times = append(times, took.Seconds())
	}
	defer e.close()

	p := runPhase(e.op, w.warmOps, total, slices, w.batch, e.src)
	heap := heapRetainedMiB()
	fmt.Printf("set-ups: %.4f s\n", times)
	p.printSlices()

	r := newResult(endToEnd)
	r.count(p)
	ops := float64(p.ops)
	r.set("setup_s", median(times))
	r.set("ops_per_s", p.opsPerSec())
	r.set("cpu_us_per_op", p.cpuMicrosPerOp())
	r.set("allocs_per_op", float64(p.mallocs)/ops)
	r.set("alloc_kb_per_op", float64(p.bytes)/1024/ops)
	r.set("wire_bytes_per_op", float64(p.net.BytesSent+p.net.BytesRecv)/ops)
	r.set("heap_retained_mb", heap)
	return r, nil
}
