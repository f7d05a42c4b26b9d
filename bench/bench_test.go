package main

import (
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"time"
)

func TestMedianOfSlicesDiscardsStalls(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median of odd count = %v, want 2", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of even count = %v, want 2.5", got)
	}
	// Sixty slices of 1000 ops in 10 ms, five of them stalled for 2 s: the
	// mean rate falls by half, the median does not move.
	p := &phase{nslices: slices}
	for i := range p.samples {
		p.samples[i] = sliceSample{ops: 1000, wall: 10 * time.Millisecond, cpu: 9 * time.Millisecond}
	}
	for _, i := range []int{3, 17, 18, 40, 59} {
		p.samples[i].wall = 2 * time.Second
	}
	if got := p.opsPerSec(); got != 100_000 {
		t.Errorf("opsPerSec = %v, want 100000", got)
	}
	if got := p.cpuMicrosPerOp(); got != 9 {
		t.Errorf("cpuMicrosPerOp = %v, want 9", got)
	}
}

func TestHistogramPercentileError(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var h histogram
	values := make([]float64, 200_000)
	for i := range values {
		// Log-uniform from 100 ns to 1 s.
		ns := math.Exp(rng.Float64()*math.Log(1e9/100)) * 100
		values[i] = math.Floor(ns)
		h.record(time.Duration(values[i]))
	}
	sort.Float64s(values)
	for _, q := range []float64{0.5, 0.95, 0.99, 0.999} {
		exact := values[int(math.Ceil(q*float64(len(values))))-1]
		got := h.quantile(q)
		if err := math.Abs(got-exact) / exact; err > 0.01 {
			t.Errorf("quantile %v = %v, exact %v: error %.2f%% over 1%%", q, got, exact, 100*err)
		}
	}
	// Every value lands in the bucket whose range holds it.
	for _, ns := range []uint64{0, 1, 127, 128, 129, 255, 256, 1000, 1 << 20, 1<<40 + 12345} {
		b := bucketOf(ns)
		if mid := bucketMid(b); math.Abs(mid-float64(ns)) > float64(ns)/128 {
			t.Errorf("bucket %d of %d ns has midpoint %v", b, ns, mid)
		}
	}
}

func TestSpanSelfTime(t *testing.T) {
	if got := selfTime(100, 30); got != 70 {
		t.Errorf("selfTime(100, 30) = %d, want 70", got)
	}
	if got := selfTime(100, 130); got != 0 {
		t.Errorf("selfTime with children over the duration = %d, want 0", got)
	}
	tr := newTracer()
	for op := 0; op < 3; op++ {
		root := tr.begin(spOp)
		for c := 0; c < 2; c++ {
			tr.end(tr.begin(spMmsOpen))
		}
		tr.end(root)
	}
	rootT, childT := tr.totals[spOp], tr.totals[spMmsOpen]
	if rootT.count != 3 || childT.count != 6 || tr.opHist.n != 3 {
		t.Fatalf("counts: %d roots, %d children, %d ops in the histogram", rootT.count, childT.count, tr.opHist.n)
	}
	if childT.self != childT.total {
		t.Errorf("a leaf's self time %d differs from its duration %d", childT.self, childT.total)
	}
	if rootT.self != rootT.total-childT.total {
		t.Errorf("root self time %d, want duration %d minus children %d", rootT.self, rootT.total, childT.total)
	}
	for i := int32(0); i < tr.next; i++ {
		s := tr.at(i)
		if s.name == spOp && s.parent != -1 {
			t.Errorf("root span %d has parent %d", i, s.parent)
		}
		if s.name == spMmsOpen && (tr.at(s.parent).name != spOp || tr.at(s.parent).op != s.op) {
			t.Errorf("child span %d is not under its op's root", i)
		}
	}
	out := filepath.Join(t.TempDir(), "spans.jsonl")
	if err := tr.write(out); err != nil {
		t.Fatal(err)
	}
	if data, err := os.ReadFile(out); err != nil || len(data) == 0 {
		t.Errorf("span file: %d bytes, %v", len(data), err)
	}
}

func TestIQRShareMatchesPythonQuantiles(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	v := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if got, want := iqrShare(v), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("iqrShare = %v, want %v", got, want)
	}
}

// benchmarkSpec is BENCHMARK.json.
type benchmarkSpec struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []metricDef `json:"end_to_end"`
	PerLayer  []metricDef `json:"per_layer"`
}

func readSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	spec := readSpec(t)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: %q in BENCHMARK.json, %q in the program", i, w.Name, workloads[i].name)
		}
	}
	same := func(kind string, a, b []metricDef) {
		if len(a) != len(b) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the program %d", kind, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Errorf("%s metric %d: %+v in BENCHMARK.json, %+v in the program", kind, i, a[i], b[i])
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
}

// tiny returns a copy of the workload with a short warm-up, so that every
// workload runs end to end within the test's few seconds.
func tiny(w *workload) *workload {
	c := *w
	c.warmOps = max(w.warmOps/200, 8)
	return &c
}

func checkResult(t *testing.T, r *result, defs []metricDef) {
	t.Helper()
	if r.Failed != 0 || !r.Correct || r.Attempted < 1 {
		t.Errorf("correct=%v attempted=%d failed=%d", r.Correct, r.Attempted, r.Failed)
	}
	if len(r.Metrics) != len(defs) {
		t.Errorf("%d metrics printed, %d declared", len(r.Metrics), len(defs))
	}
	for _, d := range defs {
		m, ok := r.Metrics[d.Name]
		if !ok || m.Unit != d.Unit || m.Unit == "" {
			t.Errorf("metric %s: printed=%v unit %q, want unit %q", d.Name, ok, m.Unit, d.Unit)
		}
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			t.Errorf("metric %s = %v", d.Name, m.Value)
		}
	}
}

func TestEveryWorkloadPrintsEveryMetric(t *testing.T) {
	spec := readSpec(t)
	for _, w := range workloads {
		w := tiny(w)
		t.Run(w.name, func(t *testing.T) {
			r, err := runEndToEnd(w, 3, 300*time.Millisecond)
			if err != nil {
				t.Fatal(err)
			}
			checkResult(t, r, spec.EndToEnd)
			for _, d := range spec.EndToEnd {
				if r.Metrics[d.Name].Value <= 0 {
					t.Errorf("end-to-end metric %s = %v, must never be 0", d.Name, r.Metrics[d.Name].Value)
				}
			}
			out := filepath.Join(t.TempDir(), "spans.jsonl")
			if r, err = runTraced(w, 3, 600*time.Millisecond, out); err != nil {
				t.Fatal(err)
			}
			checkResult(t, r, spec.PerLayer)
			if st, err := os.Stat(out); err != nil || st.Size() == 0 {
				t.Errorf("span file: %v", err)
			}
		})
	}
}

// The harness must add no allocation of its own to the timed loop:
// rpc_small's allocs_per_op equals what testing.AllocsPerRun counts on the
// bare Invoke with the same payloads and the same pre-built closures.
func TestHarnessAddsNoAllocations(t *testing.T) {
	w := tiny(workloadByName("rpc_small"))
	r, err := runEndToEnd(w, 1, 500*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	e, _, err := setUp(w, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer e.close()
	i := w.warmOps
	bare := testing.AllocsPerRun(5000, func() {
		if !e.op(i) {
			t.Error("echo differs from its argument")
		}
		i++
	})
	if got := r.Metrics["allocs_per_op"].Value; math.Abs(got-bare) > 0.02 {
		t.Errorf("harness allocs_per_op = %.4f, bare Invoke = %.4f", got, bare)
	}
}
