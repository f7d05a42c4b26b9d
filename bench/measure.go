package main

import (
	"fmt"
	"math"
	"math/bits"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"

	"itv/internal/clock"
	"itv/internal/transport"
)

// wall is the clock every measurement here reads: the benchmark measures
// real time by design, whatever clock the cluster under it runs on.
var wall = clock.Real()

// slices is the number of equal-length pieces the measured phase is cut
// into.  Time metrics are the median over them, which discards the
// multi-second stalls a shared host injects into a minority of slices.
const slices = 60

// sliceSample is what one slice of the timed loop records.  The samples
// live in a fixed array, so the timed loop appends nothing.
type sliceSample struct {
	ops  int
	wall time.Duration
	cpu  time.Duration
}

// usage is the process's resource use so far, from getrusage.
type usage struct {
	cpu      time.Duration
	minFault int64
}

func readUsage() usage {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return usage{}
	}
	tv := func(t syscall.Timeval) time.Duration {
		return time.Duration(t.Sec)*time.Second + time.Duration(t.Usec)*time.Microsecond
	}
	return usage{cpu: tv(ru.Utime) + tv(ru.Stime), minFault: ru.Minflt}
}

// phase is the raw record of one measured phase.
type phase struct {
	samples  [slices]sliceSample
	nslices  int
	ops      int
	failed   int
	wall     time.Duration
	mallocs  uint64
	bytes    uint64
	gcCycles uint32
	gcCPU    float64 // seconds of GC CPU (runtime/metrics)
	cpu      time.Duration
	faults   int64
	net      transport.Stats
}

// gcCPUSeconds reads the runtime's estimate of CPU time spent in the
// garbage collector since the process started.
func gcCPUSeconds() float64 {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindFloat64 {
		return 0
	}
	return s[0].Value.Float64()
}

// runPhase drives op in a closed loop for about total wall time, cut into
// n slices (n <= slices).  Each slice runs whole batches of ops until its
// share of the time has passed, so the clock is read once per batch and
// never inside an op.  Process counters (MemStats, getrusage, transport
// stats) are read only between slices and around the phase.
//
// first is the index of the first op, so that a run continues the op
// sequence the warm-up began.
func runPhase(op func(i int) bool, first int, total time.Duration, n, batch int, src transport.StatsSource) *phase {
	p := &phase{nslices: n}
	per := total / time.Duration(n)
	var m0, m1 runtime.MemStats
	var net0 transport.Stats
	if src != nil {
		net0 = src.Stats()
	}
	gc0 := gcCPUSeconds()
	runtime.ReadMemStats(&m0)
	u0 := readUsage()
	start := wall.Now()

	i := first
	prev := u0
	for s := 0; s < n; s++ {
		t0 := wall.Now()
		ops := 0
		var took time.Duration
		for {
			for j := 0; j < batch; j++ {
				if !op(i) {
					p.failed++
				}
				i++
			}
			ops += batch
			if took = wall.Since(t0); took >= per {
				break
			}
		}
		u := readUsage()
		p.samples[s] = sliceSample{ops: ops, wall: took, cpu: u.cpu - prev.cpu}
		prev = u
		p.ops += ops
	}

	p.wall = wall.Since(start)
	runtime.ReadMemStats(&m1)
	p.cpu = prev.cpu - u0.cpu
	p.faults = prev.minFault - u0.minFault
	p.mallocs = m1.Mallocs - m0.Mallocs
	p.bytes = m1.TotalAlloc - m0.TotalAlloc
	p.gcCycles = m1.NumGC - m0.NumGC
	p.gcCPU = gcCPUSeconds() - gc0
	if src != nil {
		p.net = src.Stats().Sub(net0)
	}
	return p
}

// rates is each slice's ops / wall time.
func (p *phase) rates() []float64 {
	v := make([]float64, p.nslices)
	for i := range v {
		v[i] = float64(p.samples[i].ops) / p.samples[i].wall.Seconds()
	}
	return v
}

// opsPerSec is the median over slices of ops / wall time.
func (p *phase) opsPerSec() float64 { return median(p.rates()) }

// printSlices shows how the slices spread around the medians reported.
func (p *phase) printSlices() {
	rate := p.rates()
	sort.Float64s(rate)
	q := func(f float64) float64 { return rate[int(f*float64(len(rate)-1))] }
	fmt.Printf("slices: %d of about %.0f ms; ops/s min %.1f p10 %.1f p25 %.1f median %.1f p75 %.1f p90 %.1f max %.1f\n",
		p.nslices, ms(p.wall)/float64(p.nslices), rate[0], q(0.10), q(0.25), q(0.50), q(0.75), q(0.90), rate[len(rate)-1])
}

// cpuMicrosPerOp is the median over slices of process CPU time per op.
func (p *phase) cpuMicrosPerOp() float64 {
	v := make([]float64, p.nslices)
	for i := range v {
		v[i] = float64(p.samples[i].cpu.Microseconds()) / float64(p.samples[i].ops)
	}
	return median(v)
}

// heapRetainedMiB is the live heap after three collections: two empty the
// sync.Pools, the third frees what they held.
func heapRetainedMiB() float64 {
	for i := 0; i < 3; i++ {
		runtime.GC()
	}
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// histogram counts durations in fixed logarithmic buckets: 128 per octave,
// so a bucket is under 0.8 % wide and a percentile read at the bucket's
// midpoint is within 0.4 % of the true value.  Recording is two integer
// operations and touches no allocator.
type histogram struct {
	counts [64 * subBuckets]uint32
	n      uint64
}

const (
	subBits    = 7
	subBuckets = 1 << subBits
)

func bucketOf(ns uint64) int {
	if ns < subBuckets {
		return int(ns)
	}
	exp := bits.Len64(ns) - 1 - subBits // ns>>exp is in [subBuckets, 2*subBuckets)
	return (exp+1)<<subBits | int(ns>>uint(exp))&(subBuckets-1)
}

// bucketMid is the midpoint of the range of values bucketOf maps to b.
func bucketMid(b int) float64 {
	if b < subBuckets {
		return float64(b)
	}
	exp := uint(b>>subBits) - 1
	lo := uint64(subBuckets|b&(subBuckets-1)) << exp
	return float64(lo) + float64(uint64(1)<<exp-1)/2
}

func (h *histogram) record(d time.Duration) {
	if d < 0 {
		d = 0
	}
	h.counts[bucketOf(uint64(d))]++
	h.n++
}

// quantile returns the q-quantile in nanoseconds (0 with no samples).
func (h *histogram) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(h.n)))
	if rank < 1 {
		rank = 1
	}
	var seen uint64
	for b, c := range h.counts {
		seen += uint64(c)
		if seen >= rank {
			return bucketMid(b)
		}
	}
	return bucketMid(len(h.counts) - 1)
}
