package main

import (
	"fmt"
	"strings"
	"time"

	"itv/internal/obs"
)

// nodeTotals is every node registry in the process summed by metric: plain
// counters under their own name, histograms under <family>_count and
// <family>_sum_ms with their labels dropped.  Registries accumulate for
// process life, so only the difference of two readings means anything.
type nodeTotals map[string]float64

// readNodes snapshots every node and returns the totals and the mean cost
// of one Registry.Snapshot.
func readNodes() (nodeTotals, time.Duration) {
	t := make(nodeTotals)
	hosts := obs.Hosts()
	t0 := wall.Now()
	for _, h := range hosts {
		for _, s := range obs.Node(h).Snapshot() {
			if s.Kind != obs.KindCounter {
				continue
			}
			brace := strings.IndexByte(s.Name, '{')
			if brace < 0 {
				t[s.Name] += s.Value
				continue
			}
			for _, suffix := range [...]string{"_count", "_sum_ms"} {
				if strings.HasSuffix(s.Name, suffix) {
					t[s.Name[:brace]+suffix] += s.Value
				}
			}
		}
	}
	var per time.Duration
	if len(hosts) > 0 {
		per = wall.Since(t0) / time.Duration(len(hosts))
	}
	return t, per
}

func (t nodeTotals) sub(o nodeTotals) nodeTotals {
	d := make(nodeTotals, len(t))
	for k, v := range t {
		d[k] = v - o[k]
	}
	return d
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// runTraced is the traced run.  It sets the workload up once, runs it
// untraced for a quarter of the time while the nodes' own counters are
// read before and after, runs it again for a quarter of the time with one
// span per call into a layer, and then climbs the ladder of single-layer
// rungs.  End-to-end metrics never come from this run.
func runTraced(w *workload, seed int64, total time.Duration, out string) (*result, error) {
	e, _, err := setUp(w, seed)
	if err != nil {
		return nil, err
	}
	defer e.close()
	r := newResult(perLayer)
	const n = slices / 4

	// Untraced: the nodes' counters and the untraced op time.
	before, snap := readNodes()
	plain := runPhase(e.op, w.warmOps, total/4, n, w.batch, e.src)
	after, _ := readNodes()
	r.count(plain)
	d := after.sub(before)
	ops := float64(plain.ops)
	r.set("obs.snapshot_us", us(snap))
	r.set("transport.frames_per_op", float64(plain.net.FramesSent)/ops)
	r.set("transport.bytes_sent_per_op", float64(plain.net.BytesSent)/ops)
	r.set("orb.calls_per_op", d["orb_client_calls"]/ops)
	r.set("orb.queue_wait_us_per_call", 1e3*ratio(d["orb_queue_wait_sum_ms"], d["orb_queue_wait_count"]))
	r.set("orb.service_us_per_call", 1e3*ratio(d["orb_service_time_sum_ms"], d["orb_service_time_count"]))
	r.set("orb.flush_wait_us_per_call", 1e3*ratio(d["orb_flush_wait_sum_ms"], d["orb_flush_wait_count"]))
	r.set("orb.batched_frames_per_write", ratio(d["orb_conn_batched_frames"], d["orb_conn_batched_writes"]))
	r.set("orb.client_failures", d["orb_client_failures"])
	r.set("orb.call_timeouts", d["orb_call_timeouts"])
	r.set("orb.pool_dials", d["orb_pool_dials"])
	r.set("names.resolves_per_op", d["names_resolves"]/ops)
	r.set("names.binds_per_op", d["names_binds"]/ops)
	r.set("core.rebinds_per_op", d["core_rebinds"]/ops)
	r.set("runtime.gc_cycles_per_kop", 1e3*float64(plain.gcCycles)/ops)
	r.set("runtime.gc_cpu_share", 100*ratio(plain.gcCPU, plain.cpu.Seconds()))
	r.set("runtime.minor_faults_per_op", float64(plain.faults)/ops)
	if e.cl != nil {
		r.set("cluster.start_ms", e.cl.startMs)
		r.set("cluster.settop_boot_ms", e.cl.bootMs)
		r.set("cluster.setup_retries", float64(e.cl.retries))
	}

	// Traced: the same ops, one span per call into a layer.
	tr := newTracer()
	traced := runPhase(func(i int) bool { return e.traced(i, tr) },
		w.warmOps+plain.ops, total/4, n, w.batch, e.src)
	r.count(traced)
	if err := tr.write(out); err != nil {
		return nil, fmt.Errorf("writing spans: %w", err)
	}
	fmt.Printf("spans: %d recorded, the last %d written to %s\n", tr.next, min(int(tr.next), ringSize), out)
	r.set("obs.trace_overhead_pct", 100*(1-ratio(traced.opsPerSec(), plain.opsPerSec())))
	r.set("settop.op_p50_us", tr.opHist.quantile(0.50)/1e3)
	r.set("settop.op_p95_us", tr.opHist.quantile(0.95)/1e3)
	r.set("settop.op_p99_us", tr.opHist.quantile(0.99)/1e3)
	r.set("settop.op_samples", float64(tr.opHist.n))
	var leaves int64
	for name := spOp + 1; name < numSpanNames; name++ {
		leaves += tr.totals[name].total
	}
	r.set("settop.stub_gap_us", us(plain.wall)/ops-float64(leaves)/1e3/float64(traced.ops))
	for name, metric := range map[spanName]string{
		spRdsOpenData: "rds.open_data_us", spMmsOpen: "mms.open_us", spMmsClose: "mms.close_us",
		spMediaPlay: "media.play_us", spMediaPosition: "media.position_us", spMediaPause: "media.pause_us",
		spVodGetPosition: "vod.get_position_us", spVodSavePosition: "vod.save_position_us", spVodForget: "vod.forget_us",
	} {
		r.set(metric, tr.meanMicros(name))
	}
	if w.name == "name_mix" {
		r.set("names.op_p50_us", tr.opHist.quantile(0.50)/1e3)
		r.set("names.op_p99_us", tr.opHist.quantile(0.99)/1e3)
	}

	if err := climbLadder(w, e, seed, total/2, r); err != nil {
		return nil, fmt.Errorf("ladder: %w", err)
	}
	if v := r.Metrics["rds.open_data_us"].Value; v > 0 {
		// The four applications average 3 MiB.
		r.set("rds.overhead_us", v-3*r.Metrics["orb.bulk_invoke_us_per_mib"].Value)
	}
	return r, nil
}
