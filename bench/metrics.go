package main

// metricDef mirrors one metric entry of BENCHMARK.json; the test asserts
// the two lists are the same.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	// Bound is the share of the parent's median by which an end-to-end
	// metric may worsen before a change counts as a regression.
	Bound float64
}

// endToEnd are the metrics a user of the system would see; the same seven
// on every workload.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.20},
	{"cpu_us_per_op", "us", "lower", 0.20},
	{"allocs_per_op", "count", "lower", 0.02},
	{"alloc_kb_per_op", "KiB", "lower", 0.02},
	{"wire_bytes_per_op", "B", "lower", 0.01},
	{"heap_retained_mb", "MiB", "lower", 0.15},
}

// perLayer are the metrics of single layers, printed by the traced run.
// A layer is a module; 0 means the workload does not exercise it.
var perLayer = []metricDef{
	// wire: codec round trips (encode, frame, read frame, decode).
	{Name: "wire.small_roundtrip_ns", Unit: "ns", Better: "lower"},
	{Name: "wire.bindings_roundtrip_ns", Unit: "ns", Better: "lower"},
	{Name: "wire.bindings_allocs", Unit: "count", Better: "lower"},
	{Name: "wire.bulk_us_per_mib", Unit: "us", Better: "lower"},
	{Name: "wire.bulk_alloc_kb_per_mib", Unit: "KiB", Better: "lower"},
	// transport: raw connections with no ORB, and the caller's counters.
	{Name: "transport.memnet_rtt_us", Unit: "us", Better: "lower"},
	{Name: "transport.memnet_bulk_us_per_mib", Unit: "us", Better: "lower"},
	{Name: "transport.tcp_rtt_us", Unit: "us", Better: "lower"},
	{Name: "transport.tcp_bulk_us_per_mib", Unit: "us", Better: "lower"},
	{Name: "transport.frames_per_op", Unit: "count", Better: "lower"},
	{Name: "transport.bytes_sent_per_op", Unit: "B", Better: "lower"},
	// orb: invocation rungs and the nodes' own counters and histograms.
	{Name: "orb.invoke_us", Unit: "us", Better: "lower"},
	{Name: "orb.invoke_self_us", Unit: "us", Better: "lower"},
	{Name: "orb.invoke_p50_us", Unit: "us", Better: "lower"},
	{Name: "orb.invoke_p99_us", Unit: "us", Better: "lower"},
	{Name: "orb.bulk_invoke_us_per_mib", Unit: "us", Better: "lower"},
	{Name: "orb.local_invoke_ns", Unit: "ns", Better: "lower"},
	{Name: "orb.invoke_tcp_us", Unit: "us", Better: "lower"},
	{Name: "orb.calls_per_op", Unit: "count", Better: "lower"},
	{Name: "orb.queue_wait_us_per_call", Unit: "us", Better: "lower"},
	{Name: "orb.service_us_per_call", Unit: "us", Better: "lower"},
	{Name: "orb.flush_wait_us_per_call", Unit: "us", Better: "lower"},
	{Name: "orb.batched_frames_per_write", Unit: "count", Better: "higher"},
	{Name: "orb.client_failures", Unit: "count", Better: "lower"},
	{Name: "orb.call_timeouts", Unit: "count", Better: "lower"},
	{Name: "orb.pool_dials", Unit: "count", Better: "lower"},
	// auth
	{Name: "auth.sign_ns", Unit: "ns", Better: "lower"},
	{Name: "auth.verify_ns", Unit: "ns", Better: "lower"},
	{Name: "auth.signed_delta_us", Unit: "us", Better: "lower"},
	// names
	{Name: "names.resolve_flat_us", Unit: "us", Better: "lower"},
	{Name: "names.resolve_deep_us", Unit: "us", Better: "lower"},
	{Name: "names.resolve_repl_us", Unit: "us", Better: "lower"},
	{Name: "names.list_us", Unit: "us", Better: "lower"},
	{Name: "names.write_pair_us", Unit: "us", Better: "lower"},
	{Name: "names.op_p50_us", Unit: "us", Better: "lower"},
	{Name: "names.op_p99_us", Unit: "us", Better: "lower"},
	{Name: "names.resolve_self_us", Unit: "us", Better: "lower"},
	{Name: "names.resolves_per_op", Unit: "count", Better: "lower"},
	{Name: "names.binds_per_op", Unit: "count", Better: "lower"},
	// core
	{Name: "core.rebinder_overhead_ns", Unit: "ns", Better: "lower"},
	{Name: "core.rebinds_per_op", Unit: "count", Better: "lower"},
	// services, from the traced op's spans
	{Name: "rds.open_data_us", Unit: "us", Better: "lower"},
	{Name: "rds.overhead_us", Unit: "us", Better: "lower"},
	{Name: "cmgr.allocate_release_us", Unit: "us", Better: "lower"},
	{Name: "mms.open_us", Unit: "us", Better: "lower"},
	{Name: "mms.close_us", Unit: "us", Better: "lower"},
	{Name: "media.play_us", Unit: "us", Better: "lower"},
	{Name: "media.position_us", Unit: "us", Better: "lower"},
	{Name: "media.pause_us", Unit: "us", Better: "lower"},
	{Name: "vod.get_position_us", Unit: "us", Better: "lower"},
	{Name: "vod.save_position_us", Unit: "us", Better: "lower"},
	{Name: "vod.forget_us", Unit: "us", Better: "lower"},
	// settop: whole ops of the traced run
	{Name: "settop.op_p50_us", Unit: "us", Better: "lower"},
	{Name: "settop.op_p95_us", Unit: "us", Better: "lower"},
	{Name: "settop.op_p99_us", Unit: "us", Better: "lower"},
	{Name: "settop.op_samples", Unit: "count", Better: "higher"},
	{Name: "settop.stub_gap_us", Unit: "us", Better: "lower"},
	// cluster set-up
	{Name: "cluster.start_ms", Unit: "ms", Better: "lower"},
	{Name: "cluster.settop_boot_ms", Unit: "ms", Better: "lower"},
	{Name: "cluster.setup_retries", Unit: "count", Better: "lower"},
	// runtime
	{Name: "runtime.gc_cycles_per_kop", Unit: "count", Better: "lower"},
	{Name: "runtime.gc_cpu_share", Unit: "%", Better: "lower"},
	{Name: "runtime.minor_faults_per_op", Unit: "count", Better: "lower"},
	// obs: what observing costs
	{Name: "obs.snapshot_us", Unit: "us", Better: "lower"},
	{Name: "obs.trace_overhead_pct", Unit: "%", Better: "lower"},
}
