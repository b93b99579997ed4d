package main

// metricDef names one reported metric and its unit. Bounds and the
// better direction live in BENCHMARK.json only; the test suite checks
// that these tables and that file name the same metrics.
type metricDef struct {
	name string
	unit string
}

// endToEnd is what a --trace 0 run reports in its result line: what
// the stack costs its user, every figure non-zero on every workload and
// steady across identical runs on a shared machine. The wall-clock
// figures are printed beside them (see wallClock) but not gated.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"cpu_us_per_op", "us"},
	{"allocs_per_op", "count"},
	{"bytes_per_op", "B"},
	{"heap_live_mb", "MB"},
}

// wallClock are the end-to-end figures a --trace 0 run prints before
// its result line. On a 2-CPU container shared with other tenants
// their spread across identical runs reached 30% (ops_per_s) and 22%
// (latency_p50_us), more than any bound a gate can hold.
var wallClock = []metricDef{
	{"ops_per_s", "1/s"},
	{"latency_p50_us", "us"},
	{"error_rate", "ratio"},
	{"write_ops_per_s", "1/s"},
	{"write_latency_p50_us", "us"},
}

// perLayer is what a --trace 1 run reports. A layer a workload bypasses
// reports 0.
var perLayer = []metricDef{
	// papi and its components (papi-pcp-read).
	{"papi.read_self_us", "us"},
	{"pcpcomp.read_self_us", "us"},
	{"nvml.read_us", "us"},
	{"infiniband.read_us", "us"},
	{"perfuncore.read_us", "us"},
	// pcp client, wire and daemon.
	{"pcp.fetch_rt_us", "us"},
	{"pcp.wire_self_us", "us"},
	{"pcp.codec_ns", "ns"},
	{"pcp.resamples_per_op", "count"},
	{"pcp.daemon_fetchinto_ns", "ns"},
	{"nest.read_ns", "ns"},
	{"nest.resample_us", "us"},
	// pmproxy (proxy-fanout).
	{"pmproxy.hit_ratio", "ratio"},
	{"pmproxy.upstream_rts_per_kop", "count"},
	{"pmproxy.inproc_batch_us", "us"},
	{"pmproxy.wire_us", "us"},
	{"pmproxy.shed", "count"},
	{"pmproxy.stale_serves", "count"},
	{"pmproxy.upstream_errors", "count"},
	{"pmproxy.redials", "count"},
	// cluster (cluster-snapshot).
	{"cluster.root_fetchall_us", "us"},
	{"cluster.zone_fetchall_us", "us"},
	{"cluster.leaf_fetchall_us", "us"},
	{"cluster.certify_us", "us"},
	{"cluster.edge_fetches_per_op", "count"},
	{"cluster.edge_retries", "count"},
	{"cluster.edge_hedges", "count"},
	{"cluster.deadline_misses", "count"},
	{"cluster.missing_per_op", "count"},
	{"cluster.uncertified_ops", "count"},
	// archive and metricql (archive-record-query).
	{"archive.append_us", "us"},
	{"archive.write_ops_per_s", "1/s"},
	{"archive.write_latency_p50_us", "us"},
	{"archive.bytes_per_sample", "B"},
	{"archive.folded_rows", "count"},
	{"archive.compactions", "count"},
	{"archive.evalwindow_us", "us"},
	{"archive.raw_range_us", "us"},
	{"archive.checked_share", "ratio"},
	{"metricql.pushdown_share", "ratio"},
	{"metricql.eval_self_us", "us"},
	// Cross-cutting.
	{"runtime.gc_per_kop", "count"},
	{"tail.latency_p99_us", "us"},
	{"tail.latency_top_us", "us"},
	{"tail.top_percentile", "%"},
	{"tail.samples", "count"},
	{"error_rate", "ratio"},
	{"waterfall.residual_pct", "%"},
	{"trace.overhead_pct", "%"},
}
