package main

// metricDef names a metric and its unit. The two lists below are the
// benchmark's contract with BENCHMARK.json: an untraced run reports every
// end-to-end metric and a traced run every per-layer metric, on every
// workload (a layer a workload does not exercise reports 0).
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"run_s", "s"},
	{"sim_cycles", "cycles"},
	{"alloc_mb_per_op", "MB"},
	{"peak_heap_mb", "MB"},
	{"lat_p50_ms", "ms"},
	{"lat_tail_ms", "ms"},
	{"slo_ok_ratio", "ratio"},
	{"cpu_ms_per_req", "ms"},
}

// cpuPackages maps each cpu.<name> metric to the import path whose flat
// CPU share it reports.
var cpuPackages = []struct{ metric, pkg string }{
	{"cpu.sim", "shogun/internal/sim"},
	{"cpu.setops", "shogun/internal/setops"},
	{"cpu.task", "shogun/internal/task"},
	{"cpu.mem", "shogun/internal/mem"},
	{"cpu.pe", "shogun/internal/pe"},
	{"cpu.core", "shogun/internal/core"},
	{"cpu.policy", "shogun/internal/policy"},
	{"cpu.mine", "shogun/internal/mine"},
	{"cpu.serve", "shogun/internal/serve"},
	{"cpu.obs", "shogun/internal/obs"},
	{"cpu.telemetry", "shogun/internal/telemetry"},
	{"cpu.net_http", "net/http"},
	{"cpu.encoding_json", "encoding/json"},
}

var perLayer = append([]metricDef{
	{"graph.build_s", "s"},
	{"graph.hubindex_s", "s"},
	{"graph.upload_build_ms", "ms"},
	{"pattern.build_ms", "ms"},
	{"accel.new_ms", "ms"},
	{"accel.verify_ms", "ms"},
	{"accel.collect_ms", "ms"},
	{"sim.engine_s", "s"},
	{"sim.events", "count"},
	{"sim.ns_per_event", "ns"},
	{"mem.l1_hit_rate", "ratio"},
	{"mem.l2_hit_rate", "ratio"},
	{"mem.dram_reads", "count"},
	{"mem.dram_util", "ratio"},
	{"mem.noc_lines", "count"},
	{"pe.tasks", "count"},
	{"pe.iu_util", "ratio"},
	{"pe.slot_occupancy", "ratio"},
	{"pe.breakdown.compute", "%"},
	{"pe.breakdown.mem_stall", "%"},
	{"pe.breakdown.scheduling", "%"},
	{"pe.breakdown.idle", "%"},
	{"core.splits", "count"},
	{"core.merges", "count"},
	{"core.conservative_transitions", "count"},
	{"core.peak_live_sets", "count"},
	{"cluster.new_ms", "ms"},
	{"cluster.migrations", "count"},
	{"cluster.interconnect_lines", "count"},
	{"cluster.imbalance_ratio", "ratio"},
	{"mine.count_ms", "ms"},
	{"serve.parse_ms", "ms"},
	{"serve.queue_ms", "ms"},
	{"serve.graph_ms", "ms"},
	{"serve.schedule_ms", "ms"},
	{"serve.run_ms", "ms"},
	{"serve.encode_ms", "ms"},
	{"serve.graph_cache_hit_ratio", "ratio"},
	{"serve.evicted_bytes", "bytes"},
	{"serve.shed", "count"},
	{"gen.lag_ms", "ms"},
	{"cpu.runtime_gc", "%"},
	{"gc.cycles", "count/op"},
	{"error_ratio", "ratio"},
	{"trace.overhead_pct", "%"},
	{"host.ref_ms", "ms"},
}, cpuMetricDefs()...)

func cpuMetricDefs() []metricDef {
	out := make([]metricDef, len(cpuPackages))
	for i, c := range cpuPackages {
		out[i] = metricDef{c.metric, "%"}
	}
	return out
}
