package main

// metric names one reported value. BENCHMARK.json at the repository root
// lists the same metrics; TestBenchmarkJSONMatchesMetrics keeps the two in
// step.
type metric struct {
	name, unit, better string
}

// endToEnd are the metrics a run with -trace 0 reports. A metric that a
// workload does not define (see README.md) reads 1 there, because the
// result format needs every metric on every workload and a 0 would have no
// relative bound.
var endToEnd = []metric{
	{"wall_s", "s", "lower"},
	{"setup_s", "s", "lower"},
	{"events_per_s", "events/s", "higher"},
	{"decisions_per_s", "decisions/s", "higher"},
	{"peak_rss_mb", "MiB", "lower"},
	{"run_ok_frac", "frac", "higher"},
	{"sim_served_frac", "frac", "higher"},
	{"sim_p95_latency_s", "sim_s", "lower"},
	{"sim_cost_usd", "usd", "lower"},
	{"sim_jain_mean", "index", "higher"},
	{"sim_converged_frac", "frac", "higher"},
	{"sim_constraint_met_frac", "frac", "higher"},
	{"model_err_max_pct", "pct", "lower"},
	{"ce_jct_gain_pct", "pct", "higher"},
	{"ce_cost_gain_pct", "pct", "higher"},
}

// layerNames are the buckets profile samples are attributed to: the
// repository's modules, then runtime (no repository frame) and other (the
// remaining repository packages and the benchmark itself).
var layerNames = []string{
	"sim", "traffic", "faas", "storage", "fault", "fit", "predictor", "cost",
	"scheduler", "planner", "sha", "ml", "dataset", "workload", "trainer",
	"core", "obs", "experiments", "runtime", "other",
}

// counters are the per-layer counts and ratios, after the layer times.
var counters = []metric{
	{"sim.events", "count", "higher"},
	{"sim.ns_per_event", "ns", "lower"},
	{"traffic.arrivals", "count", "higher"},
	{"faas.invocations", "count", "higher"},
	{"faas.cold_starts", "count", "lower"},
	{"faas.warm_hit_ratio", "frac", "higher"},
	{"faas.denials", "count", "lower"},
	{"faas.retries", "count", "lower"},
	{"faas.killed", "count", "lower"},
	{"faas.reclaimed", "count", "lower"},
	{"faas.gb_seconds", "GB-s", "lower"},
	{"storage.puts", "count", "higher"},
	{"storage.gets", "count", "higher"},
	{"storage.ckpt_retries", "count", "lower"},
	{"storage.ckpt_drops", "count", "lower"},
	{"fault.events_compiled", "count", "higher"},
	{"scheduler.decisions", "count", "higher"},
	{"scheduler.select_ratio", "frac", "higher"},
	{"scheduler.restarts", "count", "lower"},
	{"trainer.epochs", "count", "higher"},
	{"trainer.sync_s", "sim_s", "lower"},
	{"trainer.restart_residual_s", "sim_s", "lower"},
	{"runtime.gc_cpu_share", "frac", "lower"},
	{"runtime.mallocs_per_event", "count", "lower"},
	{"runtime.heap_peak_mb", "MiB", "lower"},
	{"bench.setup_cpu_s", "s", "lower"},
	{"bench.run_cpu_s", "s", "lower"},
	{"bench.check_cpu_s", "s", "lower"},
	{"bench.export_cpu_s", "s", "lower"},
	{"bench.trace_overhead_share", "frac", "lower"},
}

// perLayer are the metrics a run with -trace 1 reports: three per layer,
// then the counters.
func perLayer() []metric {
	var ms []metric
	for _, l := range layerNames {
		ms = append(ms,
			metric{l + ".self_s", "s", "lower"},
			metric{l + ".self_share", "frac", "lower"},
			metric{l + ".alloc_mb", "MiB", "lower"})
	}
	return append(ms, counters...)
}
