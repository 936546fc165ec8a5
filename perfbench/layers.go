package main

// selfLayers are the layers the traced pass reports self time for: the
// repository's packages its spans wrap, plus the benchmark's own load
// generator (gen). datagen runs only in set-up and has its own metric;
// admission and wal run inside httpapi and live spans and are counted
// there; the span recorder's own cost is trace.overhead_share.
var selfLayers = []string{
	"kg", "walk", "shard", "semsim", "estimate", "core",
	"httpapi", "live", "federate", "gen",
}

// perLayer names every per-layer metric with its unit, in the order of
// README.md. A layer that does not run on a workload reports 0.
var perLayer = []metricDef{
	{"datagen.generate_s", "s"},
	{"core.warmup_s", "s"},
	{"core.prepare_ms", "ms"},
	{"core.query_ms", "ms"},
	{"core.plan.cache_built", "count"},
	{"core.plan.cache_hits", "count"},
	{"core.rounds", "count"},
	{"core.draws", "count"},
	{"core.correct_share", "share"},
	{"core.step.sampling_s", "s"},
	{"core.step.estimation_s", "s"},
	{"core.step.guarantee_s", "s"},
	{"core.cache.hit_rate", "share"},
	{"core.cache.invalidated", "count"},
	{"core.cache.bytes", "bytes"},
	{"kg.bfs_ms", "ms"},
	{"kg.bound_nodes", "count"},
	{"walk.build_ms", "ms"},
	{"walk.converge_ms", "ms"},
	{"walk.converge_iters", "count"},
	{"walk.answer_dist_ms", "ms"},
	{"walk.candidates", "count"},
	{"walk.draw_ns", "ns"},
	{"shard.draw_ns", "ns"},
	{"shard.split_ms", "ms"},
	{"semsim.validate_ms", "ms"},
	{"semsim.expansions", "count"},
	{"semsim.fallbacks", "count"},
	{"semsim.correct_share", "share"},
	{"estimate.point_us", "us"},
	{"estimate.moe_us", "us"},
	{"estimate.moe_stratified_us", "us"},
	{"httpapi.overhead_ms", "ms"},
	{"admission.mean_queue_ms", "ms"},
	{"admission.shed", "count"},
	{"live.apply_ms", "ms"},
	{"live.compactions", "count"},
	{"wal.appended", "count"},
	{"wal.bytes_per_batch", "bytes"},
	{"federate.member_rpc_ms", "ms"},
	{"federate.rpcs_per_query", "count"},
	{"federate.rounds", "count"},
	{"federate.epoch_restarts", "count"},
	{"gen.lag_p99_ms", "ms"},
	{"gen.backlog", "count"},
	{"rel_error_p50", "ratio"},
	{"coverage", "share"},
	{"failed_share", "share"},
	{"degraded_share", "share"},
	{"write_p50_ms", "ms"},
	{"trace.overhead_share", "share"},
	{"trace.ops_self_sum_s", "s"},
	{"trace.untraced_s", "s"},
	{"trace.unattributed_share", "share"},
}

func init() {
	for _, l := range selfLayers {
		perLayer = append(perLayer, metricDef{"trace.self." + l + "_s", "s"})
	}
}
