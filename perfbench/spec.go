package main

// metricSpec is one metric as BENCHMARK.json declares it.
type metricSpec struct {
	name, unit, better string
	bound              float64 // end-to-end only: allowed worsening, share of the median
}

// endToEnd are the metrics every workload reports with --trace 0. Each
// workload has one kind of operation: a round of the solve mix, one
// served job, one cluster burst.
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower", 0.25},
	{"rss_mb", "MB", "lower", 0.2},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"p50_ms", "ms", "lower", 0.25},
	{"tail_ms", "ms", "lower", 0.25},
	{"x_serial", "x", "lower", 0.15},
}

// perLayer are the metrics every workload reports with --trace 1. A layer
// a workload does not exercise reports 0. The self.<module>_ms metrics are
// the self time per operation of the spans the benchmark opens around its
// calls into that module; the core span is Engine.Run, so it also covers
// deque and wsrt, which have no entry point of their own.
var perLayer = []metricSpec{
	{"core.overhead_1w", "x", "lower", 0},
	{"core.speedup_2w", "x", "higher", 0},
	{"core.sim_speedup_8w", "x", "higher", 0},
	{"core.ns_per_node_1w", "ns", "lower", 0},
	{"core.fake_share_2w", "ratio", "higher", 0},
	{"core.special_tasks_2w", "count", "lower", 0},
	{"deque.tasks_per_node", "ratio", "lower", 0},
	{"deque.max_depth", "count", "lower", 0},
	{"wsrt.steals_2w", "count", "higher", 0},
	{"wsrt.steal_success", "ratio", "higher", 0},
	{"wsrt.copy_bytes_per_node", "B", "lower", 0},
	{"wsrt.wait_share_2w", "ratio", "lower", 0},
	{"wsrt.steal_share_2w", "ratio", "lower", 0},
	{"lang.dsl_slowdown", "x", "lower", 0},
	{"lang.ns_per_node", "ns", "lower", 0},
	{"lang.compile_ms", "ms", "lower", 0},
	{"progstore.hit_ratio", "ratio", "higher", 0},
	{"http.post_ms", "ms", "lower", 0},
	{"http.get_ms", "ms", "lower", 0},
	{"serve.queue_wait_ms", "ms", "lower", 0},
	{"serve.queue_wait_tail_ms", "ms", "lower", 0},
	{"serve.makespan_ms", "ms", "lower", 0},
	{"serve.publish_lag_ms", "ms", "lower", 0},
	{"serve.admission_retries_per_job", "count", "lower", 0},
	{"proc.allocs_per_op", "count", "lower", 0},
	{"jobstore.recover_ms", "ms", "lower", 0},
	{"jobstore.fsyncs_per_record", "ratio", "lower", 0},
	{"cluster.moved_share", "ratio", "higher", 0},
	{"cluster.rebalanced_out", "count", "higher", 0},
	{"cluster.steal_moved", "count", "higher", 0},
	{"cluster.forward_failed", "count", "lower", 0},
	{"cluster.settle_lag_ms", "ms", "lower", 0},
	{"self.core_ms", "ms", "lower", 0},
	{"self.lang_ms", "ms", "lower", 0},
	{"self.progstore_ms", "ms", "lower", 0},
	{"self.http_ms", "ms", "lower", 0},
	{"self.serve_ms", "ms", "lower", 0},
	{"self.jobstore_ms", "ms", "lower", 0},
	{"self.cluster_ms", "ms", "lower", 0},
	{"wait.serve_ms", "ms", "lower", 0},
	{"trace.overhead_p50", "x", "lower", 0},
	{"host.parallel_x", "x", "higher", 0},
}

// workloadSpec describes one workload: why it exists, which modules it
// loads and which it bypasses.
type workloadSpec struct {
	name, why, loads, bypasses string
}

var workloads = []workloadSpec{
	{
		name:     "solve",
		why:      "Library calls only: fib, nqueens-array and DSL atc-nqueens, serial vs AdaptiveTC 1 and 2 workers, interleaved; loads core/deque/wsrt/lang, bypasses serve/http/jobstore/cluster",
		loads:    "core, deque, wsrt, lang",
		bypasses: "serve, http, progstore, jobstore, cluster",
	},
	{
		name:     "serve-small",
		why:      "Tiny jobs through one 2-worker service over loopback HTTP, 2 closed-loop clients; per-job overhead dominates; loads serve/http/progstore/lang, bypasses jobstore/cluster",
		loads:    "serve, http, progstore, lang, wsrt pool (little engine work)",
		bypasses: "jobstore, cluster",
	},
	{
		name:     "cluster-burst",
		why:      "Bursts of 24 nqueens-array(10) jobs to node A of a 2-node journaled cluster; forwarding and stealing move work to B; loads cluster/jobstore/serve/http, bypasses lang",
		loads:    "cluster, jobstore, serve, http, core (1 worker per node)",
		bypasses: "lang, progstore (beyond journal recovery)",
	},
}

func workloadByName(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}
