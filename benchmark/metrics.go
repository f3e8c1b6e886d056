package main

// The metric vocabulary. BENCHMARK.json at the repository root repeats
// these lists for the driver; TestMetricsMatchManifest keeps the two in
// step. Later issues name metrics and workloads by these strings.

type metric struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: share of the parent's median it may worsen by
}

// workload names, in run order.
var workloadNames = []string{"dep_mem", "update_tcp", "serve_read", "serve_mutate"}

// endToEnd is what a user of the system sees. Every workload reports
// every one of them (the driver's contract); README.md says which are
// native to a workload and which are stand-ins there.
var endToEnd = []metric{
	{"setup_s", "s", "lower", 0.25},
	{"pass_s", "s", "lower", 0.25},
	{"gemini_pass_s", "s", "lower", 0.25},
	{"qps", "1/s", "higher", 0.25},
	{"hit_qps", "1/s", "higher", 0.25},
	{"miss_p50_ms", "ms", "lower", 0.25},
	{"miss_p90_ms", "ms", "lower", 0.25},
	{"mutate_p50_ms", "ms", "lower", 0.25},
	{"cycle_s", "s", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.25},
}

// perLayer is the traced run's output: one line per layer quantity,
// layer = package name. No bounds; they explain end-to-end movement.
var perLayer = []metric{
	// graph
	{Name: "graph.rmat_s", Unit: "s", Better: "lower"},
	{Name: "graph.symmetrize_s", Unit: "s", Better: "lower"},
	{Name: "graph.weights_s", Unit: "s", Better: "lower"},
	{Name: "graph.blocked_build_s", Unit: "s", Better: "lower"},
	{Name: "graph.blocked_build_allocs", Unit: "count", Better: "lower"},
	{Name: "graph.edges", Unit: "count", Better: "higher"},
	// partition
	{Name: "partition.chunk_s", Unit: "s", Better: "lower"},
	{Name: "partition.layout_s", Unit: "s", Better: "lower"},
	{Name: "partition.layout_allocs", Unit: "count", Better: "lower"},
	{Name: "partition.edge_imbalance", Unit: "ratio", Better: "lower"},
	{Name: "partition.tracked_share", Unit: "ratio", Better: "lower"},
	// bitset
	{Name: "bitset.append_segment_ns_per_kib", Unit: "ns", Better: "lower"},
	{Name: "bitset.or_segment_ns_per_kib", Unit: "ns", Better: "lower"},
	{Name: "bitset.count_ns_per_kib", Unit: "ns", Better: "lower"},
	{Name: "bitset.allocs_per_op", Unit: "count", Better: "lower"},
	// bufpool
	{Name: "bufpool.get_put_ns", Unit: "ns", Better: "lower"},
	{Name: "bufpool.allocs_per_op", Unit: "count", Better: "lower"},
	{Name: "bufpool.hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "bufpool.discard_ratio", Unit: "ratio", Better: "lower"},
	// comm: probes, then the reference pass's counters
	{Name: "comm.mem_sendbufs_us", Unit: "us", Better: "lower"},
	{Name: "comm.mem_sendbufs_allocs", Unit: "count", Better: "lower"},
	{Name: "comm.tcp_sendbufs_us", Unit: "us", Better: "lower"},
	{Name: "comm.tcp_sendbufs_allocs", Unit: "count", Better: "lower"},
	{Name: "comm.tcp_mb_per_s", Unit: "MB/s", Better: "higher"},
	{Name: "comm.mem_barrier_us", Unit: "us", Better: "lower"},
	{Name: "comm.tcp_barrier_us", Unit: "us", Better: "lower"},
	{Name: "comm.update_bytes", Unit: "B", Better: "lower"},
	{Name: "comm.dep_bytes", Unit: "B", Better: "lower"},
	{Name: "comm.control_bytes", Unit: "B", Better: "lower"},
	{Name: "comm.frames", Unit: "count", Better: "lower"},
	{Name: "comm.bytes_per_frame", Unit: "B", Better: "higher"},
	{Name: "comm.queue_delay_s", Unit: "s", Better: "lower"},
	// core: reference-pass counters, then traced phase times
	{Name: "core.new_cluster_s", Unit: "s", Better: "lower"},
	{Name: "core.elapsed_s", Unit: "s", Better: "lower"},
	{Name: "core.edges_traversed", Unit: "count", Better: "lower"},
	{Name: "core.edges_per_E", Unit: "ratio", Better: "lower"},
	{Name: "core.gemini_edges_per_E", Unit: "ratio", Better: "lower"},
	{Name: "core.vertices_skipped", Unit: "count", Better: "higher"},
	{Name: "core.supersteps", Unit: "count", Better: "lower"},
	{Name: "core.dep_wait_s", Unit: "s", Better: "lower"},
	{Name: "core.update_wait_s", Unit: "s", Better: "lower"},
	{Name: "core.allocs_per_superstep", Unit: "count", Better: "lower"},
	{Name: "core.sparse_push_s", Unit: "s", Better: "lower"},
	{Name: "core.dense_step_s", Unit: "s", Better: "lower"},
	{Name: "core.dense_scan_s", Unit: "s", Better: "lower"},
	{Name: "core.dense_bin_s", Unit: "s", Better: "lower"},
	{Name: "core.dense_flush_s", Unit: "s", Better: "lower"},
	{Name: "core.barrier_s", Unit: "s", Better: "lower"},
	{Name: "core.buffer_flush_s", Unit: "s", Better: "lower"},
	{Name: "core.trace_coverage", Unit: "ratio", Better: "higher"},
	{Name: "core.trace_overhead", Unit: "ratio", Better: "lower"},
	// algorithms: every algorithm on this workload's graph and transport
	{Name: "algorithms.bfs_s", Unit: "s", Better: "lower"},
	{Name: "algorithms.kcore_s", Unit: "s", Better: "lower"},
	{Name: "algorithms.mis_s", Unit: "s", Better: "lower"},
	{Name: "algorithms.kmeans_s", Unit: "s", Better: "lower"},
	{Name: "algorithms.sampling_s", Unit: "s", Better: "lower"},
	{Name: "algorithms.cc_s", Unit: "s", Better: "lower"},
	{Name: "algorithms.sssp_s", Unit: "s", Better: "lower"},
	{Name: "algorithms.pagerank_s", Unit: "s", Better: "lower"},
	{Name: "algorithms.bfs_edges_per_E", Unit: "ratio", Better: "lower"},
	{Name: "algorithms.kcore_edges_per_E", Unit: "ratio", Better: "lower"},
	{Name: "algorithms.mis_edges_per_E", Unit: "ratio", Better: "lower"},
	{Name: "algorithms.kmeans_edges_per_E", Unit: "ratio", Better: "lower"},
	{Name: "algorithms.sampling_edges_per_E", Unit: "ratio", Better: "lower"},
	{Name: "algorithms.bfs_supersteps", Unit: "count", Better: "lower"},
	{Name: "algorithms.kcore_supersteps", Unit: "count", Better: "lower"},
	{Name: "algorithms.mis_supersteps", Unit: "count", Better: "lower"},
	{Name: "algorithms.kmeans_supersteps", Unit: "count", Better: "lower"},
	{Name: "algorithms.sampling_supersteps", Unit: "count", Better: "lower"},
	// seq
	{Name: "seq.pass_s", Unit: "s", Better: "lower"},
	// mutate: direct calls on this workload's graph
	{Name: "mutate.apply_ms", Unit: "ms", Better: "lower"},
	{Name: "mutate.apply_allocs", Unit: "count", Better: "lower"},
	{Name: "mutate.commit_ms", Unit: "ms", Better: "lower"},
	{Name: "mutate.commit_allocs", Unit: "count", Better: "lower"},
	{Name: "mutate.chain_fp_us", Unit: "us", Better: "lower"},
	{Name: "mutate.encode_us", Unit: "us", Better: "lower"},
	{Name: "mutate.core_update_ms", Unit: "ms", Better: "lower"},
	{Name: "mutate.bfs_update_ms", Unit: "ms", Better: "lower"},
	// server: 0 on the two batch workloads, which start no server
	{Name: "server.new_s", Unit: "s", Better: "lower"},
	{Name: "server.queue_wait_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "server.engine_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "server.overhead_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "server.hit_us_p50", Unit: "us", Better: "lower"},
	{Name: "server.cache_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "server.coalesced", Unit: "count", Better: "higher"},
	{Name: "server.rejected", Unit: "count", Better: "lower"},
	{Name: "server.pool_builds", Unit: "count", Better: "lower"},
	{Name: "server.first_query_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "server.inc_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "server.promote_ratio", Unit: "ratio", Better: "higher"},
	{Name: "server.cache_dropped", Unit: "count", Better: "lower"},
	{Name: "server.pool_retired", Unit: "count", Better: "lower"},
	// client: the generator itself, open-loop phase (serve_read only)
	{Name: "client.open_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "client.open_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "client.gen_lag_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "client.open_fail_share", Unit: "ratio", Better: "lower"},
	// run
	{Name: "run.pass_p90_s", Unit: "s", Better: "lower"},
	{Name: "run.miss_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "run.gc_cycles", Unit: "count", Better: "lower"},
	{Name: "run.gc_pause_ms", Unit: "ms", Better: "lower"},
	{Name: "run.ops_attempted", Unit: "count", Better: "higher"},
	{Name: "run.ops_failed", Unit: "count", Better: "lower"},
}
