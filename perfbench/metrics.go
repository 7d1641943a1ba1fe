package main

// metricDef names one reported metric and its unit. The lists mirror
// BENCHMARK.json; run fails if a workload leaves one unmeasured.
type metricDef struct{ name, unit string }

// endToEnd are the metrics an untraced run prints. Every workload
// measures every one of them on its own operations (README.md,
// "End-to-end metrics").
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"heap_mb", "MiB"},
	{"set_per_s", "op/s"},
	{"set_p50_us", "us"},
	{"set_p90_us", "us"},
	{"window_p50_us", "us"},
	{"window_p90_us", "us"},
	{"knn_p50_us", "us"},
	{"knn_p90_us", "us"},
	{"read_per_s", "op/s"},
	{"recover_s", "s"},
	{"train_s", "s"},
	{"insert_per_s", "op/s"},
	{"query_nodes", "nodes/query"},
	{"rna", "ratio"},
}

// perLayer are the metrics a traced run prints. A layer a workload does
// not touch reports 0.
var perLayer = []metricDef{
	{"net.transport_us", "us"},
	{"server.self_us.set", "us"},
	{"server.self_us.within", "us"},
	{"server.self_us.knn", "us"},
	{"server.resp_bytes.within", "bytes"},
	{"wal.appends_per_fsync", "ratio"},
	{"wal.bytes_per_set", "bytes"},
	{"wal.replay_records_per_s", "records/s"},
	{"shard.insert_us", "us"},
	{"shard.delete_us", "us"},
	{"shard.search_us", "us"},
	{"shard.knn_us", "us"},
	{"shard.probed_per_query", "shards/query"},
	{"rtree.nodes_per_window", "nodes/query"},
	{"rtree.nodes_per_knn", "nodes/query"},
	{"rtree.insert_self_us", "us"},
	{"rtree.splits_per_1k_inserts", "count"},
	{"policy.choose_us", "us"},
	{"policy.split_us", "us"},
	{"policy.choose_per_insert", "ratio"},
	{"core.train_inserts_per_s", "op/s"},
	{"core.reward_queries_per_s", "op/s"},
	{"core.distill_s", "s"},
	{"trace.overhead", "ratio"},
	{"ladder.tree_us", "us"},
	{"ladder.concurrent_us", "us"},
	{"ladder.sharded_us", "us"},
	{"ladder.collection_us", "us"},
	{"ladder.wal_us", "us"},
	{"ladder.handler_us", "us"},
	{"ladder.loopback_us", "us"},
	{"rtree.epoch_tax_us", "us"},
	{"shard.route_tax_us", "us"},
	{"collection.set_tax_us", "us"},
	{"wal.tax_us", "us"},
	{"server.http_tax_us", "us"},
	{"net.loopback_tax_us", "us"},
}
