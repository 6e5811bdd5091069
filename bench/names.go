package main

// The names BENCHMARK.json carries. Every workload reports every one
// of them: the gate metrics from an untraced run, the ledger from a
// traced one. plan_test.go pins both lists against the file.

// gateMetricNames are the end-to-end metrics a later change is judged
// by. Their meaning per workload is fixed in README.md: op_p50_ms is
// the median of the workload's headline operation (push, remote
// resolve, edit, restart), sat_ops_s its closed-loop throughput and
// cpu_ms_per_op the processor time one closed-loop op costs. Tail
// percentiles are reported per workload under their own names: on a
// two-core machine that hosts generator and stations in one process
// their run-to-run spread is wider than any bound the gate allows.
var gateMetricNames = []string{
	"setup_s",
	"peak_rss_mb",
	"op_p50_ms",
	"sat_ops_s",
	"cpu_ms_per_op",
}

// ledgerMetricNames are the per-layer metrics, bottom to top.
var ledgerMetricNames = []string{
	"wire.encode_ns_row",
	"wire.decode_ns_row",
	"wire.record_mb_s",
	"transport.rtt_small_us_p50",
	"transport.rtt_bundle_ms_p50",
	"transport.marshal_mb_s",
	"transport.unmarshal_mb_s",
	"relstore.apply_mem_us_p50",
	"relstore.apply_wal_us_p50",
	"relstore.get_ns",
	"relstore.wal_bytes_per_commit",
	"relstore.checkpoint_ms_p50",
	"relstore.recover_ms_p50",
	"blob.put_mb_s",
	"blob.get_mb_s",
	"blob.snapshot_mb_s",
	"blob.restore_mb_s",
	"blob.sharing_factor",
	"docdb.export_ms_p50",
	"docdb.import_ms_p50",
	"docdb.import_ref_us_p50",
	"docdb.migrate_ms_p50",
	"docdb.checkout_pair_us_p50",
	"docdb.checkpoint_ms_p50",
	"docdb.checkpoint_ms_max",
	"docdb.checkpoint_bytes_per_live_byte",
	"docdb.recover_ms_p50",
	"search.index_us_doc",
	"search.query_us_p50",
	"search.merge_us_p50",
	"search.postings_per_doc",
	"search.recover_ms_p50",
	"cluster.rpc_checkout_pair_us_p50",
	"cluster.rpc_sql_insert_us_p50",
	"cluster.rpc_fetch_bundle_ms_p50",
	"cluster.rpc_search_local_us_p50",
	"fabric.push_ms_p95",
	"fabric.push_self_ms_p50",
	"fabric.hop_ms_p50.d1",
	"fabric.hop_ms_p50.d2",
	"fabric.straggler_gap_ms_p50",
	"fabric.migrate_ms_p50",
	"fabric.resolve_hops_mean",
	"fabric.search_self_ms_p50",
	"fabric.coverage_share",
	"fabric.grafts",
	"bench.trace_overhead_pct",
}
