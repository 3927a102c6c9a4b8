package main

// metricDef declares one metric; BENCHMARK.json carries the same names
// and units (bench_test.go holds the two lists together).
type metricDef struct {
	name, unit string
	higher     bool // better when higher
}

// endToEnd is what a user of each path feels. Every workload reports
// every one of them; "op" is the workload's unit of work:
//
//	mesh-chain    one request through the 3-service chain
//	ctrl-*        one control tick (48 cluster reports → every proxy on the new table)
//	sim-gen16     op_ms: one whole-scenario run of the serial engine;
//	              ops_per_s, cpu_us_per_op, allocs_per_op: one simulated request
//
// Timed metrics are taken per slice (half a second of load and the
// median latency in it, one churn tick, forty steady ticks, one
// simulation run) and the fast-side quartile of the slice values is
// reported (see fastSide).
var endToEnd = []metricDef{
	{"setup_s", "s", false},
	{"op_ms", "ms", false},
	{"ops_per_s", "1/s", true},
	{"cpu_us_per_op", "us", false},
	{"allocs_per_op", "count", false},
	{"peak_rss_mb", "MB", false},
}

// perLayer is the traced run's table, <module>.<metric>. A layer that
// is not on a workload's path reports 0 there.
var perLayer = []metricDef{
	// Request path.
	{"dataplane.inbound_added_us", "us/pass", false},
	{"dataplane.outbound_added_us", "us/pass", false},
	{"dataplane.passes_per_req", "count", false},
	{"dataplane.spans_per_req", "count", false},
	{"dataplane.remote_ratio", "ratio", false},
	{"dataplane.settable_us", "us/op", false},
	{"emul.floor_p50_us", "us/req", false},
	{"emul.leaf_hop_p50_us", "us/hop", false},
	{"emul.lat_p99_ms", "ms", false},
	{"routing.lookup_pick_ns", "ns/op", false},
	{"classifier.classify_ns", "ns/op", false},
	{"telemetry.record_ns", "ns/op", false},
	{"obs.scrape_ms", "ms/scrape", false},
	{"gen.max_late_ms", "ms", false},
	// Control loop.
	{"controlplane.report_ms", "ms/tick", false},
	{"controlplane.collect_ms", "ms/tick", false},
	{"controlplane.ingest_ms", "ms/tick", false},
	{"controlplane.tick_ms", "ms/tick", false},
	{"controlplane.apply_ms", "ms/tick", false},
	{"controlplane.wire_kb_per_tick", "kB/tick", false},
	{"telemetry.merge_ms", "ms/tick", false},
	{"telemetry.delta_ms", "ms/tick", false},
	{"telemetry.flush_us", "us/tick", false},
	{"core.tick_ms", "ms/tick", false},
	{"core.optimize_ms", "ms/tick", false},
	{"core.estimate_ms", "ms/tick", false},
	{"search.reoptimize_ms", "ms/tick", false},
	{"core.subsolves", "count/tick", false},
	{"core.skipped", "count/tick", true},
	{"core.skip_ratio", "ratio", true},
	{"core.warm_solves", "count/tick", true},
	{"core.cold_solves", "count/tick", false},
	{"core.search_wins", "count/tick", true},
	{"routing.restrict_ms", "ms/tick", false},
	{"routing.makepatch_ms", "ms/tick", false},
	{"routing.patch_encode_ms", "ms/tick", false},
	{"routing.patch_bytes", "B/tick", false},
	{"ctrl.unattributed_ratio", "ratio", false},
	// Simulator.
	{"scenario.generate_ms", "ms/op", false},
	{"workload.arrivals_ms", "ms/run", false},
	{"sim.kernel_ns_per_event", "ns/event", false},
	{"sim.kernel_share", "ratio", false},
	{"simrun.events_per_req", "count", false},
	{"simrun.ns_per_event", "ns/event", false},
	{"simrun.bytes_per_req", "B/req", false},
	{"simrun.policy_tick_ms", "ms/run", false},
	{"simrun.spans_per_req", "count", false},
	{"simrun.trace_overhead_ratio", "ratio", false},
	{"simrun.par_windows", "count/run", false},
	{"simrun.par_messages", "count/run", false},
	{"simrun.par_over_serial", "ratio", false},
	{"simrun.par_req_per_s", "1/s", true},
	{"simrun.unattributed_share", "ratio", false},
	// Every workload.
	{"trace.op_ms", "ms", false},
	{"trace.op_tail_ms", "ms", false},
	{"trace.overhead_ratio", "ratio", false},
}

var known = func() map[string]bool {
	m := map[string]bool{}
	for _, d := range endToEnd {
		m[d.name] = true
	}
	for _, d := range perLayer {
		m[d.name] = true
	}
	return m
}()
