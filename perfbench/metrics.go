package main

// spec names one reported metric. For an end-to-end metric, bound is the
// share of the parent's median by which it may worsen before a change
// counts as a regression. For a per-layer metric, moves and on name the
// end-to-end metric and the workload it should move; BENCHMARK.json's
// schema has no field for them, so README.md carries the same table.
type spec struct {
	name, unit, better string
	bound              float64
	moves, on          string
}

// endToEnd are the metrics a user of the system sees, reported by
// --trace 0 runs. Every workload measures every one of them; README.md
// gives each its meaning per workload and maps the per-workload names
// (sim.host_us_per_req, serve.capacity_rps, ...) onto them.
var endToEnd = []spec{
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
	{name: "ops_per_s", unit: "1/s", better: "higher", bound: 0.25},
	{name: "cpu_us_per_op", unit: "us", better: "lower", bound: 0.25},
}

// perLayer are the single-layer metrics, reported by --trace 1 runs.
var perLayer = []spec{
	// Latency and footprint, measured in the same runs as the end-to-end
	// metrics. They carry no bound: on a shared 2-CPU machine they swing
	// from run to run with the CPU the host steals, more than any bound
	// could hold (README.md).
	{name: "latency.p50_ms", unit: "ms", better: "lower", moves: "ops_per_s", on: "serve-udp"},
	{name: "latency.p99_ms", unit: "ms", better: "lower", moves: "ops_per_s", on: "serve-udp"},
	{name: "mem.peak_rss_mb", unit: "MB", better: "lower", moves: "setup_s", on: "sim-paper"},

	// chord / registry, through the timing DHT decorator.
	{name: "chord.join_bulk_s", unit: "s", better: "lower", moves: "setup_s", on: "sim-paper"},
	{name: "chord.stabilize_s", unit: "s", better: "lower", moves: "setup_s", on: "sim-paper"},
	{name: "dht.get_calls", unit: "count", better: "lower", moves: "ops_per_s", on: "sim-paper"},
	{name: "dht.get_us", unit: "us", better: "lower", moves: "ops_per_s", on: "sim-paper"},
	{name: "dht.update_calls", unit: "count", better: "lower", moves: "ops_per_s", on: "sim-paper"},
	{name: "dht.update_us", unit: "us", better: "lower", moves: "ops_per_s", on: "sim-paper"},
	{name: "dht.churn_us", unit: "us", better: "lower", moves: "ops_per_s", on: "none (churn workload dropped)"},
	{name: "dht.hops_mean", unit: "hops", better: "lower", moves: "ops_per_s", on: "sim-paper"},
	{name: "registry.cache_hit_ratio", unit: "ratio", better: "higher", moves: "ops_per_s", on: "sim-paper"},

	// compose, probe, selection, session: Config.Metrics counters per request.
	{name: "compose.relaxations_per_req", unit: "count", better: "lower", moves: "ops_per_s", on: "sim-paper"},
	{name: "compose.memo_hit_ratio", unit: "ratio", better: "higher", moves: "ops_per_s", on: "sim-paper"},
	{name: "probe.probes_per_req", unit: "count", better: "lower", moves: "ops_per_s", on: "sim-paper"},
	{name: "probe.evictions_per_req", unit: "count", better: "lower", moves: "ops_per_s", on: "sim-paper"},
	{name: "probe.cache_hit_ratio", unit: "ratio", better: "higher", moves: "ops_per_s", on: "sim-paper"},
	{name: "select.informed_ratio", unit: "ratio", better: "higher", moves: "ops_per_s", on: "sim-paper"},
	{name: "session.admit_ratio", unit: "ratio", better: "higher", moves: "ops_per_s", on: "sim-paper"},

	// The same layers by CPU: profile samples under each public entry point.
	{name: "compose.cpu_s", unit: "s", better: "lower", moves: "ops_per_s", on: "sim-paper"},
	{name: "probe.cpu_s", unit: "s", better: "lower", moves: "ops_per_s", on: "sim-paper"},
	{name: "select.self_cpu_s", unit: "s", better: "lower", moves: "ops_per_s", on: "sim-paper"},
	{name: "session.cpu_s", unit: "s", better: "lower", moves: "ops_per_s", on: "sim-paper"},
	{name: "registry.lookup_cpu_s", unit: "s", better: "lower", moves: "ops_per_s", on: "sim-paper"},
	{name: "registry.register_cpu_s", unit: "s", better: "lower", moves: "ops_per_s", on: "sim-paper"},

	// eventsim.
	{name: "eventsim.events", unit: "count", better: "lower", moves: "ops_per_s", on: "sim-paper"},

	// netproto pipeline, from the serving peer's registry.
	{name: "agg.discovery_p50_us", unit: "us", better: "lower", moves: "latency.p50_ms, ops_per_s", on: "serve-udp"},
	{name: "agg.compose_p50_us", unit: "us", better: "lower", moves: "latency.p50_ms, ops_per_s", on: "serve-udp"},
	{name: "agg.selection_p50_us", unit: "us", better: "lower", moves: "latency.p50_ms, ops_per_s", on: "serve-udp"},
	{name: "agg.admission_p50_us", unit: "us", better: "lower", moves: "latency.p50_ms, ops_per_s", on: "serve-udp"},
	{name: "rpc.p50_us", unit: "us", better: "lower", moves: "latency.p50_ms, ops_per_s", on: "serve-udp"},
	{name: "rpc.per_agg", unit: "count", better: "lower", moves: "latency.p50_ms, ops_per_s", on: "serve-udp"},
	{name: "rpc.failed_frac", unit: "ratio", better: "lower", moves: "latency.p99_ms", on: "serve-udp"},
	{name: "wire.retransmits_per_agg", unit: "count", better: "lower", moves: "latency.p99_ms", on: "serve-udp"},

	// wire codec.
	{name: "wire.bytes_per_agg", unit: "B", better: "lower", moves: "cpu_us_per_op", on: "serve-udp"},
	{name: "codec.binary_ns_per_agg", unit: "ns", better: "lower", moves: "cpu_us_per_op", on: "serve-udp"},
	// JSON and TCP are on no workload's path since the overload workload
	// was dropped (README.md); they stay for its return.
	{name: "codec.json_ns_per_agg", unit: "ns", better: "lower", moves: "ops_per_s", on: "none (JSON/TCP overload)"},
	{name: "wire.conn_reuse_ratio", unit: "ratio", better: "higher", moves: "ops_per_s", on: "none (JSON/TCP overload)"},

	// admission.
	{name: "admit.shed_frac", unit: "ratio", better: "lower", moves: "ops_per_s", on: "serve-udp"},
	{name: "admit.queue_wait_p50_us", unit: "us", better: "lower", moves: "ops_per_s", on: "serve-udp"},
	{name: "admit.queue_wait_p99_us", unit: "us", better: "lower", moves: "ops_per_s", on: "serve-udp"},

	// Go runtime (runtime/metrics), over the measured phase.
	{name: "runtime.gc_cpu_frac", unit: "ratio", better: "lower", moves: "all", on: "all"},
	{name: "runtime.alloc_bytes_per_op", unit: "B", better: "lower", moves: "all", on: "all"},
	{name: "runtime.goroutines_max", unit: "count", better: "lower", moves: "all", on: "all"},

	// Failed operations over attempted: serving errors, sheds and
	// generator drops; simulator invariant failures.
	{name: "failed_frac", unit: "ratio", better: "lower", moves: "ops_per_s", on: "all"},

	// Generator health: not a program layer; shows when a serving number
	// measured the generator instead of the program.
	{name: "gen.lag_p99_ms", unit: "ms", better: "lower", moves: "latency.p99_ms", on: "serve-udp"},
	{name: "gen.inflight_max", unit: "count", better: "lower", moves: "latency.p99_ms", on: "serve-udp"},

	// Tracing overhead: the traced phase's end-to-end value minus the
	// untraced phase's, measured in the same run.
	{name: "overhead.setup_s", unit: "s", better: "lower", moves: "setup_s", on: "all"},
	{name: "overhead.ops_per_s", unit: "1/s", better: "higher", moves: "ops_per_s", on: "all"},
	{name: "overhead.cpu_us_per_op", unit: "us", better: "lower", moves: "cpu_us_per_op", on: "all"},
}

// addOverhead records traced − untraced for every end-to-end metric the
// workload reported in both phases.
func addOverhead(o *outcome, untraced, traced map[string]float64) {
	for _, s := range endToEnd {
		u, okU := untraced[s.name]
		t, okT := traced[s.name]
		if okU && okT {
			o.metrics["overhead."+s.name] = t - u
		}
	}
}
