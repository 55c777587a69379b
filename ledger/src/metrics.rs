//! The benchmark's vocabulary: workloads and metrics by name, unit and
//! direction. `BENCHMARK.json` at the repo root lists the same names; a
//! test (`tests/ledger_determinism.rs`) keeps the two in step.

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

/// An end-to-end metric: what a user of the tool sees. `bound` is the
/// share of the baseline's value by which it may get worse.
#[derive(Clone, Copy, Debug)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
}

/// Every workload reports every one of these (see README.md for what
/// `cold`, `warm` and `edit` mean on each workload).
pub const END_TO_END: &[EndToEnd] = &[
    // The timed metrics have the widest bound `BENCHMARK.json` may state:
    // two to three times the widest spread (quartile distance over median)
    // they showed on any workload over ten runs with ten seeds on the
    // baseline machine (README.md, "How steady it is").
    e2e("setup_s", "s", Better::Lower, 0.25),
    e2e("cold_ms", "ms", Better::Lower, 0.25),
    e2e("warm_ms", "ms", Better::Lower, 0.25),
    e2e("edit_ms", "ms", Better::Lower, 0.25),
    e2e("ops_per_s", "1/s", Better::Higher, 0.25),
    e2e("peak_rss_mb", "MB", Better::Lower, 0.15),
    // Mapping quality on the ten paper ports: deterministic counts, so
    // any drift is a finding.
    e2e("bytes_vs_expert", "ratio", Better::Lower, 0.0),
    e2e("lifetimes_bytes_vs_expert", "ratio", Better::Lower, 0.0),
    e2e("calls_vs_expert", "ratio", Better::Lower, 0.0),
    e2e("simtime_vs_expert", "ratio", Better::Lower, 0.0),
    e2e("simtime_vs_unopt", "ratio", Better::Lower, 0.0),
];

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
    }
}

/// A per-layer metric, named `<module>.<metric>`. `count` marks values
/// that are counts or sizes of deterministic artefacts: they must repeat
/// exactly for one seed. Everything else is `measured`: times, and counts
/// that depend on how far a run got or how its threads interleaved.
#[derive(Clone, Copy, Debug)]
pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub count: bool,
}

const fn measured(name: &'static str, unit: &'static str) -> Layer {
    Layer {
        name,
        unit,
        better: Better::Lower,
        count: false,
    }
}

const fn count(name: &'static str, unit: &'static str) -> Layer {
    Layer {
        name,
        unit,
        better: Better::Lower,
        count: true,
    }
}

const fn ratio(name: &'static str) -> Layer {
    Layer {
        name,
        unit: "ratio",
        better: Better::Higher,
        count: false,
    }
}

/// Every workload reports every one of these in the traced pass; a layer
/// the workload leaves idle reads 0.
pub const PER_LAYER: &[Layer] = &[
    measured("frontend.lex_ns_per_kb", "ns/KB"),
    measured("frontend.preprocess_ns_per_kb", "ns/KB"),
    measured("frontend.parse_ns_per_kb", "ns/KB"),
    count("frontend.tokens_per_unit", "count"),
    measured("graph.build_ns_per_unit", "ns"),
    count("graph.cfg_nodes", "count"),
    count("graph.cfg_edges", "count"),
    measured("access.collect_ns_per_unit", "ns"),
    count("access.count", "count"),
    measured("interproc.summaries_ns_per_unit", "ns"),
    measured("link.cold_ms", "ms"),
    measured("link.engine_ms", "ms"),
    measured("link.relink_ms", "ms"),
    count("link.reseeded_functions", "count"),
    count("link.passes", "count"),
    measured("plan.ns_per_function", "ns"),
    count("plan.functions_planned", "count"),
    count("plan.constructs", "count"),
    ratio("plan.cache_hit_ratio"),
    measured("rewrite.ns_per_unit", "ns"),
    count("rewrite.out_bytes", "B"),
    measured("planjson.encode_ns_per_kb", "ns/KB"),
    measured("planjson.decode_ns_per_kb", "ns/KB"),
    count("planjson.bytes", "B"),
    measured("store.save_us_per_entry", "us"),
    measured("store.load_us_per_entry", "us"),
    count("store.entries", "count"),
    count("store.bytes", "B"),
    ratio("store.hit_ratio"),
    measured("session.driver_summarize_ms", "ms"),
    measured("session.driver_link_ms", "ms"),
    measured("session.driver_plan_ms", "ms"),
    measured("session.driver_flush_ms", "ms"),
    count("session.fast_path_units", "count"),
    measured("session.edit_shallow_ms", "ms"),
    measured("session.revert_ms", "ms"),
    measured("session.layer_sum_ms", "ms"),
    measured("session.unattributed_ms", "ms"),
    count("pool.workers_effective", "count"),
    measured("pool.wait_ns", "ns"),
    measured("shard.lock_wait_ns", "ns"),
    measured("shard.contentions", "count"),
    measured("alloc.count_per_unit", "count"),
    measured("alloc.kb_per_unit", "KB"),
    // Means over however many requests the run got through, so not counts.
    measured("wire.request_bytes", "B"),
    measured("wire.response_bytes", "B"),
    measured("wire.json_render_ns_per_kb", "ns/KB"),
    measured("wire.json_parse_ns_per_kb", "ns/KB"),
    measured("server.dispatch_ms", "ms"),
    measured("server.big_warm_ms", "ms"),
    measured("server.big_edit_ms", "ms"),
    measured("server.req_p95_ms", "ms"),
    measured("server.explain_p50_us", "us"),
    measured("server.stats_p50_us", "us"),
    measured("server.check_plans_p50_us", "us"),
    measured("server.error_responses", "count"),
    measured("server.rss_kb_per_1k_req", "KB"),
    measured("cli.startup_ms", "ms"),
    measured("cli.nocache_ms", "ms"),
    measured("cli.io_ms", "ms"),
    measured("sim.ms_per_port", "ms"),
    count("sim.htod_bytes", "B"),
    count("sim.dtoh_bytes", "B"),
    count("sim.calls", "count"),
    measured("verify.ns_per_unit", "ns"),
    count("verify.stale_reads", "count"),
    measured("trace.overhead_pct", "%"),
];

pub const WORKLOADS: &[(&str, &str)] = &[
    (
        "paper_suite",
        "ten paper ports in fresh sessions: the only place mapping quality and the simulator show; frontend, planning and plan JSON dominate",
    ),
    (
        "corpus_cold",
        "1000-unit corpus, a new session per round: throughput at scale, where summarize and link dominate and caches only get filled",
    ),
    (
        "corpus_edit",
        "one long-lived session over the same corpus: the same layers reading caches, so relink and the function-plan cache dominate",
    ),
    (
        "cli_restart",
        "the release ompdart binary as a child over files on disk: process start, file I/O and the store's write and read sides",
    ),
    (
        "served_mix",
        "a seeded request mix against an ompdartd child on a unix socket: wire framing, JSON and the registry dominate a small analysis",
    ),
];
