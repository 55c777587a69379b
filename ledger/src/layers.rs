//! Layer probes of the traced pass: each layer's public functions are
//! called on the workload's own inputs, one layer at a time and on the
//! calling thread, inside a span. Nothing inside the program is
//! instrumented; tracing within it is a later change.
//!
//! The probes give each layer's cost in isolation (ns per unit, per KB or
//! per function, at reference speed like the end-to-end latencies) and the
//! size of what it produced. What the layers cost
//! *inside* a real operation, where summarize and plan fan out over the
//! pool, comes from `DriverProfile` (`session.driver_*`).

use crate::harness::{median, ms, timed, Pace, REFERENCE_MS};
use crate::trace::Recorder;
use ompdart_core::pipeline::{
    stage_accesses, stage_graphs, stage_parse, stage_plans, stage_rewrite, stage_summaries,
};
use ompdart_core::store::PendingUnitSave;
use ompdart_core::{
    plans_from_json, plans_to_json, AnalysisSession, ArtifactStore, DriverProfile, OmpDartOptions,
    Ompdart, Program, ProgramDriver, UNLINKED,
};
use ompdart_frontend::lexer::tokenize_file;
use ompdart_frontend::parser::parse_source;
use ompdart_frontend::preprocess::preprocess;
use ompdart_frontend::source::SourceFile;
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

pub type Metrics = BTreeMap<&'static str, f64>;

/// Each timing probe runs this often; the median is reported.
const REPEATS: usize = 3;

/// What every probe times with: the span recorder and the reference loop.
#[derive(Clone, Copy)]
pub struct Clocks<'a> {
    pub recorder: &'a Recorder,
    pub pace: &'a Pace,
}

impl Clocks<'_> {
    /// What a duration measured now is at reference speed.
    fn scale(&self) -> f64 {
        REFERENCE_MS / self.pace.now()
    }
}

/// Run `f` in a span and add its time, at reference speed, to `total`.
fn layer<R>(clocks: Clocks, name: &'static str, total: &mut Duration, f: impl FnOnce() -> R) -> R {
    let scale = clocks.scale();
    let (result, wall) = timed(|| clocks.recorder.span(name, f));
    *total += wall.mul_f64(scale);
    result
}

fn median_ns(samples: &[Duration]) -> f64 {
    median(
        &samples
            .iter()
            .map(|d| d.as_nanos() as f64)
            .collect::<Vec<_>>(),
    )
}

/// Record the `session.*`, `pool.*` and `shard.*` metrics of one profiled
/// round.
pub fn record_driver_profile(profile: &DriverProfile, out: &mut Metrics) {
    out.insert("session.driver_summarize_ms", ms(profile.summarize));
    out.insert("session.driver_link_ms", ms(profile.link));
    out.insert("session.driver_plan_ms", ms(profile.plan));
    out.insert("session.driver_flush_ms", ms(profile.flush));
    out.insert("pool.workers_effective", profile.pool_workers as f64);
    out.insert("pool.wait_ns", profile.pool_wait_ns as f64);
    out.insert("shard.lock_wait_ns", profile.lock_wait_ns as f64);
    out.insert("shard.contentions", profile.lock_contentions as f64);
}

/// One program a workload analyses: its units, and the same units after
/// the workload's one-function edit (for the relink probe).
pub struct ProbeProgram {
    pub units: Vec<(String, String)>,
    pub edited: Vec<(String, String)>,
}

/// Whole-input totals of the probes, for attributing an operation's
/// end-to-end time to layers.
pub struct ProbeTotals {
    /// Frontend, graph, access, interproc, plan and rewrite, summed as run
    /// here: one unit after the other on one thread.
    pub stages_ms: f64,
    pub planjson_encode_ms: f64,
    pub link_cold_ms: f64,
}

/// Probe every analysis layer on the units of `programs`. `scratch` is a
/// directory for the store probe, which leaves its entries there. Failures (a unit that does not
/// parse, a plan document that does not round-trip) are appended to
/// `failures`.
pub fn probe(
    clocks: Clocks,
    programs: &[ProbeProgram],
    scratch: &Path,
    out: &mut Metrics,
    failures: &mut Vec<String>,
) -> ProbeTotals {
    let options = OmpDartOptions::default();
    let units: Vec<&(String, String)> = programs.iter().flat_map(|p| &p.units).collect();
    let unit_count = units.len() as f64;
    let kb = units.iter().map(|(_, s)| s.len()).sum::<usize>() as f64 / 1024.0;

    // --- frontend: lex, preprocess, and the whole parse ------------------
    let files: Vec<SourceFile> = units
        .iter()
        .map(|(name, source)| SourceFile::new(name.as_str(), source.as_str()))
        .collect();
    let (mut lex, mut pre, mut parse) = (Vec::new(), Vec::new(), Vec::new());
    let mut tokens = 0usize;
    for _ in 0..REPEATS {
        let (mut lex_t, mut pre_t, mut parse_t) = (Duration::ZERO, Duration::ZERO, Duration::ZERO);
        tokens = 0;
        for file in &files {
            let (toks, mut diags) =
                layer(clocks, "frontend.lex", &mut lex_t, || tokenize_file(file));
            tokens += toks.len();
            layer(clocks, "frontend.preprocess", &mut pre_t, || {
                preprocess(toks, &mut diags)
            });
            // `parse_source` lexes and preprocesses again; the parser's own
            // share is what remains after subtracting the two above.
            layer(clocks, "frontend.parse_source", &mut parse_t, || {
                parse_source(file)
            });
        }
        lex.push(lex_t);
        pre.push(pre_t);
        parse.push(parse_t.saturating_sub(lex_t + pre_t));
    }
    out.insert("frontend.lex_ns_per_kb", median_ns(&lex) / kb);
    out.insert("frontend.preprocess_ns_per_kb", median_ns(&pre) / kb);
    out.insert("frontend.parse_ns_per_kb", median_ns(&parse) / kb);
    out.insert("frontend.tokens_per_unit", tokens as f64 / unit_count);

    // --- graph, access, interproc, plan, rewrite, plan JSON --------------
    let parsed: Vec<_> = units
        .iter()
        .filter_map(|(name, source)| match stage_parse(name, source) {
            Ok(parsed) => Some(parsed),
            Err(e) => {
                failures.push(format!("layer probe: {e}"));
                None
            }
        })
        .collect();
    let mut times: [Vec<Duration>; 7] = Default::default();
    let (mut cfg_nodes, mut cfg_edges, mut accesses, mut functions) = (0, 0, 0, 0);
    let (mut constructs, mut rewrite_bytes, mut json_bytes) = (0, 0, 0);
    let mut saves: Vec<PendingUnitSave> = Vec::new();
    for repeat in 0..REPEATS {
        let mut t = [Duration::ZERO; 7];
        (cfg_nodes, cfg_edges, accesses, functions) = (0, 0, 0, 0);
        (constructs, rewrite_bytes, json_bytes) = (0, 0, 0);
        for unit in &parsed {
            let graphs = layer(clocks, "graph.build", &mut t[0], || {
                stage_graphs(&unit.unit)
            });
            for function in &graphs.graphs.functions {
                cfg_nodes += function.cfg.nodes().len();
                cfg_edges += function.cfg.edges().len();
            }
            let access = layer(clocks, "access.collect", &mut t[1], || {
                stage_accesses(&unit.unit, &graphs)
            });
            accesses += access
                .accesses
                .values()
                .map(|f| f.accesses.len())
                .sum::<usize>();
            let summaries = layer(clocks, "interproc.summaries", &mut t[2], || {
                stage_summaries(&unit.unit, &access, &options)
            });
            let plans = layer(clocks, "plan.dataflow", &mut t[3], || {
                stage_plans(&unit.unit, &graphs, &access, &summaries, &options, 1)
            });
            functions += plans.stats.functions_analyzed;
            constructs += plans.stats.total_constructs();
            let rewrite = layer(clocks, "rewrite.apply", &mut t[4], || {
                stage_rewrite(unit, &graphs, &plans)
            });
            rewrite_bytes += rewrite.source.len();
            let json = layer(clocks, "planjson.encode", &mut t[5], || {
                plans_to_json(&plans.plans)
            });
            json_bytes += json.len();
            let decoded = layer(clocks, "planjson.decode", &mut t[6], || {
                plans_from_json(&json)
            });
            if repeat == 0 {
                if decoded.as_deref().ok() != Some(&plans.plans[..]) {
                    failures.push(format!(
                        "layer probe: plan JSON of `{}` does not round-trip",
                        unit.name
                    ));
                }
                saves.push(PendingUnitSave {
                    name: unit.name.clone(),
                    source: unit.file.text().to_string(),
                    link: UNLINKED,
                    plans: plans.plans.clone(),
                    stats: plans.stats,
                    functions: plans.function_keys.clone(),
                });
            }
        }
        for (all, one) in times.iter_mut().zip(t) {
            all.push(one);
        }
    }
    let json_kb = json_bytes as f64 / 1024.0;
    out.insert("graph.build_ns_per_unit", median_ns(&times[0]) / unit_count);
    out.insert("graph.cfg_nodes", cfg_nodes as f64);
    out.insert("graph.cfg_edges", cfg_edges as f64);
    out.insert(
        "access.collect_ns_per_unit",
        median_ns(&times[1]) / unit_count,
    );
    out.insert("access.count", accesses as f64);
    out.insert(
        "interproc.summaries_ns_per_unit",
        median_ns(&times[2]) / unit_count,
    );
    out.insert(
        "plan.ns_per_function",
        median_ns(&times[3]) / (functions.max(1)) as f64,
    );
    out.insert("plan.constructs", constructs as f64);
    out.insert("rewrite.ns_per_unit", median_ns(&times[4]) / unit_count);
    out.insert("rewrite.out_bytes", rewrite_bytes as f64);
    out.insert("planjson.encode_ns_per_kb", median_ns(&times[5]) / json_kb);
    out.insert("planjson.decode_ns_per_kb", median_ns(&times[6]) / json_kb);
    out.insert("planjson.bytes", json_bytes as f64);

    // --- store: the batch write (once: its files stay on disk) and the ---
    // per-entry read
    let store = ArtifactStore::open(scratch.join("store-probe"));
    let mut save = Duration::ZERO;
    let written = layer(clocks, "store.save_many", &mut save, || {
        store.save_many(&options, &saves)
    });
    if let Err(e) = written {
        failures.push(format!("layer probe: store write failed: {e}"));
    }
    out.insert("store.entries", store.entry_count() as f64);
    out.insert("store.bytes", store.total_bytes() as f64);
    let mut load = Vec::new();
    let mut hits = 0usize;
    for _ in 0..REPEATS {
        let mut load_t = Duration::ZERO;
        hits = layer(clocks, "store.load", &mut load_t, || {
            saves
                .iter()
                .filter(|s| store.load(&s.source, &options, UNLINKED).is_some())
                .count()
        });
        load.push(load_t);
    }
    let entries = saves.len().max(1) as f64;
    out.insert(
        "store.save_us_per_entry",
        save.as_nanos() as f64 / 1e3 / entries,
    );
    out.insert("store.load_us_per_entry", median_ns(&load) / 1e3 / entries);
    out.insert("store.hit_ratio", hits as f64 / entries);

    // --- link: the cold fixed point, the engine alone ---------------------
    let (mut cold, mut engine) = (Vec::new(), Vec::new());
    let mut passes = 0usize;
    for _ in 0..REPEATS {
        let (mut cold_t, mut engine_t) = (Duration::ZERO, Duration::ZERO);
        passes = 0;
        for program in programs {
            let session = Arc::new(AnalysisSession::with_options(options));
            let driver = ProgramDriver::with_session(Arc::clone(&session));
            let linked = match driver.link(&program.units) {
                Ok(linked) => linked,
                Err(e) => {
                    failures.push(format!("layer probe: link failed: {e}"));
                    continue;
                }
            };
            passes += linked.linked.passes;
            let relinked = layer(clocks, "link.cold", &mut cold_t, || {
                Program::link(linked.units.clone(), &options)
            });
            if let Err(e) = relinked {
                failures.push(format!("layer probe: link failed: {e}"));
            }
            layer(clocks, "link.engine", &mut engine_t, || {
                Program::propagate_merged(&linked.units, &options, options.effective_link_threads())
            });
        }
        cold.push(cold_t);
        engine.push(engine_t);
    }
    out.insert("link.cold_ms", median_ns(&cold) / 1e6);
    out.insert("link.engine_ms", median_ns(&engine) / 1e6);
    out.insert("link.passes", passes as f64);

    // --- real sessions: a cold round, then the edit round -----------------
    let mut cold_profile = DriverProfile::default();
    let mut edit_profile = DriverProfile::default();
    let (mut allocations, mut allocated_bytes) = (0u64, 0u64);
    let (mut planned, mut reseeded, mut hits, mut misses) = (0u64, 0u64, 0u64, 0u64);
    for program in programs {
        let tool = Ompdart::builder().build();
        // Counting slows the round down (see `alloc.rs`), so its profile
        // is not used: the uncounted repeat below is.
        let (counted_round, spent) = crate::alloc::counted(|| {
            Ompdart::builder()
                .build()
                .analyze_program(&program.units)
                .is_ok()
        });
        if !counted_round {
            failures.push("layer probe: counted cold round failed".to_string());
        }
        let cold_scale = clocks.scale();
        let cold_round = clocks.recorder.span("session.cold_round", || {
            tool.analyze_program_profiled(&program.units)
        });
        allocations += spent.allocations;
        allocated_bytes += spent.bytes;
        match cold_round {
            Ok((_, profile)) => add_profile(&mut cold_profile, &profile, cold_scale),
            Err(e) => failures.push(format!("layer probe: cold round failed: {e}")),
        }
        let after_cold = tool.session().cache_stats();
        planned += after_cold.function_plan_misses;
        let edit_scale = clocks.scale();
        match clocks.recorder.span("session.edit_round", || {
            tool.analyze_program_profiled(&program.edited)
        }) {
            Ok((_, profile)) => {
                add_profile(&mut edit_profile, &profile, edit_scale);
                let stats = tool.session().cache_stats();
                reseeded += stats.relink_reseeded_functions - after_cold.relink_reseeded_functions;
                hits += stats.function_plan_hits - after_cold.function_plan_hits;
                misses += stats.function_plan_misses - after_cold.function_plan_misses;
            }
            Err(e) => failures.push(format!("layer probe: edit round failed: {e}")),
        }
    }
    record_driver_profile(&cold_profile, out);
    out.insert("alloc.count_per_unit", allocations as f64 / unit_count);
    out.insert(
        "alloc.kb_per_unit",
        allocated_bytes as f64 / 1024.0 / unit_count,
    );
    out.insert("plan.functions_planned", planned as f64);
    out.insert("link.relink_ms", ms(edit_profile.link));
    out.insert("link.reseeded_functions", reseeded as f64);
    out.insert(
        "session.fast_path_units",
        edit_profile.fast_path_units as f64,
    );
    out.insert(
        "plan.cache_hit_ratio",
        hits as f64 / (hits + misses).max(1) as f64,
    );

    let frontend_ns = median_ns(&lex) + median_ns(&pre) + median_ns(&parse);
    let stages_ns: f64 = times[..5].iter().map(|t| median_ns(t)).sum();
    ProbeTotals {
        stages_ms: (frontend_ns + stages_ns) / 1e6,
        planjson_encode_ms: median_ns(&times[5]) / 1e6,
        link_cold_ms: median_ns(&cold) / 1e6,
    }
}

/// Sum the phase times (at reference speed: times `scale`) and counters of
/// `add` into `total` (the widest pool wins).
fn add_profile(total: &mut DriverProfile, add: &DriverProfile, scale: f64) {
    total.summarize += add.summarize.mul_f64(scale);
    total.link += add.link.mul_f64(scale);
    total.plan += add.plan.mul_f64(scale);
    total.flush += add.flush.mul_f64(scale);
    total.fast_path_units += add.fast_path_units;
    total.pool_workers = total.pool_workers.max(add.pool_workers);
    total.pool_wait_ns += add.pool_wait_ns;
    total.lock_wait_ns += add.lock_wait_ns;
    total.lock_contentions += add.lock_contentions;
}
