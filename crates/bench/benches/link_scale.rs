//! Link-stage scaling on the seeded synthetic corpus
//! (`ompdart_suite::corpus`, default 1000 translation units — override
//! with `LINK_SCALE_UNITS` for smoke runs):
//!
//! * **engine isolation** — the merged interprocedural fixed point alone,
//!   sequential reference sweep vs the SCC-wavefront engine on the
//!   resolved worker count, with a byte-identity assert between the two;
//! * **driver trajectory** — cold `analyze_program`, warm relink of the
//!   unchanged corpus (the identity fast path), a semantic one-function
//!   edit in the middle of the call chain, asserting
//!   `relink_reseeded_functions` stays inside the edit's dirty cone (the
//!   edited stage plus its transitive callers) and reporting the functions
//!   it re-planned (`replanned_functions`: the edit adds a host-only
//!   effect no plan can read, so the edited function alone), and the same
//!   edit at the head of the chain, whose cone — and
//!   `relink_touched_units` — is a handful whatever the corpus size;
//! * **relink alone** — best-of-[`RELINK_RUNS`] wall times of
//!   `Program::relink` on one persistent `LinkState` for the mid-chain
//!   edit, its revert and the head edit, the time and allocator calls per
//!   re-seeded function of the mid-chain edit, and the best-of-[`COLD_RUNS`]
//!   cold `Program::link` of the corpus;
//! * **thread sweep** — the same cold/warm/one-edit trajectory over
//!   sessions of parallelism 1, 2, 4 and 8 (every phase of a round, each
//!   unit's function fan-out included, runs at it), each point's rewrites
//!   asserted byte-identical to the sequential reference. Every point
//!   reports the width it effectively ran at (the pool is capped at the
//!   machine's parallelism), and a point whose effective width repeats the
//!   previous one is skipped: it would measure noise, not scaling;
//! * **quality** — `linked_fallbacks == 0`: every cross-unit call in the
//!   corpus resolves.
//!
//! Prints a greppable `link_scale:` summary line, a `link_scale_head_edit:`
//! line, plus one `link_scale_sweep:` line per distinct effective width,
//! and writes the same numbers
//! (with the cold, one-edit and warm rounds' [`ompdart_core::DriverProfile`]s) to
//! `BENCH_link_scale.json` at the repo root, the perf trajectory the CI
//! `link-scale` job snapshots.

use ompdart_bench::alloc_counter;
use ompdart_core::{
    oracle, AnalysisSession, LinkState, OmpDartOptions, Program, ProgramDriver, Stage,
    SummarizedUnit,
};
use ompdart_suite::corpus;
use std::sync::Arc;
use std::time::{Duration, Instant};

// Count every allocator call the whole run makes; the cold round is
// bracketed with snapshots to report `allocs_per_unit_cold`.
#[global_allocator]
static ALLOC: alloc_counter::CountingAllocator = alloc_counter::CountingAllocator;

/// Relinks timed per edit in the relink block; the best run is reported.
const RELINK_RUNS: usize = 400;

/// Cold links timed in the relink block; the best run is reported.
const COLD_RUNS: usize = 20;

fn corpus_units() -> usize {
    std::env::var("LINK_SCALE_UNITS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1000)
}

/// The committed trajectory's `"before"` object, carried over verbatim so
/// the parent's numbers stay beside every refresh (`{}` when there is none).
fn carried_before(path: &str) -> String {
    let previous = std::fs::read_to_string(path).unwrap_or_default();
    let key = "\"before\": ";
    let Some(at) = previous.find(key) else {
        return "{}".to_string();
    };
    let body = &previous[at + key.len()..];
    let mut depth = 0usize;
    for (i, c) in body.char_indices() {
        match c {
            '{' => depth += 1,
            '}' if depth == 1 => return body[..=i].to_string(),
            '}' => depth = depth.saturating_sub(1),
            _ => {}
        }
    }
    "{}".to_string()
}

fn main() {
    let n = corpus_units();
    let inputs = corpus::generate(n, 42);
    let options = OmpDartOptions::default();
    // The sequential reference engine needs one pass per link of the
    // corpus's depth-N call chain; the wavefront engine does not.
    let sequential_passes = n + 8;

    // --- Engine isolation: summarize once, converge twice. -------------
    let session = Arc::new(AnalysisSession::with_options(options));
    let threads = session.parallelism();
    let driver = ProgramDriver::with_session(Arc::clone(&session));
    let t = Instant::now();
    let program = driver.link(&inputs).unwrap();
    let cold_link_ms = t.elapsed().as_secs_f64() * 1e3;

    // Best of three for each engine: the first call pays one-off costs
    // (allocator warmup, thread spawn) that are not the fixed point.
    let mut sequential_ms = f64::INFINITY;
    let mut sequential =
        oracle::propagate_merged_sequential(&program.units, &options, sequential_passes);
    for _ in 0..3 {
        let t = Instant::now();
        sequential =
            oracle::propagate_merged_sequential(&program.units, &options, sequential_passes);
        sequential_ms = sequential_ms.min(t.elapsed().as_secs_f64() * 1e3);
    }
    let mut parallel_ms = f64::INFINITY;
    let mut parallel = Program::propagate_merged(&program.units, &options, threads);
    for _ in 0..3 {
        let t = Instant::now();
        parallel = Program::propagate_merged(&program.units, &options, threads);
        parallel_ms = parallel_ms.min(t.elapsed().as_secs_f64() * 1e3);
    }
    assert!(
        parallel.same_summaries(&sequential),
        "SCC-parallel fixed point must be byte-identical to the sequential sweep"
    );
    let speedup = sequential_ms / parallel_ms.max(1e-9);

    // --- Driver trajectory: cold, warm, one-function edit. -------------
    let session = Arc::new(AnalysisSession::with_options(options));
    let driver = ProgramDriver::with_session(Arc::clone(&session));
    let alloc_before = alloc_counter::snapshot();
    let t = Instant::now();
    let (cold, cold_profile) = driver.analyze_program_profiled(&inputs).unwrap();
    let cold_ms = t.elapsed().as_secs_f64() * 1e3;
    let cold_allocs = alloc_counter::snapshot().since(&alloc_before);
    let allocs_per_unit_cold = cold_allocs.allocations as f64 / n as f64;
    let alloc_kb_per_unit_cold = cold_allocs.bytes as f64 / 1024.0 / n as f64;
    // Per-phase cold breakdown: parse from the units' own stage timings
    // (CPU time summed over units), the rest from the driver profile (wall
    // time of each phase).
    let cold_parse: Duration = (cold.units.iter())
        .map(|unit| unit.timings().of(Stage::Parse))
        .sum();
    let cold_parse_ms = cold_parse.as_secs_f64() * 1e3;
    let linked_fallbacks = cold.stats().unknown_callee_fallbacks;
    let cold_rewrite = cold.concatenated_rewrite();

    let t = Instant::now();
    let (warm, warm_profile) = driver.analyze_program_profiled(&inputs).unwrap();
    let warm_ms = t.elapsed().as_secs_f64() * 1e3;
    assert_eq!(
        warm_profile.fast_path_units, n,
        "a warm unchanged round must serve every unit via the identity fast path"
    );
    assert_eq!(
        warm.concatenated_rewrite(),
        cold_rewrite,
        "the fast-path round must be byte-identical to the cold round"
    );

    // A semantic edit in the middle of the chain: its dirty cone is the
    // edited stage plus every transitive caller (stage_1..stage_k and
    // main) — k + 1 functions.
    let edit_at = (n / 2).max(1).min(n - 1);
    let mut edited = inputs.clone();
    let edited_fn = corpus::edit_one_function(&mut edited, edit_at);
    let before = session.cache_stats();
    let t = Instant::now();
    let (edit_round, edit_profile) = driver.analyze_program_profiled(&edited).unwrap();
    let edit_ms = t.elapsed().as_secs_f64() * 1e3;
    let moved = session.cache_stats() - before;
    let (reseeded, replanned) = (moved.relink_reseeded_functions, moved.function_plan_misses);
    let cone_bound = (edit_at + 1) as u64;
    let edit_rewrite = edit_round.concatenated_rewrite();

    // The same edit at the head of the chain (after reverting the first):
    // its cone is `stage_1` and `main`, so the relink touches a handful of
    // units at any corpus size.
    driver.analyze_program(&inputs).unwrap();
    let mut head_edited = inputs.clone();
    corpus::edit_one_function(&mut head_edited, 1);
    let before = session.cache_stats();
    let t = Instant::now();
    driver.analyze_program(&head_edited).unwrap();
    let head_edit_ms = t.elapsed().as_secs_f64() * 1e3;
    let head_moved = session.cache_stats() - before;
    let (head_reseeded, head_touched) = (
        head_moved.relink_reseeded_functions,
        head_moved.relink_touched_units,
    );
    eprintln!(
        "link_scale_head_edit: units={n} head_edit={head_edit_ms:.3}ms \
         relink_reseeded={head_reseeded} relink_touched_units={head_touched}"
    );
    assert!(
        head_touched <= 8,
        "a head edit must touch a handful of units, not {head_touched}"
    );

    eprintln!(
        "link_scale: units={n} threads={threads} engine_seq={sequential_ms:.3}ms \
         engine_par={parallel_ms:.3}ms speedup={speedup:.2}x identical=true \
         cold_link={cold_link_ms:.3}ms cold={cold_ms:.3}ms warm_relink={warm_ms:.3}ms \
         one_edit={edit_ms:.3}ms edited_fn={edited_fn} \
         relink_reseeded={reseeded} cone_bound={cone_bound} replanned={replanned} \
         linked_fallbacks={linked_fallbacks} fast_path_units={} \
         allocs_per_unit_cold={allocs_per_unit_cold:.0} \
         pool_workers={}",
        warm_profile.fast_path_units, cold_profile.pool_workers
    );

    assert_eq!(
        linked_fallbacks, 0,
        "every cross-unit call in the corpus must resolve"
    );
    assert!(
        reseeded >= 1,
        "a semantic edit must re-seed at least the edited function"
    );
    assert!(
        reseeded <= cone_bound,
        "re-seeding must stay inside the dirty cone: {reseeded} > {cone_bound}"
    );

    let relink_json = relink_block(&[&inputs, &edited, &head_edited], &options, threads);

    // --- Thread sweep: the same trajectory at sessions of parallelism 1, ---
    // 2, 4 and 8, each point byte-identical to the trajectory above.
    let mut sweep_json = String::new();
    let mut previous_width = 0;
    for t_count in [1usize, 2, 4, 8] {
        let workers = ompdart_core::pool::effective_width(t_count);
        if workers == previous_width {
            continue;
        }
        previous_width = workers;
        let sweep_session = AnalysisSession::with_options(options).with_parallelism(t_count);
        let sweep_driver = ProgramDriver::with_session(Arc::new(sweep_session));

        let t = Instant::now();
        let sweep_cold = sweep_driver.analyze_program(&inputs).unwrap();
        let sweep_cold_ms = t.elapsed().as_secs_f64() * 1e3;

        let t = Instant::now();
        let (sweep_warm, sweep_profile) = sweep_driver.analyze_program_profiled(&inputs).unwrap();
        let sweep_warm_ms = t.elapsed().as_secs_f64() * 1e3;

        let t = Instant::now();
        let sweep_edit = sweep_driver.analyze_program(&edited).unwrap();
        let sweep_edit_ms = t.elapsed().as_secs_f64() * 1e3;

        let identical = sweep_cold.concatenated_rewrite() == cold_rewrite
            && sweep_warm.concatenated_rewrite() == cold_rewrite
            && sweep_edit.concatenated_rewrite() == edit_rewrite;
        assert!(
            identical,
            "rewrites at {t_count} workers must be byte-identical to the reference"
        );
        let warm_per_unit_us = sweep_warm_ms * 1e3 / n as f64;
        eprintln!(
            "link_scale_sweep: threads={t_count} workers={workers} cold={sweep_cold_ms:.3}ms \
             warm={sweep_warm_ms:.3}ms warm_per_unit_us={warm_per_unit_us:.1} \
             one_edit={sweep_edit_ms:.3}ms fast_path_units={} identical=true",
            sweep_profile.fast_path_units
        );
        sweep_json.push_str(&format!(
            "    {{ \"threads\": {t_count}, \"workers\": {workers}, \"cold_ms\": {sweep_cold_ms:.3}, \
             \"warm_ms\": {sweep_warm_ms:.3}, \"warm_per_unit_us\": {warm_per_unit_us:.1}, \
             \"one_edit_ms\": {sweep_edit_ms:.3}, \"fast_path_units\": {}, \
             \"identical\": true }},\n",
            sweep_profile.fast_path_units
        ));
    }
    let sweep_json = sweep_json.trim_end_matches(",\n").to_string();

    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_link_scale.json");
    let json = format!(
        "{{\n  \"bench\": \"link_scale\",\n  \"units\": {n},\n  \"threads\": {threads},\n  \
         \"pool_workers\": {},\n  \
         \"engine\": {{\n    \"sequential_ms\": {sequential_ms:.3},\n    \
         \"parallel_ms\": {parallel_ms:.3},\n    \"speedup\": {speedup:.2},\n    \
         \"identical\": true\n  }},\n  \"driver\": {{\n    \
         \"cold_link_ms\": {cold_link_ms:.3},\n    \"cold_analyze_ms\": {cold_ms:.3},\n    \
         \"warm_relink_ms\": {warm_ms:.3},\n    \"one_edit_ms\": {edit_ms:.3},\n    \
         \"head_edit_ms\": {head_edit_ms:.3},\n    \
         \"relink_touched_units\": {head_touched},\n    \
         \"allocs_per_unit_cold\": {allocs_per_unit_cold:.0},\n    \
         \"alloc_kb_per_unit_cold\": {alloc_kb_per_unit_cold:.1},\n    \
         \"cold_parse_ms\": {cold_parse_ms:.3},\n    \
         \"cold_phases\": {},\n    \
         \"one_edit_phases\": {},\n    \
         \"relink_reseeded_functions\": {reseeded},\n    \
         \"replanned_functions\": {replanned},\n    \
         \"dirty_cone_bound\": {cone_bound},\n    \
         \"linked_fallbacks\": {linked_fallbacks}\n  }},\n  \
         \"relink\": {relink_json},\n  \
         \"warm_profile\": {},\n  \"sweep\": [\n{sweep_json}\n  ],\n  \"before\": {}\n}}\n",
        cold_profile.pool_workers,
        cold_profile.to_json(),
        edit_profile.to_json(),
        warm_profile.to_json(),
        carried_before(path)
    );
    std::fs::write(path, json).expect("write BENCH_link_scale.json");
}

/// `Program::relink` alone, on one persistent [`LinkState`] over the
/// corpus: `programs` is the corpus, its mid-chain edit and its head edit.
/// Each run relinks the mid-chain edit, reverts it, relinks the head edit
/// and reverts that; the best of [`RELINK_RUNS`] is reported per step, with
/// what the mid-chain edit re-seeds, its time and allocator calls per
/// re-seeded function, and the best of [`COLD_RUNS`] cold `Program::link`s.
/// Prints a `link_scale_relink:` line and returns the JSON object.
fn relink_block(
    programs: &[&Vec<(String, String)>; 3],
    options: &OmpDartOptions,
    threads: usize,
) -> String {
    let session = AnalysisSession::with_options(*options);
    // Interfaces are memoised on first use: export them up front, as the
    // driver's summarize phase does.
    let summarize = |inputs: &Vec<(String, String)>| -> Vec<Arc<SummarizedUnit>> {
        let unit = |(name, source): &(String, String)| {
            let unit = session
                .summarize(name, source)
                .expect("a corpus unit summarizes");
            unit.exports();
            unit
        };
        inputs.iter().map(unit).collect()
    };
    let [base, mid, head] = programs.map(summarize);
    let timed = |units: &Vec<Arc<SummarizedUnit>>, state: &mut LinkState| {
        let units = units.clone();
        let t = Instant::now();
        let program = Program::relink(units, options, threads, state);
        let elapsed = t.elapsed().as_secs_f64() * 1e3;
        program.expect("the corpus links");
        elapsed
    };

    let mut cold_link_ms = f64::INFINITY;
    for _ in 0..COLD_RUNS {
        cold_link_ms = cold_link_ms.min(timed(&base, &mut LinkState::default()));
    }
    let before = alloc_counter::snapshot();
    timed(&base, &mut LinkState::default());
    let cold_allocs = alloc_counter::snapshot().since(&before).allocations;

    let mut state = LinkState::default();
    timed(&base, &mut state);
    let [mut mid_ms, mut revert_ms, mut head_ms] = [f64::INFINITY; 3];
    let mut reseeded = 0;
    for _ in 0..RELINK_RUNS {
        mid_ms = mid_ms.min(timed(&mid, &mut state));
        reseeded = state.reseeded();
        revert_ms = revert_ms.min(timed(&base, &mut state));
        head_ms = head_ms.min(timed(&head, &mut state));
        timed(&base, &mut state);
    }
    let before = alloc_counter::snapshot();
    timed(&mid, &mut state);
    let mid_allocs = alloc_counter::snapshot().since(&before).allocations;
    timed(&base, &mut state);

    let ns_per_reseeded = mid_ms * 1e6 / reseeded.max(1) as f64;
    let allocs_per_reseeded = mid_allocs as f64 / reseeded.max(1) as f64;
    eprintln!(
        "link_scale_relink: mid_edit={mid_ms:.3}ms revert={revert_ms:.3}ms \
         head_edit={head_ms:.3}ms reseeded={reseeded} \
         ns_per_reseeded_function={ns_per_reseeded:.0} \
         allocs_per_reseeded_function={allocs_per_reseeded:.2} \
         cold_link={cold_link_ms:.3}ms cold_link_allocs={cold_allocs}"
    );
    format!(
        "{{\"runs\": {RELINK_RUNS}, \"mid_edit_ms\": {mid_ms:.3}, \
         \"mid_revert_ms\": {revert_ms:.3}, \"head_edit_ms\": {head_ms:.3}, \
         \"reseeded_functions\": {reseeded}, \
         \"ns_per_reseeded_function\": {ns_per_reseeded:.0}, \
         \"allocs_per_reseeded_function\": {allocs_per_reseeded:.2}, \
         \"cold_link_ms\": {cold_link_ms:.3}, \"cold_link_allocs\": {cold_allocs}}}"
    )
}
