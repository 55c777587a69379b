//! Golden tests for the incremental analysis engine.
//!
//! * **Incremental == cold**: after a one-function edit, re-analysis in a
//!   warm session — which plans the edited unit whole — must produce
//!   byte-identical output (and identical plans and stats) to a cold
//!   analysis of the edited source, across the whole corpus.
//! * **Persistent store == cold**: a second session over the same
//!   `cache_dir` (a simulated process restart) must reproduce every
//!   rewrite byte-identically from disk without planning a single
//!   function.

use ompdart_core::{Ompdart, Stage, UnitServe};
use ompdart_suite::{all_benchmarks, incremental_demo, one_function_edit};
use std::sync::Arc;
use std::time::Duration;

/// The nine paper benchmarks plus the multi-function incremental demo.
fn corpus() -> Vec<(String, String)> {
    let mut inputs: Vec<(String, String)> = all_benchmarks()
        .iter()
        .map(|b| (b.unoptimized_file(), b.unoptimized.to_string()))
        .collect();
    inputs.push(("incremental_demo.c".into(), incremental_demo().to_string()));
    inputs
}

/// Acceptance golden: incremental re-analysis after a one-function edit is
/// byte-identical to a cold analysis on every corpus unit, and re-plans the
/// edited unit, every function of it, once.
#[test]
fn incremental_reanalysis_matches_cold_analysis_on_all_benchmarks() {
    for (name, source) in corpus() {
        let tool = Ompdart::new();
        tool.analyze(&name, &source).unwrap();

        let (edited, edited_func) = one_function_edit(&name, &source)
            .unwrap_or_else(|| panic!("{name}: no editable function"));
        let before = tool.session().cache_stats();
        let incremental = tool.analyze(&name, &edited).unwrap();
        let after = tool.session().cache_stats();

        let fresh = Ompdart::new().analyze(&name, &edited).unwrap();
        assert_eq!(
            fresh.rewrite.source, incremental.rewrite.source,
            "{name}: incremental rewrite diverges from cold analysis"
        );
        assert_eq!(fresh.plans.stats, incremental.plans.stats, "{name}");
        assert_eq!(
            fresh.plans.plans, incremental.plans.plans,
            "{name}: incremental plans must equal freshly computed plans"
        );

        let functions = fresh.unit().body().parsed.unit.functions().count() as u64;
        let moved = after - before;
        assert_eq!(
            (moved.analysis_misses, moved.function_plan_misses),
            (1, functions),
            "{name}: editing `{edited_func}` plans its unit whole, once"
        );
    }
}

/// A *growing* edit displaces every function behind the edited one in node
/// ids and byte offsets: the re-planned unit must still land the directives
/// at the right places.
#[test]
fn incremental_reanalysis_survives_offset_and_node_id_shifts() {
    let demo = incremental_demo();
    let tool = Ompdart::new();
    tool.analyze("demo.c", demo).unwrap();

    // Grow the *first* function body with real statements (not just a
    // comment): node ids and byte offsets of all later functions shift.
    let edited = demo.replacen(
        "grid[i] = 0.001 * i;",
        "grid[i] = 0.001 * i;\n    grid[i] = grid[i] + 0.0;",
        1,
    );
    assert_ne!(edited, demo);
    let incremental = tool.analyze("demo.c", &edited).unwrap();
    let cold = Ompdart::new().analyze("demo.c", &edited).unwrap();
    assert_eq!(cold.rewrite.source, incremental.rewrite.source);
    assert_eq!(cold.plans.plans, incremental.plans.plans);
    let stats = tool.session().cache_stats();
    let functions = cold.unit().body().parsed.unit.functions().count() as u64;
    assert_eq!(
        (stats.analysis_misses, stats.function_plan_misses),
        (2, 2 * functions),
        "the original and the edit, each planned whole: {stats:?}"
    );
}

/// Acceptance golden: a second process (here: a second session) started
/// with the same `cache_dir` reproduces all corpus rewrites byte-identically
/// from the persistent store without re-planning anything.
#[test]
fn persistent_store_reproduces_corpus_across_restart() {
    let dir = std::env::temp_dir().join(format!("ompdart-store-corpus-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let corpus = corpus();

    let first = Ompdart::builder().cache_dir(&dir).build();
    let mut cold_rewrites = Vec::new();
    for (name, source) in &corpus {
        let analysis = first.analyze(name, source).unwrap();
        cold_rewrites.push(analysis.rewritten_source().to_string());
    }
    let stats = first.session().cache_stats();
    assert_eq!(stats.store_hits, 0);
    assert_eq!(stats.store_misses, corpus.len() as u64);
    assert_eq!(
        first.session().artifact_store().unwrap().entry_count(),
        corpus.len()
    );

    // "Process restart": a brand-new tool over the same directory.
    let second = Ompdart::builder().cache_dir(&dir).build();
    for ((name, source), cold) in corpus.iter().zip(&cold_rewrites) {
        let analysis = second.analyze(name, source).unwrap();
        assert_eq!(
            analysis.rewritten_source(),
            cold,
            "{name}: store-served rewrite diverges"
        );
    }
    let stats = second.session().cache_stats();
    assert_eq!(stats.store_hits, corpus.len() as u64, "{stats:?}");
    assert_eq!(stats.store_misses, 0);
    assert_eq!(
        stats.function_plan_misses, 0,
        "a warm start must not re-plan any function: {stats:?}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A unit is planned whole: on every corpus unit a one-function edit in a
/// live session parses the unit again and re-plans it — one analysis, every
/// function of it, none served from a finer cache — and the result is
/// byte-identical to a fresh session's, rewrite and plan JSON.
#[test]
fn one_function_edit_replans_one_function_on_all_benchmarks() {
    for (name, source) in corpus() {
        let tool = Ompdart::new();
        tool.analyze(&name, &source).unwrap();

        let (edited, edited_func) = one_function_edit(&name, &source)
            .unwrap_or_else(|| panic!("{name}: no editable function"));
        let before = tool.session().cache_stats();
        let incremental = tool.analyze(&name, &edited).unwrap();
        let moved = tool.session().cache_stats() - before;

        let functions = incremental.unit().body().parsed.unit.functions().count() as u64;
        assert_eq!(moved.parse_misses, 1, "{name}");
        assert_eq!(
            (moved.analysis_misses, moved.function_plan_misses),
            (1, functions),
            "{name}: editing `{edited_func}` re-plans its unit"
        );

        let fresh = Ompdart::new().analyze(&name, &edited).unwrap();
        assert_eq!(incremental.rewrite.source, fresh.rewrite.source, "{name}");
        assert_eq!(incremental.plans_json(), fresh.plans_json(), "{name}");
    }
}

/// The store key is the *content*, not the `(name, source)` pair: a
/// renamed file (same bytes, new name) starts warm from the entry its old
/// name wrote, rewriting byte-identically without planning a single
/// function — and its parse-side artifacts (diagnostics, source handle)
/// carry the *new* name, because they are rebuilt from the fresh parse
/// rather than persisted.
#[test]
fn renamed_file_starts_warm_from_the_content_addressed_store() {
    let dir = std::env::temp_dir().join(format!("ompdart-store-rename-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let demo = incremental_demo();

    let first = Ompdart::builder().cache_dir(&dir).build();
    let cold = first.analyze("original_name.c", demo).unwrap();

    // "Rename": a fresh process analyzes the same bytes under a new name.
    let second = Ompdart::builder().cache_dir(&dir).build();
    let warm = second.analyze("renamed_copy.c", demo).unwrap();
    let stats = second.session().cache_stats();
    assert_eq!(
        stats.store_hits, 1,
        "the rename must hit the store: {stats:?}"
    );
    assert_eq!(stats.function_plan_misses, 0, "{stats:?}");
    assert_eq!(warm.rewritten_source(), cold.rewritten_source());
    assert_eq!(warm.plans(), cold.plans());
    assert_eq!(warm.source_file().name(), "renamed_copy.c");

    // The first edit under the *new* name re-plans that unit, once.
    let (edited, _) = one_function_edit("renamed_copy.c", demo).unwrap();
    let incremental = second.analyze("renamed_copy.c", &edited).unwrap();
    let moved = second.session().cache_stats() - stats;
    let functions = warm.unit().body().parsed.unit.functions().count() as u64;
    assert_eq!(
        (moved.analysis_misses, moved.function_plan_misses),
        (1, functions),
        "the renamed file's first edit re-plans its unit: {moved:?}"
    );
    let fresh = Ompdart::new().analyze("renamed_copy.c", &edited).unwrap();
    assert_eq!(incremental.rewritten_source(), fresh.rewritten_source());
    let _ = std::fs::remove_dir_all(&dir);
}

/// The persistent store and the in-memory caches compose: within one
/// session the unit-analysis cache wins, across sessions the store wins —
/// a store-served analysis still carries every staged artifact and is
/// byte-equal to the cold one — and an edit misses both and plans its unit
/// whole.
#[test]
fn store_analysis_cache_and_function_cache_compose() {
    let dir = std::env::temp_dir().join(format!("ompdart-store-compose-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let demo = incremental_demo();

    let warmup = Ompdart::builder().cache_dir(&dir).build();
    let cold = warmup.analyze("demo.c", demo).unwrap();

    let tool = Ompdart::builder().cache_dir(&dir).build();
    let session = tool.session();
    let served = tool.analyze("demo.c", demo).unwrap();
    let stats = session.cache_stats();
    assert_eq!(stats.store_hits, 1);
    assert_eq!(stats.function_plan_misses, 0, "a store hit plans nothing");
    // The store replaces parsing and planning; the body `unit().body()`
    // builds on demand is the unit's own, and the output is byte-equal to
    // the cold analysis.
    let body = served.unit().body();
    let functions = body.parsed.unit.functions().count();
    assert_eq!(body.accesses.accesses.len(), functions);
    assert_eq!(body.summaries.seeds.len(), functions);
    assert_eq!(served.rewrite.source, cold.rewrite.source);
    assert_eq!(served.plans_json(), cold.plans_json());
    // Same content again: the in-memory cache answers, not the store.
    let again = tool.analyze("demo.c", demo).unwrap();
    assert!(Arc::ptr_eq(&served, &again));
    let stats = session.cache_stats();
    assert_eq!(stats.fast_path_hits, 1);
    assert_eq!(stats.analysis_misses, 1);
    assert_eq!(stats.store_hits, 1, "the store must not be consulted twice");
    assert_eq!(stats.store_misses, 0);

    // An edit misses both the unit table and the store: the first edit
    // after a warm start plans its unit, every function of it, and so does
    // the next one.
    let functions = functions as u64;
    let (edited, _) = one_function_edit("demo.c", demo).unwrap();
    tool.analyze("demo.c", &edited).unwrap();
    let stats = session.cache_stats();
    assert_eq!(stats.store_misses, 1);
    assert_eq!(
        (stats.analysis_misses, stats.function_plan_misses),
        (2, functions),
        "the warm-started first edit plans its unit: {stats:?}"
    );
    let edited2 = edited.replacen("0.001 * i", "0.001 * i + 0.0", 1);
    assert_ne!(edited2, edited);
    let before = session.cache_stats();
    let second = tool.analyze("demo.c", &edited2).unwrap();
    let moved = session.cache_stats() - before;
    assert_eq!(
        (moved.analysis_misses, moved.function_plan_misses),
        (1, functions),
        "{moved:?}"
    );
    let fresh = Ompdart::new().analyze("demo.c", &edited2).unwrap();
    assert_eq!(second.rewrite.source, fresh.rewrite.source);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A restart serves a unit from the store without parsing it — interface,
/// plans and rewrite are all on disk, and `explain` reads the unit's own
/// source file — and everything that does need the body builds it on first
/// use and then answers exactly as the analysis of a parsed unit does.
#[test]
fn a_store_served_analysis_builds_its_body_on_demand() {
    let dir = std::env::temp_dir().join(format!("ompdart-store-body-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let demo = incremental_demo();
    let cold = Ompdart::builder().cache_dir(&dir).build();
    let parsed = cold.analyze("demo.c", demo).unwrap();
    let stats = cold.session().cache_stats();
    assert_eq!(
        (
            stats.parse_misses,
            stats.interface_store_misses,
            stats.store_misses
        ),
        (1, 1, 1),
        "{stats}"
    );

    let tool = Ompdart::builder().cache_dir(&dir).build();
    let unit = [("demo.c".to_string(), demo.to_string())];
    let round = tool.analyze_program(&unit).unwrap();
    assert_eq!(round.served, [UnitServe::Store]);
    let served = &round.units[0];
    let stats = tool.session().cache_stats();
    assert_eq!(
        (
            stats.parse_misses,
            stats.interface_store_hits,
            stats.store_hits
        ),
        (0, 1, 1),
        "{stats}"
    );
    let built = || served.unit().body_if_built().is_some();

    // What every consumer reads is there without the body.
    assert_eq!(served.rewritten_source(), parsed.rewritten_source());
    assert_eq!(served.plans(), parsed.plans());
    assert_eq!(served.plans_json(), parsed.plans_json());
    assert_eq!(served.stats(), parsed.stats());
    assert_eq!(served.unit().source(), demo);
    assert!(served.diagnostics().is_empty());
    assert_eq!(served.timings().of(Stage::Parse), Duration::ZERO);
    assert_eq!(served.unit().exports(), parsed.unit().exports());
    assert!(!built(), "nothing above reads the body");

    // `explain` resolves spans in the unit's own source file.
    assert_eq!(served.explain(), parsed.explain());
    assert!(!built(), "`explain` reads no body");
    // The body is built on first use, once.
    let body = Arc::clone(&served.unit().body().parsed);
    assert!(built());
    assert!(Arc::ptr_eq(&body, &served.unit().body().parsed));
    assert!(served.timings().of(Stage::Parse) > Duration::ZERO);
    let stages = |timings: ompdart_core::StageTimings| {
        Stage::ALL.map(|stage| (stage, timings.of(stage) > Duration::ZERO))
    };
    // Plan time is the one stage a store-served analysis did not spend.
    let mut expected = stages(parsed.timings());
    expected[Stage::Plan as usize].1 = false;
    assert_eq!(stages(served.timings()), expected);
    let functions = parsed.unit().body().parsed.unit.functions().count();
    let body = served.unit().body();
    assert_eq!(body.parsed.unit.functions().count(), functions);
    assert_eq!(body.accesses.accesses.len(), functions);
    assert_eq!(body.summaries.seeds.len(), functions);
    assert_eq!(served.source_file().name(), "demo.c");
    assert_eq!(served.source_file().text(), demo);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A unit whose parse produced a warning has no interface record: every
/// restart parses it again, so the warning is there — and printed by the
/// CLI — every time, while its plans still come from the store.
#[test]
fn a_unit_with_a_parse_warning_is_parsed_on_every_restart() {
    let dir = std::env::temp_dir().join(format!("ompdart-store-warning-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let source = "\
#define N 32
double a[N];
int main() {
  #pragma omp frobnicate
  for (int it = 0; it < 4; it++) {
    #pragma omp target teams distribute parallel for
    for (int i = 0; i < N; i++) a[i] += 1.0;
  }
  printf(\"%f\\n\", a[0]);
  return 0;
}
";
    let warning = "unknown OpenMP directive `frobnicate` treated opaquely";
    let cache = dir.join("cache");
    for run in 0..3 {
        let tool = Ompdart::builder().cache_dir(&cache).build();
        let unit = [("warn.c".to_string(), source.to_string())];
        let round = tool.analyze_program(&unit).unwrap();
        let (analysis, serve) = (&round.units[0], round.served[0]);
        let diagnostics = analysis.diagnostics();
        assert!(
            diagnostics.iter().any(|d| d.message.contains(warning)),
            "run {run}: {diagnostics:?}"
        );
        let stats = tool.session().cache_stats();
        assert_eq!(
            (stats.parse_misses, stats.interface_store_hits),
            (1, 0),
            "run {run}: {stats}"
        );
        assert_eq!(serve == UnitServe::Store, run > 0, "run {run}: {serve:?}");
    }

    // The same through the binary, one process per run.
    let input = dir.join("warn.c");
    std::fs::write(&input, source).unwrap();
    let mut outputs = Vec::new();
    for run in 0..3 {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_ompdart"))
            .arg("analyze")
            .arg(&input)
            .arg("-o")
            .arg(dir.join("warn.mapped.c"))
            .arg("--cache-dir")
            .arg(dir.join("cli-cache"))
            .output()
            .expect("the ompdart binary runs");
        assert!(out.status.success(), "run {run}: {out:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(warning), "run {run} printed:\n{stderr}");
        outputs.push(std::fs::read_to_string(dir.join("warn.mapped.c")).unwrap());
    }
    assert!(outputs.iter().all(|output| *output == outputs[0]));
    let _ = std::fs::remove_dir_all(&dir);
}
