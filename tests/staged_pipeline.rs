//! Integration tests for the staged pipeline (the free `stage_*` functions),
//! `AnalysisSession` and `Ompdart::analyze_batch`: stage-by-stage artifacts
//! must compose to exactly the facade result, the artifact cache must serve
//! repeated analyses without re-running any stage, the batch path must
//! analyze several translation units concurrently with deterministic,
//! order-preserving results, and the serialized Mapping IR must round-trip
//! into a byte-identical rewrite.

use ompdart_core::pipeline::{
    stage_accesses, stage_graphs, stage_parse, stage_plans, stage_rewrite, stage_summaries, Stage,
};
use ompdart_core::plan::plans_from_json;
use ompdart_core::{apply_plans, AnalysisSession, OmpDartOptions, Ompdart, StageError};
use ompdart_sim::{simulate_source, SimConfig};
use std::sync::Arc;
use std::time::Duration;

/// Golden test: running the six stages by hand produces byte-identical
/// output and identical plans/statistics to the `Ompdart` facade on every
/// bundled benchmark.
#[test]
fn staged_artifacts_compose_to_the_facade_analysis() {
    let options = OmpDartOptions::default();
    for bench in ompdart_suite::all_benchmarks() {
        let parsed = stage_parse(&bench.unoptimized_file(), bench.unoptimized).unwrap();
        let graphs = stage_graphs(&parsed.unit);
        let accesses = stage_accesses(&parsed.unit, &graphs);
        let summaries = stage_summaries(&parsed.unit, &accesses, &options);
        let plans = stage_plans(&parsed.unit, &graphs, &accesses, &summaries, &options, 2);
        let rewritten = stage_rewrite(&parsed, &graphs, &plans);

        let facade = Ompdart::builder()
            .build()
            .analyze(&bench.unoptimized_file(), bench.unoptimized)
            .unwrap();
        assert_eq!(
            facade.rewritten_source(),
            rewritten.source,
            "{}: staged rewrite diverges from the facade analysis",
            bench.name
        );
        assert_eq!(facade.stats(), plans.stats, "{}", bench.name);
        assert_eq!(facade.plans(), &plans.plans[..], "{}", bench.name);
    }
}

/// Acceptance golden: serializing every benchmark's plans to JSON,
/// deserializing them, and re-running only the rewrite stage yields the
/// one-shot rewrite byte for byte. Node ids survive the round-trip because
/// parsing is deterministic.
#[test]
fn plan_json_round_trip_rewrites_byte_identically() {
    for bench in ompdart_suite::all_benchmarks() {
        let tool = Ompdart::builder().build();
        let analysis = tool
            .analyze(&bench.unoptimized_file(), bench.unoptimized)
            .unwrap();

        let json = analysis.plans_json();
        let plans = plans_from_json(&json)
            .unwrap_or_else(|e| panic!("{}: plan JSON failed to parse: {e}", bench.name));
        assert_eq!(&plans[..], analysis.plans(), "{}", bench.name);

        // Rebuild the rewrite from the deserialized plans alone plus a
        // *fresh* parse of the same source: node ids in the JSON must line
        // up with a new AST because parsing is deterministic.
        let parsed = stage_parse(&bench.unoptimized_file(), bench.unoptimized).unwrap();
        let graphs = stage_graphs(&parsed.unit);
        let rewritten = apply_plans(&parsed.file, &parsed.unit, &graphs.graphs, &plans);
        assert_eq!(
            rewritten,
            analysis.rewritten_source(),
            "{}: rewrite from deserialized plans diverges",
            bench.name
        );
    }
}

/// The cache returns identical plans for identical source content and skips
/// every stage: counters prove the second run did not re-parse, and the hit
/// is the first run's analysis itself, stage timings included.
#[test]
fn artifact_cache_returns_identical_plans_without_reparsing() {
    let bench = ompdart_suite::by_name("backprop").unwrap();
    let session = AnalysisSession::new();

    let first = session
        .analyze(&bench.unoptimized_file(), bench.unoptimized)
        .unwrap();
    let stats = session.cache_stats();
    assert_eq!(stats.analysis_misses, 1);
    assert_eq!(stats.analysis_hits, 0);
    assert_eq!(stats.parse_misses, 1);
    assert!(first.timings().total() > Duration::ZERO);

    let second = session
        .analyze(&bench.unoptimized_file(), bench.unoptimized)
        .unwrap();
    let stats = session.cache_stats();
    assert_eq!(
        stats.analysis_hits, 1,
        "identical content must hit the cache"
    );
    assert_eq!(stats.analysis_misses, 1, "a hit must not plan again");
    assert_eq!(stats.parse_misses, 1, "the cache hit must skip re-parsing");
    assert!(Arc::ptr_eq(&first, &second));
    assert_eq!(first.plans.plans.len(), second.plans.plans.len());
    assert_eq!(first.rewrite.source, second.rewrite.source);

    // Different content (same name) misses the cache.
    let other = ompdart_suite::by_name("nw").unwrap();
    session
        .analyze(&bench.unoptimized_file(), other.unoptimized)
        .unwrap();
    assert_eq!(session.cache_stats().analysis_misses, 2);
}

/// `analyze_batch`: at least two translation units analyzed concurrently,
/// with order-preserving results that match one-at-a-time analysis and
/// still simulate correctly.
#[test]
fn batch_driver_matches_sequential_analyses() {
    let inputs: Vec<(String, String)> = ompdart_suite::all_benchmarks()
        .iter()
        .take(4)
        .map(|b| (b.unoptimized_file(), b.unoptimized.to_string()))
        .collect();
    assert!(inputs.len() >= 2);

    let batch = Ompdart::builder()
        .parallelism(4)
        .build()
        .analyze_batch(&inputs);
    assert_eq!(batch.len(), inputs.len());

    for ((name, source), result) in inputs.iter().zip(&batch) {
        let analysis = result.as_ref().expect("batch unit failed");
        assert_eq!(analysis.unit().name(), name);
        let sequential = Ompdart::builder().build().analyze(name, source).unwrap();
        assert_eq!(
            sequential.rewritten_source(),
            analysis.rewritten_source(),
            "{name}: batch result diverges from sequential analysis"
        );
        // The batch-produced mapping must still preserve program semantics.
        let before = simulate_source(source, SimConfig::default()).unwrap();
        let after = simulate_source(analysis.rewritten_source(), SimConfig::default()).unwrap();
        assert_eq!(before.output, after.output, "{name}");
    }
}

/// Regression: `analyze_batch` must keep results in input order even when
/// worker threads finish out of order. Twelve units of very different
/// sizes over few threads maximize reordering pressure.
#[test]
fn batch_results_preserve_input_order_with_many_units() {
    let mut inputs: Vec<(String, String)> = Vec::new();
    for i in 0..12 {
        // Alternate tiny units with large bundled benchmarks so completion
        // order differs wildly from submission order.
        if i % 2 == 0 {
            let bench = ompdart_suite::all_benchmarks()[i % 9].clone();
            inputs.push((format!("unit{i}.c"), bench.unoptimized.to_string()));
        } else {
            inputs.push((
                format!("unit{i}.c"),
                format!(
                    "#define N 8\ndouble t{i}[N];\nvoid f{i}() {{\n  #pragma omp target teams distribute parallel for\n  for (int j = 0; j < N; j++) t{i}[j] = {i};\n}}\n"
                ),
            ));
        }
    }
    assert!(inputs.len() > 8);

    let results = Ompdart::builder()
        .parallelism(3)
        .build()
        .analyze_batch(&inputs);
    assert_eq!(results.len(), inputs.len());
    for (i, ((name, source), result)) in inputs.iter().zip(&results).enumerate() {
        let result = result.as_ref().unwrap_or_else(|e| panic!("{name}: {e}"));
        // Slot i must hold the analysis of input i: the tiny odd units
        // mention their own function name, the big even units match the
        // sequential analysis of the same source.
        let expected = Ompdart::builder().build().analyze(name, source).unwrap();
        assert_eq!(
            result.rewritten_source(),
            expected.rewritten_source(),
            "slot {i} holds the wrong unit's result"
        );
        if i % 2 == 1 {
            assert!(
                result.rewritten_source().contains(&format!("f{i}")),
                "slot {i} lost its unit"
            );
        }
    }
}

/// Stage errors are typed and carry the failing stage.
#[test]
fn stage_errors_are_typed_and_carry_their_stage() {
    let session = AnalysisSession::new();
    let err = session
        .analyze("broken.c", "int main( { return 0; }\n")
        .unwrap_err();
    assert_eq!(err.stage(), Stage::Parse);
    assert!(matches!(err, StageError::Parse { .. }));

    // Already-mapped input breaks the input contract.
    let mapped = ompdart_suite::by_name("ace").unwrap().expert;
    let err = session.analyze("ace_expert.c", mapped).unwrap_err();
    assert_eq!(err.stage(), Stage::Parse);
    assert!(matches!(err, StageError::AlreadyMapped { .. }));
}

/// The precondition of the analysis's dense per-node tables: within one
/// parse, a function's statement ids occupy one contiguous range, numbered
/// before the function's own id, that no other function's ids enter — on
/// every port and on a generated corpus. The statement index answers `None`,
/// and does not panic, for an expression's id and for any id outside the
/// function.
#[test]
fn a_functions_statement_ids_are_one_range_of_its_own() {
    let ports = ompdart_suite::all_benchmarks().into_iter();
    let ports = ports.map(|b| (b.unoptimized_file(), b.unoptimized.to_string()));
    let linked = ompdart_suite::benchmarks::lulesh_multifile().into_iter();
    let linked = linked.map(|(name, src)| (name.to_string(), src.to_string()));
    let units: Vec<(String, String)> = ports
        .chain(linked)
        .chain(ompdart_suite::corpus::generate(50, 7))
        .collect();
    let mut functions = 0;
    for (name, source) in &units {
        let parsed = stage_parse(name, source).unwrap();
        let graphs = stage_graphs(&parsed.unit);
        // Per function: its id, its statement ids and its expression ids.
        let mut ids = Vec::new();
        for func in parsed.unit.functions() {
            let (mut stmts, mut exprs) = (Vec::new(), Vec::new());
            func.body.as_ref().unwrap().walk(&mut |s| {
                stmts.push(s.id);
                for e in s.direct_exprs() {
                    e.walk(&mut |e| exprs.push(e.id));
                }
            });
            ids.push((func, stmts, exprs));
        }
        for (func, stmts, exprs) in &ids {
            let (lo, hi) = (stmts.iter().min().unwrap(), stmts.iter().max().unwrap());
            assert_eq!(*hi, func.body.as_ref().unwrap().id, "{name}: {}", func.name);
            assert!(
                hi.0 < func.id.0,
                "{name}: `{}` is numbered before its body",
                func.name
            );
            let index = &graphs.graphs.function(func.name).unwrap().index;
            assert_eq!(index.len(), stmts.len(), "{name}: {}", func.name);
            for (other, their_stmts, _) in ids.iter().filter(|(f, ..)| f.id != func.id) {
                for id in their_stmts.iter().chain([&other.id]) {
                    assert!(
                        id < lo || id > hi,
                        "{name}: {} inside {}",
                        other.name,
                        func.name
                    );
                    assert!(index.info(*id).is_none(), "{name}: {id:?}");
                }
            }
            for id in exprs.iter().chain([&func.id]) {
                assert!(index.info(*id).is_none(), "{name}: {}: {id:?}", func.name);
            }
            functions += 1;
        }
    }
    assert!(functions > 60, "{functions}");
}
