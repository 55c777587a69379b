//! Per-stage performance of the OMPDart pipeline on its largest input
//! (lulesh), measured through the staged `AnalysisSession` API: parsing,
//! hybrid AST-CFG construction, access classification + interprocedural
//! summaries + planning, the cached full-pipeline path, batch throughput
//! over the whole corpus, and the offload simulation itself.

use criterion::{criterion_group, criterion_main, Criterion};
use ompdart_bench::corpus;
use ompdart_core::pipeline::{
    stage_accesses, stage_graphs, stage_parse, stage_plans, stage_summaries,
};
use ompdart_core::{AnalysisSession, OmpDartOptions, Ompdart};
use ompdart_sim::{simulate_source, SimConfig};
use std::hint::black_box;

fn bench(c: &mut Criterion) {
    let lulesh = ompdart_suite::by_name("lulesh").unwrap();
    let src = lulesh.unoptimized;
    let options = OmpDartOptions::default();

    c.bench_function("pipeline/parse_lulesh", |b| {
        b.iter(|| black_box(stage_parse("lulesh.c", black_box(src)).unwrap()))
    });

    let parsed = stage_parse("lulesh.c", src).unwrap();
    c.bench_function("pipeline/build_ast_cfg_lulesh", |b| {
        b.iter(|| black_box(stage_graphs(black_box(&parsed.unit))))
    });

    let graphs = stage_graphs(&parsed.unit);
    c.bench_function("pipeline/analyze_lulesh", |b| {
        b.iter(|| {
            let accesses = stage_accesses(&parsed.unit, &graphs);
            let summaries = stage_summaries(&parsed.unit, &accesses, &options);
            black_box(stage_plans(
                &parsed.unit,
                &graphs,
                &accesses,
                &summaries,
                &options,
                1,
            ))
        })
    });

    // The cached full-pipeline path: after the first run every stage is a
    // cache hit, so this measures the session's near-free re-analysis.
    let session = AnalysisSession::new();
    session.analyze("lulesh.c", src).unwrap();
    c.bench_function("pipeline/analyze_lulesh_cached", |b| {
        b.iter(|| black_box(session.analyze("lulesh.c", black_box(src)).unwrap()))
    });
    eprintln!(
        "pipeline stage timings (lulesh, first run): {}",
        session.timings()
    );

    // Batch throughput: all nine benchmark inputs through one fresh tool.
    let inputs = corpus();
    c.bench_function("pipeline/batch_analyze_corpus", |b| {
        b.iter(|| black_box(Ompdart::new().analyze_batch(black_box(&inputs))))
    });

    c.bench_function("pipeline/simulate_lulesh_unoptimized", |b| {
        b.iter(|| black_box(simulate_source(black_box(src), SimConfig::default()).unwrap()))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench
}
criterion_main!(benches);
