//! Cold vs. warm vs. incremental analysis wall-clock across the corpus:
//! the nine paper benchmarks plus the multi-function incremental demo.
//!
//! * **cold** — a fresh `AnalysisSession` runs every stage;
//! * **warm** — the same session re-analyzes identical content (unit-cache
//!   hit, every stage skipped);
//! * **incremental** — the session re-analyzes after a one-function edit:
//!   parse/graphs/accesses/summaries re-run, but planning is served from
//!   the function-granular cache for every function the edit left alone.
//!
//! The run also asserts `function_plan_hits > 0` over the one-function
//! edits and prints a greppable summary line, which is what the CI quick
//! mode checks.

use criterion::{criterion_group, criterion_main, Criterion};
use ompdart_bench::corpus;
use ompdart_core::AnalysisSession;
use ompdart_suite::{incremental_demo, one_function_edit};
use std::hint::black_box;
use std::time::Instant;

fn full_corpus() -> Vec<(String, String)> {
    let mut inputs = corpus();
    inputs.push(("incremental_demo.c".into(), incremental_demo().to_string()));
    inputs
}

fn bench(c: &mut Criterion) {
    let inputs = full_corpus();

    // One measured pass per unit: cold, warm, then a one-function edit.
    eprintln!(
        "{:<24} {:>10} {:>10} {:>10}  plans reused/replanned",
        "unit", "cold(ms)", "warm(ms)", "incr(ms)"
    );
    let mut total_hits = 0u64;
    let mut total_misses = 0u64;
    for (name, src) in &inputs {
        let session = AnalysisSession::new();
        let t = Instant::now();
        session.analyze(name, src).unwrap();
        let cold = t.elapsed();
        let t = Instant::now();
        session.analyze(name, src).unwrap();
        let warm = t.elapsed();
        let (edited, _func) = one_function_edit(name, src).expect("corpus unit must be editable");
        let before = session.cache_stats();
        let t = Instant::now();
        session.analyze(name, &edited).unwrap();
        let incr = t.elapsed();
        let moved = session.cache_stats() - before;
        let (hits, misses) = (moved.function_plan_hits, moved.function_plan_misses);
        total_hits += hits;
        total_misses += misses;
        eprintln!(
            "{name:<24} {:>10.3} {:>10.3} {:>10.3}  {hits}/{misses}",
            cold.as_secs_f64() * 1e3,
            warm.as_secs_f64() * 1e3,
            incr.as_secs_f64() * 1e3
        );
    }
    eprintln!(
        "incremental: function_plan_hits={total_hits} function_plan_misses={total_misses} \
         across one-function edits"
    );
    assert!(
        total_hits > 0,
        "a one-function edit in the multi-function corpus must reuse the unchanged functions' plans"
    );

    // Criterion timings over the same three shapes.
    c.bench_function("incremental/cold_corpus", |b| {
        b.iter(|| {
            let session = AnalysisSession::new();
            for (name, src) in &inputs {
                black_box(session.analyze(name, src).unwrap());
            }
        })
    });

    let warm = AnalysisSession::new();
    for (name, src) in &inputs {
        warm.analyze(name, src).unwrap();
    }
    c.bench_function("incremental/warm_corpus", |b| {
        b.iter(|| {
            for (name, src) in &inputs {
                black_box(warm.analyze(name, src).unwrap());
            }
        })
    });

    // Incremental: a *unique* edit every iteration, so neither the unit
    // cache nor the edited function's plan entry can serve it — only the
    // unchanged functions hit.
    let demo = incremental_demo();
    let session = AnalysisSession::new();
    session.analyze("incremental_demo.c", demo).unwrap();
    let mut round = 0u64;
    c.bench_function("incremental/one_function_edit_demo", |b| {
        b.iter(|| {
            round += 1;
            let edited = demo.replacen(
                "grid[i] = 0.001 * i;",
                &format!("grid[i] = 0.001 * i + {round}.0 - {round}.0;"),
                1,
            );
            assert_ne!(edited, demo);
            black_box(session.analyze("incremental_demo.c", &edited).unwrap())
        })
    });
    let stats = session.cache_stats();
    eprintln!(
        "incremental demo loop: {} reused / {} replanned over {} edits",
        stats.function_plan_hits, stats.function_plan_misses, round
    );
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench
}
criterion_main!(benches);
