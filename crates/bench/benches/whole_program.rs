//! Whole-program link-stage wall clock on the multi-file lulesh port:
//!
//! * **cold link** — a fresh session runs summarize → link → plan for all
//!   three units;
//! * **relink (no edit)** — the same program again: every phase served
//!   from the session caches;
//! * **interface-preserving edit** — one unit's function body changes: the
//!   edited unit is summarized again and re-plans exactly one function,
//!   the other units are served from the linked cache;
//! * **closed-world baseline** — the same three units analyzed
//!   independently (`analyze_batch` semantics), for comparing the cost and
//!   the mapping quality (`unknown_callee_fallbacks`) of linking.
//!
//! Prints a greppable `whole_program:` summary line asserting zero
//! intra-program fallbacks, which the CI smoke job checks.

use criterion::{criterion_group, criterion_main, Criterion};
use ompdart_core::{AnalysisSession, ProgramDriver};
use ompdart_suite::lulesh_multifile;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

fn inputs() -> Vec<(String, String)> {
    lulesh_multifile()
        .into_iter()
        .map(|(n, s)| (n.to_string(), s.to_string()))
        .collect()
}

fn bench(c: &mut Criterion) {
    let units = inputs();

    // One measured pass: cold, relink, one-function edit.
    let session = Arc::new(AnalysisSession::new());
    let driver = ProgramDriver::with_session(Arc::clone(&session));
    let t = Instant::now();
    let cold = driver.analyze_program(&units).unwrap();
    let cold_ms = t.elapsed().as_secs_f64() * 1e3;
    let t = Instant::now();
    driver.analyze_program(&units).unwrap();
    let relink_ms = t.elapsed().as_secs_f64() * 1e3;
    let mut edited = units.clone();
    edited[1].1 = edited[1].1.replacen(
        "e[i] += (p[i] + q[i])",
        "/* bench */ e[i] += (p[i] + q[i])",
        1,
    );
    assert_ne!(edited[1].1, units[1].1);
    let before = session.cache_stats();
    let t = Instant::now();
    driver.analyze_program(&edited).unwrap();
    let edit_ms = t.elapsed().as_secs_f64() * 1e3;
    let edit = session.cache_stats() - before;

    // A *summary-changing* one-function edit in the driver unit: the
    // incremental relink must re-seed only main's call-graph cone (main
    // alone: nothing calls it).
    let mut edited2 = edited.clone();
    edited2[2].1 = edited2[2].1.replacen(
        "double esum = 0.0;",
        "double esum = 0.0;\n  work[0] = work[0];",
        1,
    );
    assert_ne!(edited2[2].1, edited[2].1);
    let before2 = session.cache_stats();
    let t = Instant::now();
    driver.analyze_program(&edited2).unwrap();
    let relink_edit_ms = t.elapsed().as_secs_f64() * 1e3;
    let edit2 = session.cache_stats() - before2;

    let closed = AnalysisSession::new();
    let mut closed_fallbacks = 0usize;
    for (name, src) in &units {
        closed_fallbacks += closed
            .analyze(name, src)
            .unwrap()
            .plans
            .stats
            .unknown_callee_fallbacks;
    }
    let linked_fallbacks = cold.stats().unknown_callee_fallbacks;
    eprintln!(
        "whole_program: cold={cold_ms:.3}ms relink={relink_ms:.3}ms one_edit={edit_ms:.3}ms \
         relink_edit={relink_edit_ms:.3}ms \
         edit_replanned={} linked_fallbacks={linked_fallbacks} closed_world_fallbacks={closed_fallbacks} \
         relink_reseeded={}",
        edit.function_plan_misses, edit2.relink_reseeded_functions,
    );
    assert_eq!(
        linked_fallbacks, 0,
        "the linked program must resolve every intra-program call"
    );
    assert!(
        closed_fallbacks > 0,
        "the closed-world baseline must show what linking removes"
    );
    assert_eq!(
        edit.function_plan_misses, 1,
        "an interface-preserving edit must re-plan exactly one function"
    );
    assert_eq!(
        edit2.relink_reseeded_functions, 1,
        "a one-function edit must re-seed exactly its call-graph cone"
    );

    c.bench_function("whole_program/cold_link_lulesh_mf", |b| {
        b.iter(|| {
            let driver = ProgramDriver::new();
            black_box(driver.analyze_program(&units).unwrap())
        })
    });

    let warm_session = Arc::new(AnalysisSession::new());
    let warm_driver = ProgramDriver::with_session(Arc::clone(&warm_session));
    warm_driver.analyze_program(&units).unwrap();
    c.bench_function("whole_program/relink_unchanged", |b| {
        b.iter(|| black_box(warm_driver.analyze_program(&units).unwrap()))
    });

    // A unique interface-preserving edit per iteration: the edited unit
    // re-plans one function, everything else is cache-served.
    let edit_session = Arc::new(AnalysisSession::new());
    let edit_driver = ProgramDriver::with_session(Arc::clone(&edit_session));
    edit_driver.analyze_program(&units).unwrap();
    let mut round = 0u64;
    c.bench_function("whole_program/one_function_edit", |b| {
        b.iter(|| {
            round += 1;
            let mut edited = units.clone();
            edited[1].1 = edited[1].1.replacen(
                "e[i] += (p[i] + q[i])",
                &format!("e[i] += (p[i] + q[i]) + {round}.0 - {round}.0"),
                1,
            );
            black_box(edit_driver.analyze_program(&edited).unwrap())
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench
}
criterion_main!(benches);
