//! Allocation-count regression gates.
//!
//! Registers the counting allocator and asserts four ceilings. A cold
//! whole-program analysis stays under a *generous* allocations-per-unit
//! ceiling — an order-of-magnitude tripwire, not a precision benchmark: the
//! interned frontend plus pre-sized plan buffers land far below it; only a
//! wholesale return to per-token `String` churn should ever trip it.
//! Parsing the port units and planning the nine single-file ports each stay
//! within a budget tight enough that a per-token allocation in the frontend,
//! or a copy of the AST in the planner, cannot come back unnoticed. A
//! mid-chain relink allocates per re-converged function only the summary
//! it converged to.

use ompdart_bench::alloc_counter;
use ompdart_core::pipeline::{
    stage_accesses, stage_graphs, stage_parse, stage_plans, stage_summaries,
};
use ompdart_core::{
    release_bodies, AnalysisSession, LinkState, OmpDartOptions, Program, ProgramDriver,
    SummarizedUnit,
};
use ompdart_suite::corpus;
use std::sync::{Arc, Mutex};

#[global_allocator]
static ALLOC: alloc_counter::CountingAllocator = alloc_counter::CountingAllocator;

/// The counters are process-wide: one measurement at a time.
static MEASURING: Mutex<()> = Mutex::new(());

/// `stage_plans` over the nine single-file ports, one thread. The planner
/// reads the AST it is handed and per-node tables; it allocated 6 121 times
/// here while it still cloned every loop subtree and walked `main` once per
/// mapped global.
const MAX_PLAN_ALLOCS_NINE_PORTS: u64 = 2500;

/// Generous fixed ceiling: the measured figure on the 100-unit corpus is
/// a few hundred allocations per unit; pre-interning it was several
/// thousand. Trip only on order-of-magnitude regressions.
const MAX_ALLOCS_PER_UNIT_COLD: f64 = 4000.0;

/// `stage_parse` over the twelve port units (the nine single-file ports and
/// `lulesh_mf`'s three), averaged per unit, on a thread that has parsed them
/// once: 299 allocator calls, 10 of them reallocations, nine in ten of the
/// rest the AST's. The lexer writes one token buffer per unit and the
/// preprocessor filters it in place; with tokens that owned their strings,
/// directive and clause text lexed again and a token vector per pragma
/// clause and per `#if`, it was 352, 17 of them reallocations.
const MAX_PARSE_ALLOCS_PER_UNIT: f64 = 330.0;

/// Allocator calls per function a mid-chain relink re-seeds. A function
/// whose summary moves costs a copy of its summary (the node of its global
/// effects) and the `Arc` it is stored behind; the walk, the cone's
/// condensation and the refresh of what observes the moved summaries cost a
/// fixed handful of vectors for the whole round. Over `Symbol`-keyed maps,
/// with a hash map and a result vector per component and a vector per
/// wavefront, the same relink allocated 4 064 times for its 501 functions,
/// about 8 per function, and failed this gate; it now allocates about 2
/// per function.
const MAX_RELINK_ALLOCS_PER_RESEEDED: f64 = 3.0;

/// Live bytes per unit that a session over the 200-unit corpus holds once
/// it has answered and released its units' bodies: each unit's source,
/// interface and content key, its analysis (plans, rewrite) and the
/// driver's link state — what a store hit holds. It holds 4.4 KB per unit
/// released, 17.2 KB with every body resident.
const MAX_RELEASED_BYTES_PER_UNIT: f64 = 8.0 * 1024.0;

#[test]
fn a_released_session_holds_what_the_store_keeps() {
    let _one_at_a_time = MEASURING.lock().unwrap_or_else(|e| e.into_inner());
    let n = 200;
    let inputs = corpus::generate(n, 42);
    // The process-wide pool starts outside the window.
    ProgramDriver::new()
        .analyze_program(&corpus::generate(4, 7))
        .expect("a small corpus analyzes");
    let before = alloc_counter::snapshot();
    let driver = ProgramDriver::new();
    let cold = driver.analyze_program(&inputs).expect("cold analysis");
    let resident = alloc_counter::snapshot().since(&before).live;
    assert_eq!(release_bodies(&cold.units), n);
    drop(cold);
    let held = alloc_counter::snapshot().since(&before).live;
    // An unchanged round rides the fast path: nothing built, nothing to
    // release.
    let warm = driver.analyze_program(&inputs).expect("warm analysis");
    assert_eq!(release_bodies(&warm.units), 0);
    let kb_per_unit = |bytes: i64| bytes as f64 / n as f64 / 1024.0;
    eprintln!(
        "alloc_gate: a session over {n} corpus units holds {:.1} KB per unit, {:.1} KB once \
         its bodies are released",
        kb_per_unit(resident),
        kb_per_unit(held)
    );
    assert!(
        held as f64 / n as f64 <= MAX_RELEASED_BYTES_PER_UNIT,
        "a released session holds {:.1} KB per unit (budget {:.0} KB)",
        kb_per_unit(held),
        MAX_RELEASED_BYTES_PER_UNIT / 1024.0
    );
}

#[test]
fn a_mid_chain_relink_stays_within_its_allocation_budget() {
    let _one_at_a_time = MEASURING.lock().unwrap_or_else(|e| e.into_inner());
    let options = OmpDartOptions::default();
    let session = AnalysisSession::with_options(options);
    let threads = session.parallelism();
    // Interfaces are memoised on first use: summarize and export up front,
    // as the driver's summarize phase does.
    let summarize = |inputs: &[(String, String)]| -> Vec<Arc<SummarizedUnit>> {
        let unit = |(name, source): &(String, String)| {
            let unit = session
                .summarize(name, source)
                .expect("a corpus unit summarizes");
            unit.exports();
            unit
        };
        inputs.iter().map(unit).collect()
    };
    let base = corpus::generate(1000, 42);
    let mut edited = base.clone();
    corpus::edit_one_function(&mut edited, 500);
    let (base, edited) = (summarize(&base), summarize(&edited));

    let before = alloc_counter::snapshot();
    let cold = Program::link(base.clone(), &options).expect("the corpus links");
    let cold_spent = alloc_counter::snapshot().since(&before);
    drop(cold);

    let mut state = LinkState::default();
    for units in [&base, &edited, &base] {
        Program::relink(units.clone(), &options, threads, &mut state).expect("the corpus links");
    }
    let units = edited.clone();
    let before = alloc_counter::snapshot();
    let relinked = Program::relink(units, &options, threads, &mut state);
    let spent = alloc_counter::snapshot().since(&before);
    relinked.expect("the corpus links");
    let reseeded = state.reseeded();
    assert!(reseeded >= 500, "the cone of stage_500 re-seeds {reseeded}");
    let per_function = spent.allocations as f64 / reseeded as f64;
    eprintln!(
        "alloc_gate: a mid-chain relink re-seeded {reseeded} functions with {} allocator \
         calls ({per_function:.2} per function, {} KB); a cold Program::link of the \
         corpus: {} calls, {} KB",
        spent.allocations,
        spent.bytes / 1024,
        cold_spent.allocations,
        cold_spent.bytes / 1024
    );
    assert!(
        per_function <= MAX_RELINK_ALLOCS_PER_RESEEDED,
        "a mid-chain relink allocated {per_function:.2} times per re-seeded function \
         (budget {MAX_RELINK_ALLOCS_PER_RESEEDED})"
    );
}

#[test]
fn parsing_the_port_units_stays_within_its_allocation_budget() {
    let _one_at_a_time = MEASURING.lock().unwrap_or_else(|e| e.into_inner());
    let units: Vec<(String, String)> = (ompdart_suite::experiment::ports().into_iter())
        .flat_map(|port| port.units)
        .collect();
    assert_eq!(units.len(), 12);
    let parse_all = || {
        for (name, source) in &units {
            stage_parse(name, source).expect("a port unit parses");
        }
    };
    parse_all();
    let before = alloc_counter::snapshot();
    parse_all();
    let spent = alloc_counter::snapshot().since(&before);
    let per_unit = |count: u64| count as f64 / units.len() as f64;
    let (allocations, reallocations) = (per_unit(spent.allocations), per_unit(spent.reallocations));
    eprintln!(
        "alloc_gate: stage_parse over the twelve port units: {allocations:.0} allocations \
         per unit, {reallocations:.0} of them reallocations"
    );
    assert!(
        allocations <= MAX_PARSE_ALLOCS_PER_UNIT,
        "parsing a port unit took {allocations:.0} allocator calls \
         (budget {MAX_PARSE_ALLOCS_PER_UNIT})"
    );
}

#[test]
fn cold_analysis_allocations_per_unit_stay_bounded() {
    let _one_at_a_time = MEASURING.lock().unwrap_or_else(|e| e.into_inner());
    let n = 100;
    let inputs = corpus::generate(n, 42);
    let driver = ProgramDriver::new();

    let before = alloc_counter::snapshot();
    let analysis = driver.analyze_program(&inputs).expect("cold analysis");
    let spent = alloc_counter::snapshot().since(&before);

    assert_eq!(analysis.units.len(), n);
    let per_unit = spent.allocations as f64 / n as f64;
    eprintln!(
        "alloc_gate: units={n} allocations={} ({per_unit:.0}/unit), bytes={}",
        spent.allocations, spent.bytes
    );
    assert!(
        per_unit < MAX_ALLOCS_PER_UNIT_COLD,
        "cold analysis allocated {per_unit:.0} times per unit \
         (ceiling {MAX_ALLOCS_PER_UNIT_COLD}): an order-of-magnitude \
         allocation regression"
    );
}

#[test]
fn planning_the_ports_stays_within_its_allocation_budget() {
    let _one_at_a_time = MEASURING.lock().unwrap_or_else(|e| e.into_inner());
    let options = OmpDartOptions::default();
    let mut spent = 0;
    for bench in ompdart_suite::all_benchmarks() {
        let parsed = stage_parse(&bench.unoptimized_file(), bench.unoptimized).unwrap();
        let graphs = stage_graphs(&parsed.unit);
        let accesses = stage_accesses(&parsed.unit, &graphs);
        let summaries = stage_summaries(&parsed.unit, &accesses, &options);
        let before = alloc_counter::snapshot();
        let plans = stage_plans(&parsed.unit, &graphs, &accesses, &summaries, &options, 1);
        spent += alloc_counter::snapshot().since(&before).allocations;
        assert!(!plans.plans.is_empty(), "{}", bench.name);
    }
    eprintln!("alloc_gate: stage_plans over the nine ports allocated {spent} times");
    assert!(
        spent <= MAX_PLAN_ALLOCS_NINE_PORTS,
        "planning the nine ports allocated {spent} times \
         (budget {MAX_PLAN_ALLOCS_NINE_PORTS})"
    );
}
