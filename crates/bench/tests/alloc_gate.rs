//! Allocation-count regression gate.
//!
//! Registers the counting allocator and asserts a cold whole-program
//! analysis stays under a *generous* allocations-per-unit ceiling — an
//! order-of-magnitude tripwire, not a precision benchmark. The interned
//! frontend plus pre-sized plan buffers land far below the ceiling; only a
//! wholesale return to per-token `String` churn should ever trip it.

use ompdart_bench::alloc_counter;
use ompdart_core::ProgramDriver;
use ompdart_suite::corpus;

#[global_allocator]
static ALLOC: alloc_counter::CountingAllocator = alloc_counter::CountingAllocator;

/// Generous fixed ceiling: the measured figure on the 100-unit corpus is
/// a few hundred allocations per unit; pre-interning it was several
/// thousand. Trip only on order-of-magnitude regressions.
const MAX_ALLOCS_PER_UNIT_COLD: f64 = 4000.0;

#[test]
fn cold_analysis_allocations_per_unit_stay_bounded() {
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
