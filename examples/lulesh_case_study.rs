//! The LULESH case study (Section VI): OMPDart finds better mappings than
//! the expert implementation by removing redundant per-step `target update`
//! directives, which the paper reports as an 85% transfer reduction and a
//! 1.6x speedup over the expert-defined mappings.
//!
//! ```sh
//! cargo run --release --example lulesh_case_study
//! ```

use ompdart_sim::{format_bytes, CostModel};
use ompdart_suite::experiment::{ports, run_port};

fn main() {
    let lulesh = ports().into_iter().find(|p| p.name == "lulesh");
    let result = run_port(&lulesh.expect("lulesh port missing")).expect("lulesh run failed");
    let cost = CostModel::default();

    println!("LULESH 2.0 (reduced) — three variants\n");
    println!(
        "{:<22} {:>12} {:>12} {:>14} {:>12}",
        "variant", "HtoD calls", "DtoH calls", "bytes moved", "runtime (est.)"
    );
    for (label, profile) in [
        ("unoptimized", &result.unoptimized.profile),
        ("OMPDart", &result.ompdart.profile),
        ("expert (HeCBench)", &result.expert.profile),
    ] {
        println!(
            "{:<22} {:>12} {:>12} {:>14} {:>11.3}ms",
            label,
            profile.htod_calls,
            profile.dtoh_calls,
            format_bytes(profile.total_bytes()),
            profile.total_time(&cost) * 1e3
        );
    }

    let vs_expert = result
        .ompdart
        .profile
        .speedup_over(&result.expert.profile, &cost);
    let transfer_cut = 100.0
        * (1.0
            - result.ompdart.profile.total_bytes() as f64
                / result.expert.profile.total_bytes().max(1) as f64);
    println!();
    println!("OMPDart vs expert: {vs_expert:.2}x faster, {transfer_cut:.0}% less data transferred");
    println!(
        "outputs identical: {} (expert) / {} (unoptimized)",
        result.output_matches_expert(),
        result.output_matches_unoptimized()
    );
    println!("\nWhy: the expert implementation re-synchronizes nodal coordinates, velocities");
    println!("and thermodynamic fields to the host every time step even though the host only");
    println!("needs the reduced time-step constraints; OMPDart's data-flow analysis proves");
    println!("those updates unnecessary and keeps the fields resident on the device.");

    // The Mapping IR makes that judgement inspectable: every construct
    // carries its justifying dataflow fact...
    println!("\nMappings OMPDart generated, with their provenance:");
    for plan in &result.plans {
        print!("{}", ompdart_core::explain_plan(plan, None));
    }
    // ...and the construct-level diff shows exactly which expert updates
    // the analysis proved redundant.
    println!();
    print!(
        "{}",
        result.plan_diff_vs_expert().render("ompdart", "expert")
    );
}
