//! Reproduce every table and figure of the paper's evaluation section.
//!
//! ```sh
//! cargo run --release --example reproduce_paper              # everything
//! cargo run --release --example reproduce_paper -- --fig5    # one artifact
//! cargo run --release --example reproduce_paper -- --timings # pipeline stages
//! ```
//!
//! Accepted flags: `--table1` .. `--table5`, `--fig3` .. `--fig6`,
//! `--summary`, `--timings`, `--plan-diff` (construct-level tool-vs-expert
//! comparison), `--plans` (plan-JSON emission), `--explain` (justify every
//! inserted construct), `--lifetimes` (run the unstructured
//! `enter/exit data` variant as a fourth row and compare its transfer
//! volume against the expert mapping). With no flags every tabular
//! artifact — including the plan-vs-expert diff — is printed in order;
//! the large `--plans` / `--explain` dumps and the extra `--lifetimes`
//! run are opt-in. The nine benchmarks run concurrently
//! over one shared `AnalysisSession`, so repeated artifacts reuse the
//! cached analyses.

use ompdart_core::plan::explain_plans;
use ompdart_core::AnalysisSession;
use ompdart_suite::experiment::{
    run_all_with_session, run_multifile_benchmark_with_session, ExperimentConfig,
};
use ompdart_suite::report;
use std::sync::Arc;

const FLAGS: [&str; 14] = [
    "--table1",
    "--table2",
    "--table3",
    "--table4",
    "--table5",
    "--fig3",
    "--fig4",
    "--fig5",
    "--fig6",
    "--summary",
    "--plans",
    "--plan-diff",
    "--explain",
    "--lifetimes",
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    for arg in &args {
        if arg != "--timings" && !FLAGS.contains(&arg.as_str()) {
            eprintln!(
                "unknown flag `{arg}`; accepted: {} --timings",
                FLAGS.join(" ")
            );
            std::process::exit(2);
        }
    }
    // The `--plans` JSON dump and the per-construct `--explain` listing are
    // large, so they are opt-in; every tabular artifact (the plan-vs-expert
    // diff included) prints by default.
    let want = |flag: &str| {
        if matches!(flag, "--plans" | "--explain" | "--lifetimes") {
            args.iter().any(|a| a == flag)
        } else {
            args.is_empty() || args.iter().any(|a| a == flag)
        }
    };

    // The static tables need no execution.
    if want("--table1") {
        println!("{}", report::table1());
    }
    if want("--table2") {
        println!("{}", report::table2());
    }
    if want("--table3") {
        println!("{}", report::table3());
    }
    if want("--table4") {
        println!("{}", report::table4());
    }

    let needs_run = [
        "--table5",
        "--fig3",
        "--fig4",
        "--fig5",
        "--fig6",
        "--summary",
        "--timings",
        "--plans",
        "--plan-diff",
        "--explain",
        "--lifetimes",
    ]
    .iter()
    .any(|f| want(f));
    if !needs_run {
        return;
    }

    eprintln!(
        "running the nine benchmarks plus the linked multi-file lulesh port \
         (unoptimized / OMPDart / expert)..."
    );
    let config = ExperimentConfig {
        // Opt-in fourth variant: every benchmark is re-planned with
        // unstructured `enter/exit data` lifetimes and simulated alongside
        // the three paper variants.
        lifetimes: want("--lifetimes"),
        ..ExperimentConfig::default()
    };
    let session = Arc::new(AnalysisSession::with_options(config.tool));
    let mut results = run_all_with_session(&config, &session);
    // The tenth row: the three-file lulesh port, analyzed as one *linked*
    // program and compared against its hand-mapped expert counterpart.
    results.push(
        run_multifile_benchmark_with_session(&config, &session)
            .unwrap_or_else(|e| panic!("lulesh_mf: {e}")),
    );
    let results = results;

    if want("--table5") {
        println!("{}", report::table5(&results));
    }
    if want("--fig3") {
        println!("{}", report::figure3(&results));
    }
    if want("--fig4") {
        println!("{}", report::figure4(&results));
    }
    if want("--fig5") {
        println!("{}", report::figure5(&results, &config.cost));
    }
    if want("--fig6") {
        println!("{}", report::figure6(&results, &config.cost));
    }
    if want("--summary") {
        println!("{}", report::summary(&results, &config.cost));
    }
    if want("--plan-diff") {
        println!("{}", report::plan_vs_expert(&results));
    }
    if want("--lifetimes") {
        println!("{}", report::lifetimes_vs_expert(&results));
    }
    if want("--plans") {
        println!("{}", report::plans_json(&results));
    }
    if want("--explain") {
        for r in &results {
            println!("=== {} ===", r.name);
            println!("{}", explain_plans(&r.plans, None));
        }
    }
    if want("--timings") {
        println!("Pipeline stage timings per benchmark");
        println!("------------------------------------");
        for r in &results {
            println!("{:<10} {}", r.name, r.stage_timings);
        }
        println!("{:<10} {}", "session", session.timings());
        println!("cache: {}", session.cache_stats());
    }
}
