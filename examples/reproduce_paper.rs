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
//! inserted construct), `--lifetimes` (the transfer volume of the
//! unstructured `enter/exit data` spelling against the expert mapping).
//! With no flags every tabular artifact — including the plan-vs-expert
//! diff — is printed in order; the large `--plans` / `--explain` dumps and
//! the `--lifetimes` table are opt-in. Every artifact reads one
//! `run_all()` over the ten ports, which run concurrently.

use ompdart_core::plan::explain_plans;
use ompdart_sim::CostModel;
use ompdart_suite::experiment::run_all;
use ompdart_suite::report;

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
         (unoptimized / OMPDart / lifetimes / expert)..."
    );
    // The tenth row is the three-file lulesh port, analyzed as one *linked*
    // program and compared against its hand-mapped expert counterpart.
    let results = run_all();
    let cost = CostModel::default();

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
        println!("{}", report::figure5(&results, &cost));
    }
    if want("--fig6") {
        println!("{}", report::figure6(&results, &cost));
    }
    if want("--summary") {
        println!("{}", report::summary(&results, &cost));
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
    }
}
