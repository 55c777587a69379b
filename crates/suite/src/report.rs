//! Text reports that regenerate every table and figure of the paper's
//! evaluation section from a [`BenchmarkResult`] set.
//!
//! Each function returns a plain-text table whose rows correspond to the
//! rows/series of the paper artifact it reproduces:
//!
//! * [`table1`] — AST nodes recognized as offload kernels,
//! * [`table2`] — constructs OMPDart inserts,
//! * [`table3`] — the benchmark programs,
//! * [`table4`] — data-mapping complexity,
//! * [`table5`] — tool execution time,
//! * [`figure3`] — GPU data-transfer bytes (HtoD / DtoH) per variant,
//! * [`figure4`] — GPU memcpy call counts per variant,
//! * [`figure5`] — speedups over the unoptimized variant,
//! * [`figure6`] — data-transfer wall-time improvements,
//! * [`summary`] — the geometric-mean headline numbers of Section VI.

use crate::benchmarks;
use crate::complexity::table4_rows;
use crate::experiment::{summarize, BenchmarkResult};
use ompdart_core::plan::{JsonWriter, MappingConstruct, PLAN_FORMAT_VERSION};
use ompdart_frontend::omp::DirectiveKind;
use ompdart_sim::{format_bytes, CostModel};

fn header(title: &str) -> String {
    format!("{title}\n{}\n", "-".repeat(title.len()))
}

/// Table I: AST nodes recognized as offload kernels.
pub fn table1() -> String {
    let mut out = header("Table I: AST nodes recognized as offload kernels");
    out.push_str(&format!(
        "{:<55} {}\n",
        "Clang AST node", "OpenMP directive"
    ));
    for kind in DirectiveKind::all_offload_kernels() {
        out.push_str(&format!(
            "{:<55} omp {}\n",
            kind.clang_ast_node().unwrap_or("-"),
            kind.directive_text()
        ));
    }
    out
}

/// Table II: OpenMP constructs OMPDart inserts to resolve dependencies.
pub fn table2() -> String {
    let mut out = header("Table II: constructs inserted to resolve data dependencies");
    for construct in MappingConstruct::all() {
        out.push_str(&format!(
            "{:<16} {}\n",
            construct.syntax(),
            construct.description()
        ));
    }
    out
}

/// Table III: the benchmark programs.
pub fn table3() -> String {
    let mut out = header("Table III: programs used for evaluating OMPDart");
    out.push_str(&format!(
        "{:<10} {:<9} {:<20} {}\n",
        "Name", "Suite", "Domain", "Description"
    ));
    for b in benchmarks::all() {
        out.push_str(&format!(
            "{:<10} {:<9} {:<20} {}\n",
            b.name,
            b.suite.as_str(),
            b.domain,
            b.description
        ));
    }
    out
}

/// Table IV: benchmark data-mapping complexity.
pub fn table4() -> String {
    let mut out = header("Table IV: comparison of benchmark data mapping complexity");
    out.push_str(&format!(
        "{:<10} {:>8} {:>16} {:>17} {:>18}\n",
        "Benchmark", "Kernels", "Offloaded lines", "Mapped variables", "Possible mappings"
    ));
    for row in table4_rows() {
        out.push_str(&format!(
            "{:<10} {:>8} {:>16} {:>17} {:>18}\n",
            row.name, row.kernels, row.offloaded_lines, row.mapped_variables, row.possible_mappings
        ));
    }
    out
}

/// Table V: OMPDart overhead (tool execution time per benchmark).
pub fn table5(results: &[BenchmarkResult]) -> String {
    let mut out = header("Table V: OMPDart overhead");
    out.push_str(&format!(
        "{:<10} {:>20}\n",
        "Benchmark", "Tool execution time"
    ));
    let mut total = 0.0;
    for r in results {
        let secs = r.tool_time.as_secs_f64();
        total += secs;
        out.push_str(&format!("{:<10} {:>19.4}s\n", r.name, secs));
    }
    if !results.is_empty() {
        out.push_str(&format!(
            "{:<10} {:>19.4}s\n",
            "average",
            total / results.len() as f64
        ));
    }
    out
}

/// Figure 3: GPU data-transfer activity in bytes (lower is better).
pub fn figure3(results: &[BenchmarkResult]) -> String {
    let mut out = header("Figure 3: GPU data transfer activity (bytes)");
    out.push_str(&format!(
        "{:<10} {:>14} {:>14} {:>14} {:>14} {:>14} {:>14}\n",
        "Benchmark",
        "Unopt HtoD",
        "Unopt DtoH",
        "OMPDart HtoD",
        "OMPDart DtoH",
        "Expert HtoD",
        "Expert DtoH"
    ));
    for r in results {
        out.push_str(&format!(
            "{:<10} {:>14} {:>14} {:>14} {:>14} {:>14} {:>14}\n",
            r.name,
            format_bytes(r.unoptimized.profile.htod_bytes),
            format_bytes(r.unoptimized.profile.dtoh_bytes),
            format_bytes(r.ompdart.profile.htod_bytes),
            format_bytes(r.ompdart.profile.dtoh_bytes),
            format_bytes(r.expert.profile.htod_bytes),
            format_bytes(r.expert.profile.dtoh_bytes),
        ));
    }
    out
}

/// Figure 4: GPU data-transfer activity in memcpy calls (lower is better).
pub fn figure4(results: &[BenchmarkResult]) -> String {
    let mut out = header("Figure 4: GPU data transfer activity (# memcpy calls)");
    out.push_str(&format!(
        "{:<10} {:>12} {:>12} {:>14} {:>14} {:>13} {:>13}\n",
        "Benchmark",
        "Unopt HtoD",
        "Unopt DtoH",
        "OMPDart HtoD",
        "OMPDart DtoH",
        "Expert HtoD",
        "Expert DtoH"
    ));
    for r in results {
        out.push_str(&format!(
            "{:<10} {:>12} {:>12} {:>14} {:>14} {:>13} {:>13}\n",
            r.name,
            r.unoptimized.profile.htod_calls,
            r.unoptimized.profile.dtoh_calls,
            r.ompdart.profile.htod_calls,
            r.ompdart.profile.dtoh_calls,
            r.expert.profile.htod_calls,
            r.expert.profile.dtoh_calls,
        ));
    }
    out
}

/// Figure 5: speedups over the unoptimized OpenMP offload code.
pub fn figure5(results: &[BenchmarkResult], cost: &CostModel) -> String {
    let mut out = header("Figure 5: speedups over unoptimized OpenMP offload code");
    out.push_str(&format!(
        "{:<10} {:>10} {:>10}\n",
        "Benchmark", "OMPDart", "Expert"
    ));
    for r in results {
        out.push_str(&format!(
            "{:<10} {:>9.2}x {:>9.2}x\n",
            r.name,
            r.speedup_ompdart(cost),
            r.speedup_expert(cost)
        ));
    }
    out
}

/// Figure 6: improvements in data-transfer wall time over unoptimized.
pub fn figure6(results: &[BenchmarkResult], cost: &CostModel) -> String {
    let mut out = header("Figure 6: improvements in data transfer wall time");
    out.push_str(&format!(
        "{:<10} {:>10} {:>10}\n",
        "Benchmark", "OMPDart", "Expert"
    ));
    for r in results {
        out.push_str(&format!(
            "{:<10} {:>9.2}x {:>9.2}x\n",
            r.name,
            r.transfer_time_improvement_ompdart(cost),
            r.transfer_time_improvement_expert(cost)
        ));
    }
    out
}

/// Unstructured-lifetimes vs expert: simulated transfer volume of the
/// `--lifetimes` variant (enter/exit data + collapse) per benchmark against
/// the hand-written expert mapping, with the enter/exit share of its
/// traffic broken out.
pub fn lifetimes_vs_expert(results: &[BenchmarkResult]) -> String {
    let mut out = header("Unstructured lifetimes vs expert (simulated transfer volume)");
    out.push_str(&format!(
        "{:<10} {:>15} {:>13} {:>17} {:>13}\n",
        "Benchmark", "Lifetimes bytes", "Expert bytes", "Enter/exit bytes", "Below expert"
    ));
    for r in results {
        let lt = &r.lifetimes.profile;
        out.push_str(&format!(
            "{:<10} {:>15} {:>13} {:>17} {:>13}\n",
            r.name,
            format_bytes(lt.total_bytes()),
            format_bytes(r.expert.profile.total_bytes()),
            format_bytes(lt.enter_htod_bytes + lt.exit_dtoh_bytes),
            if r.lifetimes_below_expert() {
                "yes"
            } else {
                "no"
            },
        ));
    }
    let below = results
        .iter()
        .filter(|r| r.lifetimes_below_expert())
        .count();
    out.push_str(&format!(
        "lifetimes transfer volume strictly below expert: {below}/{} benchmarks\n",
        results.len()
    ));
    if let Some(mf) = results.iter().find(|r| r.name == "lulesh_mf") {
        out.push_str(&format!(
            "lulesh_mf whole-program link: linked_fallbacks={}\n",
            mf.linked_fallbacks
        ));
    }
    out
}

/// The Section VI geometric-mean summary.
pub fn summary(results: &[BenchmarkResult], cost: &CostModel) -> String {
    let s = summarize(results, cost);
    let mut out = header("Summary (Section VI headline numbers)");
    out.push_str(&format!(
        "geomean speedup over implicit mappings (OMPDart): {:.2}x\n",
        s.geomean_speedup_ompdart
    ));
    out.push_str(&format!(
        "geomean speedup over implicit mappings (expert):  {:.2}x\n",
        s.geomean_speedup_expert
    ));
    out.push_str(&format!(
        "geomean speedup of OMPDart over expert mappings:  {:.2}x\n",
        s.geomean_speedup_vs_expert
    ));
    out.push_str(&format!(
        "geomean transfer-time improvement (OMPDart):      {:.2}x\n",
        s.geomean_transfer_improvement_ompdart
    ));
    out.push_str(&format!(
        "geomean transfer-time improvement (expert):       {:.2}x\n",
        s.geomean_transfer_improvement_expert
    ));
    out.push_str(&format!(
        "geomean data saved per benchmark:                 {}\n",
        format_bytes(s.geomean_bytes_saved as u64)
    ));
    out.push_str(&format!(
        "benchmarks with output matching the expert:       {}/{}\n",
        s.correct, s.total
    ));
    out.push_str(&format!(
        "benchmarks with fewer memcpy calls than expert:   {}/{}\n",
        s.fewer_calls_than_expert, s.total
    ));
    out
}

/// One versioned JSON document with every benchmark's generated plans —
/// the machine-readable counterpart of the tables above, for offline
/// comparison against expert mappings.
pub fn plans_json(results: &[BenchmarkResult]) -> String {
    let mut out = String::new();
    let w = &mut JsonWriter::pretty(&mut out);
    w.begin_object();
    w.key("version").int(i64::from(PLAN_FORMAT_VERSION));
    w.key("benchmarks").begin_array();
    for r in results {
        w.begin_object();
        w.key("name").string(&r.name);
        w.key("plans").begin_array();
        for plan in &r.plans {
            plan.write_json(w);
        }
        w.end_array();
        w.end_object();
    }
    w.end_array();
    w.end_object();
    out.push('\n');
    out
}

/// Construct-level comparison of OMPDart's plans against the mappings the
/// experts wrote by hand: agreements, constructs only one side emits, and
/// map-type disagreements per benchmark.
pub fn plan_vs_expert(results: &[BenchmarkResult]) -> String {
    let mut out = header("Plan vs expert: construct-level mapping comparison");
    out.push_str(&format!(
        "{:<10} {:>7} {:>10} {:>13} {:>9}\n",
        "Benchmark", "Agree", "Tool-only", "Expert-only", "Retyped"
    ));
    for r in results {
        let diff = r.plan_diff_vs_expert();
        let (mut tool_only, mut expert_only, mut retyped) = (0usize, 0usize, 0usize);
        for entry in &diff.entries {
            match entry {
                ompdart_core::DiffEntry::OnlyLeft { .. } => tool_only += 1,
                ompdart_core::DiffEntry::OnlyRight { .. } => expert_only += 1,
                ompdart_core::DiffEntry::Retyped { .. } => retyped += 1,
            }
        }
        out.push_str(&format!(
            "{:<10} {:>7} {:>10} {:>13} {:>9}\n",
            r.name, diff.agreements, tool_only, expert_only, retyped
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn static_tables_render() {
        let t1 = table1();
        assert!(t1.contains("OMPTargetTeamsDistributeParallelForDirective"));
        assert_eq!(t1.lines().count(), 3 + 12);
        let t2 = table2();
        assert!(t2.contains("firstprivate()"));
        assert!(t2.contains("map(alloc:)"));
        let t3 = table3();
        assert!(t3.contains("xsbench"));
        assert!(t3.contains("Rodinia"));
        assert!(t3.contains("HeCBench"));
    }

    #[test]
    fn complexity_table_renders() {
        let t4 = table4();
        assert!(t4.contains("lulesh"));
        for b in benchmarks::all() {
            assert!(t4.contains(b.name), "missing {} in Table IV", b.name);
        }
    }
}
