//! The experiment harness: one table of ports and one measurement.
//!
//! A [`Port`] is a program of the paper's evaluation: the units the tool
//! maps (one for each of the nine ports of Table III, three for the linked
//! `lulesh_mf`) and the expert's hand-mapped program. [`map_and_simulate`]
//! is the one measurement: it maps any list of units as one linked program
//! (a single unit is the degenerate program) and runs the concatenated
//! rewrite on the offload simulator. [`run_port`] takes it for the mapped
//! and the `--lifetimes` variants and simulates the unoptimized and expert
//! programs beside them; [`run_all`] runs the ten ports. Everything else —
//! Figures 3-6, Table V, the Section VI geometric means — reads those
//! results, applying a [`CostModel`] where it turns counters into time.

use crate::benchmarks;
use ompdart_core::pipeline::{stage_parse, StageTimings};
use ompdart_core::plan::{diff_plans, extract_explicit_plans, plans_to_json, PlanDiff};
use ompdart_core::{MappingPlan, Ompdart, ProgramAnalysis};
use ompdart_sim::{geometric_mean, simulate, CostModel, Outcome, SimConfig, TransferProfile};
use std::fmt;
use std::time::{Duration, Instant};

/// One program of the evaluation.
#[derive(Debug)]
pub struct Port {
    pub name: &'static str,
    /// The unoptimized program as `(file name, source)` units in link
    /// order; their concatenation is one translation unit.
    pub units: Vec<(String, String)>,
    /// The expert-mapped program as one translation unit.
    pub expert: String,
}

/// The nine ports of Table III, one unit each, then the linked `lulesh_mf`.
pub fn ports() -> Vec<Port> {
    let mut ports: Vec<Port> = (benchmarks::all().into_iter())
        .map(|b| Port {
            name: b.name,
            units: vec![(b.unoptimized_file(), b.unoptimized.to_string())],
            expert: b.expert.to_string(),
        })
        .collect();
    ports.push(Port {
        name: "lulesh_mf",
        units: (benchmarks::lulesh_multifile().into_iter())
            .map(|(name, source)| (name.to_string(), source.to_string()))
            .collect(),
        expert: benchmarks::lulesh_multifile_expert_concat(),
    });
    ports
}

/// Errors from running one port.
#[derive(Debug)]
pub enum ExperimentError {
    Transform(String),
    Simulation {
        variant: &'static str,
        message: String,
    },
}

impl fmt::Display for ExperimentError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExperimentError::Transform(msg) => write!(f, "OMPDart failed: {msg}"),
            ExperimentError::Simulation { variant, message } => {
                write!(f, "simulation of the {variant} variant failed: {message}")
            }
        }
    }
}

impl std::error::Error for ExperimentError {}

/// Profile and output of one program variant.
#[derive(Clone, Debug)]
pub struct VariantResult {
    pub profile: TransferProfile,
    pub output: Vec<String>,
}

impl From<Outcome> for VariantResult {
    fn from(o: Outcome) -> Self {
        VariantResult {
            profile: o.profile,
            output: o.output,
        }
    }
}

/// A program mapped by the tool and run on the simulator.
#[derive(Debug)]
pub struct MappedRun {
    /// The linked analysis: per-unit plans, rewrites and stage timings.
    pub analysis: ProgramAnalysis,
    /// Wall time of the analysis (Table V).
    pub tool_time: Duration,
    /// The run of the concatenated rewrite.
    pub run: VariantResult,
}

/// The one measurement: map `units` with `tool` as one linked program and
/// run the concatenation of the rewritten units under
/// `SimConfig::default()`.
pub fn map_and_simulate(
    tool: &Ompdart,
    units: &[(String, String)],
) -> Result<MappedRun, ExperimentError> {
    let start = Instant::now();
    let analysis =
        (tool.analyze_program(units)).map_err(|e| ExperimentError::Transform(e.to_string()))?;
    let tool_time = start.elapsed();
    let run = simulate_variant("mapped", &analysis.concatenated_rewrite())?;
    Ok(MappedRun {
        analysis,
        tool_time,
        run,
    })
}

/// Parse `source` and run it under `SimConfig::default()`.
fn simulate_variant(variant: &'static str, source: &str) -> Result<VariantResult, ExperimentError> {
    let fail = |message: String| ExperimentError::Simulation { variant, message };
    let parsed = stage_parse(&format!("{variant}.c"), source).map_err(|e| fail(e.to_string()))?;
    let outcome = simulate(&parsed.unit, SimConfig::default()).map_err(|e| fail(e.to_string()))?;
    Ok(outcome.into())
}

/// Full result for one port.
#[derive(Clone, Debug)]
pub struct BenchmarkResult {
    pub name: String,
    pub unoptimized: VariantResult,
    pub ompdart: VariantResult,
    pub expert: VariantResult,
    /// The same plan spelled with unstructured lifetimes (`--lifetimes`:
    /// enter/exit data + collapse).
    pub lifetimes: VariantResult,
    /// OMPDart analysis + rewrite time (Table V).
    pub tool_time: Duration,
    /// Per-stage breakdown of the analysis pipeline, summed over units.
    pub stage_timings: StageTimings,
    /// The source OMPDart produced (the units' rewrites, concatenated).
    pub transformed_source: String,
    /// Number of constructs OMPDart inserted.
    pub constructs_inserted: usize,
    /// The provenance-carrying mapping plans OMPDart generated.
    pub plans: Vec<MappingPlan>,
    /// Plans extracted from the expert variant's explicit directives.
    pub expert_plans: Vec<MappingPlan>,
    /// Call sites the analysis could not resolve to a summary (0 = fully
    /// linked; the whole-program row must stay at 0).
    pub linked_fallbacks: usize,
}

impl BenchmarkResult {
    /// Output equivalence between OMPDart's program and the expert program
    /// (the paper's correctness check).
    pub fn output_matches_expert(&self) -> bool {
        self.ompdart.output == self.expert.output
    }

    /// Output equivalence between OMPDart's program and the unoptimized
    /// (implicit-mapping) program.
    pub fn output_matches_unoptimized(&self) -> bool {
        self.ompdart.output == self.unoptimized.output
    }

    /// Runtime speedup of the OMPDart variant over the unoptimized variant
    /// (Figure 5).
    pub fn speedup_ompdart(&self, cost: &CostModel) -> f64 {
        self.ompdart
            .profile
            .speedup_over(&self.unoptimized.profile, cost)
    }

    /// Runtime speedup of the expert variant over the unoptimized variant
    /// (Figure 5).
    pub fn speedup_expert(&self, cost: &CostModel) -> f64 {
        self.expert
            .profile
            .speedup_over(&self.unoptimized.profile, cost)
    }

    /// Data-transfer wall-time improvement over unoptimized (Figure 6).
    pub fn transfer_time_improvement_ompdart(&self, cost: &CostModel) -> f64 {
        self.ompdart
            .profile
            .transfer_improvement_over(&self.unoptimized.profile, cost)
    }

    /// Data-transfer wall-time improvement of the expert variant (Figure 6).
    pub fn transfer_time_improvement_expert(&self, cost: &CostModel) -> f64 {
        self.expert
            .profile
            .transfer_improvement_over(&self.unoptimized.profile, cost)
    }

    /// Bytes saved by OMPDart versus the unoptimized variant.
    pub fn bytes_saved(&self) -> u64 {
        self.unoptimized
            .profile
            .total_bytes()
            .saturating_sub(self.ompdart.profile.total_bytes())
    }

    /// The versioned plan-JSON document for OMPDart's plans.
    pub fn plans_json(&self) -> String {
        plans_to_json(&self.plans)
    }

    /// Construct-level diff of OMPDart's plans against the expert mapping
    /// (the offline tool-vs-expert comparison the paper performs by hand).
    pub fn plan_diff_vs_expert(&self) -> PlanDiff {
        diff_plans(&self.plans, &self.expert_plans)
    }

    /// Whether the unstructured-lifetimes variant moves strictly fewer
    /// bytes than the expert mapping.
    pub fn lifetimes_below_expert(&self) -> bool {
        self.lifetimes.profile.total_bytes() < self.expert.profile.total_bytes()
    }
}

/// Run one port: its units mapped by the tool in both spellings, and the
/// unoptimized and expert programs, each on the simulator.
pub fn run_port(port: &Port) -> Result<BenchmarkResult, ExperimentError> {
    let mapped = map_and_simulate(&Ompdart::new(), &port.units)?;
    let lifetimes = map_and_simulate(&Ompdart::builder().lifetimes(true).build(), &port.units)?;
    let unoptimized: String = port
        .units
        .iter()
        .map(|(_, source)| source.as_str())
        .collect();
    let expert_plans = stage_parse("expert.c", &port.expert)
        .map(|parsed| extract_explicit_plans(&parsed.unit))
        .map_err(|e| ExperimentError::Transform(format!("expert variant: {e}")))?;
    let program = &mapped.analysis;
    let mut stage_timings = StageTimings::default();
    let mut plans = Vec::new();
    for unit in &program.units {
        stage_timings.merge(&unit.timings());
        plans.extend(unit.plans.plans.iter().cloned());
    }
    Ok(BenchmarkResult {
        name: port.name.to_string(),
        unoptimized: simulate_variant("unoptimized", &unoptimized)?,
        expert: simulate_variant("expert", &port.expert)?,
        tool_time: mapped.tool_time,
        stage_timings,
        transformed_source: program.concatenated_rewrite(),
        constructs_inserted: program.stats().total_constructs(),
        linked_fallbacks: program.stats().unknown_callee_fallbacks,
        plans,
        expert_plans,
        ompdart: mapped.run,
        lifetimes: lifetimes.run,
    })
}

/// Run the ten [`ports`], one scoped thread each, in port order.
///
/// # Panics
///
/// Panics naming the port when one fails.
pub fn run_all() -> Vec<BenchmarkResult> {
    let ports = ports();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (ports.iter())
            .map(|port| scope.spawn(move || run_port(port)))
            .collect();
        (handles.into_iter().zip(&ports))
            .map(|(handle, port)| {
                let result = handle.join().expect("port worker panicked");
                result.unwrap_or_else(|e| panic!("{}: {e}", port.name))
            })
            .collect()
    })
}

/// Geometric-mean summary of a full run (the headline numbers of Section VI).
#[derive(Clone, Copy, Debug)]
pub struct Summary {
    /// Geometric-mean speedup of OMPDart over the unoptimized variants.
    pub geomean_speedup_ompdart: f64,
    /// Geometric-mean speedup of the expert mappings over unoptimized.
    pub geomean_speedup_expert: f64,
    /// Geometric-mean speedup of OMPDart over the expert mappings.
    pub geomean_speedup_vs_expert: f64,
    /// Geometric-mean improvement in data-transfer wall time (OMPDart).
    pub geomean_transfer_improvement_ompdart: f64,
    /// Geometric-mean improvement in data-transfer wall time (expert).
    pub geomean_transfer_improvement_expert: f64,
    /// Geometric mean of bytes saved by OMPDart per benchmark.
    pub geomean_bytes_saved: f64,
    /// Number of benchmarks whose OMPDart output matches the expert output.
    pub correct: usize,
    /// Number of benchmarks where OMPDart issues fewer memcpy calls than the
    /// expert mapping.
    pub fewer_calls_than_expert: usize,
    pub total: usize,
}

/// Summarize a full experiment run.
pub fn summarize(results: &[BenchmarkResult], cost: &CostModel) -> Summary {
    let speedups_tool: Vec<f64> = results.iter().map(|r| r.speedup_ompdart(cost)).collect();
    let speedups_expert: Vec<f64> = results.iter().map(|r| r.speedup_expert(cost)).collect();
    let vs_expert: Vec<f64> = results
        .iter()
        .map(|r| r.ompdart.profile.speedup_over(&r.expert.profile, cost))
        .collect();
    let transfer_tool: Vec<f64> = results
        .iter()
        .map(|r| r.transfer_time_improvement_ompdart(cost))
        .collect();
    let transfer_expert: Vec<f64> = results
        .iter()
        .map(|r| r.transfer_time_improvement_expert(cost))
        .collect();
    let bytes_saved: Vec<f64> = results
        .iter()
        .map(|r| r.bytes_saved().max(1) as f64)
        .collect();
    Summary {
        geomean_speedup_ompdart: geometric_mean(&speedups_tool),
        geomean_speedup_expert: geometric_mean(&speedups_expert),
        geomean_speedup_vs_expert: geometric_mean(&vs_expert),
        geomean_transfer_improvement_ompdart: geometric_mean(&transfer_tool),
        geomean_transfer_improvement_expert: geometric_mean(&transfer_expert),
        geomean_bytes_saved: geometric_mean(&bytes_saved),
        correct: results.iter().filter(|r| r.output_matches_expert()).count(),
        fewer_calls_than_expert: results
            .iter()
            .filter(|r| r.ompdart.profile.total_calls() < r.expert.profile.total_calls())
            .count(),
        total: results.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(name: &str) -> BenchmarkResult {
        let port = ports().into_iter().find(|p| p.name == name).unwrap();
        run_port(&port).unwrap()
    }

    /// One full evaluation run: every port, all four variants. This is the
    /// core reproduction test — correctness and the qualitative shape of
    /// Figures 3-6 must hold, on the linked `lulesh_mf` row as on the nine
    /// single-file ones.
    #[test]
    fn full_evaluation_reproduces_paper_shape() {
        let results = run_all();
        let names: Vec<&str> = results.iter().map(|r| r.name.as_str()).collect();
        assert_eq!(names, ports().iter().map(|p| p.name).collect::<Vec<_>>());
        assert_eq!(names.len(), 10);
        let cost = CostModel::default();

        for r in &results {
            // Correctness: OMPDart's program computes what the expert program
            // computes (Section VI: "consistent with those produced by
            // experts"), and also what the unoptimized program computes.
            assert!(
                r.output_matches_expert(),
                "{}: OMPDart output diverges from expert\nompdart: {:?}\nexpert: {:?}\n{}",
                r.name,
                r.ompdart.output,
                r.expert.output,
                r.transformed_source
            );
            assert!(
                r.output_matches_unoptimized(),
                "{}: OMPDart output diverges from the unoptimized program",
                r.name
            );
            // Figure 3 shape: OMPDart never moves more data than the implicit
            // mappings, and (except for the tiny cases) moves strictly less.
            assert!(
                r.ompdart.profile.total_bytes() <= r.unoptimized.profile.total_bytes(),
                "{}: OMPDart moved more data than the unoptimized variant",
                r.name
            );
            // Figure 5 shape: OMPDart is at least as fast as the expert
            // mapping (the paper: "always at least as good").
            let tool = r.speedup_ompdart(&cost);
            let expert = r.speedup_expert(&cost);
            assert!(
                tool >= expert * 0.98,
                "{}: OMPDart ({tool:.2}x) slower than expert ({expert:.2}x)",
                r.name
            );
            assert!(r.constructs_inserted > 0, "{}: nothing inserted", r.name);
            assert!(!r.expert_plans.is_empty(), "{}: no expert plans", r.name);
        }

        // lulesh, single-file and linked: OMPDart strictly beats the expert
        // mapping (redundant updates removed) — the paper reports 1.6x and
        // an 85% reduction.
        for r in results.iter().filter(|r| r.name.starts_with("lulesh")) {
            let vs_expert = r.ompdart.profile.speedup_over(&r.expert.profile, &cost);
            assert!(
                vs_expert > 1.2,
                "{}: expected a clear win over the expert mapping, got {vs_expert:.2}x",
                r.name
            );
            assert!(
                r.ompdart.profile.total_bytes() * 2 < r.expert.profile.total_bytes(),
                "{}: expected a large transfer reduction vs expert",
                r.name
            );
        }

        // Figure 4 shape: OMPDart issues fewer memcpy calls than the expert
        // mappings on several benchmarks (6 in the paper; the firstprivate
        // and struct-mapping wins must show up here too).
        let summary = summarize(&results, &cost);
        assert!(
            summary.fewer_calls_than_expert >= 4,
            "expected OMPDart to beat the expert call counts on several benchmarks, got {}",
            summary.fewer_calls_than_expert
        );
        assert_eq!(summary.correct, summary.total);

        // Section VI headline numbers: clear geometric-mean speedup over the
        // implicit mappings, and parity-or-better against the experts.
        assert!(
            summary.geomean_speedup_ompdart > 1.3,
            "geomean speedup too small: {}",
            summary.geomean_speedup_ompdart
        );
        assert!(summary.geomean_speedup_vs_expert >= 0.99);
        assert!(summary.geomean_transfer_improvement_ompdart > 2.0);
    }

    /// The multi-file lulesh row: the linked OMPDart program preserves the
    /// output of both the unoptimized and the expert variants, and beats
    /// the expert's redundant per-step updates — the same headline shape as
    /// the single-file lulesh row, now through the whole-program link
    /// stage.
    #[test]
    fn multifile_lulesh_row_reproduces_paper_shape() {
        let r = run("lulesh_mf");
        assert!(
            r.output_matches_expert(),
            "lulesh_mf: OMPDart output diverges from expert\nompdart: {:?}\nexpert: {:?}\n{}",
            r.ompdart.output,
            r.expert.output,
            r.transformed_source
        );
        assert!(r.output_matches_unoptimized());
        assert!(r.constructs_inserted > 0);
        assert!(!r.expert_plans.is_empty(), "expert plans must be extracted");
        assert!(r.ompdart.profile.total_bytes() <= r.unoptimized.profile.total_bytes());
        assert_eq!(r.linked_fallbacks, 0, "lulesh_mf must stay fully linked");
        // Like single-file lulesh: the expert's per-step updates are
        // redundant, so OMPDart clearly beats the expert mapping.
        let vs_expert = r
            .ompdart
            .profile
            .speedup_over(&r.expert.profile, &CostModel::default());
        assert!(
            vs_expert > 1.2,
            "lulesh_mf: expected a clear win over the expert mapping, got {vs_expert:.2}x"
        );
        assert!(r.ompdart.profile.total_bytes() * 2 < r.expert.profile.total_bytes());
    }

    /// The fourth variant: unstructured lifetimes. Host-visible output must
    /// stay identical on every port, and the simulated transfer volume
    /// must beat the expert mapping on at least three of them (the
    /// acceptance bar of the lifetimes milestone).
    #[test]
    fn lifetimes_variant_is_correct_and_beats_expert_volume() {
        let results = run_all();
        let mut below = 0usize;
        for r in &results {
            let lt = &r.lifetimes;
            assert_eq!(
                lt.output, r.unoptimized.output,
                "{}: lifetimes variant changes host-visible output",
                r.name
            );
            assert_eq!(
                lt.output, r.expert.output,
                "{}: lifetimes variant diverges from the expert program",
                r.name
            );
            assert!(
                lt.profile.total_bytes() <= r.unoptimized.profile.total_bytes(),
                "{}: lifetimes variant moves more data than implicit mappings",
                r.name
            );
            // The variant's traffic really flows through enter/exit data:
            // the attributed counters are live and stay subsets of the
            // totals.
            assert!(
                lt.profile.enter_htod_calls > 0,
                "{}: no transfer attributed to `target enter data`",
                r.name
            );
            assert!(lt.profile.enter_htod_bytes <= lt.profile.htod_bytes);
            assert!(lt.profile.exit_dtoh_bytes <= lt.profile.dtoh_bytes);
            below += usize::from(r.lifetimes_below_expert());
        }
        assert!(
            below >= 3,
            "lifetimes variant must beat the expert transfer volume on >=3 ports, got {below}"
        );
    }

    #[test]
    fn stage_timings_are_populated() {
        let r = run("ace");
        assert!(r.stage_timings.total() > Duration::from_secs(0));
        assert!(r.stage_timings.of(ompdart_core::Stage::Parse) > Duration::from_secs(0));
    }

    /// The IR surface: generated plans justify every construct, serialize
    /// through the versioned JSON round-trip, and diff against the plans
    /// extracted from the expert variant.
    #[test]
    fn plans_are_justified_serializable_and_diffable() {
        let r = run("backprop");
        assert!(!r.plans.is_empty());
        for plan in &r.plans {
            assert!(plan.fully_justified(), "{}: {plan:#?}", r.name);
        }
        let json = r.plans_json();
        let back = ompdart_core::plan::plans_from_json(&json).unwrap();
        assert_eq!(back, r.plans);
        // The expert variant's explicit directives became a plan set too.
        assert!(!r.expert_plans.is_empty());
        let diff = r.plan_diff_vs_expert();
        assert!(
            diff.agreements > 0,
            "tool and expert should agree on something: {}",
            diff.render("ompdart", "expert")
        );
    }

    #[test]
    fn tool_time_is_reported() {
        let r = run("hotspot");
        assert!(r.tool_time.as_secs_f64() > 0.0);
        assert!(r.tool_time.as_secs_f64() < 10.0);
    }
}
