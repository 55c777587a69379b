//! The experiment harness: runs every benchmark in its three variants
//! (Unoptimized / OMPDart / Expert), collects nsys-style transfer profiles
//! from the offload simulator, checks output consistency, and derives every
//! quantity reported in the paper's evaluation (Figures 3-6, Table V, and
//! the geometric-mean summary of Section VI).

use crate::benchmarks::{self, Benchmark};
use ompdart_core::pipeline::StageTimings;
use ompdart_core::plan::{diff_plans, extract_explicit_plans, plans_to_json, PlanDiff};
use ompdart_core::{AnalysisSession, MappingPlan, OmpDartOptions, ProgramDriver};
use ompdart_sim::{geometric_mean, simulate, CostModel, Outcome, SimConfig, TransferProfile};
use std::fmt;
use std::sync::Arc;
use std::time::Duration;

/// Configuration of an experiment run.
#[derive(Clone, Debug)]
pub struct ExperimentConfig {
    /// Cost model used to turn counters into wall-clock estimates.
    pub cost: CostModel,
    /// Operation budget per simulation (guards against runaway programs).
    pub max_ops: u64,
    /// OMPDart options (ablations flip these).
    pub tool: OmpDartOptions,
    /// Run the nine benchmarks on worker threads.
    pub parallel: bool,
    /// Also run each benchmark through the unstructured-lifetimes planner
    /// (`--lifetimes`: `enter/exit data` + `collapse` instead of a
    /// structured region) and record its transfer profile as a fourth
    /// variant.
    pub lifetimes: bool,
}

impl Default for ExperimentConfig {
    fn default() -> Self {
        ExperimentConfig {
            cost: CostModel::default(),
            max_ops: 100_000_000,
            tool: OmpDartOptions::default(),
            parallel: true,
            lifetimes: false,
        }
    }
}

/// Errors from running one benchmark.
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

/// Full result for one benchmark.
#[derive(Clone, Debug)]
pub struct BenchmarkResult {
    pub name: String,
    pub unoptimized: VariantResult,
    pub ompdart: VariantResult,
    pub expert: VariantResult,
    /// OMPDart analysis + rewrite time (Table V).
    pub tool_time: Duration,
    /// Per-stage breakdown of the analysis pipeline for this benchmark.
    pub stage_timings: StageTimings,
    /// The source OMPDart produced.
    pub transformed_source: String,
    /// Number of constructs OMPDart inserted.
    pub constructs_inserted: usize,
    /// The provenance-carrying mapping plans OMPDart generated.
    pub plans: Vec<MappingPlan>,
    /// Plans extracted from the expert variant's explicit directives.
    pub expert_plans: Vec<MappingPlan>,
    /// The unstructured-lifetimes variant (enter/exit data + collapse),
    /// present when [`ExperimentConfig::lifetimes`] was set.
    pub lifetimes: Option<VariantResult>,
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
    /// bytes than the expert mapping (`None` when it was not run).
    pub fn lifetimes_below_expert(&self) -> Option<bool> {
        self.lifetimes
            .as_ref()
            .map(|lt| lt.profile.total_bytes() < self.expert.profile.total_bytes())
    }

    /// Runtime speedup of the lifetimes variant over unoptimized.
    pub fn speedup_lifetimes(&self, cost: &CostModel) -> Option<f64> {
        self.lifetimes
            .as_ref()
            .map(|lt| lt.profile.speedup_over(&self.unoptimized.profile, cost))
    }

    /// Data-transfer wall-time improvement of the lifetimes variant.
    pub fn transfer_time_improvement_lifetimes(&self, cost: &CostModel) -> Option<f64> {
        self.lifetimes.as_ref().map(|lt| {
            lt.profile
                .transfer_improvement_over(&self.unoptimized.profile, cost)
        })
    }
}

/// Run one benchmark through all three variants on a fresh analysis
/// session.
pub fn run_benchmark(
    bench: &Benchmark,
    config: &ExperimentConfig,
) -> Result<BenchmarkResult, ExperimentError> {
    run_benchmark_with_session(bench, config, &AnalysisSession::with_options(config.tool))
}

/// Run one benchmark through all three variants, reusing a shared
/// [`AnalysisSession`]: the OMPDart transform and every variant's parse are
/// served from the session's artifact cache on repeated runs.
pub fn run_benchmark_with_session(
    bench: &Benchmark,
    config: &ExperimentConfig,
    session: &AnalysisSession,
) -> Result<BenchmarkResult, ExperimentError> {
    let start = std::time::Instant::now();
    let analysis = session
        .analyze(&bench.unoptimized_file(), bench.unoptimized)
        .map_err(|e| ExperimentError::Transform(e.to_string()))?;
    let tool_time = start.elapsed();
    let transformed_source = analysis.rewrite.source.clone();

    let sim =
        |name: String, src: &str, variant: &'static str| -> Result<Outcome, ExperimentError> {
            let parsed = session
                .parse(&name, src)
                .map_err(|e| ExperimentError::Simulation {
                    variant,
                    message: e.to_string(),
                })?;
            let cfg = SimConfig {
                cost: config.cost,
                max_ops: config.max_ops,
                entry: "main".into(),
            };
            simulate(&parsed.unit, cfg).map_err(|e| ExperimentError::Simulation {
                variant,
                message: e.to_string(),
            })
        };

    let unoptimized = sim(bench.unoptimized_file(), bench.unoptimized, "unoptimized")?;
    let ompdart = sim(
        format!("{}_ompdart.c", bench.name),
        &transformed_source,
        "ompdart",
    )?;
    let expert = sim(bench.expert_file(), bench.expert, "expert")?;

    // The expert source was parsed (and cached) for the simulation above;
    // its explicit directives become a comparable plan set. A parse failure
    // here would mean the cached parse diverged — surface it, never return
    // a silently empty expert side.
    let expert_plans = session
        .parse(&bench.expert_file(), bench.expert)
        .map(|p| extract_explicit_plans(&p.unit))
        .map_err(|e| ExperimentError::Transform(format!("expert variant: {e}")))?;

    // The fourth variant: the same program planned with unstructured
    // lifetimes. The option flips the plan fingerprint, so it needs its
    // own session — the caches of the structured run never collide.
    let lifetimes = if config.lifetimes {
        let mut options = config.tool;
        options.dataflow.lifetimes = true;
        let lt_session = AnalysisSession::with_options(options);
        let lt = lt_session
            .analyze(&bench.unoptimized_file(), bench.unoptimized)
            .map_err(|e| ExperimentError::Transform(format!("lifetimes variant: {e}")))?;
        Some(
            sim(
                format!("{}_lifetimes.c", bench.name),
                &lt.rewrite.source,
                "lifetimes",
            )?
            .into(),
        )
    } else {
        None
    };

    Ok(BenchmarkResult {
        name: bench.name.to_string(),
        unoptimized: unoptimized.into(),
        ompdart: ompdart.into(),
        expert: expert.into(),
        tool_time,
        stage_timings: analysis.timings(),
        transformed_source,
        constructs_inserted: analysis.plans.stats.total_constructs(),
        linked_fallbacks: analysis.plans.stats.unknown_callee_fallbacks,
        plans: analysis.plans.plans.clone(),
        expert_plans,
        lifetimes,
    })
}

/// Run the **multi-file** lulesh benchmark (`lulesh_mf`): the three
/// `lulesh_mf_*.c` units analyzed as one *linked* program via
/// [`ProgramDriver`], simulated against the unoptimized and the expert
/// (`lulesh_mf_main_expert.c`) concatenations. This is the whole-program
/// row of the Figure 3-6 comparisons — the only one whose OMPDart variant
/// exercises the cross-unit link stage rather than single-unit analysis.
pub fn run_multifile_benchmark(
    config: &ExperimentConfig,
) -> Result<BenchmarkResult, ExperimentError> {
    let session = Arc::new(AnalysisSession::with_options(config.tool));
    run_multifile_benchmark_with_session(config, &session)
}

/// [`run_multifile_benchmark`] over an existing session (shares its
/// caches, including the incremental link state).
pub fn run_multifile_benchmark_with_session(
    config: &ExperimentConfig,
    session: &Arc<AnalysisSession>,
) -> Result<BenchmarkResult, ExperimentError> {
    let units: Vec<(String, String)> = benchmarks::lulesh_multifile()
        .into_iter()
        .map(|(n, s)| (n.to_string(), s.to_string()))
        .collect();
    let start = std::time::Instant::now();
    let program = ProgramDriver::with_session(Arc::clone(session))
        .analyze_program(&units)
        .map_err(|e| ExperimentError::Transform(e.to_string()))?;
    let tool_time = start.elapsed();
    let transformed_source = program.concatenated_rewrite();
    let mut stage_timings = StageTimings::default();
    let mut plans = Vec::new();
    for unit in &program.units {
        stage_timings.merge(&unit.timings());
        plans.extend(unit.plans.plans.iter().cloned());
    }

    let sim =
        |name: String, src: &str, variant: &'static str| -> Result<Outcome, ExperimentError> {
            let parsed = session
                .parse(&name, src)
                .map_err(|e| ExperimentError::Simulation {
                    variant,
                    message: e.to_string(),
                })?;
            let cfg = SimConfig {
                cost: config.cost,
                max_ops: config.max_ops,
                entry: "main".into(),
            };
            simulate(&parsed.unit, cfg).map_err(|e| ExperimentError::Simulation {
                variant,
                message: e.to_string(),
            })
        };

    let unopt_concat = benchmarks::lulesh_multifile_concat();
    let expert_concat = benchmarks::lulesh_multifile_expert_concat();
    let unoptimized = sim("lulesh_mf_concat.c".into(), &unopt_concat, "unoptimized")?;
    let ompdart = sim("lulesh_mf_ompdart.c".into(), &transformed_source, "ompdart")?;
    let expert = sim("lulesh_mf_expert.c".into(), &expert_concat, "expert")?;

    let expert_plans = session
        .parse("lulesh_mf_expert.c", &expert_concat)
        .map(|p| extract_explicit_plans(&p.unit))
        .map_err(|e| ExperimentError::Transform(format!("expert variant: {e}")))?;

    // Lifetimes variant of the linked program: re-link the three units
    // under a lifetimes-enabled session and simulate the concatenation.
    let lifetimes = if config.lifetimes {
        let mut options = config.tool;
        options.dataflow.lifetimes = true;
        let lt_session = Arc::new(AnalysisSession::with_options(options));
        let lt_program = ProgramDriver::with_session(Arc::clone(&lt_session))
            .analyze_program(&units)
            .map_err(|e| ExperimentError::Transform(format!("lifetimes variant: {e}")))?;
        Some(
            sim(
                "lulesh_mf_lifetimes.c".into(),
                &lt_program.concatenated_rewrite(),
                "lifetimes",
            )?
            .into(),
        )
    } else {
        None
    };

    Ok(BenchmarkResult {
        name: "lulesh_mf".to_string(),
        unoptimized: unoptimized.into(),
        ompdart: ompdart.into(),
        expert: expert.into(),
        tool_time,
        stage_timings,
        transformed_source,
        constructs_inserted: program.stats().total_constructs(),
        linked_fallbacks: program.stats().unknown_callee_fallbacks,
        plans,
        expert_plans,
        lifetimes,
    })
}

/// Run every benchmark over one shared analysis session. With
/// `config.parallel` the nine benchmarks run on scoped worker threads.
pub fn run_all(config: &ExperimentConfig) -> Vec<BenchmarkResult> {
    let session = Arc::new(AnalysisSession::with_options(config.tool));
    run_all_with_session(config, &session)
}

/// Run every benchmark, reusing the given session (and its caches) across
/// benchmarks and runs.
pub fn run_all_with_session(
    config: &ExperimentConfig,
    session: &Arc<AnalysisSession>,
) -> Vec<BenchmarkResult> {
    let benches = benchmarks::all();
    if !config.parallel {
        return benches
            .iter()
            .map(|b| {
                run_benchmark_with_session(b, config, session)
                    .unwrap_or_else(|e| panic!("{}: {e}", b.name))
            })
            .collect();
    }
    let mut results: Vec<Option<BenchmarkResult>> = Vec::new();
    results.resize_with(benches.len(), || None);
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for (i, bench) in benches.iter().enumerate() {
            let cfg = config.clone();
            let session = Arc::clone(session);
            handles.push((
                i,
                scope.spawn(move || run_benchmark_with_session(bench, &cfg, &session)),
            ));
        }
        for (i, handle) in handles {
            let result = handle.join().expect("benchmark worker panicked");
            results[i] = Some(result.unwrap_or_else(|e| panic!("{}: {e}", benches[i].name)));
        }
    });
    results
        .into_iter()
        .map(|r| r.expect("missing result"))
        .collect()
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

    fn quick_config() -> ExperimentConfig {
        ExperimentConfig {
            parallel: true,
            ..Default::default()
        }
    }

    /// One full evaluation run: every benchmark, all three variants. This is
    /// the core reproduction test — correctness and the qualitative shape of
    /// Figures 3-6 must hold.
    #[test]
    fn full_evaluation_reproduces_paper_shape() {
        let config = quick_config();
        let results = run_all(&config);
        assert_eq!(results.len(), 9);
        let cost = config.cost;

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
        }

        // lulesh: OMPDart strictly beats the expert mapping (redundant
        // updates removed) — the paper reports 1.6x and an 85% reduction.
        let lulesh = results.iter().find(|r| r.name == "lulesh").unwrap();
        let lulesh_vs_expert = lulesh
            .ompdart
            .profile
            .speedup_over(&lulesh.expert.profile, &cost);
        assert!(
            lulesh_vs_expert > 1.2,
            "lulesh: expected a clear win over the expert mapping, got {lulesh_vs_expert:.2}x"
        );
        assert!(
            lulesh.ompdart.profile.total_bytes() * 2 < lulesh.expert.profile.total_bytes(),
            "lulesh: expected a large transfer reduction vs expert"
        );

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
        let config = quick_config();
        let r = run_multifile_benchmark(&config).unwrap();
        assert_eq!(r.name, "lulesh_mf");
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
        // Like single-file lulesh: the expert's per-step updates are
        // redundant, so OMPDart clearly beats the expert mapping.
        let vs_expert = r
            .ompdart
            .profile
            .speedup_over(&r.expert.profile, &config.cost);
        assert!(
            vs_expert > 1.2,
            "lulesh_mf: expected a clear win over the expert mapping, got {vs_expert:.2}x"
        );
        assert!(r.ompdart.profile.total_bytes() * 2 < r.expert.profile.total_bytes());
    }

    /// The fourth variant: unstructured lifetimes. Host-visible output must
    /// stay identical on every benchmark, and the simulated transfer volume
    /// must beat the expert mapping on at least three of them (the
    /// acceptance bar of the lifetimes milestone).
    #[test]
    fn lifetimes_variant_is_correct_and_beats_expert_volume() {
        let config = ExperimentConfig {
            lifetimes: true,
            ..quick_config()
        };
        let mut results = run_all(&config);
        results.push(run_multifile_benchmark(&config).unwrap());

        let mut below = 0usize;
        for r in &results {
            let lt = r
                .lifetimes
                .as_ref()
                .unwrap_or_else(|| panic!("{}: lifetimes variant missing", r.name));
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
            if r.lifetimes_below_expert() == Some(true) {
                below += 1;
            }
        }
        assert!(
            below >= 3,
            "lifetimes variant must beat the expert transfer volume on >=3 benchmarks, got {below}"
        );
        let mf = results.iter().find(|r| r.name == "lulesh_mf").unwrap();
        assert_eq!(mf.linked_fallbacks, 0, "lulesh_mf must stay fully linked");
    }

    #[test]
    fn serial_and_parallel_execution_agree() {
        let bench = benchmarks::by_name("accuracy").unwrap();
        let config = quick_config();
        let a = run_benchmark(&bench, &config).unwrap();
        let serial = ExperimentConfig {
            parallel: false,
            ..quick_config()
        };
        let b = run_benchmark(&bench, &serial).unwrap();
        assert_eq!(a.ompdart.output, b.ompdart.output);
        assert_eq!(a.ompdart.profile, b.ompdart.profile);
    }

    #[test]
    fn shared_session_caches_across_runs() {
        let bench = benchmarks::by_name("nw").unwrap();
        let config = quick_config();
        let session = AnalysisSession::with_options(config.tool);
        let a = run_benchmark_with_session(&bench, &config, &session).unwrap();
        let parses = session.cache_stats().parse_misses;
        let b = run_benchmark_with_session(&bench, &config, &session).unwrap();
        let stats = session.cache_stats();
        assert_eq!(stats.analysis_hits, 1, "second run must reuse the analysis");
        assert_eq!(stats.analysis_misses, 1, "second run must not plan again");
        assert_eq!(
            stats.parse_misses, parses,
            "second run must not re-parse anything"
        );
        assert!(stats.parse_hits >= 2);
        assert_eq!(a.ompdart.profile, b.ompdart.profile);
        assert_eq!(a.ompdart.output, b.ompdart.output);
    }

    #[test]
    fn stage_timings_are_populated() {
        let bench = benchmarks::by_name("ace").unwrap();
        let r = run_benchmark(&bench, &quick_config()).unwrap();
        assert!(r.stage_timings.total() > Duration::from_secs(0));
        assert!(r.stage_timings.of(ompdart_core::Stage::Parse) > Duration::from_secs(0));
    }

    /// The IR surface: generated plans justify every construct, serialize
    /// through the versioned JSON round-trip, and diff against the plans
    /// extracted from the expert variant.
    #[test]
    fn plans_are_justified_serializable_and_diffable() {
        let bench = benchmarks::by_name("backprop").unwrap();
        let r = run_benchmark(&bench, &quick_config()).unwrap();
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
        let bench = benchmarks::by_name("hotspot").unwrap();
        let r = run_benchmark(&bench, &quick_config()).unwrap();
        assert!(r.tool_time.as_secs_f64() > 0.0);
        assert!(r.tool_time.as_secs_f64() < 10.0);
    }
}
