//! # ompdart-core
//!
//! OMPDart — *OpenMP Data Reduction Tool* — reimplemented in Rust.
//!
//! Given a C (MiniC) OpenMP offload program **without** explicit data
//! mappings, OMPDart statically determines how data flows between the host
//! and device memory spaces and rewrites the source to insert efficient
//! OpenMP data-mapping constructs: `map(to/from/tofrom/alloc:)` clauses on a
//! single per-function `target data` region, `target update to/from`
//! directives hoisted out of loops that do not carry the dependency, and
//! `firstprivate` clauses for read-only scalars.
//!
//! The pipeline follows the paper's workflow (Figure 1):
//!
//! 1. parse (`ompdart-frontend`),
//! 2. index every function's statements (`ompdart-graph`; control flow is
//!    read from the AST, where the paper builds a hybrid AST-CFG),
//! 3. classify memory accesses ([`access`]),
//! 4. interprocedural side-effect analysis ([`interproc`]),
//! 5. host/device data-flow analysis and mapping decisions ([`dataflow`], [`bounds`]),
//! 6. source rewriting ([`rewrite`]).
//!
//! The public entry point is the [`Ompdart`] facade: build one with
//! [`Ompdart::builder`], then [`Ompdart::analyze`] sources into shared
//! [`UnitAnalysis`] values, the same ones a linked program's
//! [`ProgramAnalysis::units`] holds. An analysis exposes the rewritten
//! source, the provenance-carrying [`MappingPlan`]s of the [`plan`] IR —
//! serializable via [`MappingPlan::to_json`] and explainable via
//! [`UnitAnalysis::explain`] — plus per-stage timings.
//!
//! ```
//! use ompdart_core::Ompdart;
//!
//! let src = r#"
//! #define N 256
//! double a[N];
//! int main() {
//!   for (int it = 0; it < 10; it++) {
//!     #pragma omp target teams distribute parallel for
//!     for (int i = 0; i < N; i++) a[i] += 1.0;
//!   }
//!   printf("%f\n", a[0]);
//!   return 0;
//! }
//! "#;
//! let tool = Ompdart::builder().build();
//! let analysis = tool.analyze("demo.c", src).unwrap();
//! assert!(analysis.rewritten_source().contains("#pragma omp target data"));
//! assert_eq!(analysis.stats().kernels, 1);
//! // Every mapping decision can explain itself.
//! assert!(analysis.plans().iter().all(|p| p.fully_justified()));
//! let json = analysis.plans_json();
//! let roundtrip = ompdart_core::plan::plans_from_json(&json).unwrap();
//! assert_eq!(&roundtrip[..], analysis.plans());
//! ```

pub mod access;
pub mod bounds;
pub mod dataflow;
pub mod interface;
pub mod interproc;
#[cfg(any(test, feature = "oracle"))]
pub mod oracle;
pub mod pipeline;
pub mod plan;
pub mod pool;
pub mod program;
pub mod rewrite;
pub mod scc;
pub mod shard;
pub mod stats;
pub mod store;
mod validity;
pub mod verify;

pub use access::{Access, AccessKind, AccessOrigin, FunctionAccesses, SymbolTable};
pub use bounds::{loop_bounds, LoopBounds};
pub use dataflow::plan_function;
pub use interproc::{
    augment_with_call_effects, seed_summary, ArgTarget, Effect, FunctionSummary, LinkArg, LinkCall,
    ProgramSummaries, PropagationNode,
};
pub use pipeline::{
    release_bodies, AnalysisSession, FunctionKeySnapshot, Stage, StageError, StageTimings,
    SummarizedUnit, UnitAnalysis, UnitBody,
};
pub use plan::{
    diff_plans, explain_plan, explain_plans, extract_explicit_plans, plans_from_json,
    plans_to_json, plans_to_json_compact, AnalysisStats, CollapseSpec, DiffEntry, FirstPrivateSpec,
    MapSpec, MappingConstruct, MappingPlan, Placement, PlanDiff, PlanJsonError, Provenance,
    ProvenanceFact, UpdateDirection, UpdateSpec, PLAN_FORMAT_VERSION,
};
pub use program::{
    DriverProfile, LinkContext, LinkState, Program, ProgramAnalysis, ProgramDriver, ProgramError,
    UnitExports, UnitServe, UNLINKED,
};
pub use rewrite::apply_plans;
pub use stats::CacheStats;
pub use store::{ArtifactStore, GcReport, StoredUnit, STORE_FORMAT_VERSION};
pub use verify::{verify_source, verify_unit, StaleRead, VerifyReport};

use ompdart_frontend::ast::{StmtKind, TranslationUnit};
use std::sync::Arc;

/// Configuration of the OMPDart pipeline: the two choices a caller makes.
/// Everything the paper describes — interprocedural summaries, the
/// `firstprivate` rule for read-only scalars, update hoisting and the
/// input contract — always runs.
#[derive(Clone, Copy, Debug, Default)]
pub struct OmpDartOptions {
    /// Unstructured device lifetimes: the same mapping decisions, spelled
    /// as one `target enter data` / `target exit data` pair at each
    /// region's boundaries ([`MappingPlan::unstructured`]), plus
    /// `collapse(n)` on perfectly nested offload loops
    /// ([`dataflow::plan_collapses`]). Surfaced as `--lifetimes`.
    pub lifetimes: bool,
    /// Opt-in: assume an unknown extern callee reads and writes **every
    /// global variable** on the host at the call site, not only the data
    /// reached through its non-`const` pointer arguments (the default
    /// assumption). Surfaced as `--pessimistic-globals` on the CLI; the
    /// synthesized accesses are explained with the
    /// `unknown_callee_pessimistic` provenance at the call site.
    pub pessimistic_globals: bool,
}

impl OmpDartOptions {
    /// Stable fingerprint of this option set, part of every persistent
    /// store key: plans produced under different options are never
    /// interchangeable.
    pub fn fingerprint(&self) -> u64 {
        pipeline::options_fingerprint(self)
    }

    /// The machine's default worker width, which [`Program::link`] runs its
    /// wavefronts at. Kept for the benchmark harness, its only caller; the
    /// width of a session's link is its [`AnalysisSession::parallelism`].
    pub fn effective_link_threads(&self) -> usize {
        pipeline::default_parallelism()
    }
}

// ---------------------------------------------------------------------------
// The Ompdart facade: builder -> tool -> unit analyses
// ---------------------------------------------------------------------------

/// Builder for the [`Ompdart`] facade.
///
/// ```
/// use ompdart_core::Ompdart;
///
/// let tool = Ompdart::builder()
///     .lifetimes(true)
///     .pessimistic_globals(true)
///     .parallelism(4)
///     .build();
/// assert!(tool.options().lifetimes && tool.options().pessimistic_globals);
/// ```
#[derive(Clone, Debug, Default)]
pub struct OmpdartBuilder {
    options: OmpDartOptions,
    parallelism: Option<usize>,
    cache_dir: Option<std::path::PathBuf>,
    cache_max_bytes: Option<u64>,
}

impl OmpdartBuilder {
    /// Opt into pessimistic-globals mode: unknown extern callees are
    /// assumed to read and write every global on the host (see
    /// [`OmpDartOptions::pessimistic_globals`]).
    pub fn pessimistic_globals(mut self, enabled: bool) -> OmpdartBuilder {
        self.options.pessimistic_globals = enabled;
        self
    }

    /// Spell each region's maps as a `target enter data` /
    /// `target exit data` pair at its boundaries instead of a `target data`
    /// region — the same plan otherwise — and give perfectly nested offload
    /// loops `collapse(n)` (see [`OmpDartOptions::lifetimes`]).
    pub fn lifetimes(mut self, enabled: bool) -> OmpdartBuilder {
        self.options.lifetimes = enabled;
        self
    }

    /// Worker-thread fan-out of every parallel phase — summarize, the
    /// link's wavefronts, planning — and of batch analyses, capped at the
    /// pool's width when it runs ([`pool::effective_width`]). Never affects
    /// results, so it is part of no cache key.
    pub fn parallelism(mut self, workers: usize) -> OmpdartBuilder {
        self.parallelism = Some(workers.max(1));
        self
    }

    /// Attach a persistent artifact store rooted at `dir`: plans are loaded
    /// from disk when the full content key matches and written back after
    /// every planning run, so a new process with the same `dir` starts
    /// warm. Corrupt, stale, or foreign-options entries are rejected.
    pub fn cache_dir(mut self, dir: impl Into<std::path::PathBuf>) -> OmpdartBuilder {
        self.cache_dir = Some(dir.into());
        self
    }

    /// Size-cap the persistent store (only meaningful together with
    /// [`OmpdartBuilder::cache_dir`]): after every write-back,
    /// least-recently-used entries are evicted until the store fits.
    pub fn cache_max_bytes(mut self, max_bytes: u64) -> OmpdartBuilder {
        self.cache_max_bytes = Some(max_bytes);
        self
    }

    /// Build the tool (one cached [`AnalysisSession`] and the two
    /// [`ProgramDriver`]s over it).
    pub fn build(self) -> Ompdart {
        let mut session = AnalysisSession::with_options(self.options);
        if let Some(workers) = self.parallelism {
            session = session.with_parallelism(workers);
        }
        if let Some(dir) = self.cache_dir {
            let mut store = ArtifactStore::open(dir);
            if let Some(max) = self.cache_max_bytes {
                store = store.with_max_bytes(max);
            }
            session = session.with_store(store);
        }
        let session = Arc::new(session);
        let driver = || Arc::new(ProgramDriver::with_session(Arc::clone(&session)));
        Ompdart {
            program: driver(),
            unit: driver(),
        }
    }
}

/// The OMPDart tool: the builder-style facade over the staged pipeline.
///
/// One `Ompdart` owns one cached [`AnalysisSession`] and two
/// [`ProgramDriver`]s over it: every analysis — one unit or many — is a
/// driver round, so analyzing the same content twice is served from the
/// artifact cache and an edit relinks only what it reached. Clones share
/// the session and the drivers.
#[derive(Clone, Debug)]
pub struct Ompdart {
    /// Rounds of [`Ompdart::analyze_program`]: the program's link state.
    program: Arc<ProgramDriver>,
    /// Rounds of [`Ompdart::analyze`], one-unit programs with a link state
    /// of their own: a unit analyzed between two rounds of a program (the
    /// daemon's `explain` between `analyze` requests) leaves the program's
    /// incremental relink and round-level fast path alone.
    unit: Arc<ProgramDriver>,
}

impl Default for Ompdart {
    fn default() -> Self {
        Ompdart::builder().build()
    }
}

impl Ompdart {
    /// Start configuring a tool.
    pub fn builder() -> OmpdartBuilder {
        OmpdartBuilder::default()
    }

    /// A tool with default options.
    pub fn new() -> Ompdart {
        Ompdart::default()
    }

    /// The active options.
    pub fn options(&self) -> &OmpDartOptions {
        self.session().options()
    }

    /// The underlying session (stage-by-stage driving, cache statistics).
    pub fn session(&self) -> &Arc<AnalysisSession> {
        self.program.session()
    }

    /// Analyze one source as a one-unit program: runs (or fetches from the
    /// cache) the complete pipeline and returns the unit's
    /// [`UnitAnalysis`]. A call into a function the unit does not define
    /// falls back to pessimistic assumptions.
    pub fn analyze(&self, name: &str, source: &str) -> Result<Arc<UnitAnalysis>, StageError> {
        match self.unit.round(&[(name, source)], false) {
            Ok((mut program, _)) => Ok(program.units.remove(0)),
            Err(ProgramError::Unit { error, .. }) => Err(error),
            // A unit defines each function once: the parser rejects a second
            // definition.
            Err(error) => unreachable!("a unit links alone: {error}"),
        }
    }

    /// Analyze many `(name, source)` pairs concurrently over this tool's
    /// shared session, preserving input order. The builder's `parallelism`
    /// governs the batch worker count as well as the per-function fan-out.
    ///
    /// Each unit is a *one-unit program* here ([`Ompdart::analyze`]): calls
    /// into other units fall back to pessimistic assumptions. Use
    /// [`Ompdart::analyze_program`] to link the inputs into one whole
    /// program instead.
    pub fn analyze_batch(
        &self,
        inputs: &[(String, String)],
    ) -> Vec<Result<Arc<UnitAnalysis>, StageError>> {
        pool::pool_map(self.session().parallelism(), inputs.len(), |i| {
            let (name, source) = &inputs[i];
            self.analyze(name, source)
        })
    }

    /// Analyze many `(name, source)` pairs as **one linked program**:
    /// parallel summarize, sequential cross-unit link (interprocedural
    /// fixed point over the merged call graph plus whole-program liveness),
    /// parallel plan. A unit's calls into sibling units resolve to their
    /// real summaries instead of the pessimistic fallback, and the result
    /// for each unit is byte-identical to analyzing the concatenation of
    /// all inputs as a single translation unit.
    pub fn analyze_program(
        &self,
        inputs: &[(String, String)],
    ) -> Result<ProgramAnalysis, ProgramError> {
        self.program.analyze_program(inputs)
    }

    /// [`Ompdart::analyze_program`] plus a [`DriverProfile`]: per-phase
    /// wall time, per-unit plan-time percentiles, identity-fast-path unit
    /// counts, and worker-pool / shard-lock counters for the call.
    pub fn analyze_program_profiled(
        &self,
        inputs: &[(String, String)],
    ) -> Result<(ProgramAnalysis, DriverProfile), ProgramError> {
        self.program.analyze_program_profiled(inputs)
    }
}

/// Find a function that already contains `target data`/`target update`
/// directives (disallowed input per Section IV-A).
fn function_with_existing_mappings(unit: &TranslationUnit) -> Option<String> {
    for func in unit.functions() {
        let mut found = false;
        if let Some(body) = &func.body {
            body.walk(&mut |s| {
                if let StmtKind::Omp(dir) = &s.kind {
                    if dir.kind.is_data_directive() {
                        found = true;
                    }
                }
            });
        }
        if found {
            return Some(func.name.to_string());
        }
    }
    None
}

/// Re-exported for downstream crates that need to parse alongside the tool.
pub use ompdart_frontend as frontend;
pub use ompdart_graph as graph;

#[cfg(test)]
mod tests {
    use super::*;
    use ompdart_sim::{simulate_source, SimConfig};

    fn analyze(name: &str, src: &str) -> Result<Arc<UnitAnalysis>, StageError> {
        Ompdart::builder().build().analyze(name, src)
    }

    /// End-to-end: the motivating Listing 1 program. OMPDart must hoist the
    /// mapping out of the loop, preserve program output, and dramatically
    /// reduce transfers.
    #[test]
    fn listing1_transform_preserves_output_and_reduces_transfers() {
        let src = "\
#define N 64
#define ITERS 20
int a[N];
int main() {
  for (int i = 0; i < ITERS; ++i) {
    #pragma omp target
    for (int j = 0; j < N; ++j) {
      a[j] += j;
    }
  }
  int checksum = 0;
  for (int j = 0; j < N; ++j) checksum += a[j];
  printf(\"%d\\n\", checksum);
  return 0;
}
";
        let analysis = analyze("listing1.c", src).expect("analysis failed");
        let before = simulate_source(src, SimConfig::default()).unwrap();
        let after = simulate_source(analysis.rewritten_source(), SimConfig::default()).unwrap();
        assert_eq!(
            before.output, after.output,
            "program output must be preserved"
        );
        assert!(after.profile.total_calls() < before.profile.total_calls());
        assert!(after.profile.total_bytes() < before.profile.total_bytes());
        // 20 iterations of implicit tofrom collapse into a single pair.
        assert_eq!(after.profile.htod_calls, 1);
        assert_eq!(after.profile.dtoh_calls, 1);
    }

    /// End-to-end: Listing 2 (back-to-back kernels).
    #[test]
    fn listing2_back_to_back_kernels() {
        let src = "\
#define N 64
int a[N];
int main() {
  #pragma omp target
  for (int i = 0; i < N; ++i) a[i] += i;
  #pragma omp target
  for (int i = 0; i < N; ++i) a[i] *= 2;
  printf(\"%d\\n\", a[10]);
  return 0;
}
";
        let analysis = analyze("listing2.c", src).unwrap();
        let before = simulate_source(src, SimConfig::default()).unwrap();
        let after = simulate_source(analysis.rewritten_source(), SimConfig::default()).unwrap();
        assert_eq!(before.output, after.output);
        assert_eq!(after.profile.htod_calls, 1);
        assert_eq!(after.profile.dtoh_calls, 1);
        assert_eq!(before.profile.htod_calls, 2);
    }

    /// End-to-end: the corrected Listing 3 pattern (host reduction inside the
    /// loop) — the tool must keep the program correct by inserting an update.
    #[test]
    fn listing3_host_reduction_stays_correct() {
        let src = "\
#define N 32
#define M 6
int a[N];
int main() {
  int sum = 0;
  for (int i = 0; i < M; ++i) {
    #pragma omp target
    for (int j = 0; j < N; ++j) {
      a[j] += j;
    }
    for (int j = 0; j < N; ++j) {
      sum += a[j];
    }
  }
  printf(\"%d\\n\", sum);
  return 0;
}
";
        let analysis = analyze("listing3.c", src).unwrap();
        assert!(analysis
            .rewritten_source()
            .contains("target update from(a)"));
        let before = simulate_source(src, SimConfig::default()).unwrap();
        let after = simulate_source(analysis.rewritten_source(), SimConfig::default()).unwrap();
        assert_eq!(
            before.output,
            after.output,
            "transformed:\n{}",
            analysis.rewritten_source()
        );
        assert!(after.profile.total_bytes() <= before.profile.total_bytes());
    }

    #[test]
    fn rejects_already_mapped_input() {
        let src = "\
#define N 8
double a[N];
void f() {
  #pragma omp target data map(tofrom: a)
  {
    #pragma omp target
    for (int i = 0; i < N; i++) a[i] = i;
  }
}
";
        let err = analyze("mapped.c", src).unwrap_err();
        assert!(matches!(err, StageError::AlreadyMapped { .. }));
    }

    #[test]
    fn parse_errors_are_reported() {
        let err = analyze("broken.c", "int main( { return 0; }\n").unwrap_err();
        assert!(matches!(err, StageError::Parse { .. }));
    }

    #[test]
    fn stats_reflect_inserted_constructs() {
        let src = "\
#define N 32
double x[N];
double y[N];
void axpy(double alpha) {
  #pragma omp target teams distribute parallel for
  for (int i = 0; i < N; i++) y[i] = alpha * x[i] + y[i];
}
";
        let analysis = analyze("axpy.c", src).unwrap();
        let stats = analysis.stats();
        assert_eq!(stats.functions_with_kernels, 1);
        assert_eq!(stats.kernels, 1);
        assert!(stats.map_clauses >= 2);
        assert_eq!(stats.firstprivate_clauses, 1);
        assert!(stats.total_constructs() >= 3);
        assert!(analysis.timings().total().as_secs_f64() < 5.0);
        assert!(analysis.plans().iter().any(|p| p.function == "axpy"));
        // The explain rendering justifies each construct on its own line.
        let explained = analysis.explain();
        assert_eq!(
            plan::justified_line_count(&explained),
            stats.total_constructs(),
            "{explained}"
        );
    }

    /// A host-only callee that rewrites a kernel's array between kernels
    /// keeps the program's output.
    #[test]
    fn host_callee_between_kernels_keeps_the_output() {
        let src = "\
#define N 64
double field[N];
void host_adjust(double *f, int n) {
  for (int i = 0; i < n; i++) f[i] = f[i] * 0.5;
}
int main() {
  for (int i = 0; i < N; i++) field[i] = i;
  for (int step = 0; step < 4; step++) {
    #pragma omp target teams distribute parallel for
    for (int i = 0; i < N; i++) field[i] += 1.0;
    host_adjust(field, N);
  }
  printf(\"%.2f\\n\", field[3]);
  return 0;
}
";
        let analysis = analyze("ip.c", src).unwrap();
        let before = simulate_source(src, SimConfig::default()).unwrap();
        let after = simulate_source(analysis.rewritten_source(), SimConfig::default()).unwrap();
        assert_eq!(
            before.output,
            after.output,
            "{}",
            analysis.rewritten_source()
        );
    }

    /// Regression: a device-written global that the host only reads through
    /// a pointer alias must keep its exit copy — the dead-exit-copy
    /// demotion may not treat it as device-only.
    #[test]
    fn pointer_alias_keeps_exit_copy() {
        let src = "\
#define N 16
double a[N];
int main() {
  double *p = a;
  for (int it = 0; it < 3; it++) {
    #pragma omp target teams distribute parallel for
    for (int i = 0; i < N; i++) a[i] = i + 1.0;
  }
  printf(\"%f\\n\", p[3]);
  return 0;
}
";
        let analysis = analyze("alias.c", src).unwrap();
        let map = analysis.plans()[0].map_for("a").expect("a must be mapped");
        assert!(
            map.map_type.copies_to_host(),
            "alias read requires from/tofrom, got {:?}\n{}",
            map.map_type,
            analysis.rewritten_source()
        );
        let before = simulate_source(src, SimConfig::default()).unwrap();
        let after = simulate_source(analysis.rewritten_source(), SimConfig::default()).unwrap();
        assert_eq!(
            before.output,
            after.output,
            "{}",
            analysis.rewritten_source()
        );
    }

    /// Scalars that stay read-only on the device become firstprivate and the
    /// transformed program still matches.
    #[test]
    fn firstprivate_end_to_end() {
        let src = "\
#define N 128
double data[N];
int main() {
  double scale = 1.5;
  int offset = 3;
  #pragma omp target teams distribute parallel for
  for (int i = 0; i < N; i++) data[i] = scale * i + offset;
  printf(\"%.1f\\n\", data[10]);
  return 0;
}
";
        let analysis = analyze("fp.c", src).unwrap();
        assert!(analysis.rewritten_source().contains("firstprivate("));
        let before = simulate_source(src, SimConfig::default()).unwrap();
        let after = simulate_source(analysis.rewritten_source(), SimConfig::default()).unwrap();
        assert_eq!(before.output, after.output);
        assert!(after.profile.total_calls() <= before.profile.total_calls());
    }

    /// The facade's batch path preserves input order and shares the cache.
    #[test]
    fn facade_batch_preserves_order() {
        let inputs: Vec<(String, String)> = (0..4)
            .map(|i| {
                (
                    format!("u{i}.c"),
                    format!(
                        "#define N 16\ndouble a{i}[N];\nvoid f{i}() {{\n  #pragma omp target teams distribute parallel for\n  for (int j = 0; j < N; j++) a{i}[j] = j;\n}}\n"
                    ),
                )
            })
            .collect();
        let tool = Ompdart::builder().parallelism(4).build();
        let results = tool.analyze_batch(&inputs);
        assert_eq!(results.len(), 4);
        for (i, result) in results.iter().enumerate() {
            let analysis = result.as_ref().expect("unit failed");
            assert!(analysis
                .plans()
                .iter()
                .any(|p| p.function == format!("f{i}")));
        }
    }
}
