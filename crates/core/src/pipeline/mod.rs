//! The staged analysis pipeline behind OMPDart.
//!
//! The paper's workflow (Figure 1) is an explicit multi-stage pipeline:
//! parse, graph construction, memory-access classification,
//! interprocedural summaries, host/device data-flow planning, and source
//! rewriting. This module models each of those stages as a first-class,
//! independently runnable artifact:
//!
//! * [`ParsedUnit`] — frontend output (source file + AST + diagnostics),
//! * [`GraphsArtifact`] — per-function statement indexes (this planner's
//!   stand-in for the paper's hybrid AST-CFG: it reads control flow from
//!   the AST),
//! * [`AccessArtifact`] — classified accesses and symbol tables,
//! * [`SummariesArtifact`] — every function's *seed* side-effect summary,
//!   what its own statements do; converging seeds over call sites is the
//!   link's work ([`crate::program`]), for a unit alone as for a program,
//! * [`PlansArtifact`] — per-function [`MappingPlan`](crate::MappingPlan)s
//!   plus statistics,
//! * [`RewriteOutput`] — the transformed source.
//!
//! Every artifact records the wall-clock time its stage took
//! ([`StageTimings`] aggregates them) and stage failures are typed
//! ([`StageError`]).
//!
//! An [`AnalysisSession`] drives the stages along **one path**:
//! [`AnalysisSession::summarize`] yields a unit as the link stage consumes
//! it — a [`SummarizedUnit`]: its *interface* (what the link reads of it)
//! and, in a releasable cell, its *body* ([`UnitBody`]: parse → graphs →
//! accesses → seeds), built at once for a unit that has to be parsed
//! and on demand for one whose interface the persistent store held (or
//! whose body [`release_bodies`] dropped) — and
//! [`AnalysisSession::analyze_linked`] plans and rewrites it under a
//! [`LinkContext`](crate::program::LinkContext), or loads plans and rewrite
//! from the store without touching the body. Every analysis gets its
//! contexts from the link stage ([`crate::program`]) through a
//! [`crate::program::ProgramDriver`] round — a single unit is a one-unit
//! program, so a call into another file has no summary: there is one
//! fixed point, one unit table, one store probe and one planning call for
//! every analysis. Finished artifacts live in the session's unit table,
//! indexed by unit name and verified against the source bytes, so repeated
//! analysis of unchanged sources is near-free, and the planning stage fans
//! out per function over the session's worker pool. An *edited* unit runs
//! every stage whole, by the pure `stage_*` functions ([`stage_parse`] …)
//! — the session has no second flavour of them: nothing finer than a unit
//! is cached, and a unit's plans are keyed by its content and by what they
//! can read of the rest of the program
//! ([`crate::program::LinkContext::imports_fingerprint`]).
//!
//! ```
//! use ompdart_core::pipeline::AnalysisSession;
//! use ompdart_core::ProgramDriver;
//! use std::sync::Arc;
//!
//! let src = "\
//! #define N 64
//! double a[N];
//! int main() {
//!   for (int it = 0; it < 4; it++) {
//!     #pragma omp target teams distribute parallel for
//!     for (int i = 0; i < N; i++) a[i] += 1.0;
//!   }
//!   printf(\"%f\\n\", a[0]);
//!   return 0;
//! }
//! ";
//! let session = Arc::new(AnalysisSession::new());
//! let driver = ProgramDriver::with_session(Arc::clone(&session));
//! let unit = [("demo.c".to_string(), src.to_string())];
//! let analysis = driver.analyze_program(&unit).unwrap().units.remove(0);
//! assert!(analysis.rewrite.source.contains("#pragma omp target data"));
//! // The second round over identical content is the first one's: same
//! // artifacts, no stage re-run, not even a link.
//! let again = driver.analyze_program(&unit).unwrap().units.remove(0);
//! assert!(Arc::ptr_eq(&analysis, &again));
//! assert_eq!(session.cache_stats().fast_path_hits, 1);
//! assert_eq!(session.cache_stats().analysis_misses, 1);
//! ```
//!
//! One file per decision: `stages.rs` holds the artifacts and the pure stage
//! functions, `key.rs` every fingerprint a cache key is made of, `unit.rs` a
//! unit's body, interface and analysis, and `session.rs` the unit table and
//! [`AnalysisSession`]. This file keeps the stage vocabulary: [`Stage`],
//! [`StageError`] and [`StageTimings`].

pub(crate) mod key;
mod session;
mod stages;
mod unit;

pub use key::options_fingerprint;
pub(crate) use session::default_parallelism;
pub use session::AnalysisSession;
pub(crate) use stages::closed_world_of;
pub use stages::{
    check_input_contract, stage_accesses, stage_graphs, stage_parse, stage_plans, stage_rewrite,
    stage_summaries, AccessArtifact, FunctionKeySnapshot, GraphsArtifact, ParsedUnit,
    PlansArtifact, RewriteOutput, SummariesArtifact,
};
pub use unit::{release_bodies, SummarizedUnit, UnitAnalysis, UnitBody};

use ompdart_frontend::diag::Diagnostics;
use std::fmt;
use std::time::Duration;

/// The six pipeline stages, in execution order (paper Figure 1).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Stage {
    Parse,
    Graphs,
    Accesses,
    Summaries,
    Plan,
    Rewrite,
}

impl Stage {
    /// All stages in execution order.
    pub const ALL: [Stage; 6] = [
        Stage::Parse,
        Stage::Graphs,
        Stage::Accesses,
        Stage::Summaries,
        Stage::Plan,
        Stage::Rewrite,
    ];

    /// Human-readable stage name.
    pub fn name(&self) -> &'static str {
        match self {
            Stage::Parse => "parse",
            Stage::Graphs => "graphs",
            Stage::Accesses => "accesses",
            Stage::Summaries => "summaries",
            Stage::Plan => "plan",
            Stage::Rewrite => "rewrite",
        }
    }

    /// Parse a stage name (the inverse of [`Stage::name`], used by the plan
    /// JSON deserialization).
    pub fn from_name(name: &str) -> Option<Stage> {
        Stage::ALL.into_iter().find(|s| s.name() == name)
    }
}

impl fmt::Display for Stage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A typed failure of one pipeline stage.
#[derive(Clone, Debug)]
pub enum StageError {
    /// The frontend stage failed: the input does not parse.
    Parse {
        name: String,
        diagnostics: Diagnostics,
    },
    /// The input-contract check failed: the source already contains explicit
    /// data-mapping directives (Section IV-A).
    AlreadyMapped { function: String },
}

impl StageError {
    /// The stage that failed.
    pub fn stage(&self) -> Stage {
        match self {
            StageError::Parse { .. } => Stage::Parse,
            StageError::AlreadyMapped { .. } => Stage::Parse,
        }
    }
}

impl fmt::Display for StageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StageError::Parse { name, diagnostics } => write!(
                f,
                "`{name}` failed to parse with {} error(s)",
                diagnostics.error_count()
            ),
            StageError::AlreadyMapped { function } => write!(
                f,
                "function `{function}` already contains target data/update directives; \
                 OMPDart expects input without explicit data mappings"
            ),
        }
    }
}

impl std::error::Error for StageError {}

/// Wall-clock time spent in each pipeline stage, indexed by [`Stage`].
#[derive(Clone, Copy, Debug, Default)]
pub struct StageTimings([Duration; Stage::ALL.len()]);

impl StageTimings {
    /// Time of one stage.
    pub fn of(&self, stage: Stage) -> Duration {
        self.0[stage as usize]
    }

    /// Total across all stages.
    pub fn total(&self) -> Duration {
        self.0.iter().sum()
    }

    /// Accumulate another timing set into this one.
    pub fn merge(&mut self, other: &StageTimings) {
        for (mine, theirs) in self.0.iter_mut().zip(other.0) {
            *mine += theirs;
        }
    }
}

impl fmt::Display for StageTimings {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, stage) in Stage::ALL.iter().enumerate() {
            if i > 0 {
                f.write_str("  ")?;
            }
            write!(f, "{}={:.3}ms", stage, self.of(*stage).as_secs_f64() * 1e3)?;
        }
        write!(f, "  total={:.3}ms", self.total().as_secs_f64() * 1e3)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::UnitServe;
    use crate::OmpDartOptions;
    use std::sync::Arc;

    const DEMO: &str = "\
#define N 32
double a[N];
int main() {
  for (int it = 0; it < 4; it++) {
    #pragma omp target teams distribute parallel for
    for (int i = 0; i < N; i++) a[i] += 1.0;
  }
  printf(\"%f\\n\", a[0]);
  return 0;
}
";

    #[test]
    fn stages_compose_to_the_one_shot_result() {
        let options = OmpDartOptions::default();
        let parsed = stage_parse("demo.c", DEMO).unwrap();
        let graphs = stage_graphs(&parsed.unit);
        let accesses = stage_accesses(&parsed.unit, &graphs);
        let summaries = stage_summaries(&parsed.unit, &accesses, &options);
        let plans = stage_plans(&parsed.unit, &graphs, &accesses, &summaries, &options, 1);
        let rewrite = stage_rewrite(&parsed, &graphs, &plans);

        let one_shot = crate::Ompdart::new().analyze("demo.c", DEMO).unwrap();
        assert_eq!(one_shot.rewrite.source, rewrite.source);
        assert_eq!(one_shot.plans.stats, plans.stats);
        assert_eq!(one_shot.plans.plans, plans.plans);
    }

    /// Every option combination keys its own plans.
    #[test]
    fn each_option_combination_has_its_own_fingerprint() {
        let mut fingerprints: Vec<u64> = [false, true]
            .map(|pessimistic_globals| {
                options_fingerprint(&OmpDartOptions {
                    pessimistic_globals,
                })
            })
            .to_vec();
        fingerprints.sort_unstable();
        fingerprints.dedup();
        assert_eq!(fingerprints.len(), 2);
    }

    #[test]
    fn cache_hits_skip_every_stage() {
        let tool = crate::Ompdart::new();
        let session = tool.session();
        let first = tool.analyze("demo.c", DEMO).unwrap();
        let before = session.cache_stats();
        let second = tool.analyze("demo.c", DEMO).unwrap();
        assert!(
            Arc::ptr_eq(&first, &second),
            "cache hit must return the same artifacts"
        );
        let moved = session.cache_stats() - before;
        assert_eq!(
            (moved.summarize_hits, moved.fast_path_hits),
            (1, 1),
            "{moved:?}"
        );
        let ran = moved.parse_misses + moved.summarize_misses + moved.analysis_misses;
        assert_eq!(ran, 0, "a cache hit must not run a stage: {moved:?}");
        assert_eq!(session.cache_stats().parse_misses, 1);
    }

    #[test]
    fn stage_errors_are_typed() {
        let tool = crate::Ompdart::new();
        let err = tool
            .analyze("broken.c", "int main( { return 0; }\n")
            .unwrap_err();
        assert!(matches!(err, StageError::Parse { .. }));
        assert_eq!(err.stage(), Stage::Parse);

        let mapped = "\
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
        let err = tool.analyze("mapped.c", mapped).unwrap_err();
        assert!(matches!(err, StageError::AlreadyMapped { .. }));
    }

    #[test]
    fn parallel_plan_stage_matches_serial() {
        let src = "\
#define N 16
double a[N];
double b[N];
void f() {
  #pragma omp target teams distribute parallel for
  for (int i = 0; i < N; i++) a[i] = i;
}
void g() {
  #pragma omp target teams distribute parallel for
  for (int i = 0; i < N; i++) b[i] = 2 * i;
}
int main() { f(); g(); printf(\"%f %f\\n\", a[1], b[1]); return 0; }
";
        let serial = crate::Ompdart::builder().parallelism(1).build();
        let parallel = crate::Ompdart::builder().parallelism(4).build();
        let a = serial.analyze("fg.c", src).unwrap();
        let b = parallel.analyze("fg.c", src).unwrap();
        assert_eq!(a.rewrite.source, b.rewrite.source);
        assert_eq!(a.plans.stats, b.plans.stats);
        let funcs: Vec<_> = a.plans.plans.iter().map(|p| p.function.clone()).collect();
        let funcs_b: Vec<_> = b.plans.plans.iter().map(|p| p.function.clone()).collect();
        assert_eq!(funcs, funcs_b, "plan order must be deterministic");
    }

    #[test]
    fn batch_driver_analyzes_units_concurrently_and_in_order() {
        let inputs: Vec<(String, String)> = (0..6)
            .map(|i| {
                (
                    format!("unit{i}.c"),
                    format!(
                        "#define N 32\ndouble arr{i}[N];\nint main() {{\n  for (int t = 0; t < 3; t++) {{\n    #pragma omp target teams distribute parallel for\n    for (int j = 0; j < N; j++) arr{i}[j] += {i};\n  }}\n  printf(\"%f\\n\", arr{i}[0]);\n  return 0;\n}}\n"
                    ),
                )
            })
            .collect();
        let tool = crate::Ompdart::builder().parallelism(4).build();
        let results = tool.analyze_batch(&inputs);
        assert_eq!(results.len(), 6);
        for (i, result) in results.iter().enumerate() {
            let analysis = result.as_ref().expect("unit failed");
            assert_eq!(analysis.unit().name(), format!("unit{i}.c"));
            assert!(analysis.rewrite.source.contains("#pragma omp target data"));
        }
        assert_eq!(tool.session().cache_stats().analysis_misses, 6);

        // Re-running the same corpus is served from the cache: each unit's
        // one-unit program finds its analysis resident.
        let again = tool.analyze_batch(&inputs);
        let stats = tool.session().cache_stats();
        assert_eq!((stats.fast_path_hits, stats.analysis_misses), (6, 6));
        for (a, b) in results.iter().zip(&again) {
            assert!(Arc::ptr_eq(a.as_ref().unwrap(), b.as_ref().unwrap()));
        }
    }

    const TWO_FUNCS: &str = "\
#define N 24
double a[N];
double b[N];
void fa() {
  #pragma omp target teams distribute parallel for
  for (int i = 0; i < N; i++) a[i] = i;
}
void fb() {
  #pragma omp target teams distribute parallel for
  for (int i = 0; i < N; i++) b[i] = 2 * i;
}
int main() { fa(); fb(); printf(\"%f %f\\n\", a[1], b[1]); return 0; }
";

    /// Editing one function's body re-plans its unit — one analysis, every
    /// function of it — and the result is identical to a cold analysis of
    /// the edited source: plans (node ids, spans), stats, and rewrite bytes.
    #[test]
    fn one_function_edit_replans_only_that_function() {
        let tool = crate::Ompdart::new();
        let session = tool.session();
        tool.analyze("two.c", TWO_FUNCS).unwrap();
        let stats = session.cache_stats();
        assert_eq!((stats.analysis_misses, stats.function_plan_misses), (1, 3));

        // Grow fa's body: every later function moves in both byte offsets
        // and node ids.
        let edited = TWO_FUNCS.replace("a[i] = i;", "a[i] = i + 1.0;");
        assert_ne!(edited, TWO_FUNCS);
        let incremental = tool.analyze("two.c", &edited).unwrap();
        let moved = session.cache_stats() - stats;
        assert_eq!(
            (moved.analysis_misses, moved.function_plan_misses),
            (1, 3),
            "the edited unit is planned whole, once: {moved:?}"
        );

        let fresh = crate::Ompdart::new().analyze("two.c", &edited).unwrap();
        assert_eq!(fresh.rewrite.source, incremental.rewrite.source);
        assert_eq!(fresh.plans.stats, incremental.plans.stats);
        assert_eq!(fresh.plans.plans, incremental.plans.plans);
    }

    /// An edit *before* the functions (a macro change) invalidates every
    /// function: macros expand into bodies, so no cached plan may survive.
    #[test]
    fn environment_edit_invalidates_every_function() {
        let tool = crate::Ompdart::new();
        tool.analyze("two.c", TWO_FUNCS).unwrap();
        let edited = TWO_FUNCS.replace("#define N 24", "#define N 48");
        let incremental = tool.analyze("two.c", &edited).unwrap();
        let stats = tool.session().cache_stats();
        assert_eq!((stats.analysis_misses, stats.function_plan_misses), (2, 6));
        let cold = crate::Ompdart::new().analyze("two.c", &edited).unwrap();
        assert_eq!(cold.rewrite.source, incremental.rewrite.source);
    }

    /// A callee's changed interprocedural summary re-plans its caller even
    /// though the caller's own body is unchanged.
    #[test]
    fn callee_summary_change_replans_caller() {
        let src = "\
#define N 16
double buf[N];
double sink;
void helper(double *p, int n) {
  for (int i = 0; i < n; i++) sink = sink + p[i];
}
void driver() {
  for (int it = 0; it < 3; it++) {
    #pragma omp target teams distribute parallel for
    for (int i = 0; i < N; i++) buf[i] += 1.0;
    helper(buf, N);
  }
}
";
        let tool = crate::Ompdart::new();
        tool.analyze("ip.c", src).unwrap();
        // helper turns from a reader into a writer of its parameter:
        // driver's plan must be recomputed even though its body text is
        // unchanged (same length, same node count).
        let edited = src.replace("sink = sink + p[i];", "p[i] = sink + 0.25;");
        assert_eq!(edited.len(), src.len());
        let incremental = tool.analyze("ip.c", &edited).unwrap();
        let stats = tool.session().cache_stats();
        assert_eq!(
            (stats.analysis_misses, stats.function_plan_misses),
            (2, 4),
            "both helper and driver must be re-planned"
        );
        let cold = crate::Ompdart::new().analyze("ip.c", &edited).unwrap();
        assert_eq!(cold.rewrite.source, incremental.rewrite.source);
        assert_eq!(cold.plans.plans, incremental.plans.plans);
    }

    /// The unit table is indexed by name and verified against the source:
    /// the same content under another name, or other content under the same
    /// name, is a different unit — never another file's artifacts.
    #[test]
    fn cache_hits_verify_full_key() {
        let tool = crate::Ompdart::new();
        let session = tool.session();
        let a = tool.analyze("x.c", TWO_FUNCS).unwrap();
        // Same content, other name: its own parse, its own diagnostics name.
        let renamed = tool.analyze("y.c", TWO_FUNCS).unwrap();
        assert!(!Arc::ptr_eq(&a, &renamed));
        assert_eq!(renamed.unit().body().parsed.name, "y.c");
        // Same name, other content: the resident version must be skipped.
        let other = tool.analyze("x.c", DEMO).unwrap();
        assert_eq!(other.source_file().text(), DEMO);
        assert_eq!(session.cache_stats().analysis_misses, 3);
        // Both versions of `x.c` are resident, each under its own bytes.
        let again = tool.analyze("x.c", TWO_FUNCS).unwrap();
        assert!(Arc::ptr_eq(&a, &again));
        let resummarized = session.summarize("x.c", DEMO).unwrap();
        assert!(Arc::ptr_eq(&resummarized, other.unit()));
        assert_eq!(session.cache_stats().analysis_misses, 3);
        assert_eq!(session.cache_stats().parse_misses, 3);
    }

    /// `release_bodies` drops the body of each unit it is given and
    /// nothing else: an analysis answers as before from its unit (rewrite,
    /// `explain`, diagnostics), a warm repeat parses nothing, planning
    /// rebuilds the body once, and a unit whose parse warned keeps its
    /// body, so the warning is still shown.
    #[test]
    fn a_release_drops_the_answered_bodies() {
        let tool = crate::Ompdart::new();
        let session = tool.session();
        let analysis = tool.analyze("demo.c", DEMO).unwrap();
        let explained = analysis.explain();
        assert_eq!(release_bodies([&analysis]), 1);
        assert!(analysis.unit().body_if_built().is_none());
        assert_eq!(release_bodies([&analysis]), 0, "nothing left to drop");
        assert_eq!(analysis.explain(), explained);
        assert!(analysis.diagnostics().is_empty());
        let before = session.cache_stats();
        assert!(Arc::ptr_eq(
            &analysis,
            &tool.analyze("demo.c", DEMO).unwrap()
        ));
        assert_eq!((session.cache_stats() - before).parse_misses, 0);
        assert!(analysis.unit().body_if_built().is_none());

        // A round that has to plan the unit again rebuilds its body, once.
        let body = analysis.unit().body_through(Some(session));
        assert!(Arc::ptr_eq(&body, &analysis.unit().body()));
        assert_eq!((session.cache_stats() - before).parse_misses, 1);
        assert_eq!(
            stage_rewrite(&body.parsed, &body.graphs, &analysis.plans).source,
            analysis.rewrite.source
        );

        let warned = format!("#if MYSTERY\n#endif\n{DEMO}");
        let analysis = tool.analyze("warned.c", &warned).unwrap();
        assert_eq!(analysis.diagnostics().len(), 1);
        assert_eq!(release_bodies([&analysis]), 0);
        assert!(analysis.unit().body_if_built().is_some());
        assert_eq!(analysis.diagnostics().len(), 1);
    }

    /// Ledger finding 4: a long-lived session is bounded by construction.
    /// One unit of a three-unit program goes through 100 distinct versions,
    /// each followed by its revert and a one-unit request for the same unit
    /// on a driver of its own. Nothing evicts by hand; every revert round and
    /// every one-unit request after the first is served from memory; and once
    /// version k+2 has been analyzed nothing of version k is alive — not
    /// the edited unit's artifacts, not the analysis its importer got under
    /// that version's interface.
    #[test]
    fn superseded_versions_are_released_while_reverts_stay_cached() {
        // Version `k` of the edited unit also touches a global of its own on
        // the device, so `fill`'s summary moves on a device global — and with
        // it the importing unit's imports fingerprint — in every version.
        let helper = |k: usize| {
            format!(
                "extern double field[64];\ndouble seen_{k};\n\
                 void fill(int n) {{\n\
                 \x20 #pragma omp target teams distribute parallel for\n\
                 \x20 for (int i = 0; i < 1; i++) seen_{k} += 1.0;\n\
                 \x20 for (int i = 0; i < n; i++) field[i] = {k}.0 * i;\n}}\n"
            )
        };
        let base: Vec<(String, String)> = vec![
            ("helper.c".into(), helper(0)),
            (
                "leaf.c".into(),
                "double side[8];
void bump(void) { side[0] += 1.0; }
"
                .into(),
            ),
            (
                "main.c".into(),
                "double field[64];
void fill(int n);
void bump(void);
                 int main() {
  fill(64);
  bump();
                   #pragma omp target teams distribute parallel for
                   for (int i = 0; i < 64; i++) field[i] += 1.0;
                   fill(64);
  printf(\"%f\\n\", field[3]);
  return 0;
}
"
                .into(),
            ),
        ];
        let session = Arc::new(AnalysisSession::new());
        let driver = crate::program::ProgramDriver::with_session(Arc::clone(&session));
        let alone = crate::program::ProgramDriver::with_session(Arc::clone(&session));
        driver.analyze_program(&base).unwrap();
        alone.analyze_program(&base[..1]).unwrap();

        // Per version: the edited unit's summarized artifacts and analysis,
        // and the importer's analysis under that version's interface.
        type Handles = (
            std::sync::Weak<SummarizedUnit>,
            std::sync::Weak<UnitAnalysis>,
            std::sync::Weak<UnitAnalysis>,
        );
        let mut handles: Vec<Handles> = Vec::new();
        for k in 0..100 {
            let mut edited = base.clone();
            edited[0].1 = helper(k + 1);
            let round = driver.analyze_program(&edited).unwrap();
            assert_eq!(round.served[0], UnitServe::Planned);
            assert_eq!(round.served[1], UnitServe::Cached);
            assert_eq!(round.served[2], UnitServe::Planned);
            handles.push((
                Arc::downgrade(&session.summarize("helper.c", &edited[0].1).unwrap()),
                Arc::downgrade(&round.units[0]),
                Arc::downgrade(&round.units[2]),
            ));
            drop(round);

            let reverted = driver.analyze_program(&base).unwrap();
            assert!(
                reverted.served.iter().all(|s| *s == UnitServe::Cached),
                "revert of version {k}: {:?}",
                reverted.served
            );
            let served = alone.analyze_program(&base[..1]).unwrap().served;
            assert_eq!(served, [UnitServe::Cached], "one-unit request after {k}");

            if k >= 2 {
                let (unit, analysis, importer) = &handles[k - 2];
                assert!(unit.upgrade().is_none(), "version {} is alive", k - 2);
                assert!(analysis.upgrade().is_none(), "version {} is alive", k - 2);
                assert!(
                    importer.upgrade().is_none(),
                    "the importer's analysis under version {} is alive",
                    k - 2
                );
            }
        }
        // Evicting by hand still works, one slot at a time: the base version
        // goes, the named one stays, other units are untouched.
        let last = helper(100);
        session.evict_stale_versions("helper.c", &last);
        let before = session.cache_stats();
        session.summarize("helper.c", &last).unwrap();
        session.summarize("leaf.c", &base[1].1).unwrap();
        session.summarize("helper.c", &base[0].1).unwrap();
        let moved = session.cache_stats() - before;
        assert_eq!((moved.summarize_hits, moved.summarize_misses), (2, 1));
    }

    /// The persistent store round-trips through a "process restart": a new
    /// session over the same cache dir serves plans from disk and rewrites
    /// byte-identically without planning anything.
    #[test]
    fn persistent_store_survives_session_restart() {
        let dir =
            std::env::temp_dir().join(format!("ompdart-pipeline-store-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);

        let first = crate::Ompdart::builder().cache_dir(&dir).build();
        let cold = first.analyze("two.c", TWO_FUNCS).unwrap();
        let stats = first.session().cache_stats();
        assert_eq!(stats.store_hits, 0);
        assert_eq!(stats.store_misses, 1);
        let store = first.session().artifact_store().unwrap();
        assert_eq!(store.entry_count(), 1);

        let second = crate::Ompdart::builder().cache_dir(&dir).build();
        let warm = second.analyze("two.c", TWO_FUNCS).unwrap();
        let stats = second.session().cache_stats();
        assert_eq!(stats.store_hits, 1);
        assert_eq!(stats.store_misses, 0);
        assert_eq!(
            stats.function_plan_misses, 0,
            "a store hit must not plan any function"
        );
        assert_eq!(warm.rewrite.source, cold.rewrite.source);
        assert_eq!(warm.plans.plans, cold.plans.plans);
        assert_eq!(warm.plans.stats, cold.plans.stats);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Two units carrying one header-defined `static` kernel function,
    /// through one cache directory: each unit plans its own copy (nothing
    /// finer than a unit is cached, so the copies do not warm each other),
    /// both rewrite exactly as they do without a store, a second process is
    /// served both from their unit records without planning a function, and
    /// the pack indexes unit and interface records only.
    #[test]
    fn shared_static_function_is_served_from_unit_records_only() {
        let dir = std::env::temp_dir().join(format!("ompdart-fn-store-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);

        let header = "\
#define N 32
double shared_buf[N];
static void touch_shared(void) {
  for (int it = 0; it < 3; it++) {
    #pragma omp target teams distribute parallel for
    for (int i = 0; i < N; i++) shared_buf[i] += 1.0;
  }
  printf(\"%f\\n\", shared_buf[0]);
}
";
        let unit = |entry: &str| format!("{header}\nvoid {entry}(void) {{ touch_shared(); }}\n");
        let inputs = vec![
            ("a.c".to_string(), unit("a_entry")),
            ("b.c".to_string(), unit("b_entry")),
        ];
        let run = |session: AnalysisSession| {
            let session = Arc::new(session.with_parallelism(1));
            let driver = crate::program::ProgramDriver::with_session(Arc::clone(&session));
            let analysis = driver.analyze_program(&inputs).unwrap();
            let rewrites: Vec<String> = (analysis.units.iter())
                .map(|unit| unit.rewrite.source.clone())
                .collect();
            (rewrites, session)
        };

        let (plain, _) = run(AnalysisSession::new());
        let (populated, first) = run(AnalysisSession::new().with_cache_dir(&dir));
        assert_eq!(populated, plain, "a store must not change a rewrite");
        let stats = first.cache_stats();
        assert_eq!(
            (stats.analysis_misses, stats.function_plan_misses),
            (2, 4),
            "each unit plans its own copy of the shared static: {stats:?}"
        );
        // `analyze_program` flushed the write-behind queue: two unit and
        // two interface records, and no third kind.
        let store = first.artifact_store().unwrap();
        assert_eq!(store.entry_count(), 2);
        assert_eq!(store.gc(u64::MAX).entries_before, 4);

        // A second process: both units from their unit records.
        let (restarted, second) = run(AnalysisSession::new().with_cache_dir(&dir));
        assert_eq!(restarted, plain);
        let stats = second.cache_stats();
        assert_eq!((stats.store_hits, stats.store_misses), (2, 0), "{stats:?}");
        assert_eq!(stats.interface_store_hits, 2, "{stats:?}");
        assert_eq!(
            (stats.function_plan_misses, stats.parse_misses),
            (0, 0),
            "{stats:?}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn timings_cover_every_stage() {
        let analysis = crate::Ompdart::new().analyze("demo.c", DEMO).unwrap();
        let timings = analysis.timings();
        assert!(timings.total() > Duration::ZERO);
        let rendered = format!("{timings}");
        for stage in Stage::ALL {
            assert!(rendered.contains(stage.name()), "{rendered}");
        }
    }
}
