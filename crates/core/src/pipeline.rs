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
//! * [`PlansArtifact`] — per-function [`MappingPlan`]s plus statistics,
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
//! [`LinkContext`], or loads plans and rewrite from the store without
//! touching the body. Every analysis gets its contexts from the link stage
//! ([`crate::program`]) through a [`crate::program::ProgramDriver`] round —
//! a single unit is a one-unit program, so a call into another file has no
//! summary: there is one fixed point, one unit table, one store probe and
//! one planning call for every analysis. Finished artifacts live in
//! the session's unit table, indexed by unit name and verified against the
//! source bytes, so repeated analysis of unchanged sources is near-free, and
//! the planning stage fans out per function over the session's worker pool.
//! An *edited* unit runs every stage whole, by the pure `stage_*` functions
//! below — the session has no second flavour of them: nothing finer than a
//! unit is cached, and a unit's plans are keyed by its content and by what
//! they can read of the rest of the program
//! ([`LinkContext::imports_fingerprint`]).
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

use crate::access::{FunctionAccesses, SymbolTable};
use crate::dataflow::{plan_collapses, plan_function};
use crate::interface::{source_name, UnitExports};
use crate::interproc::{augment_with_call_effects, seed_summary, DeviceNames, FunctionSummary};
use crate::plan::explain::explain_plans;
use crate::plan::ir::{AnalysisStats, MappingPlan};
use crate::plan::json::{plans_to_json, plans_to_json_compact, write_json_string};
use crate::program::{LinkContext, LinkState, Program, UnitServe};
use crate::rewrite;
use crate::shard::ShardMap;
use crate::stats::{AtomicCacheStats, CacheStats, Counter};
use crate::store::{self, ArtifactStore};
use crate::{function_with_existing_mappings, OmpDartOptions};
use ompdart_frontend::ast::TranslationUnit;
use ompdart_frontend::diag::Diagnostics;
use ompdart_frontend::parser::parse_source;
use ompdart_frontend::source::SourceFile;
use ompdart_frontend::Symbol;
use ompdart_graph::ProgramGraphs;
use std::collections::HashMap;
use std::fmt;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use std::time::{Duration, Instant};

// ---------------------------------------------------------------------------
// Stages, errors and timings
// ---------------------------------------------------------------------------

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

/// Incremental FNV-1a hasher shared by the cache-key fingerprints (also
/// used by the link stage's interface fingerprints).
pub(crate) struct Fnv(u64);

impl Fnv {
    pub(crate) fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub(crate) fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub(crate) fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    pub(crate) fn write_str(&mut self, s: &str) {
        self.write(s.as_bytes());
        self.write(&[0]);
    }

    pub(crate) fn finish(&self) -> u64 {
        self.0
    }
}

/// Stable fingerprint of an [`OmpDartOptions`] value. Part of every
/// persistent store key: plans produced under different options are never
/// interchangeable. The destructuring names every field,
/// so a new option cannot be left out of the keys.
pub fn options_fingerprint(options: &OmpDartOptions) -> u64 {
    let OmpDartOptions {
        lifetimes,
        pessimistic_globals,
    } = *options;
    let mut h = Fnv::new();
    h.write(&[u8::from(pessimistic_globals), u8::from(lifetimes)]);
    h.finish()
}

// ---------------------------------------------------------------------------
// Stage artifacts and the pure stage functions
// ---------------------------------------------------------------------------

/// Frontend artifact: the parsed translation unit.
#[derive(Debug)]
pub struct ParsedUnit {
    /// File name used in diagnostics.
    pub name: String,
    /// The source file (spans in the AST point into it).
    pub file: SourceFile,
    /// The typed AST.
    pub unit: TranslationUnit,
    /// Parse-time warnings and notes.
    pub diagnostics: Diagnostics,
    /// Wall-clock time of the parse stage.
    pub elapsed: Duration,
}

/// Graph artifact: the statement index of every function.
#[derive(Debug)]
pub struct GraphsArtifact {
    pub graphs: ProgramGraphs,
    pub elapsed: Duration,
}

/// Access artifact: classified memory accesses and per-function symbols.
#[derive(Debug)]
pub struct AccessArtifact {
    pub accesses: HashMap<Symbol, FunctionAccesses>,
    pub symbols: HashMap<Symbol, SymbolTable>,
    pub elapsed: Duration,
}

/// Interprocedural artifact: per-function seed summaries.
#[derive(Debug)]
pub struct SummariesArtifact {
    /// The per-function *local* (direct-effect) seeds, keyed by function
    /// name: what the link's fixed point converges, for the unit alone or
    /// across a program. `Arc`'d: a seed is shared by this map, the unit's
    /// interface and the link without ever being deep-copied.
    pub seeds: HashMap<Symbol, Arc<FunctionSummary>>,
    pub elapsed: Duration,
}

/// Planning artifact: per-function mapping plans plus statistics.
#[derive(Debug)]
pub struct PlansArtifact {
    pub plans: Vec<MappingPlan>,
    pub stats: AnalysisStats,
    /// Diagnostics produced by the data-flow analysis.
    pub diagnostics: Diagnostics,
    /// Always empty: see [`FunctionKeySnapshot`].
    pub function_keys: Vec<FunctionKeySnapshot>,
    pub elapsed: Duration,
}

/// The interface of the retired function-granular plan cache. Nothing has
/// one — the enum has no variant, and [`PlansArtifact::function_keys`] and
/// [`crate::store::PendingUnitSave::functions`] stay empty: a unit is planned
/// whole. Kept only because the benchmark harness (`ledger/src/layers.rs`)
/// still names those two fields for its store probe.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FunctionKeySnapshot {}

/// Rewrite artifact: the transformed source text.
#[derive(Debug)]
pub struct RewriteOutput {
    pub source: String,
    pub elapsed: Duration,
}

/// Stage 1 — parse source text into a [`ParsedUnit`].
pub fn stage_parse(name: &str, source: &str) -> Result<ParsedUnit, StageError> {
    stage_parse_shared(name, Arc::new(source.to_string()))
}

/// [`stage_parse`] of text the caller keeps too: the unit's [`SourceFile`]
/// shares it.
fn stage_parse_shared(name: &str, source: Arc<String>) -> Result<ParsedUnit, StageError> {
    let start = Instant::now();
    let file = SourceFile::shared(name, source);
    let parse = parse_source(&file);
    if !parse.is_ok() {
        return Err(StageError::Parse {
            name: name.to_string(),
            diagnostics: parse.diagnostics,
        });
    }
    Ok(ParsedUnit {
        name: name.to_string(),
        file,
        unit: parse.unit,
        diagnostics: parse.diagnostics,
        elapsed: start.elapsed(),
    })
}

/// Input-contract check (Section IV-A): reject sources that already carry
/// explicit data mappings.
pub fn check_input_contract(parsed: &ParsedUnit) -> Result<(), StageError> {
    match function_with_existing_mappings(&parsed.unit) {
        Some(function) => Err(StageError::AlreadyMapped { function }),
        None => Ok(()),
    }
}

/// Stage 2 — index every function's statements.
pub fn stage_graphs(unit: &TranslationUnit) -> GraphsArtifact {
    let start = Instant::now();
    let graphs = ProgramGraphs::build(unit);
    GraphsArtifact {
        graphs,
        elapsed: start.elapsed(),
    }
}

/// Stage 3 — classify memory accesses and build symbol tables.
pub fn stage_accesses(unit: &TranslationUnit, graphs: &GraphsArtifact) -> AccessArtifact {
    let start = Instant::now();
    let mut symbols = HashMap::new();
    let mut accesses = HashMap::new();
    for func in unit.functions() {
        let sym = SymbolTable::build(unit, func);
        if let Some(index) = graphs.graphs.function(func.name) {
            let collected = FunctionAccesses::collect(func, index, &sym);
            accesses.insert(func.name, collected);
        }
        symbols.insert(func.name, sym);
    }
    AccessArtifact {
        accesses,
        symbols,
        elapsed: start.elapsed(),
    }
}

/// Stage 4 — interprocedural side-effect summaries (Section IV-C): every
/// function's *local* (direct-effect) seed. The call-site fixed point over
/// them is the link's ([`crate::program::Program::link`]); a unit analyzed
/// on its own is linked alone. No option changes a seed; `_options` stays
/// in the signature because the ledger benchmark calls it.
pub fn stage_summaries(
    unit: &TranslationUnit,
    accesses: &AccessArtifact,
    _options: &OmpDartOptions,
) -> SummariesArtifact {
    let start = Instant::now();
    // Every defined function has a statement index, so accesses, symbols
    // and a seed.
    let seeds = (unit.functions())
        .map(|func| {
            let acc = &accesses.accesses[&func.name];
            let seed = seed_summary(func, acc, &accesses.symbols[&func.name]);
            (func.name, Arc::new(seed))
        })
        .collect();
    SummariesArtifact {
        seeds,
        elapsed: start.elapsed(),
    }
}

/// The closed world of a unit known by its stage artifacts — the one-unit
/// program: the unit (interface only — it is never planned through) and
/// the context of it linked alone on `threads` workers. What the pure stage
/// functions plan and verify under.
pub(crate) fn closed_world_of(
    unit: &TranslationUnit,
    accesses: &AccessArtifact,
    summaries: &SummariesArtifact,
    options: &OmpDartOptions,
    threads: usize,
) -> (Arc<SummarizedUnit>, LinkContext) {
    // The name only tells the unit's `static` functions from others'.
    let exports = UnitExports::of("", unit, accesses, summaries, options);
    let alone = Arc::new(SummarizedUnit::restored("", "", options, exports));
    // A unit defines each function once: the parser rejects a second
    // definition.
    let program = Program::relink(
        vec![Arc::clone(&alone)],
        options,
        threads,
        &mut LinkState::default(),
    )
    .expect("a unit links alone");
    (alone, program.link_context(0))
}

// ---------------------------------------------------------------------------
// Summary fingerprints and the plan key
// ---------------------------------------------------------------------------

/// Fingerprint of a whole summary: what the link's dirty check compares
/// (a function's local fingerprint hashes its seed's).
pub(crate) fn summary_fingerprint(s: &FunctionSummary) -> u64 {
    fingerprint_where(s, &s.name, |_| true)
}

/// Fingerprint of what a caller's plan can read of summary `s`: its name as
/// its callers spell it (for a `static`, the part of its `name@unit` symbol
/// before the `@`), `has_kernels`, every parameter effect, and its effects
/// on globals named in the program's device names — none on any other
/// global. A plan maps only variables its region touches on the device, and
/// a callee's effect on a global reaches it only where some converged
/// summary touches that global on the device
/// ([`crate::interproc::DeviceNames`]).
pub(crate) fn projected_fingerprint(s: &FunctionSummary, device: &DeviceNames) -> u64 {
    fingerprint_where(s, source_name(&s.name), |global| device.contains(global))
}

/// The fingerprint of `s`, named `name`, with only the global effects
/// `keep` holds.
fn fingerprint_where(s: &FunctionSummary, name: &str, keep: impl Fn(Symbol) -> bool) -> u64 {
    let mut h = Fnv::new();
    h.write_str(name);
    h.write(&[u8::from(s.has_kernels)]);
    for e in &s.param_effects {
        h.write(&[e.byte()]);
    }
    // `BTreeMap<Symbol>` iterates in resolved-string order already.
    for (name, e) in s.global_effects.iter().filter(|(name, _)| keep(**name)) {
        h.write_str(name);
        h.write(&[e.byte()]);
    }
    h.finish()
}

/// One direct callee of a function, as the function's callee fingerprint
/// reads it: the name its call sites spell, and the bytes hashed when that
/// name has no summary — the parameter count, `const` qualifiers and
/// variadic flag of the visible prototype the pessimistic fallback reads
/// (empty without one).
#[derive(Debug, PartialEq, Eq)]
pub(crate) struct CalleeKey {
    pub(crate) name: Symbol,
    pub(crate) proto: Vec<u8>,
}

impl CalleeKey {
    /// True if the visible prototype declares parameter `position`'s
    /// pointee `const` (`proto`: count, a byte per parameter, variadic).
    pub(crate) fn const_pointee(&self, position: usize) -> bool {
        self.proto.len() > 9 + position && self.proto[8 + position] == 1
    }
}

/// The direct callees of `func_name`, sorted by name and de-duplicated:
/// everything about a function's callee fingerprint that depends on the
/// unit alone, so the link stage memoises it per unit content.
pub(crate) fn callee_keys(
    func_name: Symbol,
    accesses: &AccessArtifact,
    unit: &TranslationUnit,
) -> Vec<CalleeKey> {
    let mut names: Vec<Symbol> = accesses
        .accesses
        .get(&func_name)
        .map(|acc| acc.calls.iter().map(|c| c.callee).collect())
        .unwrap_or_default();
    names.sort_unstable();
    names.dedup();
    let key = |name: Symbol| {
        let mut proto = Vec::new();
        if let Some(decl) = unit.all_functions().find(|f| f.name == name) {
            proto.extend_from_slice(&(decl.params.len() as u64).to_le_bytes());
            proto.extend(decl.params.iter().map(|p| u8::from(p.is_const_pointee)));
            proto.push(u8::from(decl.is_variadic));
        }
        CalleeKey { name, proto }
    };
    names.into_iter().map(key).collect()
}

/// Fingerprint of the interprocedural facts a function's plan consumes: the
/// projected summary fingerprint (`projected_fp`, [`projected_fingerprint`])
/// of every direct callee, or — for callees without a summary — the shape
/// of the visible prototype: one function's share of its unit's imports
/// fingerprint. In a linked program the summaries are the *whole-program*
/// ones, so a callee edited in another unit moves it exactly when its
/// converged summary moved on a global in the device names, its parameters
/// or its kernels.
pub(crate) fn callees_fingerprint(
    callees: &[CalleeKey],
    projected_fp: impl Fn(Symbol) -> Option<u64>,
) -> u64 {
    let mut h = Fnv::new();
    for callee in callees {
        h.write_str(&callee.name);
        match projected_fp(callee.name) {
            Some(fingerprint) => {
                h.write(&[1]);
                h.write_u64(fingerprint);
            }
            None => {
                h.write(&[2]);
                h.write(&callee.proto);
            }
        }
    }
    h.finish()
}

/// Stage 5 — host/device data-flow planning of the unit's closed world (the
/// unit linked alone on `parallelism` workers), fanned out per function
/// over the same workers. The produced plans and diagnostics are merged
/// back in source order, so the result is identical to a serial run.
pub fn stage_plans(
    unit: &TranslationUnit,
    graphs: &GraphsArtifact,
    accesses: &AccessArtifact,
    summaries: &SummariesArtifact,
    options: &OmpDartOptions,
    parallelism: usize,
) -> PlansArtifact {
    let (_, link) = closed_world_of(unit, accesses, summaries, options, parallelism);
    run_plan_stage(unit, graphs, accesses, options, parallelism, &link)
}

/// The one planning stage behind [`stage_plans`] and
/// [`AnalysisSession::analyze_linked`]: every function of the unit is
/// planned, fanned out over `parallelism` workers, its callee effects
/// resolved against the `link` context's summaries (cross-unit callees
/// included).
fn run_plan_stage(
    unit: &TranslationUnit,
    graphs: &GraphsArtifact,
    accesses: &AccessArtifact,
    options: &OmpDartOptions,
    parallelism: usize,
    link: &LinkContext,
) -> PlansArtifact {
    let start = Instant::now();
    let funcs: Vec<_> = unit.functions().collect();
    let workers = parallelism.clamp(1, funcs.len().max(1));

    // One slot per function: (analyzed, plan, diagnostics, fallbacks).
    let plan_one = |idx: usize| {
        let func = funcs[idx];
        let Some(index) = graphs.graphs.function(func.name) else {
            return (false, None, Diagnostics::new(), 0);
        };
        let Some(mut acc) = accesses.accesses.get(&func.name).cloned() else {
            return (true, None, Diagnostics::new(), 0);
        };
        let symbols = &accesses.symbols[&func.name];
        let fallbacks =
            augment_with_call_effects(&mut acc, symbols, unit, link, options.pessimistic_globals);
        let mut diags = Diagnostics::new();
        let mut plan = plan_function(func, index, &acc, symbols, &mut diags);
        // `--lifetimes` is the same plan under another spelling, plus the
        // collapse clauses that ride with it.
        if let (true, Some(plan)) = (options.lifetimes, &mut plan) {
            plan.unstructured = true;
            plan.collapses = plan_collapses(func, &plan.kernels);
        }
        (true, plan, diags, fallbacks)
    };

    let slots = crate::pool::pool_map(workers, funcs.len(), plan_one);

    let mut plans = Vec::new();
    let mut stats = AnalysisStats::default();
    let mut diagnostics = Diagnostics::new();
    for (analyzed, plan, diags, fallbacks) in slots {
        if analyzed {
            stats.functions_analyzed += 1;
        }
        stats.unknown_callee_fallbacks += fallbacks;
        diagnostics.extend(diags);
        if let Some(plan) = plan {
            stats.functions_with_kernels += 1;
            stats.kernels += plan.kernels.len();
            stats.mapped_variables += plan.mapped_variables().len();
            stats.map_clauses += plan.maps.len();
            stats.update_directives += plan.updates.len();
            stats.firstprivate_clauses += plan.firstprivate.len();
            plans.push(plan);
        }
    }
    PlansArtifact {
        plans,
        stats,
        diagnostics,
        function_keys: Vec::new(),
        elapsed: start.elapsed(),
    }
}

/// Stage 6 — source-to-source rewriting.
pub fn stage_rewrite(
    parsed: &ParsedUnit,
    graphs: &GraphsArtifact,
    plans: &PlansArtifact,
) -> RewriteOutput {
    let start = Instant::now();
    let source = rewrite::apply_plans(&parsed.file, &parsed.unit, &graphs.graphs, &plans.plans);
    RewriteOutput {
        source,
        elapsed: start.elapsed(),
    }
}

// ---------------------------------------------------------------------------
// The assembled analysis of one translation unit
// ---------------------------------------------------------------------------

/// The **body** of a unit: every artifact derived from parsing it, up to
/// (and including) the seed summaries. Large, and needed only to *plan* the
/// unit (or to look at it: a plan-JSON dump, a stage's timings), so it is
/// built on demand and may be dropped again once the unit is planned — see
/// [`SummarizedUnit`].
#[derive(Debug)]
pub struct UnitBody {
    pub parsed: Arc<ParsedUnit>,
    pub graphs: Arc<GraphsArtifact>,
    pub accesses: Arc<AccessArtifact>,
    /// The seed summaries, which the link converges.
    pub summaries: Arc<SummariesArtifact>,
}

impl UnitBody {
    /// The one body constructor, the plain stage chain: parse → input
    /// contract → graphs → accesses → summaries. Each artifact records its
    /// own `elapsed`; the body is the one place a unit's parse lives.
    fn build(
        name: &str,
        source: Arc<String>,
        options: &OmpDartOptions,
    ) -> Result<UnitBody, StageError> {
        let parsed = Arc::new(stage_parse_shared(name, source)?);
        check_input_contract(&parsed)?;
        let graphs = Arc::new(stage_graphs(&parsed.unit));
        let accesses = Arc::new(stage_accesses(&parsed.unit, &graphs));
        let summaries = Arc::new(stage_summaries(&parsed.unit, &accesses, options));
        Ok(UnitBody {
            parsed,
            graphs,
            accesses,
            summaries,
        })
    }
}

/// Lock `mutex`, recovering the guard if a holder panicked: a body cell
/// is valid at every step.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// One translation unit as the whole-program pipeline's first phase leaves
/// it, and the link stage consumes it: its source file (name and text) and
/// its **interface** ([`UnitExports`] — what the rest of the program reads
/// of it), with its **body** ([`UnitBody`]) in a cell that can be emptied.
///
/// A unit parsed this run has its body from the start and computes its
/// interface from it on first use. A unit *restored* from the persistent
/// store has its interface from the start and no body: [`Self::body`]
/// builds it on first use, which a restart whose plans are all in the store
/// never asks for. Once its interface is computed, a unit whose parse left
/// no diagnostic can drop its body again ([`release_bodies`]): it then
/// holds what a store hit holds — name, source, interface and content key
/// — and the analyses planned from it keep their plans, rewrite and wire
/// renderings.
#[derive(Debug)]
pub struct SummarizedUnit {
    /// The unit's name and source text. A resident unit is recognised by
    /// the text's pointer, and a parsed unit's body's [`SourceFile`] shares
    /// it. Spans in plans and diagnostics resolve against this file, so
    /// reading them never needs the body.
    file: SourceFile,
    /// The options the body is built under, when it is built on demand.
    options: OmpDartOptions,
    body: Mutex<Option<Arc<UnitBody>>>,
    exports: OnceLock<UnitExports>,
    /// The store's two content hashes of `source`, computed once per unit:
    /// the interface record and every plan record are keyed by them.
    content: OnceLock<store::ContentKey>,
}

impl SummarizedUnit {
    /// A unit parsed this run, around its body.
    fn parsed_now(options: &OmpDartOptions, body: UnitBody) -> SummarizedUnit {
        let file = &body.parsed.file;
        SummarizedUnit {
            file: SourceFile::shared(file.name(), Arc::clone(file.shared_text())),
            options: *options,
            body: Mutex::new(Some(Arc::new(body))),
            exports: OnceLock::new(),
            content: OnceLock::new(),
        }
    }

    /// A unit restored from its stored (or otherwise decoded) interface:
    /// `exports` must be the interface of `source` under `options`. Nothing
    /// is parsed until an accessor asks for the body.
    pub fn restored(
        name: &str,
        source: &str,
        options: &OmpDartOptions,
        exports: UnitExports,
    ) -> SummarizedUnit {
        SummarizedUnit {
            file: SourceFile::new(name, source),
            options: *options,
            body: Mutex::new(None),
            exports: OnceLock::from(exports),
            content: OnceLock::new(),
        }
    }

    /// The unit's name (diagnostics file name).
    pub fn name(&self) -> &str {
        self.file.name()
    }

    /// The unit's source text.
    pub fn source(&self) -> &str {
        self.file.text()
    }

    /// The unit's source file: what spans in its plans and diagnostics
    /// point into. Held by the unit itself, body or no body.
    pub fn source_file(&self) -> &SourceFile {
        &self.file
    }

    /// The source text, as the unit and its body share it.
    fn text(&self) -> &Arc<String> {
        self.file.shared_text()
    }

    /// The unit's interface, computed from the body on first use unless it
    /// was restored.
    pub fn exports(&self) -> &UnitExports {
        self.exports.get_or_init(|| {
            let body = self.body();
            let (unit, accesses) = (&body.parsed.unit, &body.accesses);
            UnitExports::of(self.name(), unit, accesses, &body.summaries, &self.options)
        })
    }

    /// The body, if the unit holds one: a parsed unit's until it is
    /// released, or a restored unit's once something asked for it.
    pub fn body_if_built(&self) -> Option<Arc<UnitBody>> {
        lock(&self.body).clone()
    }

    /// The body, built now (by the pure stage functions) if the unit holds
    /// none.
    pub fn body(&self) -> Arc<UnitBody> {
        self.body_through(None)
    }

    /// [`Self::body`]; one built now is counted in `session`'s
    /// `parse_misses` if there is one.
    fn body_through(&self, session: Option<&AnalysisSession>) -> Arc<UnitBody> {
        let mut cell = lock(&self.body);
        if let Some(body) = &*cell {
            return Arc::clone(body);
        }
        // Only a restored or released unit gets here, and its interface
        // was computed from a parse of these very bytes, under these
        // options, without a diagnostic.
        if let Some(session) = session {
            session.counters.add(Counter::parse_misses, 1);
        }
        let body = UnitBody::build(self.name(), Arc::clone(self.text()), &self.options)
            .expect("a unit with an interface parsed before");
        let body = Arc::new(body);
        *cell = Some(Arc::clone(&body));
        body
    }

    /// Drop the body if the unit can be served without it: its interface
    /// is computed and its parse left no diagnostic (those are shown from
    /// the body, and a store never holds such a unit). Whether it dropped
    /// one.
    fn release_body(&self) -> bool {
        if self.exports.get().is_none() {
            return false;
        }
        let mut cell = lock(&self.body);
        let clean = cell
            .as_ref()
            .is_some_and(|b| b.parsed.diagnostics.is_empty());
        if clean {
            *cell = None;
        }
        clean
    }

    /// The store's content hashes of the source.
    fn content(&self) -> store::ContentKey {
        *(self.content).get_or_init(|| store::content_key(self.source()))
    }
}

/// A fully analyzed translation unit: the summarized unit, its plans and
/// its rewrite. Plans, statistics and the rewritten source are held
/// eagerly — they are what every consumer reads; the body is the unit's,
/// reached as `unit().body()`, and an analysis stays whole after its unit
/// released it.
#[derive(Debug)]
pub struct UnitAnalysis {
    unit: Arc<SummarizedUnit>,
    pub plans: Arc<PlansArtifact>,
    pub rewrite: Arc<RewriteOutput>,
    /// The two payload-heavy artifacts as a server sends them, rendered on
    /// first use: the rewritten source as a JSON string literal, and the
    /// plan document, compact. An analysis is shared across requests by
    /// the session's unit table, so an unchanged unit is rendered once
    /// however often it is served.
    wire: OnceLock<(String, String)>,
}

impl UnitAnalysis {
    /// The summarized unit this analysis planned: name, source, interface,
    /// and the (possibly unbuilt) body.
    pub fn unit(&self) -> &Arc<SummarizedUnit> {
        &self.unit
    }

    /// The rewritten source with data-mapping directives inserted.
    pub fn rewritten_source(&self) -> &str {
        &self.rewrite.source
    }

    /// The provenance-carrying mapping plans, one per kernel-launching
    /// function.
    pub fn plans(&self) -> &[MappingPlan] {
        &self.plans.plans
    }

    /// Aggregate statistics (kernels, mapped variables, constructs).
    pub fn stats(&self) -> AnalysisStats {
        self.plans.stats
    }

    /// The input source file, which spans in plans and diagnostics point
    /// into: the unit's own, so this builds nothing.
    pub fn source_file(&self) -> &SourceFile {
        self.unit.source_file()
    }

    /// Parse- and planning-time diagnostics, merged. Builds nothing: a
    /// unit whose parse produced a diagnostic is never served without its
    /// body, so a unit without one has none to show.
    pub fn diagnostics(&self) -> Diagnostics {
        let parse = self.unit.body_if_built();
        let mut diagnostics = parse.map_or_else(Diagnostics::new, |b| b.parsed.diagnostics.clone());
        diagnostics.extend(self.plans.diagnostics.clone());
        diagnostics
    }

    /// Per-stage timings of this analysis: the stages that ran for it.
    /// The body's four read zero while the unit holds no body.
    pub fn timings(&self) -> StageTimings {
        let body = self.unit.body_if_built();
        let of =
            |elapsed: fn(&UnitBody) -> Duration| body.as_deref().map_or(Duration::ZERO, elapsed);
        // In `Stage` order.
        StageTimings([
            of(|body| body.parsed.elapsed),
            of(|body| body.graphs.elapsed),
            of(|body| body.accesses.elapsed),
            of(|body| body.summaries.elapsed),
            self.plans.elapsed,
            self.rewrite.elapsed,
        ])
    }

    /// Human-readable justification of every mapping decision: one line per
    /// construct, with the deciding source location.
    pub fn explain(&self) -> String {
        explain_plans(&self.plans.plans, Some(self.source_file()))
    }

    /// The versioned plan-JSON document for this unit's plans, pretty:
    /// written by the plan encoder straight from the plans, in a buffer of
    /// its own length.
    pub fn plans_json(&self) -> String {
        plans_to_json(&self.plans.plans)
    }

    fn wire(&self) -> &(String, String) {
        self.wire.get_or_init(|| {
            let mut source = String::new();
            write_json_string(&mut source, &self.rewrite.source);
            // Held for as long as the analysis is: give back the writer's
            // growth slack (up to half of the buffer).
            source.shrink_to_fit();
            (source, plans_to_json_compact(&self.plans.plans))
        })
    }

    /// The rewritten source as a JSON string literal (memoised).
    pub fn rewritten_source_json(&self) -> &str {
        &self.wire().0
    }

    /// [`Self::plans_json`] written compactly by the same encoder
    /// (memoised): the same document, without insignificant whitespace.
    pub fn plans_json_compact(&self) -> &str {
        &self.wire().1
    }
}

/// Drop the body of each analysis's unit that can be served without it —
/// its interface is computed and its parse left no diagnostic (those are
/// shown from the body) — and return how many were dropped. The unit then
/// holds what a store hit holds — name, source, interface, content key —
/// and its analyses keep their plans, rewrite and wire renderings; a later
/// round that has to plan it again rebuilds the body, counted in
/// `parse_misses`.
///
/// A long-lived host calls this on the analyses it has answered with (the
/// daemon once a connection has written its next `analyze` or `explain`
/// answer, `ompdart watch` after each scan), so a resident unit costs what
/// a stored one does. A release is real work — the allocator takes back the
/// parse — so nothing that times a round calls it; a unit without a body
/// costs a lock.
pub fn release_bodies<'a>(analyses: impl IntoIterator<Item = &'a Arc<UnitAnalysis>>) -> usize {
    let released = analyses.into_iter().filter(|a| a.unit.release_body());
    released.count()
}

// ---------------------------------------------------------------------------
// AnalysisSession: cached, reusable pipeline driver
// ---------------------------------------------------------------------------

/// How many content versions of one unit stay resident: the current one and
/// the one before it, so an edit → revert (an editor's undo, a branch
/// switched and switched back) is served from memory. A third distinct
/// version drops the least recently used of the two.
const VERSIONS_PER_UNIT: usize = 2;

/// How many analyses of one version stay resident, each under the imports
/// fingerprint it was planned for: the unit as a one-unit program's (what
/// `explain` and single-unit requests ask for) and the two most recent
/// ones of a larger program, so a *neighbour's* edit → revert, which moves
/// this unit's imports fingerprint and moves it back, stays warm too.
const ANALYSES_PER_VERSION: usize = 3;

/// Most-recently-used lookup: the entry `is` accepts, moved to the front.
fn touch<T>(list: &mut [T], is: impl Fn(&T) -> bool) -> Option<&mut T> {
    let at = list.iter().position(is)?;
    list[..=at].rotate_right(1);
    list.first_mut()
}

/// Put `entry` at the front of a most-recently-used list of at most `bound`
/// entries, dropping the least recently used beyond that.
fn admit<T>(list: &mut Vec<T>, entry: T, bound: usize) {
    list.truncate(bound - 1);
    list.insert(0, entry);
}

/// One resident content version of a unit: the summarized unit (whose body
/// holds its parse while built and not released) and the analyses planned
/// from it.
#[derive(Debug)]
struct UnitVersion {
    /// The source every hit is verified against: the unit's own text, held
    /// here too so that a probe reads it without loading the unit.
    source: Arc<String>,
    unit: Arc<SummarizedUnit>,
    /// `(imports fingerprint, analysis)`, most recently used first, at
    /// most [`ANALYSES_PER_VERSION`]. The same content planned under
    /// different link surroundings yields different plans.
    analyses: Vec<(u64, Arc<UnitAnalysis>)>,
}

impl UnitVersion {
    /// The analysis planned under `imports_fingerprint`, moved to the front.
    fn analysis(&mut self, imports_fingerprint: u64) -> Option<Arc<UnitAnalysis>> {
        touch(&mut self.analyses, |(fp, _)| *fp == imports_fingerprint)
            .map(|(_, analysis)| Arc::clone(analysis))
    }
}

/// Everything the session keeps of one unit name: at most
/// [`VERSIONS_PER_UNIT`] content versions, most recently used first.
#[derive(Debug, Default)]
struct UnitSlot {
    versions: Vec<UnitVersion>,
}

impl UnitSlot {
    /// The resident version with this content, moved to the front. A hit is
    /// a byte compare of the source — or pointer identity, for a caller that
    /// already holds the version's own text.
    fn version(&mut self, shared: Option<&Arc<String>>, source: &str) -> Option<&mut UnitVersion> {
        touch(&mut self.versions, |v| {
            shared.is_some_and(|text| Arc::ptr_eq(text, &v.source)) || *v.source == source
        })
    }

    /// [`Self::version`] of `unit`'s source, admitted around `unit` when it
    /// is not resident. A concurrent call that raced to the same content
    /// finds the first writer's version, so every caller observes one set
    /// of `Arc`s (the duplicated work is benign).
    fn version_or_admit(&mut self, unit: &Arc<SummarizedUnit>) -> &mut UnitVersion {
        if self.version(Some(unit.text()), unit.source()).is_none() {
            let version = UnitVersion {
                source: Arc::clone(unit.text()),
                unit: Arc::clone(unit),
                analyses: Vec::new(),
            };
            admit(&mut self.versions, version, VERSIONS_PER_UNIT);
        }
        &mut self.versions[0]
    }
}

/// A reusable, thread-safe driver for the staged pipeline.
///
/// Every unit the session has seen has **one home**: its slot in the unit
/// table, indexed by unit name. A slot holds the unit's current content
/// version and the one before it (`VERSIONS_PER_UNIT`), and a version holds
/// its [`SummarizedUnit`] — source, interface, and body (the one home of
/// its parse) while built and not released ([`release_bodies`]) —
/// and the few most recent [`UnitAnalysis`] bundles planned from it, one
/// per imports fingerprint (`ANALYSES_PER_VERSION`). A lookup is a name probe
/// plus a byte compare of the source — never a content hash, and never
/// another file's artifacts — and a slot never grows past those two bounds, so a
/// long-lived session (`ompdart watch`, the daemon) stays bounded by the
/// number of unit names it has seen, not by the number of saves. A
/// superseded version is released as soon as two newer ones have been
/// analyzed; recomputing it later is an ordinary edit. Below the table sits
/// an optional persistent [`ArtifactStore`]
/// ([`AnalysisSession::with_cache_dir`]): a unit's interface, its plans and
/// the edits that rewrite it are loaded from disk on a content match and
/// written back after every miss, so a fresh process starts warm and parses
/// only the units a change reached. Both are keyed by a whole unit — its
/// content and the imports fingerprint of its link — and a unit that misses
/// both is planned whole: an edited source is parsed, graphed,
/// access-classified, summarized and planned, every function of it, and no
/// other unit is unless its imports fingerprint moved.
///
/// A [`crate::program::ProgramDriver`] round — of many units, or of one —
/// runs [`Self::summarize`] → link → [`Self::analyze_linked`]. To run the
/// pipeline step by step, call the pure stage functions ([`stage_parse`] …
/// [`stage_rewrite`]): they are what the session runs.
#[derive(Debug)]
pub struct AnalysisSession {
    options: OmpDartOptions,
    parallelism: usize,
    /// The unit table: unit name → its resident versions.
    units: ShardMap<String, UnitSlot>,
    /// The persistent store. Write-backs are queued in it while planning and
    /// [`AnalysisSession::flush_store_writes`] appends the whole round's at
    /// once.
    store: Option<ArtifactStore>,
    counters: AtomicCacheStats,
}

impl Default for AnalysisSession {
    fn default() -> Self {
        AnalysisSession::new()
    }
}

impl Drop for AnalysisSession {
    fn drop(&mut self) {
        // Last-resort flush of the write-behind buffer: queued write-backs
        // must reach the store even if a caller driving `analyze_linked` by
        // hand never called `flush_store_writes`.
        self.flush_store_writes();
    }
}

impl AnalysisSession {
    /// A session with default options.
    pub fn new() -> AnalysisSession {
        AnalysisSession::with_options(OmpDartOptions::default())
    }

    /// A session with explicit options.
    pub fn with_options(options: OmpDartOptions) -> AnalysisSession {
        AnalysisSession {
            options,
            parallelism: default_parallelism(),
            units: ShardMap::new(),
            store: None,
            counters: AtomicCacheStats::default(),
        }
    }

    /// Override the fan-out width of the session's link and planning stages
    /// (and the default width of a [`crate::program::ProgramDriver`] over
    /// it).
    pub fn with_parallelism(mut self, workers: usize) -> AnalysisSession {
        self.parallelism = workers.max(1);
        self
    }

    /// Attach a persistent [`ArtifactStore`] rooted at `dir`: plans are
    /// loaded from disk when the full content key matches and written back
    /// after every planning run, so a new process with the same `dir`
    /// starts warm. Entries produced under different options, a different
    /// format version, or corrupted on disk are rejected, never trusted.
    pub fn with_cache_dir(mut self, dir: impl Into<std::path::PathBuf>) -> AnalysisSession {
        self.store = Some(ArtifactStore::open(dir));
        self
    }

    /// Attach an already-configured [`ArtifactStore`] (e.g. one with a
    /// size cap from [`ArtifactStore::with_max_bytes`]).
    pub fn with_store(mut self, store: ArtifactStore) -> AnalysisSession {
        self.store = Some(store);
        self
    }

    /// The attached persistent artifact store, if any.
    pub fn artifact_store(&self) -> Option<&ArtifactStore> {
        self.store.as_ref()
    }

    /// Append the store write-backs queued since the last flush to the pack,
    /// in one write. Returns the number of records written. Called once per
    /// planning round by [`crate::program::ProgramDriver::analyze_program`];
    /// dropping the
    /// session flushes any stragglers, so callers driving
    /// [`Self::analyze_linked`] by hand lose nothing. Best effort: records
    /// that cannot be written are a later miss.
    pub fn flush_store_writes(&self) -> usize {
        let flushed = self.store.as_ref().map(ArtifactStore::flush);
        flushed.and_then(Result::ok).unwrap_or(0)
    }

    /// The session's counters, for what the driver counts itself (relink
    /// work, units served by the identity fast path).
    pub(crate) fn counters(&self) -> &AtomicCacheStats {
        &self.counters
    }

    /// The resident version of `name` with this content (see
    /// [`UnitSlot::version`]), read through `get`.
    fn resident<R>(
        &self,
        name: &str,
        shared: Option<&Arc<String>>,
        source: &str,
        get: impl FnOnce(&mut UnitVersion) -> Option<R>,
    ) -> Option<R> {
        let read = |slot: &mut UnitSlot| get(slot.version(shared, source)?);
        self.units.modify(name, read).flatten()
    }

    /// The identity fast path of a program round: the analysis of `unit`
    /// under `imports_fingerprint`, if the unit table holds one — no
    /// context is assembled, nothing is hashed or planned.
    pub(crate) fn resident_analysis(
        &self,
        unit: &SummarizedUnit,
        imports_fingerprint: u64,
    ) -> Option<Arc<UnitAnalysis>> {
        self.resident(unit.name(), Some(unit.text()), unit.source(), |version| {
            version.analysis(imports_fingerprint)
        })
    }

    /// Release the resident versions of `name` whose content differs from
    /// `source` now, instead of when newer versions push them out. No host
    /// has to call this — the unit table bounds itself (see the type docs);
    /// it is for a caller that wants a session which never revisits
    /// superseded content to hold none of it.
    pub fn evict_stale_versions(&self, name: &str, source: &str) {
        self.units
            .modify(name, |slot| slot.versions.retain(|v| *v.source == source));
    }

    /// The active options.
    pub fn options(&self) -> &OmpDartOptions {
        &self.options
    }

    /// The configured worker fan-out width.
    pub fn parallelism(&self) -> usize {
        self.parallelism
    }

    /// Cache hit/miss counters so far.
    pub fn cache_stats(&self) -> CacheStats {
        self.counters.snapshot()
    }

    /// The session's one planning call: [`run_plan_stage`] of the whole
    /// unit, its functions counted in `function_plan_misses`.
    fn plan_under(&self, body: &UnitBody, link: &LinkContext) -> Arc<PlansArtifact> {
        let unit = &body.parsed.unit;
        let functions = unit.functions().count() as u64;
        self.counters.add(Counter::function_plan_misses, functions);
        Arc::new(run_plan_stage(
            unit,
            &body.graphs,
            &body.accesses,
            &self.options,
            self.parallelism,
            link,
        ))
    }

    /// Phase 1, cached: one unit as the link stage consumes it. Lookup
    /// order: the unit table, verified against the full source; then — when
    /// a `cache_dir` is attached — the store's interface record for this
    /// content, which yields the unit without parsing anything; then the
    /// body's stage chain, counted in `parse_misses`, after which the
    /// interface is computed and queued for the store (unless the parse
    /// produced a diagnostic: such a unit is parsed on every start, so its
    /// warnings reappear).
    pub fn summarize(&self, name: &str, source: &str) -> Result<Arc<SummarizedUnit>, StageError> {
        if let Some(unit) = self.resident(name, None, source, |v| Some(Arc::clone(&v.unit))) {
            self.counters.add(Counter::summarize_hits, 1);
            return Ok(unit);
        }
        self.counters.add(Counter::summarize_misses, 1);
        let keyed = (self.store.as_ref()).map(|store| (store, store::content_key(source)));
        let stored = keyed.and_then(|(store, content)| {
            let hit = store.load_interface(content, &self.options, name);
            let row = match hit {
                Some(_) => Counter::interface_store_hits,
                None => Counter::interface_store_misses,
            };
            self.counters.add(row, 1);
            hit
        });
        let unit = match stored {
            Some(exports) => SummarizedUnit::restored(name, source, &self.options, exports),
            None => {
                self.counters.add(Counter::parse_misses, 1);
                let text = Arc::new(source.to_string());
                let body = UnitBody::build(name, text, &self.options)?;
                let clean = body.parsed.diagnostics.is_empty();
                let unit = SummarizedUnit::parsed_now(&self.options, body);
                if let (Some((store, content)), true) = (keyed, clean) {
                    store.queue_interface(name, content, &self.options, unit.exports());
                }
                unit
            }
        };
        if let Some((_, content)) = keyed {
            // Hashed once: the unit's plan records are keyed by it too.
            let _ = unit.content.set(content);
        }
        let unit = Arc::new(unit);
        let admit = |slot: &mut UnitSlot| Arc::clone(&slot.version_or_admit(&unit).unit);
        Ok(self.units.update(name.to_string(), admit))
    }

    /// Phase 3 for one unit: plan and rewrite under a [`LinkContext`].
    /// Lookup order: the unit table (the unit's resident version, under the
    /// context's imports fingerprint), then — when a `cache_dir` is
    /// attached — the persistent store under the same link key (plans and
    /// the rewrite's edits loaded from disk: a splice into the source, the
    /// unit's body is not touched), then the planning stage, which builds
    /// the body if the unit was restored and plans every function of it.
    pub fn analyze_linked(
        &self,
        unit: &Arc<SummarizedUnit>,
        link: &LinkContext,
    ) -> (Arc<UnitAnalysis>, UnitServe) {
        let imports_fingerprint = link.imports_fingerprint;
        if let Some(analysis) = self.resident_analysis(unit, imports_fingerprint) {
            self.counters.add(Counter::analysis_hits, 1);
            return (analysis, UnitServe::Cached);
        }
        self.counters.add(Counter::analysis_misses, 1);
        // The serve report stays this request's own even when a concurrent
        // analysis of the same content is admitted first — the duplicated
        // work really happened.
        let (plans, rewrite, served) = self.plan_or_load(unit, link);
        let analysis = Arc::new(UnitAnalysis {
            unit: Arc::clone(unit),
            plans,
            rewrite: Arc::new(rewrite),
            wire: OnceLock::new(),
        });
        let admit_analysis = |slot: &mut UnitSlot| {
            let version = slot.version_or_admit(unit);
            version.analysis(imports_fingerprint).unwrap_or_else(|| {
                let entry = (imports_fingerprint, Arc::clone(&analysis));
                admit(&mut version.analyses, entry, ANALYSES_PER_VERSION);
                analysis
            })
        };
        (
            self.units.update(unit.name().to_string(), admit_analysis),
            served,
        )
    }

    /// The plans and the rewrite of a unit the table holds no analysis of:
    /// loaded from the persistent store on a verified content match (which
    /// skips planning entirely, and the body with it when the record
    /// carries the rewrite's edits), planned otherwise.
    fn plan_or_load(
        &self,
        unit: &Arc<SummarizedUnit>,
        link: &LinkContext,
    ) -> (Arc<PlansArtifact>, RewriteOutput, UnitServe) {
        // One hash of the source serves every lookup and write-back.
        let store = (self.store.as_ref()).map(|store| {
            let key = unit.content().unit(&self.options, link.imports_fingerprint);
            (store, key)
        });
        let stored = store.as_ref().and_then(|(store, key)| {
            let hit = store.load_unit(key);
            let row = match hit {
                Some(_) => Counter::store_hits,
                None => Counter::store_misses,
            };
            self.counters.add(row, 1);
            hit
        });
        if let Some(stored) = stored {
            let plans = Arc::new(PlansArtifact {
                plans: stored.plans,
                stats: stored.stats,
                diagnostics: Diagnostics::new(),
                function_keys: Vec::new(),
                elapsed: Duration::ZERO,
            });
            let rewrite = match &stored.edits {
                Some(edits) => spliced(edits, unit.source(), Instant::now()),
                // A record saved without its edits: derive them.
                None => {
                    let body = unit.body_through(Some(self));
                    stage_rewrite(&body.parsed, &body.graphs, &plans)
                }
            };
            return (plans, rewrite, UnitServe::Store);
        }
        let body = unit.body_through(Some(self));
        let plans = self.plan_under(&body, link);
        let start = Instant::now();
        let edits = rewrite::plan_edits(
            &body.parsed.file,
            &body.parsed.unit,
            &body.graphs.graphs,
            &plans.plans,
        );
        let rewrite = spliced(&edits, unit.source(), start);
        if let (Some((store, key)), true) = (store, plans.diagnostics.is_empty()) {
            // Queued, and appended to the pack by the round's one
            // [`Self::flush_store_writes`]. Units with planning diagnostics
            // are not persisted: the warnings would be lost on a later
            // store hit.
            store.queue_unit(unit.name(), key, &plans.plans, &plans.stats, Some(&edits));
        }
        (plans, rewrite, UnitServe::Planned)
    }
}

/// The rewrite of `source` that `edits` make, as a stage artifact whose work
/// began at `since`.
fn spliced(edits: &rewrite::EditSet, source: &str, since: Instant) -> RewriteOutput {
    RewriteOutput {
        source: edits.apply(source),
        elapsed: since.elapsed(),
    }
}

/// Worker count used by default for batch, per-function and link-wavefront
/// fan-out: a session's [`AnalysisSession::parallelism`] unless overridden.
pub(crate) fn default_parallelism() -> usize {
    crate::pool::available_width().min(8)
}

#[cfg(test)]
mod tests {
    use super::*;

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
            .into_iter()
            .flat_map(|lifetimes| {
                [false, true].map(|pessimistic_globals| {
                    options_fingerprint(&OmpDartOptions {
                        lifetimes,
                        pessimistic_globals,
                    })
                })
            })
            .collect();
        fingerprints.sort_unstable();
        fingerprints.dedup();
        assert_eq!(fingerprints.len(), 4);
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
