//! The stage artifacts and the pure stage functions: each of parse,
//! graphs, accesses, summaries, plans and rewrite runs on its own, and the
//! session runs the same functions.

use super::{StageError, SummarizedUnit};
use crate::access::{FunctionAccesses, SymbolTable};
use crate::dataflow::plan_function;
use crate::interface::UnitExports;
use crate::interproc::{augment_with_call_effects, seed_summary, FunctionSummary};
use crate::plan::ir::{AnalysisStats, MappingPlan};
use crate::program::{LinkContext, LinkState, Program};
use crate::rewrite;
use crate::{function_with_existing_mappings, OmpDartOptions};
use ompdart_frontend::ast::TranslationUnit;
use ompdart_frontend::diag::Diagnostics;
use ompdart_frontend::parser::parse_source;
use ompdart_frontend::source::SourceFile;
use ompdart_frontend::Symbol;
use ompdart_graph::ProgramGraphs;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

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
pub(super) fn stage_parse_shared(
    name: &str,
    source: Arc<String>,
) -> Result<ParsedUnit, StageError> {
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
/// [`super::AnalysisSession::analyze_linked`]: every function of the unit is
/// planned, fanned out over `parallelism` workers, its callee effects
/// resolved against the `link` context's summaries (cross-unit callees
/// included).
pub(super) fn run_plan_stage(
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
        let plan = plan_function(func, index, &acc, symbols, &mut diags);
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
