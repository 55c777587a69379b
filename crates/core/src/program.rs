//! The whole-program link stage: cross-translation-unit summaries and the
//! two-phase [`ProgramDriver`].
//!
//! Every unit is planned under a [`LinkContext`] — the interprocedural
//! summaries its call sites resolve against — and the link is the only code
//! that converges summaries. A unit analyzed on its own is a one-unit
//! program: its *closed-world* context ([`LinkContext::closed_world`]) is
//! that of the unit linked alone, by the same code, from the same
//! interface, so a call into another file has no summary,
//! [`crate::interproc::augment_with_call_effects`] falls back to the
//! maximally pessimistic host read+write assumption, and every cross-file
//! call forces conservative `tofrom` mappings. Between the Summaries and
//! Plans stages:
//!
//! 1. **Export** — each unit's interface ([`UnitExports`],
//!    [`crate::interface`]) collects the seed summaries and call sites of
//!    its defined functions. It is
//!    computed from a unit parsed this run, or restored from the
//!    persistent store without parsing anything.
//! 2. **Link** — [`Program::link`] merges every unit's call graph and
//!    runs the interprocedural fixed point to convergence *across* units
//!    ([`LinkedSummaries`]), so a callee defined in another file resolves
//!    to its real summary. The link reads **interfaces only**: of a unit
//!    nothing but its name and its [`UnitExports`] — no AST, no access
//!    artifact, no symbol table — so it is the same code over the same
//!    input whether a unit was parsed or restored. There is one link path,
//!    [`Program::relink`], and it *patches* a persistent [`LinkState`] —
//!    the latest program plus the indexes a link derives — by the units
//!    that changed, at a cost of O(changed units + dirty cone + importers
//!    of moved summaries); a cold link is the patch of the empty state, in
//!    which every unit is a changed one.
//! 3. **Plan** — each unit is planned against the linked summaries: a call
//!    site stands in its caller's data flow for the access sequence its
//!    callee's summary carries, wherever the callee is defined, so a copy-in
//!    a callee makes redundant and an exit copy nothing reads afterwards are
//!    dropped across files as they are within one.
//!
//! [`ProgramDriver`] packages the three phases as *parallel summarize →
//! link → parallel plan* over one shared [`AnalysisSession`], every phase
//! at the driver's width. Linking and planning are the same calls either
//! way — [`Program::relink`], [`AnalysisSession::analyze_linked`] — so a
//! single-unit program produces byte-identical output to
//! [`AnalysisSession::analyze`]. The defining
//! golden property, pinned by `tests/whole_program.rs` and the split
//! proptest: analyzing `k` units as one linked program rewrites each unit
//! byte-identically to analyzing the concatenation of all `k` unit sources
//! as a single translation unit.

use crate::interface::is_mangled;
pub use crate::interface::UnitExports;
use crate::interproc::{FunctionSummary, ProgramSummaries, PropagationNode};
use crate::pipeline::{
    callees_fingerprint, summary_fingerprint, AnalysisSession, Fnv, StageError, SummarizedUnit,
    UnitAnalysis,
};
use crate::plan::json::Json;
use crate::stats::{Counter, Value};
use ompdart_frontend::Symbol;
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The link-fingerprint value of analyses that are not part of any linked
/// program (a unit analyzed as a closed world).
pub const UNLINKED: u64 = 0;

// ---------------------------------------------------------------------------
// LinkedSummaries and LinkContext
// ---------------------------------------------------------------------------

/// The output of the link fixed point: whole-program interprocedural
/// summaries (every cross-unit callee resolved to its real effects) plus
/// the map from function name to defining unit.
#[derive(Clone, Debug)]
pub struct LinkedSummaries {
    /// Merged summaries, converged across unit boundaries. Unit-private
    /// `static` functions are keyed by their mangled `name@unit` symbol.
    pub summaries: Arc<ProgramSummaries>,
    /// Resolved function name (statics mangled) → index (into the
    /// program's unit list) of the defining unit.
    pub defined_in: HashMap<Symbol, usize>,
    /// Propagation passes the cross-unit fixed point took.
    pub passes: usize,
}

/// Everything the planning stage of *one unit* needs from the link layer.
#[derive(Clone, Debug)]
pub struct LinkContext {
    /// Whole-program summaries (shared across all units of the program).
    pub summaries: Arc<ProgramSummaries>,
    /// Fingerprint of the unit's *observed* imported surface: the
    /// converged summary of every callee its functions name (through the
    /// unit's static-shadowing view). Threaded through the unit table and the persistent store
    /// key: editing one file invalidates another unit's stored plans
    /// only when a fact that unit actually *reads* changed — an edit round
    /// re-plans the import cone, not the whole program.
    pub imports_fingerprint: u64,
    /// The link's memoised fingerprint of every converged summary — the
    /// program's function table and this unit's static views, both shared,
    /// neither copied — so planning a function hashes none of its callees'
    /// summaries again.
    fingerprints: (Arc<FunctionTable>, Arc<[StaticView]>),
}

impl LinkContext {
    /// The context of a unit analyzed on its own — the closed-world
    /// program: the unit linked alone ([`Program::relink`] of the empty
    /// state, on `threads` workers), which reads its interface and nothing
    /// else, under the imports fingerprint [`UNLINKED`] (the unit-table and
    /// store key of stand-alone analyses).
    pub fn closed_world(
        unit: &Arc<SummarizedUnit>,
        options: &crate::OmpDartOptions,
        threads: usize,
    ) -> LinkContext {
        let alone = vec![Arc::clone(unit)];
        // A unit defines each function once: the parser rejects a second
        // definition, and the store's decoder an interface naming one.
        let program = Program::relink(alone, options, threads, &mut LinkState::default())
            .expect("a unit links alone");
        LinkContext {
            imports_fingerprint: UNLINKED,
            ..program.link_context(0)
        }
    }

    /// [`summary_fingerprint`] of the summary `callee` resolves to under
    /// this context ([`Self::summaries`]), from the link's memo.
    pub(crate) fn summary_fingerprint(&self, callee: Symbol) -> Option<u64> {
        let (functions, statics) = &self.fingerprints;
        memoised_fingerprint(statics, functions, callee)
    }
}

/// The memoised fingerprint of the summary a unit with the static views
/// `statics` sees under the name `callee`: its own static's, shadowing any
/// same-named external symbol as C scoping does, else the program's.
fn memoised_fingerprint(
    statics: &[StaticView],
    functions: &FunctionTable,
    callee: Symbol,
) -> Option<u64> {
    match statics.iter().find(|view| view.source == callee) {
        Some(view) => Some(view.fingerprint),
        None => functions.get(&callee).map(|f| f.summary_fp),
    }
}

// ---------------------------------------------------------------------------
// Program: the linked whole-program view
// ---------------------------------------------------------------------------

/// A linked program: every unit's summarize-phase artifacts and the
/// converged cross-unit summaries. Cloning one copies pointers only —
/// [`Program::relink`] hands out clones of the program its [`LinkState`]
/// keeps.
#[derive(Clone, Debug)]
pub struct Program {
    /// The summarized units, in input order.
    pub units: Vec<Arc<SummarizedUnit>>,
    /// The cross-unit link fixed point. Unit-private `static` functions
    /// appear under their mangled `name@unit` symbols here; per-unit
    /// [`LinkContext`]s expose them under their source-level names again.
    pub linked: LinkedSummaries,
    /// Per-unit imported-surface fingerprints (see
    /// [`LinkContext::imports_fingerprint`]). Dependency-aware: unit `i`'s
    /// entry hashes the converged summaries of exactly the callees unit
    /// `i` names, so it moves only when a fact unit `i` observes changed.
    import_fps: Vec<u64>,
    /// Per unit, its own statics as the unit sees them — under their
    /// source-level names, shadowing any same-named external symbol as C
    /// scoping does. [`Program::link_context`] lays these few entries over
    /// the shared linked summaries ([`ProgramSummaries::overlay`]).
    unit_statics: Vec<Arc<[StaticView]>>,
    /// Every function of the fixed point, by resolved name. Shared with
    /// the [`LinkContext`]s, so a relink patches it in place once the
    /// previous round's contexts are gone.
    functions: Arc<FunctionTable>,
}

/// Resolved function name → where its propagation inputs live, and the
/// fingerprint of its converged summary.
type FunctionTable = HashMap<Symbol, LinkedFunction>;

/// One unit-private `static` function as its own unit names it.
#[derive(Debug)]
struct StaticView {
    /// The source-level name.
    source: Symbol,
    /// The converged summary of the mangled symbol, renamed to `source`.
    summary: Arc<FunctionSummary>,
    /// [`summary_fingerprint`] of `summary`.
    fingerprint: u64,
}

/// Where a linked function's propagation inputs live, plus the memoised
/// fingerprint of its converged summary.
#[derive(Clone, Copy, Debug)]
struct LinkedFunction {
    /// Index into the defining unit's [`UnitExports::functions`].
    index: usize,
    /// [`summary_fingerprint`] of the converged summary: re-hashed only
    /// when a relink moves the summary.
    summary_fp: u64,
}

/// The persistent, owned form of everything a whole-program link derives,
/// kept by the [`AnalysisSession`] between links: the latest [`Program`]
/// plus the index that lets [`Program::relink`] *patch* it — the reverse
/// call graph, which also answers "which units import this function" (the
/// function table and the fingerprint per converged summary live in the
/// program itself) — and, once
/// [`ProgramDriver`] has planned that program, its analyses. The default
/// state is the empty program; patching it is a cold link. A state belongs
/// to one set of analysis options: every relink of it must pass the same.
#[derive(Debug)]
pub struct LinkState {
    program: Program,
    /// The linked analysis of every unit of `program`, in unit order — what
    /// a round over the very same units returns again. Empty when the
    /// program was linked but not planned: a relink clears it.
    analyses: Vec<Arc<UnitAnalysis>>,
    /// Called name (defined in the program or not) → the functions calling
    /// it, once per call site.
    callers: HashMap<Symbol, Vec<Symbol>>,
    /// Functions the latest relink re-derived from their seeds.
    pub(crate) reseeded: u64,
    /// Units whose view or imports fingerprint the latest relink
    /// recomputed.
    pub(crate) touched_units: u64,
}

impl Default for LinkState {
    fn default() -> LinkState {
        LinkState {
            program: Program {
                units: Vec::new(),
                linked: LinkedSummaries {
                    summaries: Arc::default(),
                    defined_in: HashMap::new(),
                    passes: 0,
                },
                import_fps: Vec::new(),
                unit_statics: Vec::new(),
                functions: Arc::default(),
            },
            analyses: Vec::new(),
            callers: HashMap::new(),
            reseeded: 0,
            touched_units: 0,
        }
    }
}

/// A failure of whole-program analysis.
#[derive(Clone, Debug)]
pub enum ProgramError {
    /// One unit failed a pipeline stage (parse error, input contract).
    Unit { name: String, error: StageError },
    /// Two units define the same function: the program has no consistent
    /// link-time meaning.
    DuplicateFunction {
        function: String,
        units: [String; 2],
    },
}

impl fmt::Display for ProgramError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProgramError::Unit { name, error } => write!(f, "`{name}`: {error}"),
            ProgramError::DuplicateFunction { function, units } => write!(
                f,
                "function `{function}` is defined in both `{}` and `{}`",
                units[0], units[1]
            ),
        }
    }
}

impl std::error::Error for ProgramError {}

impl Program {
    /// Link already-summarized units into one program: export interfaces,
    /// merge the call graphs, and run the interprocedural fixed point to
    /// convergence across unit boundaries — [`Program::relink`] of the
    /// empty [`LinkState`], in which every unit is a changed one, at the
    /// machine's width.
    ///
    /// A unit analyzed alone is linked by this very code (its closed world,
    /// [`LinkContext::closed_world`]), which is what makes a linked
    /// multi-unit analysis provably equal to a single-unit analysis of the
    /// concatenated sources.
    pub fn link(
        units: Vec<Arc<SummarizedUnit>>,
        options: &crate::OmpDartOptions,
    ) -> Result<Program, ProgramError> {
        let threads = crate::pipeline::default_parallelism();
        Program::relink(units, options, threads, &mut LinkState::default())
    }

    /// Link `units` by *patching* `state`, the persistent form of the
    /// previous link, and return (a pointer-copy of) the patched program;
    /// the fixed point's wavefronts run on `threads` workers. The one link
    /// path; its cost is O(changed units + dirty cone + importers of moved
    /// summaries), plus pointer copies per unit:
    ///
    /// 1. **Diff.** Units are matched to the state's by name — the one
    ///    by-name diff of a round — and a unit is *changed* unless it is its
    ///    predecessor, pointer-equal. `Arc` identity is a sufficient witness
    ///    of content identity, not a necessary one: the session's unit table
    ///    hands out one `Arc` per resident version, and a version that was
    ///    dropped and recomputed is simply a changed unit here, whose local
    ///    fingerprints then find nothing dirty. Added, removed, reordered
    ///    and renamed units are just changed units without a predecessor or
    ///    successor.
    /// 2. **Patch the indexes.** Only changed units' definitions leave and
    ///    enter `defined_in`, the function table and the reverse call
    ///    graph. A function is *dirty* when its memoised
    ///    local fingerprint differs from its namesake's, or it appeared or
    ///    disappeared.
    /// 3. **Re-converge the cone.** The dirty functions' transitive
    ///    callers — read off the reverse call graph — are reset to their
    ///    seeds and re-converged in place
    ///    ([`ProgramSummaries::propagate_incremental`]); everything else
    ///    keeps its converged `Arc`.
    /// 4. **Refresh what observes a moved summary.** Static views and
    ///    imports fingerprints are recomputed for changed units and for
    ///    units that name a function whose converged summary actually
    ///    moved, from memoised per-summary fingerprints.
    ///
    /// The result is identical to a cold link of the same units (pinned by
    /// tests at every worker count), `linked.passes` aside — a diagnostic
    /// that reports the deepest component iteration of *this* link's cone.
    /// On an error `state` is left as it was. The counts of the relink are
    /// left in `state` (`reseeded`, `touched_units`); the previous program's
    /// analyses are not carried over.
    pub fn relink(
        units: Vec<Arc<SummarizedUnit>>,
        options: &crate::OmpDartOptions,
        threads: usize,
        state: &mut LinkState,
    ) -> Result<Program, ProgramError> {
        let LinkState {
            program,
            analyses,
            callers,
            reseeded,
            touched_units,
        } = state;
        let Program {
            units: was,
            linked,
            import_fps,
            unit_statics,
            functions,
        } = program;
        (*reseeded, *touched_units) = (0, 0);
        let functions = Arc::make_mut(functions);

        // --- 1. Diff: predecessor by name, kept when pointer-equal. ------
        let predecessor: Vec<Option<usize>> = if same_names(&units, was) {
            (0..units.len()).map(Some).collect()
        } else {
            let mut by_name: HashMap<&str, usize> = (was.iter().enumerate())
                .map(|(j, unit)| (unit.name(), j))
                .collect();
            (units.iter())
                .map(|unit| by_name.remove(unit.name()))
                .collect()
        };
        let mut successor: Vec<Option<usize>> = vec![None; was.len()];
        for (i, j) in predecessor.iter().enumerate() {
            if let Some(j) = *j {
                successor[j] = Some(i);
            }
        }
        let kept = |i: usize| predecessor[i].filter(|&j| Arc::ptr_eq(&units[i], &was[j]));
        let survives = |j: usize| successor[j].filter(|&i| Arc::ptr_eq(&units[i], &was[j]));
        let changed: Vec<usize> = (0..units.len()).filter(|&i| kept(i).is_none()).collect();

        // Reject duplicate definitions before patching anything. Functions
        // link under their *resolved* names: unit-private `static`
        // definitions mangle to `name@unit`, so same-named statics in
        // different units coexist instead of colliding (two statics with
        // one name inside the same unit still collide, as in C). Only a
        // changed unit can introduce one, against another changed unit or
        // a surviving definition.
        let mut fresh: HashMap<Symbol, usize> = HashMap::new();
        for &i in &changed {
            for f in &units[i].exports().functions {
                let other = (fresh.insert(f.resolved, i))
                    .or_else(|| survives(*linked.defined_in.get(&f.resolved)?));
                if let Some(other) = other {
                    let unit = |i: usize| units[i].name().to_string();
                    return Err(ProgramError::DuplicateFunction {
                        function: f.source.to_string(),
                        units: [unit(other.min(i)), unit(other.max(i))],
                    });
                }
            }
        }

        // --- 2. Patch the indexes: retire what left, admit what came. ----
        analyses.clear();
        // What a retired function had: its local fingerprint, and the
        // fingerprint of its converged summary (carried over to a namesake).
        let mut gone: HashMap<Symbol, (u64, u64)> = HashMap::new();
        for (j, unit) in was.iter().enumerate() {
            if survives(j).is_some() {
                continue;
            }
            for f in &unit.exports().functions {
                linked.defined_in.remove(&f.resolved);
                if let Some(was) = functions.remove(&f.resolved) {
                    gone.insert(f.resolved, (f.link.local_fp, was.summary_fp));
                }
                for call in &f.link.calls {
                    if let Some(list) = callers.get_mut(&call.callee) {
                        if let Some(at) = list.iter().position(|&c| c == f.resolved) {
                            list.swap_remove(at);
                        }
                        if list.is_empty() {
                            callers.remove(&call.callee);
                        }
                    }
                }
            }
        }
        // The dirty functions: the seed of the cone, each named once.
        let mut cone: Vec<Symbol> = Vec::new();
        for (i, unit) in units.iter().enumerate() {
            let exports = unit.exports();
            if kept(i) != Some(i) {
                // New here, or a kept unit that changed position.
                for f in &exports.functions {
                    linked.defined_in.insert(f.resolved, i);
                }
            }
            if kept(i).is_some() {
                continue;
            }
            for (index, f) in exports.functions.iter().enumerate() {
                let had = gone.remove(&f.resolved);
                if had.map(|(local_fp, _)| local_fp) != Some(f.link.local_fp) {
                    cone.push(f.resolved);
                }
                let summary_fp = had.map_or(0, |(_, summary_fp)| summary_fp);
                functions.insert(f.resolved, LinkedFunction { index, summary_fp });
                for call in &f.link.calls {
                    callers.entry(call.callee).or_default().push(f.resolved);
                }
            }
        }
        cone.extend(gone.into_keys());

        // --- 3. Re-converge the dirty cone, in place. --------------------
        // Summaries flow from callee to caller, so only transitive callers
        // of a dirty function can observe the change; a function that no
        // longer exists is still named by its callers' call sites. The
        // worklist is the cone: O(cone + its in-edges).
        let mut in_cone: HashSet<Symbol> = cone.iter().copied().collect();
        let mut next = 0;
        while let Some(&name) = cone.get(next) {
            next += 1;
            for &caller in callers.get(&name).into_iter().flatten() {
                if in_cone.insert(caller) {
                    cone.push(caller);
                }
            }
        }
        let link_func = |name: &Symbol| {
            let index = functions.get(name)?.index;
            let exports = units[linked.defined_in[name]].exports();
            Some((&exports.functions[index], &exports.globals[..]))
        };
        let mut nodes: Vec<PropagationNode<'_>> = Vec::with_capacity(cone.len());
        let seeds = (cone.iter())
            .map(|name| {
                let function = link_func(name).map(|(f, globals)| {
                    nodes.push(f.node(globals));
                    Arc::clone(&f.link.seed)
                });
                (*name, function)
            })
            .collect();
        let summaries = Arc::make_mut(&mut linked.summaries);
        let before =
            summaries.propagate_incremental(seeds, &nodes, options.pessimistic_globals, threads);
        linked.passes = summaries.passes;

        // --- 4. Refresh what observes a moved summary. -------------------
        // Changed units, the unit owning a moved static (its view renames
        // the summary) and the units calling a moved function.
        let mut touched = vec![false; units.len()];
        for &i in &changed {
            touched[i] = true;
        }
        let mut restatic = touched.clone();
        // Once every unit is touched (a cold link) there is nobody left to
        // find through the reverse call graph.
        let mut untouched = units.len() - changed.len();
        for (name, before) in cone.iter().zip(&before) {
            *reseeded += u64::from(before.is_some());
            let now = summaries.summary(*name);
            if now == before.as_deref() {
                continue;
            }
            if let (Some(now), Some(f)) = (now, functions.get_mut(name)) {
                f.summary_fp = summary_fingerprint(now);
                restatic[linked.defined_in[name]] |= is_mangled(*name);
            }
            if untouched > 0 {
                for caller in callers.get(name).into_iter().flatten() {
                    let importer = &mut touched[linked.defined_in[caller]];
                    untouched -= usize::from(!*importer);
                    *importer = true;
                }
            }
        }
        let none: Arc<[StaticView]> = Arc::new([]);
        *unit_statics = (0..units.len())
            .map(|i| Arc::clone(kept(i).map_or(&none, |j| &unit_statics[j])))
            .collect();
        for (i, unit) in units.iter().enumerate().filter(|(i, _)| restatic[*i]) {
            touched[i] = true;
            unit_statics[i] = (unit.exports().statics_mangled.iter())
                .filter_map(|&(source, mangled)| {
                    let mut summary = summaries.summary(mangled)?.clone();
                    summary.name = source;
                    Some(StaticView {
                        source,
                        fingerprint: summary_fingerprint(&summary),
                        summary: Arc::new(summary),
                    })
                })
                .collect();
        }

        // Dependency-aware imported-surface fingerprints, derived from the
        // *converged* fixed point: for each unit, hash the summary of
        // every callee its functions name — resolved through the unit's
        // static-shadowing view, exactly as planning resolves them. These
        // cover every cross-unit fact `analyze_linked` can observe, so an
        // edit in unit A moves unit B's fingerprint only when a summary B
        // actually reads changed: the edit path re-plans the import cone,
        // not the program.
        *import_fps = (0..units.len())
            .map(|i| kept(i).map_or(0, |j| import_fps[j]))
            .collect();
        for (i, unit) in units.iter().enumerate().filter(|(i, _)| touched[*i]) {
            *touched_units += 1;
            let exports = unit.exports();
            let summary_fp = |callee| memoised_fingerprint(&unit_statics[i], functions, callee);
            let mut h = Fnv::new();
            for f in &exports.functions {
                h.write_str(&f.source);
                h.write_u64(callees_fingerprint(&f.callees, summary_fp));
                h.write(&[0xee]);
            }
            import_fps[i] = h.finish();
        }

        *was = units;
        Ok(program.clone())
    }

    /// Number of units in the program.
    pub fn len(&self) -> usize {
        self.units.len()
    }

    /// True for the empty program.
    pub fn is_empty(&self) -> bool {
        self.units.is_empty()
    }

    /// The [`LinkContext`] for the unit at `index`, assembled from
    /// program-wide pieces: the linked summaries (under the unit's
    /// static-shadowing view, when it defines statics) and the unit's
    /// dependency-aware imports fingerprint.
    pub fn link_context(&self, index: usize) -> LinkContext {
        let statics = &self.unit_statics[index];
        let summaries = match statics.is_empty() {
            true => Arc::clone(&self.linked.summaries),
            false => Arc::new(ProgramSummaries::overlay(
                Arc::clone(&self.linked.summaries),
                (statics.iter()).map(|view| (view.source, Arc::clone(&view.summary))),
            )),
        };
        LinkContext {
            summaries,
            imports_fingerprint: self.import_fps[index],
            fingerprints: (Arc::clone(&self.functions), Arc::clone(statics)),
        }
    }

    /// The cross-unit interprocedural fixed point **alone**: seeds and call
    /// graphs merged exactly as [`Program::relink`] merges them (statics
    /// mangled), converged with the SCC-wavefront engine on `threads`
    /// workers. No interface export or planning happens —
    /// parity tests and the `link_scale` bench use this to isolate the
    /// link fixed point from the rest of the pipeline.
    pub fn propagate_merged(
        units: &[Arc<SummarizedUnit>],
        options: &crate::OmpDartOptions,
        threads: usize,
    ) -> ProgramSummaries {
        let (seeds, nodes) = merged_propagation_inputs(units);
        ProgramSummaries::propagate(&nodes, seeds, options.pessimistic_globals, threads)
    }
}

/// True when two unit lists name the same units position by position (a
/// pointer-equal pair needs no string compare).
fn same_names(a: &[Arc<SummarizedUnit>], b: &[Arc<SummarizedUnit>]) -> bool {
    a.len() == b.len() && (a.iter().zip(b)).all(|(a, b)| Arc::ptr_eq(a, b) || a.name() == b.name())
}

/// Every unit's memoised seeds and propagation nodes under their
/// link-resolved names (see [`crate::interface::LinkFunction`]): pointer
/// copies and borrows.
pub(crate) fn merged_propagation_inputs(
    units: &[Arc<SummarizedUnit>],
) -> (
    HashMap<Symbol, Arc<FunctionSummary>>,
    Vec<PropagationNode<'_>>,
) {
    let functions = || {
        units.iter().flat_map(|unit| {
            let exports = unit.exports();
            (exports.functions.iter()).map(move |f| (f, &exports.globals[..]))
        })
    };
    let seeds = functions()
        .map(|(f, _)| (f.resolved, Arc::clone(&f.link.seed)))
        .collect();
    let nodes = functions().map(|(f, globals)| f.node(globals));
    (seeds, nodes.collect())
}

// ---------------------------------------------------------------------------
// ProgramDriver: the two-phase whole-program pipeline
// ---------------------------------------------------------------------------

/// How one unit of a program analysis was served.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum UnitServe {
    /// The complete linked analysis came from the in-memory cache.
    Cached,
    /// Plans were loaded from the persistent artifact store.
    Store,
    /// The unit was planned this run; `reused`/`replanned` split the
    /// function-granular plan cache outcome.
    Planned { reused: u64, replanned: u64 },
}

/// One whole-program analysis: every unit's full artifact bundle (input
/// order) and how each unit was served.
#[derive(Debug)]
pub struct ProgramAnalysis {
    /// Per-unit analyses, in input order.
    pub units: Vec<Arc<UnitAnalysis>>,
    /// How each unit was served, in input order.
    pub served: Vec<UnitServe>,
    /// Propagation passes of the cross-unit fixed point.
    pub link_passes: usize,
}

impl ProgramAnalysis {
    /// Sum of every unit's analysis statistics.
    pub fn stats(&self) -> crate::plan::ir::AnalysisStats {
        let units = self.units.iter().map(|unit| unit.plans.stats);
        units.fold(Default::default(), std::ops::Add::add)
    }

    /// The concatenation of every unit's rewritten source, in input order
    /// (the multi-file analogue of a single rewritten translation unit).
    pub fn concatenated_rewrite(&self) -> String {
        self.units
            .iter()
            .map(|u| u.rewrite.source.as_str())
            .collect()
    }
}

/// Where one whole-program analysis spent its time: per-phase wall clock,
/// per-unit latency percentiles, and the process-wide worker-pool and
/// shard-lock counter deltas attributable to the call. Surfaced by
/// `ompdart analyze --profile-json`, the daemon `stats` response, and the
/// `link_scale` bench trajectory.
#[derive(Clone, Copy, Debug, Default)]
pub struct DriverProfile {
    /// Units in the program.
    pub units: usize,
    /// Units served by the identity fast path this round.
    pub fast_path_units: usize,
    /// Units served warm this round without a fresh plan fan-out:
    /// previous-round reuse (`Cached`) plus persistent-store hits
    /// (`Store`). On a fresh process whose store was populated by an
    /// earlier run, `warm_units > 0` with `edit_path == false` is the
    /// store-served warm start.
    pub warm_units: usize,
    /// Units whose body — AST, graphs, accesses, seed summaries — was
    /// built this round: the units that ran the frontend. On a restart over
    /// a populated store this is the number of units the change reached,
    /// zero when nothing changed.
    pub parsed_units: usize,
    /// True when the round rode link state an earlier round left in this
    /// session (an edit round): the per-phase breakdown below is then a
    /// one-edit profile, not a cold-start one.
    pub edit_path: bool,
    /// Wall time of the parallel summarize phase.
    pub summarize: Duration,
    /// Wall time of the (incremental) link fixed point.
    pub link: Duration,
    /// Wall time spent probing the unit table for the unit-level fast path
    /// and assembling the link contexts of the units that missed it.
    pub contexts: Duration,
    /// Wall time of the parallel plan+rewrite fan-out.
    pub plan: Duration,
    /// Wall time of the batched store flush.
    pub flush: Duration,
    /// End-to-end wall time of the whole call.
    pub total: Duration,
    /// Median per-unit latency inside the plan fan-out (the units that
    /// missed the identity fast path; zero when none did).
    pub unit_p50: Duration,
    /// 99th-percentile per-unit latency inside the plan fan-out.
    pub unit_p99: Duration,
    /// Worker count the parallel phases actually ran at: the session's
    /// [`AnalysisSession::parallelism`] capped at the pool's width
    /// ([`crate::pool::effective_width`]).
    pub pool_workers: usize,
    /// This and the fields below: the movement of the process-wide
    /// [`crate::stats::ProcessStats`] row of the same name over the call.
    pub pool_jobs: u64,
    pub pool_items: u64,
    pub pool_inline_jobs: u64,
    pub pool_fallback_jobs: u64,
    pub pool_wait_ns: u64,
    pub lock_wait_ns: u64,
    pub lock_contentions: u64,
}

impl DriverProfile {
    /// Every field as a `(name, value)` cell, in rendering order: the one
    /// list both JSON spellings below walk.
    pub fn fields(&self) -> [(&'static str, Value); 21] {
        macro_rules! cells {
            ($($kind:ident($field:ident $(as $ty:ty)?)),+) => {
                [$((stringify!($field), Value::$kind(self.$field $(as $ty)?))),+]
            };
        }
        cells!(
            Count(units as u64),
            Count(fast_path_units as u64),
            Count(warm_units as u64),
            Count(parsed_units as u64),
            Flag(edit_path),
            Time(summarize),
            Time(link),
            Time(contexts),
            Time(plan),
            Time(flush),
            Time(total),
            Time(unit_p50),
            Time(unit_p99),
            Count(pool_workers as u64),
            Count(pool_jobs),
            Count(pool_items),
            Count(pool_inline_jobs),
            Count(pool_fallback_jobs),
            Count(pool_wait_ns),
            Count(lock_wait_ns),
            Count(lock_contentions)
        )
    }

    /// The `--profile-json` spelling: a compact object whose durations are
    /// `<field>_ms` floats.
    pub fn to_json(&self) -> String {
        let cell = |(name, value): &(&str, Value)| match value {
            Value::Count(n) => format!("\"{name}\":{n}"),
            Value::Flag(b) => format!("\"{name}\":{b}"),
            Value::Time(d) => format!("\"{name}_ms\":{:.3}", d.as_secs_f64() * 1e3),
        };
        let cells: Vec<String> = self.fields().iter().map(cell).collect();
        format!("{{{}}}", cells.join(","))
    }

    /// The wire spelling (the daemon's `stats` verb): the same object with
    /// durations as `<field>_us` integers — the protocol has no floats.
    pub fn to_wire_json(&self) -> Json {
        let cell = |(name, value): (&str, Value)| match value {
            Value::Count(n) => (name.to_string(), Json::Int(n as i64)),
            Value::Flag(b) => (name.to_string(), Json::Bool(b)),
            Value::Time(d) => (format!("{name}_us"), Json::Int(d.as_micros() as i64)),
        };
        Json::Object(self.fields().into_iter().map(cell).collect())
    }
}

/// `sorted` must be ascending; returns the pct-th percentile element.
fn percentile(sorted: &[Duration], pct: usize) -> Duration {
    if sorted.is_empty() {
        return Duration::ZERO;
    }
    sorted[(sorted.len() - 1) * pct / 100]
}

/// Analyzes many translation units as *one linked program* over a shared
/// [`AnalysisSession`]: parallel summarize → link → parallel
/// plan. Contrast with [`crate::Ompdart::analyze_batch`], which analyzes
/// units independently (each a closed world).
#[derive(Debug)]
pub struct ProgramDriver {
    session: Arc<AnalysisSession>,
}

impl ProgramDriver {
    /// A driver over a fresh default session.
    pub fn new() -> ProgramDriver {
        ProgramDriver::with_session(Arc::new(AnalysisSession::new()))
    }

    /// A driver over an existing session (shares all of its caches). Every
    /// phase of a round runs at the session's
    /// [`AnalysisSession::parallelism`].
    pub fn with_session(session: Arc<AnalysisSession>) -> ProgramDriver {
        ProgramDriver { session }
    }

    /// The underlying session.
    pub fn session(&self) -> &Arc<AnalysisSession> {
        &self.session
    }

    /// Phase 1+2 only: summarize every unit in parallel and link them.
    /// The link is *incremental* across calls on one session: the fixed
    /// point starts from the previously converged summaries and re-seeds
    /// only the edited functions' call-graph cone (the session's
    /// [`CacheStats`](crate::stats::CacheStats) prove it), byte-identical to
    /// a cold link.
    pub fn link(&self, inputs: &[(String, String)]) -> Result<Program, ProgramError> {
        let units = self.summarize_all(inputs)?;
        let mut state = self.session.take_link_state();
        let program = self.relink(units, &mut state);
        self.session.put_link_state(state);
        program
    }

    /// Phase 1: summarize every unit in parallel (input order preserved).
    /// A unit's interface is what the link reads of it, so the worker that
    /// summarized a unit also computes its interface: the sequential link
    /// finds every one ready.
    fn summarize_all(
        &self,
        inputs: &[(String, String)],
    ) -> Result<Vec<Arc<SummarizedUnit>>, ProgramError> {
        let threads = self.session.parallelism();
        let summarized = crate::pool::pool_map(threads, inputs.len(), |i| {
            let (name, source) = &inputs[i];
            let unit = self.session.summarize(name, source);
            let ready = unit.inspect(|unit| {
                unit.exports();
            });
            ready.map_err(|error| ProgramError::Unit {
                name: name.clone(),
                error,
            })
        });
        let mut units = Vec::with_capacity(summarized.len());
        for result in summarized {
            units.push(result?);
        }
        Ok(units)
    }

    /// Phase 2: link already-summarized units by patching `state`, the
    /// session's persistent link state, and count what the relink re-seeded
    /// and touched.
    fn relink(
        &self,
        units: Vec<Arc<SummarizedUnit>>,
        state: &mut LinkState,
    ) -> Result<Program, ProgramError> {
        let threads = self.session.parallelism();
        let program = Program::relink(units, self.session.options(), threads, state);
        let counters = self.session.counters();
        counters.add(Counter::relink_reseeded_functions, state.reseeded);
        counters.add(Counter::relink_touched_units, state.touched_units);
        program
    }

    /// The full two-phase pipeline: parallel summarize, link,
    /// parallel plan+rewrite. Results preserve input order.
    pub fn analyze_program(
        &self,
        inputs: &[(String, String)],
    ) -> Result<ProgramAnalysis, ProgramError> {
        self.analyze_program_profiled(inputs)
            .map(|(analysis, _)| analysis)
    }

    /// [`Self::analyze_program`] plus a [`DriverProfile`] of where the call
    /// spent its time.
    ///
    /// Two identity fast paths keep a round's cost on the units that
    /// changed:
    ///
    /// * **Round level** — when every unit's summarized `Arc` matches,
    ///   position-wise, the program the session's [`LinkState`] holds, the
    ///   whole round is that program's: its analyses are returned with no
    ///   link, no contexts, no planning, no flush. A warm re-analysis of an
    ///   unchanged program is N unit-table probes plus N pointer
    ///   comparisons.
    /// * **Unit level** — on edit rounds, a unit whose resident version in
    ///   the session's unit table already holds an analysis under the
    ///   imports fingerprint the relink gave it is served that analysis:
    ///   only genuinely affected units get a [`LinkContext`] and reach
    ///   `analyze_linked`. A reverted unit, or one whose edited neighbour
    ///   was reverted, is served the same way while its earlier analysis
    ///   is still resident.
    ///
    /// Soundness: the unit table hands out one `Arc` per resident
    /// `(name, content)` and finds a version by its source bytes, so a hit
    /// is content identity; the imports fingerprint covers every cross-unit
    /// fact a unit's plans can observe (the same key the persistent store
    /// trusts). Byte-identity of fast-path rounds is pinned by tests at
    /// every thread count.
    pub fn analyze_program_profiled(
        &self,
        inputs: &[(String, String)],
    ) -> Result<(ProgramAnalysis, DriverProfile), ProgramError> {
        let total_start = Instant::now();
        let process_before = crate::stats::PROCESS.snapshot();
        let parsed_before = self.session.cache_stats().parse_misses;
        let finish_profile = |mut profile: DriverProfile| {
            profile.pool_workers = crate::pool::effective_width(self.session.parallelism());
            profile.set_rows(crate::stats::PROCESS.snapshot() - process_before);
            let parsed = self.session.cache_stats().parse_misses - parsed_before;
            profile.parsed_units = parsed as usize;
            profile.total = total_start.elapsed();
            profile
        };
        let count_fast_path =
            |units: usize| (self.session.counters()).add(Counter::fast_path_hits, units as u64);

        let phase = Instant::now();
        let units = self.summarize_all(inputs)?;
        let summarize = phase.elapsed();

        // Held until the round's analyses are in it: a concurrent round on
        // this session meanwhile links cold, from the empty state.
        let mut state = self.session.take_link_state();
        let edit_path = !state.program.is_empty();

        // Round-level identity fast path: the whole program is the one the
        // link state holds, analyses included.
        let unchanged = state.analyses.len() == units.len()
            && (units.iter().zip(&state.program.units)).all(|(now, was)| Arc::ptr_eq(now, was));
        if unchanged {
            count_fast_path(units.len());
            let analysis = ProgramAnalysis {
                units: state.analyses.clone(),
                served: vec![UnitServe::Cached; units.len()],
                link_passes: state.program.linked.passes,
            };
            self.session.put_link_state(state);
            let profile = finish_profile(DriverProfile {
                units: units.len(),
                fast_path_units: units.len(),
                warm_units: units.len(),
                edit_path: true,
                summarize,
                ..DriverProfile::default()
            });
            return Ok((analysis, profile));
        }

        let phase = Instant::now();
        let program = match self.relink(units, &mut state) {
            Ok(program) => program,
            Err(error) => {
                self.session.put_link_state(state);
                return Err(error);
            }
        };
        let link = phase.elapsed();

        // Unit-level identity fast path: the unit table already holds this
        // version's analysis under this imports fingerprint.
        let phase = Instant::now();
        let resident =
            |i: usize| (self.session).resident_analysis(&program.units[i], program.import_fps[i]);
        let mut units: Vec<Option<Arc<UnitAnalysis>>> = (0..program.len()).map(resident).collect();
        let fast_path_units = units.iter().flatten().count();
        count_fast_path(fast_path_units);
        let mut served = vec![UnitServe::Cached; program.len()];
        // Only the units that missed it need a context and a planner.
        let todo: Vec<(usize, LinkContext)> = (0..program.len())
            .filter(|&i| units[i].is_none())
            .map(|i| (i, program.link_context(i)))
            .collect();
        let contexts_elapsed = phase.elapsed();

        let phase = Instant::now();
        let threads = self.session.parallelism();
        let planned = crate::pool::pool_map(threads, todo.len(), |slot| {
            let unit_start = Instant::now();
            let (i, context) = &todo[slot];
            let (analysis, serve) = self.session.analyze_linked(&program.units[*i], context);
            (analysis, serve, unit_start.elapsed())
        });
        let plan = phase.elapsed();

        // One batched store flush for the whole program: the per-unit
        // write-backs queued by `analyze_linked` land on disk through one
        // pool-parallel batch (one gc pass).
        let phase = Instant::now();
        self.session.flush_store_writes();
        let flush = phase.elapsed();

        let mut durations = Vec::with_capacity(planned.len());
        for ((i, _), (analysis, serve, elapsed)) in todo.iter().zip(planned) {
            units[*i] = Some(analysis);
            served[*i] = serve;
            durations.push(elapsed);
        }
        let units: Vec<Arc<UnitAnalysis>> = units.into_iter().flatten().collect();

        // The next round's round-level fast path reads these.
        state.analyses = units.clone();
        self.session.put_link_state(state);

        durations.sort_unstable();
        let warm_units = served
            .iter()
            .filter(|s| matches!(s, UnitServe::Cached | UnitServe::Store))
            .count();
        let profile = finish_profile(DriverProfile {
            units: units.len(),
            fast_path_units,
            warm_units,
            edit_path,
            summarize,
            link,
            contexts: contexts_elapsed,
            plan,
            flush,
            unit_p50: percentile(&durations, 50),
            unit_p99: percentile(&durations, 99),
            ..DriverProfile::default()
        });
        Ok((
            ProgramAnalysis {
                units,
                served,
                link_passes: program.linked.passes,
            },
            profile,
        ))
    }
}

impl Default for ProgramDriver {
    fn default() -> Self {
        ProgramDriver::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Both JSON spellings of a profile are consumed outside this repo's
    /// tests (`--profile-json` files, the daemon's `stats` verb): pinned
    /// byte for byte, key order included.
    #[test]
    fn profile_json_spellings_are_pinned() {
        let profile = DriverProfile {
            units: 3,
            edit_path: true,
            summarize: Duration::from_micros(1500),
            pool_workers: 2,
            lock_contentions: 7,
            ..DriverProfile::default()
        };
        assert_eq!(
            profile.to_json(),
            "{\"units\":3,\"fast_path_units\":0,\"warm_units\":0,\"parsed_units\":0,\
             \"edit_path\":true,\"summarize_ms\":1.500,\"link_ms\":0.000,\"contexts_ms\":0.000,\"plan_ms\":0.000,\
             \"flush_ms\":0.000,\"total_ms\":0.000,\"unit_p50_ms\":0.000,\"unit_p99_ms\":0.000,\
             \"pool_workers\":2,\"pool_jobs\":0,\"pool_items\":0,\"pool_inline_jobs\":0,\
             \"pool_fallback_jobs\":0,\"pool_wait_ns\":0,\"lock_wait_ns\":0,\
             \"lock_contentions\":7}"
        );
        // The wire object is the same list with integer-microsecond
        // durations.
        assert_eq!(
            profile.to_wire_json().render(),
            "{\"units\":3,\"fast_path_units\":0,\"warm_units\":0,\"parsed_units\":0,\
             \"edit_path\":true,\"summarize_us\":1500,\"link_us\":0,\"contexts_us\":0,\"plan_us\":0,\
             \"flush_us\":0,\"total_us\":0,\"unit_p50_us\":0,\"unit_p99_us\":0,\
             \"pool_workers\":2,\"pool_jobs\":0,\"pool_items\":0,\"pool_inline_jobs\":0,\
             \"pool_fallback_jobs\":0,\"pool_wait_ns\":0,\"lock_wait_ns\":0,\
             \"lock_contentions\":7}"
        );
    }

    /// A width wider than the pool is reported as the width the pool runs:
    /// the machine's parallelism, at most 8.
    #[test]
    fn a_wider_request_reports_the_pools_width() {
        let session = AnalysisSession::new().with_parallelism(64);
        let driver = ProgramDriver::with_session(Arc::new(session));
        let unit = (
            "w.c".to_string(),
            "double a[4];\nvoid f(void) { a[0] = 1.0; }\n".to_string(),
        );
        let (_, profile) = driver.analyze_program_profiled(&[unit]).unwrap();
        let width = crate::pool::available_width().min(8);
        assert_eq!(profile.pool_workers, width, "{profile:?}");
    }
}
