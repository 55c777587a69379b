//! The whole-program link stage: cross-translation-unit summaries and the
//! two-phase [`ProgramDriver`].
//!
//! Every unit is planned under a [`LinkContext`] — the interprocedural
//! summaries its call sites resolve against — and the link is the only code
//! that converges summaries. Every analysis is a program round of a
//! [`ProgramDriver`]: a unit analyzed on its own is a one-unit program,
//! linked by the same code from the same interface, so a call into another
//! file has no summary, [`crate::interproc::augment_with_call_effects`]
//! falls back to the maximally pessimistic host read+write assumption, and
//! every cross-file call forces conservative `tofrom` mappings. Between the
//! Summaries and Plans stages:
//!
//! 1. **Export** — each unit's interface ([`UnitExports`],
//!    [`crate::interface`]) collects the seed summaries and call sites of
//!    its defined functions. It is
//!    computed from a unit parsed this run, or restored from the
//!    persistent store without parsing anything.
//! 2. **Link** — [`Program::link`] merges every unit's call graph and
//!    runs the interprocedural fixed point to convergence *across* units
//!    ([`Program::linked`]), so a callee defined in another file resolves
//!    to its real summary. The link reads **interfaces only**: of a unit
//!    nothing but its name and its [`UnitExports`] — no AST, no access
//!    artifact, no symbol table — so it is the same code over the same
//!    input whether a unit was parsed or restored. There is one link path,
//!    [`Program::relink`], and it *patches* a persistent [`LinkState`] —
//!    the latest program and its one table of functions — by the units
//!    that changed, at a cost of O(changed units + dirty cone + importers
//!    of moved summaries); a cold link is the patch of the empty state, in
//!    which every unit is a changed one. The table
//!    ([`ProgramSummaries`]) gives every resolved name the program defines
//!    or calls a dense id the first time it appears and holds, by id, its
//!    definition, converged summary, the fingerprint of what a caller's
//!    plan can read of that summary, callers and resolved call sites, so
//!    the relink walks and re-converges a cone by index; ids of names
//!    nothing defines or calls any more are reused.
//! 3. **Plan** — each unit is planned against the linked summaries: a call
//!    site stands in its caller's data flow for the access sequence its
//!    callee's summary carries, wherever the callee is defined, so a copy-in
//!    a callee makes redundant and an exit copy nothing reads afterwards are
//!    dropped across files as they are within one.
//!
//! [`ProgramDriver`] packages the three phases as *parallel summarize →
//! link → parallel plan* over one shared [`AnalysisSession`], every phase
//! at the session's width, and keeps its program's [`LinkState`] between
//! rounds. The defining golden property, pinned by `tests/whole_program.rs`
//! and the split proptest: analyzing `k` units as one linked program rewrites each unit
//! byte-identically to analyzing the concatenation of all `k` unit sources
//! as a single translation unit.

pub use crate::interface::UnitExports;
use crate::interface::{resolve, ExportedFunction};
use crate::interproc::{FuncId, FunctionSummary, ProgramSummaries};
use crate::pipeline::key::{imports_fingerprint, projected_fingerprint};
use crate::pipeline::{AnalysisSession, StageError, SummarizedUnit, UnitAnalysis};
use crate::plan::json::Json;
use crate::stats::{Counter, Value};
use ompdart_frontend::Symbol;
use std::collections::HashMap;
use std::fmt;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// A link fingerprint no analysis is keyed by: every unit is planned inside
/// a linked program, under the imports fingerprint its link gave it. Kept
/// exported only because the benchmark harness (`ledger/src/layers.rs`)
/// still names it for its store probe.
pub const UNLINKED: u64 = 0;

// ---------------------------------------------------------------------------
// LinkContext
// ---------------------------------------------------------------------------

/// Everything the planning stage of *one unit* needs from the link layer:
/// the program's one summary table, read under the unit's own names, and
/// the unit's imports fingerprint. Every callee summary a plan or the
/// checker reads is looked up through [`Self::summary`].
#[derive(Clone, Debug)]
pub struct LinkContext {
    /// The program's function table, shared by every unit's context. A
    /// unit-private `static` is in it under its mangled `name@unit` symbol.
    pub(crate) summaries: Arc<ProgramSummaries>,
    /// The unit's `(source, mangled)` statics, shared with its
    /// [`UnitExports`]: how the unit's names resolve in the table.
    pub(crate) statics: Arc<[(Symbol, Symbol)]>,
    /// Fingerprint of the unit's *observed* imported surface: of every
    /// callee its functions name (resolved as [`Self::summary`] resolves
    /// it), what a plan can read of its converged summary — the summary
    /// projected onto the program's device names
    /// (`pipeline::key::projected_fingerprint`). Threaded through the
    /// unit table and the persistent store key: editing one file
    /// invalidates another unit's plans only when a fact that unit's plans
    /// can actually *read* changed — an edit round re-plans the units whose
    /// callees moved on data a region can map, not the whole import cone.
    pub imports_fingerprint: u64,
}

impl LinkContext {
    /// The converged summary of the function the unit calls `name`: its own
    /// `static` of that name, shadowing any same-named external function as
    /// C scoping does, else the program's.
    pub fn summary(&self, name: impl Into<Symbol>) -> Option<&FunctionSummary> {
        self.summaries.summary(resolve(&self.statics, name.into()))
    }
}

/// The memoised projected fingerprint of the function a unit with the
/// statics `statics` calls `callee`, resolved as [`LinkContext::summary`]
/// resolves it, when something defines it.
fn memoised_fingerprint(
    statics: &[(Symbol, Symbol)],
    table: &ProgramSummaries,
    callee: Symbol,
) -> Option<u64> {
    let slot = table.slot(table.id(resolve(statics, callee))?);
    slot.def.map(|_| slot.projected_fp)
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
    /// The cross-unit link fixed point: the program's one function table,
    /// whole-program summaries with every cross-unit callee resolved to its
    /// real effects, and the `passes` the fixed point took. The
    /// [`LinkContext`]s share it, so a relink patches it in place once the
    /// previous round's contexts are gone. Unit-private `static` functions
    /// appear under their mangled `name@unit` symbols here; a unit's
    /// [`LinkContext`] resolves its source-level names to them.
    pub linked: Arc<ProgramSummaries>,
    /// Per-unit imported-surface fingerprints (see
    /// [`LinkContext::imports_fingerprint`]). Dependency-aware: unit `i`'s
    /// entry hashes the projected summaries of exactly the callees unit `i`
    /// names, so it moves only when a fact unit `i`'s plans read changed.
    import_fps: Vec<u64>,
}

/// The persistent, owned form of everything a whole-program link derives,
/// kept by the program's [`ProgramDriver`] between rounds: the latest
/// [`Program`] — whose function table holds, by id, what lets [`Program::relink`]
/// *patch* it: each function's definition, callers and resolved call
/// sites and the projected fingerprint of its converged summary, and the
/// program's device names — and, once [`ProgramDriver`] has planned that
/// program, its analyses. The default state is the empty program; patching
/// it is a cold link. A state belongs to one set of analysis options: every
/// relink of it must pass the same.
#[derive(Debug)]
pub struct LinkState {
    program: Program,
    /// The linked analysis of every unit of `program`, in unit order — what
    /// a round over the very same units returns again. Empty when the
    /// program was linked but not planned: a relink clears it.
    analyses: Vec<Arc<UnitAnalysis>>,
    /// Functions the latest relink re-derived from their seeds.
    pub(crate) reseeded: u64,
    /// Units whose imports fingerprint the latest relink recomputed.
    pub(crate) touched_units: u64,
}

impl LinkState {
    /// Functions the latest relink re-derived from their seeds: the cone's
    /// functions that held a summary before this relink. A departed
    /// function counts, a newly arrived one does not, and a cold link
    /// reports 0.
    pub fn reseeded(&self) -> u64 {
        self.reseeded
    }
}

impl Default for LinkState {
    fn default() -> LinkState {
        LinkState {
            program: Program {
                units: Vec::new(),
                linked: Arc::default(),
                import_fps: Vec::new(),
            },
            analyses: Vec::new(),
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
    /// A unit analyzed alone is a one-unit program linked by this very
    /// code, which is what makes a linked multi-unit analysis provably
    /// equal to a single-unit analysis of the concatenated sources.
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
    /// 2. **Patch the table.** Only changed units' definitions leave and
    ///    enter the function table: a function whose unit left loses its
    ///    definition and its call sites, one that arrives gets an id (its
    ///    namesake's, if it had one) and its call sites resolved to ids once.
    ///    A function is *dirty* when its memoised local fingerprint differs
    ///    from its namesake's, or it appeared or disappeared.
    /// 3. **Re-converge the cone.** The dirty functions' transitive
    ///    callers — read off the table's callers, stamped with the walk's
    ///    epoch — are reset to their seeds and re-converged in place
    ///    (`ProgramSummaries::converge`); everything else keeps its
    ///    converged `Arc`. Ids nothing defines or calls any more are retired
    ///    for the next names to reuse.
    /// 4. **Refresh what observes a moved summary.** The device names are
    ///    patched from the cone's summaries before and after. Imports
    ///    fingerprints are recomputed for changed units and for units that
    ///    name a function whose *projected* fingerprint moved, from
    ///    memoised per-summary fingerprints. When the device names gained
    ///    or lost a member, every projected fingerprint is re-derived and
    ///    every unit refreshed.
    ///
    /// The result is identical to a cold link of the same units (pinned by
    /// tests at every worker count), `linked.passes` aside — a diagnostic
    /// that reports the deepest component iteration of *this* link's cone —
    /// and the ids, which depend on the order names arrived in. On an error
    /// `state` is left as it was. The counts of the relink are left in
    /// `state` (`reseeded`, `touched_units`); the previous program's
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
            reseeded,
            touched_units,
        } = state;
        let Program {
            units: was,
            linked,
            import_fps,
        } = program;
        (*reseeded, *touched_units) = (0, 0);
        let table = Arc::make_mut(linked);

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
        // a surviving definition. Each arriving function gets its id here,
        // stamped with the unit that claims it.
        let claim = table.next_epoch();
        let mut arriving: Vec<FuncId> = Vec::new();
        for &i in &changed {
            for f in &units[i].exports().functions {
                let id = table.intern(f.resolved);
                arriving.push(id);
                let slot = table.slot_mut(id);
                let other = match slot.mark == claim {
                    true => Some(slot.pos),
                    false => slot.def.and_then(|(j, _)| survives(j)),
                };
                (slot.mark, slot.pos) = (claim, i);
                if let Some(other) = other {
                    for &id in &arriving {
                        table.retire_if_unused(id);
                    }
                    let unit = |i: usize| units[i].name().to_string();
                    return Err(ProgramError::DuplicateFunction {
                        function: f.source.to_string(),
                        units: [unit(other.min(i)), unit(other.max(i))],
                    });
                }
            }
        }

        // --- 2. Patch the table: retire what left, admit what came. ------
        analyses.clear();
        // A function whose unit left is stamped `left`; it keeps its local
        // fingerprint, converged summary and summary fingerprint for a
        // namesake to carry over.
        let left = table.next_epoch();
        let mut departed: Vec<FuncId> = Vec::new();
        // Callees that lost their last caller: retired at the end unless
        // someone calls or defines them again.
        let mut uncalled: Vec<FuncId> = Vec::new();
        for (j, unit) in was.iter().enumerate() {
            if survives(j).is_some() {
                continue;
            }
            for f in &unit.exports().functions {
                let id = table.id(f.resolved).expect("a linked function has an id");
                let slot = table.slot_mut(id);
                (slot.def, slot.mark) = (None, left);
                let mut calls = std::mem::take(&mut slot.calls);
                for &callee in &calls {
                    let callers = &mut table.slot_mut(callee).callers;
                    if let Some(at) = callers.iter().position(|&c| c == id) {
                        callers.swap_remove(at);
                    }
                    if callers.is_empty() {
                        uncalled.push(callee);
                    }
                }
                calls.clear();
                table.slot_mut(id).calls = calls;
                departed.push(id);
            }
        }
        // The dirty functions: the seed of the cone, each named once.
        let mut cone: Vec<FuncId> = Vec::new();
        let mut arriving = arriving.into_iter();
        for (i, unit) in units.iter().enumerate() {
            let exports = unit.exports();
            if kept(i).is_some() {
                if kept(i) != Some(i) {
                    // A kept unit that changed position.
                    for (index, f) in exports.functions.iter().enumerate() {
                        let id = table.id(f.resolved).expect("a linked function has an id");
                        table.slot_mut(id).def = Some((i, index));
                    }
                }
                continue;
            }
            for (index, f) in exports.functions.iter().enumerate() {
                let id = arriving.next().expect("every arriving function has an id");
                let slot = table.slot(id);
                if slot.mark != left || slot.local_fp != f.link.local_fp {
                    cone.push(id);
                }
                define(table, id, (i, index), f);
            }
        }
        // The functions that left without a namesake.
        cone.extend((departed.iter().copied()).filter(|&id| table.slot(id).def.is_none()));

        // --- 3. Re-converge the dirty cone, in place. --------------------
        // Summaries flow from callee to caller, so only transitive callers
        // of a dirty function can observe the change; a function that no
        // longer exists is still named by its callers' call sites. The
        // worklist is the cone: O(cone + its in-edges).
        let walk = table.next_epoch();
        for &id in &cone {
            table.slot_mut(id).mark = walk;
        }
        let mut next = 0;
        while let Some(&id) = cone.get(next) {
            next += 1;
            for k in 0..table.slot(id).callers.len() {
                let caller = table.slot(id).callers[k];
                let slot = table.slot_mut(caller);
                if slot.mark != walk {
                    slot.mark = walk;
                    cone.push(caller);
                }
            }
        }
        // Reset every cone function to its seed, or to nothing when it left.
        let mut ids = Vec::with_capacity(cone.len());
        let mut nodes = Vec::with_capacity(cone.len());
        let mut before: Vec<Option<Arc<FunctionSummary>>> = Vec::with_capacity(cone.len());
        for &id in &cone {
            let slot = table.slot_mut(id);
            let seed = slot.def.map(|(i, index)| {
                let exports = units[i].exports();
                let f = &exports.functions[index];
                ids.push(id);
                nodes.push(f.node(&exports.globals));
                Arc::clone(&f.link.seed)
            });
            if seed.is_none() {
                slot.projected_fp = 0;
            }
            before.push(std::mem::replace(&mut slot.summary, seed));
        }
        if !nodes.is_empty() {
            table.converge(&ids, &nodes, options.pessimistic_globals, threads);
        }

        // --- 4. Refresh what observes a moved summary. -------------------
        // The device names follow the cone's summaries; when they gain or
        // lose a member, every projected fingerprint may move.
        let mut device = std::mem::take(&mut table.device);
        let cone_moves = (cone.iter().zip(&before))
            .map(|(&id, before)| (before.as_deref(), table.slot(id).summary.as_deref()));
        let reproject = device.patch(cone_moves);
        table.device = device;
        // Changed units and the units calling a function whose projected
        // fingerprint moved — or every unit, after a reprojection.
        let mut touched = vec![reproject; units.len()];
        for &i in &changed {
            touched[i] = true;
        }
        if reproject {
            let device = &table.device;
            for slot in &mut table.slots {
                if let Some(summary) = &slot.summary {
                    slot.projected_fp = projected_fingerprint(summary, device);
                }
            }
        }
        // Once every unit is touched (a cold link) there is nobody left to
        // find through the callers.
        let mut untouched = touched.iter().filter(|touched| !**touched).count();
        for (&id, before) in cone.iter().zip(&before) {
            *reseeded += u64::from(before.is_some());
            let slot = table.slot(id);
            if slot.summary == *before || reproject {
                continue;
            }
            let mut moved = slot.summary.is_some() != before.is_some();
            if let (Some(now), Some(_)) = (&slot.summary, slot.def) {
                let fingerprint = projected_fingerprint(now, &table.device);
                moved |= fingerprint != slot.projected_fp;
                table.slot_mut(id).projected_fp = fingerprint;
            }
            if moved && untouched > 0 {
                for &caller in &table.slot(id).callers {
                    let (unit, _) = table.slot(caller).def.expect("a caller is defined");
                    let importer = &mut touched[unit];
                    untouched -= usize::from(!*importer);
                    *importer = true;
                }
            }
        }
        // Ids nothing defines or calls any more go to the next names.
        for id in departed.into_iter().chain(uncalled) {
            table.retire_if_unused(id);
        }
        // A unit's imports fingerprint moves with it; a changed unit's is
        // recomputed below.
        *import_fps = (0..units.len())
            .map(|i| kept(i).map_or(0, |j| import_fps[j]))
            .collect();

        // Dependency-aware imported-surface fingerprints, derived from the
        // *converged* fixed point: for each unit, hash the projected
        // fingerprint of every callee its functions name — resolved through
        // the unit's statics, exactly as its `LinkContext` resolves them.
        // These cover every cross-unit fact a plan of `analyze_linked` can
        // read — callee names, whether each has a summary, its parameter
        // effects, kernels and effects on globals in the device names — so
        // an edit in unit A moves unit B's fingerprint only when one of
        // those moved: a host-only effect on a global no region can map
        // re-plans the edited unit alone, not its import cone.
        for (i, unit) in units.iter().enumerate().filter(|(i, _)| touched[*i]) {
            *touched_units += 1;
            let exports = unit.exports();
            let statics = &exports.statics_mangled;
            let projected_fp = |callee| memoised_fingerprint(statics, table, callee);
            import_fps[i] = imports_fingerprint(exports, projected_fp);
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

    /// The [`LinkContext`] for the unit at `index`: pointer copies of the
    /// program's table and of the unit's statics, and the unit's
    /// dependency-aware imports fingerprint.
    pub fn link_context(&self, index: usize) -> LinkContext {
        LinkContext {
            summaries: Arc::clone(&self.linked),
            statics: Arc::clone(&self.units[index].exports().statics_mangled),
            imports_fingerprint: self.import_fps[index],
        }
    }

    /// The cross-unit interprocedural fixed point **alone**: a function
    /// table built from every unit's interface exactly as
    /// [`Program::relink`] builds it (statics mangled), converged with the
    /// SCC-wavefront engine on `threads` workers. No interface export or
    /// planning happens — parity tests and the `link_scale` bench use this
    /// to isolate the link fixed point from the rest of the pipeline. The
    /// units must link: no function may be defined twice.
    pub fn propagate_merged(
        units: &[Arc<SummarizedUnit>],
        options: &crate::OmpDartOptions,
        threads: usize,
    ) -> ProgramSummaries {
        let mut table = ProgramSummaries::default();
        let (mut ids, mut nodes) = (Vec::new(), Vec::new());
        for (i, unit) in units.iter().enumerate() {
            let exports = unit.exports();
            for (index, f) in exports.functions.iter().enumerate() {
                let id = table.intern(f.resolved);
                define(&mut table, id, (i, index), f);
                table.slot_mut(id).summary = Some(Arc::clone(&f.link.seed));
                ids.push(id);
                nodes.push(f.node(&exports.globals));
            }
        }
        table.converge(&ids, &nodes, options.pessimistic_globals, threads);
        table
    }
}

/// True when two unit lists name the same units position by position (a
/// pointer-equal pair needs no string compare).
fn same_names(a: &[Arc<SummarizedUnit>], b: &[Arc<SummarizedUnit>]) -> bool {
    a.len() == b.len() && (a.iter().zip(b)).all(|(a, b)| Arc::ptr_eq(a, b) || a.name() == b.name())
}

/// Make `id` the function `f`, defined at `(unit, index)` — its unit's index
/// in the program and its index in that unit's exports: record the
/// definition and its local fingerprint, and resolve its call sites to ids,
/// each callee gaining it as a caller.
fn define(table: &mut ProgramSummaries, id: FuncId, at: (usize, usize), f: &ExportedFunction) {
    let slot = table.slot_mut(id);
    slot.def = Some(at);
    slot.local_fp = f.link.local_fp;
    for call in &f.link.calls {
        let callee = table.intern(call.callee);
        table.slot_mut(callee).callers.push(id);
        table.slot_mut(id).calls.push(callee);
    }
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
    /// The unit was planned this run, every function of it.
    Planned,
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
    /// driver (an edit round): the per-phase breakdown below is then a
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

/// The one analysis driver: analyzes translation units as *one linked
/// program* over a shared [`AnalysisSession`] — parallel summarize → link →
/// parallel plan — and a single unit as a one-unit program.
///
/// A driver owns its program's [`LinkState`], so each round relinks only
/// what changed since the driver's previous round. Drivers over one session
/// share its unit table, store and counters, but never each
/// other's link state: a tool's one-unit analyses
/// ([`crate::Ompdart::analyze`]) run on a driver of their own and leave its
/// program driver's incremental relink and round-level fast path alone.
#[derive(Debug)]
pub struct ProgramDriver {
    session: Arc<AnalysisSession>,
    /// The latest linked program and its analyses. Empty until the first
    /// round; taken out for the length of a round (see
    /// [`Self::analyze_program_profiled`]).
    state: Mutex<LinkState>,
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
        ProgramDriver {
            session,
            state: Mutex::default(),
        }
    }

    /// The underlying session.
    pub fn session(&self) -> &Arc<AnalysisSession> {
        &self.session
    }

    /// Phase 1+2 only: summarize every unit in parallel and link them.
    /// The link is *incremental* across calls on one driver: the fixed
    /// point starts from the previously converged summaries and re-seeds
    /// only the edited functions' call-graph cone (the session's
    /// [`CacheStats`](crate::stats::CacheStats) prove it), byte-identical to
    /// a cold link.
    pub fn link(&self, inputs: &[(String, String)]) -> Result<Program, ProgramError> {
        let units = self.summarize_all(inputs)?;
        let mut state = self.take_state();
        let program = self.relink(units, &mut state);
        self.put_state(state);
        program
    }

    /// Take the link state out of the driver, leaving the empty state,
    /// whose patch is a cold link; [`Self::put_state`] puts it back.
    fn take_state(&self) -> LinkState {
        std::mem::take(&mut *self.state.lock().expect("link state lock poisoned"))
    }

    fn put_state(&self, state: LinkState) {
        *self.state.lock().expect("link state lock poisoned") = state;
    }

    /// Phase 1: summarize every unit in parallel (input order preserved).
    /// A unit's interface is what the link reads of it, so the worker that
    /// summarized a unit also computes its interface: the sequential link
    /// finds every one ready.
    fn summarize_all<N: AsRef<str> + Sync, S: AsRef<str> + Sync>(
        &self,
        inputs: &[(N, S)],
    ) -> Result<Vec<Arc<SummarizedUnit>>, ProgramError> {
        let threads = self.session.parallelism();
        let summarized = crate::pool::pool_map(threads, inputs.len(), |i| {
            let (name, source) = (inputs[i].0.as_ref(), inputs[i].1.as_ref());
            let unit = self.session.summarize(name, source);
            let ready = unit.inspect(|unit| {
                unit.exports();
            });
            ready.map_err(|error| ProgramError::Unit {
                name: name.to_string(),
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
    /// driver's persistent link state, and count what the relink re-seeded
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
        self.round(inputs, false).map(|(analysis, _)| analysis)
    }

    /// [`Self::analyze_program`] plus a [`DriverProfile`] of where the call
    /// spent its time.
    ///
    /// Two identity fast paths keep a round's cost on the units that
    /// changed:
    ///
    /// * **Round level** — when every unit's summarized `Arc` matches,
    ///   position-wise, the program the driver's [`LinkState`] holds, the
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
        let (analysis, profile) = self.round(inputs, true)?;
        Ok((analysis, profile.expect("a profiled round")))
    }

    /// One round over `(name, source)` pairs of any string type, so a
    /// one-unit round ([`crate::Ompdart::analyze`]) copies no source. Only
    /// a `profiled` round reads a clock or a counter for its
    /// [`DriverProfile`].
    pub(crate) fn round<N: AsRef<str> + Sync, S: AsRef<str> + Sync>(
        &self,
        inputs: &[(N, S)],
        profiled: bool,
    ) -> Result<(ProgramAnalysis, Option<DriverProfile>), ProgramError> {
        let clock = || profiled.then(Instant::now);
        let since = |start: Option<Instant>| start.map_or(Duration::ZERO, |at| at.elapsed());
        let before = profiled.then(|| {
            let parsed = self.session.cache_stats().parse_misses;
            (Instant::now(), crate::stats::PROCESS.snapshot(), parsed)
        });
        let finish_profile = |mut profile: DriverProfile| {
            let (total_start, process_before, parsed_before) = before?;
            profile.pool_workers = crate::pool::effective_width(self.session.parallelism());
            profile.set_rows(crate::stats::PROCESS.snapshot() - process_before);
            let parsed = self.session.cache_stats().parse_misses - parsed_before;
            profile.parsed_units = parsed as usize;
            profile.total = total_start.elapsed();
            Some(profile)
        };
        let count_fast_path =
            |units: usize| (self.session.counters()).add(Counter::fast_path_hits, units as u64);

        let phase = clock();
        let units = self.summarize_all(inputs)?;
        let summarize = since(phase);

        // Round-level identity fast path: the whole program is the one the
        // link state holds, analyses included. Read in place, under the lock.
        let fast = {
            let state = self.state.lock().expect("link state lock poisoned");
            let unchanged = state.analyses.len() == units.len()
                && (units.iter().zip(&state.program.units)).all(|(now, was)| Arc::ptr_eq(now, was));
            unchanged.then(|| ProgramAnalysis {
                units: state.analyses.clone(),
                served: vec![UnitServe::Cached; units.len()],
                link_passes: state.program.linked.passes,
            })
        };
        if let Some(analysis) = fast {
            count_fast_path(units.len());
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

        // Held until the round's analyses are in it: a concurrent round on
        // this driver meanwhile links cold, from the empty state.
        let mut state = self.take_state();
        let edit_path = !state.program.is_empty();

        let phase = clock();
        let program = match self.relink(units, &mut state) {
            Ok(program) => program,
            Err(error) => {
                self.put_state(state);
                return Err(error);
            }
        };
        let link = since(phase);

        // Unit-level identity fast path: the unit table already holds this
        // version's analysis under this imports fingerprint.
        let phase = clock();
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
        let contexts_elapsed = since(phase);

        let phase = clock();
        let threads = self.session.parallelism();
        let planned = crate::pool::pool_map(threads, todo.len(), |slot| {
            let unit_start = clock();
            let (i, context) = &todo[slot];
            let (analysis, serve) = self.session.analyze_linked(&program.units[*i], context);
            (analysis, serve, since(unit_start))
        });
        let plan = since(phase);

        // One batched store flush for the whole program: the per-unit
        // write-backs queued by `analyze_linked` land on disk through one
        // pool-parallel batch (one gc pass).
        let phase = clock();
        self.session.flush_store_writes();
        let flush = since(phase);

        let mut durations = Vec::with_capacity(planned.len());
        for ((i, _), (analysis, serve, elapsed)) in todo.iter().zip(planned) {
            units[*i] = Some(analysis);
            served[*i] = serve;
            durations.push(elapsed);
        }
        let units: Vec<Arc<UnitAnalysis>> = units.into_iter().flatten().collect();

        // The next round's round-level fast path reads these.
        state.analyses = units.clone();
        self.put_state(state);

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

    /// One link state follows 200 rounds of units being added, removed,
    /// renamed, edited and added back — each defines a `static` and a global
    /// function, calls the next unit's (defined or not), and one calls a
    /// name no unit ever defines — and after every round the patched link is
    /// a cold one: summaries, definitions by name, imports fingerprints.
    /// Ids are retired with the last definition or call of their name and
    /// reused: the table holds an id for exactly the names the live program
    /// defines or calls, and never more slots than the names of two
    /// consecutive programs.
    #[test]
    fn ids_follow_the_live_program_through_unit_churn() {
        let source = |k: usize, version: usize| {
            let write = match version % 2 {
                0 => format!("g{k}[0] += 1.0;"),
                _ => format!(
                    "\n  #pragma omp target teams distribute parallel for\n  \
                     for (int i = 0; i < 8; i++) g{k}[i] = i;"
                ),
            };
            let sink = if k == 0 { "  external_sink(g0);\n" } else { "" };
            format!(
                "double g{k}[8];\nstatic void helper(void) {{ {write} }}\n\
                 void f{k}(void) {{\n  helper();\n  f{}();\n{sink}}}\n",
                k + 1
            )
        };
        let mut rng = 0x5eed_u64;
        let mut roll = |n: usize| {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            (rng % n as u64) as usize
        };
        for pessimistic_globals in [false, true] {
            let options = crate::OmpDartOptions {
                pessimistic_globals,
            };
            let session = AnalysisSession::with_options(options);
            let mut state = LinkState::default();
            // (name, template, version) of every unit present.
            let mut present: Vec<(String, usize, usize)> = Vec::new();
            // The most names two consecutive programs had together.
            let mut peak = 0;
            let mut previous: Vec<Symbol> = Vec::new();
            for round in 0..200 {
                let absent: Vec<usize> = (0..6)
                    .filter(|k| present.iter().all(|(_, t, _)| t != k))
                    .collect();
                match roll(4) {
                    0 | 1 if !absent.is_empty() => {
                        let k = absent[roll(absent.len())];
                        let at = roll(present.len() + 1);
                        present.insert(at, (format!("u{k}.c"), k, roll(2)));
                    }
                    0 if !present.is_empty() => {
                        present.remove(roll(present.len()));
                    }
                    2 if !present.is_empty() => {
                        let at = roll(present.len());
                        present[at].0 = format!("u{}_{round}.c", present[at].1);
                    }
                    _ if !present.is_empty() => {
                        let at = roll(present.len());
                        present[at].2 += 1;
                    }
                    _ => {}
                }
                let units: Vec<Arc<SummarizedUnit>> = (present.iter())
                    .map(|(name, k, version)| {
                        let unit = session.summarize(name, &source(*k, *version));
                        unit.expect("a churn unit summarizes")
                    })
                    .collect();
                let patched = Program::relink(units.clone(), &options, 1, &mut state)
                    .expect("a churn program links");
                let cold = Program::link(units, &options).expect("a churn program links");
                let at = format!("round {round}, pessimistic {pessimistic_globals}: {present:?}");
                let table = &patched.linked;
                assert!(table.same_summaries(&cold.linked), "{at}");
                assert_eq!(table.defined_in(), cold.linked.defined_in(), "{at}");
                for i in 0..patched.len() {
                    let (was, now) = (patched.link_context(i), cold.link_context(i));
                    assert_eq!(was.imports_fingerprint, now.imports_fingerprint, "{at}");
                }
                let mut names: Vec<Symbol> = (patched.units.iter())
                    .flat_map(|unit| &unit.exports().functions)
                    .flat_map(|f| {
                        let calls = f.link.calls.iter().map(|call| call.callee);
                        std::iter::once(f.resolved).chain(calls)
                    })
                    .collect();
                names.sort_unstable();
                names.dedup();
                assert_eq!(table.live_ids(), names.len(), "{at}");
                // A relink admits the new names before it retires the old.
                let mut both = [&names[..], &previous[..]].concat();
                both.sort_unstable();
                both.dedup();
                peak = peak.max(both.len());
                assert!(table.slot_count() <= peak, "{at}");
                previous = names;
            }
        }
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
