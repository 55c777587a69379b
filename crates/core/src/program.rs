//! The whole-program link stage: cross-translation-unit summaries,
//! program-level liveness, and the two-phase [`ProgramDriver`].
//!
//! Every unit is planned under a [`LinkContext`] — the interprocedural
//! summaries its call sites resolve against, plus the referenced-variable
//! sets of functions defined elsewhere. A unit analyzed on its own gets the
//! *closed-world* context ([`LinkContext::closed_world`]): its own converged
//! summaries and nothing imported, so a call into another file has no
//! summary, [`crate::interproc::augment_with_call_effects`] falls back to
//! the maximally pessimistic host read+write assumption, and every
//! cross-file call forces conservative `tofrom` mappings. This module
//! builds the richer contexts of a *linked* program, between the Summaries
//! and Plans stages:
//!
//! 1. **Export** — each unit's [`ExportedInterface`] collects the
//!    prototypes, local interprocedural summaries, and referenced-variable
//!    sets of its defined functions, plus a stable fingerprint of all of
//!    it.
//! 2. **Link** — [`Program::link`] merges every unit's call graph and
//!    re-runs the interprocedural fixed point to convergence *across*
//!    units ([`LinkedSummaries`]), so a callee defined in another file
//!    resolves to its real summary.
//! 3. **Plan** — each unit is planned against the linked summaries and a
//!    cross-unit [`ExternalRefs`] view, so whole-program exit liveness
//!    (the dead-exit-copy demotion) still works when the kernel and the
//!    last reader live in different files.
//!
//! [`ProgramDriver`] packages the three phases as *parallel summarize →
//! sequential link → parallel plan* over one shared
//! [`AnalysisSession`]. Planning is the same call either way —
//! [`AnalysisSession::analyze_linked`] — so a single-unit program produces
//! byte-identical output to [`AnalysisSession::analyze`]. The defining
//! golden property, pinned by `tests/whole_program.rs` and the split
//! proptest: analyzing `k` units as one linked program rewrites each unit
//! byte-identically to analyzing the concatenation of all `k` unit sources
//! as a single translation unit.

use crate::dataflow::function_referenced_vars;
use crate::interproc::{FunctionSummary, ProgramSummaries, PropagationNode};
use crate::pipeline::{
    summary_fingerprint, AnalysisSession, Fnv, StageError, SummarizedUnit, UnitAnalysis,
};
use crate::plan::json::Json;
use crate::stats::Value;
use ompdart_frontend::Symbol;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fmt;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Referenced-variable sets of functions defined in *other* translation
/// units, keyed by (link-resolved) function name. The exit-liveness scan of
/// the planning stage consults this exactly like it scans same-unit
/// functions. Values are `Arc`-shared with the per-unit memoized exports,
/// so assembling the program-wide map never deep-copies a set.
pub type ExternalRefs = BTreeMap<Symbol, Arc<BTreeSet<String>>>;

/// The link-fingerprint value of analyses that are not part of any linked
/// program (a unit analyzed as a closed world).
pub const UNLINKED: u64 = 0;

/// The unit-private symbol a cross-unit `static` function links under:
/// `name@unit`. `@` cannot appear in a C identifier, so mangled names can
/// never collide with source-level ones. Calls inside the defining unit
/// resolve to the mangled symbol; other units never see it.
fn mangle_static(name: &str, unit: &str) -> String {
    format!("{name}@{unit}")
}

// ---------------------------------------------------------------------------
// ExportedInterface
// ---------------------------------------------------------------------------

/// What one translation unit exports to the rest of the program: for every
/// defined function its prototype shape, its *local* interprocedural
/// summary, and the set of variables its body references (whole-program
/// liveness input). The [`ExportedInterface::fingerprint`] is stable across
/// edits that do not change any of those facts — which is precisely when
/// other units' cached plans remain valid.
#[derive(Clone, Debug)]
pub struct ExportedInterface {
    /// The unit's name (diagnostics file name).
    pub unit: String,
    /// Names of the functions the unit defines, in source order.
    pub functions: Vec<String>,
    /// Stable fingerprint of the exported surface: function prototypes,
    /// local summaries, and referenced-variable sets.
    pub fingerprint: u64,
}

impl ExportedInterface {
    /// Export the interface of one summarized unit.
    pub fn of(unit: &SummarizedUnit) -> ExportedInterface {
        ExportedInterface::with_refs(unit, &unit_referenced_vars(unit))
    }

    /// [`ExportedInterface::of`] with the unit's referenced-variable sets
    /// already computed (the link stage computes them once per unit and
    /// shares them with every [`LinkContext`] instead of re-walking ASTs).
    fn with_refs(unit: &SummarizedUnit, refs: &ExternalRefs) -> ExportedInterface {
        let functions: Vec<String> = unit
            .parsed
            .unit
            .functions()
            .map(|f| f.name.to_string())
            .collect();
        // Hash in name order so the fingerprint is insensitive to function
        // reordering that changes nothing observable.
        let mut sorted: Vec<&ompdart_frontend::ast::FunctionDef> =
            unit.parsed.unit.functions().collect();
        sorted.sort_by_key(|a| a.name);
        let mut h = Fnv::new();
        for f in sorted {
            h.write_str(&f.name);
            h.write_u64(f.params.len() as u64);
            for p in &f.params {
                h.write(&[u8::from(p.is_const_pointee)]);
            }
            h.write(&[u8::from(f.is_variadic)]);
            // Unit-private `static` functions are invisible to other units'
            // call resolution but still participate in whole-program
            // liveness, so the storage class is part of the surface.
            h.write(&[u8::from(f.is_static)]);
            match unit.summaries.summaries.summary(f.name) {
                Some(s) => {
                    h.write(&[1]);
                    h.write_u64(summary_fingerprint(s));
                }
                None => h.write(&[0]),
            }
            if let Some(vars) = refs.get(&f.name) {
                for var in vars.iter() {
                    h.write_str(var);
                }
            }
            h.write(&[0xfe]);
        }
        ExportedInterface {
            unit: unit.parsed.name.clone(),
            functions,
            fingerprint: h.finish(),
        }
    }
}

/// The referenced-variable sets of every function a unit defines, keyed by
/// function name — one AST walk per function, computed once per unit.
fn unit_referenced_vars(unit: &SummarizedUnit) -> ExternalRefs {
    unit.parsed
        .unit
        .functions()
        .map(|f| (f.name, Arc::new(function_referenced_vars(f))))
        .collect()
}

/// One function's link-ready propagation inputs, resolved once per unit
/// *content*: its mangled name (statics), resolved call list, parameter
/// names, and local seed summary. [`Program::relink`] assembles the merged
/// call graph from these by borrowing — no per-relink name mangling, call
/// re-resolution, or node rebuilding.
#[derive(Debug)]
pub(crate) struct LinkFunction {
    /// Source-level name (artifact-map key inside the unit).
    pub(crate) source: Symbol,
    /// Link-resolved name: `name@unit` for statics, `source` otherwise.
    pub(crate) resolved: Symbol,
    /// Parameter names, in declaration order.
    pub(crate) params: Vec<Symbol>,
    /// Call sites with callee names link-resolved.
    pub(crate) calls: Vec<crate::access::CallSite>,
    /// The local seed summary under its resolved name.
    pub(crate) seed: FunctionSummary,
}

/// Everything the link stage derives from one unit's own content: its
/// referenced-variable sets, its [`ExportedInterface`], and its resolved
/// propagation inputs. Memoized on the [`SummarizedUnit`] itself (a
/// `OnceLock`), so a content-identical unit — which keeps its `Arc` across
/// rounds thanks to the summarize cache — pays the AST walks, name
/// mangling, and call resolution once per unit *content*, not once per
/// relink.
#[derive(Debug)]
pub(crate) struct UnitExports {
    /// Referenced variables per defined function, keyed by *resolved* name
    /// (statics mangled) — exactly the entries the program-wide
    /// `extern_refs` map takes, values `Arc`-shared.
    pub(crate) resolved_refs: ExternalRefs,
    /// The unit's exported interface (prototypes, summaries, refs).
    pub(crate) interface: Arc<ExportedInterface>,
    /// `(source, resolved)` name of every defined function, in source
    /// order (duplicate-definition rejection reads these).
    pub(crate) names: Vec<(Symbol, Symbol)>,
    /// `(source, mangled)` for the unit's `static` functions (the
    /// static-shadowing summary views read these).
    pub(crate) statics_mangled: Vec<(Symbol, Symbol)>,
    /// Link-ready propagation inputs per function with full artifacts.
    pub(crate) link_funcs: Vec<LinkFunction>,
}

impl SummarizedUnit {
    /// The memoized link-stage exports of this unit (see [`UnitExports`]).
    pub(crate) fn exports(&self) -> &UnitExports {
        self.link_exports.get_or_init(|| {
            let refs = unit_referenced_vars(self);
            let interface = Arc::new(ExportedInterface::with_refs(self, &refs));
            let uname = &self.parsed.name;
            let statics: BTreeSet<Symbol> = self
                .parsed
                .unit
                .functions()
                .filter(|f| f.is_static)
                .map(|f| f.name)
                .collect();
            let statics_mangled: Vec<(Symbol, Symbol)> = statics
                .iter()
                .map(|&s| (s, Symbol::intern(&mangle_static(&s, uname))))
                .collect();
            let resolve = |name: Symbol| -> Symbol {
                match statics_mangled.iter().find(|(s, _)| *s == name) {
                    Some(&(_, mangled)) => mangled,
                    None => name,
                }
            };
            let names: Vec<(Symbol, Symbol)> = self
                .parsed
                .unit
                .functions()
                .map(|f| (f.name, resolve(f.name)))
                .collect();
            let resolved_refs: ExternalRefs = refs
                .iter()
                .map(|(name, vars)| (resolve(*name), Arc::clone(vars)))
                .collect();
            let link_funcs: Vec<LinkFunction> = self
                .parsed
                .unit
                .functions()
                .filter_map(|f| {
                    let seed = self.summaries.seeds.get(&f.name)?;
                    let acc = self.accesses.accesses.get(&f.name)?;
                    let resolved = resolve(f.name);
                    let mut calls = acc.calls.clone();
                    for call in &mut calls {
                        call.callee = resolve(call.callee);
                    }
                    let mut seed = seed.clone();
                    seed.name = resolved;
                    Some(LinkFunction {
                        source: f.name,
                        resolved,
                        params: f.params.iter().map(|p| p.name).collect(),
                        calls,
                        seed,
                    })
                })
                .collect();
            UnitExports {
                resolved_refs,
                interface,
                names,
                statics_mangled,
                link_funcs,
            }
        })
    }
}

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
    pub defined_in: BTreeMap<Symbol, usize>,
    /// Propagation passes the cross-unit fixed point took.
    pub passes: usize,
}

/// Everything the planning stage of *one unit* needs from the link layer.
#[derive(Clone, Debug)]
pub struct LinkContext {
    /// Whole-program summaries (shared across all units of the program).
    pub summaries: Arc<ProgramSummaries>,
    /// Referenced-variable sets of every function defined in another unit.
    pub extern_refs: Arc<ExternalRefs>,
    /// Fingerprint of `extern_refs`, mixed into `main`'s liveness cache
    /// fingerprint.
    pub extern_refs_fingerprint: u64,
    /// Fingerprint of the unit's *observed* imported surface: the
    /// converged summary of every callee its functions name (through the
    /// unit's static-shadowing view) plus, for units defining `main`, the
    /// program-wide referenced-variable map `main`'s exit-liveness scan
    /// consults. Threaded through the unit-analysis cache and the persistent
    /// store key: editing one file invalidates another unit's stored plans
    /// only when a fact that unit actually *reads* changed — an edit round
    /// re-plans the import cone, not the whole program.
    pub imports_fingerprint: u64,
}

impl LinkContext {
    /// The context of a unit analyzed on its own — the closed-world
    /// program: call sites resolve against the unit's own converged
    /// summaries, no function is defined elsewhere, and the imports
    /// fingerprint is [`UNLINKED`] (the unit-analysis cache and store key
    /// of stand-alone analyses).
    pub fn closed_world(unit: &SummarizedUnit) -> LinkContext {
        let extern_refs = ExternalRefs::new();
        LinkContext {
            summaries: Arc::clone(&unit.summaries.summaries),
            extern_refs_fingerprint: external_refs_fingerprint(&extern_refs),
            extern_refs: Arc::new(extern_refs),
            imports_fingerprint: UNLINKED,
        }
    }
}

fn external_refs_fingerprint(refs: &ExternalRefs) -> u64 {
    let mut h = Fnv::new();
    for (name, vars) in refs {
        h.write_str(name.as_str());
        for v in vars.iter() {
            h.write_str(v);
        }
        h.write(&[0xfd]);
    }
    h.finish()
}

// ---------------------------------------------------------------------------
// Program: the linked whole-program view
// ---------------------------------------------------------------------------

/// A linked program: every unit's summarize-phase artifacts, the exported
/// interfaces, and the converged cross-unit summaries.
#[derive(Debug)]
pub struct Program {
    /// The summarized units, in input order.
    pub units: Vec<Arc<SummarizedUnit>>,
    /// Per-unit exported interfaces (same order as `units`).
    pub interfaces: Vec<Arc<ExportedInterface>>,
    /// The cross-unit link fixed point. Unit-private `static` functions
    /// appear under their mangled `name@unit` symbols here; per-unit
    /// [`LinkContext`]s expose them under their source-level names again.
    pub linked: LinkedSummaries,
    /// The *program-wide* referenced-variable map shared by every unit's
    /// [`LinkContext`]: all units' functions, other units' statics under
    /// their mangled `name@unit` symbols. Built once per relink (O(program)
    /// total, not O(units²) as the old per-unit exclusion maps were); see
    /// [`Program::link_context`] for why sharing one map is sound.
    all_refs: Arc<ExternalRefs>,
    /// Fingerprint of `all_refs` (shared by every context).
    all_refs_fingerprint: u64,
    /// Per-unit imported-surface fingerprints (see
    /// [`LinkContext::imports_fingerprint`]). Dependency-aware: unit `i`'s
    /// entry hashes the converged summaries of exactly the callees unit
    /// `i` names, so it moves only when a fact unit `i` observes changed.
    import_fps: Vec<u64>,
    /// Per-unit summary views, built once at link time for units that
    /// define statics (`None` for units without statics, which share
    /// `linked.summaries` directly). Views are lookup-only
    /// [`ProgramSummaries::overlay`]s over the linked summaries — they hold
    /// just the unit's shadowing `static` entries, not a full clone.
    unit_views: Vec<Option<Arc<ProgramSummaries>>>,
}

/// The persisted outcome of one whole-program link, kept by the
/// [`AnalysisSession`] so the *next* link of the same program can start
/// from the previous fixed point: only functions whose local fingerprint
/// (seed summary + resolved call list) changed — plus their reverse
/// call-graph cone — are re-derived from their seeds
/// ([`ProgramSummaries::propagate_incremental`]). An unchanged program
/// relinks without running a single propagation pass, and the result is
/// pinned byte-identical to a cold link.
#[derive(Debug)]
pub struct LinkState {
    /// The unit names of the linked program, in input order. A link over a
    /// different unit set falls back to a cold fixed point.
    unit_names: Vec<String>,
    /// Per-function local fingerprints (resolved names): the seed summary
    /// plus everything the propagation reads from the caller side of each
    /// call site.
    local_fps: BTreeMap<Symbol, u64>,
    /// The converged cross-unit summaries (resolved names), shared with
    /// the program's [`LinkedSummaries`] — an unchanged relink reuses the
    /// `Arc` instead of cloning the whole summary set.
    summaries: Arc<ProgramSummaries>,
    /// Propagation passes of the converged fixed point (reported when an
    /// unchanged relink skips propagation entirely).
    passes: usize,
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
    /// convergence across unit boundaries.
    ///
    /// The fixed point is computed by the exact algorithm the summarize
    /// stage runs per unit ([`ProgramSummaries::propagate`]) over the merged view,
    /// which is what makes a linked multi-unit analysis provably equal to a
    /// single-unit analysis of the concatenated sources.
    pub fn link(
        units: Vec<Arc<SummarizedUnit>>,
        options: &crate::OmpDartOptions,
    ) -> Result<Program, ProgramError> {
        Program::relink(units, options, None).map(|(program, _, _)| program)
    }

    /// [`Program::link`] with an optional previously converged
    /// [`LinkState`]: the cross-unit fixed point starts from the previous
    /// summaries and re-seeds only the functions whose local fingerprint
    /// changed, plus their reverse call-graph cone. Returns the program,
    /// the new link state, and the number of re-seeded functions (zero for
    /// an unchanged relink, everything-defined for a cold link reported as
    /// zero — cold links have no "re-" to speak of).
    pub fn relink(
        units: Vec<Arc<SummarizedUnit>>,
        options: &crate::OmpDartOptions,
        previous: Option<&LinkState>,
    ) -> Result<(Program, Arc<LinkState>, u64), ProgramError> {
        // Reject duplicate definitions before merging anything. Functions
        // link under their *resolved* names: unit-private `static`
        // definitions mangle to `name@unit`, so same-named statics in
        // different units coexist instead of colliding (two statics with
        // one name inside the same unit still collide, as in C). The
        // resolved names — like every other per-unit link input below —
        // come from each unit's memoized exports: a content-unchanged unit
        // keeps its summarize Arc, so no AST is re-walked (and no name is
        // re-mangled) for it on a relink.
        let mut defined_in: BTreeMap<Symbol, usize> = BTreeMap::new();
        for (idx, unit) in units.iter().enumerate() {
            for &(source, resolved) in &unit.exports().names {
                if let Some(first) = defined_in.insert(resolved, idx) {
                    return Err(ProgramError::DuplicateFunction {
                        function: source.to_string(),
                        units: [units[first].parsed.name.clone(), unit.parsed.name.clone()],
                    });
                }
            }
        }

        let interfaces: Vec<Arc<ExportedInterface>> = units
            .iter()
            .map(|u| Arc::clone(&u.exports().interface))
            .collect();

        // The program-wide referenced-variable map every LinkContext
        // shares: all units, other units' statics mangled. One map for the
        // whole program instead of one exclusion map per unit; entries are
        // Arc-shared with the per-unit memos, never deep-copied.
        let mut all_refs: ExternalRefs = BTreeMap::new();
        for unit in &units {
            for (name, vars) in &unit.exports().resolved_refs {
                all_refs.insert(*name, Arc::clone(vars));
            }
        }
        let all_refs_fingerprint = external_refs_fingerprint(&all_refs);
        let all_refs = Arc::new(all_refs);

        // The whole-program fixed point over per-function seeds. Each
        // unit's summarize phase already produced (and cached, function-
        // granularly) its local seeds; linking only merges them under
        // resolved names and (re-)runs the call-site propagation.
        let unit_names: Vec<String> = units.iter().map(|u| u.parsed.name.clone()).collect();
        let (summaries, passes, reseeded, local_fps) = if options.interprocedural {
            let threads = options.effective_link_threads();
            let (seeds, nodes) = merged_propagation_inputs(&units);
            let local_fps: BTreeMap<Symbol, u64> = nodes
                .iter()
                .map(|node| (node.name, local_fingerprint(node, &seeds)))
                .collect();

            // Previous state is only reusable for the same program (same
            // unit names, in order) — interleaving different programs over
            // one session falls back to a cold fixed point each time.
            let reusable = previous.filter(|state| state.unit_names == unit_names);
            match reusable {
                Some(state) => {
                    let dirty: BTreeSet<Symbol> = local_fps
                        .iter()
                        .filter(|(name, fp)| state.local_fps.get(*name) != Some(fp))
                        .map(|(name, _)| *name)
                        .chain(
                            state
                                .local_fps
                                .keys()
                                .filter(|name| !local_fps.contains_key(*name))
                                .copied(),
                        )
                        .collect();
                    if dirty.is_empty() {
                        // Nothing changed: the previous fixed point stands
                        // verbatim — share its Arc instead of cloning (and
                        // re-verifying) the whole summary set.
                        (Arc::clone(&state.summaries), state.passes, 0, local_fps)
                    } else {
                        let (mut merged, cone) = ProgramSummaries::propagate_incremental(
                            &nodes,
                            &seeds,
                            &state.summaries,
                            &dirty,
                            options.max_interproc_passes,
                            options.pessimistic_globals,
                            threads,
                        );
                        let passes = if cone.is_empty() {
                            // The dirty set named only removed functions:
                            // no propagation ran.
                            merged.passes = state.passes;
                            state.passes
                        } else {
                            merged.passes
                        };
                        (Arc::new(merged), passes, cone.len() as u64, local_fps)
                    }
                }
                None => {
                    // Cold link: the seed map was built fresh above, so
                    // hand it to the engine instead of cloning it again.
                    let merged = ProgramSummaries::propagate(
                        &nodes,
                        seeds,
                        options.max_interproc_passes,
                        options.pessimistic_globals,
                        threads,
                    );
                    let passes = merged.passes;
                    (Arc::new(merged), passes, 0, local_fps)
                }
            }
        } else {
            (Arc::new(ProgramSummaries::default()), 0, 0, BTreeMap::new())
        };

        let state = Arc::new(LinkState {
            unit_names,
            local_fps,
            summaries: Arc::clone(&summaries),
            passes,
        });
        // Per-unit views for static-bearing units, built once here rather
        // than on every `link_context` call: the unit's own statics appear
        // under their source-level names (shadowing any same-named
        // external symbol, as C scoping does). Each view is an overlay
        // holding only those shadowing entries — resolution of every other
        // name falls through to the shared linked summaries.
        let unit_views: Vec<Option<Arc<ProgramSummaries>>> = units
            .iter()
            .map(|unit| {
                let statics = &unit.exports().statics_mangled;
                if statics.is_empty() {
                    return None;
                }
                let mut view = ProgramSummaries::overlay(Arc::clone(&summaries));
                for &(name, mangled) in statics {
                    if let Some(summary) = summaries.summary(mangled) {
                        let mut summary = summary.clone();
                        summary.name = name;
                        view.insert(name, summary);
                    }
                }
                Some(Arc::new(view))
            })
            .collect();

        // Dependency-aware imported-surface fingerprints, derived from the
        // *converged* fixed point: for each unit, hash the summary of
        // every callee its functions name — resolved through the unit's
        // static-shadowing view, exactly as planning resolves them — plus
        // the program-wide referenced-variable map for units defining
        // `main` (the only consumer of `extern_refs`). These cover every
        // cross-unit fact `analyze_linked` can observe, so an edit in unit
        // A moves unit B's fingerprint only when a summary B actually
        // reads changed: the edit path re-plans the import cone, not the
        // program. (The old scheme hashed all *other* units' exported
        // interfaces, so any interface change anywhere invalidated every
        // unit — `one_edit_ms` tracked program size, not cone size.)
        let import_fps: Vec<u64> = units
            .iter()
            .enumerate()
            .map(|(idx, unit)| {
                let view: &ProgramSummaries = match &unit_views[idx] {
                    Some(view) => view,
                    None => &summaries,
                };
                let mut h = Fnv::new();
                let mut defines_main = false;
                for f in unit.parsed.unit.functions() {
                    defines_main |= f.name == "main";
                    h.write_str(&f.name);
                    h.write_u64(crate::pipeline::callees_fingerprint(
                        f.name,
                        &unit.accesses,
                        view,
                        &unit.parsed.unit,
                    ));
                    h.write(&[0xee]);
                }
                if defines_main {
                    h.write(&[1]);
                    h.write_u64(all_refs_fingerprint);
                }
                h.finish()
            })
            .collect();

        let program = Program {
            units,
            interfaces,
            linked: LinkedSummaries {
                summaries,
                defined_in,
                passes,
            },
            all_refs,
            all_refs_fingerprint,
            import_fps,
            unit_views,
        };
        Ok((program, state, reseeded))
    }

    /// Number of units in the program.
    pub fn len(&self) -> usize {
        self.units.len()
    }

    /// True for the empty program.
    pub fn is_empty(&self) -> bool {
        self.units.is_empty()
    }

    /// The [`LinkContext`] for the unit at `index`, assembled in O(1) from
    /// program-wide pieces: the linked summaries (or the unit's prebuilt
    /// static-shadowing view), the shared referenced-variable map, and the
    /// unit's dependency-aware imports fingerprint.
    ///
    /// Every unit shares **one** `extern_refs` map covering *all* units —
    /// including the unit's own functions, which the per-unit maps used to
    /// exclude. That is behavior-preserving because the map's only
    /// consumer, the exit-liveness scan
    /// (`dataflow::may_be_read_after_region`), (a) short-circuits to the
    /// conservative answer for every function except `main` before
    /// consulting it, (b) skips the entry whose key equals the scanned
    /// function's own name (mangled `name@unit` symbols can never equal
    /// `main`), and (c) scans same-unit sibling functions *directly*
    /// (walking their bodies) before falling back to the map, with the
    /// identical traversal that produced the map's entries — so a same-unit
    /// entry can only confirm what the direct scan already found. Other
    /// units' statics stay under their private mangled symbols, so two
    /// same-named statics never merge their variable sets.
    pub fn link_context(&self, index: usize) -> LinkContext {
        // Per-unit summary view, prebuilt at link time for static-bearing
        // units; everyone else shares the linked summaries directly.
        let summaries = match &self.unit_views[index] {
            Some(view) => Arc::clone(view),
            None => Arc::clone(&self.linked.summaries),
        };
        LinkContext {
            summaries,
            extern_refs: Arc::clone(&self.all_refs),
            extern_refs_fingerprint: self.all_refs_fingerprint,
            imports_fingerprint: self.import_fps[index],
        }
    }

    /// The cross-unit interprocedural fixed point **alone**: seeds and call
    /// graphs merged exactly as [`Program::relink`] merges them (statics
    /// mangled), converged with the SCC-wavefront engine on `threads`
    /// workers. No interface export, liveness, or planning happens —
    /// parity tests and the `link_scale` bench use this to isolate the
    /// link fixed point from the rest of the pipeline.
    pub fn propagate_merged(
        units: &[Arc<SummarizedUnit>],
        options: &crate::OmpDartOptions,
        threads: usize,
    ) -> ProgramSummaries {
        let (seeds, nodes) = merged_propagation_inputs(units);
        ProgramSummaries::propagate(
            &nodes,
            seeds,
            options.max_interproc_passes,
            options.pessimistic_globals,
            threads,
        )
    }

    /// [`Program::propagate_merged`] through the sequential reference
    /// engine (the pre-condensation whole-program sweep). Convergence on a
    /// call chain of depth `d` requires `options.max_interproc_passes >= d`
    /// here — the wavefront engine has no such requirement, which is the
    /// asymptotic difference the `link_scale` bench measures.
    pub fn propagate_merged_sequential(
        units: &[Arc<SummarizedUnit>],
        options: &crate::OmpDartOptions,
    ) -> ProgramSummaries {
        let (seeds, nodes) = merged_propagation_inputs(units);
        ProgramSummaries::propagate_sequential(
            &nodes,
            &seeds,
            options.max_interproc_passes,
            options.pessimistic_globals,
        )
    }
}

/// Merge every unit's per-function seeds and propagation nodes under their
/// link-resolved names: unit-private `static` functions (and calls to
/// them from inside their unit) mangle to `name@unit`, everything else
/// keeps its source-level name. All resolution already happened once per
/// unit content ([`UnitExports::link_funcs`]); this merge only borrows the
/// memoized call lists and clones each seed into the owned map.
fn merged_propagation_inputs(
    units: &[Arc<SummarizedUnit>],
) -> (HashMap<Symbol, FunctionSummary>, Vec<PropagationNode<'_>>) {
    let mut seeds: HashMap<Symbol, FunctionSummary> = HashMap::new();
    let mut nodes: Vec<PropagationNode<'_>> = Vec::new();
    for unit in units {
        for lf in &unit.exports().link_funcs {
            let Some(sym) = unit.accesses.symbols.get(&lf.source) else {
                continue;
            };
            seeds.insert(lf.resolved, lf.seed.clone());
            nodes.push(PropagationNode {
                name: lf.resolved,
                params: std::borrow::Cow::Borrowed(&lf.params),
                sym,
                calls: std::borrow::Cow::Borrowed(&lf.calls),
            });
        }
    }
    (seeds, nodes)
}

/// Fingerprint of everything the cross-unit propagation reads from one
/// function's caller side: its local seed summary plus, for every call
/// site, the resolved callee, the execution space, and the classification
/// of each by-reference argument. Two links in which every function's
/// local fingerprint matches converge to identical summaries — which is
/// what lets the incremental relink skip them.
fn local_fingerprint(node: &PropagationNode<'_>, seeds: &HashMap<Symbol, FunctionSummary>) -> u64 {
    let mut h = Fnv::new();
    match seeds.get(&node.name) {
        Some(seed) => {
            h.write(&[1]);
            h.write_u64(summary_fingerprint(seed));
        }
        None => h.write(&[0]),
    }
    for call in node.calls.iter() {
        h.write_str(&call.callee);
        h.write(&[u8::from(call.on_device)]);
        for arg in &call.args {
            h.write(&[u8::from(arg.by_ref)]);
            match &arg.base_var {
                Some(var) => {
                    h.write_str(var);
                    h.write(&[
                        u8::from(node.sym.is_aggregate(var)),
                        u8::from(node.sym.is_global(var)),
                    ]);
                    h.write_u64(
                        node.params
                            .iter()
                            .position(|p| p == var)
                            .map(|i| i as u64 + 1)
                            .unwrap_or(0),
                    );
                }
                None => h.write(&[0xfe]),
            }
        }
        h.write(&[0xfd]);
    }
    h.finish()
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
/// order), the exported interfaces, and how each unit was served.
#[derive(Debug)]
pub struct ProgramAnalysis {
    /// Per-unit analyses, in input order.
    pub units: Vec<Arc<UnitAnalysis>>,
    /// Per-unit exported interfaces, in input order.
    pub interfaces: Vec<Arc<ExportedInterface>>,
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

/// One completed whole-program round, retained by the session for the
/// *identity fast path* of the next round: a unit whose summarized `Arc`
/// (content identity — the summarize cache guarantees identical content
/// yields one `Arc`) and imports fingerprint (everything the unit's plans
/// can observe of the other units: prototypes, summaries, referenced
/// variables) both match its entry here is served the previous round's
/// linked analysis without content hashing, cache probing, relocation or
/// re-planning.
#[derive(Debug)]
pub(crate) struct ProgramRound {
    pub(crate) units: Vec<Arc<SummarizedUnit>>,
    pub(crate) analyses: Vec<Arc<UnitAnalysis>>,
    pub(crate) interfaces: Vec<Arc<ExportedInterface>>,
    pub(crate) imports_fps: Vec<u64>,
    pub(crate) link_passes: usize,
    /// Unit name → index (last wins for duplicate names; the `Arc::ptr_eq`
    /// + fingerprint verification makes a wrong mapping harmless).
    pub(crate) by_name: HashMap<String, usize>,
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
    /// True when the round rode previously recorded link state in this
    /// session (an edit round): the per-phase breakdown below is then a
    /// one-edit profile, not a cold-start one.
    pub edit_path: bool,
    /// Wall time of the parallel summarize phase.
    pub summarize: Duration,
    /// Wall time of the (incremental) link fixed point.
    pub link: Duration,
    /// Wall time spent assembling per-unit link contexts.
    pub contexts: Duration,
    /// Wall time of the parallel plan+rewrite fan-out.
    pub plan: Duration,
    /// Wall time of the batched store flush.
    pub flush: Duration,
    /// End-to-end wall time of the whole call.
    pub total: Duration,
    /// Median per-unit latency inside the plan fan-out.
    pub unit_p50: Duration,
    /// 99th-percentile per-unit latency inside the plan fan-out.
    pub unit_p99: Duration,
    /// Worker count the parallel phases actually ran at: the driver's
    /// requested thread count capped at the machine's available
    /// parallelism ([`crate::pool::effective_width`]).
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
    pub fn fields(&self) -> [(&'static str, Value); 20] {
        macro_rules! cells {
            ($($kind:ident($field:ident $(as $ty:ty)?)),+) => {
                [$((stringify!($field), Value::$kind(self.$field $(as $ty)?))),+]
            };
        }
        cells!(
            Count(units as u64),
            Count(fast_path_units as u64),
            Count(warm_units as u64),
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
/// [`AnalysisSession`]: parallel summarize → sequential link → parallel
/// plan. Contrast with [`crate::Ompdart::analyze_batch`], which analyzes
/// units independently (each a closed world).
#[derive(Debug)]
pub struct ProgramDriver {
    session: Arc<AnalysisSession>,
    threads: usize,
}

impl ProgramDriver {
    /// A driver over a fresh default session.
    pub fn new() -> ProgramDriver {
        ProgramDriver::with_session(Arc::new(AnalysisSession::new()))
    }

    /// A driver over an existing session (shares all of its caches).
    pub fn with_session(session: Arc<AnalysisSession>) -> ProgramDriver {
        let threads = session.parallelism();
        ProgramDriver { session, threads }
    }

    /// Override the number of worker threads for the parallel phases.
    pub fn with_threads(mut self, threads: usize) -> ProgramDriver {
        self.threads = threads.max(1);
        self
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
        self.relink_units(units)
    }

    /// Phase 1: summarize every unit in parallel (input order preserved).
    fn summarize_all(
        &self,
        inputs: &[(String, String)],
    ) -> Result<Vec<Arc<SummarizedUnit>>, ProgramError> {
        let summarized = crate::pipeline::parallel_map_indexed(self.threads, inputs.len(), |i| {
            let (name, source) = &inputs[i];
            self.session
                .summarize(name, source)
                .map_err(|error| ProgramError::Unit {
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

    /// Phase 2: (incrementally) link already-summarized units.
    fn relink_units(&self, units: Vec<Arc<SummarizedUnit>>) -> Result<Program, ProgramError> {
        let previous = self.session.take_link_state();
        let (program, state, reseeded) =
            Program::relink(units, self.session.options(), previous.as_deref())?;
        self.session.note_link(state, reseeded);
        Ok(program)
    }

    /// The full two-phase pipeline: parallel summarize, sequential link,
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
    /// Two identity fast paths ride on the previous round recorded in the
    /// session (a `ProgramRound`):
    ///
    /// * **Round level** — when every unit's summarized `Arc` matches the
    ///   previous round position-wise, the whole round is the previous
    ///   round: its analyses are returned with no link, no contexts, no
    ///   planning, no flush. A warm re-analysis of an unchanged program is
    ///   N summarize-cache probes plus N pointer comparisons.
    /// * **Unit level** — on edit rounds, any unit whose `Arc` *and*
    ///   imports fingerprint match its previous-round entry reuses its
    ///   previous analysis without content hashing or cache probing; only
    ///   genuinely affected units reach `analyze_linked`.
    ///
    /// Soundness: the summarize cache guarantees identical `(name,
    /// content)` yields one `Arc`, so `Arc` identity is content identity;
    /// the imports fingerprint covers every cross-unit fact a unit's plans
    /// can observe (the same key the unit-analysis cache and the persistent
    /// store trust). Byte-identity of fast-path rounds is pinned by tests
    /// at every thread count.
    pub fn analyze_program_profiled(
        &self,
        inputs: &[(String, String)],
    ) -> Result<(ProgramAnalysis, DriverProfile), ProgramError> {
        let total_start = Instant::now();
        let process_before = crate::stats::PROCESS.snapshot();
        let finish_profile = |mut profile: DriverProfile| {
            profile.pool_workers = crate::pool::effective_width(self.threads);
            profile.set_rows(crate::stats::PROCESS.snapshot() - process_before);
            profile.total = total_start.elapsed();
            profile
        };

        let phase = Instant::now();
        let units = self.summarize_all(inputs)?;
        let summarize = phase.elapsed();

        let round = self.session.last_round();

        // Round-level identity fast path: the whole program is the
        // previous round.
        if let Some(round) = &round {
            if round.units.len() == units.len()
                && units
                    .iter()
                    .zip(&round.units)
                    .all(|(now, prev)| Arc::ptr_eq(now, prev))
            {
                self.session.count_fast_path(units.len() as u64);
                let analysis = ProgramAnalysis {
                    units: round.analyses.clone(),
                    interfaces: round.interfaces.clone(),
                    served: vec![UnitServe::Cached; units.len()],
                    link_passes: round.link_passes,
                };
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
        }

        let phase = Instant::now();
        let program = self.relink_units(units)?;
        let link = phase.elapsed();

        let phase = Instant::now();
        let contexts: Vec<LinkContext> = (0..program.len())
            .map(|i| program.link_context(i))
            .collect();
        let contexts_elapsed = phase.elapsed();

        let phase = Instant::now();
        let planned = crate::pipeline::parallel_map_indexed(self.threads, program.len(), |i| {
            let unit_start = Instant::now();
            // Unit-level identity fast path: unchanged content (Arc
            // identity) under an unchanged imported surface reuses the
            // previous round's analysis outright.
            let reused = round.as_ref().and_then(|round| {
                let j = *round.by_name.get(program.units[i].parsed.name.as_str())?;
                (Arc::ptr_eq(&program.units[i], &round.units[j])
                    && contexts[i].imports_fingerprint == round.imports_fps[j])
                    .then(|| Arc::clone(&round.analyses[j]))
            });
            let (analysis, serve, fast) = match reused {
                Some(analysis) => (analysis, UnitServe::Cached, true),
                None => {
                    let (analysis, serve) =
                        self.session.analyze_linked(&program.units[i], &contexts[i]);
                    (analysis, serve, false)
                }
            };
            (analysis, serve, fast, unit_start.elapsed())
        });
        let plan = phase.elapsed();

        // One batched store flush for the whole program: the per-unit
        // write-backs queued by `analyze_linked` land on disk through one
        // pool-parallel batch (one gc pass).
        let phase = Instant::now();
        self.session.flush_store_writes();
        let flush = phase.elapsed();

        let mut units = Vec::with_capacity(planned.len());
        let mut served = Vec::with_capacity(planned.len());
        let mut durations = Vec::with_capacity(planned.len());
        let mut fast_path_units = 0usize;
        for (analysis, serve, fast, elapsed) in planned {
            units.push(analysis);
            served.push(serve);
            durations.push(elapsed);
            fast_path_units += usize::from(fast);
        }
        self.session.count_fast_path(fast_path_units as u64);

        // Record this round for the next one's identity fast paths.
        let by_name: HashMap<String, usize> = program
            .units
            .iter()
            .enumerate()
            .map(|(i, u)| (u.parsed.name.clone(), i))
            .collect();
        self.session.note_round(Arc::new(ProgramRound {
            units: program.units.clone(),
            analyses: units.clone(),
            interfaces: program.interfaces.clone(),
            imports_fps: contexts.iter().map(|c| c.imports_fingerprint).collect(),
            link_passes: program.linked.passes,
            by_name,
        }));

        durations.sort_unstable();
        let warm_units = served
            .iter()
            .filter(|s| matches!(s, UnitServe::Cached | UnitServe::Store))
            .count();
        let profile = finish_profile(DriverProfile {
            units: units.len(),
            fast_path_units,
            warm_units,
            edit_path: round.is_some(),
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
                interfaces: program.interfaces,
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
            "{\"units\":3,\"fast_path_units\":0,\"warm_units\":0,\"edit_path\":true,\
             \"summarize_ms\":1.500,\"link_ms\":0.000,\"contexts_ms\":0.000,\"plan_ms\":0.000,\
             \"flush_ms\":0.000,\"total_ms\":0.000,\"unit_p50_ms\":0.000,\"unit_p99_ms\":0.000,\
             \"pool_workers\":2,\"pool_jobs\":0,\"pool_items\":0,\"pool_inline_jobs\":0,\
             \"pool_fallback_jobs\":0,\"pool_wait_ns\":0,\"lock_wait_ns\":0,\
             \"lock_contentions\":7}"
        );
        // The wire object is the same list with integer-microsecond
        // durations; `pool_workers` is its one key the parent did not send.
        assert_eq!(
            profile.to_wire_json().render(),
            "{\"units\":3,\"fast_path_units\":0,\"warm_units\":0,\"edit_path\":true,\
             \"summarize_us\":1500,\"link_us\":0,\"contexts_us\":0,\"plan_us\":0,\
             \"flush_us\":0,\"total_us\":0,\"unit_p50_us\":0,\"unit_p99_us\":0,\
             \"pool_workers\":2,\"pool_jobs\":0,\"pool_items\":0,\"pool_inline_jobs\":0,\
             \"pool_fallback_jobs\":0,\"pool_wait_ns\":0,\"lock_wait_ns\":0,\
             \"lock_contentions\":7}"
        );
    }
}
