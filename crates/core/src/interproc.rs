//! Interprocedural side-effect analysis (Section IV-C of the paper).
//!
//! For every function the analysis summarizes how it accesses data visible
//! to its callers: data reached through pointer parameters and global
//! variables, split by whether the access happens on the host or inside an
//! offloaded region. Summaries are propagated through call sites with a
//! fixed-point iteration bounded by the maximum call depth (with early
//! termination once a pass makes no changes), and call sites are then
//! augmented with *maximally pessimistic* assumptions for callees whose
//! definitions are not visible (external translation units), exactly as the
//! paper prescribes: `const` pointer parameters are assumed read-only, other
//! pointers read-write.
//!
//! One engine serves every fixed point: [`ProgramSummaries::propagate`]
//! converges a whole node set from its seeds (a unit's own functions in the
//! summarize stage, a cold link's whole program), and
//! [`ProgramSummaries::propagate_incremental`] re-converges, in place, just
//! the caller-closed cone the link stage hands it — condensing only the
//! cone's subgraph, with every converged summary held behind its own `Arc`
//! so that starting from a previous fixed point copies pointers.

use crate::access::{Access, AccessKind, AccessOrigin, CallSite, FunctionAccesses, SymbolTable};
use ompdart_frontend::ast::{FunctionDef, TranslationUnit};
use ompdart_frontend::Symbol;
use std::borrow::Cow;
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

/// The effect of a function on one externally visible datum.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Effect {
    pub host_read: bool,
    pub host_write: bool,
    pub device_read: bool,
    pub device_write: bool,
}

impl Effect {
    /// True if no access was recorded.
    pub fn is_empty(&self) -> bool {
        !(self.host_read || self.host_write || self.device_read || self.device_write)
    }

    /// Merge another effect into this one; returns true if anything changed.
    pub fn merge(&mut self, other: Effect) -> bool {
        let before = *self;
        self.host_read |= other.host_read;
        self.host_write |= other.host_write;
        self.device_read |= other.device_read;
        self.device_write |= other.device_write;
        *self != before
    }

    /// Record a single access.
    pub fn record(&mut self, kind: AccessKind, on_device: bool) -> bool {
        let mut add = Effect::default();
        if kind.may_read() {
            if on_device {
                add.device_read = true;
            } else {
                add.host_read = true;
            }
        }
        if kind.may_write() {
            if on_device {
                add.device_write = true;
            } else {
                add.host_write = true;
            }
        }
        self.merge(add)
    }

    /// Convert to the access kinds this effect implies, as (host, device).
    pub fn as_access_kinds(&self) -> (Option<AccessKind>, Option<AccessKind>) {
        let combine = |read: bool, write: bool| match (read, write) {
            (false, false) => None,
            (true, false) => Some(AccessKind::Read),
            (false, true) => Some(AccessKind::Write),
            (true, true) => Some(AccessKind::ReadWrite),
        };
        (
            combine(self.host_read, self.host_write),
            combine(self.device_read, self.device_write),
        )
    }

    /// The maximally pessimistic effect (read + write on the host).
    pub fn pessimistic_host() -> Effect {
        Effect {
            host_read: true,
            host_write: true,
            ..Default::default()
        }
    }

    /// A host read-only effect (used for `const` pointer parameters).
    pub fn read_only_host() -> Effect {
        Effect {
            host_read: true,
            ..Default::default()
        }
    }
}

/// Summary of one function's externally visible effects.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FunctionSummary {
    pub name: Symbol,
    /// Effect on the data reached through each pointer/array parameter,
    /// indexed by parameter position.
    pub param_effects: Vec<Effect>,
    /// Effect on each global variable. A `BTreeMap` so every iteration over
    /// the summary — fingerprinting, call-site propagation, augmentation —
    /// is deterministic regardless of insertion order or thread scheduling.
    pub global_effects: BTreeMap<Symbol, Effect>,
    /// True if the function (transitively) launches offload kernels.
    pub has_kernels: bool,
}

/// Summaries for every function definition in the translation unit.
#[derive(Clone, Debug, Default)]
pub struct ProgramSummaries {
    /// One `Arc` per function: seeds flow from the summaries stage through
    /// the fixed point into every per-unit view as pointer copies,
    /// and cloning a whole converged set deep-copies nothing.
    functions: HashMap<Symbol, Arc<FunctionSummary>>,
    /// Optional fall-through layer for [`Self::summary`] lookups: an
    /// [`Self::overlay`] view holds only its own (shadowing) entries and
    /// resolves everything else here, so building a per-unit view over a
    /// whole-program summary set costs the few shadowed entries instead of
    /// cloning every function's summary. Overlays are *lookup-only* views:
    /// `iter`/`len`/`is_empty`/`same_summaries` see just the own layer.
    base: Option<Arc<ProgramSummaries>>,
    /// Number of propagation passes performed before reaching a fixed point.
    pub passes: usize,
}

/// Functions from the C standard library (and the OpenMP runtime) that are
/// known not to modify caller-visible data through their pointer arguments
/// beyond their documented behaviour.
const PURE_BUILTINS: &[&str] = &[
    "exp",
    "expf",
    "exp2",
    "log",
    "logf",
    "log2",
    "log10",
    "sqrt",
    "sqrtf",
    "cbrt",
    "fabs",
    "fabsf",
    "abs",
    "labs",
    "pow",
    "powf",
    "sin",
    "sinf",
    "cos",
    "cosf",
    "tan",
    "floor",
    "ceil",
    "fmax",
    "fmin",
    "fmod",
    "rand",
    "srand",
    "omp_get_wtime",
    "omp_get_num_threads",
    "omp_get_max_threads",
    "omp_get_thread_num",
    "omp_get_num_devices",
    "printf",
    "fprintf",
    "assert",
    "exit",
];

/// The *local* (direct-effect) summary of one function: what its own
/// expressions do to parameters and globals, before any call-site
/// propagation. This is the per-function seed of the interprocedural fixed
/// point; it depends only on the function's own text and the unit
/// environment.
pub fn seed_summary(
    func: &FunctionDef,
    acc: &FunctionAccesses,
    sym: &SymbolTable,
) -> FunctionSummary {
    let mut summary = FunctionSummary {
        name: func.name,
        param_effects: vec![Effect::default(); func.params.len()],
        global_effects: BTreeMap::new(),
        has_kernels: acc.accesses.iter().any(|a| a.on_device)
            || acc.calls.iter().any(|c| c.on_device),
    };
    for access in &acc.accesses {
        if let Some(idx) = param_index(func, access.var) {
            if sym.is_aggregate(access.var) {
                summary.param_effects[idx].record(access.kind, access.on_device);
            }
        } else if sym.is_global(access.var) {
            summary
                .global_effects
                .entry(access.var)
                .or_default()
                .record(access.kind, access.on_device);
        }
    }
    summary
}

/// Where a by-reference call argument lands in the *caller's* summary: the
/// one fact the fixed point needs about an argument's base variable,
/// resolved against the caller's symbol table when the node is built — so
/// the propagation itself reads no symbol table and no AST.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ArgTarget {
    /// An aggregate parameter of the caller, by position.
    Param(u32),
    /// A global variable.
    Global(Symbol),
}

/// One by-reference argument of a call site whose base variable is visible
/// to the caller's callers. Arguments passed by value, without a base
/// variable, or based on a local or scalar are not recorded: a callee's
/// effect on them never leaves the caller.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LinkArg {
    /// Position of the argument: the index of the callee parameter whose
    /// effect flows through it.
    pub position: u32,
    pub target: ArgTarget,
}

/// One call site as the call-site propagation reads it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LinkCall {
    pub callee: Symbol,
    pub on_device: bool,
    pub args: Vec<LinkArg>,
}

impl LinkCall {
    /// The propagation's view of `call`, made in a function with parameters
    /// `func.params` and symbol table `sym`.
    pub fn of(call: &CallSite, func: &FunctionDef, sym: &SymbolTable) -> LinkCall {
        let target = |var: Symbol| match param_index(func, var) {
            Some(position) => sym
                .is_aggregate(var)
                .then_some(ArgTarget::Param(position as u32)),
            None => sym.is_global(var).then_some(ArgTarget::Global(var)),
        };
        let args = call.args.iter().enumerate().filter_map(|(position, arg)| {
            let target = target(arg.base_var.filter(|_| arg.by_ref)?)?;
            Some(LinkArg {
                position: position as u32,
                target,
            })
        });
        LinkCall {
            callee: call.callee,
            on_device: call.on_device,
            args: args.collect(),
        }
    }
}

/// Everything the call-site propagation reads from one function, decoupled
/// from the owning [`TranslationUnit`] — and from its symbol tables — so the
/// link stage can run the fixed point over functions from *several* units
/// (with unit-private `static` names already resolved in `calls`), whether
/// those units were parsed this run or restored from the store.
#[derive(Clone, Debug)]
pub struct PropagationNode<'a> {
    /// The function's name under which its seed (and converged summary) is
    /// keyed — for cross-unit `static` functions this is the mangled
    /// unit-private symbol, not the source-level name.
    pub name: Symbol,
    /// The function's call sites, callee names fully resolved. Borrowed
    /// when the caller memoized the resolved list (the link stage does, per
    /// unit content), owned when built fresh.
    pub calls: Cow<'a, [LinkCall]>,
    /// The globals the function can see — what a call to an unknown callee
    /// clobbers in pessimistic-globals mode. Empty when that mode is off.
    pub globals: &'a [Symbol],
}

impl<'a> PropagationNode<'a> {
    /// Build the node for one function from its per-unit artifacts.
    pub fn build(
        name: Symbol,
        func: &FunctionDef,
        acc: &FunctionAccesses,
        sym: &SymbolTable,
        globals: &'a [Symbol],
    ) -> PropagationNode<'a> {
        let calls = acc.calls.iter().map(|call| LinkCall::of(call, func, sym));
        PropagationNode {
            name,
            calls: Cow::Owned(calls.collect()),
            globals,
        }
    }
}

/// The globals a function of `unit` can see, sorted: every global the unit
/// declares (a parameter or local of the same name does not hide one from
/// [`SymbolTable::is_global`]).
pub fn visible_globals(unit: &TranslationUnit) -> Vec<Symbol> {
    let mut globals: Vec<Symbol> = unit.globals().map(|g| g.name).collect();
    globals.sort_unstable();
    globals.dedup();
    globals
}

impl ProgramSummaries {
    /// Compute summaries by fixed-point iteration over the call graph.
    pub fn compute(
        unit: &TranslationUnit,
        accesses: &HashMap<Symbol, FunctionAccesses>,
        symbols: &HashMap<Symbol, SymbolTable>,
        max_passes: usize,
    ) -> ProgramSummaries {
        let mut seeds = HashMap::new();
        let mut nodes = Vec::new();
        for func in unit.functions() {
            let Some(acc) = accesses.get(&func.name) else {
                continue;
            };
            let Some(sym) = symbols.get(&func.name) else {
                continue;
            };
            seeds.insert(func.name, Arc::new(seed_summary(func, acc, sym)));
            nodes.push(PropagationNode::build(func.name, func, acc, sym, &[]));
        }
        ProgramSummaries::propagate(&nodes, seeds, max_passes, false, 1)
    }

    /// Run the call-site propagation to a fixed point over pre-computed
    /// per-function seeds (consumed: the converged result is built in
    /// place) — the SCC-wavefront engine with up to `threads` workers.
    /// Seeds can come from a cache, and the link stage feeds it nodes
    /// spanning several translation units.
    ///
    /// When `clobber_globals` is set (the opt-in pessimistic-globals mode),
    /// a call to a function with no summary (and not a pure builtin) merges
    /// a pessimistic host read+write of every visible global into the
    /// *caller's* summary, so the clobber is transitive — callers of a
    /// function that calls an unknown extern see the globals clobbered too,
    /// not just the direct call site.
    ///
    /// The call graph is condensed into strongly connected components
    /// ([`crate::scc::condense`]); components within one wavefront share no
    /// edges and converge in parallel, and only genuinely recursive
    /// components iterate internally (an acyclic component converges in a
    /// single visit once its callees are final, because its summary is a
    /// fixed union of already-converged values). Effects form a finite
    /// monotone lattice, so the least fixed point is unique: the result is
    /// bitwise identical for every `threads` value and identical to
    /// [`Self::propagate_sequential`] whenever the sequential sweep is
    /// given enough passes to converge.
    ///
    /// `max_passes` bounds only the *inner* iteration of recursive
    /// components (bounded by the component's size in practice); acyclic
    /// components never consume more than one pass regardless, which is
    /// what makes thousand-deep cross-unit call chains converge in one
    /// wavefront sweep instead of a thousand whole-program passes.
    pub fn propagate(
        nodes: &[PropagationNode<'_>],
        seeds: HashMap<Symbol, Arc<FunctionSummary>>,
        max_passes: usize,
        clobber_globals: bool,
        threads: usize,
    ) -> ProgramSummaries {
        let mut result = ProgramSummaries {
            functions: seeds,
            base: None,
            passes: 0,
        };
        result.run_wavefronts(nodes, max_passes, clobber_globals, threads);
        result
    }

    /// The pre-condensation engine: a whole-program `while changed` sweep,
    /// kept as the executable reference the SCC-wavefront engine is pinned
    /// against (parity tests, the `link_scale` bench). Unlike
    /// [`Self::propagate`], convergence on a call chain of depth
    /// `d` needs `max_passes >= d` here.
    pub fn propagate_sequential(
        nodes: &[PropagationNode<'_>],
        seeds: &HashMap<Symbol, Arc<FunctionSummary>>,
        max_passes: usize,
        clobber_globals: bool,
    ) -> ProgramSummaries {
        let mut result = ProgramSummaries {
            functions: seeds.clone(),
            base: None,
            passes: 0,
        };
        result.run_passes(nodes, max_passes, clobber_globals);
        result
    }

    /// Incremental propagation, in place: `self` is a *previously
    /// converged* summary set and `cone` a set of functions closed under
    /// "is called by" — every dirty function plus its transitive callers,
    /// the only summaries that can depend on a dirty one (the link stage
    /// keeps the reverse call graph that yields it). Each cone entry is
    /// reset to its fresh seed, or dropped when the function no longer
    /// exists (`None`) — a shrunk seed must not keep stale effects alive —
    /// and `nodes`, the cone's surviving functions, are re-converged
    /// against the stable out-of-cone values with up to `threads` workers.
    /// Returns what each cone entry held before, in `cone` order.
    ///
    /// Because the out-of-cone summaries depend only on out-of-cone seeds
    /// (no transitive call reaches a dirty function), they are already at
    /// the least fixed point and the result is identical to a cold
    /// [`Self::propagate`] over all nodes. Every strongly connected
    /// component is a set of mutual transitive callers, so the cone always
    /// covers whole components: condensing the cone's own subgraph yields
    /// exactly the components (and callee-before-caller order) a
    /// whole-program condensation would, at the cone's cost.
    pub fn propagate_incremental(
        &mut self,
        cone: Vec<(Symbol, Option<Arc<FunctionSummary>>)>,
        nodes: &[PropagationNode<'_>],
        max_passes: usize,
        clobber_globals: bool,
        threads: usize,
    ) -> Vec<Option<Arc<FunctionSummary>>> {
        let previous = cone
            .into_iter()
            .map(|(name, seed)| match seed {
                Some(seed) => self.functions.insert(name, seed),
                None => self.functions.remove(&name),
            })
            .collect();
        if !nodes.is_empty() {
            self.run_wavefronts(nodes, max_passes, clobber_globals, threads);
        }
        previous
    }

    /// The SCC-wavefront engine shared by the cold and incremental fixed
    /// points: converges exactly `nodes`, reading (never updating) the
    /// summary of any callee outside them.
    ///
    /// Wavefront levels are processed in ascending order; within one level
    /// the components share no edges, so up to `threads` workers converge
    /// them concurrently against an immutable snapshot of the summaries and
    /// their (disjoint) results are merged back between levels. `passes`
    /// reports the deepest inner iteration any single component needed —
    /// the wavefront analogue of the old whole-program pass count.
    fn run_wavefronts(
        &mut self,
        nodes: &[PropagationNode<'_>],
        max_passes: usize,
        clobber_globals: bool,
        threads: usize,
    ) {
        let index: HashMap<Symbol, usize> = nodes
            .iter()
            .enumerate()
            .map(|(i, node)| (node.name, i))
            .collect();
        let adj: Vec<Vec<usize>> = nodes
            .iter()
            .map(|node| {
                node.calls
                    .iter()
                    .filter_map(|call| index.get(&call.callee).copied())
                    .collect()
            })
            .collect();
        let cond = crate::scc::condense(&adj);

        let mut deepest = 0usize;
        for wavefront in &cond.wavefronts {
            let results = {
                let base = &self.functions;
                crate::pipeline::parallel_map_indexed(threads, wavefront.len(), |slot| {
                    let c = wavefront[slot];
                    converge_component(
                        nodes,
                        base,
                        &cond.members[c],
                        cond.cyclic[c],
                        max_passes,
                        clobber_globals,
                    )
                })
            };
            for (updates, inner) in results {
                deepest = deepest.max(inner);
                for (name, summary) in updates {
                    self.functions.insert(name, Arc::new(summary));
                }
            }
        }
        self.passes = deepest;
    }

    /// The pre-condensation pass loop: a whole-program sweep until no
    /// summary changes, backing [`Self::propagate_sequential`].
    fn run_passes(
        &mut self,
        nodes: &[PropagationNode<'_>],
        max_passes: usize,
        clobber_globals: bool,
    ) {
        let working = |functions: &HashMap<Symbol, Arc<FunctionSummary>>, name: Symbol| {
            functions
                .get(&name)
                .map(|summary| FunctionSummary::clone(summary))
                .unwrap_or_default()
        };
        for pass in 0..max_passes.max(1) {
            self.passes = pass + 1;
            let mut changed = false;
            for node in nodes {
                for call in node.calls.iter() {
                    let Some(callee_summary) = self.functions.get(&call.callee).cloned() else {
                        if clobber_globals && !PURE_BUILTINS.contains(&call.callee.as_str()) {
                            let mut caller = working(&self.functions, node.name);
                            if merge_unknown_call(&mut caller, node, call.on_device) {
                                self.functions.insert(node.name, Arc::new(caller));
                                changed = true;
                            }
                        }
                        continue;
                    };
                    let mut caller = working(&self.functions, node.name);
                    if merge_known_call(&mut caller, call, &callee_summary) {
                        self.functions.insert(node.name, Arc::new(caller));
                        changed = true;
                    }
                }
            }
            if !changed {
                break;
            }
        }
    }

    /// A lookup-only view over `base`: [`Self::summary`] resolves names
    /// first in the view's `own` layer, then in `base`. The own layer
    /// shadows `base` without touching it — the link stage's per-unit
    /// static views cost the few shadowed `static` entries (pointer
    /// copies) instead of a full clone of the whole-program summary set.
    pub fn overlay(
        base: Arc<ProgramSummaries>,
        own: impl IntoIterator<Item = (Symbol, Arc<FunctionSummary>)>,
    ) -> ProgramSummaries {
        ProgramSummaries {
            functions: own.into_iter().collect(),
            passes: base.passes,
            base: Some(base),
        }
    }

    /// The summary for a function, if it was analyzed. Overlay views fall
    /// through to their base layer for names they do not shadow.
    pub fn summary(&self, name: impl Into<Symbol>) -> Option<&FunctionSummary> {
        self.summary_sym(name.into())
    }

    fn summary_sym(&self, name: Symbol) -> Option<&FunctionSummary> {
        match self.functions.get(&name) {
            Some(summary) => Some(summary),
            None => self.base.as_ref().and_then(|base| base.summary_sym(name)),
        }
    }

    /// Iterate all summaries (unspecified order).
    pub fn iter(&self) -> impl Iterator<Item = (&Symbol, &FunctionSummary)> {
        self.functions.iter().map(|(name, s)| (name, &**s))
    }

    /// Number of summarized functions.
    pub fn len(&self) -> usize {
        self.functions.len()
    }

    pub fn is_empty(&self) -> bool {
        self.functions.is_empty()
    }

    /// True when both sides converged to identical summaries. `passes` — a
    /// diagnostic count whose value depends on the engine — is ignored;
    /// every effect, parameter slot, and global entry must match exactly.
    pub fn same_summaries(&self, other: &ProgramSummaries) -> bool {
        self.functions == other.functions
    }
}

/// Merge one known callee's summary into `caller` across `call`. Returns
/// true when anything changed. Shared verbatim by the sequential reference
/// engine and the SCC-wavefront workers so the two cannot drift apart.
fn merge_known_call(
    caller: &mut FunctionSummary,
    call: &LinkCall,
    callee_summary: &FunctionSummary,
) -> bool {
    let mut local_changed = false;
    if callee_summary.has_kernels && !caller.has_kernels {
        caller.has_kernels = true;
        local_changed = true;
    }
    // Parameter effects flow to the caller's own params/globals.
    for arg in &call.args {
        let mut effect = callee_summary
            .param_effects
            .get(arg.position as usize)
            .copied()
            .unwrap_or_default();
        if call.on_device {
            effect = device_shifted(effect);
        }
        local_changed |= match arg.target {
            ArgTarget::Param(position) => caller.param_effects[position as usize].merge(effect),
            ArgTarget::Global(var) => caller.global_effects.entry(var).or_default().merge(effect),
        };
    }
    // Global effects propagate directly.
    for (global, effect) in &callee_summary.global_effects {
        let mut effect = *effect;
        if call.on_device {
            effect = device_shifted(effect);
        }
        local_changed |= caller
            .global_effects
            .entry(*global)
            .or_default()
            .merge(effect);
    }
    local_changed
}

/// Merge the pessimistic-globals clobber of an unknown callee into
/// `caller`: every global the caller can see becomes host read+written
/// (device-shifted inside offloaded regions), so the clobber is part of
/// the *summary* and propagates transitively to the caller's own callers.
fn merge_unknown_call(
    caller: &mut FunctionSummary,
    node: &PropagationNode<'_>,
    on_device: bool,
) -> bool {
    let mut effect = Effect::pessimistic_host();
    if on_device {
        effect = device_shifted(effect);
    }
    let mut local_changed = false;
    for &var in node.globals {
        local_changed |= caller.global_effects.entry(var).or_default().merge(effect);
    }
    local_changed
}

/// Converge one strongly connected component against an immutable snapshot
/// of every previously converged summary. Returns the component's updated
/// entries plus the number of inner passes it took.
///
/// An acyclic component's converged summary is its seed unioned with fixed
/// (already converged) callee contributions; unions are idempotent and
/// commutative, so a single visit reaches the fixed point. Recursive
/// components iterate until no summary changes, bounded by `max_passes`.
fn converge_component(
    nodes: &[PropagationNode<'_>],
    base: &HashMap<Symbol, Arc<FunctionSummary>>,
    members: &[usize],
    cyclic: bool,
    max_passes: usize,
    clobber_globals: bool,
) -> (Vec<(Symbol, FunctionSummary)>, usize) {
    // Working copies exist only for members whose summary actually changes;
    // unchanged members keep their `base` entry verbatim, so the common
    // acyclic component converges with zero summary clones.
    let mut local: HashMap<Symbol, FunctionSummary> = HashMap::new();
    let inner_max = if cyclic { max_passes.max(1) } else { 1 };
    let mut passes = 0usize;
    for pass in 0..inner_max {
        passes = pass + 1;
        let mut changed = false;
        for &v in members {
            let node = &nodes[v];
            if node.calls.is_empty() {
                continue;
            }
            // Hoist the caller's working summary out of the maps once per
            // visit instead of cloning it per call edge; it goes back only
            // if this visit (or an earlier pass) changed it.
            let (mut caller, was_local) = match local.remove(&node.name) {
                Some(summary) => (summary, true),
                None => {
                    let summary = base.get(&node.name).map(|s| FunctionSummary::clone(s));
                    (summary.unwrap_or_default(), false)
                }
            };
            let mut caller_changed = false;
            for call in node.calls.iter() {
                if call.callee == node.name {
                    // A self-recursive edge reads the caller while mutating
                    // it; merge against a snapshot.
                    let snapshot = caller.clone();
                    if merge_known_call(&mut caller, call, &snapshot) {
                        caller_changed = true;
                    }
                    continue;
                }
                // In-component callees live in `local` (and shadow their
                // stale `base` snapshot); everything else is final in `base`.
                let callee = local
                    .get(&call.callee)
                    .or_else(|| base.get(&call.callee).map(|s| &**s));
                match callee {
                    Some(callee_summary) => {
                        if merge_known_call(&mut caller, call, callee_summary) {
                            caller_changed = true;
                        }
                    }
                    None => {
                        if clobber_globals
                            && !PURE_BUILTINS.contains(&call.callee.as_str())
                            && merge_unknown_call(&mut caller, node, call.on_device)
                        {
                            caller_changed = true;
                        }
                    }
                }
            }
            if caller_changed || was_local {
                local.insert(node.name, caller);
            }
            changed |= caller_changed;
        }
        if !changed {
            break;
        }
    }
    (local.into_iter().collect(), passes)
}

/// Move every host effect to the device (used when the call site itself
/// executes inside an offloaded region).
fn device_shifted(e: Effect) -> Effect {
    Effect {
        host_read: false,
        host_write: false,
        device_read: e.host_read || e.device_read,
        device_write: e.host_write || e.device_write,
    }
}

fn param_index(func: &FunctionDef, var: Symbol) -> Option<usize> {
    func.params.iter().position(|p| p.name == var)
}

/// Augment a function's access list with the side effects of its call sites,
/// using computed summaries for known callees and maximally pessimistic
/// assumptions for unknown ones. Synthetic accesses record their
/// [`AccessOrigin`] so downstream provenance can distinguish a real summary
/// (possibly from another translation unit) from the pessimistic fallback.
///
/// Returns the number of call sites that hit the pessimistic
/// unknown-callee fallback (zero when every non-builtin callee resolved to
/// a real summary, as in a fully linked whole-program analysis).
///
/// **Default assumption:** an unknown extern callee is assumed to read and
/// write the data reached through its non-`const` pointer arguments — and
/// *nothing else*. In particular it is assumed **not** to touch global
/// variables it was not handed a pointer to. The opt-in `clobber_globals`
/// mode (pessimistic globals) drops that assumption: an unknown extern
/// callee is additionally assumed to read and write **every global
/// variable** of the translation unit on the host (the synthesized accesses
/// carry [`AccessOrigin::UnknownCallee`] with `clobbers_global`, so the
/// `unknown_callee_pessimistic` provenance explains them at the call site).
pub fn augment_with_call_effects(
    acc: &mut FunctionAccesses,
    unit: &TranslationUnit,
    summaries: &ProgramSummaries,
    clobber_globals: bool,
) -> usize {
    // Detach the call list while synthesizing accesses (which only appends
    // to `acc.accesses`) instead of deep-cloning every call site.
    let calls: Vec<CallSite> = std::mem::take(&mut acc.calls);
    let mut fallbacks = 0usize;
    for call in &calls {
        // Known callee with a body: apply its summary. The summary may come
        // from this unit or — in a linked whole-program analysis — from
        // another translation unit; record which.
        if let Some(summary) = summaries.summary(call.callee) {
            let origin = AccessOrigin::Callee {
                callee: call.callee,
                cross_unit: !unit.functions().any(|f| f.name == call.callee),
            };
            for (arg_idx, arg) in call.args.iter().enumerate() {
                if !arg.by_ref {
                    continue;
                }
                let Some(var) = &arg.base_var else { continue };
                let effect = summary
                    .param_effects
                    .get(arg_idx)
                    .copied()
                    .unwrap_or_default();
                push_effect_accesses(acc, *var, effect, call, &origin);
            }
            // Deterministic order: the synthetic accesses decide the
            // mapped-variable order of the caller's plan, so iterate the
            // globals sorted — never in HashMap order. (`BTreeMap<Symbol>`
            // orders by resolved string, same as the old `String` keys.)
            for (global, effect) in summary.global_effects.iter() {
                push_effect_accesses(acc, *global, *effect, call, &origin);
            }
            continue;
        }
        // Pure/standard library functions: reads only.
        if PURE_BUILTINS.contains(&call.callee.as_str()) {
            let origin = AccessOrigin::Callee {
                callee: call.callee,
                cross_unit: false,
            };
            for arg in &call.args {
                if arg.by_ref {
                    if let Some(var) = &arg.base_var {
                        push_effect_accesses(acc, *var, Effect::read_only_host(), call, &origin);
                    }
                }
            }
            continue;
        }
        // Unknown external function: maximally pessimistic assumptions,
        // refined by `const` pointer parameters on a visible prototype.
        let proto = unit.all_functions().find(|f| f.name == call.callee);
        let origin = AccessOrigin::UnknownCallee {
            callee: call.callee,
            clobbers_global: false,
        };
        let mut fell_back = false;
        for (arg_idx, arg) in call.args.iter().enumerate() {
            if !arg.by_ref {
                continue;
            }
            let Some(var) = &arg.base_var else { continue };
            let is_const = proto
                .and_then(|p| p.params.get(arg_idx))
                .map(|p| p.is_const_pointee)
                .unwrap_or(false);
            let effect = if is_const {
                Effect::read_only_host()
            } else {
                fell_back = true;
                Effect::pessimistic_host()
            };
            push_effect_accesses(acc, *var, effect, call, &origin);
        }
        // Opt-in: the unknown callee may also touch any global it can name,
        // not just the data it was handed a pointer to.
        if clobber_globals {
            let globals = visible_globals(unit);
            if !globals.is_empty() {
                fell_back = true;
                let origin = AccessOrigin::UnknownCallee {
                    callee: call.callee,
                    clobbers_global: true,
                };
                for global in globals {
                    push_effect_accesses(acc, global, Effect::pessimistic_host(), call, &origin);
                }
            }
        }
        if fell_back {
            fallbacks += 1;
        }
    }
    acc.calls = calls;
    fallbacks
}

fn push_effect_accesses(
    acc: &mut FunctionAccesses,
    var: Symbol,
    effect: Effect,
    call: &CallSite,
    origin: &AccessOrigin,
) {
    let mut effect = effect;
    if call.on_device {
        effect = device_shifted(effect);
    }
    let (host_kind, device_kind) = effect.as_access_kinds();
    if let Some(kind) = host_kind {
        acc.add_synthetic(Access {
            var,
            kind,
            stmt: call.stmt,
            on_device: false,
            span: call.span,
            indices: Vec::new(),
            origin: origin.clone(),
        });
    }
    if let Some(kind) = device_kind {
        acc.add_synthetic(Access {
            var,
            kind,
            stmt: call.stmt,
            on_device: true,
            span: call.span,
            indices: Vec::new(),
            origin: origin.clone(),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::access::{FunctionAccesses, SymbolTable};
    use ompdart_frontend::parser::parse_str;
    use ompdart_graph::ProgramGraphs;

    fn analyze(
        src: &str,
    ) -> (
        ProgramSummaries,
        HashMap<Symbol, FunctionAccesses>,
        ompdart_frontend::TranslationUnit,
    ) {
        let (_file, result) = parse_str("t.c", src);
        assert!(result.is_ok(), "{:?}", result.diagnostics);
        let unit = result.unit;
        let graphs = ProgramGraphs::build(&unit);
        let mut accesses = HashMap::new();
        let mut symbols = HashMap::new();
        for f in unit.functions() {
            let sym = SymbolTable::build(&unit, f);
            let g = graphs.function(f.name.as_str()).unwrap();
            accesses.insert(f.name, FunctionAccesses::collect(f, &g.index, &sym));
            symbols.insert(f.name, sym);
        }
        let summaries = ProgramSummaries::compute(&unit, &accesses, &symbols, 8);
        (summaries, accesses, unit)
    }

    const LAYERED: &str = "\
double weights[64];
void scale_buffer(double *buf, int n) {
  for (int i = 0; i < n; i++) buf[i] *= 0.5;
}
void read_weights(const double *w, double *out, int n) {
  for (int i = 0; i < n; i++) out[i] = w[i];
}
void outer(double *data, int n) {
  scale_buffer(data, n);
  read_weights(weights, data, n);
  weights[0] = 1.0;
}
void top(double *data, int n) {
  outer(data, n);
}
";

    #[test]
    fn direct_param_effects() {
        let (summaries, _acc, _unit) = analyze(LAYERED);
        let s = summaries.summary("scale_buffer").unwrap();
        assert!(s.param_effects[0].host_read);
        assert!(s.param_effects[0].host_write);
        let r = summaries.summary("read_weights").unwrap();
        assert!(r.param_effects[0].host_read);
        assert!(!r.param_effects[0].host_write);
        assert!(r.param_effects[1].host_write);
    }

    #[test]
    fn effects_propagate_transitively() {
        let (summaries, _acc, _unit) = analyze(LAYERED);
        // `outer` writes its param through scale_buffer and read_weights.
        let o = summaries.summary("outer").unwrap();
        assert!(o.param_effects[0].host_write);
        assert!(o.param_effects[0].host_read);
        // ...and reads/writes the global `weights` both directly and through
        // read_weights.
        let weights = Symbol::intern("weights");
        assert!(o.global_effects.get(&weights).unwrap().host_read);
        assert!(o.global_effects.get(&weights).unwrap().host_write);
        // `top` inherits everything through one more level of calls.
        let t = summaries.summary("top").unwrap();
        assert!(t.param_effects[0].host_write);
        assert!(
            t.global_effects
                .get(&Symbol::intern("weights"))
                .unwrap()
                .host_read
        );
    }

    #[test]
    fn fixed_point_terminates_early() {
        let (summaries, _acc, _unit) = analyze(LAYERED);
        assert!(
            summaries.passes <= 4,
            "expected early termination, took {}",
            summaries.passes
        );
        assert_eq!(summaries.len(), 4);
    }

    #[test]
    fn kernels_detected_transitively() {
        let src = "\
double field[32];
void launch(double *f, int n) {
  #pragma omp target teams distribute parallel for
  for (int i = 0; i < n; i++) f[i] += 1.0;
}
void driver(int n) {
  launch(field, n);
}
";
        let (summaries, _acc, _unit) = analyze(src);
        assert!(summaries.summary("launch").unwrap().has_kernels);
        assert!(summaries.summary("driver").unwrap().has_kernels);
        // The kernel access is a device write of the parameter.
        assert!(summaries.summary("launch").unwrap().param_effects[0].device_write);
    }

    #[test]
    fn augmentation_applies_summary_at_call_site() {
        let (summaries, mut accesses, unit) = analyze(LAYERED);
        let outer = accesses.get_mut(&Symbol::intern("outer")).unwrap();
        let before = outer.accesses.len();
        augment_with_call_effects(outer, &unit, &summaries, false);
        assert!(outer.accesses.len() > before);
        // After augmentation, `outer` has a write access to `data` at the
        // scale_buffer call site.
        assert!(outer
            .accesses
            .iter()
            .any(|a| a.var == "data" && a.kind.may_write() && !a.on_device));
    }

    #[test]
    fn unknown_callee_is_pessimistic_but_const_is_read_only() {
        let src = "\
void external_fill(double *buf, int n);
void external_inspect(const double *buf, int n);
void f(double *data, int n) {
  external_fill(data, n);
  external_inspect(data, n);
}
";
        let (summaries, mut accesses, unit) = analyze(src);
        let f = accesses.get_mut(&Symbol::intern("f")).unwrap();
        augment_with_call_effects(f, &unit, &summaries, false);
        let writes: Vec<_> = f
            .accesses
            .iter()
            .filter(|a| a.var == "data" && a.kind.may_write())
            .collect();
        let reads: Vec<_> = f
            .accesses
            .iter()
            .filter(|a| a.var == "data" && a.kind == AccessKind::Read)
            .collect();
        // external_fill: pessimistic read+write; external_inspect: read only.
        assert_eq!(writes.len(), 1);
        assert!(!reads.is_empty());
    }

    #[test]
    fn pure_builtins_do_not_add_writes() {
        let src = "\
double buf[8];
void f() {
  printf(\"%f\\n\", buf[0]);
}
";
        let (summaries, mut accesses, unit) = analyze(src);
        let f = accesses.get_mut(&Symbol::intern("f")).unwrap();
        augment_with_call_effects(f, &unit, &summaries, false);
        assert!(!f
            .accesses
            .iter()
            .any(|a| a.var == "buf" && a.kind.may_write()));
    }

    #[test]
    fn effect_merge_and_kinds() {
        let mut e = Effect::default();
        assert!(e.is_empty());
        assert!(e.record(AccessKind::Read, false));
        assert!(!e.record(AccessKind::Read, false));
        assert!(e.record(AccessKind::Write, true));
        let (host, dev) = e.as_access_kinds();
        assert_eq!(host, Some(AccessKind::Read));
        assert_eq!(dev, Some(AccessKind::Write));
        assert!(device_shifted(Effect::pessimistic_host()).device_write);
    }
}
