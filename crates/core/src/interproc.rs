//! Interprocedural side-effect analysis (Section IV-C of the paper).
//!
//! For every function the analysis summarizes how it accesses data visible
//! to its callers: data reached through pointer parameters and global
//! variables, split by whether the access happens on the host or inside an
//! offloaded region. Summaries are propagated through call sites to a
//! fixed point (one visit for a function outside any recursion, until
//! nothing changes for a recursive component). A call to a callee whose
//! definition is not visible (external translation units) carries
//! *maximally pessimistic* assumptions, in the caller's summary as at the
//! call site, exactly as the paper prescribes: `const` pointer parameters
//! are assumed read-only, other pointers read-write.
//!
//! One engine serves the one fixed point, the link's
//! ([`crate::program::Program::relink`], for a unit alone as for a
//! program). The link keeps one table of functions, [`ProgramSummaries`]:
//! every resolved name it defines or calls has a dense `FuncId`, the
//! index of its `Slot` — where the function is defined, its converged
//! summary behind its own `Arc` and the fingerprint of what a caller's plan
//! can read of it, its callers and its call sites resolved to ids. The
//! table also counts the globals some summary touches on the device
//! (`DeviceNames`): the globals those fingerprints cover. `ProgramSummaries::converge`
//! re-converges, in place, just the caller-closed cone the link hands it,
//! reading and writing summaries by id: it condenses only the cone's
//! subgraph, and starting from a previous fixed point copies pointers. A
//! cold link's cone is every function. An FNV name → id index serves
//! lookups by name ([`ProgramSummaries::summary`]); a unit's plans look
//! their callees up through its [`LinkContext`], which resolves the unit's
//! own `static`s to their mangled symbols first.

use crate::access::{Access, AccessKind, AccessOrigin, CallSite, FunctionAccesses, SymbolTable};
use crate::pipeline::key::CalleeKey;
use crate::program::LinkContext;
use crate::scc::{condense, Condensation};
use crate::validity::{Position, States, Transfers, VarState, Walker};
use ompdart_frontend::ast::{FunctionDef, ParamDecl, TranslationUnit};
use ompdart_frontend::intern::FnvBuild;
use ompdart_frontend::Symbol;
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

/// The effect of a function on one externally visible datum: eight bits.
///
/// Four *may* bits say which accesses can happen at all; they decide what a
/// caller maps, whether a scalar can be `firstprivate`, and `has_kernels`.
/// Four more carry the *order* a call site needs to stand in its caller's
/// data flow for the access sequence it summarises:
///
/// * an **exposed read** on a side (may, joins by ∨) — some path reads the
///   datum there while that side still holds nothing the function itself
///   made current, so the value the function was *entered* with is observed
///   and whoever calls it has to have it current on that side. A write under
///   a condition counts as a read of its target. A read that follows the
///   function's own write on the other side is not exposed: the function's
///   plan moves the value across itself;
/// * an **exit-current** side (must, meets by ∧) — on every path to every
///   return that side holds the datum's current value.
///
/// The byte is what fingerprints hash and the interface encoding spells
/// ([`Effect::byte`]), and a call site's replayed accesses each carry it
/// ([`AccessOrigin::Callee`]).
#[derive(Clone, Copy, Default, PartialEq, Eq)]
pub struct Effect(u8);

impl Effect {
    pub const HOST_READ: Effect = Effect(1);
    pub const HOST_WRITE: Effect = Effect(1 << 1);
    pub const DEVICE_READ: Effect = Effect(1 << 2);
    pub const DEVICE_WRITE: Effect = Effect(1 << 3);
    pub const HOST_EXPOSED: Effect = Effect(1 << 4);
    pub const DEVICE_EXPOSED: Effect = Effect(1 << 5);
    pub const HOST_CURRENT: Effect = Effect(1 << 6);
    pub const DEVICE_CURRENT: Effect = Effect(1 << 7);

    const MAY: u8 = 0x0f;
    const EXPOSED: u8 = 0x30;
    const CURRENT: u8 = 0xc0;
    const NAMES: [&'static str; 8] = [
        "host_read",
        "host_write",
        "device_read",
        "device_write",
        "host_exposed",
        "device_exposed",
        "host_current",
        "device_current",
    ];

    /// The eight bits.
    pub fn byte(self) -> u8 {
        self.0
    }

    /// The inverse of [`Self::byte`].
    pub fn from_byte(byte: u8) -> Effect {
        Effect(byte)
    }

    /// True if every bit of `bits` is set.
    pub fn has(self, bits: Effect) -> bool {
        self.0 & bits.0 == bits.0
    }

    /// Set (`on`) or clear the bits of `bits`.
    pub fn set(&mut self, bits: Effect, on: bool) {
        match on {
            true => self.0 |= bits.0,
            false => self.0 &= !bits.0,
        }
    }

    pub fn host_read(self) -> bool {
        self.has(Effect::HOST_READ)
    }

    pub fn host_write(self) -> bool {
        self.has(Effect::HOST_WRITE)
    }

    pub fn device_read(self) -> bool {
        self.has(Effect::DEVICE_READ)
    }

    pub fn device_write(self) -> bool {
        self.has(Effect::DEVICE_WRITE)
    }

    pub fn host_exposed(self) -> bool {
        self.has(Effect::HOST_EXPOSED)
    }

    pub fn device_exposed(self) -> bool {
        self.has(Effect::DEVICE_EXPOSED)
    }

    pub fn host_current(self) -> bool {
        self.has(Effect::HOST_CURRENT)
    }

    pub fn device_current(self) -> bool {
        self.has(Effect::DEVICE_CURRENT)
    }

    /// True if no access was recorded.
    pub fn is_empty(&self) -> bool {
        self.0 & Effect::MAY == 0
    }

    /// Merge the effect of a callee into the effect of its caller, wherever
    /// in the caller the call is made; returns true if anything changed.
    /// May bits and exposed reads join; a side stays exit-current only if
    /// no callee may write the other one.
    pub fn merge(&mut self, callee: Effect) -> bool {
        let before = *self;
        self.0 |= callee.0 & (Effect::MAY | Effect::EXPOSED);
        if callee.device_write() {
            self.set(Effect::HOST_CURRENT, false);
        }
        if callee.host_write() {
            self.set(Effect::DEVICE_CURRENT, false);
        }
        *self != before
    }

    /// Record that a single access may happen.
    pub fn record(&mut self, kind: AccessKind, on_device: bool) {
        let (read, write) = match on_device {
            true => (Effect::DEVICE_READ, Effect::DEVICE_WRITE),
            false => (Effect::HOST_READ, Effect::HOST_WRITE),
        };
        if kind.may_read() {
            self.set(read, true);
        }
        if kind.may_write() {
            self.set(write, true);
        }
    }

    /// The maximally pessimistic effect (read, then write, on the host).
    pub fn pessimistic_host() -> Effect {
        Effect::read_only_host() | Effect::HOST_WRITE
    }

    /// A host read-only effect (used for `const` pointer parameters).
    pub fn read_only_host() -> Effect {
        Effect::HOST_READ | Effect::HOST_EXPOSED
    }

    /// The conservative corner of the order bits, for a function whose body
    /// says nothing reliable about order (a recursive component): every
    /// read may be exposed and no side is proved current at the exit.
    fn conservative(self) -> Effect {
        let mut corner = Effect(self.0 & !Effect::CURRENT);
        corner.set(
            Effect::HOST_EXPOSED,
            self.host_exposed() || self.host_read(),
        );
        corner.set(
            Effect::DEVICE_EXPOSED,
            self.device_exposed() || self.device_read(),
        );
        corner
    }

    /// True when a call site's replayed write on one side is the last one
    /// it replays *and* the summary proves the other side current at the
    /// callee's exit too (see [`augment_with_call_effects`]).
    pub(crate) fn settles_other_side(self, on_device: bool) -> bool {
        let (last_on_device, other_current) = match on_device {
            true => (self.device_write_is_last(), self.host_current()),
            false => (!self.device_write_is_last(), self.device_current()),
        };
        last_on_device && other_current
    }

    /// The order a call site replays its writes in: the device last, as
    /// before there was an order — unless only the host is proved current at
    /// the exit.
    fn device_write_is_last(self) -> bool {
        match self.host_write() && self.device_write() {
            true => !self.host_current() || self.device_current(),
            false => self.device_write(),
        }
    }
}

impl std::ops::BitOr for Effect {
    type Output = Effect;

    fn bitor(self, other: Effect) -> Effect {
        Effect(self.0 | other.0)
    }
}

impl std::fmt::Debug for Effect {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let set = (0..8).filter(|bit| self.0 >> bit & 1 != 0);
        let names: Vec<&str> = set.map(|bit| Effect::NAMES[bit]).collect();
        write!(f, "Effect({})", names.join(" | "))
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

/// A function's dense index into a [`ProgramSummaries`] table: given the
/// first time its resolved name is defined or called, and handed to
/// another name once nothing defines or calls this one any more.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct FuncId(u32);

impl FuncId {
    fn index(self) -> usize {
        self.0 as usize
    }
}

/// One function of the table, by id.
#[derive(Clone, Debug, Default)]
pub(crate) struct Slot {
    /// The resolved name (statics mangled).
    pub(crate) name: Symbol,
    /// The definition: the defining unit's index in the program and the
    /// function's index in that unit's
    /// [`UnitExports::functions`](crate::interface::UnitExports). `None`
    /// for a name that is only called.
    pub(crate) def: Option<(usize, usize)>,
    /// The definition's local fingerprint, kept when its unit leaves so a
    /// namesake that arrives in the same relink can be compared with it.
    pub(crate) local_fp: u64,
    /// The converged summary; `None` while nothing defines the name.
    pub(crate) summary: Option<Arc<FunctionSummary>>,
    /// `projected_fingerprint` of `summary` under the table's
    /// [`DeviceNames`] — the globals some converged summary touches on the
    /// device: what a caller's plan can read of it. Re-hashed when a relink
    /// moves the summary, and for every slot when the device names gain or
    /// lose a member.
    pub(crate) projected_fp: u64,
    /// The defined functions calling this one, once per call site.
    pub(crate) callers: Vec<FuncId>,
    /// The definition's callees, one per call site, in the order of its
    /// [`PropagationNode::calls`].
    pub(crate) calls: Vec<FuncId>,
    /// Scratch of the latest walk to stamp the slot (see
    /// [`ProgramSummaries::next_epoch`]): `mark` is that walk's epoch, `pos`
    /// what the walk keeps per function. A walk tests membership by
    /// comparing `mark` with its own epoch, so nothing is ever cleared.
    pub(crate) mark: u32,
    pub(crate) pos: usize,
}

/// Summaries of functions — the link's table of every function it defines
/// or calls, indexed by `FuncId`. A program has one, which every unit reads
/// through its [`LinkContext`]: a unit-private `static` is here under its
/// mangled `name@unit` symbol only, and the context resolves the unit's
/// source-level name to it.
#[derive(Clone, Debug, Default)]
pub struct ProgramSummaries {
    /// The slots, by id; a retired id's slot waits in `free`.
    pub(crate) slots: Vec<Slot>,
    /// Resolved name → id, for every live id. FNV is safe here: a
    /// `Symbol` hashes as the number the interner gave it, in order of
    /// first sight, not as text the input could choose to collide.
    ids: HashMap<Symbol, FuncId, FnvBuild>,
    /// Retired ids, handed out again before the table grows.
    free: Vec<FuncId>,
    /// The epoch of the latest walk (see [`Slot::mark`]).
    epoch: u32,
    /// The globals some plan of the program can map.
    pub(crate) device: DeviceNames,
    /// Number of propagation passes performed before reaching a fixed point.
    pub passes: usize,
}

/// The program's *device names*: the globals some converged summary reads
/// or writes on the device, each with the number of summaries that do. A
/// callee's effect reaches a caller's plan through an argument, by the
/// parameter effects every projection hashes, or on a global, which the
/// plan maps only where the device touches it — and then the caller's own
/// converged summary touches it on the device too. So the plan keys hash
/// summaries projected onto this set (`pipeline::key::projected_fingerprint`).
#[derive(Clone, Debug, Default)]
pub(crate) struct DeviceNames {
    /// Per member: the summaries touching it on the device, and the patch
    /// that added it. A name leaves when its count reaches zero. FNV is safe
    /// for the reason it is in the id index: a `Symbol` hashes as its
    /// interned number.
    counts: HashMap<Symbol, (u32, u64), FnvBuild>,
    /// Patches so far: stamps a member with the patch that added it.
    patches: u64,
}

impl DeviceNames {
    /// True if some plan can map a global called `name`.
    pub(crate) fn contains(&self, name: Symbol) -> bool {
        self.counts.contains_key(&name)
    }

    /// Move the counts by a relink's `moves` — each cone function's summary
    /// before and after (`None`: it had or has none) — and return true when
    /// the set gained or lost a member. Walks the globals of the moved
    /// summaries and allocates only when the map grows. Every increment
    /// goes first, so a name absent at its increment had no count before
    /// the patch, and one reaching zero at a decrement has none after it: a
    /// name that does both came and went, and moves nothing.
    pub(crate) fn patch<'s, I>(&mut self, moves: I) -> bool
    where
        I: Iterator<Item = (Option<&'s FunctionSummary>, Option<&'s FunctionSummary>)> + Clone,
    {
        self.patches += 1;
        let patch = self.patches;
        let (mut grown, mut shrunk) = (0usize, 0usize);
        let gains = (moves.clone()).flat_map(|(before, after)| device_only_in(after, before));
        for name in gains {
            let (count, _) = self.counts.entry(name).or_insert_with(|| {
                grown += 1;
                (0, patch)
            });
            *count += 1;
        }
        let losses = moves.flat_map(|(before, after)| device_only_in(before, after));
        for name in losses {
            let (count, added) = self.counts.get_mut(&name).expect("a counted name");
            *count -= 1;
            if *count == 0 {
                match *added == patch {
                    true => grown -= 1,
                    false => shrunk += 1,
                }
                self.counts.remove(&name);
            }
        }
        grown + shrunk > 0
    }
}

/// True if `effect` reads or writes on the device.
fn touches_device(effect: Effect) -> bool {
    effect.device_read() || effect.device_write()
}

/// The globals `summary` touches on the device and `other` does not.
fn device_only_in<'s>(
    summary: Option<&'s FunctionSummary>,
    other: Option<&'s FunctionSummary>,
) -> impl Iterator<Item = Symbol> + 's {
    let globals = summary.into_iter().flat_map(|s| &s.global_effects);
    globals.filter_map(move |(&global, &effect)| {
        let elsewhere = other.and_then(|o| o.global_effects.get(&global).copied());
        (touches_device(effect) && !elsewhere.is_some_and(touches_device)).then_some(global)
    })
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

/// True for a library function of [`PURE_BUILTINS`].
pub(crate) fn is_pure_builtin(name: Symbol) -> bool {
    PURE_BUILTINS.contains(&name.as_str())
}

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
        if let Some(effect) = visible_effect(&mut summary, func, sym, access.var) {
            effect.record(access.kind, access.on_device);
        }
    }
    seed_order(&mut summary, func, acc, sym);
    summary
}

/// The effect slot of `var` in `summary`, if `var` is visible to the callers
/// of `func`: an aggregate parameter, or a global.
fn visible_effect<'s>(
    summary: &'s mut FunctionSummary,
    func: &FunctionDef,
    sym: &SymbolTable,
    var: Symbol,
) -> Option<&'s mut Effect> {
    match param_index(func, var) {
        Some(idx) if sym.is_aggregate(var) => Some(&mut summary.param_effects[idx]),
        None if sym.is_global(var) => Some(summary.global_effects.entry(var).or_default()),
        _ => None,
    }
}

/// What a cross-space dependency means to the summariser: the read observes
/// a value no transfer inside the function delivers, so it is *exposed* —
/// on the side it happens on when nothing in the function has written the
/// other side (a caller has to have this side current), on the *other* side
/// when the function may have written there but not on every path (the
/// function's own transfer then copies from a side only a caller can have
/// made current).
#[derive(Default)]
struct Exposure {
    /// Per variable: exposed on the host, exposed on the device.
    exposed: HashMap<Symbol, (bool, bool), FnvBuild>,
}

impl Transfers for Exposure {
    fn need(&mut self, read: &Access, state: &VarState, _at: Position<'_>) {
        let (host, device) = self.exposed.entry(read.var).or_default();
        let (here, there) = match read.on_device {
            true => (device, host),
            false => (host, device),
        };
        let (there_written, there_valid) = match read.on_device {
            true => (state.host_modified, state.host_valid),
            false => (state.last_dev_writer.is_some(), state.dev_valid),
        };
        match there_written {
            true => *there |= !there_valid,
            false => *here = true,
        }
    }
}

/// Fill in the order bits of `summary`'s direct effects by running the
/// planner's validity walk over the function's own accesses from an
/// all-unknown entry state.
fn seed_order(
    summary: &mut FunctionSummary,
    func: &FunctionDef,
    acc: &FunctionAccesses,
    sym: &SymbolTable,
) {
    let Some(body) = &func.body else { return };
    let touched = |(p, e): (&ParamDecl, &Effect)| (!e.is_empty()).then_some(p.name);
    let params = func.params.iter().zip(&summary.param_effects);
    let tracked: States = (params.filter_map(touched))
        .chain(summary.global_effects.keys().copied())
        .map(|var| (var, VarState::unknown()))
        .collect();
    if tracked.is_empty() {
        return;
    }
    // The whole body is the region: a host write anywhere in it is one the
    // function's own plan moves across.
    let mut walker = Walker::new(acc, tracked, (body.id, body.id), Exposure::default());
    walker.walk_stmt(body);
    let exposed = std::mem::take(&mut walker.transfers.exposed);
    for (var, exit) in walker.exit_state() {
        let Some(effect) = visible_effect(summary, func, sym, var) else {
            continue;
        };
        let (host, device) = exposed.get(&var).copied().unwrap_or_default();
        effect.set(Effect::HOST_EXPOSED, host);
        effect.set(Effect::DEVICE_EXPOSED, device);
        effect.set(Effect::HOST_CURRENT, exit.host_valid);
        effect.set(Effect::DEVICE_CURRENT, exit.dev_valid);
    }
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
    /// The caller's prototype of the callee makes the pointee `const`
    /// (`fallback_effect` reads it when the callee has no summary).
    pub const_pointee: bool,
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
    /// `func.params` and symbol table `sym`, the callee's visible prototype
    /// read off its `callee` key.
    pub(crate) fn of(
        call: &CallSite,
        func: &FunctionDef,
        sym: &SymbolTable,
        callee: &CalleeKey,
    ) -> LinkCall {
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
                const_pointee: callee.const_pointee(position),
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
    /// The function's call sites, callee names fully resolved: borrowed
    /// from the unit's interface, which memoises the resolved list per unit
    /// content.
    pub calls: &'a [LinkCall],
    /// The globals the function can see — what a call to an unknown callee
    /// clobbers in pessimistic-globals mode. Empty when that mode is off.
    pub globals: &'a [Symbol],
}

/// The globals a function of `unit` can see, sorted: every global the unit
/// declares. A caller whose parameter or local hides one takes no effect
/// on it at its call sites ([`SymbolTable::sees_global`]).
pub fn visible_globals(unit: &TranslationUnit) -> Vec<Symbol> {
    let mut globals: Vec<Symbol> = unit.globals().map(|g| g.name).collect();
    globals.sort_unstable();
    globals.dedup();
    globals
}

impl ProgramSummaries {
    /// The id of `name`, if the table holds it.
    pub(crate) fn id(&self, name: Symbol) -> Option<FuncId> {
        self.ids.get(&name).copied()
    }

    /// The id of `name`, given a fresh slot — a retired id's first — if the
    /// table does not hold it yet.
    pub(crate) fn intern(&mut self, name: Symbol) -> FuncId {
        if let Some(id) = self.id(name) {
            return id;
        }
        let id = self.free.pop().unwrap_or_else(|| {
            let id = u32::try_from(self.slots.len()).expect("fewer than 2^32 functions");
            self.slots.push(Slot::default());
            FuncId(id)
        });
        self.slot_mut(id).name = name;
        self.ids.insert(name, id);
        id
    }

    /// Retire `id` if nothing defines or calls its name any more: the name
    /// leaves the index and the id waits for the next [`Self::intern`].
    /// Retiring an id twice is retiring it once.
    pub(crate) fn retire_if_unused(&mut self, id: FuncId) {
        let slot = &self.slots[id.index()];
        if slot.def.is_some() || !slot.callers.is_empty() || self.id(slot.name) != Some(id) {
            return;
        }
        self.ids.remove(&slot.name);
        // The empty lists keep their capacity for the next name.
        let slot = self.slot_mut(id);
        *slot = Slot {
            callers: std::mem::take(&mut slot.callers),
            calls: std::mem::take(&mut slot.calls),
            ..Slot::default()
        };
        self.free.push(id);
    }

    /// Number of live ids: the names the table's program defines or calls.
    #[cfg(test)]
    pub(crate) fn live_ids(&self) -> usize {
        self.ids.len()
    }

    /// Number of slots, live and retired: the most ids ever live at once.
    #[cfg(test)]
    pub(crate) fn slot_count(&self) -> usize {
        self.slots.len()
    }

    pub(crate) fn slot(&self, id: FuncId) -> &Slot {
        &self.slots[id.index()]
    }

    pub(crate) fn slot_mut(&mut self, id: FuncId) -> &mut Slot {
        &mut self.slots[id.index()]
    }

    /// The summary of the function `id`, if it has one.
    fn summary_of(&self, id: FuncId) -> Option<&FunctionSummary> {
        self.slot(id).summary.as_deref()
    }

    /// A fresh epoch to stamp slots with: greater than every
    /// [`Slot::mark`] in the table.
    pub(crate) fn next_epoch(&mut self) -> u32 {
        if self.epoch == u32::MAX {
            for slot in &mut self.slots {
                slot.mark = 0;
            }
            self.epoch = 0;
        }
        self.epoch += 1;
        self.epoch
    }

    /// Converge the functions `ids`, defined as `nodes` (one node per id)
    /// and each starting from the summary its slot holds, in place, with
    /// up to `threads` workers — the SCC-wavefront engine. The callees of
    /// the functions outside `ids` are read, never updated, so `ids` must
    /// be closed under "is called by" or their summaries already converged
    /// against `ids`' old ones: the link hands it the cone of every dirty
    /// function plus its transitive callers, with each reset to its seed,
    /// and a cold link every function.
    ///
    /// A call to a function with no summary merges what the planner replays
    /// there into the *caller's* summary ([`merge_unknown_call`]): the
    /// fallback on its by-reference arguments, and, when `clobber_globals`
    /// is set (the opt-in pessimistic-globals mode), a host read+write of
    /// every visible global. So the fallback is transitive — callers of a
    /// function that calls an unknown extern see its effects too, not just
    /// the direct call site.
    ///
    /// The call graph among `ids` is condensed into strongly connected
    /// components ([`crate::scc::condense`]); every strongly connected
    /// component is a set of mutual transitive callers, so a cone covers
    /// whole components and condensing its own subgraph yields exactly the
    /// components (and callee-before-caller order) a whole-program
    /// condensation would, at the cone's cost. Wavefront levels are
    /// processed in ascending order; within one level the components share
    /// no edges, so up to `threads` workers converge them concurrently
    /// against the table as the previous levels left it, and a wavefront of
    /// one component converges on the calling thread. Only a recursive
    /// component iterates, until nothing in it changes; an acyclic one
    /// converges in a single visit once its callees are final, because its
    /// summary is a fixed union of already-converged values — which is what
    /// makes thousand-deep cross-unit call chains converge in one wavefront
    /// sweep instead of a thousand whole-program passes. Effects form a
    /// finite monotone lattice, so the least fixed point is unique: the
    /// result is bitwise identical for every `threads` value and identical
    /// to the sequential reference sweep (`oracle::propagate_sequential`)
    /// whenever that is given enough passes to converge. `passes` reports
    /// the deepest inner iteration any single component needed.
    pub(crate) fn converge(
        &mut self,
        ids: &[FuncId],
        nodes: &[PropagationNode<'_>],
        clobber_globals: bool,
        threads: usize,
    ) {
        debug_assert_eq!(ids.len(), nodes.len());
        // Stamp the node set: a callee is a node when its mark is this
        // epoch, and `pos` is then its node index.
        let epoch = self.next_epoch();
        for (pos, &id) in ids.iter().enumerate() {
            let slot = self.slot_mut(id);
            (slot.mark, slot.pos) = (epoch, pos);
        }
        // The node set's call graph, flat: node `v`'s callees are
        // `targets[starts[v]..starts[v + 1]]`.
        let mut starts = Vec::with_capacity(ids.len() + 1);
        let mut targets = Vec::new();
        starts.push(0);
        for &id in ids {
            targets.extend(self.slot(id).calls.iter().filter_map(|&callee| {
                let callee = self.slot(callee);
                (callee.mark == epoch).then_some(callee.pos)
            }));
            starts.push(targets.len());
        }
        let cond = condense(ids.len(), |v| &targets[starts[v]..starts[v + 1]]);

        let engine = Engine {
            ids,
            nodes,
            cond: &cond,
            epoch,
            clobber_globals,
        };
        let width = crate::pool::effective_width(threads);
        let mut deepest = 0usize;
        let mut updates = Vec::new();
        for wavefront in cond.wavefronts() {
            if width <= 1 || wavefront.len() == 1 {
                // Components of one wavefront read none of each other's
                // summaries: each is stored as soon as it converged.
                for &c in wavefront {
                    deepest = deepest.max(engine.component(self, c, &mut updates));
                    self.store(&mut updates);
                }
                continue;
            }
            let table = &*self;
            let results = crate::pool::pool_map(threads, wavefront.len(), |k| {
                let mut updates = Vec::new();
                let inner = engine.component(table, wavefront[k], &mut updates);
                (updates, inner)
            });
            for (mut converged, inner) in results {
                deepest = deepest.max(inner);
                self.store(&mut converged);
            }
        }
        self.passes = deepest;
    }

    /// Put each converged summary of `updates` behind its own `Arc`.
    fn store(&mut self, updates: &mut Vec<(FuncId, FunctionSummary)>) {
        for (id, summary) in updates.drain(..) {
            self.slot_mut(id).summary = Some(Arc::new(summary));
        }
    }

    /// The summary for a function, if it was analyzed, by its resolved
    /// name (a `static` under its mangled `name@unit` symbol).
    pub fn summary(&self, name: impl Into<Symbol>) -> Option<&FunctionSummary> {
        self.summary_of(self.id(name.into())?)
    }

    /// Resolved function name (statics mangled) → index (into the
    /// program's unit list) of the defining unit.
    pub fn defined_in(&self) -> HashMap<Symbol, usize> {
        (self.slots.iter())
            .filter_map(|slot| Some((slot.name, slot.def?.0)))
            .collect()
    }

    /// Iterate all summaries (unspecified order).
    pub fn iter(&self) -> impl Iterator<Item = (&Symbol, &FunctionSummary)> {
        (self.slots.iter()).filter_map(|slot| Some((&slot.name, slot.summary.as_deref()?)))
    }

    /// Number of summarized functions.
    pub fn len(&self) -> usize {
        self.iter().count()
    }

    pub fn is_empty(&self) -> bool {
        self.iter().next().is_none()
    }

    /// True when both sides converged to identical summaries, name by name
    /// (two tables number the same functions differently). `passes` — a
    /// diagnostic count whose value depends on the engine — is ignored;
    /// every effect, parameter slot, and global entry must match exactly.
    pub fn same_summaries(&self, other: &ProgramSummaries) -> bool {
        self.len() == other.len()
            && (self.iter()).all(|(&name, summary)| other.summary(name) == Some(summary))
    }
}

/// The node set [`ProgramSummaries::converge`] converges, read by every
/// component against the table as the previous wavefronts left it.
struct Engine<'a> {
    /// The node set's ids, by node index.
    ids: &'a [FuncId],
    nodes: &'a [PropagationNode<'a>],
    cond: &'a Condensation,
    /// The epoch the node set is stamped with.
    epoch: u32,
    clobber_globals: bool,
}

impl Engine<'_> {
    /// Converge component `c`, pushing the summaries that changed onto
    /// `updates`; returns the number of inner passes it took.
    ///
    /// An acyclic component's converged summary is its seed unioned with
    /// fixed (already converged) callee contributions; unions are
    /// idempotent and commutative, so a single visit reaches the fixed
    /// point. A recursive component iterates until no summary changes:
    /// merging only ever sets a may or exposed bit, clears an exit-current
    /// bit or adds a global, so every pass but the last moves at least one
    /// bit for good and the bits of the component's summaries bound the
    /// passes.
    fn component(
        &self,
        table: &ProgramSummaries,
        c: usize,
        updates: &mut Vec<(FuncId, FunctionSummary)>,
    ) -> usize {
        let members = self.cond.members(c);
        if !self.cond.cyclic[c] {
            // One member and no self-call: every callee is final.
            let v = members[0];
            let id = self.ids[v];
            if self.nodes[v].calls.is_empty() {
                return 1;
            }
            let mut caller = table.summary_of(id).cloned().unwrap_or_default();
            if self.visit(table, v, &mut caller, |callee| table.summary_of(callee)) {
                updates.push((id, caller));
            }
            return 1;
        }
        // Working copies, by member, exist only for members whose summary
        // actually changes; the others keep their slot's `Arc`.
        let mut local: Vec<Option<FunctionSummary>> = vec![None; members.len()];
        let member = |callee: FuncId| {
            let slot = table.slot(callee);
            let pos = slot.pos;
            let inside = slot.mark == self.epoch && self.cond.comp[pos] == c;
            inside.then(|| {
                members
                    .binary_search(&pos)
                    .expect("a member of its component")
            })
        };
        let mut passes = 0usize;
        loop {
            passes += 1;
            let mut changed = false;
            for (m, &v) in members.iter().enumerate() {
                let id = self.ids[v];
                if self.nodes[v].calls.is_empty() {
                    continue;
                }
                // Hoist the member's working summary out once per visit
                // instead of cloning it per call edge; it goes back only
                // if this visit (or an earlier pass) changed it.
                let (mut caller, was_local) = match local[m].take() {
                    Some(summary) => (summary, true),
                    None => (table.summary_of(id).cloned().unwrap_or_default(), false),
                };
                // In-component callees live in `local` (and shadow their
                // stale slot); everything else is final in the table.
                let caller_changed = self.visit(table, v, &mut caller, |callee| {
                    let working = member(callee).and_then(|k| local[k].as_ref());
                    working.or_else(|| table.summary_of(callee))
                });
                if caller_changed || was_local {
                    local[m] = Some(caller);
                }
                changed |= caller_changed;
            }
            if !changed {
                break;
            }
            let summaries = (members.iter().enumerate())
                .filter_map(|(m, &v)| local[m].as_ref().or_else(|| table.summary_of(self.ids[v])));
            let bits: usize = summaries
                .map(|s| 1 + 8 * (s.param_effects.len() + s.global_effects.len()))
                .sum();
            assert!(
                passes <= bits,
                "a recursive component of {} function(s) still changes after {passes} passes \
                 over {bits} bits: merging is not monotone",
                members.len()
            );
        }
        for (m, &v) in members.iter().enumerate() {
            let (mut summary, was_local) = match local[m].take() {
                Some(summary) => (summary, true),
                None => match table.summary_of(self.ids[v]) {
                    Some(summary) => (summary.clone(), false),
                    None => continue,
                },
            };
            if take_conservative_corner(&mut summary) || was_local {
                updates.push((self.ids[v], summary));
            }
        }
        passes
    }

    /// One visit of node `v`: merge each of its call sites into `caller`,
    /// reading a callee's summary through `callee`. Returns true when
    /// anything changed.
    fn visit<'s>(
        &self,
        table: &ProgramSummaries,
        v: usize,
        caller: &mut FunctionSummary,
        callee: impl Fn(FuncId) -> Option<&'s FunctionSummary>,
    ) -> bool {
        let (id, node) = (self.ids[v], &self.nodes[v]);
        let callees = &table.slot(id).calls;
        debug_assert_eq!(node.calls.len(), callees.len());
        let mut changed = false;
        for (call, &callee_id) in node.calls.iter().zip(callees) {
            if callee_id == id {
                // A self-recursive edge reads the caller while mutating
                // it; merge against a snapshot.
                let snapshot = caller.clone();
                changed |= merge_known_call(caller, call, &snapshot);
                continue;
            }
            changed |= match callee(callee_id) {
                Some(summary) => merge_known_call(caller, call, summary),
                None => merge_unknown_call(caller, call, node.globals, self.clobber_globals),
            };
        }
        changed
    }
}

/// Put every effect of a recursive function's converged summary into the
/// conservative corner of the order bits: merging call sites without their
/// position is only as good as the seeds, and a seed walked once says
/// little about a body that re-enters itself. Returns true if anything
/// changed.
pub(crate) fn take_conservative_corner(summary: &mut FunctionSummary) -> bool {
    let effects = (summary.param_effects.iter_mut()).chain(summary.global_effects.values_mut());
    let mut changed = false;
    for effect in effects {
        let cornered = effect.conservative();
        changed |= cornered != *effect;
        *effect = cornered;
    }
    changed
}

/// Merge one known callee's summary into `caller` across `call`. Returns
/// true when anything changed. Shared verbatim by the sequential reference
/// engine and the SCC-wavefront workers so the two cannot drift apart.
pub(crate) fn merge_known_call(
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
        let effect = callee_summary
            .param_effects
            .get(arg.position as usize)
            .copied()
            .unwrap_or_default();
        local_changed |= effect_on(caller, arg.target).merge(placed(effect, call.on_device));
    }
    // Global effects propagate directly.
    for (global, effect) in &callee_summary.global_effects {
        local_changed |= caller
            .global_effects
            .entry(*global)
            .or_default()
            .merge(placed(*effect, call.on_device));
    }
    local_changed
}

/// Merge into `caller` what the planner replays at `call`, whose callee
/// has no summary: [`fallback_effect`] on every by-reference argument the
/// caller's callers can see and — when `clobber_globals` is set (the opt-in
/// pessimistic-globals mode) and the callee is not a pure builtin — a host
/// read+write of every global in `globals`; device-shifted inside offloaded
/// regions. So the fallback is part of the *summary* and reaches the
/// caller's own callers, through any number of wrappers. Returns true when
/// anything changed. Shared by the sequential reference engine and the
/// SCC-wavefront workers.
pub(crate) fn merge_unknown_call(
    caller: &mut FunctionSummary,
    call: &LinkCall,
    globals: &[Symbol],
    clobber_globals: bool,
) -> bool {
    let mut local_changed = false;
    for arg in &call.args {
        let effect = fallback_effect(call.callee, arg.const_pointee);
        local_changed |= effect_on(caller, arg.target).merge(placed(effect, call.on_device));
    }
    if clobber_globals && !is_pure_builtin(call.callee) {
        let effect = placed(Effect::pessimistic_host(), call.on_device);
        for &var in globals {
            local_changed |= caller.global_effects.entry(var).or_default().merge(effect);
        }
    }
    local_changed
}

/// The effect slot of `caller` a by-reference argument landing on `target`
/// merges into.
fn effect_on(caller: &mut FunctionSummary, target: ArgTarget) -> &mut Effect {
    match target {
        ArgTarget::Param(position) => &mut caller.param_effects[position as usize],
        ArgTarget::Global(var) => caller.global_effects.entry(var).or_default(),
    }
}

/// What a call to `callee`, which has no summary, is assumed to do to the
/// data one by-reference argument reaches: read it on the host for a pure
/// builtin or a `const` pointee of the visible prototype, read and write it
/// there otherwise.
pub(crate) fn fallback_effect(callee: Symbol, const_pointee: bool) -> Effect {
    match const_pointee || is_pure_builtin(callee) {
        true => Effect::read_only_host(),
        false => Effect::pessimistic_host(),
    }
}

/// `effect` as a call site placed `on_device` or not does it: device-shifted
/// inside an offloaded region.
fn placed(effect: Effect, on_device: bool) -> Effect {
    match on_device {
        true => device_shifted(effect),
        false => effect,
    }
}

/// Move every host effect to the device (used when the call site itself
/// executes inside an offloaded region): whatever the callee does, it does
/// there.
fn device_shifted(e: Effect) -> Effect {
    let mut shifted = Effect::default();
    shifted.set(Effect::DEVICE_READ, e.host_read() || e.device_read());
    shifted.set(Effect::DEVICE_WRITE, e.host_write() || e.device_write());
    shifted.set(
        Effect::DEVICE_EXPOSED,
        e.host_exposed() || e.device_exposed(),
    );
    shifted.set(
        Effect::DEVICE_CURRENT,
        e.host_current() || e.device_current(),
    );
    shifted
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
/// A call enters its caller's data flow as the access *sequence* its
/// callee's [`Effect`] summarises: its exposed reads — the only reads that
/// observe what the caller supplies — followed by its writes, the last of
/// which leaves the exit state the summary proves (the side proved current
/// is written last, and settles the other one where both are proved; where
/// no side is proved the device write goes last, which is what an unordered
/// summary replayed). Reads the
/// callee satisfies itself are not replayed: asking the caller for a
/// transfer on their account would put it *before* the call, ahead of the
/// write inside the callee that produces the value.
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
    symbols: &SymbolTable,
    unit: &TranslationUnit,
    link: &LinkContext,
    clobber_globals: bool,
) -> usize {
    // Detach the call list while synthesizing accesses (which only appends
    // to `acc.accesses`) instead of deep-cloning every call site.
    let mut calls: Vec<CallSite> = std::mem::take(&mut acc.calls);
    let mut fallbacks = 0usize;
    for call in &mut calls {
        let known = link.summary(call.callee);
        call.summarised = known.is_some() || is_pure_builtin(call.callee);
        let call = &*call;
        // Known callee with a body: apply its summary. The summary may come
        // from this unit or — in a linked whole-program analysis — from
        // another translation unit; record which.
        if let Some(summary) = known {
            let cross_unit = !unit.functions().any(|f| f.name == call.callee);
            let origin = |effect| AccessOrigin::Callee {
                callee: call.callee,
                cross_unit,
                effect,
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
                push_effect_accesses(acc, *var, effect, call, origin);
            }
            // Deterministic order: the synthetic accesses decide the
            // mapped-variable order of the caller's plan, so iterate the
            // globals sorted — never in HashMap order. (`BTreeMap<Symbol>`
            // orders by resolved string, same as the old `String` keys.)
            // An effect on a global lands on the caller's name only where
            // that name is the global.
            let global_effects = summary.global_effects.iter();
            for (global, effect) in global_effects.filter(|(g, _)| symbols.sees_global(**g)) {
                push_effect_accesses(acc, *global, *effect, call, origin);
            }
            continue;
        }
        // No summary: the fallback on every by-reference argument, as the
        // link merges it into the caller's summary (`merge_unknown_call`).
        // A pure library function's reads are a callee's; anything else is
        // an unknown extern, refined by `const` pointees of a visible
        // prototype.
        let builtin = is_pure_builtin(call.callee);
        let proto = (!builtin)
            .then(|| unit.all_functions().find(|f| f.name == call.callee))
            .flatten();
        let origin = |clobbers_global| {
            move |effect| match builtin {
                true => AccessOrigin::Callee {
                    callee: call.callee,
                    cross_unit: false,
                    effect,
                },
                false => AccessOrigin::UnknownCallee {
                    callee: call.callee,
                    clobbers_global,
                },
            }
        };
        let mut fell_back = false;
        for (arg_idx, arg) in call.args.iter().enumerate() {
            let Some(var) = arg.base_var.filter(|_| arg.by_ref) else {
                continue;
            };
            let param = proto.and_then(|p| p.params.get(arg_idx));
            let effect = fallback_effect(call.callee, param.is_some_and(|p| p.is_const_pointee));
            fell_back |= effect.host_write();
            push_effect_accesses(acc, var, effect, call, origin(false));
        }
        // Opt-in: the unknown callee may also touch any global it can name,
        // not just the data it was handed a pointer to.
        if clobber_globals && !builtin {
            let mut globals = visible_globals(unit);
            globals.retain(|g| symbols.sees_global(*g));
            if !globals.is_empty() {
                fell_back = true;
                for global in globals {
                    let effect = Effect::pessimistic_host();
                    push_effect_accesses(acc, global, effect, call, origin(true));
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

/// Replay `call`'s `effect` on `var` as synthetic accesses at the call
/// statement: exposed reads, then writes. A read directly followed by the
/// write of the same side is one read-write access, so the common
/// one-sided effect costs the one record it always did.
fn push_effect_accesses(
    acc: &mut FunctionAccesses,
    var: Symbol,
    effect: Effect,
    call: &CallSite,
    origin: impl Fn(Effect) -> AccessOrigin,
) {
    let effect = placed(effect, call.on_device);
    let host_then_device = [
        (effect.host_exposed(), effect.host_write(), false),
        (effect.device_exposed(), effect.device_write(), true),
    ];
    let mut writes = host_then_device;
    if !effect.device_write_is_last() {
        writes.reverse();
    }
    let reads = (host_then_device.into_iter())
        .filter_map(|(exposed, _, on_device)| exposed.then_some((AccessKind::Read, on_device)));
    let writes = (writes.into_iter())
        .filter_map(|(_, written, on_device)| written.then_some((AccessKind::Write, on_device)));
    // At most two reads and two writes.
    let mut steps = [(AccessKind::Read, false); 4];
    let mut len = 0;
    for step in reads.chain(writes) {
        match steps[..len].last_mut() {
            Some((kind @ AccessKind::Read, side))
                if *side == step.1 && step.0 == AccessKind::Write =>
            {
                *kind = AccessKind::ReadWrite;
            }
            _ => {
                steps[len] = step;
                len += 1;
            }
        }
    }
    for (kind, on_device) in steps.into_iter().take(len) {
        acc.add_synthetic(Access {
            var,
            kind,
            stmt: call.stmt,
            on_device,
            span: call.span,
            indices: Vec::new(),
            origin: origin(effect),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::access::{FunctionAccesses, SymbolTable};
    use crate::pipeline::{closed_world_of, stage_accesses, stage_graphs, stage_summaries};
    use crate::pipeline::{AccessArtifact, SummarizedUnit};
    use crate::OmpDartOptions;
    use ompdart_frontend::parser::parse_str;

    /// The closed world of `src` — the unit linked alone — as the pipeline's
    /// stage functions leave it.
    fn linked_alone(
        src: &str,
        pessimistic_globals: bool,
    ) -> (
        Arc<SummarizedUnit>,
        LinkContext,
        AccessArtifact,
        TranslationUnit,
    ) {
        let (_file, result) = parse_str("t.c", src);
        assert!(result.is_ok(), "{:?}", result.diagnostics);
        let unit = result.unit;
        let options = OmpDartOptions {
            pessimistic_globals,
        };
        let accesses = stage_accesses(&unit, &stage_graphs(&unit));
        let seeds = stage_summaries(&unit, &accesses, &options);
        let (alone, link) = closed_world_of(&unit, &accesses, &seeds, &options, 1);
        (alone, link, accesses, unit)
    }

    fn analyze(
        src: &str,
    ) -> (
        LinkContext,
        HashMap<Symbol, FunctionAccesses>,
        TranslationUnit,
    ) {
        let (_, link, accesses, unit) = linked_alone(src, false);
        (link, accesses.accesses, unit)
    }

    /// The symbol table of `unit`'s function `name`.
    fn table(unit: &TranslationUnit, name: &str) -> SymbolTable {
        SymbolTable::build(unit, unit.function(name).unwrap())
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
        let (link, _acc, _unit) = analyze(LAYERED);
        let s = link.summary("scale_buffer").unwrap();
        assert!(s.param_effects[0].host_read());
        assert!(s.param_effects[0].host_write());
        let r = link.summary("read_weights").unwrap();
        assert!(r.param_effects[0].host_read());
        assert!(!r.param_effects[0].host_write());
        assert!(r.param_effects[1].host_write());
    }

    #[test]
    fn effects_propagate_transitively() {
        let (link, _acc, _unit) = analyze(LAYERED);
        // `outer` writes its param through scale_buffer and read_weights.
        let o = link.summary("outer").unwrap();
        assert!(o.param_effects[0].host_write());
        assert!(o.param_effects[0].host_read());
        // ...and reads/writes the global `weights` both directly and through
        // read_weights.
        let weights = Symbol::intern("weights");
        assert!(o.global_effects.get(&weights).unwrap().host_read());
        assert!(o.global_effects.get(&weights).unwrap().host_write());
        // `top` inherits everything through one more level of calls.
        let t = link.summary("top").unwrap();
        assert!(t.param_effects[0].host_write());
        assert!(t
            .global_effects
            .get(&Symbol::intern("weights"))
            .unwrap()
            .host_read());
    }

    #[test]
    fn fixed_point_terminates_early() {
        let (link, _acc, _unit) = analyze(LAYERED);
        assert!(
            link.summaries.passes <= 4,
            "expected early termination, took {}",
            link.summaries.passes
        );
        assert_eq!(link.summaries.len(), 4);
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
        let (link, _acc, _unit) = analyze(src);
        assert!(link.summary("launch").unwrap().has_kernels);
        assert!(link.summary("driver").unwrap().has_kernels);
        // The kernel access is a device write of the parameter.
        assert!(link.summary("launch").unwrap().param_effects[0].device_write());
    }

    #[test]
    fn augmentation_applies_summary_at_call_site() {
        let (link, mut accesses, unit) = analyze(LAYERED);
        let outer = accesses.get_mut(&Symbol::intern("outer")).unwrap();
        let before = outer.accesses.len();
        augment_with_call_effects(outer, &table(&unit, "outer"), &unit, &link, false);
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
        let (link, mut accesses, unit) = analyze(src);
        let f = accesses.get_mut(&Symbol::intern("f")).unwrap();
        augment_with_call_effects(f, &table(&unit, "f"), &unit, &link, false);
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
        let (link, mut accesses, unit) = analyze(src);
        let f = accesses.get_mut(&Symbol::intern("f")).unwrap();
        augment_with_call_effects(f, &table(&unit, "f"), &unit, &link, false);
        assert!(!f
            .accesses
            .iter()
            .any(|a| a.var == "buf" && a.kind.may_write()));
    }

    #[test]
    fn effect_merge_and_kinds() {
        let mut e = Effect::default();
        assert!(e.is_empty());
        e.record(AccessKind::Read, false);
        e.record(AccessKind::Write, true);
        assert!(e.host_read() && e.device_write() && !e.host_write() && !e.device_read());
        assert!(device_shifted(Effect::pessimistic_host()).device_write());

        // May bits and exposed reads join; an exit-current side survives a
        // callee only if the callee cannot write the other side.
        let local = Effect::HOST_WRITE
            | Effect::HOST_CURRENT
            | Effect::DEVICE_READ
            | Effect::DEVICE_CURRENT;
        let reader = Effect::DEVICE_READ | Effect::DEVICE_EXPOSED | Effect::DEVICE_CURRENT;
        let writer = Effect::DEVICE_WRITE | Effect::DEVICE_CURRENT;
        let mut merged = local;
        assert!(merged.merge(reader));
        assert!(merged.device_exposed() && merged.host_current() && merged.device_current());
        // Idempotent: merging the same callee again changes nothing.
        assert!(!merged.merge(reader));
        assert!(merged.merge(writer));
        assert!(!merged.host_current() && merged.device_current() && merged.device_write());
        // The order of the callees does not matter.
        let mut other_way = local;
        other_way.merge(writer);
        other_way.merge(reader);
        assert_eq!(merged, other_way);
        // Nothing a callee proves about its own exit makes the caller's
        // exit current.
        let mut untouched = Effect::default();
        untouched.merge(writer);
        assert!(!untouched.device_current() && !untouched.host_current());
        // The conservative corner: every read may be exposed, nothing proved.
        let corner = merged.conservative();
        assert!(corner.device_exposed() && !corner.host_exposed());
        assert!(!corner.host_current() && !corner.device_current());
        assert_eq!(corner.conservative(), corner);
        // All eight bits survive the byte the interface stores.
        for byte in 0..=u8::MAX {
            assert_eq!(Effect::from_byte(byte).byte(), byte);
        }
    }

    const KERNEL: &str =
        "#pragma omp target teams distribute parallel for\n  for (int i = 0; i < 32; i++)";

    /// What the sequential reference engine makes of `src` in at most
    /// `max_passes` sweeps.
    fn sequential_reference(src: &str, max_passes: usize) -> ProgramSummaries {
        let (alone, ..) = linked_alone(src, false);
        let options = OmpDartOptions::default();
        crate::oracle::propagate_merged_sequential(&[alone], &options, max_passes)
    }

    fn global_effect(link: &LinkContext, func: &str, var: &str) -> Effect {
        let summary = link.summary(func).unwrap();
        *summary.global_effects.get(&Symbol::intern(var)).unwrap()
    }

    /// The same may bits, told apart by order: a kernel write followed by a
    /// kernel read exposes nothing, the other way round the read is exposed.
    #[test]
    fn write_then_read_is_not_exposed_and_read_then_write_is() {
        let src = format!(
            "double t[32];\ndouble out[32];\n\
             void write_first() {{\n  {KERNEL} t[i] = i;\n  {KERNEL} out[i] = t[i];\n}}\n\
             void read_first() {{\n  {KERNEL} out[i] = t[i];\n  {KERNEL} t[i] = i;\n}}\n"
        );
        let (link, _, _) = analyze(&src);
        let write_first = global_effect(&link, "write_first", "t");
        let read_first = global_effect(&link, "read_first", "t");
        for e in [write_first, read_first] {
            assert!(e.device_read() && e.device_write() && !e.host_read() && !e.host_write());
            assert!(e.device_current() && !e.host_current());
        }
        assert!(!write_first.device_exposed());
        assert!(read_first.device_exposed());
        assert_ne!(
            crate::pipeline::key::summary_fingerprint(link.summary("write_first").unwrap()),
            crate::pipeline::key::summary_fingerprint(link.summary("read_first").unwrap()),
        );
    }

    /// A function's own transfer makes the second side current: a host write
    /// the function's kernel reads is not an exposed device read, and leaves
    /// both sides current; the same for a kernel write its host code reads.
    #[test]
    fn a_read_fed_by_the_functions_own_write_on_the_other_side_is_not_exposed() {
        let src = format!(
            "double x[32];\ndouble y[32];\n\
             void host_then_kernel(int s) {{\n  for (int i = 0; i < 32; i++) x[i] = i + s;\n  {KERNEL} y[i] = x[i];\n}}\n\
             double kernel_then_host() {{\n  double t = 0.0;\n  {KERNEL} y[i] = x[i];\n  for (int i = 0; i < 32; i++) t += y[i];\n  return t;\n}}\n"
        );
        let (link, _, _) = analyze(&src);
        let x = global_effect(&link, "host_then_kernel", "x");
        assert!(x.host_write() && x.device_read() && !x.device_exposed() && !x.host_exposed());
        assert!(x.host_current() && x.device_current());
        let y = global_effect(&link, "kernel_then_host", "y");
        assert!(y.device_write() && y.host_read() && !y.host_exposed() && !y.device_exposed());
        assert!(y.host_current() && y.device_current());
        // The kernel's read of `x` there is of the value it was entered with.
        let x = global_effect(&link, "kernel_then_host", "x");
        assert!(x.device_exposed() && x.device_current() && !x.host_current());
    }

    /// A write under a condition leaves the rest of its target as it was,
    /// so it reads it: exposed, with no may-read bit, and proving nothing
    /// about the exit.
    #[test]
    fn a_conditional_write_to_a_stale_target_is_an_exposed_read() {
        let src = "\
double x[32];
void maybe(int c) {
  if (c) {
    for (int i = 0; i < 32; i++) x[i] = 0.0;
  }
}
void always() {
  for (int i = 0; i < 32; i++) x[i] = 0.0;
}
";
        let (link, _, _) = analyze(src);
        let maybe = global_effect(&link, "maybe", "x");
        assert!(maybe.host_write() && !maybe.host_read());
        assert!(maybe.host_exposed() && !maybe.host_current());
        let always = global_effect(&link, "always", "x");
        assert!(always.host_write() && !always.host_exposed() && always.host_current());
    }

    /// The two-pass loop walk: a kernel in a loop that updates in place
    /// reads what the function was entered with; one that produces before
    /// it consumes does not, whichever iteration it is.
    #[test]
    fn kernel_in_loop_order_bits() {
        let src = format!(
            "double a[32];\ndouble t[32];\n\
             void in_place() {{\n  for (int it = 0; it < 4; it++) {{\n    {KERNEL} a[i] += 1.0;\n  }}\n}}\n\
             void produce_consume() {{\n  for (int it = 0; it < 4; it++) {{\n    {KERNEL} t[i] = it;\n    {KERNEL} a[i] = t[i];\n  }}\n}}\n\
             void consume_produce() {{\n  for (int it = 0; it < 4; it++) {{\n    {KERNEL} a[i] = t[i];\n    {KERNEL} t[i] = it;\n  }}\n}}\n"
        );
        let (link, _, _) = analyze(&src);
        let in_place = global_effect(&link, "in_place", "a");
        assert!(in_place.device_exposed() && in_place.device_current());
        assert!(!global_effect(&link, "produce_consume", "t").device_exposed());
        assert!(global_effect(&link, "consume_produce", "t").device_exposed());
    }

    /// A call inside a kernel does on the device whatever its callee does.
    #[test]
    fn a_call_inside_a_kernel_shifts_the_whole_effect_to_the_device() {
        let shifted = device_shifted(
            Effect::HOST_READ | Effect::HOST_WRITE | Effect::HOST_EXPOSED | Effect::HOST_CURRENT,
        );
        assert_eq!(
            shifted,
            Effect::DEVICE_READ
                | Effect::DEVICE_WRITE
                | Effect::DEVICE_EXPOSED
                | Effect::DEVICE_CURRENT
        );
        let src = format!(
            "double a[32];\n\
             void bump(double *p, int i) {{\n  p[i] = p[i] + 1.0;\n}}\n\
             void driver() {{\n  {KERNEL} bump(a, i);\n}}\n"
        );
        let (link, mut accesses, unit) = analyze(&src);
        let bump = link.summary("bump").unwrap().param_effects[0];
        assert!(
            bump.host_read() && bump.host_write() && bump.host_exposed() && bump.host_current()
        );
        let a = global_effect(&link, "driver", "a");
        assert!(a.device_read() && a.device_write() && a.device_exposed());
        assert!(!a.host_read() && !a.host_write() && !a.host_exposed());
        // Replayed at the call: an exposed device read, then a device write
        // — one read-write access, nothing in between.
        let driver = accesses.get_mut(&Symbol::intern("driver")).unwrap();
        augment_with_call_effects(driver, &table(&unit, "driver"), &unit, &link, false);
        let replayed: Vec<_> = (driver.accesses.iter())
            .filter(|access| access.var == "a" && access.origin != AccessOrigin::Direct)
            .map(|access| (access.kind, access.on_device))
            .collect();
        assert_eq!(replayed, [(AccessKind::ReadWrite, true)]);
    }

    /// The corners that know nothing about order: an unknown callee reads,
    /// then writes, on the host and proves nothing; a `const` pointee is an
    /// exposed host read — at the call site and in the caller's summary
    /// alike, so a wrapper's callers see them; pessimistic globals put the
    /// same read-then-write on every global, in the summary and at the call
    /// site — but not on a local that hides one.
    #[test]
    fn unknown_callee_const_pointee_and_pessimistic_globals_corners() {
        assert_eq!(
            Effect::pessimistic_host(),
            Effect::HOST_READ | Effect::HOST_WRITE | Effect::HOST_EXPOSED
        );
        assert_eq!(
            Effect::read_only_host(),
            Effect::HOST_READ | Effect::HOST_EXPOSED
        );
        let src = "\
double g[32];
double h[32];
void opaque(double *buf, int n);
void inspect(const double *buf, int n);
void f(double *data, int n) {
  double h[4];
  opaque(data, n);
  inspect(data, n);
}
void look(double *data, int n) {
  inspect(data, n);
}
";
        let (link, accesses, unit) = analyze(src);
        let param = |func: &str| link.summary(func).unwrap().param_effects[0];
        assert_eq!(param("f"), Effect::pessimistic_host());
        assert_eq!(param("look"), Effect::read_only_host());
        assert!(link.summary("f").unwrap().global_effects.is_empty());
        let replay = |clobber: bool, var: &str| -> Vec<AccessKind> {
            let mut f = accesses[&Symbol::intern("f")].clone();
            augment_with_call_effects(&mut f, &table(&unit, "f"), &unit, &link, clobber);
            let synthetic = f.accesses.iter().filter(|access| access.var == var);
            synthetic.map(|access| access.kind).collect()
        };
        assert_eq!(
            replay(false, "data"),
            [AccessKind::ReadWrite, AccessKind::Read]
        );
        assert!(replay(false, "g").is_empty());
        assert_eq!(
            replay(true, "g"),
            [AccessKind::ReadWrite, AccessKind::ReadWrite]
        );
        assert!(replay(true, "h").is_empty());
        // The clobber is part of the caller's summary too.
        let (_, clobbered, ..) = linked_alone(src, true);
        assert_eq!(
            global_effect(&clobbered, "f", "g"),
            Effect::pessimistic_host()
        );
    }

    /// A mutually recursive pair: walked once, a body that re-enters itself
    /// says little about order, so both take the conservative corner — and
    /// the fixed point still converges, the same in both engines.
    #[test]
    fn a_mutually_recursive_pair_takes_the_conservative_corner_and_converges() {
        let src = format!(
            "double t[32];\ndouble out[32];\n\
             void pong(int n);\n\
             void ping(int n) {{\n  {KERNEL} t[i] = n;\n  if (n > 0) pong(n - 1);\n}}\n\
             void pong(int n) {{\n  {KERNEL} out[i] = t[i];\n  if (n > 0) ping(n - 1);\n}}\n\
             void top() {{\n  ping(3);\n}}\n"
        );
        let (link, accesses, unit) = analyze(&src);
        assert!(
            link.summaries.passes <= 4,
            "took {} passes",
            link.summaries.passes
        );
        for func in ["ping", "pong"] {
            let t = global_effect(&link, func, "t");
            assert!(t.device_read() && t.device_write(), "{func}: {t:?}");
            assert!(t.device_exposed(), "{func}: every read may be exposed");
            assert!(
                !t.device_current() && !t.host_current(),
                "{func}: nothing proved"
            );
        }
        // The caller outside the component sees the cornered summary.
        assert!(global_effect(&link, "top", "t").device_exposed());
        // Alone, `ping` writes `t` before anything reads it.
        let ping = unit.function("ping").unwrap();
        let sym = SymbolTable::build(&unit, ping);
        let seed = seed_summary(ping, &accesses[&ping.name], &sym);
        let t = seed.global_effects[&Symbol::intern("t")];
        assert!(!t.device_exposed() && t.device_current());

        assert!(sequential_reference(&src, 8).same_summaries(&link.summaries));
    }

    /// A ring of mutually recursive functions, the last of which writes a
    /// global: however long the ring and whichever way round it is defined,
    /// the component iterates until the write has reached every member —
    /// what the sequential reference finds when given the ring's length in
    /// passes.
    #[test]
    fn a_long_recursive_ring_converges_whatever_its_length_and_order() {
        for len in [20usize, 40] {
            for reversed in [false, true] {
                let define = |i: usize| match i + 1 == len {
                    true => {
                        format!("void f{i}(int n) {{\n  g[0] = n;\n  if (n > 0) f0(n - 1);\n}}\n")
                    }
                    false => format!("void f{i}(int n) {{\n  f{}(n);\n}}\n", i + 1),
                };
                let prototypes: String = (0..len).map(|i| format!("void f{i}(int n);\n")).collect();
                let mut bodies: Vec<String> = (0..len).map(define).collect();
                if reversed {
                    bodies.reverse();
                }
                let src = format!("double g[8];\n{prototypes}{}", bodies.concat());
                let (link, ..) = analyze(&src);
                for i in 0..len {
                    let g = global_effect(&link, &format!("f{i}"), "g");
                    assert!(
                        g.host_write(),
                        "ring of {len}, reversed {reversed}: f{i} has {g:?}"
                    );
                }
                assert!(
                    sequential_reference(&src, len + 1).same_summaries(&link.summaries),
                    "ring of {len}, reversed {reversed}"
                );
            }
        }
    }
}
