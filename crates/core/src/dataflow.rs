//! Host/device data-flow analysis and mapping decisions (Section IV-D).
//!
//! For every function that launches offload kernels the analysis:
//!
//! 1. determines the set of variables referenced inside kernels (the mapped
//!    variables),
//! 2. chooses the extent of the single per-function `target data` region —
//!    from the first kernel to the last, extended outward past any loop that
//!    captures them,
//! 3. walks the function's AST forward (the `validity` walk), tracking in
//!    which memory space each variable's data is currently valid; every true
//!    (read-after-write) dependency between spaces is resolved by the
//!    cheapest sufficient construct: a `map(to/from/tofrom/alloc:)` clause on
//!    the region, a `target update to/from` hoisted out of every enclosing
//!    loop that does not contain the statement which produced the data
//!    (`PlanTransfers::hoist_anchor`, Section IV-E), or a `firstprivate`
//!    clause for read-only scalars,
//! 4. solves the exit-liveness problem: data written on the device and read
//!    by the host after the region (or escaping through globals / pointer
//!    parameters) is mapped `from`.
//!
//! [`plan_function`] takes no options: hoisting and the `firstprivate` rule
//! always apply.

use crate::access::{Access, AccessOrigin, CallSite, FunctionAccesses, SymbolTable};
use crate::bounds::section_length_from_loops;
use crate::interproc::is_pure_builtin;
use crate::pipeline::Stage;
use crate::plan::ir::{
    FirstPrivateSpec, MapSpec, MappingPlan, Placement, Provenance, ProvenanceFact, UpdateDirection,
    UpdateSpec,
};
use crate::validity::{Position, Transfers, VarState, Walker};
use ompdart_frontend::ast::*;
use ompdart_frontend::diag::Diagnostics;
use ompdart_frontend::intern::FnvBuild;
use ompdart_frontend::omp::{Clause, MapType};
use ompdart_frontend::source::Span;
use ompdart_frontend::Symbol;
use ompdart_graph::{NodeTable, StmtIndex};
use std::cell::OnceCell;
use std::collections::{HashMap, HashSet};

/// Symbol-keyed maps and sets: interned names hash as integers.
type SymbolMap<V> = HashMap<Symbol, V, FnvBuild>;
type SymbolSet = HashSet<Symbol, FnvBuild>;

/// The access that forced a mapping decision: the statement, the source
/// span, and where the access record came from (observed directly, or
/// synthesized from a — possibly unknown — callee's effects).
#[derive(Clone, Debug)]
struct Deciding {
    stmt: NodeId,
    span: Span,
    origin: AccessOrigin,
    /// The write inside this function, on the other side, whose value the
    /// access reads — `None` when it reads what the function was entered
    /// with.
    producer: Option<NodeId>,
}

impl Deciding {
    fn of(access: &Access, state: &VarState) -> Deciding {
        Deciding {
            stmt: access.stmt,
            span: access.span,
            origin: access.origin.clone(),
            producer: match access.on_device {
                true => state.last_host_writer,
                false => state.last_dev_writer,
            },
        }
    }
}

/// Rewrite a construct's provenance when its deciding access was
/// synthesized from a call site: the pessimistic unknown-callee fallback
/// becomes an explicit [`ProvenanceFact::UnknownCalleePessimistic`]
/// anchored at the call site, and a decision driven by another translation
/// unit's summary says so in its detail.
fn provenance_for(
    fact: ProvenanceFact,
    span: Option<Span>,
    detail: String,
    deciding: Option<&Deciding>,
) -> Provenance {
    match deciding.map(|d| (&d.origin, d.span)) {
        Some((
            AccessOrigin::UnknownCallee {
                callee,
                clobbers_global,
            },
            call_span,
        )) => Provenance::plan(
            ProvenanceFact::UnknownCalleePessimistic,
            Some(call_span),
            if *clobbers_global {
                format!(
                    "{detail}; the call to `{callee}` has no visible definition and \
                     pessimistic-globals mode assumes it reads and writes every global \
                     on the host"
                )
            } else {
                format!(
                    "{detail}; the call to `{callee}` has no visible definition, so the analysis \
                     assumes it reads and writes the argument on the host"
                )
            },
        ),
        Some((
            AccessOrigin::Callee {
                callee,
                cross_unit: true,
                ..
            },
            _,
        )) => Provenance::plan(
            fact,
            span,
            format!("{detail} (decided by the cross-unit summary of `{callee}`)"),
        ),
        _ => Provenance::plan(fact, span, detail),
    }
}

/// A planned `target update` before its provenance-carrying spec is built:
/// the placement decision plus the access that forced it.
#[derive(Clone, Debug)]
struct UpdateDecision {
    var: Symbol,
    direction: UpdateDirection,
    anchor: NodeId,
    placement: Placement,
    /// The read whose cross-space dependency forced this update.
    deciding: Deciding,
    fact: ProvenanceFact,
}

/// A plan names variables, so a name that denotes two of them — a block
/// declaration hiding an outer one — cannot be planned once the device or a
/// callee's replayed effect touches it: each such shadow is an error.
pub(crate) fn refuse_shadows(
    func: &FunctionDef,
    accesses: &FunctionAccesses,
    symbols: &SymbolTable,
    diags: &mut Diagnostics,
) {
    for shadow in symbols.shadows() {
        let touched = (accesses.accesses.iter()).any(|a| {
            a.var == shadow.name && (a.on_device || !matches!(a.origin, AccessOrigin::Direct))
        });
        if touched {
            let name = shadow.name;
            diags.error_with_labels(
                shadow.inner,
                format!(
                    "`{name}` names two variables in `{}`: this declaration hides another, and \
                     OMPDart maps variables by name; rename one of them",
                    func.name
                ),
                [(shadow.outer, format!("the hidden declaration of `{name}`"))],
            );
        }
    }
}

/// Compute the mapping plan for one function. Returns `None` when the
/// function launches no kernels. Every construct of the produced plan
/// carries a [`Provenance`] naming the dataflow fact and the deciding
/// source span that justified it.
///
/// `accesses` holds the function's own accesses and, replayed at each call
/// site, what its callees' summaries stand for
/// ([`crate::interproc::augment_with_call_effects`]) — the summaries of the
/// whole linked program when there is one, so nothing else about the other
/// functions or units is read here.
pub fn plan_function(
    func: &FunctionDef,
    index: &StmtIndex,
    accesses: &FunctionAccesses,
    symbols: &SymbolTable,
    diags: &mut Diagnostics,
) -> Option<MappingPlan> {
    let kernels = index.kernels();
    if kernels.is_empty() {
        return None;
    }
    let body = func.body.as_ref()?;
    refuse_shadows(func, accesses, symbols, diags);

    // ----- region extent ----------------------------------------------------
    let first_anchor = outermost_loop_or_self(index, kernels[0]);
    let last_anchor = outermost_loop_or_self(index, *kernels.last().unwrap());
    let (region_start, region_end) = align_to_common_parent(index, first_anchor, last_anchor);
    let attach_to_kernel =
        if kernels.len() == 1 && region_start == kernels[0] && region_end == kernels[0] {
            Some(kernels[0])
        } else {
            None
        };
    let region = (region_start, region_end);

    // ----- mapped variable set ---------------------------------------------
    // The variables some statement of the region accesses on the device. A
    // call *outside* the region whose callee launches kernels is none of
    // this region's business: the callee's own region maps what it needs.
    let facts = BodyFacts::collect(body, index);
    let mut device_vars: Vec<Symbol> = Vec::new();
    for access in accesses.accesses.iter().filter(|a| a.on_device) {
        let var = access.var;
        if device_vars.contains(&var) || side_of_region(index, region, access.stmt).is_ne() {
            continue;
        }
        if symbols.type_of(var).is_none() {
            continue; // macro constants and unknown identifiers
        }
        if facts.clause_private.contains(&var) {
            continue; // reduction/private clauses own the data movement
        }
        if facts.kernel_local.contains(&var) {
            continue; // declared inside a kernel: device-local
        }
        device_vars.push(var);
    }

    // firstprivate optimization: read-only scalars become kernel arguments.
    let mut firstprivate_vars: Vec<Symbol> = Vec::new();
    let mut mapped_vars: Vec<Symbol> = Vec::new();
    for var in &device_vars {
        let scalar = symbols.is_scalar(var);
        if scalar && accesses.device_read_only(var.as_str()) {
            firstprivate_vars.push(*var);
        } else {
            mapped_vars.push(*var);
        }
    }

    // Declarations of mapped variables must precede the region start.
    if attach_to_kernel.is_none() {
        let region_info = index.info(region_start);
        for var in &mapped_vars {
            if let (Some(decl), Some(region_info)) = (facts.first_decl.get(var), region_info) {
                if let Some(decl_info) = index.info(*decl) {
                    if decl_info.order >= region_info.order {
                        diags.error_with_labels(
                            decl_info.span,
                            format!(
                                "declaration of `{var}` must be moved before the start of the \
                                 target data region in `{}` so OMPDart can map it",
                                func.name
                            ),
                            [(
                                region_info.span,
                                "the target data region starts here".to_string(),
                            )],
                        );
                    }
                }
            }
        }
    }

    // ----- forward traversal -----------------------------------------------
    let transfers = PlanTransfers {
        index,
        to_entry: SymbolMap::default(),
        from_exit: SymbolMap::default(),
        updates: Vec::new(),
        seen_updates: HashSet::default(),
    };
    let entry = (mapped_vars.iter())
        .map(|v| (*v, VarState::host_current()))
        .collect();
    let mut walker = Walker::new(accesses, entry, region, transfers);
    walker.walk_stmt(body);

    // Exit liveness: device-written data that escapes must be copied back —
    // unless nothing that can run after the region reads it: in `main` a
    // global that neither `main` itself nor a function it calls afterwards
    // reads can stay device-only (`alloc`), sparing the exit copy. Escape
    // decisions are recorded separately from `from_exit` (which holds actual
    // host reads): their deciding statement is the device write that makes
    // the escaping data dirty. Demotions are recorded so the plan can
    // explain them (`DeadExitCopy`).
    let mut escape_exit: SymbolMap<Option<NodeId>> = SymbolMap::default();
    let mut demoted: SymbolMap<Option<NodeId>> = SymbolMap::default();
    let aliased = OnceCell::new();
    for var in &mapped_vars {
        let st = &walker.state[var];
        if !st.host_valid && symbols.escapes(var) && !walker.transfers.from_exit.contains_key(var) {
            let live = may_be_read_after_region(
                func,
                accesses,
                index,
                region_start,
                *var,
                symbols,
                &aliased,
            );
            if live {
                escape_exit.insert(*var, st.last_dev_writer);
            } else {
                demoted.insert(*var, st.last_dev_writer);
            }
        }
    }

    // ----- assemble the plan --------------------------------------------------
    let PlanTransfers {
        to_entry,
        from_exit,
        updates: updates_raw,
        ..
    } = walker.transfers;
    let span_of = |id: NodeId| index.info(id).map(|i| i.span);

    let mut plan = MappingPlan {
        function: func.name.to_string(),
        region_start: Some(region_start),
        region_end: Some(region_end),
        attach_to_kernel,
        kernels: kernels.to_vec(),
        ..Default::default()
    };

    for var in &mapped_vars {
        let to = to_entry.get(var);
        // An exit copy is forced either by an observed host read past the
        // region (span = that read) or by escape liveness (span = the
        // device write whose result escapes).
        let from = from_exit
            .get(var)
            .map(|read| (Some(read.clone()), span_of(read.stmt), format!("the device-written `{var}` is read on the host after the region")))
            .or_else(|| {
                escape_exit.get(var).map(|writer| {
                    (
                        None,
                        writer.and_then(span_of),
                        format!(
                            "`{var}` escapes the region (global or pointer parameter) and whole-program liveness cannot prove the device result dead"
                        ),
                    )
                })
            });
        let (map_type, provenance) = match (to, from) {
            (Some(to_read), Some((from_read, ..))) => (
                MapType::ToFrom,
                provenance_for(
                    ProvenanceFact::ReadAndLiveAfterRegion,
                    span_of(to_read.stmt),
                    format!(
                        "a kernel reads the host value of `{var}` and its device result is live after the region"
                    ),
                    // The conservative side of a tofrom is the exit copy: if
                    // either deciding access came from an unknown callee,
                    // prefer explaining that one.
                    pick_unknown(from_read.as_ref(), Some(to_read)),
                ),
            ),
            (Some(to_read), None) => (
                MapType::To,
                provenance_for(
                    ProvenanceFact::ReadBeforeWriteOnDevice,
                    span_of(to_read.stmt),
                    format!("a kernel reads the host value of `{var}` before any device write"),
                    Some(to_read),
                ),
            ),
            (None, Some((from_read, from_span, from_detail))) => (
                MapType::From,
                provenance_for(
                    ProvenanceFact::LiveAfterRegion,
                    from_span,
                    from_detail,
                    from_read.as_ref(),
                ),
            ),
            (None, None) => {
                let first_dev_access = (accesses.accesses.iter())
                    .find(|a| a.var == *var && a.on_device);
                // No copy-in because the first device access is a call whose
                // callee writes the variable before it reads it: say so.
                let written_first = first_dev_access
                    .and_then(|a| match &a.origin {
                        AccessOrigin::Callee { callee, effect, .. }
                            if effect.device_read() && !effect.device_exposed() =>
                        {
                            Some(format!(
                                "; `{callee}` writes `{var}` on the device before reading it, so nothing is copied in"
                            ))
                        }
                        _ => None,
                    })
                    .unwrap_or_default();
                let provenance = if let Some(writer) = demoted.get(var) {
                    Provenance::plan(
                        ProvenanceFact::DeadExitCopy,
                        writer.and_then(span_of),
                        format!(
                            "`{var}` escapes, but {}; exit copy demoted to alloc{written_first}",
                            runs_after_region(accesses, index, region)
                        ),
                    )
                } else {
                    Provenance::plan(
                        ProvenanceFact::DeviceOnlyData,
                        first_dev_access.and_then(|a| span_of(a.stmt)),
                        format!("`{var}` never crosses the host/device boundary{written_first}"),
                    )
                };
                (MapType::Alloc, provenance)
            }
        };
        let section_length = if symbols.is_pointer(var) {
            pointer_section_length(*var, accesses, index, &facts.loops)
        } else {
            None
        };
        plan.maps.push(MapSpec {
            var: var.to_string(),
            map_type,
            section_length,
            provenance,
        });
    }

    for decision in updates_raw {
        let UpdateDecision {
            var,
            direction,
            anchor,
            placement,
            deciding,
            fact,
        } = decision;
        let section_length = if symbols.is_pointer(var) {
            pointer_section_length(var, accesses, index, &facts.loops)
        } else {
            None
        };
        let detail = match direction {
            UpdateDirection::To => {
                format!("a host write to `{var}` inside the region reaches a later kernel read")
            }
            UpdateDirection::From => {
                format!("the host reads the device-produced `{var}` inside the region")
            }
        };
        let provenance = provenance_for(fact, span_of(deciding.stmt), detail, Some(&deciding));
        plan.updates.push(UpdateSpec {
            var: var.to_string(),
            direction,
            anchor,
            placement,
            section_length,
            provenance,
        });
    }

    // A function other than `main` can be entered with its data already on
    // the device — a caller holds a region around the call — and then its own
    // region's clauses are present-table no-ops. Its internal cross-space
    // flow must hold all the same: a copy-in fed by a host write inside the
    // function, and a copy-out a host read inside the function consumes, are
    // repeated as a `target update` immediately outside the region. An
    // update moves data exactly when the variable is present, a clause
    // exactly when it is not, so nothing is ever copied twice.
    if func.name != "main" {
        let mirrored = |var: &Symbol| {
            let to = to_entry.get(var).filter(|read| read.producer.is_some());
            let from = from_exit.get(var);
            let to = to.map(|read| (UpdateDirection::To, region_start, Placement::Before, read));
            let from = from.map(|read| (UpdateDirection::From, region_end, Placement::After, read));
            to.into_iter().chain(from)
        };
        for var in mapped_vars.iter().filter(|var| symbols.escapes(**var)) {
            for (direction, anchor, placement, read) in mirrored(var) {
                // What the fact means is said once, by the fact; the detail
                // names the access on the other side of the boundary.
                let (detail, at) = match direction {
                    UpdateDirection::To => (
                        format!(
                            "`{}` writes `{var}` on the host before its region",
                            func.name
                        ),
                        read.producer.and_then(span_of),
                    ),
                    UpdateDirection::From => (
                        format!("`{}` reads `{var}` on the host after its region", func.name),
                        span_of(read.stmt),
                    ),
                };
                plan.updates.push(UpdateSpec {
                    var: var.to_string(),
                    direction,
                    anchor,
                    placement,
                    section_length: match symbols.is_pointer(var) {
                        true => pointer_section_length(*var, accesses, index, &facts.loops),
                        false => None,
                    },
                    provenance: Provenance::plan(ProvenanceFact::FlowWhenDataPresent, at, detail),
                });
            }
        }
    }

    // firstprivate clauses, one per kernel that references the scalar. The
    // read-only fact comes from the access-classification stage.
    for var in &firstprivate_vars {
        for kernel in kernels {
            let deciding = accesses
                .accesses
                .iter()
                .find(|a| {
                    a.var == *var && a.on_device && enclosing_kernel(index, a.stmt) == Some(*kernel)
                })
                .map(|a| a.stmt);
            if let Some(deciding) = deciding {
                plan.firstprivate.push(FirstPrivateSpec {
                    kernel: *kernel,
                    var: var.to_string(),
                    provenance: Provenance::at_stage(
                        Stage::Accesses,
                        ProvenanceFact::ReadOnlyInRegion,
                        span_of(deciding),
                        format!(
                            "the scalar `{var}` is only ever read inside kernels; a private device copy avoids mapping it"
                        ),
                    ),
                });
            }
        }
    }

    Some(plan)
}

/// Prefer the deciding access that best explains a conservative decision:
/// an unknown-callee fallback first (either side), then a cross-unit
/// summary, then whichever deciding access the base provenance points at.
fn pick_unknown<'a>(a: Option<&'a Deciding>, b: Option<&'a Deciding>) -> Option<&'a Deciding> {
    let is_unknown = |d: &&Deciding| matches!(d.origin, AccessOrigin::UnknownCallee { .. });
    let is_cross = |d: &&Deciding| {
        matches!(
            d.origin,
            AccessOrigin::Callee {
                cross_unit: true,
                ..
            }
        )
    };
    a.filter(is_unknown)
        .or_else(|| b.filter(is_unknown))
        .or_else(|| a.filter(is_cross))
        .or(b)
}

/// Whether a device-written escaping variable may still be read after the
/// region ends, as far as the function's own statements from the region on
/// say. What runs *after* the region the walk has already answered: there a
/// call's device side happens on the host too, so a read of the stale host
/// copy, by `main` or by a callee's exposed read on either side, is an exit
/// copy the walk asked for itself. Parameters always may (the caller sees
/// them), and so do
/// globals in any function other than `main` (the function may be invoked
/// again and read the stale host copy before its region re-enters). `main`
/// runs exactly once, so there a global is live only if `main` reads it on
/// the host from the region on — itself or through a callee — or aliases
/// it. `aliased` holds the function's [`aliasing_uses`], walked for the
/// first variable that gets that far.
fn may_be_read_after_region(
    func: &FunctionDef,
    accesses: &FunctionAccesses,
    index: &StmtIndex,
    region_start: NodeId,
    var: Symbol,
    symbols: &SymbolTable,
    aliased: &OnceCell<SymbolSet>,
) -> bool {
    if !symbols.is_global(var) || func.name != "main" {
        return true;
    }
    let Some(start_order) = index.info(region_start).map(|i| i.order) else {
        return true;
    };
    // A call site reads the variable on the host if its callee may, exposed
    // or not: every step the call replays carries the whole effect.
    let reads_on_host = |a: &Access| match &a.origin {
        AccessOrigin::Callee { effect, .. } => effect.host_read(),
        _ => !a.on_device && a.kind.may_read(),
    };
    let read_later_here = accesses.accesses.iter().any(|a| {
        a.var == var
            && reads_on_host(a)
            && index
                .info(a.stmt)
                .map(|i| i.order >= start_order)
                .unwrap_or(true)
    });
    // An aliasing use anywhere in this function (`double *p = var;`,
    // `&var[0]`, `f(var)` for an `f` nothing is known about) can smuggle
    // reads past the name-based access check above, so it keeps the exit
    // copy.
    read_later_here
        || (func.body.as_ref()).is_some_and(|body| {
            (aliased.get_or_init(|| aliasing_uses(body, accesses))).contains(&var)
        })
}

/// Why nothing reads a demoted variable after the region, for the
/// provenance of the demotion: what runs there. A `main` that calls nothing
/// but library functions is its whole program, and says so in the words it
/// always has.
fn runs_after_region(
    accesses: &FunctionAccesses,
    index: &StmtIndex,
    region: (NodeId, NodeId),
) -> String {
    let mut calls = (accesses.calls.iter()).filter(|call| !is_pure_builtin(call.callee));
    if calls.next().is_none() {
        return "whole-program liveness proves no host read observes it after the region"
            .to_string();
    }
    let after = |stmt: NodeId| side_of_region(index, region, stmt).is_gt();
    let mut callees: Vec<Symbol> = (accesses.calls.iter())
        .filter(|call| after(call.stmt))
        .map(|call| call.callee)
        .collect();
    callees.sort_unstable();
    callees.dedup();
    let names: Vec<String> = callees.iter().map(|c| format!("`{c}`")).collect();
    let calls = match names.is_empty() {
        true => "which call nothing".to_string(),
        false => format!("which call only {}", names.join(", ")),
    };
    format!(
        "`main` runs once and nothing that runs after the region reads it: neither the \
         statements that follow, {calls}, nor anything those calls read"
    )
}

/// The variables that appear under `body` in a way that can create an alias
/// or consume the whole object: any occurrence that is not the direct base
/// of an element access (`var[i]...`) or member access (`var.field`) — nor
/// an argument handed as it is to a callee whose summary says what it does
/// with it (that effect is replayed at the call).
fn aliasing_uses(body: &Stmt, accesses: &FunctionAccesses) -> SymbolSet {
    struct Uses<'a> {
        calls: &'a [CallSite],
        out: SymbolSet,
    }
    impl Uses<'_> {
        fn init(&mut self, init: &Init) {
            match init {
                Init::Expr(e) => self.expr(e),
                Init::List(items) => items.iter().for_each(|i| self.init(i)),
            }
        }
        fn expr(&mut self, e: &Expr) {
            match &e.kind {
                ExprKind::Ident(name) => {
                    self.out.insert(*name);
                }
                // `var[i]` touches an element and `var.f` a member, not the
                // object as a whole; anything else in base position counts.
                ExprKind::Index { base, index } => {
                    if !matches!(base.kind, ExprKind::Ident(_)) {
                        self.expr(base);
                    }
                    self.expr(index);
                }
                ExprKind::Member { base, .. } => {
                    if !matches!(base.kind, ExprKind::Ident(_)) {
                        self.expr(base);
                    }
                }
                ExprKind::Unary {
                    op: UnaryOp::AddrOf,
                    operand,
                    ..
                } => operand.walk(&mut |e| {
                    if let ExprKind::Ident(name) = e.kind {
                        self.out.insert(name);
                    }
                }),
                ExprKind::Unary { operand, .. } => self.expr(operand),
                ExprKind::Binary { lhs, rhs, .. } | ExprKind::Assign { lhs, rhs, .. } => {
                    self.expr(lhs);
                    self.expr(rhs);
                }
                ExprKind::Conditional {
                    cond,
                    then_expr,
                    else_expr,
                } => {
                    self.expr(cond);
                    self.expr(then_expr);
                    self.expr(else_expr);
                }
                ExprKind::Call { callee, args, .. } => {
                    let summarised =
                        (self.calls.iter()).any(|call| call.summarised && call.callee == *callee);
                    for arg in args {
                        if !(summarised && matches!(arg.kind, ExprKind::Ident(_))) {
                            self.expr(arg);
                        }
                    }
                }
                ExprKind::Cast { expr, .. } | ExprKind::Paren(expr) => self.expr(expr),
                ExprKind::Comma(items) => items.iter().for_each(|e| self.expr(e)),
                ExprKind::SizeofExpr(_)
                | ExprKind::SizeofType(_)
                | ExprKind::IntLit(_)
                | ExprKind::FloatLit(_)
                | ExprKind::CharLit(_)
                | ExprKind::StrLit(_) => {}
            }
        }
    }
    let mut uses = Uses {
        calls: &accesses.calls,
        out: SymbolSet::default(),
    };
    body.walk(&mut |s| {
        // Expression initializers are among the direct expressions.
        for d in s.declared() {
            if let Some(list @ Init::List(_)) = &d.init {
                uses.init(list);
            }
        }
        for e in s.direct_exprs() {
            uses.expr(e);
        }
    });
    uses.out
}

/// The outermost loop enclosing a statement, or the statement itself.
fn outermost_loop_or_self(index: &StmtIndex, stmt: NodeId) -> NodeId {
    index.loops_outward(stmt).last().unwrap_or(stmt)
}

/// Where `stmt` lies relative to the region spanning the sibling statements
/// `region.0 ..= region.1`: before it, within it (`Equal`), or after it.
/// The region's statements and everything they contain are one run of
/// source order, so the statement's position alone decides.
fn side_of_region(index: &StmtIndex, region: (NodeId, NodeId), stmt: NodeId) -> std::cmp::Ordering {
    use std::cmp::Ordering;
    let (Some(at), Some(start), Some(end)) =
        (index.info(stmt), index.info(region.0), index.info(region.1))
    else {
        return Ordering::Less;
    };
    match (at.order < start.order, at.order >= end.end) {
        (true, _) => Ordering::Less,
        (_, true) => Ordering::Greater,
        _ => Ordering::Equal,
    }
}

/// Lift two anchors to direct children of their lowest common compound
/// ancestor so that the inserted region braces stay syntactically balanced.
fn align_to_common_parent(index: &StmtIndex, a: NodeId, b: NodeId) -> (NodeId, NodeId) {
    if a == b {
        return (a, b);
    }
    let parent = |id: &NodeId| index.info(*id)?.parent;
    let ancestors = |id: NodeId| std::iter::successors(Some(id), parent);
    // Deepest ancestor of `a` (or `a` itself) that also encloses `b`.
    let Some(lca) = ancestors(a).find(|id| *id == b || index.encloses(*id, b)) else {
        return (a, b);
    };
    let child_of_lca = |id: NodeId| {
        (ancestors(id).find(|id| *id == lca || parent(id) == Some(lca))).unwrap_or(lca)
    };
    (child_of_lca(a), child_of_lca(b))
}

/// What the planner needs of a function body besides its accesses,
/// collected in one walk.
struct BodyFacts<'a> {
    /// Where each name is first declared.
    first_decl: SymbolMap<NodeId>,
    /// Names declared anywhere inside an offload kernel (loop counters and
    /// temporaries): device-local, never mapped.
    kernel_local: SymbolSet,
    /// Names in `reduction` or `private` clauses, whose data movement those
    /// clauses own.
    clause_private: SymbolSet,
    /// Every loop statement, borrowed and addressed by id.
    loops: NodeTable<&'a Stmt>,
}

impl<'a> BodyFacts<'a> {
    fn collect(body: &'a Stmt, index: &StmtIndex) -> BodyFacts<'a> {
        let mut facts = BodyFacts {
            first_decl: SymbolMap::default(),
            kernel_local: SymbolSet::default(),
            clause_private: SymbolSet::default(),
            loops: NodeTable::spanning(index.loops().iter().copied()),
        };
        body.walk(&mut |s| {
            let offloaded = index.info(s.id).is_some_and(|i| i.offloaded);
            for d in s.declared() {
                facts.first_decl.entry(d.name).or_insert(s.id);
                if offloaded {
                    facts.kernel_local.insert(d.name);
                }
            }
            match &s.kind {
                StmtKind::Omp(dir) => {
                    for clause in &dir.clauses {
                        if let Clause::Private(items) | Clause::Reduction { items, .. } = clause {
                            let names = items.iter().map(|item| Symbol::intern(&item.var));
                            facts.clause_private.extend(names);
                        }
                    }
                }
                _ if s.is_loop() => {
                    facts.loops.get_or_insert_with(s.id, || s);
                }
                _ => {}
            }
        });
        facts
    }
}

fn enclosing_kernel(index: &StmtIndex, stmt: NodeId) -> Option<NodeId> {
    index.info(stmt).and_then(|i| i.enclosing_kernel)
}

/// Determine an array-section length for a pointer variable from its device
/// access patterns (Section IV-E bounds analysis).
fn pointer_section_length(
    var: Symbol,
    accesses: &FunctionAccesses,
    index: &StmtIndex,
    loops: &NodeTable<&Stmt>,
) -> Option<String> {
    for access in accesses
        .accesses
        .iter()
        .filter(|a| a.var == var && a.on_device)
    {
        if access.indices.is_empty() {
            continue;
        }
        let enclosing = (index.loops_outward(access.stmt)).filter_map(|id| loops.get(id).copied());
        if let Some(len) = section_length_from_loops(&access.indices, enclosing) {
            return Some(len);
        }
    }
    None
}

/// What a cross-space dependency means to the planner: the construct that
/// resolves it.
struct PlanTransfers<'a> {
    index: &'a StmtIndex,
    /// Variables copied in at region entry, with the deciding device read.
    to_entry: SymbolMap<Deciding>,
    /// Variables copied out at region exit, with the deciding host read.
    from_exit: SymbolMap<Deciding>,
    updates: Vec<UpdateDecision>,
    seen_updates: HashSet<(Symbol, UpdateDirection, NodeId, Placement), FnvBuild>,
}

impl Transfers for PlanTransfers<'_> {
    fn need(&mut self, access: &Access, st: &VarState, at: Position<'_>) {
        let var = access.var;
        let stmt = access.stmt;
        if access.on_device {
            // True dependency: device needs data valid on the host.
            if !st.host_modified {
                // Satisfiable by copying at region entry.
                self.to_entry
                    .entry(var)
                    .or_insert_with(|| Deciding::of(access, st));
            } else {
                // Needs an update inside the region, placed before the kernel
                // that performs the read and hoisted as far as validity
                // allows.
                let kernel = enclosing_kernel(self.index, stmt).unwrap_or(stmt);
                let anchor = self.hoist_anchor(kernel, st.last_host_writer, at.loop_stack);
                self.push_update(
                    var,
                    UpdateDirection::To,
                    anchor,
                    Placement::Before,
                    Deciding::of(access, st),
                    ProvenanceFact::HostWriteReachesKernel,
                );
            }
        } else if at.past_region {
            self.from_exit
                .entry(var)
                .or_insert_with(|| Deciding::of(access, st));
        } else if let Some((_loop_id, body_end)) = at.loop_cond {
            // Loop-condition read of device-produced data: update at the
            // end of the loop body.
            self.push_update(
                var,
                UpdateDirection::From,
                body_end,
                Placement::After,
                Deciding::of(access, st),
                ProvenanceFact::LoopBoundaryHostRead,
            );
        } else {
            let anchor = self.hoist_anchor(stmt, st.last_dev_writer, at.loop_stack);
            self.push_update(
                var,
                UpdateDirection::From,
                anchor,
                Placement::Before,
                Deciding::of(access, st),
                ProvenanceFact::HostReadBetweenKernels,
            );
        }
    }
}

impl PlanTransfers<'_> {
    /// Hoist an update directive out of every enclosing loop that does not
    /// contain the statement that produced the needed data.
    fn hoist_anchor(
        &self,
        need_at: NodeId,
        producer: Option<NodeId>,
        loop_stack: &[NodeId],
    ) -> NodeId {
        // Hoist to the outermost loop enclosing the need that is on the
        // current walk stack and does not contain the producer. (A loop
        // enclosing the need in the AST is always on the walk stack for
        // structured code; the check is defensive.)
        let contains_producer = |l: NodeId| producer.is_some_and(|p| self.index.encloses(l, p));
        (self.index.loops_outward(need_at))
            .filter(|l| loop_stack.contains(l) && !contains_producer(*l))
            .last()
            .unwrap_or(need_at)
    }

    fn push_update(
        &mut self,
        var: Symbol,
        direction: UpdateDirection,
        anchor: NodeId,
        placement: Placement,
        deciding: Deciding,
        fact: ProvenanceFact,
    ) {
        let key = (var, direction, anchor, placement);
        if self.seen_updates.insert(key) {
            self.updates.push(UpdateDecision {
                var,
                direction,
                anchor,
                placement,
                deciding,
                fact,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interproc::{augment_with_call_effects, Effect, ProgramSummaries};
    use crate::pipeline::{closed_world_of, stage_accesses, stage_graphs, stage_summaries};
    use crate::program::LinkContext;
    use crate::OmpDartOptions;
    use ompdart_frontend::parser::parse_str;
    use ompdart_graph::ProgramGraphs;
    use std::sync::Arc;

    fn plan_for(src: &str, func_name: &str) -> (MappingPlan, ompdart_frontend::TranslationUnit) {
        let (_file, result) = parse_str("t.c", src);
        assert!(result.is_ok(), "{:?}", result.diagnostics);
        let unit = result.unit;
        let graphs = stage_graphs(&unit);
        let accesses = stage_accesses(&unit, &graphs);
        let options = OmpDartOptions::default();
        let seeds = stage_summaries(&unit, &accesses, &options);
        let (_, link) = closed_world_of(&unit, &accesses, &seeds, &options, 1);
        let func = unit.function(func_name).unwrap();
        let name = Symbol::intern(func_name);
        let mut acc = accesses.accesses[&name].clone();
        augment_with_call_effects(&mut acc, &accesses.symbols[&name], &unit, &link, false);
        let mut diags = Diagnostics::new();
        let plan = plan_function(
            func,
            graphs.graphs.function(func_name).unwrap(),
            &acc,
            &accesses.symbols[&name],
            &mut diags,
        )
        .expect("function should produce a plan");
        (plan, unit)
    }

    /// Listing 1 of the paper: a kernel nested inside a loop. The region must
    /// extend outside the loop and map the array once.
    #[test]
    fn kernel_in_loop_maps_outside_the_loop() {
        let src = "\
#define N 64
int a[N];
int main() {
  for (int i = 0; i < N; ++i) {
    #pragma omp target
    for (int j = 0; j < N; ++j) {
      a[j] += j;
    }
  }
  return a[0];
}
";
        let (plan, _unit) = plan_for(src, "main");
        assert!(
            plan.attach_to_kernel.is_none(),
            "region must wrap the outer loop"
        );
        let a = plan.map_for("a").unwrap();
        assert_eq!(a.map_type, MapType::ToFrom);
        assert!(
            plan.updates.is_empty(),
            "no in-loop updates are needed: {:?}",
            plan.updates
        );
        // The region starts at the outer loop, not the kernel.
        assert_ne!(plan.region_start, Some(plan.kernels[0]));
    }

    /// Listing 2 of the paper: two consecutive kernels; no intermediate
    /// transfers are needed.
    #[test]
    fn back_to_back_kernels_share_one_region() {
        let src = "\
#define N 64
int a[N];
int main() {
  #pragma omp target
  for (int i = 0; i < N; ++i) a[i] += i;
  #pragma omp target
  for (int i = 0; i < N; ++i) a[i] *= i;
  return a[1];
}
";
        let (plan, _unit) = plan_for(src, "main");
        assert_eq!(plan.kernels.len(), 2);
        assert!(plan.attach_to_kernel.is_none());
        assert_eq!(plan.map_for("a").unwrap().map_type, MapType::ToFrom);
        assert!(plan.updates.is_empty());
    }

    /// Listing 3 of the paper, written correctly: the host reads the array
    /// every iteration, so an `update from` inside the loop is required.
    #[test]
    fn host_read_in_loop_requires_update_from() {
        let src = "\
#define N 64
#define M 8
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
  return sum;
}
";
        let (plan, _unit) = plan_for(src, "main");
        let updates = plan.updates_for("a");
        assert_eq!(
            updates.len(),
            1,
            "expected exactly one update: {:?}",
            plan.updates
        );
        assert_eq!(updates[0].direction, UpdateDirection::From);
        // Hoisted out of the inner summation loop but kept inside the outer
        // iteration loop (which also contains the kernel).
        assert_eq!(updates[0].placement, Placement::Before);
        // `a` must not be mapped `from` twice: the region map can stay `to`
        // (host never needs it after the loop) — or tofrom if escapes; here
        // `a` is a global so it is also copied out at region exit.
        assert!(plan.map_for("a").is_some());
    }

    /// The backprop / Listing 6 pattern: host reduction between two kernels;
    /// the update from must be hoisted out of both host loops.
    #[test]
    fn update_hoisted_out_of_nested_host_loops() {
        let src = "\
#define NB 16
#define HID 8
double partial_sum[NB * HID];
double hidden_units[HID + 1];
double weights[NB * HID];
void forward(int hid, int num_blocks) {
  #pragma omp target teams distribute parallel for
  for (int t = 0; t < NB * HID; t++) {
    partial_sum[t] = t * 0.5;
  }
  for (int j = 1; j <= hid; j++) {
    double sum = 0.0;
    for (int k = 0; k < num_blocks; k++) {
      sum += partial_sum[k * hid + j - 1];
    }
    hidden_units[j] = sum;
  }
  #pragma omp target teams distribute parallel for
  for (int t = 0; t < NB * HID; t++) {
    weights[t] = weights[t] + partial_sum[t];
  }
}
";
        let (plan, unit) = plan_for(src, "forward");
        let updates = plan.updates_for("partial_sum");
        assert_eq!(
            updates.len(),
            1,
            "expected one hoisted update: {:?}",
            plan.updates
        );
        assert_eq!(updates[0].direction, UpdateDirection::From);
        // The anchor must be the outer (j) host loop, not the inner k loop
        // and not the summation statement.
        let func = unit.function("forward").unwrap();
        let mut j_loop = None;
        func.body.as_ref().unwrap().walk(&mut |s| {
            if let StmtKind::For { init: Some(fi), .. } = &s.kind {
                if let ForInit::Decl(decls) = fi.as_ref() {
                    if decls[0].name == "j" {
                        j_loop = Some(s.id);
                    }
                }
            }
        });
        assert_eq!(updates[0].anchor, j_loop.unwrap());
        // partial_sum never needs to come from the host: alloc (or from) only.
        let ps = plan.map_for("partial_sum").unwrap();
        assert_ne!(ps.map_type, MapType::To);
        assert_ne!(ps.map_type, MapType::ToFrom);
    }

    /// Read-only scalars become firstprivate; scalars written on the device
    /// (bfs's stop flag) are mapped and synchronized with updates.
    #[test]
    fn firstprivate_and_device_written_scalars() {
        let src = "\
#define N 128
int mask[N];
int cost[N];
int main() {
  int stop = 1;
  int threshold = 7;
  while (stop) {
    stop = 0;
    #pragma omp target teams distribute parallel for
    for (int i = 0; i < N; i++) {
      if (mask[i] > threshold) {
        cost[i] = mask[i];
        stop = 1;
      }
    }
  }
  return cost[0];
}
";
        let (plan, _unit) = plan_for(src, "main");
        // threshold: read-only scalar -> firstprivate
        assert!(plan.is_firstprivate("threshold"));
        assert!(plan.map_for("threshold").is_none());
        // stop: written on device -> mapped, with to+from updates in the loop
        assert!(plan.map_for("stop").is_some());
        let stop_updates = plan.updates_for("stop");
        assert!(
            stop_updates
                .iter()
                .any(|u| u.direction == UpdateDirection::To),
            "stop needs an update to before the kernel: {:?}",
            plan.updates
        );
        assert!(
            stop_updates
                .iter()
                .any(|u| u.direction == UpdateDirection::From),
            "stop needs an update from after the kernel: {:?}",
            plan.updates
        );
    }

    /// Arrays only written on the device and read back on the host afterwards
    /// need `from`; arrays fully produced on the device need no `to`.
    #[test]
    fn map_types_reflect_data_direction() {
        let src = "\
#define N 64
double input[N];
double output[N];
double scratch[N];
int main() {
  for (int i = 0; i < N; i++) input[i] = i;
  #pragma omp target teams distribute parallel for
  for (int i = 0; i < N; i++) {
    scratch[i] = input[i] * 2.0;
    output[i] = scratch[i] + 1.0;
  }
  double s = 0.0;
  for (int i = 0; i < N; i++) s += output[i];
  printf(\"%f\\n\", s);
  return 0;
}
";
        let (plan, _unit) = plan_for(src, "main");
        assert_eq!(plan.map_for("input").unwrap().map_type, MapType::To);
        assert_eq!(plan.map_for("output").unwrap().map_type, MapType::From);
        // scratch is written before being read on the device and never read
        // on the host: alloc is enough... but as a global it escapes, so a
        // conservative `from` is also acceptable. It must not be `to`.
        let scratch = plan.map_for("scratch").unwrap().map_type;
        assert!(scratch == MapType::Alloc || scratch == MapType::From);
    }

    /// A single kernel with no enclosing loop attaches its clauses directly
    /// to the kernel directive.
    #[test]
    fn single_kernel_attaches_clauses() {
        let src = "\
#define N 16
double a[N];
void f() {
  #pragma omp target teams distribute parallel for
  for (int i = 0; i < N; i++) a[i] = i;
}
";
        let (plan, _unit) = plan_for(src, "f");
        assert_eq!(plan.attach_to_kernel, Some(plan.kernels[0]));
    }

    /// Pointer parameters get array sections derived from the kernel loop
    /// bounds.
    #[test]
    fn pointer_parameters_get_sections() {
        let src = "\
void scale(double *data, int n) {
  #pragma omp target teams distribute parallel for
  for (int i = 0; i < n; i++) data[i] *= 2.0;
}
";
        let (plan, _unit) = plan_for(src, "scale");
        let m = plan.map_for("data").unwrap();
        assert_eq!(m.section_length.as_deref(), Some("n"));
        // data escapes through the pointer parameter, so the device result
        // must be copied back.
        assert_eq!(m.map_type, MapType::ToFrom);
    }

    /// Variables declared after the region start produce the paper's
    /// diagnostic.
    #[test]
    fn declaration_after_region_start_is_reported() {
        let src = "\
#define N 16
int main() {
  for (int it = 0; it < 4; it++) {
    double a[N];
    #pragma omp target
    for (int i = 0; i < N; i++) a[i] = i;
    double s = 0.0;
    for (int i = 0; i < N; i++) s += a[i];
    printf(\"%f\\n\", s);
  }
  return 0;
}
";
        let (_file, result) = parse_str("t.c", src);
        let unit = result.unit;
        let graphs = ProgramGraphs::build(&unit);
        let func = unit.function("main").unwrap();
        let sym = SymbolTable::build(&unit, func);
        let acc = FunctionAccesses::collect(func, graphs.function("main").unwrap(), &sym);
        let mut diags = Diagnostics::new();
        let _ = plan_function(
            func,
            graphs.function("main").unwrap(),
            &acc,
            &sym,
            &mut diags,
        );
        assert!(
            diags.has_errors(),
            "expected the declaration-placement error"
        );
    }

    /// Every construct the analysis emits carries a non-default provenance
    /// with the dataflow fact that justified it, and the facts match the
    /// decision rules.
    #[test]
    fn every_construct_carries_justified_provenance() {
        let src = "\
#define N 16
double input[N];
double scratch[N];
double out[N];
int main() {
  double scale = 2.0;
  for (int i = 0; i < N; i++) input[i] = i;
  #pragma omp target teams distribute parallel for
  for (int i = 0; i < N; i++) scratch[i] = input[i] * scale;
  #pragma omp target teams distribute parallel for
  for (int i = 0; i < N; i++) out[i] = scratch[i] + 1.0;
  double s = 0.0;
  for (int i = 0; i < N; i++) s += out[i];
  printf(\"%f\\n\", s);
  return 0;
}
";
        let (plan, _unit) = plan_for(src, "main");
        assert!(plan.fully_justified(), "{plan:#?}");
        assert_eq!(
            plan.map_for("input").unwrap().provenance.fact,
            ProvenanceFact::ReadBeforeWriteOnDevice
        );
        assert_eq!(
            plan.map_for("out").unwrap().provenance.fact,
            ProvenanceFact::LiveAfterRegion
        );
        // scratch is device-written, escapes as a global, but whole-program
        // liveness proves the host never reads it: demoted exit copy.
        let scratch = plan.map_for("scratch").unwrap();
        assert_eq!(scratch.map_type, MapType::Alloc);
        assert_eq!(scratch.provenance.fact, ProvenanceFact::DeadExitCopy);
        // The read-only scalar's justification names the access stage.
        let fp = plan
            .firstprivate
            .iter()
            .find(|f| f.var == "scale")
            .expect("scale should be firstprivate");
        assert_eq!(fp.provenance.fact, ProvenanceFact::ReadOnlyInRegion);
        assert_eq!(fp.provenance.stage, crate::pipeline::Stage::Accesses);
        // Deciding spans point into the source.
        for p in plan.provenances() {
            assert!(p.span.is_some(), "{p:?}");
        }

        // Decisions an ordered call-site fact made say so.
        let src = "\
#define N 16
double t[N];
double in[N];
double out[N];
double stage(int s) {
  double sum = 0.0;
  for (int i = 0; i < N; i++) in[i] = i + s;
  #pragma omp target teams distribute parallel for
  for (int i = 0; i < N; i++) t[i] = in[i] * 2.0;
  #pragma omp target teams distribute parallel for
  for (int i = 0; i < N; i++) out[i] = t[i] + 1.0;
  for (int i = 0; i < N; i++) sum += out[i];
  return sum;
}
int main() {
  double sum = 0.0;
  for (int s = 0; s < 3; s++) {
    #pragma omp target teams distribute parallel for
    for (int i = 0; i < N; i++) out[i] = s;
    sum += stage(s);
    #pragma omp target teams distribute parallel for
    for (int i = 0; i < N; i++) out[i] += 1.0;
  }
  printf(\"%f\\n\", sum);
  return 0;
}
";
        let (plan, _unit) = plan_for(src, "main");
        assert!(plan.fully_justified(), "{plan:#?}");
        // `t`: the callee writes it on the device before it reads it, and
        // nothing after the region reads it.
        let t = plan.map_for("t").unwrap();
        assert_eq!(t.map_type, MapType::Alloc);
        assert_eq!(t.provenance.fact, ProvenanceFact::DeadExitCopy);
        let detail = &t.provenance.detail;
        assert!(
            detail.contains("`stage` writes `t` on the device before reading it"),
            "{detail}"
        );
        assert!(
            detail.contains("nothing that runs after the region reads it")
                && detail.contains("which call only `printf`"),
            "{detail}"
        );
        assert!(!detail.contains("whole-program liveness"), "{detail}");
        assert!(plan.updates.is_empty(), "{:?}", plan.updates);

        // The callee keeps its own flow when `main` holds the data: one
        // update outside its region per crossing, each with its own fact
        // and the in-function access on the other side of it.
        let (plan, _unit) = plan_for(src, "stage");
        assert!(plan.fully_justified(), "{plan:#?}");
        let file_text = |p: &Provenance| {
            let span = p.span.expect("a span");
            src[span.start as usize..span.end as usize].to_string()
        };
        let [to] = plan.updates_for("in")[..] else {
            panic!("{:?}", plan.updates);
        };
        assert_eq!(to.direction, UpdateDirection::To);
        assert_eq!(
            (to.anchor, to.placement),
            (plan.region_start.unwrap(), Placement::Before)
        );
        assert_eq!(to.provenance.fact, ProvenanceFact::FlowWhenDataPresent);
        assert_eq!(
            to.provenance.detail,
            "`stage` writes `in` on the host before its region"
        );
        assert!(file_text(&to.provenance).contains("in[i] = i + s"));
        let [from] = plan.updates_for("out")[..] else {
            panic!("{:?}", plan.updates);
        };
        assert_eq!(from.direction, UpdateDirection::From);
        assert_eq!(
            (from.anchor, from.placement),
            (plan.region_end.unwrap(), Placement::After)
        );
        assert_eq!(from.provenance.fact, ProvenanceFact::FlowWhenDataPresent);
        assert_eq!(
            from.provenance.detail,
            "`stage` reads `out` on the host after its region"
        );
        assert!(file_text(&from.provenance).contains("sum += out[i]"));
        // The clauses are what they were: the updates come on top.
        assert_eq!(plan.map_for("in").unwrap().map_type, MapType::To);
        assert_eq!(plan.map_for("out").unwrap().map_type, MapType::From);
        assert!(plan.updates_for("t").is_empty());
    }

    /// Update directives are justified by the read that forced them.
    #[test]
    fn update_provenance_names_the_deciding_read() {
        let src = "\
#define N 64
#define M 8
int a[N];
int main() {
  int sum = 0;
  for (int i = 0; i < M; ++i) {
    #pragma omp target
    for (int j = 0; j < N; ++j) a[j] += j;
    for (int j = 0; j < N; ++j) sum += a[j];
  }
  printf(\"%d\\n\", sum);
  return 0;
}
";
        let (plan, _unit) = plan_for(src, "main");
        let updates = plan.updates_for("a");
        assert_eq!(updates.len(), 1);
        assert_eq!(
            updates[0].provenance.fact,
            ProvenanceFact::HostReadBetweenKernels
        );
        assert!(updates[0].provenance.span.is_some());
        assert!(updates[0].provenance.detail.contains("`a`"));
    }

    /// What the projected plan keys rest on: a plan reads a callee's
    /// effects only on the variables its region touches on the device, so
    /// replaying more host-only accesses of a global outside the program's
    /// device names at every call leaves the plan, its provenance and its
    /// diagnostics byte for byte as they were.
    #[test]
    fn host_only_effects_on_other_globals_cannot_move_a_plan() {
        let src = "\
#define N 64
double a[N];
double b[N];
double log_buf[N];
double trace_buf[N];
void step(double *p) {
  for (int i = 0; i < N; i++) p[i] = p[i] * 0.5;
  log_buf[0] += 1.0;
}
void report(void) { printf(\"%f\\n\", b[1]); }
int main() {
  #pragma omp target teams distribute parallel for
  for (int i = 0; i < N; i++) a[i] = i;
  step(a);
  #pragma omp target teams distribute parallel for
  for (int i = 0; i < N; i++) b[i] = a[i] + 1.0;
  report();
  return 0;
}
";
        let (_file, result) = parse_str("t.c", src);
        let unit = result.unit;
        let graphs = stage_graphs(&unit);
        let accesses = stage_accesses(&unit, &graphs);
        let options = OmpDartOptions::default();
        let seeds = stage_summaries(&unit, &accesses, &options);
        let (_, link) = closed_world_of(&unit, &accesses, &seeds, &options, 1);
        let device = &link.summaries.device;
        assert!(device.contains(Symbol::intern("a")) && device.contains(Symbol::intern("b")));
        let others = ["log_buf", "trace_buf"].map(Symbol::intern);
        assert!(others.iter().all(|&global| !device.contains(global)));

        // Every callee also reads and writes both other globals on the host.
        let mut table = ProgramSummaries::clone(&link.summaries);
        for callee in ["step", "report"] {
            let id = table.id(Symbol::intern(callee)).unwrap();
            let summary = Arc::make_mut(table.slot_mut(id).summary.as_mut().unwrap());
            for global in others {
                summary
                    .global_effects
                    .insert(global, Effect::pessimistic_host());
            }
        }
        let widened = LinkContext {
            summaries: Arc::new(table),
            ..link.clone()
        };

        let main = Symbol::intern("main");
        let plan_under = |link: &LinkContext| {
            let mut acc = accesses.accesses[&main].clone();
            augment_with_call_effects(&mut acc, &accesses.symbols[&main], &unit, link, false);
            let mut diags = Diagnostics::new();
            let plan = plan_function(
                unit.function("main").unwrap(),
                graphs.graphs.function("main").unwrap(),
                &acc,
                &accesses.symbols[&main],
                &mut diags,
            );
            (
                acc.accesses.len(),
                format!("{plan:#?}"),
                format!("{diags:#?}"),
            )
        };
        let (replayed, plan, diags) = plan_under(&link);
        let (widened_replayed, widened_plan, widened_diags) = plan_under(&widened);
        assert!(
            widened_replayed > replayed,
            "the host-only accesses were replayed"
        );
        assert!(
            plan.contains("UpdateSpec {"),
            "the plan moves data around the calls: {plan}"
        );
        assert_eq!(plan, widened_plan);
        assert_eq!(diags, widened_diags);
    }

    /// Functions without kernels produce no plan.
    #[test]
    fn no_kernels_no_plan() {
        let src = "int add(int a, int b) { return a + b; }\n";
        let (_file, result) = parse_str("t.c", src);
        let unit = result.unit;
        let graphs = ProgramGraphs::build(&unit);
        let func = unit.function("add").unwrap();
        let sym = SymbolTable::build(&unit, func);
        let acc = FunctionAccesses::collect(func, graphs.function("add").unwrap(), &sym);
        let mut diags = Diagnostics::new();
        let plan = plan_function(
            func,
            graphs.function("add").unwrap(),
            &acc,
            &sym,
            &mut diags,
        );
        assert!(plan.is_none());
    }
}
