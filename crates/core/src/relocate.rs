//! The relocation layer: rebasing cached per-function artifacts onto the
//! coordinates of a fresh parse.
//!
//! Node ids are assigned by one sequential counter and spans are plain byte
//! offsets into the source, so a function whose own tokens are unchanged
//! keeps the same ids and offsets *relative to its definition* even when
//! surrounding code moves it. The pipeline's function-granular plan and
//! access caches therefore store their artifacts in the coordinates of the
//! parse that produced them and, on a hit, shift every node id by `did` and
//! every byte span by `dpos` instead of re-running the producing stage. Name-bearing artifacts (diagnostics, the
//! unit name itself) are *not* persisted across renames — they are rebuilt
//! here from the fresh parse, which is what lets the content-addressed
//! store ([`crate::store`]) drop the unit name from its key entirely.

use crate::access::{Access, CallSite, FunctionAccesses};
use crate::plan::ir::{MappingPlan, Provenance};
use ompdart_frontend::ast::{Expr, ExprKind, NodeId, Type};
use ompdart_frontend::diag::Diagnostics;
use ompdart_frontend::source::Span;

/// Shift a node id by `did` (clamped at zero).
pub fn relocate_node(id: NodeId, did: i64) -> NodeId {
    NodeId((i64::from(id.0) + did).max(0) as u32)
}

/// Shift both ends of a span by `dpos` (clamped at zero).
pub fn relocate_span(span: Span, dpos: i64) -> Span {
    Span::new(
        (i64::from(span.start) + dpos).max(0) as u32,
        (i64::from(span.end) + dpos).max(0) as u32,
    )
}

/// Shift a provenance's deciding span.
pub fn relocate_provenance(p: &Provenance, dpos: i64) -> Provenance {
    Provenance {
        span: p.span.map(|s| relocate_span(s, dpos)),
        ..p.clone()
    }
}

/// Rebase a cached plan onto the coordinates of a fresh parse.
pub fn relocate_plan(plan: &MappingPlan, did: i64, dpos: i64) -> MappingPlan {
    let mut out = plan.clone();
    out.region_start = plan.region_start.map(|n| relocate_node(n, did));
    out.region_end = plan.region_end.map(|n| relocate_node(n, did));
    out.attach_to_kernel = plan.attach_to_kernel.map(|n| relocate_node(n, did));
    out.kernels = plan
        .kernels
        .iter()
        .map(|n| relocate_node(*n, did))
        .collect();
    for m in &mut out.maps {
        m.provenance = relocate_provenance(&m.provenance, dpos);
    }
    for u in &mut out.updates {
        u.anchor = relocate_node(u.anchor, did);
        u.provenance = relocate_provenance(&u.provenance, dpos);
    }
    for fp in &mut out.firstprivate {
        fp.kernel = relocate_node(fp.kernel, did);
        fp.provenance = relocate_provenance(&fp.provenance, dpos);
    }
    for e in &mut out.enter_data {
        e.anchor = relocate_node(e.anchor, did);
        e.provenance = relocate_provenance(&e.provenance, dpos);
    }
    for e in &mut out.exit_data {
        e.anchor = relocate_node(e.anchor, did);
        e.provenance = relocate_provenance(&e.provenance, dpos);
    }
    for c in &mut out.collapses {
        c.kernel = relocate_node(c.kernel, did);
        c.provenance = relocate_provenance(&c.provenance, dpos);
    }
    out
}

/// Rebase cached diagnostics (message spans and labels).
pub fn relocate_diagnostics(diags: &Diagnostics, dpos: i64) -> Diagnostics {
    let mut out = Diagnostics::new();
    for d in diags.iter() {
        let mut d = d.clone();
        d.span = relocate_span(d.span, dpos);
        for label in &mut d.labels {
            label.span = relocate_span(label.span, dpos);
        }
        out.push(d);
    }
    out
}

/// Rebase an expression tree in place: every node id and span, including
/// the ones hiding inside casts, sizeofs, and array-typed declarators.
pub fn relocate_expr(expr: &mut Expr, did: i64, dpos: i64) {
    expr.id = relocate_node(expr.id, did);
    expr.span = relocate_span(expr.span, dpos);
    match &mut expr.kind {
        ExprKind::IntLit(_)
        | ExprKind::FloatLit(_)
        | ExprKind::CharLit(_)
        | ExprKind::StrLit(_)
        | ExprKind::Ident(_) => {}
        ExprKind::Unary { operand, .. } => relocate_expr(operand, did, dpos),
        ExprKind::Binary { lhs, rhs, .. } | ExprKind::Assign { lhs, rhs, .. } => {
            relocate_expr(lhs, did, dpos);
            relocate_expr(rhs, did, dpos);
        }
        ExprKind::Conditional {
            cond,
            then_expr,
            else_expr,
        } => {
            relocate_expr(cond, did, dpos);
            relocate_expr(then_expr, did, dpos);
            relocate_expr(else_expr, did, dpos);
        }
        ExprKind::Call {
            callee_span, args, ..
        } => {
            *callee_span = relocate_span(*callee_span, dpos);
            for a in args {
                relocate_expr(a, did, dpos);
            }
        }
        ExprKind::Index { base, index } => {
            relocate_expr(base, did, dpos);
            relocate_expr(index, did, dpos);
        }
        ExprKind::Member { base, .. } => relocate_expr(base, did, dpos),
        ExprKind::Cast { ty, expr } => {
            relocate_type(ty, did, dpos);
            relocate_expr(expr, did, dpos);
        }
        ExprKind::SizeofType(ty) => relocate_type(ty, did, dpos),
        ExprKind::SizeofExpr(inner) => relocate_expr(inner, did, dpos),
        ExprKind::Comma(items) => {
            for item in items {
                relocate_expr(item, did, dpos);
            }
        }
        ExprKind::Paren(inner) => relocate_expr(inner, did, dpos),
    }
}

/// Rebase the size expressions buried in array types.
pub fn relocate_type(ty: &mut Type, did: i64, dpos: i64) {
    match ty {
        Type::Pointer(inner) => relocate_type(inner, did, dpos),
        Type::Array(inner, size) => {
            relocate_type(inner, did, dpos);
            if let Some(size) = size {
                relocate_expr(size, did, dpos);
            }
        }
        _ => {}
    }
}

/// Rebase one classified access (statement id, span, index expressions).
pub fn relocate_access(access: &Access, did: i64, dpos: i64) -> Access {
    let mut out = access.clone();
    out.stmt = relocate_node(out.stmt, did);
    out.span = relocate_span(out.span, dpos);
    for idx in &mut out.indices {
        relocate_expr(idx, did, dpos);
    }
    out
}

/// Rebase one observed call site.
pub fn relocate_call(call: &CallSite, did: i64, dpos: i64) -> CallSite {
    let mut out = call.clone();
    out.stmt = relocate_node(out.stmt, did);
    out.span = relocate_span(out.span, dpos);
    out
}

/// Rebase a whole per-function access artifact, rebuilding the
/// statement-index side table under the shifted ids.
pub fn relocate_function_accesses(acc: &FunctionAccesses, did: i64, dpos: i64) -> FunctionAccesses {
    FunctionAccesses::from_parts(
        acc.function,
        acc.accesses
            .iter()
            .map(|a| relocate_access(a, did, dpos))
            .collect(),
        acc.calls
            .iter()
            .map(|c| relocate_call(c, did, dpos))
            .collect(),
    )
}
