//! The relocation layer: rebasing a cached per-function plan, and the
//! diagnostics planning it produced, onto the coordinates of a fresh parse.
//!
//! Node ids are assigned by one sequential counter and spans are plain byte
//! offsets into the source, so a function whose own tokens are unchanged
//! keeps the same ids and offsets *relative to its definition* even when
//! surrounding code moves it. The pipeline's function-plan cache therefore
//! stores a plan in the coordinates of the parse that produced it and, on a
//! hit, shifts every node id by `did` and every byte span by `dpos` instead
//! of re-running the data-flow analysis. Nothing else is relocated: the
//! stages before planning re-run on the fresh parse of an edited unit, and
//! name-bearing artifacts (the unit name itself) are *not* persisted across
//! renames, which is what lets the content-addressed store
//! ([`crate::store`]) drop the unit name from its key entirely.

use crate::plan::ir::{MappingPlan, Provenance};
use ompdart_frontend::ast::NodeId;
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
