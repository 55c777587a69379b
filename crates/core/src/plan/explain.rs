//! Human-readable rendering of a [`MappingPlan`]: one justified line per
//! construct, answering *why* each `map`/`update`/`firstprivate` exists.

use crate::plan::ir::{MappingPlan, Provenance};
use ompdart_frontend::source::SourceFile;

/// Render the location suffix of a provenance: `file:line:col` when the
/// source file is available, a byte offset otherwise, nothing when the
/// provenance carries no span.
fn location(p: &Provenance, file: Option<&SourceFile>) -> String {
    match (p.span, file) {
        (Some(span), Some(file)) => {
            format!(", at {}:{}", file.name(), file.line_col(span.start))
        }
        (Some(span), None) => format!(", at byte {}", span.start),
        (None, _) => String::new(),
    }
}

/// One `  <construct> — <why> [fact=.., stage=.., at ..]` line.
fn construct_line(rendered: &str, p: &Provenance, file: Option<&SourceFile>) -> String {
    let why = if p.detail.is_empty() {
        p.fact.describe().to_string()
    } else {
        p.detail.clone()
    };
    format!(
        "  {rendered} — {why} [fact={}, stage={}{}]\n",
        p.fact.key(),
        p.stage.name(),
        location(p, file),
    )
}

/// Explain one plan. Every construct produces exactly one line containing
/// the separator `" — "` between the construct and its justification.
pub fn explain_plan(plan: &MappingPlan, file: Option<&SourceFile>) -> String {
    let mut out = String::new();
    let region = if plan.unstructured {
        "maps spelled as one `target enter data`/`target exit data` pair".to_string()
    } else if plan.attach_to_kernel.is_some() {
        "clauses attached to the single kernel directive".to_string()
    } else {
        "one `target data` region".to_string()
    };
    out.push_str(&format!(
        "function `{}`: {} kernel(s), {} construct(s), {}\n",
        plan.function,
        plan.kernels.len(),
        plan.construct_count(),
        region
    ));
    for m in &plan.maps {
        let rendered = format!("map({}: {})", m.map_type.as_str(), m.to_list_item());
        out.push_str(&construct_line(&rendered, &m.provenance, file));
    }
    for u in &plan.updates {
        let rendered = format!(
            "target update {}({})",
            u.direction.clause_keyword(),
            u.to_list_item()
        );
        out.push_str(&construct_line(&rendered, &u.provenance, file));
    }
    for fp in &plan.firstprivate {
        let rendered = format!("firstprivate({})", fp.var);
        out.push_str(&construct_line(&rendered, &fp.provenance, file));
    }
    for c in &plan.collapses {
        let rendered = format!("collapse({})", c.depth);
        out.push_str(&construct_line(&rendered, &c.provenance, file));
    }
    out
}

/// Explain every plan of a translation unit.
pub fn explain_plans(plans: &[MappingPlan], file: Option<&SourceFile>) -> String {
    let mut out = String::new();
    for (i, plan) in plans.iter().enumerate() {
        if i > 0 {
            out.push('\n');
        }
        out.push_str(&explain_plan(plan, file));
    }
    if plans.is_empty() {
        out.push_str("no offload kernels: nothing to map\n");
    }
    out
}

/// Count the justified construct lines in an `explain` rendering (used by
/// tests to assert "one line per construct").
pub fn justified_line_count(rendered: &str) -> usize {
    rendered.lines().filter(|l| l.contains(" — ")).count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::ir::{
        FirstPrivateSpec, MapSpec, Placement, Provenance, ProvenanceFact, UpdateDirection,
        UpdateSpec,
    };
    use ompdart_frontend::ast::NodeId;
    use ompdart_frontend::omp::MapType;
    use ompdart_frontend::source::{SourceFile, Span};

    #[test]
    fn one_line_per_construct() {
        let mut plan = MappingPlan {
            function: "main".into(),
            kernels: vec![NodeId(3)],
            ..Default::default()
        };
        plan.maps.push(MapSpec {
            provenance: Provenance::plan(
                ProvenanceFact::ReadBeforeWriteOnDevice,
                Some(Span::new(0, 3)),
                "kernel reads `a` first",
            ),
            ..MapSpec::new("a", MapType::To)
        });
        plan.updates.push(UpdateSpec {
            provenance: Provenance::plan(ProvenanceFact::HostReadBetweenKernels, None, ""),
            ..UpdateSpec::new("a", UpdateDirection::From, NodeId(5), Placement::Before)
        });
        plan.firstprivate.push(FirstPrivateSpec {
            provenance: Provenance::plan(ProvenanceFact::ReadOnlyInRegion, None, ""),
            ..FirstPrivateSpec::new(NodeId(3), "n")
        });

        let file = SourceFile::new("t.c", "int a;\n");
        let rendered = explain_plan(&plan, Some(&file));
        assert_eq!(justified_line_count(&rendered), plan.construct_count());
        assert!(rendered.contains("map(to: a)"), "{rendered}");
        assert!(rendered.contains("kernel reads `a` first"), "{rendered}");
        assert!(rendered.contains("at t.c:1:1"), "{rendered}");
        assert!(rendered.contains("target update from(a)"), "{rendered}");
        assert!(rendered.contains("firstprivate(n)"), "{rendered}");
        // Facts with no detail fall back to the fact description.
        assert!(
            rendered.contains("reads the device-produced value between kernels"),
            "{rendered}"
        );
    }

    #[test]
    fn lifetime_constructs_get_one_justified_line_each() {
        use crate::plan::ir::CollapseSpec;
        let mut plan = MappingPlan {
            function: "main".into(),
            kernels: vec![NodeId(3)],
            unstructured: true,
            ..Default::default()
        };
        plan.maps.push(MapSpec {
            provenance: Provenance::plan(ProvenanceFact::ReadAndLiveAfterRegion, None, ""),
            ..MapSpec::new("a", MapType::ToFrom)
        });
        plan.collapses.push(CollapseSpec {
            provenance: Provenance::plan(ProvenanceFact::PerfectNestCollapsed, None, ""),
            ..CollapseSpec::new(NodeId(3), 2)
        });

        // The spelling is named once, in the header; the decisions read as
        // they do for a structured region.
        let rendered = explain_plan(&plan, None);
        assert_eq!(justified_line_count(&rendered), plan.construct_count());
        assert!(
            rendered.contains("2 construct(s), maps spelled as one `target enter data`"),
            "{rendered}"
        );
        assert!(rendered.contains("  map(tofrom: a) — "), "{rendered}");
        assert!(rendered.contains("collapse(2)"), "{rendered}");
        assert!(
            rendered.contains("fact=perfect_nest_collapsed"),
            "{rendered}"
        );
    }

    #[test]
    fn empty_plans_render_a_notice() {
        let rendered = explain_plans(&[], None);
        assert!(rendered.contains("nothing to map"));
        assert_eq!(justified_line_count(&rendered), 0);
    }
}
