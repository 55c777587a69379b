//! Comparing mapping plans: tool-vs-expert and plan-vs-plan diffing.
//!
//! Two sources of plans meet here:
//!
//! * plans produced by the analysis (or deserialized from plan JSON),
//! * plans *extracted* from a source that already carries explicit data
//!   mappings ([`extract_explicit_plans`]) — e.g. the expert-optimized
//!   benchmark variants, whose `map`/`update`/`firstprivate` clauses become
//!   a [`MappingPlan`] with [`ProvenanceFact::DeclaredInSource`] provenance.
//!   A mapping spelled `target enter data` … `target exit data` is read back
//!   as the one decision per variable it stands for.
//!
//! [`diff_plans`] then reports, per function and variable, which constructs
//! only one side emits and where the two sides chose different map types —
//! the offline comparison of a generated mapping against an expert mapping
//! the paper performs by hand.

use crate::pipeline::Stage;
use crate::plan::ir::{
    CollapseSpec, FirstPrivateSpec, MapSpec, MappingPlan, Placement, Provenance, ProvenanceFact,
    UpdateDirection, UpdateSpec,
};
use ompdart_frontend::ast::{ExprKind, StmtKind, TranslationUnit};
use ompdart_frontend::omp::{Clause, DirectiveKind, MapItem, MapType};
use ompdart_frontend::printer::expr_to_c;
use std::collections::BTreeMap;
use std::fmt;

// ---------------------------------------------------------------------------
// Extraction of explicit plans from already-mapped sources
// ---------------------------------------------------------------------------

fn section_length_of(item: &MapItem) -> Option<String> {
    item.sections
        .first()
        .and_then(|s| s.length.as_ref())
        .map(expr_to_c)
}

/// The map type a `target enter data` … `target exit data` pair stands for:
/// the inverse of the rewriter's four-row table (`to + release → to`,
/// `to + from → tofrom`, `alloc + from → from`, `alloc + delete → alloc`). An
/// exit that copies nothing back leaves the enter's type as the decision.
fn fold_exit(enter: MapType, exit: MapType) -> MapType {
    match (enter, exit) {
        (MapType::To, MapType::From) => MapType::ToFrom,
        (MapType::Alloc, MapType::From) => MapType::From,
        _ => enter,
    }
}

/// Build one [`MappingPlan`] per function from the *explicit* data-mapping
/// directives already present in a translation unit. Every extracted spec
/// carries [`ProvenanceFact::DeclaredInSource`] provenance anchored to the
/// clause item's span.
pub fn extract_explicit_plans(unit: &TranslationUnit) -> Vec<MappingPlan> {
    let mut plans = Vec::new();
    for func in unit.functions() {
        let Some(body) = &func.body else { continue };
        let mut plan = MappingPlan {
            function: func.name.to_string(),
            ..Default::default()
        };
        // The specs (indices into `plan.maps`) that came from an `enter data`
        // no `exit data` has closed yet.
        let mut entered: Vec<usize> = Vec::new();
        body.walk(&mut |s| {
            let StmtKind::Omp(dir) = &s.kind else { return };
            let declared = |item: &MapItem| {
                Provenance::at_stage(
                    Stage::Parse,
                    ProvenanceFact::DeclaredInSource,
                    Some(item.span),
                    format!("declared on `#pragma omp {}`", dir.kind.directive_text()),
                )
            };
            if dir.kind.is_offload_kernel() {
                plan.kernels.push(s.id);
            }
            for clause in &dir.clauses {
                match clause {
                    Clause::Map { map_type, items } => {
                        let (enters, exits) = (
                            dir.kind == DirectiveKind::TargetEnterData,
                            dir.kind == DirectiveKind::TargetExitData,
                        );
                        plan.unstructured |= enters || exits;
                        for item in items {
                            // An exit closes the lifetime its enter opened:
                            // together they are one decision.
                            let open =
                                (entered.iter()).position(|&spec| plan.maps[spec].var == item.var);
                            if let (true, Some(open)) = (exits, open) {
                                let spec = &mut plan.maps[entered.swap_remove(open)];
                                spec.map_type =
                                    fold_exit(spec.map_type, map_type.unwrap_or(MapType::From));
                                continue;
                            }
                            // Duplicated list items (nested regions mapping
                            // the same variable) collapse to the first.
                            if plan.map_for(&item.var).is_some() {
                                continue;
                            }
                            if enters {
                                entered.push(plan.maps.len());
                            }
                            // An exit nothing opened keeps its own type.
                            let default = match (enters, exits) {
                                (true, _) => MapType::To,
                                (_, true) => MapType::From,
                                _ => MapType::ToFrom,
                            };
                            plan.maps.push(MapSpec {
                                var: item.var.clone(),
                                map_type: map_type.unwrap_or(default),
                                section_length: section_length_of(item),
                                provenance: declared(item),
                            });
                        }
                    }
                    Clause::Collapse(depth_expr) if dir.kind.is_offload_kernel() => {
                        if let ExprKind::IntLit(n) = &depth_expr.kind {
                            if *n >= 2 {
                                plan.collapses.push(CollapseSpec {
                                    kernel: s.id,
                                    depth: *n as u32,
                                    provenance: Provenance::at_stage(
                                        Stage::Parse,
                                        ProvenanceFact::DeclaredInSource,
                                        Some(depth_expr.span),
                                        format!(
                                            "declared on `#pragma omp {}`",
                                            dir.kind.directive_text()
                                        ),
                                    ),
                                });
                            }
                        }
                    }
                    Clause::UpdateTo(items) | Clause::UpdateFrom(items) => {
                        let direction = if matches!(clause, Clause::UpdateTo(_)) {
                            UpdateDirection::To
                        } else {
                            UpdateDirection::From
                        };
                        for item in items {
                            plan.updates.push(UpdateSpec {
                                var: item.var.clone(),
                                direction,
                                anchor: s.id,
                                placement: Placement::Before,
                                section_length: section_length_of(item),
                                provenance: declared(item),
                            });
                        }
                    }
                    Clause::FirstPrivate(items) if dir.kind.is_offload_kernel() => {
                        for item in items {
                            plan.firstprivate.push(FirstPrivateSpec {
                                kernel: s.id,
                                var: item.var.clone(),
                                provenance: declared(item),
                            });
                        }
                    }
                    _ => {}
                }
            }
        });
        if plan.construct_count() > 0 || !plan.kernels.is_empty() {
            plans.push(plan);
        }
    }
    plans
}

// ---------------------------------------------------------------------------
// Diffing
// ---------------------------------------------------------------------------

/// One divergence between two plan sets.
#[derive(Clone, Debug, PartialEq)]
pub enum DiffEntry {
    /// The construct exists only in the left plan set.
    OnlyLeft { function: String, construct: String },
    /// The construct exists only in the right plan set.
    OnlyRight { function: String, construct: String },
    /// Both sides map the variable, but with different map types or
    /// sections.
    Retyped {
        function: String,
        var: String,
        left: String,
        right: String,
    },
}

impl fmt::Display for DiffEntry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DiffEntry::OnlyLeft {
                function,
                construct,
            } => write!(f, "{function}: only left emits {construct}"),
            DiffEntry::OnlyRight {
                function,
                construct,
            } => write!(f, "{function}: only right emits {construct}"),
            DiffEntry::Retyped {
                function,
                var,
                left,
                right,
            } => write!(
                f,
                "{function}: `{var}` mapped {left} (left) vs {right} (right)"
            ),
        }
    }
}

/// Result of diffing two plan sets.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct PlanDiff {
    pub entries: Vec<DiffEntry>,
    /// Constructs both sides agree on.
    pub agreements: usize,
}

impl PlanDiff {
    /// True when the two plan sets describe the same mapping.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Number of divergences.
    pub fn divergences(&self) -> usize {
        self.entries.len()
    }

    /// Render the diff as a plain-text report.
    pub fn render(&self, left_label: &str, right_label: &str) -> String {
        let mut out = format!(
            "plan diff: left = {left_label}, right = {right_label}\n\
             {} construct(s) agree, {} divergence(s)\n",
            self.agreements,
            self.divergences()
        );
        for entry in &self.entries {
            out.push_str(&format!("  {entry}\n"));
        }
        if self.entries.is_empty() {
            out.push_str("  mappings are equivalent\n");
        }
        out
    }
}

fn map_rendering(m: &MapSpec) -> String {
    format!("map({}: {})", m.map_type.as_str(), m.to_list_item())
}

/// Diff two plan sets construct by construct. Maps are keyed by
/// `(function, var)` — a map-type disagreement is a [`DiffEntry::Retyped`] —
/// while updates and firstprivate clauses are keyed by variable and
/// direction, counting multiplicity.
pub fn diff_plans(left: &[MappingPlan], right: &[MappingPlan]) -> PlanDiff {
    let mut diff = PlanDiff::default();
    let mut functions: Vec<&str> = Vec::new();
    for plan in left.iter().chain(right) {
        if !functions.contains(&plan.function.as_str()) {
            functions.push(&plan.function);
        }
    }
    let empty = MappingPlan::default();
    for function in functions {
        let l = left
            .iter()
            .find(|p| p.function == function)
            .unwrap_or(&empty);
        let r = right
            .iter()
            .find(|p| p.function == function)
            .unwrap_or(&empty);

        // --- maps, keyed by variable; agreement requires the same map
        // type AND the same rendered section extent ------------------------
        for lm in &l.maps {
            match r.map_for(&lm.var) {
                Some(rm)
                    if rm.map_type == lm.map_type && rm.to_list_item() == lm.to_list_item() =>
                {
                    diff.agreements += 1
                }
                Some(rm) => diff.entries.push(DiffEntry::Retyped {
                    function: function.to_string(),
                    var: lm.var.clone(),
                    left: map_rendering(lm),
                    right: map_rendering(rm),
                }),
                None => diff.entries.push(DiffEntry::OnlyLeft {
                    function: function.to_string(),
                    construct: map_rendering(lm),
                }),
            }
        }
        for rm in &r.maps {
            if l.map_for(&rm.var).is_none() {
                diff.entries.push(DiffEntry::OnlyRight {
                    function: function.to_string(),
                    construct: map_rendering(rm),
                });
            }
        }

        // --- updates, keyed by (var, direction) with multiplicity ---------
        let update_counts = |plan: &MappingPlan| -> BTreeMap<(String, &'static str), usize> {
            let mut counts = BTreeMap::new();
            for u in &plan.updates {
                *counts
                    .entry((u.var.clone(), u.direction.clause_keyword()))
                    .or_insert(0) += 1;
            }
            counts
        };
        let lu = update_counts(l);
        let ru = update_counts(r);
        for ((var, dir), lcount) in &lu {
            let rcount = ru.get(&(var.clone(), dir)).copied().unwrap_or(0);
            diff.agreements += (*lcount).min(rcount);
            for _ in rcount..*lcount {
                diff.entries.push(DiffEntry::OnlyLeft {
                    function: function.to_string(),
                    construct: format!("target update {dir}({var})"),
                });
            }
        }
        for ((var, dir), rcount) in &ru {
            let lcount = lu.get(&(var.clone(), dir)).copied().unwrap_or(0);
            for _ in lcount..*rcount {
                diff.entries.push(DiffEntry::OnlyRight {
                    function: function.to_string(),
                    construct: format!("target update {dir}({var})"),
                });
            }
        }

        // --- firstprivate, keyed by variable ------------------------------
        fn fp_vars(plan: &MappingPlan) -> Vec<&str> {
            let mut vars: Vec<&str> = Vec::new();
            for f in &plan.firstprivate {
                if !vars.contains(&f.var.as_str()) {
                    vars.push(&f.var);
                }
            }
            vars
        }
        let lf = fp_vars(l);
        let rf = fp_vars(r);
        for var in &lf {
            if rf.contains(var) {
                diff.agreements += 1;
            } else {
                diff.entries.push(DiffEntry::OnlyLeft {
                    function: function.to_string(),
                    construct: format!("firstprivate({var})"),
                });
            }
        }
        for var in &rf {
            if !lf.contains(var) {
                diff.entries.push(DiffEntry::OnlyRight {
                    function: function.to_string(),
                    construct: format!("firstprivate({var})"),
                });
            }
        }

        // --- collapse clauses, keyed by depth with multiplicity -----------
        let collapse_counts = |plan: &MappingPlan| -> BTreeMap<u32, usize> {
            let mut counts = BTreeMap::new();
            for c in &plan.collapses {
                *counts.entry(c.depth).or_insert(0) += 1;
            }
            counts
        };
        let lc = collapse_counts(l);
        let rc = collapse_counts(r);
        for (depth, lcount) in &lc {
            let rcount = rc.get(depth).copied().unwrap_or(0);
            diff.agreements += (*lcount).min(rcount);
            for _ in rcount..*lcount {
                diff.entries.push(DiffEntry::OnlyLeft {
                    function: function.to_string(),
                    construct: format!("collapse({depth})"),
                });
            }
        }
        for (depth, rcount) in &rc {
            let lcount = lc.get(depth).copied().unwrap_or(0);
            for _ in lcount..*rcount {
                diff.entries.push(DiffEntry::OnlyRight {
                    function: function.to_string(),
                    construct: format!("collapse({depth})"),
                });
            }
        }
    }
    diff
}

#[cfg(test)]
mod tests {
    use super::*;
    use ompdart_frontend::parser::parse_str;

    #[test]
    fn identical_plans_diff_empty() {
        let mut plan = MappingPlan {
            function: "f".into(),
            ..Default::default()
        };
        plan.maps.push(MapSpec::new("a", MapType::ToFrom));
        plan.firstprivate
            .push(FirstPrivateSpec::new(ompdart_frontend::ast::NodeId(1), "n"));
        let diff = diff_plans(&[plan.clone()], &[plan]);
        assert!(diff.is_empty(), "{:?}", diff.entries);
        assert_eq!(diff.agreements, 2);
        assert!(diff.render("a", "b").contains("equivalent"));
    }

    #[test]
    fn divergences_are_classified() {
        let mut l = MappingPlan {
            function: "f".into(),
            ..Default::default()
        };
        l.maps.push(MapSpec::new("a", MapType::Alloc));
        l.maps.push(MapSpec::new("only_l", MapType::To));
        let mut r = MappingPlan {
            function: "f".into(),
            ..Default::default()
        };
        r.maps.push(MapSpec::new("a", MapType::ToFrom));
        r.updates.push(UpdateSpec::new(
            "a",
            UpdateDirection::From,
            ompdart_frontend::ast::NodeId(2),
            Placement::Before,
        ));
        let diff = diff_plans(&[l], &[r]);
        assert_eq!(diff.divergences(), 3);
        assert!(diff
            .entries
            .iter()
            .any(|e| matches!(e, DiffEntry::Retyped { var, .. } if var == "a")));
        assert!(diff.entries.iter().any(
            |e| matches!(e, DiffEntry::OnlyLeft { construct, .. } if construct.contains("only_l"))
        ));
        assert!(diff.entries.iter().any(
            |e| matches!(e, DiffEntry::OnlyRight { construct, .. } if construct.contains("update"))
        ));
    }

    /// `diff-plan` compares decisions, not spellings: the devito-style
    /// expert idiom — unstructured enter/exit pairs around a collapsed
    /// kernel — is read back as the structured mapping it stands for.
    #[test]
    fn lifetime_plans_are_extracted_and_diffed() {
        let kernel = "\
  #pragma omp target teams distribute parallel for collapse(2)
  for (int i = 0; i < N; i++)
    for (int j = 0; j < N; j++) {
      scratch[i] = u[i] + w[i] + i + j;
      u[i] = scratch[i];
      v[i] = scratch[i];
    }
";
        let program = |before: &str, after: &str| {
            let src = format!(
                "#define N 8\ndouble u[N], v[N], w[N], scratch[N];\nvoid step() {{\n{before}{kernel}{after}}}\n"
            );
            let (_file, result) = parse_str("expert.c", &src);
            assert!(result.is_ok(), "{:?}", result.diagnostics);
            extract_explicit_plans(&result.unit)
        };
        let unstructured = program(
            "  #pragma omp target enter data map(to: u, w) map(alloc: v, scratch)\n",
            "  #pragma omp target exit data map(from: u, v) map(delete: scratch) map(release: w)\n",
        );
        assert_eq!(unstructured.len(), 1);
        let plan = &unstructured[0];
        assert!(plan.unstructured);
        let types: Vec<_> = (plan.maps.iter())
            .map(|m| (m.var.as_str(), m.map_type))
            .collect();
        let folded = [
            ("u", MapType::ToFrom),
            ("w", MapType::To),
            ("v", MapType::From),
            ("scratch", MapType::Alloc),
        ];
        assert_eq!(types, folded);
        assert_eq!(plan.collapses.len(), 1);
        assert_eq!(plan.collapses[0].depth, 2);
        for p in plan.provenances() {
            assert_eq!(p.fact, ProvenanceFact::DeclaredInSource);
        }

        // Against the same mapping written as a structured region the diff is
        // empty.
        let structured = program(
            "  #pragma omp target data map(tofrom: u) map(to: w) map(from: v) map(alloc: scratch)\n  {\n",
            "  }\n",
        );
        assert!(!structured[0].unstructured);
        let diff = diff_plans(&structured, &unstructured);
        assert!(diff.is_empty(), "{:?}", diff.entries);
        assert_eq!(diff.agreements, plan.construct_count());

        // A dropped exit copy and a retyped enter are retyped decisions; an
        // exit nothing opened keeps its own type.
        let other = program(
            "  #pragma omp target enter data map(to: u) map(alloc: w, scratch)\n",
            "  #pragma omp target exit data map(delete: scratch, v) map(release: w)\n",
        );
        let diff = diff_plans(&unstructured, &other);
        let retyped: Vec<_> = (diff.entries.iter())
            .map(|e| match e {
                DiffEntry::Retyped {
                    var, left, right, ..
                } => (var.as_str(), left.as_str(), right.as_str()),
                other => panic!("not a retyping: {other}"),
            })
            .collect();
        assert_eq!(
            retyped,
            [
                ("u", "map(tofrom: u)", "map(to: u)"),
                ("w", "map(to: w)", "map(alloc: w)"),
                ("v", "map(from: v)", "map(delete: v)"),
            ]
        );
    }

    #[test]
    fn explicit_plans_are_extracted_with_provenance() {
        let src = "\
#define N 8
double a[N];
double b[N];
void f(int n) {
  #pragma omp target data map(to: a) map(from: b[0:N])
  {
    #pragma omp target update to(a)
    #pragma omp target teams distribute parallel for firstprivate(n)
    for (int i = 0; i < N; i++) b[i] = a[i] + n;
  }
}
";
        let (_file, result) = parse_str("expert.c", src);
        assert!(result.is_ok(), "{:?}", result.diagnostics);
        let plans = extract_explicit_plans(&result.unit);
        assert_eq!(plans.len(), 1);
        let plan = &plans[0];
        assert_eq!(plan.function, "f");
        assert_eq!(plan.map_for("a").unwrap().map_type, MapType::To);
        let b = plan.map_for("b").unwrap();
        assert_eq!(b.map_type, MapType::From);
        assert_eq!(b.section_length.as_deref(), Some("N"));
        assert_eq!(plan.updates_for("a").len(), 1);
        assert!(plan.is_firstprivate("n"));
        assert_eq!(plan.kernels.len(), 1);
        for p in plan.provenances() {
            assert_eq!(p.fact, ProvenanceFact::DeclaredInSource);
            assert!(p.span.is_some());
        }
    }
}
