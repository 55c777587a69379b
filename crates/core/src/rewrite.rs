//! The Rewriter (Section IV-F): source-to-source insertion of the planned
//! OpenMP data-mapping constructs.
//!
//! The rewriter works on the *original* source text using the byte spans
//! carried by the AST, exactly like a Clang `Rewriter`:
//!
//! * when a function's plan degenerates to a single kernel, the `map` and
//!   `firstprivate` clauses are appended to the existing `#pragma omp target
//!   ...` line;
//! * otherwise a new `#pragma omp target data` directive (plus a braced
//!   block) is wrapped around the region extent;
//! * `target update to/from` directives are inserted before/after their
//!   anchor statements, consolidated so that each insertion point receives a
//!   single directive per direction. An `update to` anchored before the
//!   region's first statement, and an `update from` anchored after its last,
//!   go *outside* the region: inside, right after the data was mapped or
//!   right before it is unmapped, they could only repeat the clause; outside
//!   they are what moves the data when a caller already holds it.

use crate::plan::ir::{MapSpec, MappingPlan, Placement, UpdateDirection, UpdateSpec};
use ompdart_frontend::ast::{NodeId, StmtKind, TranslationUnit};
use ompdart_frontend::omp::{MapType, OmpDirective};
use ompdart_frontend::source::SourceFile;
use ompdart_graph::ProgramGraphs;
use std::collections::BTreeMap;

/// Apply every region plan to the original source text and return the
/// transformed program.
pub fn apply_plans(
    file: &SourceFile,
    unit: &TranslationUnit,
    graphs: &ProgramGraphs,
    plans: &[MappingPlan],
) -> String {
    plan_edits(file, unit, graphs, plans).apply(file.text())
}

/// The insertions that turn the original text into the transformed program:
/// everything [`apply_plans`] reads the AST and the graphs for. Applying
/// them is a splice into the text alone, which is how a unit restored from
/// the persistent store is rewritten without being parsed.
pub(crate) fn plan_edits(
    file: &SourceFile,
    unit: &TranslationUnit,
    graphs: &ProgramGraphs,
    plans: &[MappingPlan],
) -> EditSet {
    let mut edits = EditSet::default();
    let directives = collect_directives(unit);
    for plan in plans {
        let Some(index) = graphs.function(&plan.function) else {
            continue;
        };
        let span_of = |id: NodeId| index.info(id).map(|i| i.span);

        update_edits(&mut edits, file, index, plan, Side::Before);

        // --- map clauses -----------------------------------------------------
        let region_spans = plan.region_start.zip(plan.region_end);
        let region_spans = region_spans.and_then(|(start, end)| span_of(start).zip(span_of(end)));
        match (plan.attach_to_kernel, region_spans) {
            (Some(kernel), _) => {
                if let (Some(dir), false) = (directives.get(&kernel), plan.maps.is_empty()) {
                    edits.insert(
                        dir.pragma_span.end,
                        format!(" {}", render_map_clauses(&plan.maps)),
                    );
                }
            }
            (None, Some((start_span, end_span))) => {
                let indent = file.indentation_at(start_span.start);
                let open_pos = file.line_start_of(start_span.start);
                let mut open_text = format!("{indent}#pragma omp target data");
                if !plan.maps.is_empty() {
                    open_text.push(' ');
                    open_text.push_str(&render_map_clauses(&plan.maps));
                }
                open_text.push('\n');
                open_text.push_str(&format!("{indent}{{\n"));
                edits.insert(open_pos, open_text);

                let close_pos = after_line_pos(file, end_span.end);
                edits.insert(close_pos, format!("{indent}}}\n"));
            }
            (None, None) => {}
        }

        // --- firstprivate clauses --------------------------------------------
        // Consolidate per kernel.
        let mut per_kernel: BTreeMap<NodeId, Vec<String>> = BTreeMap::new();
        for fp in &plan.firstprivate {
            per_kernel
                .entry(fp.kernel)
                .or_default()
                .push(fp.var.clone());
        }
        for (kernel, vars) in per_kernel {
            if let Some(dir) = directives.get(&kernel) {
                edits.insert(
                    dir.pragma_span.end,
                    format!(" firstprivate({})", vars.join(", ")),
                );
            }
        }

        update_edits(&mut edits, file, index, plan, Side::Within);
        update_edits(&mut edits, file, index, plan, Side::After);
    }
    edits
}

/// Where an update directive goes relative to its plan's region.
#[derive(Clone, Copy, PartialEq)]
enum Side {
    Before,
    Within,
    After,
}

impl Side {
    fn of(update: &UpdateSpec, plan: &MappingPlan) -> Side {
        match (update.direction, update.placement) {
            (UpdateDirection::To, Placement::Before)
                if Some(update.anchor) == plan.region_start =>
            {
                Side::Before
            }
            (UpdateDirection::From, Placement::After) if Some(update.anchor) == plan.region_end => {
                Side::After
            }
            _ => Side::Within,
        }
    }
}

/// Insert `plan`'s update directives of one `side`, consolidated by
/// (anchor, placement, direction). Edits at one position apply in insertion
/// order, so the caller's order of sides is the order in the text.
fn update_edits(
    edits: &mut EditSet,
    file: &SourceFile,
    index: &ompdart_graph::StmtIndex,
    plan: &MappingPlan,
    side: Side,
) {
    let mut grouped: BTreeMap<(NodeId, u8, u8), Vec<String>> = BTreeMap::new();
    for u in plan.updates.iter().filter(|u| Side::of(u, plan) == side) {
        let key = (
            u.anchor,
            matches!(u.placement, Placement::After) as u8,
            matches!(u.direction, UpdateDirection::From) as u8,
        );
        let item = u.to_list_item();
        let entry = grouped.entry(key).or_default();
        if !entry.contains(&item) {
            entry.push(item);
        }
    }
    for ((anchor, after, from), items) in grouped {
        let Some(span) = index.info(anchor).map(|i| i.span) else {
            continue;
        };
        let indent = file.indentation_at(span.start);
        let keyword = if from == 1 { "from" } else { "to" };
        let text = format!(
            "{indent}#pragma omp target update {keyword}({})\n",
            items.join(", ")
        );
        let pos = if after == 1 {
            after_line_pos(file, span.end)
        } else {
            file.line_start_of(span.start)
        };
        edits.insert(pos, text);
    }
}

/// Byte position of the start of the line following the line that contains
/// `pos` (used for "insert after this statement" edits).
fn after_line_pos(file: &SourceFile, pos: u32) -> u32 {
    let anchor = pos.saturating_sub(1);
    let line_end = file.line_end_of(anchor);
    (line_end + 1).min(file.len())
}

/// Render the consolidated `map(...)` clauses of one directive over `maps`:
/// one clause per map type, in a fixed order.
fn render_map_clauses(maps: &[MapSpec]) -> String {
    use MapType::*;
    let mut clauses = Vec::new();
    for map_type in [To, From, ToFrom, Alloc, Delete, Release] {
        let items: Vec<String> = (maps.iter())
            .filter(|m| m.map_type == map_type)
            .map(MapSpec::to_list_item)
            .collect();
        if !items.is_empty() {
            let keyword = map_type.as_str();
            clauses.push(format!("map({keyword}: {})", items.join(", ")));
        }
    }
    clauses.join(" ")
}

/// Index every OpenMP directive by the statement id of its `StmtKind::Omp`
/// wrapper (needed to find pragma spans when appending clauses).
fn collect_directives(unit: &TranslationUnit) -> BTreeMap<NodeId, &OmpDirective> {
    let mut out = BTreeMap::new();
    for func in unit.functions() {
        if let Some(body) = &func.body {
            body.walk(&mut |s| {
                if let StmtKind::Omp(dir) = &s.kind {
                    out.insert(s.id, dir);
                }
            });
        }
    }
    out
}

/// A set of pure-insertion edits applied to the original text.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub(crate) struct EditSet {
    inserts: BTreeMap<u32, Vec<String>>,
}

impl EditSet {
    pub(crate) fn insert(&mut self, pos: u32, text: String) {
        self.inserts.entry(pos).or_default().push(text);
    }

    /// Every `(position, text)` insertion, in the order [`Self::apply`]
    /// makes them; [`Self::insert`]ing them again in that order rebuilds
    /// the set.
    pub(crate) fn insertions(&self) -> impl Iterator<Item = (u32, &str)> {
        (self.inserts.iter())
            .flat_map(|(&pos, texts)| texts.iter().map(move |text| (pos, text.as_str())))
    }

    pub(crate) fn apply(&self, original: &str) -> String {
        let mut out = String::with_capacity(original.len() + 256);
        let mut prev = 0usize;
        for (&pos, texts) in &self.inserts {
            // Positions are byte offsets into the original text. Snap any
            // position that lands inside a multibyte UTF-8 sequence (e.g.
            // computed past a non-ASCII comment or string literal) back to
            // the nearest char boundary instead of panicking on the slice,
            // and never behind an already-emitted prefix.
            let mut pos = (pos as usize).min(original.len());
            while !original.is_char_boundary(pos) {
                pos -= 1;
            }
            let pos = pos.max(prev);
            out.push_str(&original[prev..pos]);
            for t in texts {
                out.push_str(t);
            }
            prev = pos;
        }
        out.push_str(&original[prev..]);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::access::{FunctionAccesses, SymbolTable};
    use crate::dataflow::plan_function;
    use ompdart_frontend::diag::Diagnostics;
    use ompdart_frontend::parser::parse_str;
    use std::collections::HashMap;

    fn transform(src: &str) -> String {
        let (file, result) = parse_str("t.c", src);
        assert!(result.is_ok(), "{:?}", result.diagnostics);
        let unit = result.unit;
        let graphs = ProgramGraphs::build(&unit);
        let mut plans = Vec::new();
        let mut diags = Diagnostics::new();
        let mut symbols = HashMap::new();
        for f in unit.functions() {
            symbols.insert(f.name, SymbolTable::build(&unit, f));
        }
        for f in unit.functions() {
            let Some(g) = graphs.function(f.name) else {
                continue;
            };
            let acc = FunctionAccesses::collect(f, g, &symbols[&f.name]);
            plans.extend(plan_function(f, g, &acc, &symbols[&f.name], &mut diags));
        }
        apply_plans(&file, &unit, &graphs, &plans)
    }

    #[test]
    fn appends_clauses_to_single_kernel() {
        let src = "\
#define N 16
double a[N];
void f() {
  #pragma omp target teams distribute parallel for
  for (int i = 0; i < N; i++) a[i] = i;
}
";
        let out = transform(src);
        assert!(
            out.contains("#pragma omp target teams distribute parallel for map("),
            "clauses must be appended to the kernel pragma:\n{out}"
        );
        assert!(
            !out.contains("#pragma omp target data"),
            "no separate region expected:\n{out}"
        );
    }

    #[test]
    fn wraps_loop_with_target_data_region() {
        let src = "\
#define N 16
int a[N];
int main() {
  for (int it = 0; it < 8; ++it) {
    #pragma omp target
    for (int j = 0; j < N; ++j) a[j] += j;
  }
  return a[0];
}
";
        let out = transform(src);
        assert!(
            out.contains("#pragma omp target data map("),
            "region directive missing:\n{out}"
        );
        // The region must open before the outer loop, not inside it.
        let region_pos = out.find("#pragma omp target data").unwrap();
        let loop_pos = out.find("for (int it").unwrap();
        assert!(region_pos < loop_pos);
        // Braces stay balanced.
        let opens = out.matches('{').count();
        let closes = out.matches('}').count();
        assert_eq!(opens, closes, "unbalanced braces:\n{out}");
    }

    #[test]
    fn inserts_update_directives_with_indentation() {
        let src = "\
#define N 16
#define M 4
int a[N];
int main() {
  int sum = 0;
  for (int i = 0; i < M; ++i) {
    #pragma omp target
    for (int j = 0; j < N; ++j) a[j] += j;
    for (int j = 0; j < N; ++j) sum += a[j];
  }
  return sum;
}
";
        let out = transform(src);
        assert!(
            out.contains("#pragma omp target update from(a)"),
            "update from expected:\n{out}"
        );
        // The update must appear before the host summation loop and after the
        // kernel.
        let update_pos = out.find("#pragma omp target update from(a)").unwrap();
        let sum_loop_pos = out.find("sum += a[j]").unwrap();
        assert!(update_pos < sum_loop_pos);
    }

    #[test]
    fn firstprivate_appended_to_kernel() {
        let src = "\
#define N 16
double a[N];
void f(double scale) {
  #pragma omp target teams distribute parallel for
  for (int i = 0; i < N; i++) a[i] = scale * i;
}
";
        let out = transform(src);
        assert!(
            out.contains("firstprivate(scale)"),
            "firstprivate clause missing:\n{out}"
        );
    }

    #[test]
    fn transformed_source_reparses() {
        let src = "\
#define N 32
#define STEPS 5
double temp[N];
double power[N];
int main() {
  for (int i = 0; i < N; i++) { temp[i] = i; power[i] = 0.1 * i; }
  for (int s = 0; s < STEPS; s++) {
    #pragma omp target teams distribute parallel for
    for (int i = 1; i < N - 1; i++) {
      temp[i] = temp[i] + power[i];
    }
  }
  double total = 0.0;
  for (int i = 0; i < N; i++) total += temp[i];
  printf(\"%f\\n\", total);
  return 0;
}
";
        let out = transform(src);
        let (_f2, reparsed) = parse_str("out.c", &out);
        assert!(
            reparsed.is_ok(),
            "transformed source failed to reparse:\n{out}\n{:?}",
            reparsed.diagnostics
        );
        assert!(out.contains("#pragma omp target data"));
    }

    #[test]
    fn consolidates_multiple_variables_per_clause() {
        let src = "\
#define N 8
double x[N];
double y[N];
void f() {
  #pragma omp target teams distribute parallel for
  for (int i = 0; i < N; i++) y[i] = x[i] + y[i];
}
";
        let out = transform(src);
        // x is read-only (to); y is read+written and escapes (tofrom).
        assert!(out.contains("map(to: x)"), "{out}");
        assert!(out.contains("map(tofrom: y)"), "{out}");
    }

    #[test]
    fn edit_set_applies_in_position_order() {
        let mut edits = EditSet::default();
        edits.insert(5, "X".into());
        edits.insert(0, "A".into());
        edits.insert(5, "Y".into());
        let out = edits.apply("hello world");
        assert_eq!(out, "AhelloXY world");
    }

    /// Positions inside a multibyte UTF-8 sequence snap to the previous
    /// char boundary instead of panicking on a non-boundary slice.
    #[test]
    fn edit_set_snaps_positions_to_char_boundaries() {
        let text = "a≤b"; // '≤' occupies bytes 1..4
        for pos in 0..=text.len() as u32 + 2 {
            let mut edits = EditSet::default();
            edits.insert(pos, "|".into());
            let out = edits.apply(text);
            assert_eq!(out.replace('|', ""), text, "insert at byte {pos}");
            assert_eq!(out.matches('|').count(), 1);
        }
        // Two inserts landing inside the same multibyte char both snap and
        // stay ordered.
        let mut edits = EditSet::default();
        edits.insert(2, "X".into());
        edits.insert(3, "Y".into());
        assert_eq!(edits.apply(text), "aXY≤b");
    }

    /// Regression: rewriting a source that carries multibyte UTF-8 in
    /// comments above the target loop must not panic, and the inserted
    /// directives must land on valid boundaries.
    #[test]
    fn rewrites_source_with_multibyte_comments() {
        let src = "\
#define N 16
// café ≤ ∞ — multibyte bytes before every span below
int a[N];
int main() {
  // ∑ of a[j] — more multibyte
  int sum = 0;
  for (int i = 0; i < 4; ++i) {
    #pragma omp target
    for (int j = 0; j < N; ++j) a[j] += j;
    for (int j = 0; j < N; ++j) sum += a[j];
  }
  printf(\"%d\\n\", sum);
  return 0;
}
";
        let out = transform(src);
        assert!(out.contains("#pragma omp target data"), "{out}");
        assert!(out.contains("#pragma omp target update from(a)"), "{out}");
        assert!(out.contains("café ≤ ∞"), "comment must survive: {out}");
        // The transformed text must still be valid UTF-8-aligned C.
        let (_f, reparsed) = parse_str("utf8_out.c", &out);
        assert!(reparsed.is_ok(), "{out}\n{:?}", reparsed.diagnostics);
    }
}
