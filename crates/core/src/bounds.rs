//! Array access-pattern and loop-bounds analysis (Section IV-E of the
//! paper).
//!
//! OMPDart extends the compile-time bounds analysis of Guo et al. to nested
//! loops and multidimensional arrays, and uses it to place `target update`
//! directives: an update needed for an array access deep inside a loop nest
//! should be hoisted out of every loop that does not affect the array's
//! indexing (the Listing 6 / backprop example, worth 14x in the paper), but
//! never above `locLim` — the end of the preceding kernel's scope.
//! [`find_update_insert_loc`] is a faithful implementation of the paper's
//! Algorithm 1.

use ompdart_frontend::ast::*;
use ompdart_frontend::printer::expr_to_c;
use ompdart_graph::StmtIndex;

/// Bounds of a canonical `for` loop.
#[derive(Clone, Debug)]
pub struct LoopBounds {
    /// Induction variable.
    pub var: String,
    /// Lower bound expression (from the initialization statement).
    pub lower: Option<Expr>,
    /// Bound expression from the condition.
    pub upper: Option<Expr>,
    /// True if the loop condition is inclusive (`<=` / `>=`).
    pub inclusive: bool,
    /// +1 for increasing loops, -1 for decreasing, other values for strided
    /// loops (`i += 4`).
    pub step: i64,
}

impl LoopBounds {
    /// The number of iterations, when all bound expressions are constants.
    pub fn trip_count(&self, lookup: &dyn Fn(&str) -> Option<i64>) -> Option<i64> {
        let lower = self.lower.as_ref()?.const_eval(lookup)?;
        let upper = self.upper.as_ref()?.const_eval(lookup)?;
        let step = if self.step == 0 { 1 } else { self.step.abs() };
        let span = if self.step >= 0 {
            upper - lower
        } else {
            lower - upper
        };
        let span = span + i64::from(self.inclusive);
        if span <= 0 {
            return Some(0);
        }
        Some((span + step - 1) / step)
    }

    /// The (exclusive) extent of the iteration space rendered as C source,
    /// usable as an array-section length for accesses indexed directly by
    /// the induction variable.
    pub fn extent_source(&self) -> Option<String> {
        let upper = self.upper.as_ref()?;
        let text = expr_to_c(upper);
        Some(if self.inclusive {
            format!("{text} + 1")
        } else {
            text
        })
    }
}

/// Extract the bounds of a `for` statement in canonical
/// `for (init; cond; inc)` form; returns `None` when any component is
/// missing or too complex (the conservative fallback of the paper).
pub fn loop_bounds(stmt: &Stmt) -> Option<LoopBounds> {
    let StmtKind::For {
        init, cond, inc, ..
    } = &stmt.kind
    else {
        return None;
    };

    // Induction variable and lower bound from the init statement.
    let (var, lower) = match init.as_deref() {
        Some(ForInit::Decl(decls)) if decls.len() == 1 => {
            let d = &decls[0];
            let lower = match &d.init {
                Some(Init::Expr(e)) => Some(e.clone()),
                _ => None,
            };
            (d.name.to_string(), lower)
        }
        Some(ForInit::Expr(e)) => match &e.kind {
            ExprKind::Assign {
                op: AssignOp::Assign,
                lhs,
                rhs,
            } => {
                let name = lhs.base_variable()?.to_string();
                (name, Some((**rhs).clone()))
            }
            _ => return None,
        },
        _ => return None,
    };

    // Upper bound from the condition.
    let cond = cond.as_ref()?;
    let (upper, inclusive) = match &cond.kind {
        ExprKind::Binary { op, lhs, rhs } => {
            let (bound_side, inclusive) = match op {
                BinaryOp::Lt | BinaryOp::Gt => (rhs, false),
                BinaryOp::Le | BinaryOp::Ge => (rhs, true),
                BinaryOp::Ne => (rhs, false),
                _ => return None,
            };
            // The induction variable must appear on the left-hand side.
            if lhs.base_variable() != Some(var.as_str()) {
                return None;
            }
            ((**bound_side).clone(), inclusive)
        }
        _ => return None,
    };

    // Step from the increment expression.
    let step = match inc {
        Some(inc) => step_of(inc, &var)?,
        None => return None,
    };

    Some(LoopBounds {
        var,
        lower,
        upper: Some(upper),
        inclusive,
        step,
    })
}

fn step_of(expr: &Expr, var: &str) -> Option<i64> {
    match &expr.kind {
        ExprKind::Unary { op, operand, .. } => {
            if operand.base_variable() != Some(var) {
                return None;
            }
            match op {
                UnaryOp::Inc => Some(1),
                UnaryOp::Dec => Some(-1),
                _ => None,
            }
        }
        ExprKind::Assign { op, lhs, rhs } => {
            if lhs.base_variable() != Some(var) {
                return None;
            }
            let amount = rhs.const_eval(&|_| None);
            match (op, amount) {
                (AssignOp::Add, Some(v)) => Some(v),
                (AssignOp::Sub, Some(v)) => Some(-v),
                (AssignOp::Assign, _) => {
                    // i = i + c / i = i - c
                    match &rhs.kind {
                        ExprKind::Binary {
                            op: BinaryOp::Add,
                            lhs: l,
                            rhs: r,
                        } if l.base_variable() == Some(var) => r.const_eval(&|_| None),
                        ExprKind::Binary {
                            op: BinaryOp::Sub,
                            lhs: l,
                            rhs: r,
                        } if l.base_variable() == Some(var) => r.const_eval(&|_| None).map(|v| -v),
                        _ => None,
                    }
                }
                _ => None,
            }
        }
        _ => None,
    }
}

/// The induction variable of a `for` loop, when it can be determined (the
/// `findIndexingVar` helper of Algorithm 1).
pub fn indexing_var(stmt: &Stmt) -> Option<String> {
    loop_bounds(stmt).map(|b| b.var)
}

/// Faithful implementation of the paper's **Algorithm 1**: determine the
/// statement a `target update to/from()` directive should precede (or
/// follow) for an array access nested inside loops of arbitrary depth.
///
/// * `access_stmt` — the statement containing the array access `a`.
/// * `indices` — the subscript expressions of the access.
/// * `loops` — the enclosing loops (outermost first) paired with their AST
///   statements; the algorithm pops from the innermost end.
/// * `loc_lim` — a statement the directive must not precede (typically the
///   end of the preceding target kernel's scope).
pub fn find_update_insert_loc(
    access_stmt: NodeId,
    indices: &[Expr],
    loops: &[(NodeId, &Stmt)],
    loc_lim: Option<NodeId>,
    index: &StmtIndex,
) -> NodeId {
    // indexingVars <- getReferencedVars(idxExpr)
    let mut indexing_vars: Vec<String> = Vec::new();
    for idx in indices {
        for v in idx.referenced_vars() {
            if !indexing_vars.contains(&v) {
                indexing_vars.push(v);
            }
        }
    }
    let mut pos = access_stmt;
    // The stack's top is the innermost loop.
    let mut stack: Vec<&(NodeId, &Stmt)> = loops.iter().collect();
    while let Some((loop_id, loop_stmt)) = stack.pop() {
        // if forStmt is before locLim in file then break
        if let Some(limit) = loc_lim {
            if index.is_before(*loop_id, limit) {
                break;
            }
        }
        // forIdxVar <- findIndexingVar(forStmt); skip when indeterminate
        let Some(loop_var) = indexing_var(loop_stmt) else {
            continue;
        };
        if indexing_vars.contains(&loop_var) {
            pos = *loop_id;
        }
    }
    pos
}

/// Render the accessed extent of a device array access as an array-section
/// length, by matching the subscript's innermost loop bound. `loops` are the
/// loops enclosing the access, innermost first. Returns `None` when the
/// access pattern is too complex; callers then fall back to mapping the
/// whole object.
pub fn section_length_from_loops<'a>(
    indices: &[Expr],
    loops: impl IntoIterator<Item = &'a Stmt>,
) -> Option<String> {
    // Only handle the common `a[i]` / `a[i*stride + ...]` patterns where the
    // extent is governed by the innermost loop whose variable appears in the
    // subscript.
    let vars: Vec<String> = indices.iter().flat_map(|e| e.referenced_vars()).collect();
    for loop_stmt in loops {
        if let Some(bounds) = loop_bounds(loop_stmt) {
            if vars.contains(&bounds.var) && indices.len() == 1 {
                // Direct indexing by the induction variable: the extent is the
                // loop bound itself.
                if let ExprKind::Ident(name) = &indices[0].kind {
                    if *name == bounds.var {
                        return bounds.extent_source();
                    }
                }
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use ompdart_frontend::parser::parse_str;
    use ompdart_graph::StmtIndex;

    fn first_function(src: &str) -> (ompdart_frontend::ast::FunctionDef, StmtIndex) {
        let (_f, result) = parse_str("t.c", src);
        assert!(result.is_ok(), "{:?}", result.diagnostics);
        let func = result.unit.functions().next().unwrap().clone();
        let index = StmtIndex::build(&func);
        (func, index)
    }

    fn loops_of(func: &ompdart_frontend::ast::FunctionDef) -> Vec<(NodeId, Stmt)> {
        let mut out = Vec::new();
        func.body.as_ref().unwrap().walk(&mut |s| {
            if s.is_loop() {
                out.push((s.id, s.clone()));
            }
        });
        out
    }

    #[test]
    fn canonical_for_bounds() {
        let (func, _) =
            first_function("void f(int n) { for (int i = 0; i < n; i++) { int x = i; } }\n");
        let loops = loops_of(&func);
        let b = loop_bounds(&loops[0].1).unwrap();
        assert_eq!(b.var, "i");
        assert_eq!(b.step, 1);
        assert!(!b.inclusive);
        assert_eq!(b.lower.as_ref().unwrap().const_eval(&|_| None), Some(0));
        assert_eq!(b.extent_source().unwrap(), "n");
    }

    #[test]
    fn bounds_with_division_like_listing_4() {
        // The paper's Listing 4/5 example: upper bound 100/2, trip count 50.
        let (func, _) = first_function(
            "#define N 100\nvoid f() { int a[N]; for (int i = 0; i < N/2; i++) { a[i] = i; } }\n",
        );
        let loops = loops_of(&func);
        let b = loop_bounds(&loops[0].1).unwrap();
        assert_eq!(b.trip_count(&|_| None), Some(50));
    }

    #[test]
    fn inclusive_and_decreasing_loops() {
        let (func, _) = first_function(
            "void f(int n) { for (int j = 1; j <= n; j++) {} for (int k = n; k > 0; k--) {} for (int m = 0; m < n; m += 4) {} }\n",
        );
        let loops = loops_of(&func);
        let b0 = loop_bounds(&loops[0].1).unwrap();
        assert!(b0.inclusive);
        assert_eq!(b0.trip_count(&|name| (name == "n").then_some(10)), Some(10));
        let b1 = loop_bounds(&loops[1].1).unwrap();
        assert_eq!(b1.step, -1);
        assert_eq!(b1.trip_count(&|name| (name == "n").then_some(10)), Some(10));
        let b2 = loop_bounds(&loops[2].1).unwrap();
        assert_eq!(b2.step, 4);
        assert_eq!(b2.trip_count(&|name| (name == "n").then_some(10)), Some(3));
    }

    #[test]
    fn non_canonical_loops_are_rejected() {
        let (func, _) = first_function(
            "void f(int n) { int i = 0; for (; i < n; i++) {} for (int j = 0; check(j); j++) {} }\n",
        );
        let loops = loops_of(&func);
        // missing init declaration -> init is an expression-less `for (; ...)`
        assert!(loop_bounds(&loops[0].1).is_none());
        // call in the condition -> rejected
        assert!(loop_bounds(&loops[1].1).is_none());
    }

    #[test]
    fn while_loops_have_no_bounds() {
        let (func, _) = first_function("void f(int n) { int i = 0; while (i < n) { i++; } }\n");
        let loops = loops_of(&func);
        assert!(loop_bounds(&loops[0].1).is_none());
        assert!(indexing_var(&loops[0].1).is_none());
    }

    /// The backprop / Listing 6 scenario: a host summation over
    /// `partial_sum[k * hid + j - 1]` nested in two loops; the update must be
    /// hoisted before the outermost (j) loop.
    const LISTING6: &str = "\
#define HID 16
#define NB 64
double partial_sum[NB * HID];
double hidden_units[HID + 1];
double input_weights[HID + 1];
void reduce(int hid, int num_blocks) {
  #pragma omp target teams distribute parallel for
  for (int t = 0; t < NB * HID; t++) {
    partial_sum[t] = t * 0.5;
  }
  for (int j = 1; j <= hid; j++) {
    double sum = 0.0;
    for (int k = 0; k < num_blocks; k++) {
      sum += partial_sum[k * hid + j - 1];
    }
    sum += input_weights[j];
    hidden_units[j] = 1.0 / (1.0 + exp(-sum));
  }
}
";

    #[test]
    fn algorithm1_hoists_out_of_both_loops() {
        let (func, index) = first_function(LISTING6);
        let loops = loops_of(&func);
        // Find the host access statement and its enclosing loops (j, k).
        let mut access_stmt = None;
        let mut indices = Vec::new();
        func.body.as_ref().unwrap().walk(&mut |s| {
            if let StmtKind::Expr(e) = &s.kind {
                if e.referenced_vars().contains(&"partial_sum".to_string())
                    && !index.info(s.id).unwrap().offloaded
                {
                    access_stmt = Some(s.id);
                    e.walk(&mut |sub| {
                        if let ExprKind::Index { index: idx, .. } = &sub.kind {
                            indices.push((**idx).clone());
                        }
                    });
                }
            }
        });
        let access_stmt = access_stmt.expect("host access not found");
        let enclosing: Vec<(NodeId, &Stmt)> = {
            let mut ids: Vec<NodeId> = index.loops_outward(access_stmt).collect();
            ids.reverse();
            ids.iter()
                .map(|id| {
                    let stmt = loops.iter().find(|(lid, _)| lid == id).unwrap();
                    (*id, &stmt.1)
                })
                .collect()
        };
        assert_eq!(enclosing.len(), 2);
        let kernel = index.kernels()[0];
        let pos = find_update_insert_loc(access_stmt, &indices, &enclosing, Some(kernel), &index);
        // Both loop variables (j through `j - 1`, k through `k * hid`) appear
        // in the subscript, so the insert location is the *outermost* loop.
        assert_eq!(pos, enclosing[0].0);
    }

    #[test]
    fn algorithm1_respects_loc_lim() {
        // When the kernel lives *inside* the outer loop, the directive must
        // not be hoisted above it.
        let src = "\
#define N 32
double a[N];
void f(int n) {
  for (int it = 0; it < 10; it++) {
    #pragma omp target teams distribute parallel for
    for (int i = 0; i < n; i++) a[i] += 1.0;
    double s = 0.0;
    for (int i = 0; i < n; i++) s += a[i];
  }
}
";
        let (func, index) = first_function(src);
        let loops = loops_of(&func);
        let mut access_stmt = None;
        let mut indices = Vec::new();
        func.body.as_ref().unwrap().walk(&mut |s| {
            if let StmtKind::Expr(e) = &s.kind {
                let vars = e.referenced_vars();
                if vars.contains(&"s".to_string()) && vars.contains(&"a".to_string()) {
                    access_stmt = Some(s.id);
                    e.walk(&mut |sub| {
                        if let ExprKind::Index { index: idx, .. } = &sub.kind {
                            indices.push((**idx).clone());
                        }
                    });
                }
            }
        });
        let access_stmt = access_stmt.unwrap();
        let mut ids: Vec<NodeId> = index.loops_outward(access_stmt).collect();
        ids.reverse();
        let enclosing: Vec<(NodeId, &Stmt)> = ids
            .iter()
            .map(|id| (*id, &loops.iter().find(|(lid, _)| lid == id).unwrap().1))
            .collect();
        let kernel = index.kernels()[0];
        let pos = find_update_insert_loc(access_stmt, &indices, &enclosing, Some(kernel), &index);
        // The outer `it` loop precedes the kernel (locLim), so the insertion
        // point stays at the inner summation loop.
        assert_eq!(pos, *ids.last().unwrap());
    }

    #[test]
    fn algorithm1_without_loops_returns_access() {
        let (func, index) = first_function("double a[4];\nvoid f() { a[0] = 1.0; }\n");
        let mut stmt = None;
        func.body.as_ref().unwrap().walk(&mut |s| {
            if matches!(s.kind, StmtKind::Expr(_)) {
                stmt = Some(s.id);
            }
        });
        let s = stmt.unwrap();
        assert_eq!(find_update_insert_loc(s, &[], &[], None, &index), s);
    }

    #[test]
    fn section_length_for_simple_indexing() {
        let (func, _) = first_function(
            "void f(double *a, int n) { for (int i = 0; i < n; i++) { a[i] = i; } }\n",
        );
        let loops = loops_of(&func);
        // index expression is plain `i`
        let mut idx_expr = None;
        func.body.as_ref().unwrap().walk(&mut |s| {
            if let StmtKind::Expr(e) = &s.kind {
                e.walk(&mut |sub| {
                    if let ExprKind::Index { index, .. } = &sub.kind {
                        idx_expr = Some((**index).clone());
                    }
                });
            }
        });
        let length = section_length_from_loops(&[idx_expr.unwrap()], loops.iter().map(|(_, s)| s));
        assert_eq!(length.as_deref(), Some("n"));
    }
}
