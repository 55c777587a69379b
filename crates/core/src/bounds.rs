//! Loop-bounds analysis (Section IV-E of the paper): the bounds of a
//! canonical `for` loop, and from them the array-section length of an
//! access indexed directly by the loop's induction variable
//! ([`section_length_from_loops`]).
//!
//! Where a `target update` goes is decided by the planner, not here:
//! `PlanTransfers::hoist_anchor` in [`crate::dataflow`] hoists an update out
//! of every enclosing loop that does not contain the statement which
//! produced the data, so it never rises above the kernel (or host write)
//! it depends on.

use ompdart_frontend::ast::*;
use ompdart_frontend::printer::expr_to_c;

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

    fn first_function(src: &str) -> ompdart_frontend::ast::FunctionDef {
        let (_f, result) = parse_str("t.c", src);
        assert!(result.is_ok(), "{:?}", result.diagnostics);
        let mut functions = result.unit.functions();
        functions.next().unwrap().clone()
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
        let func = first_function("void f(int n) { for (int i = 0; i < n; i++) { int x = i; } }\n");
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
        // The paper's Listing 4/5 example: upper bound 100/2, a section of
        // 50 elements.
        let func = first_function(
            "#define N 100\nvoid f() { int a[N]; for (int i = 0; i < N/2; i++) { a[i] = i; } }\n",
        );
        let loops = loops_of(&func);
        let b = loop_bounds(&loops[0].1).unwrap();
        assert_eq!(b.lower.as_ref().unwrap().const_eval(&|_| None), Some(0));
        assert_eq!(b.upper.as_ref().unwrap().const_eval(&|_| None), Some(50));
        assert_eq!((b.step, b.inclusive), (1, false));
        assert_eq!(b.extent_source().unwrap(), "100 / 2");
    }

    #[test]
    fn inclusive_and_decreasing_loops() {
        let func = first_function(
            "void f(int n) { for (int j = 1; j <= n; j++) {} for (int k = n; k > 0; k--) {} for (int m = 0; m < n; m += 4) {} }\n",
        );
        let loops = loops_of(&func);
        let n = |name: &str| (name == "n").then_some(10);
        let fields = |b: &LoopBounds| {
            let lower = b.lower.as_ref().and_then(|e| e.const_eval(&n));
            let upper = b.upper.as_ref().and_then(|e| e.const_eval(&n));
            (lower, upper, b.step, b.inclusive)
        };
        let b0 = loop_bounds(&loops[0].1).unwrap();
        assert_eq!(fields(&b0), (Some(1), Some(10), 1, true));
        assert_eq!(b0.extent_source().unwrap(), "n + 1");
        let b1 = loop_bounds(&loops[1].1).unwrap();
        assert_eq!(fields(&b1), (Some(10), Some(0), -1, false));
        let b2 = loop_bounds(&loops[2].1).unwrap();
        assert_eq!(fields(&b2), (Some(0), Some(10), 4, false));
    }

    #[test]
    fn non_canonical_loops_are_rejected() {
        let func = first_function(
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
        let func = first_function("void f(int n) { int i = 0; while (i < n) { i++; } }\n");
        let loops = loops_of(&func);
        assert!(loop_bounds(&loops[0].1).is_none());
    }

    #[test]
    fn section_length_for_simple_indexing() {
        let func = first_function(
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
