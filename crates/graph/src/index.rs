//! The statement index: the one per-function graph.
//!
//! The paper combines the Clang AST with a per-function CFG into a hybrid
//! "AST-CFG" (Section IV-B, Figure 2). This planner reads control flow
//! structurally instead: the planner and `verify` walk the AST through
//! `ompdart_core::validity::Walker`, and consult [`StmtIndex`] for the
//! structural facts. For every statement the index records the innermost
//! enclosing loop, the enclosing offload kernel and `target data` region (if
//! any), the parent statement, a stable source order and the extent of the
//! statement's subtree in that order, in a dense table addressed by
//! statement id ([`NodeTable`]).

use crate::table::NodeTable;
use ompdart_frontend::ast::{FunctionDef, NodeId, Stmt, StmtKind, TranslationUnit};
use ompdart_frontend::omp::DirectiveKind;
use ompdart_frontend::source::Span;
use ompdart_frontend::Symbol;

/// Coarse classification of a statement, stored in the index so queries do
/// not need access to the AST node itself.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StmtKindTag {
    Expr,
    Decl,
    Compound,
    If,
    ForLoop,
    WhileLoop,
    DoWhileLoop,
    Switch,
    Return,
    Break,
    Continue,
    OmpKernel,
    OmpTargetData,
    OmpTargetUpdate,
    OmpOther,
    Other,
}

impl StmtKindTag {
    pub fn of(stmt: &Stmt) -> StmtKindTag {
        match &stmt.kind {
            StmtKind::Expr(_) => StmtKindTag::Expr,
            StmtKind::Decl(_) => StmtKindTag::Decl,
            StmtKind::Compound(_) => StmtKindTag::Compound,
            StmtKind::If { .. } => StmtKindTag::If,
            StmtKind::For { .. } => StmtKindTag::ForLoop,
            StmtKind::While { .. } => StmtKindTag::WhileLoop,
            StmtKind::DoWhile { .. } => StmtKindTag::DoWhileLoop,
            StmtKind::Switch { .. } => StmtKindTag::Switch,
            StmtKind::Return(_) => StmtKindTag::Return,
            StmtKind::Break => StmtKindTag::Break,
            StmtKind::Continue => StmtKindTag::Continue,
            StmtKind::Omp(dir) => {
                if dir.kind.is_offload_kernel() {
                    StmtKindTag::OmpKernel
                } else if dir.kind == DirectiveKind::TargetData {
                    StmtKindTag::OmpTargetData
                } else if dir.kind == DirectiveKind::TargetUpdate {
                    StmtKindTag::OmpTargetUpdate
                } else {
                    StmtKindTag::OmpOther
                }
            }
            _ => StmtKindTag::Other,
        }
    }

    /// True for loop statements.
    pub fn is_loop(&self) -> bool {
        matches!(
            self,
            StmtKindTag::ForLoop | StmtKindTag::WhileLoop | StmtKindTag::DoWhileLoop
        )
    }
}

/// Per-statement structural information.
#[derive(Clone, Debug)]
pub struct StmtInfo {
    pub id: NodeId,
    pub span: Span,
    pub kind: StmtKindTag,
    /// Parent statement (None for the function body).
    pub parent: Option<NodeId>,
    /// The innermost loop enclosing the statement (never the statement
    /// itself); the whole loop stack is [`StmtIndex::loops_outward`].
    pub enclosing_loop: Option<NodeId>,
    /// The offload kernel directive statement this statement executes inside,
    /// if any.
    pub enclosing_kernel: Option<NodeId>,
    /// The enclosing `target data` region statement, if any.
    pub enclosing_data_region: Option<NodeId>,
    /// True if the statement executes on the device.
    pub offloaded: bool,
    /// Pre-order position within the function (source order).
    pub order: usize,
    /// One past the position of the statement's last descendant: the
    /// statements it contains are exactly those at `order + 1 .. end`.
    pub end: usize,
}

/// The AST-side index for a single function: its statements' facts in a
/// [`NodeTable`] addressed by statement id, stored in source order.
#[derive(Clone, Debug, Default)]
pub struct StmtIndex {
    pub function: Symbol,
    stmts: NodeTable<StmtInfo>,
    /// Offload kernel statements in source order.
    kernels: Vec<NodeId>,
    /// Loop statements in source order.
    loops: Vec<NodeId>,
    /// `target update` directives in source order.
    updates: Vec<NodeId>,
}

/// What a statement's descendants inherit from it and its ancestors.
#[derive(Clone, Copy, Default)]
struct Scope {
    parent: Option<NodeId>,
    enclosing_loop: Option<NodeId>,
    kernel: Option<NodeId>,
    data_region: Option<NodeId>,
}

impl StmtIndex {
    /// Build the index for a function definition.
    pub fn build(func: &FunctionDef) -> StmtIndex {
        let mut index = StmtIndex {
            function: func.name,
            ..Default::default()
        };
        let mut stmts = Vec::new();
        if let Some(body) = &func.body {
            index.visit(&mut stmts, body, Scope::default());
        }
        index.stmts = NodeTable::from_values(stmts, |info| info.id);
        index
    }

    fn visit(&mut self, stmts: &mut Vec<StmtInfo>, stmt: &Stmt, scope: Scope) {
        let kind = StmtKindTag::of(stmt);
        let order = stmts.len();
        stmts.push(StmtInfo {
            id: stmt.id,
            span: stmt.span,
            kind,
            parent: scope.parent,
            enclosing_loop: scope.enclosing_loop,
            enclosing_kernel: scope.kernel,
            enclosing_data_region: scope.data_region,
            offloaded: scope.kernel.is_some(),
            order,
            end: order + 1,
        });
        let mut inner = Scope {
            parent: Some(stmt.id),
            ..scope
        };
        match kind {
            StmtKindTag::OmpKernel => {
                self.kernels.push(stmt.id);
                inner.kernel = Some(stmt.id);
            }
            StmtKindTag::OmpTargetData => inner.data_region = Some(stmt.id),
            StmtKindTag::OmpTargetUpdate => self.updates.push(stmt.id),
            k if k.is_loop() => {
                self.loops.push(stmt.id);
                inner.enclosing_loop = Some(stmt.id);
            }
            _ => {}
        }

        match &stmt.kind {
            StmtKind::Compound(items) => {
                for s in items {
                    self.visit(stmts, s, inner);
                }
            }
            StmtKind::If {
                then_branch,
                else_branch,
                ..
            } => {
                self.visit(stmts, then_branch, inner);
                if let Some(e) = else_branch {
                    self.visit(stmts, e, inner);
                }
            }
            StmtKind::While { body, .. }
            | StmtKind::DoWhile { body, .. }
            | StmtKind::For { body, .. }
            | StmtKind::Switch { body, .. } => {
                self.visit(stmts, body, inner);
            }
            StmtKind::Omp(dir) => {
                if let Some(body) = &dir.body {
                    self.visit(stmts, body, inner);
                }
            }
            _ => {}
        }
        stmts[order].end = stmts.len();
    }

    /// Information about one statement: `None` for any other id, an
    /// expression's or another function's included.
    pub fn info(&self, id: NodeId) -> Option<&StmtInfo> {
        self.stmts.get(id)
    }

    /// Number of indexed statements.
    pub fn len(&self) -> usize {
        self.stmts.len()
    }

    pub fn is_empty(&self) -> bool {
        self.stmts.is_empty()
    }

    /// Offload kernels in source order.
    pub fn kernels(&self) -> &[NodeId] {
        &self.kernels
    }

    /// Loops in source order.
    pub fn loops(&self) -> &[NodeId] {
        &self.loops
    }

    /// `target update` directives in source order.
    pub fn updates(&self) -> &[NodeId] {
        &self.updates
    }

    /// The loops enclosing a statement, innermost first.
    pub fn loops_outward(&self, id: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        let enclosing = |id: NodeId| self.info(id)?.enclosing_loop;
        std::iter::successors(enclosing(id), move |l| enclosing(*l))
    }

    /// True if `inner` is one of the statements `outer` contains (not
    /// `outer` itself).
    pub fn encloses(&self, outer: NodeId, inner: NodeId) -> bool {
        match (self.info(outer), self.info(inner)) {
            (Some(o), Some(i)) => o.order < i.order && i.order < o.end,
            _ => false,
        }
    }

    /// All statements, in source order.
    pub fn stmts_in_order(&self) -> &[StmtInfo] {
        self.stmts.values()
    }
}

/// The graphs of one function: its statement index. `cfg` is a stub that
/// stays only because the benchmark harness (`ledger/src/layers.rs`) still
/// counts its nodes and edges for the `graph.cfg_*` rows, which read 0.
#[derive(Clone, Debug)]
pub struct AstCfg {
    pub cfg: NoCfg,
    pub index: StmtIndex,
}

/// No control-flow graph: nothing in the planner reads one (see the module
/// docs). [`NoCfg::nodes`] and [`NoCfg::edges`] are always empty.
#[derive(Clone, Copy, Debug)]
pub struct NoCfg;

impl NoCfg {
    pub fn nodes(&self) -> &[()] {
        &[]
    }

    pub fn edges(&self) -> &[()] {
        &[]
    }
}

/// The statement index of every function definition in a translation unit.
#[derive(Clone, Debug, Default)]
pub struct ProgramGraphs {
    pub functions: Vec<AstCfg>,
}

impl ProgramGraphs {
    /// Index every function definition.
    pub fn build(unit: &TranslationUnit) -> ProgramGraphs {
        let functions = (unit.functions())
            .map(|func| AstCfg {
                cfg: NoCfg,
                index: StmtIndex::build(func),
            })
            .collect();
        ProgramGraphs { functions }
    }

    /// The statement index of a specific function: interned names compare
    /// as integers.
    pub fn function(&self, name: impl Into<Symbol>) -> Option<&StmtIndex> {
        let name = name.into();
        (self.functions.iter())
            .map(|g| &g.index)
            .find(|index| index.function == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ompdart_frontend::parser::parse_str;

    fn graphs(src: &str) -> (ompdart_frontend::SourceFile, ProgramGraphs, TranslationUnit) {
        let (file, result) = parse_str("t.c", src);
        assert!(result.is_ok(), "{:?}", result.diagnostics);
        let graphs = ProgramGraphs::build(&result.unit);
        (file, graphs, result.unit)
    }

    const NESTED: &str = "\
void compute(double *a, double *partial, int n, int m) {
  #pragma omp target teams distribute parallel for
  for (int i = 0; i < n; i++) {
    a[i] = a[i] * 2.0;
  }
  for (int j = 1; j <= m; j++) {
    double sum = 0.0;
    for (int k = 0; k < n; k++) {
      sum += partial[k * m + j - 1];
    }
    a[j] = sum;
  }
}
";

    #[test]
    fn kernels_and_loops_indexed_in_order() {
        let (_f, graphs, _unit) = graphs(NESTED);
        let g = graphs.function("compute").unwrap();
        assert_eq!(g.kernels().len(), 1);
        assert_eq!(g.loops().len(), 3);
        // kernels() precede the host loops in source order
        let order = |id| g.info(id).unwrap().order;
        assert!(order(g.kernels()[0]) < order(g.loops()[1]));
    }

    #[test]
    fn offloaded_statements_are_marked() {
        let (_f, graphs, unit) = graphs(NESTED);
        let g = graphs.function("compute").unwrap();
        let func = unit.function("compute").unwrap();
        let mut offloaded_exprs = 0;
        let mut host_exprs = 0;
        func.body.as_ref().unwrap().walk(&mut |s| {
            if matches!(s.kind, StmtKind::Expr(_)) {
                let info = g.info(s.id).unwrap();
                if info.offloaded {
                    offloaded_exprs += 1;
                } else {
                    host_exprs += 1;
                }
            }
        });
        assert_eq!(offloaded_exprs, 1); // a[i] = a[i] * 2.0
        assert_eq!(host_exprs, 2); // sum += ...; a[j] = sum
    }

    #[test]
    fn enclosing_loops_outermost_first() {
        let (_f, graphs, unit) = graphs(NESTED);
        let g = graphs.function("compute").unwrap();
        let func = unit.function("compute").unwrap();
        // Find the innermost host statement `sum += partial[...]`.
        let mut target = None;
        func.body.as_ref().unwrap().walk(&mut |s| {
            if let StmtKind::Expr(e) = &s.kind {
                if e.referenced_vars().contains(&"partial".to_string()) {
                    target = Some(s.id);
                }
            }
        });
        let target = target.unwrap();
        let mut loops: Vec<NodeId> = g.loops_outward(target).collect();
        loops.reverse();
        assert_eq!(loops.len(), 2);
        // outermost (j loop) first, and it encloses the k loop
        assert!(g.encloses(loops[0], loops[1]));
    }

    #[test]
    fn data_regions_and_updates_indexed() {
        let src = "\
void f(double *a, int n) {
  #pragma omp target data map(tofrom: a[0:n])
  {
    #pragma omp target
    for (int i = 0; i < n; i++) a[i] += 1.0;
    #pragma omp target update from(a[0:n])
  }
}
";
        let (_f, graphs, _unit) = graphs(src);
        let g = graphs.function("f").unwrap();
        assert_eq!(g.updates().len(), 1);
        // the update is inside the data region
        let upd = g.updates()[0];
        let region = g.info(upd).unwrap().enclosing_data_region.unwrap();
        assert_eq!(g.info(region).unwrap().kind, StmtKindTag::OmpTargetData);
    }

    #[test]
    fn parent_chain_is_recorded() {
        let (_f, graphs, unit) = graphs(NESTED);
        let g = graphs.function("compute").unwrap();
        let func = unit.function("compute").unwrap();
        let body = func.body.as_ref().unwrap();
        // The function body has no parent; everything else does.
        assert!(g.info(body.id).unwrap().parent.is_none());
        let mut checked = 0;
        body.walk(&mut |s| {
            if s.id != body.id {
                assert!(g.info(s.id).unwrap().parent.is_some());
                checked += 1;
            }
        });
        assert!(checked > 5);
    }

    #[test]
    fn functions_without_bodies_are_skipped() {
        let (_f, graphs, _unit) = graphs("int ext(int x);\nint use(int x) { return ext(x); }\n");
        assert_eq!(graphs.functions.len(), 1);
        assert!(graphs.function("use").is_some());
        assert!(graphs.function("ext").is_none());
    }

    #[test]
    fn stmts_in_order_is_stable() {
        let (_f, graphs, _unit) = graphs(NESTED);
        let g = graphs.function("compute").unwrap();
        let ordered = g.stmts_in_order();
        for (i, info) in ordered.iter().enumerate() {
            assert_eq!(info.order, i);
        }
        assert_eq!(ordered.len(), g.len());
    }

    #[test]
    fn expression_ids_and_other_functions_ids_have_no_info() {
        let src = "int g(int x) { return x + 1; }\n".to_string() + NESTED;
        let (_f, graphs, unit) = graphs(&src);
        let g = graphs.function("compute").unwrap();
        let func = unit.function("compute").unwrap();
        let mut exprs = 0;
        func.body.as_ref().unwrap().walk(&mut |s| {
            for e in s.direct_exprs() {
                e.walk(&mut |e| {
                    assert!(g.info(e.id).is_none(), "expression {:?}", e.id);
                    exprs += 1;
                });
            }
        });
        assert!(exprs > 10);
        let other = unit.function("g").unwrap();
        other.body.as_ref().unwrap().walk(&mut |s| {
            assert!(g.info(s.id).is_none());
            assert!(graphs.function("g").unwrap().info(s.id).is_some());
        });
        for id in [func.id, other.id, NodeId(0), NodeId(u32::MAX)] {
            assert!(g.info(id).is_none(), "{id:?}");
        }
    }

    #[test]
    fn subtree_extents_follow_the_statement_nesting() {
        let (_f, graphs, unit) = graphs(NESTED);
        let g = graphs.function("compute").unwrap();
        let body = unit.function("compute").unwrap().body.as_ref().unwrap();
        assert_eq!(g.info(body.id).unwrap().end, g.len());
        body.walk(&mut |s| {
            let info = g.info(s.id).unwrap();
            let mut inside = Vec::new();
            s.walk(&mut |d| inside.push(d.id));
            assert_eq!(info.end - info.order, inside.len());
            for other in g.stmts_in_order() {
                let contained = inside[1..].contains(&other.id);
                assert_eq!(g.encloses(s.id, other.id), contained);
            }
            let loops: Vec<NodeId> = g.loops_outward(s.id).collect();
            for l in &loops {
                assert!(g.encloses(*l, s.id));
            }
            assert_eq!(
                loops.len(),
                (g.loops().iter()).filter(|l| g.encloses(**l, s.id)).count()
            );
        });
    }

    /// The index of `f` in `src`, with its statements' kind tags in source
    /// order and each statement's loop depth.
    fn indexed(src: &str) -> (StmtIndex, Vec<StmtKindTag>, Vec<usize>) {
        let (_f, graphs, _unit) = graphs(src);
        let g = graphs.function("f").unwrap().clone();
        let tags = g.stmts_in_order().iter().map(|s| s.kind).collect();
        let depths = (g.stmts_in_order().iter())
            .map(|s| g.loops_outward(s.id).count())
            .collect();
        (g, tags, depths)
    }

    /// The statements of one kind, in source order.
    fn of_kind(g: &StmtIndex, kind: StmtKindTag) -> Vec<&StmtInfo> {
        (g.stmts_in_order().iter())
            .filter(|s| s.kind == kind)
            .collect()
    }

    use StmtKindTag::*;

    #[test]
    fn straight_line_code_has_no_loops_or_kernels() {
        let (g, tags, depths) = indexed("int f() { int a = 1; a += 2; return a; }\n");
        assert_eq!(tags, [Compound, Decl, Expr, Return]);
        assert_eq!(depths, [0; 4]);
        assert!(g.loops().is_empty() && g.kernels().is_empty() && g.updates().is_empty());
        assert!(g.stmts_in_order().iter().all(|s| !s.offloaded));
    }

    #[test]
    fn if_else_branches_are_children_of_the_if() {
        let (g, tags, depths) = indexed(
            "int f(int x) { int r = 0; if (x > 0) { r = 1; } else { r = 2; } return r; }\n",
        );
        assert_eq!(
            tags,
            [Compound, Decl, If, Compound, Expr, Compound, Expr, Return]
        );
        assert_eq!(depths, [0; 8]);
        let branch = of_kind(&g, If)[0];
        assert_eq!(branch.end - branch.order, 5);
        for arm in of_kind(&g, Compound).into_iter().skip(1) {
            assert_eq!(arm.parent, Some(branch.id));
        }
        let body = g.stmts_in_order()[0].id;
        assert_eq!(of_kind(&g, Return)[0].parent, Some(body));
    }

    #[test]
    fn for_loop_body_is_one_loop_deep() {
        let (g, tags, depths) = indexed(
            "int f(int n) { int s = 0; for (int i = 0; i < n; i++) { s += i; } return s; }\n",
        );
        assert_eq!(tags, [Compound, Decl, ForLoop, Compound, Expr, Return]);
        assert_eq!(depths, [0, 0, 0, 1, 1, 0]);
        assert_eq!(g.loops(), [of_kind(&g, ForLoop)[0].id]);
        assert_eq!(of_kind(&g, Expr)[0].enclosing_loop, Some(g.loops()[0]));
    }

    #[test]
    fn nested_loops_track_depth() {
        let (g, tags, depths) = indexed(
            "void f(int n) { for (int i = 0; i < n; i++) { for (int j = 0; j < n; j++) { int x = i * j; } } }\n",
        );
        assert_eq!(tags, [Compound, ForLoop, Compound, ForLoop, Compound, Decl]);
        assert_eq!(depths, [0, 0, 1, 1, 2, 2]);
        let decl = of_kind(&g, Decl)[0].id;
        let outward: Vec<NodeId> = g.loops_outward(decl).collect();
        assert_eq!(outward, [g.loops()[1], g.loops()[0]]);
    }

    #[test]
    fn while_and_do_while() {
        let (g, tags, depths) = indexed(
            "void f(int n) { int i = 0; while (i < n) { i++; } do { i--; } while (i > 0); }\n",
        );
        assert_eq!(
            tags,
            [
                Compound,
                Decl,
                WhileLoop,
                Compound,
                Expr,
                DoWhileLoop,
                Compound,
                Expr
            ]
        );
        assert_eq!(depths, [0, 0, 0, 1, 1, 0, 1, 1]);
        let (w, d) = (of_kind(&g, WhileLoop)[0].id, of_kind(&g, DoWhileLoop)[0].id);
        assert_eq!(g.loops(), [w, d]);
        assert!(WhileLoop.is_loop() && DoWhileLoop.is_loop());
        let exprs = of_kind(&g, Expr);
        assert_eq!(exprs[0].enclosing_loop, Some(w));
        assert_eq!(exprs[1].enclosing_loop, Some(d));
    }

    #[test]
    fn break_and_continue_inside_nested_loops() {
        let (g, tags, depths) = indexed(
            "void f(int n) { for (int i = 0; i < n; i++) { while (n > i) { \
             if (i == 3) break; if (i % 2) continue; n--; } int y = i; } }\n",
        );
        assert_eq!(
            tags,
            [
                Compound, ForLoop, Compound, WhileLoop, Compound, If, Break, If, Continue, Expr,
                Decl
            ]
        );
        assert_eq!(depths, [0, 0, 1, 1, 2, 2, 2, 2, 2, 2, 1]);
        let inner = of_kind(&g, WhileLoop)[0].id;
        let jumps = [of_kind(&g, Break)[0], of_kind(&g, Continue)[0]];
        for jump in jumps {
            assert_eq!(jump.enclosing_loop, Some(inner));
            assert_eq!(g.info(jump.parent.unwrap()).unwrap().kind, If);
        }
    }

    #[test]
    fn early_return_inside_nested_loops() {
        let (g, tags, depths) = indexed(
            "int f(int n) { for (int i = 0; i < n; i++) { for (int j = 0; j < n; j++) { \
             if (i * j > 4) return 1; } } return 0; }\n",
        );
        assert_eq!(
            tags,
            [Compound, ForLoop, Compound, ForLoop, Compound, If, Return, Return]
        );
        assert_eq!(depths, [0, 0, 1, 1, 2, 2, 2, 0]);
        let returns = of_kind(&g, Return);
        let outward: Vec<NodeId> = g.loops_outward(returns[0].id).collect();
        assert_eq!(outward, [g.loops()[1], g.loops()[0]]);
        assert_eq!(returns[1].parent, Some(g.stmts_in_order()[0].id));
    }

    #[test]
    fn switch_statement_branches() {
        let (g, tags, depths) = indexed(
            "int f(int x) { int r = 0; switch (x) { case 1: r = 1; break; \
             case 2: r = 2; break; default: r = 3; } return r; }\n",
        );
        assert_eq!(
            tags,
            [
                Compound, Decl, Switch, Compound, Other, Expr, Break, Other, Expr, Break, Other,
                Expr, Return
            ]
        );
        // A switch is no loop: its `break`s leave no loop behind.
        assert_eq!(depths, [0; 13]);
        assert!(g.loops().is_empty() && !Switch.is_loop());
        let switch = of_kind(&g, Switch)[0];
        assert_eq!(switch.end - switch.order, 10);
    }

    #[test]
    fn kernel_statements_are_marked_offloaded() {
        let (g, tags, depths) = indexed(
            "void f(double *a, int n) {
  #pragma omp target teams distribute parallel for
  for (int i = 0; i < n; i++) a[i] = 2.0 * a[i];
  for (int i = 0; i < n; i++) a[i] += 1.0;
}
",
        );
        assert_eq!(tags, [Compound, OmpKernel, ForLoop, Expr, ForLoop, Expr]);
        assert_eq!(depths, [0, 0, 0, 1, 0, 1]);
        let kernel = g.kernels()[0];
        let offloaded: Vec<StmtKindTag> = (g.stmts_in_order().iter())
            .filter(|s| s.offloaded)
            .map(|s| s.kind)
            .collect();
        assert_eq!(offloaded, [ForLoop, Expr]);
        for s in g.stmts_in_order().iter().filter(|s| s.offloaded) {
            assert_eq!(s.enclosing_kernel, Some(kernel));
        }
        assert!(!g.info(g.loops()[1]).unwrap().offloaded);
    }

    #[test]
    fn target_data_region_encloses_its_kernel_and_update() {
        let (g, tags, depths) = indexed(
            "void f(double *a, int n) {
  #pragma omp target data map(tofrom: a[0:n])
  {
    #pragma omp target
    for (int i = 0; i < n; i++) a[i] += 1.0;
    #pragma omp target update from(a[0:n])
  }
}
",
        );
        assert_eq!(
            tags,
            [
                Compound,
                OmpTargetData,
                Compound,
                OmpKernel,
                ForLoop,
                Expr,
                OmpTargetUpdate
            ]
        );
        assert_eq!(depths, [0, 0, 0, 0, 0, 1, 0]);
        let region = of_kind(&g, OmpTargetData)[0].id;
        for id in [g.kernels()[0], g.updates()[0]] {
            assert!(g.encloses(region, id));
            assert_eq!(g.info(id).unwrap().enclosing_data_region, Some(region));
        }
        assert!(!g.info(g.updates()[0]).unwrap().offloaded);
    }
}
