//! Statement index and the hybrid AST-CFG.
//!
//! The paper combines the Clang AST with the per-function CFG into a hybrid
//! "AST-CFG" (Section IV-B, Figure 2): CFG nodes are linked to the AST nodes
//! they execute so that data-flow traversals can consult structural
//! information (enclosing loops, array subscripts, loop bounds) on demand.
//!
//! [`StmtIndex`] is the AST side of that structure: for every statement it
//! records the innermost enclosing loop, the enclosing offload kernel and
//! `target data` region (if any), the parent statement, a stable source
//! order and the extent of the statement's subtree in that order, in a
//! dense table addressed by statement id ([`NodeTable`]). [`AstCfg`] pairs
//! it with the [`Cfg`] for the same function.

use crate::cfg::Cfg;
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
    /// `target data` regions in source order.
    data_regions: Vec<NodeId>,
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
            StmtKindTag::OmpTargetData => {
                self.data_regions.push(stmt.id);
                inner.data_region = Some(stmt.id);
            }
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

    /// `target data` regions in source order.
    pub fn data_regions(&self) -> &[NodeId] {
        &self.data_regions
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

/// The hybrid AST-CFG for one function: the control-flow graph plus the
/// statement index that links graph nodes back to structural AST facts.
#[derive(Clone, Debug)]
pub struct AstCfg {
    pub cfg: Cfg,
    pub index: StmtIndex,
}

impl AstCfg {
    /// Build the hybrid representation for a function definition.
    pub fn build(func: &FunctionDef) -> Option<AstCfg> {
        let body = func.body.as_ref()?;
        Some(AstCfg {
            cfg: Cfg::build(&func.name, body),
            index: StmtIndex::build(func),
        })
    }

    /// The function name.
    pub fn function(&self) -> &str {
        &self.cfg.function
    }

    /// Number of offload kernels in the function.
    pub fn kernel_count(&self) -> usize {
        self.index.kernels().len()
    }

    /// True if the function contains at least one offload kernel.
    pub fn has_kernels(&self) -> bool {
        self.kernel_count() > 0
    }
}

/// Hybrid AST-CFGs for every function definition in a translation unit.
#[derive(Clone, Debug, Default)]
pub struct ProgramGraphs {
    pub functions: Vec<AstCfg>,
}

impl ProgramGraphs {
    /// Build graphs for every function with a body.
    pub fn build(unit: &TranslationUnit) -> ProgramGraphs {
        let functions = unit.functions().filter_map(AstCfg::build).collect();
        ProgramGraphs { functions }
    }

    /// The graph for a specific function: interned names compare as
    /// integers.
    pub fn function(&self, name: impl Into<Symbol>) -> Option<&AstCfg> {
        let name = name.into();
        self.functions.iter().find(|g| g.index.function == name)
    }

    /// Total number of offload kernels across the program.
    pub fn total_kernels(&self) -> usize {
        self.functions.iter().map(|g| g.kernel_count()).sum()
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
        assert_eq!(g.kernel_count(), 1);
        assert_eq!(g.index.loops().len(), 3);
        assert_eq!(graphs.total_kernels(), 1);
        // kernels() precede the host loops in source order
        let order = |id| g.index.info(id).unwrap().order;
        assert!(order(g.index.kernels()[0]) < order(g.index.loops()[1]));
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
                let info = g.index.info(s.id).unwrap();
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
        let mut loops: Vec<NodeId> = g.index.loops_outward(target).collect();
        loops.reverse();
        assert_eq!(loops.len(), 2);
        // outermost (j loop) first, and it encloses the k loop
        assert!(g.index.encloses(loops[0], loops[1]));
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
        assert_eq!(g.index.data_regions().len(), 1);
        assert_eq!(g.index.updates().len(), 1);
        // the update is inside the data region
        let upd = g.index.updates()[0];
        assert_eq!(
            g.index.info(upd).unwrap().enclosing_data_region,
            Some(g.index.data_regions()[0])
        );
    }

    #[test]
    fn parent_chain_is_recorded() {
        let (_f, graphs, unit) = graphs(NESTED);
        let g = graphs.function("compute").unwrap();
        let func = unit.function("compute").unwrap();
        let body = func.body.as_ref().unwrap();
        // The function body has no parent; everything else does.
        assert!(g.index.info(body.id).unwrap().parent.is_none());
        let mut checked = 0;
        body.walk(&mut |s| {
            if s.id != body.id {
                assert!(g.index.info(s.id).unwrap().parent.is_some());
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
        let ordered = g.index.stmts_in_order();
        for (i, info) in ordered.iter().enumerate() {
            assert_eq!(info.order, i);
        }
        assert_eq!(ordered.len(), g.index.len());
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
                    assert!(g.index.info(e.id).is_none(), "expression {:?}", e.id);
                    exprs += 1;
                });
            }
        });
        assert!(exprs > 10);
        let other = unit.function("g").unwrap();
        other.body.as_ref().unwrap().walk(&mut |s| {
            assert!(g.index.info(s.id).is_none());
            assert!(graphs.function("g").unwrap().index.info(s.id).is_some());
        });
        for id in [func.id, other.id, NodeId(0), NodeId(u32::MAX)] {
            assert!(g.index.info(id).is_none(), "{id:?}");
        }
    }

    #[test]
    fn subtree_extents_follow_the_statement_nesting() {
        let (_f, graphs, unit) = graphs(NESTED);
        let g = graphs.function("compute").unwrap();
        let body = unit.function("compute").unwrap().body.as_ref().unwrap();
        assert_eq!(g.index.info(body.id).unwrap().end, g.index.len());
        body.walk(&mut |s| {
            let info = g.index.info(s.id).unwrap();
            let mut inside = Vec::new();
            s.walk(&mut |d| inside.push(d.id));
            assert_eq!(info.end - info.order, inside.len());
            for other in g.index.stmts_in_order() {
                let contained = inside[1..].contains(&other.id);
                assert_eq!(g.index.encloses(s.id, other.id), contained);
            }
            let loops: Vec<NodeId> = g.index.loops_outward(s.id).collect();
            for l in &loops {
                assert!(g.index.encloses(*l, s.id));
            }
            assert_eq!(
                loops.len(),
                (g.index.loops().iter())
                    .filter(|l| g.index.encloses(**l, s.id))
                    .count()
            );
        });
    }
}
