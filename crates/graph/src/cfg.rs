//! Control-flow graph construction for MiniC functions.
//!
//! The CFG mirrors Clang's per-function CFG as used by OMPDart (Section
//! IV-B of the paper): nodes correspond to statements / conditions, edges
//! carry branch labels, loops introduce back edges, and every node records
//! whether it executes inside an offloaded (device) region.

use ompdart_frontend::ast::{ForInit, NodeId, Stmt, StmtKind};
use std::fmt;

/// Identifier of a CFG node within one function's graph.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CfgNodeId(pub u32);

impl fmt::Debug for CfgNodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// The role a CFG node plays.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CfgNodeKind {
    /// Function entry.
    Entry,
    /// Function exit.
    Exit,
    /// A plain statement (expression, declaration, return, ...).
    Statement,
    /// A branch condition (if/while/for/do/switch condition).
    Condition,
    /// The head of a loop (where back edges return to).
    LoopHead,
    /// An OpenMP offload kernel launch.
    Kernel,
    /// An OpenMP data-environment directive (`target data`, `target update`,
    /// `target enter/exit data`).
    DataDirective,
    /// A synthetic join point after branches.
    Join,
}

/// Label on a CFG edge.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EdgeKind {
    /// Ordinary fall-through.
    Seq,
    /// Branch taken when the condition is true.
    True,
    /// Branch taken when the condition is false.
    False,
    /// Loop back edge.
    Back,
}

/// A node of the CFG.
#[derive(Clone, Debug)]
pub struct CfgNode {
    pub id: CfgNodeId,
    pub kind: CfgNodeKind,
    /// The AST statement this node corresponds to (if any).
    pub stmt: Option<NodeId>,
    /// True if the node executes on the device (inside an offload kernel).
    pub offloaded: bool,
    /// Nesting depth of loops enclosing this node (0 = not in a loop).
    pub loop_depth: u32,
    /// Human-readable label used by tests and `to_dot`. Almost every
    /// label is a static literal; only pass-through OMP directives format
    /// one, so node construction is allocation-free in the common case.
    pub label: std::borrow::Cow<'static, str>,
}

/// A directed edge of the CFG.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CfgEdge {
    pub from: CfgNodeId,
    pub to: CfgNodeId,
    pub kind: EdgeKind,
}

/// A per-function control-flow graph.
#[derive(Clone, Debug)]
pub struct Cfg {
    pub function: String,
    nodes: Vec<CfgNode>,
    edges: Vec<CfgEdge>,
    entry: CfgNodeId,
    exit: CfgNodeId,
    // Compressed adjacency (CSR): node `i`'s successors are
    // `succ_adj[succ_off[i]..succ_off[i+1]]`. Two offset arrays and two
    // edge arrays per function instead of a Vec per node.
    succ_off: Vec<u32>,
    succ_adj: Vec<CfgNodeId>,
    pred_off: Vec<u32>,
    pred_adj: Vec<CfgNodeId>,
}

impl Cfg {
    /// Build the CFG for a function body.
    pub fn build(function: &str, body: &Stmt) -> Cfg {
        Builder::new(function).build(body)
    }

    pub fn entry(&self) -> CfgNodeId {
        self.entry
    }

    pub fn exit(&self) -> CfgNodeId {
        self.exit
    }

    pub fn nodes(&self) -> &[CfgNode] {
        &self.nodes
    }

    pub fn edges(&self) -> &[CfgEdge] {
        &self.edges
    }

    pub fn node(&self, id: CfgNodeId) -> &CfgNode {
        &self.nodes[id.0 as usize]
    }

    /// Node count (including entry/exit/join nodes).
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Successors of a node.
    pub fn successors(&self, id: CfgNodeId) -> &[CfgNodeId] {
        let i = id.0 as usize;
        &self.succ_adj[self.succ_off[i] as usize..self.succ_off[i + 1] as usize]
    }

    /// Predecessors of a node.
    pub fn predecessors(&self, id: CfgNodeId) -> &[CfgNodeId] {
        let i = id.0 as usize;
        &self.pred_adj[self.pred_off[i] as usize..self.pred_off[i + 1] as usize]
    }

    /// All nodes that execute on the device.
    pub fn offloaded_nodes(&self) -> impl Iterator<Item = &CfgNode> {
        self.nodes.iter().filter(|n| n.offloaded)
    }

    /// All kernel-launch nodes, in construction (source) order.
    pub fn kernel_nodes(&self) -> impl Iterator<Item = &CfgNode> {
        self.nodes.iter().filter(|n| n.kind == CfgNodeKind::Kernel)
    }

    /// True if every node is reachable from the entry node.
    pub fn all_reachable(&self) -> bool {
        let reached = self.reachable_from(self.entry);
        // Join/exit nodes after `return`-only branches may legitimately be
        // unreachable; we only require statement-bearing nodes to be reached.
        self.nodes
            .iter()
            .filter(|n| n.stmt.is_some())
            .all(|n| reached.contains(&n.id))
    }

    /// The set of node ids reachable from `start`.
    pub fn reachable_from(&self, start: CfgNodeId) -> Vec<CfgNodeId> {
        let mut seen = vec![false; self.nodes.len()];
        let mut stack = vec![start];
        let mut out = Vec::new();
        while let Some(id) = stack.pop() {
            if seen[id.0 as usize] {
                continue;
            }
            seen[id.0 as usize] = true;
            out.push(id);
            for &s in self.successors(id) {
                if !seen[s.0 as usize] {
                    stack.push(s);
                }
            }
        }
        out
    }

    /// Reverse post-order over the nodes reachable from entry.
    pub fn reverse_post_order(&self) -> Vec<CfgNodeId> {
        let mut visited = vec![false; self.nodes.len()];
        let mut post = Vec::new();
        self.post_order_visit(self.entry, &mut visited, &mut post);
        post.reverse();
        post
    }

    fn post_order_visit(&self, id: CfgNodeId, visited: &mut Vec<bool>, post: &mut Vec<CfgNodeId>) {
        if visited[id.0 as usize] {
            return;
        }
        visited[id.0 as usize] = true;
        for &s in self.successors(id) {
            self.post_order_visit(s, visited, post);
        }
        post.push(id);
    }

    /// All back edges in the graph.
    pub fn back_edges(&self) -> Vec<CfgEdge> {
        self.edges
            .iter()
            .copied()
            .filter(|e| e.kind == EdgeKind::Back)
            .collect()
    }

    /// Emit the graph in Graphviz DOT format (useful for debugging and for
    /// the examples that visualize the hybrid AST-CFG).
    pub fn to_dot(&self) -> String {
        let mut out = format!("digraph \"{}\" {{\n", self.function);
        for n in &self.nodes {
            let shape = match n.kind {
                CfgNodeKind::Entry | CfgNodeKind::Exit => "oval",
                CfgNodeKind::Condition | CfgNodeKind::LoopHead => "diamond",
                CfgNodeKind::Kernel => "box3d",
                _ => "box",
            };
            let style = if n.offloaded {
                ", style=filled, fillcolor=lightblue"
            } else {
                ""
            };
            out.push_str(&format!(
                "  n{} [label=\"{}\", shape={}{}];\n",
                n.id.0, n.label, shape, style
            ));
        }
        for e in &self.edges {
            let label = match e.kind {
                EdgeKind::Seq => "",
                EdgeKind::True => " [label=\"T\"]",
                EdgeKind::False => " [label=\"F\"]",
                EdgeKind::Back => " [style=dashed]",
            };
            out.push_str(&format!("  n{} -> n{}{};\n", e.from.0, e.to.0, label));
        }
        out.push_str("}\n");
        out
    }
}

struct Builder {
    function: String,
    nodes: Vec<CfgNode>,
    edges: Vec<CfgEdge>,
    entry: CfgNodeId,
    exit: CfgNodeId,
    break_targets: Vec<CfgNodeId>,
    continue_targets: Vec<CfgNodeId>,
    offload_depth: u32,
    loop_depth: u32,
}

impl Builder {
    fn new(function: &str) -> Builder {
        let mut b = Builder {
            function: function.to_string(),
            nodes: Vec::new(),
            edges: Vec::new(),
            entry: CfgNodeId(0),
            exit: CfgNodeId(0),
            break_targets: Vec::new(),
            continue_targets: Vec::new(),
            offload_depth: 0,
            loop_depth: 0,
        };
        b.entry = b.add_node(CfgNodeKind::Entry, None, "entry");
        b.exit = b.add_node(CfgNodeKind::Exit, None, "exit");
        b
    }

    fn add_node(
        &mut self,
        kind: CfgNodeKind,
        stmt: Option<NodeId>,
        label: impl Into<std::borrow::Cow<'static, str>>,
    ) -> CfgNodeId {
        let id = CfgNodeId(self.nodes.len() as u32);
        self.nodes.push(CfgNode {
            id,
            kind,
            stmt,
            offloaded: self.offload_depth > 0,
            loop_depth: self.loop_depth,
            label: label.into(),
        });
        id
    }

    fn add_edge(&mut self, from: CfgNodeId, to: CfgNodeId, kind: EdgeKind) {
        if !self
            .edges
            .iter()
            .any(|e| e.from == from && e.to == to && e.kind == kind)
        {
            self.edges.push(CfgEdge { from, to, kind });
        }
    }

    fn build(mut self, body: &Stmt) -> Cfg {
        let last = self.lower_stmt(body, self.entry, EdgeKind::Seq);
        let exit = self.exit;
        self.add_edge(last, exit, EdgeKind::Seq);
        // Counting-sort the edge list into CSR form; within one node the
        // adjacency preserves edge-insertion order, exactly as the pushes
        // into the old per-node Vecs did.
        let n = self.nodes.len();
        let csr = |key: &dyn Fn(&CfgEdge) -> usize, val: &dyn Fn(&CfgEdge) -> CfgNodeId| {
            let mut off = vec![0u32; n + 1];
            for e in &self.edges {
                off[key(e) + 1] += 1;
            }
            for i in 0..n {
                off[i + 1] += off[i];
            }
            let mut cursor = off.clone();
            let mut adj = vec![CfgNodeId(0); self.edges.len()];
            for e in &self.edges {
                let k = key(e);
                adj[cursor[k] as usize] = val(e);
                cursor[k] += 1;
            }
            (off, adj)
        };
        let (succ_off, succ_adj) = csr(&|e| e.from.0 as usize, &|e| e.to);
        let (pred_off, pred_adj) = csr(&|e| e.to.0 as usize, &|e| e.from);
        Cfg {
            function: self.function,
            nodes: self.nodes,
            edges: self.edges,
            entry: self.entry,
            exit: self.exit,
            succ_off,
            succ_adj,
            pred_off,
            pred_adj,
        }
    }

    /// Lower one statement; `pred` is the node control arrives from via an
    /// edge of kind `in_kind`. Returns the node from which control continues.
    fn lower_stmt(&mut self, stmt: &Stmt, pred: CfgNodeId, in_kind: EdgeKind) -> CfgNodeId {
        match &stmt.kind {
            StmtKind::Compound(items) => {
                let mut cur = pred;
                let mut kind = in_kind;
                for s in items {
                    cur = self.lower_stmt(s, cur, kind);
                    kind = EdgeKind::Seq;
                }
                cur
            }
            StmtKind::Expr(_)
            | StmtKind::Decl(_)
            | StmtKind::Empty
            | StmtKind::Case { .. }
            | StmtKind::Default => {
                let node = self.add_node(CfgNodeKind::Statement, Some(stmt.id), label_of(stmt));
                self.add_edge(pred, node, in_kind);
                node
            }
            StmtKind::Return(_) => {
                let node = self.add_node(CfgNodeKind::Statement, Some(stmt.id), "return");
                self.add_edge(pred, node, in_kind);
                let exit = self.exit;
                self.add_edge(node, exit, EdgeKind::Seq);
                // Control does not continue past a return; a synthetic
                // unreachable join keeps the builder simple.
                self.add_node(CfgNodeKind::Join, None, "after-return")
            }
            StmtKind::Break => {
                let node = self.add_node(CfgNodeKind::Statement, Some(stmt.id), "break");
                self.add_edge(pred, node, in_kind);
                if let Some(&target) = self.break_targets.last() {
                    self.add_edge(node, target, EdgeKind::Seq);
                }
                self.add_node(CfgNodeKind::Join, None, "after-break")
            }
            StmtKind::Continue => {
                let node = self.add_node(CfgNodeKind::Statement, Some(stmt.id), "continue");
                self.add_edge(pred, node, in_kind);
                if let Some(&target) = self.continue_targets.last() {
                    self.add_edge(node, target, EdgeKind::Back);
                }
                self.add_node(CfgNodeKind::Join, None, "after-continue")
            }
            StmtKind::If {
                then_branch,
                else_branch,
                ..
            } => {
                let cond = self.add_node(CfgNodeKind::Condition, Some(stmt.id), "if");
                self.add_edge(pred, cond, in_kind);
                let join = self.add_node(CfgNodeKind::Join, None, "endif");
                let then_end = self.lower_stmt(then_branch, cond, EdgeKind::True);
                self.add_edge(then_end, join, EdgeKind::Seq);
                match else_branch {
                    Some(e) => {
                        let else_end = self.lower_stmt(e, cond, EdgeKind::False);
                        self.add_edge(else_end, join, EdgeKind::Seq);
                    }
                    None => {
                        self.add_edge(cond, join, EdgeKind::False);
                    }
                }
                join
            }
            StmtKind::While { body, .. } => {
                let head = self.add_node(CfgNodeKind::LoopHead, Some(stmt.id), "while");
                self.add_edge(pred, head, in_kind);
                let join = self.add_node(CfgNodeKind::Join, None, "endwhile");
                self.break_targets.push(join);
                self.continue_targets.push(head);
                self.loop_depth += 1;
                let body_end = self.lower_stmt(body, head, EdgeKind::True);
                self.loop_depth -= 1;
                self.break_targets.pop();
                self.continue_targets.pop();
                self.add_edge(body_end, head, EdgeKind::Back);
                self.add_edge(head, join, EdgeKind::False);
                join
            }
            StmtKind::DoWhile { body, .. } => {
                let head = self.add_node(CfgNodeKind::LoopHead, Some(stmt.id), "do");
                self.add_edge(pred, head, in_kind);
                let cond = self.add_node(CfgNodeKind::Condition, Some(stmt.id), "do-cond");
                let join = self.add_node(CfgNodeKind::Join, None, "enddo");
                self.break_targets.push(join);
                self.continue_targets.push(cond);
                self.loop_depth += 1;
                let body_end = self.lower_stmt(body, head, EdgeKind::Seq);
                self.loop_depth -= 1;
                self.break_targets.pop();
                self.continue_targets.pop();
                self.add_edge(body_end, cond, EdgeKind::Seq);
                self.add_edge(cond, head, EdgeKind::Back);
                self.add_edge(cond, join, EdgeKind::False);
                join
            }
            StmtKind::For { init, body, .. } => {
                let mut cur = pred;
                let mut kind = in_kind;
                if init.is_some() {
                    let init_node =
                        self.add_node(CfgNodeKind::Statement, Some(stmt.id), "for-init");
                    self.add_edge(cur, init_node, kind);
                    cur = init_node;
                    kind = EdgeKind::Seq;
                }
                let head = self.add_node(CfgNodeKind::LoopHead, Some(stmt.id), "for");
                self.add_edge(cur, head, kind);
                let join = self.add_node(CfgNodeKind::Join, None, "endfor");
                let inc = self.add_node(CfgNodeKind::Statement, Some(stmt.id), "for-inc");
                self.break_targets.push(join);
                self.continue_targets.push(inc);
                self.loop_depth += 1;
                let body_end = self.lower_stmt(body, head, EdgeKind::True);
                self.loop_depth -= 1;
                self.break_targets.pop();
                self.continue_targets.pop();
                self.add_edge(body_end, inc, EdgeKind::Seq);
                self.add_edge(inc, head, EdgeKind::Back);
                self.add_edge(head, join, EdgeKind::False);
                let _ = ForInit::Expr; // silence unused import pattern in some cfgs
                join
            }
            StmtKind::Switch { body, .. } => {
                let cond = self.add_node(CfgNodeKind::Condition, Some(stmt.id), "switch");
                self.add_edge(pred, cond, in_kind);
                let join = self.add_node(CfgNodeKind::Join, None, "endswitch");
                self.break_targets.push(join);
                let first_body_node = self.nodes.len();
                let body_end = self.lower_stmt(body, cond, EdgeKind::True);
                self.break_targets.pop();
                self.add_edge(body_end, join, EdgeKind::Seq);
                // Every case/default label is a jump target of the switch
                // condition.
                let case_targets: Vec<CfgNodeId> = self.nodes[first_body_node..]
                    .iter()
                    .filter(|n| n.label == "case" || n.label == "default")
                    .map(|n| n.id)
                    .collect();
                for target in case_targets {
                    self.add_edge(cond, target, EdgeKind::True);
                }
                // Fall-through path for unmatched cases.
                self.add_edge(cond, join, EdgeKind::False);
                join
            }
            StmtKind::Omp(dir) => {
                if dir.kind.is_offload_kernel() {
                    let kernel = self.add_node(CfgNodeKind::Kernel, Some(stmt.id), "kernel");
                    self.add_edge(pred, kernel, in_kind);
                    self.offload_depth += 1;
                    let end = match &dir.body {
                        Some(body) => self.lower_stmt(body, kernel, EdgeKind::Seq),
                        None => kernel,
                    };
                    self.offload_depth -= 1;
                    end
                } else if dir.kind.is_standalone() {
                    let node =
                        self.add_node(CfgNodeKind::DataDirective, Some(stmt.id), "data-directive");
                    self.add_edge(pred, node, in_kind);
                    node
                } else {
                    // target data (or host-side parallel constructs): control
                    // flows straight through the region.
                    let node = self.add_node(
                        if dir.kind.is_data_directive() {
                            CfgNodeKind::DataDirective
                        } else {
                            CfgNodeKind::Statement
                        },
                        Some(stmt.id),
                        std::borrow::Cow::Owned(format!("omp {}", dir.kind.directive_text())),
                    );
                    self.add_edge(pred, node, in_kind);
                    match &dir.body {
                        Some(body) => self.lower_stmt(body, node, EdgeKind::Seq),
                        None => node,
                    }
                }
            }
        }
    }
}

fn label_of(stmt: &Stmt) -> &'static str {
    match &stmt.kind {
        StmtKind::Expr(_) => "expr",
        StmtKind::Decl(_) => "decl",
        StmtKind::Empty => "empty",
        StmtKind::Case { .. } => "case",
        StmtKind::Default => "default",
        _ => "stmt",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ompdart_frontend::parser::parse_str;

    fn cfg_of(src: &str, func: &str) -> Cfg {
        let (_file, result) = parse_str("t.c", src);
        assert!(result.is_ok(), "{:?}", result.diagnostics);
        let f = result.unit.function(func).unwrap();
        Cfg::build(func, f.body.as_ref().unwrap())
    }

    #[test]
    fn straight_line_code() {
        let cfg = cfg_of("int f() { int a = 1; a += 2; return a; }\n", "f");
        assert!(cfg.all_reachable());
        assert_eq!(cfg.kernel_nodes().count(), 0);
        assert!(cfg.back_edges().is_empty());
        // entry -> decl -> expr -> return -> exit is a simple chain.
        let rpo = cfg.reverse_post_order();
        assert_eq!(rpo[0], cfg.entry());
    }

    #[test]
    fn if_else_creates_branch_and_join() {
        let cfg = cfg_of(
            "int f(int x) { int r = 0; if (x > 0) { r = 1; } else { r = 2; } return r; }\n",
            "f",
        );
        assert!(cfg.all_reachable());
        let cond = cfg
            .nodes()
            .iter()
            .find(|n| n.kind == CfgNodeKind::Condition)
            .unwrap();
        assert_eq!(cfg.successors(cond.id).len(), 2);
        assert!(cfg.back_edges().is_empty());
    }

    #[test]
    fn for_loop_has_back_edge() {
        let cfg = cfg_of(
            "int f(int n) { int s = 0; for (int i = 0; i < n; i++) { s += i; } return s; }\n",
            "f",
        );
        assert!(cfg.all_reachable());
        assert_eq!(cfg.back_edges().len(), 1);
        let head = cfg
            .nodes()
            .iter()
            .find(|n| n.kind == CfgNodeKind::LoopHead)
            .unwrap();
        assert!(head.loop_depth == 0);
        // The loop body node has loop_depth 1.
        assert!(cfg.nodes().iter().any(|n| n.loop_depth == 1));
    }

    #[test]
    fn nested_loops_track_depth() {
        let cfg = cfg_of(
            "void f(int n) { for (int i = 0; i < n; i++) { for (int j = 0; j < n; j++) { int x = i * j; } } }\n",
            "f",
        );
        assert_eq!(cfg.back_edges().len(), 2);
        assert!(cfg.nodes().iter().any(|n| n.loop_depth == 2));
    }

    #[test]
    fn while_and_do_while() {
        let cfg = cfg_of(
            "void f(int n) { int i = 0; while (i < n) { i++; } do { i--; } while (i > 0); }\n",
            "f",
        );
        assert_eq!(cfg.back_edges().len(), 2);
        assert!(cfg.all_reachable());
    }

    #[test]
    fn break_and_continue_edges() {
        let cfg = cfg_of(
            "void f(int n) { for (int i = 0; i < n; i++) { if (i == 3) break; if (i % 2) continue; int y = i; } }\n",
            "f",
        );
        assert!(cfg.all_reachable());
        // continue contributes an extra back edge to the increment node.
        assert!(!cfg.back_edges().is_empty());
    }

    #[test]
    fn kernel_nodes_are_marked_offloaded() {
        let src = "\
void f(double *a, int n) {
  #pragma omp target teams distribute parallel for
  for (int i = 0; i < n; i++) a[i] = 2.0 * a[i];
  for (int i = 0; i < n; i++) a[i] += 1.0;
}
";
        let cfg = cfg_of(src, "f");
        assert_eq!(cfg.kernel_nodes().count(), 1);
        let offloaded: Vec<_> = cfg.offloaded_nodes().collect();
        // kernel node + loop nodes inside it
        assert!(offloaded.len() >= 3);
        // the second (host) loop is not offloaded
        let host_loops = cfg
            .nodes()
            .iter()
            .filter(|n| n.kind == CfgNodeKind::LoopHead && !n.offloaded)
            .count();
        assert_eq!(host_loops, 1);
    }

    #[test]
    fn target_data_region_flows_through() {
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
        let cfg = cfg_of(src, "f");
        assert!(cfg.all_reachable());
        assert_eq!(cfg.kernel_nodes().count(), 1);
        let data_nodes = cfg
            .nodes()
            .iter()
            .filter(|n| n.kind == CfgNodeKind::DataDirective)
            .count();
        assert_eq!(data_nodes, 2); // target data + target update
    }

    #[test]
    fn return_connects_to_exit() {
        let cfg = cfg_of("int f(int x) { if (x) { return 1; } return 0; }\n", "f");
        let exit_preds = cfg.predecessors(cfg.exit());
        assert!(exit_preds.len() >= 2);
    }

    #[test]
    fn dot_output_contains_nodes_and_edges() {
        let cfg = cfg_of("int f() { return 1; }\n", "f");
        let dot = cfg.to_dot();
        assert!(dot.starts_with("digraph"));
        assert!(dot.contains("->"));
        assert!(dot.contains("entry"));
    }

    #[test]
    fn switch_statement_branches() {
        let cfg = cfg_of(
            "int f(int x) { int r = 0; switch (x) { case 1: r = 1; break; case 2: r = 2; break; default: r = 3; } return r; }\n",
            "f",
        );
        assert!(cfg.all_reachable());
        assert!(cfg.nodes().iter().any(|n| n.kind == CfgNodeKind::Condition));
    }
}
