//! Memory-access classification (Section IV-B of the paper).
//!
//! OMPDart begins by parsing the AST to identify the memory accesses
//! associated with each variable reference, grouped by parent function and
//! classified as read, write, read/write, or unknown. Each access records
//! whether it happens on the host or inside an offloaded region, and — for
//! array subscripts — the index expressions, which the access-pattern
//! analysis of Section IV-E consumes.

use crate::interproc::Effect;
use ompdart_frontend::ast::*;
use ompdart_frontend::source::Span;
use ompdart_frontend::Symbol;
use ompdart_graph::{NodeTable, StmtIndex};
use std::collections::{HashMap, HashSet};

/// How a variable is accessed.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum AccessKind {
    Read,
    Write,
    ReadWrite,
    /// The effect cannot be determined (e.g. the address escapes to an
    /// unknown function); treated pessimistically as a read+write.
    Unknown,
}

impl AccessKind {
    /// True if the access may read the current value.
    pub fn may_read(&self) -> bool {
        matches!(
            self,
            AccessKind::Read | AccessKind::ReadWrite | AccessKind::Unknown
        )
    }

    /// True if the access may modify the value.
    pub fn may_write(&self) -> bool {
        matches!(
            self,
            AccessKind::Write | AccessKind::ReadWrite | AccessKind::Unknown
        )
    }

    /// Combine two access kinds affecting the same variable.
    pub fn merge(self, other: AccessKind) -> AccessKind {
        use AccessKind::*;
        match (self, other) {
            (Unknown, _) | (_, Unknown) => Unknown,
            (Read, Read) => Read,
            (Write, Write) => Write,
            _ => ReadWrite,
        }
    }
}

/// Where an [`Access`] record came from. Mapping decisions keep this around
/// so their provenance can say *why* a conservative assumption was made —
/// in particular when the deciding access was never observed in the source
/// but synthesized from the pessimistic unknown-callee fallback.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub enum AccessOrigin {
    /// The function's own expression performed the access.
    #[default]
    Direct,
    /// Synthesized from the interprocedural summary of a known callee.
    /// `cross_unit` is true when the callee's definition lives in another
    /// translation unit of a linked whole-program analysis; `effect` is the
    /// callee's whole summarised effect on the variable, of which this
    /// access replays one step.
    Callee {
        callee: Symbol,
        cross_unit: bool,
        effect: Effect,
    },
    /// Synthesized from the maximally pessimistic fallback for a callee
    /// whose definition is not visible (at best a prototype).
    /// `clobbers_global` is true when the access models the opt-in
    /// "unknown callees clobber globals" mode rather than the default
    /// by-reference-argument fallback.
    UnknownCallee {
        callee: Symbol,
        clobbers_global: bool,
    },
}

/// One classified memory access.
#[derive(Clone, Debug)]
pub struct Access {
    pub var: Symbol,
    pub kind: AccessKind,
    /// Statement in which the access occurs.
    pub stmt: NodeId,
    /// True if the access executes inside an offloaded region.
    pub on_device: bool,
    pub span: Span,
    /// Array subscript index expressions (outermost dimension first), empty
    /// for scalar accesses.
    pub indices: Vec<Expr>,
    /// Whether the access was observed directly or synthesized from a
    /// callee's (possibly assumed) side effects.
    pub origin: AccessOrigin,
}

/// A call site observed during classification; the interprocedural analysis
/// (Section IV-C) expands these into the callee's side effects.
#[derive(Clone, Debug)]
pub struct CallSite {
    pub callee: Symbol,
    pub stmt: NodeId,
    pub on_device: bool,
    pub span: Span,
    /// For every argument: the base variable passed (if the argument is a
    /// simple lvalue or its address) and whether it is passed by reference
    /// (pointer, array, or explicit `&`).
    pub args: Vec<CallArg>,
    /// Set by [`crate::interproc::augment_with_call_effects`] when the
    /// callee resolved to a summary (or is a known library function):
    /// everything it does with its arguments is replayed at the call.
    pub summarised: bool,
}

/// One argument of a call site.
#[derive(Clone, Debug)]
pub struct CallArg {
    pub base_var: Option<Symbol>,
    pub by_ref: bool,
}

/// Lightweight per-function symbol table (parameters, locals, globals).
///
/// Names are resolved at function scope: a parameter or a local declared in
/// the body's outermost block hides a global of the same name for the whole
/// function. A declaration in a nested block that hides an outer one is
/// recorded as a [`Shadow`]: the planner maps names, so it refuses such a
/// name once the device or a callee's effect touches it.
#[derive(Clone, Debug, Default)]
pub struct SymbolTable {
    vars: HashMap<Symbol, Type>,
    params: HashSet<Symbol>,
    /// The globals this function's names resolve to: every global of the
    /// unit no parameter or outermost local hides.
    globals: HashSet<Symbol>,
    shadows: Vec<Shadow>,
}

/// A block declaration that hides an outer local, parameter or global of
/// the same name: one name, two variables.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Shadow {
    pub name: Symbol,
    /// The inner declaration.
    pub inner: Span,
    /// The declaration it hides.
    pub outer: Span,
}

impl SymbolTable {
    /// Build the symbol table for one function within a translation unit.
    pub fn build(unit: &TranslationUnit, func: &FunctionDef) -> SymbolTable {
        let mut table = SymbolTable::default();
        for g in unit.globals() {
            table.vars.insert(g.name, g.ty.clone());
            table.globals.insert(g.name);
        }
        // Parameters and the body's outermost declarations share one scope.
        let mut visible: Vec<(Symbol, Span)> = Vec::new();
        for p in &func.params {
            table.vars.insert(p.name, p.ty.clone());
            table.params.insert(p.name);
            table.globals.remove(&p.name);
            visible.push((p.name, p.span));
        }
        if let Some(StmtKind::Compound(items)) = func.body.as_ref().map(|b| &b.kind) {
            for item in items {
                table.scan(unit, item, &mut visible, None);
            }
        }
        table
    }

    /// Record the declarations of `stmt` and its nested blocks. `visible`
    /// holds the declarations in scope, innermost last; those of the
    /// innermost nested block start at `block` (`None` in the function's
    /// outermost scope).
    fn scan(
        &mut self,
        unit: &TranslationUnit,
        stmt: &Stmt,
        visible: &mut Vec<(Symbol, Span)>,
        block: Option<usize>,
    ) {
        let nested = visible.len();
        match &stmt.kind {
            StmtKind::Decl(decls) => {
                for d in decls {
                    self.declare(unit, d, visible, block);
                }
            }
            StmtKind::Compound(items) => {
                for item in items {
                    self.scan(unit, item, visible, Some(nested));
                }
                visible.truncate(nested);
            }
            StmtKind::For { init, body, .. } => {
                if let Some(ForInit::Decl(decls)) = init.as_deref() {
                    for d in decls {
                        self.declare(unit, d, visible, Some(nested));
                    }
                }
                self.scan(unit, body, visible, Some(nested));
                visible.truncate(nested);
            }
            StmtKind::If {
                then_branch,
                else_branch,
                ..
            } => {
                self.scan(unit, then_branch, visible, block);
                if let Some(e) = else_branch {
                    self.scan(unit, e, visible, block);
                }
            }
            StmtKind::While { body, .. }
            | StmtKind::DoWhile { body, .. }
            | StmtKind::Switch { body, .. } => self.scan(unit, body, visible, block),
            StmtKind::Omp(dir) => {
                if let Some(body) = &dir.body {
                    self.scan(unit, body, visible, block);
                }
            }
            _ => {}
        }
    }

    /// Declare `d` in the innermost scope (see [`Self::scan`]).
    fn declare(
        &mut self,
        unit: &TranslationUnit,
        d: &VarDecl,
        visible: &mut Vec<(Symbol, Span)>,
        block: Option<usize>,
    ) {
        if let Some(block) = block {
            self.vars.entry(d.name).or_insert_with(|| d.ty.clone());
            let is_global = self.globals.contains(&d.name);
            let hidden = (visible[..block].iter().rev())
                .find(|(name, _)| *name == d.name)
                .map(|(_, span)| *span)
                .or_else(|| unit.global(&d.name).filter(|_| is_global).map(|g| g.span));
            if let Some(outer) = hidden {
                self.shadows.push(Shadow {
                    name: d.name,
                    inner: d.span,
                    outer,
                });
            }
        } else {
            // The function's outermost scope: the name is this local for
            // the whole function.
            self.vars.insert(d.name, d.ty.clone());
            self.globals.remove(&d.name);
        }
        visible.push((d.name, d.span));
    }

    /// The block declarations that hide an outer one, in source order.
    pub fn shadows(&self) -> &[Shadow] {
        &self.shadows
    }

    /// True if a callee's effect on the global `name` is this function's
    /// business: its `name` is that global, or it declares no `name` at all
    /// (then nothing here maps it). A parameter or local of that name is
    /// another variable.
    pub fn sees_global(&self, name: impl Into<Symbol>) -> bool {
        let name = name.into();
        self.is_global(name) || self.type_of(name).is_none()
    }

    /// The declared type of a variable, if known.
    pub fn type_of(&self, name: impl Into<Symbol>) -> Option<&Type> {
        self.vars.get(&name.into())
    }

    /// True if the variable's data is an aggregate OpenMP would map as a
    /// block (array, struct, or pointer target).
    pub fn is_aggregate(&self, name: impl Into<Symbol>) -> bool {
        self.type_of(name)
            .map(|t| t.is_mappable_aggregate())
            .unwrap_or(false)
    }

    /// True for plain scalar variables.
    pub fn is_scalar(&self, name: impl Into<Symbol>) -> bool {
        self.type_of(name).map(|t| t.is_scalar()).unwrap_or(false)
    }

    /// True for pointer-typed variables (mapping them requires an array
    /// section because the extent is not part of the type).
    pub fn is_pointer(&self, name: impl Into<Symbol>) -> bool {
        self.type_of(name).map(|t| t.is_pointer()).unwrap_or(false)
    }

    /// True if the variable is a function parameter.
    pub fn is_param(&self, name: impl Into<Symbol>) -> bool {
        self.params.contains(&name.into())
    }

    /// True if the function's `name` is a global: no parameter or outermost
    /// local hides it.
    pub fn is_global(&self, name: impl Into<Symbol>) -> bool {
        self.globals.contains(&name.into())
    }

    /// True if the variable's lifetime extends beyond the function (globals
    /// and data reachable through parameters) so that device-written values
    /// must be copied back before the function returns.
    pub fn escapes(&self, name: impl Into<Symbol>) -> bool {
        let name = name.into();
        self.is_global(name) || (self.is_param(name) && self.is_aggregate(name))
    }

    /// All known variable names.
    pub fn names(&self) -> impl Iterator<Item = Symbol> + '_ {
        self.vars.keys().copied()
    }
}

/// The direct (intra-procedural) accesses of one function plus its call
/// sites.
#[derive(Clone, Debug, Default)]
pub struct FunctionAccesses {
    pub function: Symbol,
    pub accesses: Vec<Access>,
    pub calls: Vec<CallSite>,
    /// Per statement, the positions of its accesses in `accesses`: a dense
    /// table addressed by statement id.
    by_stmt: NodeTable<StmtIndices>,
}

/// Access-index list of one statement: up to [`STMT_IDX_INLINE`] entries
/// live inline, so typical statements cost no heap allocation for their
/// side table — and, crucially, neither does *cloning* it, which the plan
/// stage does once per function per round to layer synthetic call-effect
/// accesses over the cached artifact.
const STMT_IDX_INLINE: usize = 6;

#[derive(Clone, Debug)]
enum StmtIndices {
    Inline {
        len: u8,
        buf: [u32; STMT_IDX_INLINE],
    },
    Spilled(Vec<u32>),
}

impl Default for StmtIndices {
    fn default() -> StmtIndices {
        StmtIndices::Inline {
            len: 0,
            buf: [0; STMT_IDX_INLINE],
        }
    }
}

impl StmtIndices {
    fn push(&mut self, idx: usize) {
        let idx = idx as u32;
        match self {
            StmtIndices::Inline { len, buf } => {
                if (*len as usize) < STMT_IDX_INLINE {
                    buf[*len as usize] = idx;
                    *len += 1;
                } else {
                    let mut spilled = Vec::with_capacity(STMT_IDX_INLINE * 2);
                    spilled.extend_from_slice(&buf[..]);
                    spilled.push(idx);
                    *self = StmtIndices::Spilled(spilled);
                }
            }
            StmtIndices::Spilled(spilled) => spilled.push(idx),
        }
    }

    fn as_slice(&self) -> &[u32] {
        match self {
            StmtIndices::Inline { len, buf } => &buf[..*len as usize],
            StmtIndices::Spilled(spilled) => spilled,
        }
    }
}

impl FunctionAccesses {
    /// Collect accesses for a function.
    pub fn collect(
        func: &FunctionDef,
        index: &StmtIndex,
        symbols: &SymbolTable,
    ) -> FunctionAccesses {
        let mut out = FunctionAccesses {
            function: func.name,
            ..Default::default()
        };
        if let Some(body) = &func.body {
            body.walk(&mut |stmt| {
                let on_device = index.info(stmt.id).map(|i| i.offloaded).unwrap_or(false);
                // Initializer lists contain only constants in the
                // benchmarks, so a declaration reads what its expression
                // initializers read and nothing else.
                for expr in stmt.direct_exprs() {
                    let mut ctx = Classifier {
                        out: &mut out,
                        symbols,
                        stmt: stmt.id,
                        on_device,
                    };
                    ctx.classify(expr, false);
                }
            });
        }
        out.by_stmt = NodeTable::spanning(out.accesses.iter().map(|a| a.stmt));
        for (i, access) in out.accesses.iter().enumerate() {
            let indices = out
                .by_stmt
                .get_or_insert_with(access.stmt, StmtIndices::default);
            indices.push(i);
        }
        out
    }

    /// Add a synthetic access (used by the interprocedural analysis to model
    /// callee side effects at call sites).
    pub fn add_synthetic(&mut self, access: Access) {
        let indices = self
            .by_stmt
            .get_or_insert_with(access.stmt, StmtIndices::default);
        indices.push(self.accesses.len());
        self.accesses.push(access);
    }

    /// Accesses performed by a specific statement.
    pub fn for_stmt(&self, id: NodeId) -> impl Iterator<Item = &Access> + '_ {
        self.by_stmt
            .get(id)
            .map(StmtIndices::as_slice)
            .unwrap_or(&[])
            .iter()
            .map(|i| &self.accesses[*i as usize])
    }

    /// Names of variables accessed inside offloaded regions.
    pub fn device_vars(&self) -> Vec<Symbol> {
        let mut out = Vec::new();
        for a in self.accesses.iter().filter(|a| a.on_device) {
            if !out.contains(&a.var) {
                out.push(a.var);
            }
        }
        out
    }

    /// The merged access kind of a variable on the given execution space.
    pub fn merged_kind(&self, var: &str, on_device: bool) -> Option<AccessKind> {
        let mut merged: Option<AccessKind> = None;
        for a in self
            .accesses
            .iter()
            .filter(|a| a.var == var && a.on_device == on_device)
        {
            merged = Some(match merged {
                Some(k) => k.merge(a.kind),
                None => a.kind,
            });
        }
        merged
    }

    /// True if the variable is only ever read inside offloaded regions.
    pub fn device_read_only(&self, var: &str) -> bool {
        matches!(self.merged_kind(var, true), Some(AccessKind::Read))
    }
}

struct Classifier<'a> {
    out: &'a mut FunctionAccesses,
    symbols: &'a SymbolTable,
    stmt: NodeId,
    on_device: bool,
}

impl Classifier<'_> {
    fn record(&mut self, var: Symbol, kind: AccessKind, span: Span, indices: Vec<Expr>) {
        self.out.accesses.push(Access {
            var,
            kind,
            stmt: self.stmt,
            on_device: self.on_device,
            span,
            indices,
            origin: AccessOrigin::Direct,
        });
    }

    /// Classify an expression; `writing` is true when the expression is the
    /// target of an assignment.
    fn classify(&mut self, expr: &Expr, writing: bool) {
        match &expr.kind {
            ExprKind::Ident(name) => {
                let kind = if writing {
                    AccessKind::Write
                } else {
                    AccessKind::Read
                };
                self.record(*name, kind, expr.span, Vec::new());
            }
            ExprKind::Index { .. } => {
                let (base, indices) = flatten_subscripts(expr);
                if let Some(var) = base.and_then(|b| b.base_symbol()) {
                    let kind = if writing {
                        AccessKind::Write
                    } else {
                        AccessKind::Read
                    };
                    self.record(
                        var,
                        kind,
                        expr.span,
                        indices.iter().map(|e| (*e).clone()).collect(),
                    );
                }
                for idx in indices {
                    self.classify(idx, false);
                }
            }
            ExprKind::Member { base, .. } => {
                if let Some(var) = base.base_symbol() {
                    let kind = if writing {
                        AccessKind::Write
                    } else {
                        AccessKind::Read
                    };
                    self.record(var, kind, expr.span, Vec::new());
                }
            }
            ExprKind::Unary { op, operand, .. } => match op {
                UnaryOp::Inc | UnaryOp::Dec => {
                    if let Some(var) = operand.base_symbol() {
                        self.record(var, AccessKind::ReadWrite, expr.span, Vec::new());
                    }
                    // Subscript indices inside the operand are reads.
                    if let ExprKind::Index { .. } = &operand.kind {
                        let (_, indices) = flatten_subscripts(operand);
                        for idx in indices {
                            self.classify(idx, false);
                        }
                    }
                }
                UnaryOp::Deref => {
                    if let Some(var) = operand.base_symbol() {
                        let kind = if writing {
                            AccessKind::Write
                        } else {
                            AccessKind::Read
                        };
                        self.record(var, kind, expr.span, Vec::new());
                    }
                    self.classify(operand, false);
                }
                UnaryOp::AddrOf => {
                    // Taking an address is not by itself an access; if the
                    // address escapes through a call the call site handles
                    // it. A bare `&x` elsewhere is treated as unknown.
                    if let Some(var) = operand.base_symbol() {
                        self.record(var, AccessKind::Unknown, expr.span, Vec::new());
                    }
                }
                _ => self.classify(operand, false),
            },
            ExprKind::Assign { op, lhs, rhs } => {
                self.classify(rhs, false);
                let kind = if op.binary_op().is_some() {
                    AccessKind::ReadWrite
                } else {
                    AccessKind::Write
                };
                // Record the write on the lvalue base.
                match &lhs.kind {
                    ExprKind::Index { .. } => {
                        let (base, indices) = flatten_subscripts(lhs);
                        if let Some(var) = base.and_then(|b| b.base_symbol()) {
                            self.record(
                                var,
                                kind,
                                lhs.span,
                                indices.iter().map(|e| (*e).clone()).collect(),
                            );
                        }
                        for idx in indices {
                            self.classify(idx, false);
                        }
                    }
                    _ => {
                        if let Some(var) = lhs.base_symbol() {
                            self.record(var, kind, lhs.span, Vec::new());
                        }
                    }
                }
            }
            ExprKind::Call {
                callee,
                args,
                callee_span,
            } => {
                let mut call_args = Vec::new();
                for arg in args {
                    let (base_var, by_ref) = argument_info(arg, self.symbols);
                    if by_ref {
                        // The callee's effect is added by the interprocedural
                        // pass; nothing recorded here.
                    } else {
                        // Scalars passed by value are reads.
                        self.classify(arg, false);
                    }
                    call_args.push(CallArg { base_var, by_ref });
                }
                self.out.calls.push(CallSite {
                    callee: *callee,
                    stmt: self.stmt,
                    on_device: self.on_device,
                    span: *callee_span,
                    args: call_args,
                    summarised: false,
                });
            }
            ExprKind::Binary { lhs, rhs, .. } => {
                self.classify(lhs, false);
                self.classify(rhs, false);
            }
            ExprKind::Conditional {
                cond,
                then_expr,
                else_expr,
            } => {
                self.classify(cond, false);
                self.classify(then_expr, false);
                self.classify(else_expr, false);
            }
            ExprKind::Comma(items) => {
                for e in items {
                    self.classify(e, false);
                }
            }
            ExprKind::Paren(inner) | ExprKind::Cast { expr: inner, .. } => {
                self.classify(inner, writing)
            }
            ExprKind::SizeofExpr(_)
            | ExprKind::SizeofType(_)
            | ExprKind::IntLit(_)
            | ExprKind::FloatLit(_)
            | ExprKind::CharLit(_)
            | ExprKind::StrLit(_) => {}
        }
    }
}

/// Flatten `a[i][j]` into its base expression and the list of index
/// expressions (outermost dimension first).
fn flatten_subscripts(expr: &Expr) -> (Option<&Expr>, Vec<&Expr>) {
    let mut indices = Vec::new();
    let mut cur = expr;
    loop {
        match &cur.kind {
            ExprKind::Index { base, index } => {
                indices.push(index.as_ref());
                cur = base;
            }
            ExprKind::Paren(inner) => cur = inner,
            _ => break,
        }
    }
    indices.reverse();
    (Some(cur), indices)
}

/// Determine whether an argument passes data by reference and which variable
/// it is rooted at.
fn argument_info(arg: &Expr, symbols: &SymbolTable) -> (Option<Symbol>, bool) {
    match &arg.kind {
        ExprKind::Unary {
            op: UnaryOp::AddrOf,
            operand,
            ..
        } => (operand.base_symbol(), true),
        ExprKind::Ident(name) => {
            let by_ref = symbols.is_aggregate(*name);
            (Some(*name), by_ref)
        }
        ExprKind::Index { .. } => {
            // Passing `a[i]` or a row `grid[i]` of a multidimensional array:
            // by reference when the element itself is still an aggregate.
            let (base, indices) = flatten_subscripts(arg);
            let var = base.and_then(|b| b.base_symbol());
            let by_ref = var
                .and_then(|v| symbols.type_of(v))
                .map(|t| {
                    // count array/pointer levels deeper than the subscripts
                    let mut ty = t;
                    let mut depth = 0usize;
                    while let Type::Array(inner, _) | Type::Pointer(inner) = ty {
                        depth += 1;
                        ty = inner;
                    }
                    depth > indices.len()
                })
                .unwrap_or(false);
            (var, by_ref)
        }
        ExprKind::Cast { expr, .. } | ExprKind::Paren(expr) => argument_info(expr, symbols),
        _ => (arg.base_symbol(), false),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ompdart_frontend::parser::parse_str;
    use ompdart_graph::ProgramGraphs;

    fn collect(src: &str, func: &str) -> (FunctionAccesses, SymbolTable) {
        let (_file, result) = parse_str("t.c", src);
        assert!(result.is_ok(), "{:?}", result.diagnostics);
        let graphs = ProgramGraphs::build(&result.unit);
        let f = result.unit.function(func).unwrap();
        let symbols = SymbolTable::build(&result.unit, f);
        let accesses = FunctionAccesses::collect(f, graphs.function(func).unwrap(), &symbols);
        (accesses, symbols)
    }

    const KERNEL_SRC: &str = "\
#define N 128
double a[N];
double b[N];
void compute(int n) {
  #pragma omp target teams distribute parallel for
  for (int i = 0; i < n; i++) {
    a[i] = b[i] * 2.0 + a[i];
  }
  double s = 0.0;
  for (int i = 0; i < n; i++) {
    s += a[i];
  }
}
";

    #[test]
    fn classifies_reads_and_writes() {
        let (acc, _sym) = collect(KERNEL_SRC, "compute");
        assert_eq!(acc.merged_kind("a", true), Some(AccessKind::ReadWrite));
        assert_eq!(acc.merged_kind("b", true), Some(AccessKind::Read));
        assert!(acc.device_read_only("b"));
        assert!(!acc.device_read_only("a"));
        // On the host, `a` is only read (by the summation).
        assert_eq!(acc.merged_kind("a", false), Some(AccessKind::Read));
        assert_eq!(acc.merged_kind("s", false), Some(AccessKind::ReadWrite));
    }

    #[test]
    fn device_vars_exclude_host_only() {
        let (acc, _sym) = collect(KERNEL_SRC, "compute");
        let dv = acc.device_vars();
        assert!(dv.iter().any(|v| v == "a"));
        assert!(dv.iter().any(|v| v == "b"));
        assert!(dv.iter().any(|v| v == "i") || dv.iter().any(|v| v == "n"));
        assert!(!dv.iter().any(|v| v == "s"));
    }

    #[test]
    fn subscript_indices_are_captured() {
        let (acc, _sym) = collect(KERNEL_SRC, "compute");
        let a_access = acc
            .accesses
            .iter()
            .find(|x| x.var == "a" && x.on_device && x.kind.may_write())
            .unwrap();
        assert_eq!(a_access.indices.len(), 1);
        assert_eq!(a_access.indices[0].referenced_vars(), vec!["i"]);
    }

    #[test]
    fn two_dimensional_subscripts() {
        let src = "\
#define R 4
#define C 8
double g[R][C];
void f() {
  for (int i = 0; i < R; i++)
    for (int j = 0; j < C; j++)
      g[i][j] = i + j;
}
";
        let (acc, _sym) = collect(src, "f");
        let g = acc.accesses.iter().find(|a| a.var == "g").unwrap();
        assert_eq!(g.indices.len(), 2);
        assert!(g.kind.may_write());
    }

    #[test]
    fn compound_assign_is_read_write() {
        let (acc, _) = collect("int x; void f() { x += 3; }\n", "f");
        assert_eq!(acc.merged_kind("x", false), Some(AccessKind::ReadWrite));
    }

    #[test]
    fn increment_is_read_write() {
        let (acc, _) = collect("void f(int *p) { p[0]++; }\n", "f");
        assert_eq!(acc.merged_kind("p", false), Some(AccessKind::ReadWrite));
    }

    #[test]
    fn call_sites_record_by_ref_args() {
        let src = "\
void helper(double *out, const double *in, int n);
double buf[64];
double src_data[64];
void f(int n) {
  helper(buf, src_data, n);
}
";
        let (acc, _sym) = collect(src, "f");
        assert_eq!(acc.calls.len(), 1);
        let call = &acc.calls[0];
        assert_eq!(call.callee, "helper");
        assert_eq!(call.args.len(), 3);
        assert!(call.args[0].by_ref);
        assert!(call.args[1].by_ref);
        assert!(!call.args[2].by_ref);
        assert_eq!(call.args[0].base_var.as_deref(), Some("buf"));
        // scalar argument n recorded as a read
        assert!(acc
            .accesses
            .iter()
            .any(|a| a.var == "n" && a.kind == AccessKind::Read));
    }

    #[test]
    fn address_of_outside_call_is_unknown() {
        let (acc, _) = collect("int g; void f() { int *p = &g; p[0] = 1; }\n", "f");
        assert!(acc
            .accesses
            .iter()
            .any(|a| a.var == "g" && a.kind == AccessKind::Unknown));
    }

    #[test]
    fn symbol_table_classification() {
        let src = "\
double grid[16];
void f(const double *input, double *output, int n, struct item *things) {
  double local = 0.0;
  int idx[4];
  local = input[0] + n;
  output[0] = local;
}
struct item { int v; };
";
        let (_acc, sym) = collect(src, "f");
        assert!(sym.is_aggregate("grid"));
        assert!(sym.is_aggregate("input"));
        assert!(sym.is_aggregate("idx"));
        assert!(sym.is_scalar("n"));
        assert!(sym.is_scalar("local"));
        assert!(sym.is_pointer("output"));
        assert!(!sym.is_pointer("grid"));
        assert!(sym.is_param("input"));
        assert!(sym.is_global("grid"));
        assert!(sym.escapes("grid"));
        assert!(sym.escapes("output"));
        assert!(!sym.escapes("local"));
    }

    #[test]
    fn names_resolve_at_function_scope_and_nested_blocks_shadow() {
        let src = "\
double tmp[4];
double grid[4];
double g[4];
int i;
void f(double *g, int n) {
  double tmp[4];
  for (int i = 0; i < n; i++) tmp[i] = 0.0;
  for (int i = 0; i < n; i++) { double t = tmp[i]; grid[i] = t; }
  {
    double t = 1.0;
    double grid[4];
    grid[0] = t;
  }
  {
    double t = 2.0;
  }
}
";
        let (_acc, sym) = collect(src, "f");
        // A parameter and an outermost local hide the globals `g` and
        // `tmp` for the whole function, so their effects are not `f`'s.
        assert!(!sym.is_global("tmp") && !sym.sees_global("tmp"));
        assert!(!sym.is_global("g") && !sym.sees_global("g") && sym.is_pointer("g"));
        assert!(sym.is_global("grid") && sym.sees_global("grid"));
        assert!(
            sym.sees_global("elsewhere"),
            "an undeclared name is nobody's"
        );
        assert!(!sym.escapes("tmp"));
        // Each `for (int i …)` hides the global `i`, and the block's `grid`
        // the global one; the sibling `t`s hide nothing.
        let shadows: Vec<(&str, usize)> = (sym.shadows().iter())
            .map(|s| (s.name.as_str(), s.outer.start as usize))
            .collect();
        let (i, grid) = (src.find("i;").unwrap(), src.find("grid[4]").unwrap());
        assert_eq!(shadows, [("i", i), ("i", i), ("grid", grid)]);
    }

    #[test]
    fn member_access_classification() {
        let src = "\
struct conf { double scale; int n; };
void f(struct conf *c, double *out) {
  out[0] = c->scale * c->n;
  c->n = 5;
}
";
        let (acc, _) = collect(src, "f");
        assert_eq!(acc.merged_kind("c", false), Some(AccessKind::ReadWrite));
        assert_eq!(acc.merged_kind("out", false), Some(AccessKind::Write));
    }

    #[test]
    fn access_kind_merge_rules() {
        use AccessKind::*;
        assert_eq!(Read.merge(Read), Read);
        assert_eq!(Read.merge(Write), ReadWrite);
        assert_eq!(Write.merge(Write), Write);
        assert_eq!(Unknown.merge(Read), Unknown);
        assert!(Unknown.may_read() && Unknown.may_write());
    }

    #[test]
    fn for_stmt_lookup() {
        let (acc, _) = collect(KERNEL_SRC, "compute");
        // Every recorded access is retrievable through its statement id.
        for a in &acc.accesses {
            assert!(acc.for_stmt(a.stmt).any(|x| x.var == a.var));
        }
    }
}
