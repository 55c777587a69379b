//! The MiniC abstract syntax tree.
//!
//! The AST mirrors the subset of the Clang AST that OMPDart's analyses
//! consume: declarations, statements (including structured loops and
//! conditionals), expressions with full lvalue structure (array subscripts,
//! member accesses, pointer dereferences), and OpenMP executable directives
//! attached to their associated statements.
//!
//! Every node carries a [`NodeId`] (unique within one translation unit) and a
//! [`Span`] into the original source, which the rewriter uses for
//! source-to-source transformation.

use crate::intern::Symbol;
use crate::omp::OmpDirective;
use crate::source::Span;
use std::fmt;

/// Unique identifier of an AST node within a translation unit.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{}", self.0)
    }
}

// ---------------------------------------------------------------------------
// Types
// ---------------------------------------------------------------------------

/// A MiniC type.
#[derive(Clone, Debug, PartialEq)]
pub enum Type {
    Void,
    Bool,
    Char,
    Int,
    UInt,
    Long,
    ULong,
    Float,
    Double,
    /// A named type introduced by `typedef` or an unknown type name treated
    /// opaquely (e.g. `size_t`).
    Named(Symbol),
    /// A `struct Name` type (fields resolved through the translation unit).
    Struct(Symbol),
    /// Pointer to another type.
    Pointer(Box<Type>),
    /// Array with an optional size expression (`int a[N]`, `int a[]`).
    Array(Box<Type>, Option<Box<Expr>>),
}

impl Type {
    /// True for arithmetic scalar types (not pointers, arrays or structs).
    pub fn is_scalar(&self) -> bool {
        matches!(
            self,
            Type::Bool
                | Type::Char
                | Type::Int
                | Type::UInt
                | Type::Long
                | Type::ULong
                | Type::Float
                | Type::Double
        )
    }

    /// True for floating-point types.
    pub fn is_floating(&self) -> bool {
        matches!(self, Type::Float | Type::Double)
    }

    /// True if the type is a pointer.
    pub fn is_pointer(&self) -> bool {
        matches!(self, Type::Pointer(_))
    }

    /// True if the type is an array.
    pub fn is_array(&self) -> bool {
        matches!(self, Type::Array(..))
    }

    /// True if the type is an aggregate whose data lives in addressable
    /// storage that OpenMP would map as a block (arrays, structs, and data
    /// reached through pointers).
    pub fn is_mappable_aggregate(&self) -> bool {
        matches!(self, Type::Array(..) | Type::Struct(_) | Type::Pointer(_))
    }

    /// The element type for arrays and pointers; `self` otherwise.
    pub fn element_type(&self) -> &Type {
        match self {
            Type::Pointer(inner) | Type::Array(inner, _) => inner.element_type(),
            other => other,
        }
    }

    /// Size in bytes of one scalar element of this type, using the common
    /// LP64 model. Aggregates report the element size of their innermost
    /// scalar type.
    pub fn scalar_size_bytes(&self) -> u64 {
        match self.element_type() {
            Type::Bool | Type::Char => 1,
            Type::Int | Type::UInt | Type::Float => 4,
            Type::Long | Type::ULong | Type::Double => 8,
            Type::Named(_) => 8,
            _ => 8,
        }
    }

    /// Render the type as C source.
    pub fn to_c_string(&self) -> String {
        match self {
            Type::Void => "void".into(),
            Type::Bool => "bool".into(),
            Type::Char => "char".into(),
            Type::Int => "int".into(),
            Type::UInt => "unsigned int".into(),
            Type::Long => "long".into(),
            Type::ULong => "unsigned long".into(),
            Type::Float => "float".into(),
            Type::Double => "double".into(),
            Type::Named(n) => n.as_str().into(),
            Type::Struct(n) => format!("struct {n}"),
            Type::Pointer(inner) => format!("{} *", inner.to_c_string()),
            Type::Array(inner, _) => format!("{}[]", inner.to_c_string()),
        }
    }
}

// ---------------------------------------------------------------------------
// Expressions
// ---------------------------------------------------------------------------

/// Binary (non-assignment) operators.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum BinaryOp {
    Add,
    Sub,
    Mul,
    Div,
    Rem,
    Shl,
    Shr,
    Lt,
    Gt,
    Le,
    Ge,
    Eq,
    Ne,
    BitAnd,
    BitOr,
    BitXor,
    LogicalAnd,
    LogicalOr,
}

impl BinaryOp {
    pub fn symbol(&self) -> &'static str {
        use BinaryOp::*;
        match self {
            Add => "+",
            Sub => "-",
            Mul => "*",
            Div => "/",
            Rem => "%",
            Shl => "<<",
            Shr => ">>",
            Lt => "<",
            Gt => ">",
            Le => "<=",
            Ge => ">=",
            Eq => "==",
            Ne => "!=",
            BitAnd => "&",
            BitOr => "|",
            BitXor => "^",
            LogicalAnd => "&&",
            LogicalOr => "||",
        }
    }
}

/// Assignment operators (`=`, `+=`, ...).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum AssignOp {
    Assign,
    Add,
    Sub,
    Mul,
    Div,
    Rem,
    Shl,
    Shr,
    BitAnd,
    BitOr,
    BitXor,
}

impl AssignOp {
    pub fn symbol(&self) -> &'static str {
        use AssignOp::*;
        match self {
            Assign => "=",
            Add => "+=",
            Sub => "-=",
            Mul => "*=",
            Div => "/=",
            Rem => "%=",
            Shl => "<<=",
            Shr => ">>=",
            BitAnd => "&=",
            BitOr => "|=",
            BitXor => "^=",
        }
    }

    /// The underlying binary operator for compound assignments.
    pub fn binary_op(&self) -> Option<BinaryOp> {
        Some(match self {
            AssignOp::Assign => return None,
            AssignOp::Add => BinaryOp::Add,
            AssignOp::Sub => BinaryOp::Sub,
            AssignOp::Mul => BinaryOp::Mul,
            AssignOp::Div => BinaryOp::Div,
            AssignOp::Rem => BinaryOp::Rem,
            AssignOp::Shl => BinaryOp::Shl,
            AssignOp::Shr => BinaryOp::Shr,
            AssignOp::BitAnd => BinaryOp::BitAnd,
            AssignOp::BitOr => BinaryOp::BitOr,
            AssignOp::BitXor => BinaryOp::BitXor,
        })
    }
}

/// Unary operators.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum UnaryOp {
    /// Prefix or postfix `++` (see `postfix` flag on the expression).
    Inc,
    /// Prefix or postfix `--`.
    Dec,
    Neg,
    Plus,
    Not,
    BitNot,
    /// `*expr`
    Deref,
    /// `&expr`
    AddrOf,
}

impl UnaryOp {
    pub fn symbol(&self) -> &'static str {
        match self {
            UnaryOp::Inc => "++",
            UnaryOp::Dec => "--",
            UnaryOp::Neg => "-",
            UnaryOp::Plus => "+",
            UnaryOp::Not => "!",
            UnaryOp::BitNot => "~",
            UnaryOp::Deref => "*",
            UnaryOp::AddrOf => "&",
        }
    }
}

/// An expression node.
#[derive(Clone, Debug, PartialEq)]
pub struct Expr {
    pub id: NodeId,
    pub span: Span,
    pub kind: ExprKind,
}

/// Expression kinds.
#[derive(Clone, Debug, PartialEq)]
pub enum ExprKind {
    IntLit(i64),
    FloatLit(f64),
    CharLit(char),
    StrLit(String),
    /// A reference to a declared variable (or enumerator / macro left
    /// unresolved).
    Ident(Symbol),
    Unary {
        op: UnaryOp,
        operand: Box<Expr>,
        /// True for postfix `x++` / `x--`.
        postfix: bool,
    },
    Binary {
        op: BinaryOp,
        lhs: Box<Expr>,
        rhs: Box<Expr>,
    },
    Assign {
        op: AssignOp,
        lhs: Box<Expr>,
        rhs: Box<Expr>,
    },
    Conditional {
        cond: Box<Expr>,
        then_expr: Box<Expr>,
        else_expr: Box<Expr>,
    },
    Call {
        callee: Symbol,
        callee_span: Span,
        args: Vec<Expr>,
    },
    /// Array subscript `base[index]`.
    Index {
        base: Box<Expr>,
        index: Box<Expr>,
    },
    /// Member access `base.field` or `base->field`.
    Member {
        base: Box<Expr>,
        field: Symbol,
        arrow: bool,
    },
    Cast {
        ty: Type,
        expr: Box<Expr>,
    },
    SizeofType(Type),
    SizeofExpr(Box<Expr>),
    /// Comma expression `(a, b, c)`.
    Comma(Vec<Expr>),
    /// Explicit parentheses (kept so the printer round-trips faithfully).
    Paren(Box<Expr>),
}

impl Expr {
    /// The base variable name if this expression is an lvalue rooted at a
    /// declared variable: `a`, `a[i]`, `a[i][j]`, `*a`, `a.x`, `a->x`,
    /// `(*a).x` all report `a`.
    pub fn base_variable(&self) -> Option<&str> {
        self.base_symbol().map(|s| s.as_str())
    }

    /// [`Self::base_variable`], but returning the interned symbol — the
    /// allocation-free form the access classifier keys its maps with.
    pub fn base_symbol(&self) -> Option<Symbol> {
        match &self.kind {
            ExprKind::Ident(name) => Some(*name),
            ExprKind::Index { base, .. } => base.base_symbol(),
            ExprKind::Member { base, .. } => base.base_symbol(),
            ExprKind::Paren(inner) => inner.base_symbol(),
            ExprKind::Cast { expr, .. } => expr.base_symbol(),
            ExprKind::Unary {
                op: UnaryOp::Deref,
                operand,
                ..
            } => operand.base_symbol(),
            ExprKind::Unary {
                op: UnaryOp::AddrOf,
                operand,
                ..
            } => operand.base_symbol(),
            _ => None,
        }
    }

    /// Collect the names of all variables referenced anywhere in this
    /// expression (in evaluation order, with duplicates removed).
    pub fn referenced_vars(&self) -> Vec<String> {
        self.referenced_symbols()
            .into_iter()
            .map(String::from)
            .collect()
    }

    /// [`Self::referenced_vars`] without the per-name allocations: interned
    /// symbols in evaluation order, duplicates removed.
    pub fn referenced_symbols(&self) -> Vec<Symbol> {
        let mut out = Vec::new();
        self.collect_vars(&mut out);
        out
    }

    pub(crate) fn collect_vars(&self, out: &mut Vec<Symbol>) {
        let mut push = |name: Symbol| {
            if !out.contains(&name) {
                out.push(name);
            }
        };
        match &self.kind {
            ExprKind::Ident(name) => push(*name),
            ExprKind::Unary { operand, .. } => operand.collect_vars(out),
            ExprKind::Binary { lhs, rhs, .. } | ExprKind::Assign { lhs, rhs, .. } => {
                lhs.collect_vars(out);
                rhs.collect_vars(out);
            }
            ExprKind::Conditional {
                cond,
                then_expr,
                else_expr,
            } => {
                cond.collect_vars(out);
                then_expr.collect_vars(out);
                else_expr.collect_vars(out);
            }
            ExprKind::Call { args, .. } => {
                for a in args {
                    a.collect_vars(out);
                }
            }
            ExprKind::Index { base, index } => {
                base.collect_vars(out);
                index.collect_vars(out);
            }
            ExprKind::Member { base, .. } => base.collect_vars(out),
            ExprKind::Cast { expr, .. } | ExprKind::Paren(expr) | ExprKind::SizeofExpr(expr) => {
                expr.collect_vars(out)
            }
            ExprKind::Comma(items) => {
                for e in items {
                    e.collect_vars(out);
                }
            }
            ExprKind::IntLit(_)
            | ExprKind::FloatLit(_)
            | ExprKind::CharLit(_)
            | ExprKind::StrLit(_)
            | ExprKind::SizeofType(_) => {}
        }
    }

    /// Attempt to evaluate the expression as an integer constant, looking up
    /// unresolved identifiers through `lookup`. `None` is "unknown" (an
    /// identifier `lookup` does not know, a call, a fractional float, a
    /// division by zero); `&&`, `||` and `?:` short-circuit like C, so an
    /// operand that decides the result does so even when the other is unknown.
    pub fn const_eval(&self, lookup: &dyn Fn(&str) -> Option<i64>) -> Option<i64> {
        match &self.kind {
            ExprKind::IntLit(v) => Some(*v),
            ExprKind::CharLit(c) => Some(*c as i64),
            // `0.5` is not the integer 0: truncating would flip its truth.
            ExprKind::FloatLit(v) if v.fract() == 0.0 => Some(*v as i64),
            ExprKind::Ident(name) => lookup(name.as_str()),
            ExprKind::Paren(e) | ExprKind::Cast { expr: e, .. } => e.const_eval(lookup),
            ExprKind::Unary { op, operand, .. } => {
                let v = operand.const_eval(lookup)?;
                Some(match op {
                    UnaryOp::Neg => v.wrapping_neg(),
                    UnaryOp::Plus => v,
                    UnaryOp::Not => i64::from(v == 0),
                    UnaryOp::BitNot => !v,
                    _ => return None,
                })
            }
            ExprKind::Binary { op, lhs, rhs } => {
                let (a, b) = (lhs.const_eval(lookup), rhs.const_eval(lookup));
                // `0` decides `&&` and non-zero decides `||`, from either
                // side and whatever the other side is.
                match op {
                    BinaryOp::LogicalAnd if a == Some(0) || b == Some(0) => return Some(0),
                    BinaryOp::LogicalOr if a.unwrap_or(0) != 0 || b.unwrap_or(0) != 0 => {
                        return Some(1)
                    }
                    _ => {}
                }
                let (a, b) = (a?, b?);
                Some(match op {
                    BinaryOp::Add => a.wrapping_add(b),
                    BinaryOp::Sub => a.wrapping_sub(b),
                    BinaryOp::Mul => a.wrapping_mul(b),
                    // `None` for `/ 0` (and for `i64::MIN / -1`).
                    BinaryOp::Div => a.checked_div(b)?,
                    BinaryOp::Rem => a.checked_rem(b)?,
                    BinaryOp::Shl => a.wrapping_shl(b as u32),
                    BinaryOp::Shr => a.wrapping_shr(b as u32),
                    BinaryOp::Lt => i64::from(a < b),
                    BinaryOp::Gt => i64::from(a > b),
                    BinaryOp::Le => i64::from(a <= b),
                    BinaryOp::Ge => i64::from(a >= b),
                    BinaryOp::Eq => i64::from(a == b),
                    BinaryOp::Ne => i64::from(a != b),
                    BinaryOp::BitAnd => a & b,
                    BinaryOp::BitOr => a | b,
                    BinaryOp::BitXor => a ^ b,
                    BinaryOp::LogicalAnd => i64::from(a != 0 && b != 0),
                    BinaryOp::LogicalOr => i64::from(a != 0 || b != 0),
                })
            }
            ExprKind::Conditional {
                cond,
                then_expr,
                else_expr,
            } => {
                let c = cond.const_eval(lookup)?;
                if c != 0 {
                    then_expr.const_eval(lookup)
                } else {
                    else_expr.const_eval(lookup)
                }
            }
            _ => None,
        }
    }

    /// Call `f` on this expression and every sub-expression (pre-order).
    pub fn walk(&self, f: &mut dyn FnMut(&Expr)) {
        f(self);
        match &self.kind {
            ExprKind::Unary { operand, .. } => operand.walk(f),
            ExprKind::Binary { lhs, rhs, .. } | ExprKind::Assign { lhs, rhs, .. } => {
                lhs.walk(f);
                rhs.walk(f);
            }
            ExprKind::Conditional {
                cond,
                then_expr,
                else_expr,
            } => {
                cond.walk(f);
                then_expr.walk(f);
                else_expr.walk(f);
            }
            ExprKind::Call { args, .. } => {
                for a in args {
                    a.walk(f);
                }
            }
            ExprKind::Index { base, index } => {
                base.walk(f);
                index.walk(f);
            }
            ExprKind::Member { base, .. } => base.walk(f),
            ExprKind::Cast { expr, .. } | ExprKind::Paren(expr) | ExprKind::SizeofExpr(expr) => {
                expr.walk(f)
            }
            ExprKind::Comma(items) => {
                for e in items {
                    e.walk(f);
                }
            }
            _ => {}
        }
    }
}

// ---------------------------------------------------------------------------
// Statements
// ---------------------------------------------------------------------------

/// Initializer of a variable declaration.
#[derive(Clone, Debug, PartialEq)]
pub enum Init {
    Expr(Expr),
    /// Brace-enclosed initializer list (possibly nested).
    List(Vec<Init>),
}

impl Init {
    /// Collect variables referenced by the initializer.
    pub fn referenced_vars(&self) -> Vec<String> {
        self.referenced_symbols()
            .into_iter()
            .map(String::from)
            .collect()
    }

    /// Interned form of [`Self::referenced_vars`].
    pub fn referenced_symbols(&self) -> Vec<Symbol> {
        let mut out = Vec::new();
        self.collect_symbols(&mut out);
        out
    }

    fn collect_symbols(&self, out: &mut Vec<Symbol>) {
        match self {
            Init::Expr(e) => {
                for v in e.referenced_symbols() {
                    if !out.contains(&v) {
                        out.push(v);
                    }
                }
            }
            Init::List(items) => {
                for it in items {
                    it.collect_symbols(out);
                }
            }
        }
    }
}

/// A single declared variable (one declarator of a declaration statement).
#[derive(Clone, Debug, PartialEq)]
pub struct VarDecl {
    pub id: NodeId,
    pub span: Span,
    pub name: Symbol,
    pub ty: Type,
    pub init: Option<Init>,
    pub is_const: bool,
    pub is_static: bool,
    pub is_extern: bool,
}

/// The init part of a `for` statement.
#[derive(Clone, Debug, PartialEq)]
pub enum ForInit {
    Decl(Vec<VarDecl>),
    Expr(Expr),
}

/// A statement node.
#[derive(Clone, Debug, PartialEq)]
pub struct Stmt {
    pub id: NodeId,
    pub span: Span,
    pub kind: StmtKind,
}

/// Statement kinds.
#[derive(Clone, Debug, PartialEq)]
pub enum StmtKind {
    /// Expression statement `expr;`
    Expr(Expr),
    /// Local declaration statement, possibly with several declarators.
    Decl(Vec<VarDecl>),
    /// `{ ... }`
    Compound(Vec<Stmt>),
    If {
        cond: Expr,
        then_branch: Box<Stmt>,
        else_branch: Option<Box<Stmt>>,
    },
    While {
        cond: Expr,
        body: Box<Stmt>,
    },
    DoWhile {
        body: Box<Stmt>,
        cond: Expr,
    },
    For {
        init: Option<Box<ForInit>>,
        cond: Option<Expr>,
        inc: Option<Expr>,
        body: Box<Stmt>,
    },
    Switch {
        cond: Expr,
        body: Box<Stmt>,
    },
    Case {
        value: Expr,
    },
    Default,
    Return(Option<Expr>),
    Break,
    Continue,
    /// An OpenMP executable directive and (for non-standalone directives) its
    /// associated statement.
    Omp(OmpDirective),
    /// `;`
    Empty,
}

impl Stmt {
    /// True for loop statements.
    pub fn is_loop(&self) -> bool {
        matches!(
            self.kind,
            StmtKind::While { .. } | StmtKind::DoWhile { .. } | StmtKind::For { .. }
        )
    }

    /// Call `f` on this statement and all nested statements (pre-order). The
    /// bodies of OpenMP directives are visited as well. `f` may keep the
    /// references it is handed.
    pub fn walk<'a>(&'a self, f: &mut dyn FnMut(&'a Stmt)) {
        f(self);
        match &self.kind {
            StmtKind::Compound(items) => {
                for s in items {
                    s.walk(f);
                }
            }
            StmtKind::If {
                then_branch,
                else_branch,
                ..
            } => {
                then_branch.walk(f);
                if let Some(e) = else_branch {
                    e.walk(f);
                }
            }
            StmtKind::While { body, .. }
            | StmtKind::DoWhile { body, .. }
            | StmtKind::For { body, .. }
            | StmtKind::Switch { body, .. } => body.walk(f),
            StmtKind::Omp(dir) => {
                if let Some(body) = &dir.body {
                    body.walk(f);
                }
            }
            _ => {}
        }
    }

    /// The declarators this statement declares: a declaration's, or a `for`
    /// loop's init declaration's.
    pub fn declared(&self) -> &[VarDecl] {
        match &self.kind {
            StmtKind::Decl(decls) => decls,
            StmtKind::For { init: Some(fi), .. } => match fi.as_ref() {
                ForInit::Decl(decls) => decls,
                ForInit::Expr(_) => &[],
            },
            _ => &[],
        }
    }

    /// All expressions evaluated directly by this statement (not including
    /// nested statements), in evaluation order: declarator initializers, then
    /// a `for` loop's init expression, condition and increment.
    pub fn direct_exprs(&self) -> impl Iterator<Item = &Expr> + '_ {
        let inits = self.declared().iter().filter_map(|d| match &d.init {
            Some(Init::Expr(e)) => Some(e),
            _ => None,
        });
        let (first, cond, inc) = match &self.kind {
            StmtKind::Expr(e) | StmtKind::Case { value: e } | StmtKind::Return(Some(e)) => {
                (Some(e), None, None)
            }
            StmtKind::If { cond, .. }
            | StmtKind::While { cond, .. }
            | StmtKind::DoWhile { cond, .. }
            | StmtKind::Switch { cond, .. } => (Some(cond), None, None),
            StmtKind::For {
                init, cond, inc, ..
            } => {
                let init = match init.as_deref() {
                    Some(ForInit::Expr(e)) => Some(e),
                    _ => None,
                };
                (init, cond.as_ref(), inc.as_ref())
            }
            _ => (None, None, None),
        };
        inits.chain(first).chain(cond).chain(inc)
    }
}

// ---------------------------------------------------------------------------
// Top-level declarations
// ---------------------------------------------------------------------------

/// A function parameter.
#[derive(Clone, Debug, PartialEq)]
pub struct ParamDecl {
    pub id: NodeId,
    pub span: Span,
    pub name: Symbol,
    pub ty: Type,
    /// True if the parameter points to `const` data (`const double *x`),
    /// which the interprocedural analysis treats as strictly read-only.
    pub is_const_pointee: bool,
}

/// A function definition or declaration (prototype).
#[derive(Clone, Debug, PartialEq)]
pub struct FunctionDef {
    pub id: NodeId,
    pub span: Span,
    pub name: Symbol,
    pub ret: Type,
    pub params: Vec<ParamDecl>,
    /// `None` for prototypes (declarations without a body).
    pub body: Option<Stmt>,
    pub is_static: bool,
    pub is_variadic: bool,
}

impl FunctionDef {
    /// True if this is only a prototype.
    pub fn is_prototype(&self) -> bool {
        self.body.is_none()
    }
}

/// A struct definition.
#[derive(Clone, Debug, PartialEq)]
pub struct StructDef {
    pub id: NodeId,
    pub span: Span,
    pub name: Symbol,
    pub fields: Vec<VarDecl>,
}

/// A top-level item in a translation unit.
#[derive(Clone, Debug, PartialEq)]
#[allow(clippy::large_enum_variant)]
pub enum TopLevel {
    Function(FunctionDef),
    Globals(Vec<VarDecl>),
    Struct(StructDef),
    Typedef {
        id: NodeId,
        span: Span,
        name: Symbol,
        ty: Type,
    },
}

/// A parsed translation unit: the list of top-level items plus the constant
/// macro table exported by the preprocessor.
#[derive(Clone, Debug, Default)]
pub struct TranslationUnit {
    pub items: Vec<TopLevel>,
    /// `#define NAME <number>` macros, usable for constant evaluation.
    pub constants: std::collections::HashMap<String, f64>,
}

impl TranslationUnit {
    /// Iterate over all function definitions (with bodies).
    pub fn functions(&self) -> impl Iterator<Item = &FunctionDef> {
        self.items.iter().filter_map(|item| match item {
            TopLevel::Function(f) if f.body.is_some() => Some(f),
            _ => None,
        })
    }

    /// Iterate over all function declarations and definitions.
    pub fn all_functions(&self) -> impl Iterator<Item = &FunctionDef> {
        self.items.iter().filter_map(|item| match item {
            TopLevel::Function(f) => Some(f),
            _ => None,
        })
    }

    /// Find a function definition by name.
    pub fn function(&self, name: &str) -> Option<&FunctionDef> {
        self.functions().find(|f| f.name == name)
    }

    /// Iterate over all global variable declarations.
    pub fn globals(&self) -> impl Iterator<Item = &VarDecl> {
        self.items.iter().flat_map(|item| match item {
            TopLevel::Globals(decls) => decls.as_slice(),
            _ => [].as_slice(),
        })
    }

    /// Find a global variable by name.
    pub fn global(&self, name: &str) -> Option<&VarDecl> {
        self.globals().find(|g| g.name == name)
    }

    /// Find a struct definition by name.
    pub fn struct_def(&self, name: &str) -> Option<&StructDef> {
        self.items.iter().find_map(|item| match item {
            TopLevel::Struct(s) if s.name == name => Some(s),
            _ => None,
        })
    }

    /// Look up an integer constant macro.
    pub fn int_constant(&self, name: &str) -> Option<i64> {
        self.constants.get(name).map(|v| *v as i64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn expr(kind: ExprKind) -> Expr {
        Expr {
            id: NodeId(0),
            span: Span::dummy(),
            kind,
        }
    }

    #[test]
    fn base_variable_through_lvalue_structure() {
        // a[i][j]
        let e = expr(ExprKind::Index {
            base: Box::new(expr(ExprKind::Index {
                base: Box::new(expr(ExprKind::Ident("a".into()))),
                index: Box::new(expr(ExprKind::Ident("i".into()))),
            })),
            index: Box::new(expr(ExprKind::Ident("j".into()))),
        });
        assert_eq!(e.base_variable(), Some("a"));
        assert_eq!(e.referenced_vars(), vec!["a", "i", "j"]);

        // (*p).x
        let m = expr(ExprKind::Member {
            base: Box::new(expr(ExprKind::Paren(Box::new(expr(ExprKind::Unary {
                op: UnaryOp::Deref,
                operand: Box::new(expr(ExprKind::Ident("p".into()))),
                postfix: false,
            }))))),
            field: "x".into(),
            arrow: false,
        });
        assert_eq!(m.base_variable(), Some("p"));
    }

    #[test]
    fn const_eval_arithmetic() {
        // (100 / 2) - 1
        let e = expr(ExprKind::Binary {
            op: BinaryOp::Sub,
            lhs: Box::new(expr(ExprKind::Binary {
                op: BinaryOp::Div,
                lhs: Box::new(expr(ExprKind::IntLit(100))),
                rhs: Box::new(expr(ExprKind::IntLit(2))),
            })),
            rhs: Box::new(expr(ExprKind::IntLit(1))),
        });
        assert_eq!(e.const_eval(&|_| None), Some(49));
    }

    #[test]
    fn const_eval_with_lookup_and_failure() {
        let e = expr(ExprKind::Binary {
            op: BinaryOp::Mul,
            lhs: Box::new(expr(ExprKind::Ident("N".into()))),
            rhs: Box::new(expr(ExprKind::IntLit(4))),
        });
        assert_eq!(e.const_eval(&|n| (n == "N").then_some(16)), Some(64));
        assert_eq!(e.const_eval(&|_| None), None);
        // division by zero is not a constant
        let z = expr(ExprKind::Binary {
            op: BinaryOp::Div,
            lhs: Box::new(expr(ExprKind::IntLit(1))),
            rhs: Box::new(expr(ExprKind::IntLit(0))),
        });
        assert_eq!(z.const_eval(&|_| None), None);
    }

    /// `&&`, `||` and `?:` short-circuit like C: a known operand that decides
    /// the result does so although the other is unknown or divides by zero.
    #[test]
    fn const_eval_short_circuits() {
        let lit = |v| expr(ExprKind::IntLit(v));
        let unknown = || expr(ExprKind::Ident("X".into()));
        let div0 = || {
            expr(ExprKind::Binary {
                op: BinaryOp::Div,
                lhs: Box::new(lit(1)),
                rhs: Box::new(lit(0)),
            })
        };
        let bin = |op, lhs, rhs| {
            expr(ExprKind::Binary {
                op,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
            })
        };
        let eval = |e: Expr| e.const_eval(&|_| None);
        use BinaryOp::{LogicalAnd as And, LogicalOr as Or};
        for (op, decisive, other) in [(And, 0, 1), (Or, 1, 0), (Or, 7, 0)] {
            let decided = i64::from(decisive != 0);
            assert_eq!(eval(bin(op, lit(decisive), unknown())), Some(decided));
            assert_eq!(eval(bin(op, unknown(), lit(decisive))), Some(decided));
            assert_eq!(eval(bin(op, lit(decisive), div0())), Some(decided));
            assert_eq!(eval(bin(op, lit(other), lit(decisive))), Some(decided));
            // The other value decides nothing on its own.
            assert_eq!(eval(bin(op, lit(other), unknown())), None);
            assert_eq!(eval(bin(op, div0(), lit(other))), None);
            assert_eq!(eval(bin(op, unknown(), unknown())), None);
            assert_eq!(eval(bin(op, lit(other), lit(other))), Some(1 - decided));
        }
        let cond = |c, t, e| {
            expr(ExprKind::Conditional {
                cond: Box::new(c),
                then_expr: Box::new(t),
                else_expr: Box::new(e),
            })
        };
        assert_eq!(eval(cond(lit(1), lit(5), unknown())), Some(5));
        assert_eq!(eval(cond(lit(0), div0(), lit(6))), Some(6));
        assert_eq!(eval(cond(lit(0), lit(5), unknown())), None);
        assert_eq!(eval(cond(unknown(), lit(5), lit(5))), None);
    }

    /// Unknown, not a wrong value and not a panic.
    #[test]
    fn const_eval_edge_values() {
        let eval = |kind| expr(kind).const_eval(&|_| None);
        assert_eq!(eval(ExprKind::FloatLit(0.5)), None);
        assert_eq!(eval(ExprKind::FloatLit(4.0)), Some(4));
        let min = || Box::new(expr(ExprKind::IntLit(i64::MIN)));
        assert_eq!(
            eval(ExprKind::Unary {
                op: UnaryOp::Neg,
                operand: min(),
                postfix: false,
            }),
            Some(i64::MIN)
        );
        for op in [BinaryOp::Div, BinaryOp::Rem] {
            let rhs = Box::new(expr(ExprKind::IntLit(-1)));
            assert_eq!(
                eval(ExprKind::Binary {
                    op,
                    lhs: min(),
                    rhs
                }),
                None
            );
        }
    }

    #[test]
    fn type_predicates() {
        assert!(Type::Int.is_scalar());
        assert!(Type::Double.is_floating());
        assert!(!Type::Pointer(Box::new(Type::Int)).is_scalar());
        assert!(Type::Pointer(Box::new(Type::Int)).is_mappable_aggregate());
        assert!(Type::Array(Box::new(Type::Double), None).is_mappable_aggregate());
        assert_eq!(
            Type::Array(Box::new(Type::Double), None).scalar_size_bytes(),
            8
        );
        assert_eq!(Type::Pointer(Box::new(Type::Float)).scalar_size_bytes(), 4);
        assert_eq!(Type::Int.to_c_string(), "int");
        assert_eq!(
            Type::Pointer(Box::new(Type::Double)).to_c_string(),
            "double *"
        );
    }

    #[test]
    fn assign_op_to_binary() {
        assert_eq!(AssignOp::Add.binary_op(), Some(BinaryOp::Add));
        assert_eq!(AssignOp::Assign.binary_op(), None);
        assert_eq!(AssignOp::Shl.symbol(), "<<=");
    }
}
