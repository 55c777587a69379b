//! Recursive-descent parser for MiniC.
//!
//! The parser reads the preprocessed token buffer by index and produces a
//! [`TranslationUnit`]. OpenMP pragmas are attached to the statement that
//! follows them (for non-standalone directives), mirroring how Clang
//! represents `OMPExecutableDirective` nodes with captured statements; their
//! clauses are parsed from the pragma line's own tokens in the same buffer.

use crate::ast::*;
use crate::diag::Diagnostics;
use crate::intern::{FnvBuild, Symbol};
use crate::lexer::tokenize_file;
use crate::omp::{DirectiveKind, OmpDirective};
use crate::pragma::parse_omp_pragma;
use crate::preprocess::{preprocess, PreprocessOutput};
use crate::source::{SourceFile, Span};
use crate::token::{Literals, Token, TokenKind};
use std::collections::HashSet;
use std::sync::OnceLock;

/// Result of parsing a source file.
#[derive(Debug)]
pub struct ParseResult {
    pub unit: TranslationUnit,
    pub diagnostics: Diagnostics,
}

impl ParseResult {
    /// True if parsing produced no errors.
    pub fn is_ok(&self) -> bool {
        !self.diagnostics.has_errors()
    }
}

/// Parse a complete source file (lex + preprocess + parse).
pub fn parse_source(file: &SourceFile) -> ParseResult {
    let (tokens, mut diags) = tokenize_file(file);
    let PreprocessOutput {
        tokens, constants, ..
    } = preprocess(tokens, &mut diags);
    let mut parser = Parser::new(&tokens, tokens.literals(), diags);
    let mut unit = parser.parse_translation_unit();
    unit.constants = constants;
    ParseResult {
        unit,
        diagnostics: parser.diags,
    }
}

/// Convenience: parse source text given as a string.
pub fn parse_str(name: &str, text: &str) -> (SourceFile, ParseResult) {
    let file = SourceFile::new(name, text);
    let result = parse_source(&file);
    (file, result)
}

/// How many statements and expressions may be open inside each other. A
/// parenthesized expression opens three (assignment, conditional, unary), so
/// this admits well over the 63 levels of parentheses C guarantees; deeper
/// input is an error rather than a stack overflow here or in a later walk
/// over the tree.
const MAX_NESTING: u32 = 256;

/// Type names every unit may use without declaring them.
fn builtin_typedefs() -> &'static [Symbol] {
    static BUILTIN: OnceLock<Vec<Symbol>> = OnceLock::new();
    BUILTIN.get_or_init(|| {
        [
            "size_t",
            "ssize_t",
            "ptrdiff_t",
            "int8_t",
            "int16_t",
            "int32_t",
            "int64_t",
            "uint8_t",
            "uint16_t",
            "uint32_t",
            "uint64_t",
            "intptr_t",
            "uintptr_t",
            "FILE",
            "Real_t",
            "Index_t",
            "Int_t",
        ]
        .into_iter()
        .map(Symbol::intern)
        .collect()
    })
}

pub(crate) struct Parser<'t> {
    tokens: &'t [Token],
    literals: &'t Literals,
    pos: usize,
    /// What reading at or past the last token finds: an `Eof` at the end of
    /// the last token (the buffer's own, for a whole unit).
    eof: Token,
    /// The span of the last token (or pragma line) consumed.
    prev: Span,
    pub(crate) diags: Diagnostics,
    next_id: u32,
    /// Typedef names the unit declared (the builtins are
    /// [`builtin_typedefs`]) and struct tags.
    typedefs: HashSet<Symbol, FnvBuild>,
    structs: HashSet<Symbol, FnvBuild>,
    /// Statements and expressions open around the current position.
    depth: u32,
    /// Set once the input nested deeper than [`MAX_NESTING`].
    abandoned: bool,
}

impl<'t> Parser<'t> {
    pub(crate) fn new(tokens: &'t [Token], literals: &'t Literals, diags: Diagnostics) -> Self {
        let end = tokens.last().map_or(0, |t| t.span.end);
        Parser {
            tokens,
            literals,
            pos: 0,
            eof: Token::plain(TokenKind::Eof, Span::point(end)),
            prev: Span::dummy(),
            diags,
            next_id: 0,
            typedefs: HashSet::default(),
            structs: HashSet::default(),
            depth: 0,
            abandoned: false,
        }
    }

    /// A sub-parser over a slice of tokens with no `Eof` of its own (clause
    /// expressions of a pragma, the condition of a `#if`). Its node ids
    /// start high so they do not collide with ids from the main parse in
    /// practice; collisions are harmless because fragment expressions are
    /// never indexed by id. It knows only the builtin typedefs.
    pub(crate) fn for_fragment(tokens: &'t [Token], literals: &'t Literals) -> Self {
        let mut p = Parser::new(tokens, literals, Diagnostics::new());
        p.next_id = 1 << 24;
        p
    }

    pub(crate) fn fresh_id(&mut self) -> NodeId {
        let id = NodeId(self.next_id);
        self.next_id += 1;
        id
    }

    pub(crate) fn literals(&self) -> &'t Literals {
        self.literals
    }

    // -- token helpers ------------------------------------------------------

    fn tok(&self, index: usize) -> &Token {
        self.tokens.get(index).unwrap_or(&self.eof)
    }

    fn peek(&self) -> TokenKind {
        self.tok(self.pos).kind
    }

    fn peek_at(&self, off: usize) -> TokenKind {
        self.tok(self.pos + off).kind
    }

    fn peek_span(&self) -> Span {
        self.tok(self.pos).span
    }

    /// The identifier at the current position, if there is one.
    fn peek_ident(&self) -> Option<Symbol> {
        self.tok(self.pos).ident()
    }

    /// Name the current token, as parse errors do.
    fn describe_current(&self) -> String {
        self.literals.describe(self.tok(self.pos))
    }

    pub(crate) fn at_eof(&self) -> bool {
        self.peek() == TokenKind::Eof
    }

    /// Consume the current token — a whole line, for a pragma — and return
    /// its span. At the end of input nothing is consumed.
    fn bump(&mut self) -> Span {
        let tok = *self.tok(self.pos);
        match tok.kind {
            TokenKind::Eof => return tok.span,
            TokenKind::Pragma => self.pos += tok.directive_len() + 1,
            _ => self.pos += 1,
        }
        self.prev = tok.span;
        tok.span
    }

    fn eat(&mut self, kind: TokenKind) -> bool {
        if self.peek() == kind {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, kind: TokenKind) -> Span {
        if self.peek() == kind {
            self.bump()
        } else {
            let span = self.peek_span();
            self.diags.error(
                span,
                format!(
                    "expected {}, found {}",
                    kind.describe(),
                    self.describe_current()
                ),
            );
            span
        }
    }

    /// Skip tokens until one of `sync` (or EOF) is found; used for error
    /// recovery.
    fn recover_to(&mut self, sync: &[TokenKind]) {
        while !self.at_eof() {
            if sync.contains(&self.peek()) {
                return;
            }
            self.bump();
        }
    }

    /// Run `parse` one nesting level deeper. Past [`MAX_NESTING`] the parse
    /// is abandoned instead — one error, and the rest of the input skipped
    /// so that every open level unwinds at the end of file — and
    /// `abandoned` builds the placeholder.
    fn nested<T>(
        &mut self,
        parse: impl FnOnce(&mut Self) -> T,
        abandoned: impl FnOnce(&mut Self) -> T,
    ) -> T {
        if self.depth >= MAX_NESTING {
            self.abandon();
            return abandoned(self);
        }
        self.depth += 1;
        let result = parse(self);
        self.depth -= 1;
        result
    }

    fn abandon(&mut self) {
        if !self.abandoned {
            self.abandoned = true;
            let span = self.peek_span();
            self.diags
                .error(span, format!("nested more than {MAX_NESTING} levels deep"));
        }
        self.pos = self.tokens.len();
    }

    /// One more pointer or array level on a type being built: `false`, and
    /// the parse abandoned, past [`MAX_NESTING`] levels.
    fn type_level(&mut self, levels: &mut u32) -> bool {
        *levels += 1;
        if *levels > MAX_NESTING {
            self.abandon();
        }
        *levels <= MAX_NESTING
    }

    fn error_expr(&mut self) -> Expr {
        Expr {
            id: self.fresh_id(),
            span: self.peek_span(),
            kind: ExprKind::IntLit(0),
        }
    }

    // -- type recognition ---------------------------------------------------

    fn is_typedef(&self, name: Symbol) -> bool {
        builtin_typedefs().contains(&name) || self.typedefs.contains(&name)
    }

    fn is_type_name(&self, tok: &Token) -> bool {
        tok.kind.is_type_keyword() || tok.ident().is_some_and(|name| self.is_typedef(name))
    }

    /// True if a declaration starts at the current position.
    fn at_declaration(&self) -> bool {
        let k = self.peek();
        if k.is_decl_qualifier() {
            return true;
        }
        if k.is_type_keyword() {
            return true;
        }
        if self.peek_ident().is_some_and(|name| self.is_typedef(name)) {
            // `size_t n`, `Real_t *x` — a type name followed by a
            // declarator start.
            return matches!(self.peek_at(1), TokenKind::Ident | TokenKind::Star);
        }
        k == TokenKind::KwTypedef
    }

    /// The words of the pragma line opened at `at`: the tokens between its
    /// opener and its end marker.
    fn pragma_words(&self, at: usize) -> &'t [Token] {
        let tokens = self.tokens;
        let len = tokens.get(at).map_or(0, Token::directive_len);
        tokens.get(at + 1..at + len).unwrap_or(&[])
    }

    // -- translation unit ---------------------------------------------------

    pub(crate) fn parse_translation_unit(&mut self) -> TranslationUnit {
        let mut items = Vec::new();
        // Names of the functions defined so far: C allows one definition
        // per unit, so a later one is an error and is left out of the AST.
        let mut defined: HashSet<Symbol, FnvBuild> = HashSet::default();
        while !self.at_eof() {
            match self.peek() {
                TokenKind::Pragma => {
                    // Top-level pragmas (`omp declare target`, `once`, ...) do
                    // not affect the data-mapping analysis; skip them.
                    let span = self.peek_span();
                    let words = self.pragma_words(self.pos);
                    if words
                        .first()
                        .and_then(Token::ident)
                        .is_some_and(|w| w == "omp")
                    {
                        self.diags.note(span, "ignoring file-scope OpenMP pragma");
                    }
                    self.bump();
                }
                TokenKind::Semi => {
                    self.bump();
                }
                TokenKind::KwTypedef => {
                    if let Some(item) = self.parse_typedef() {
                        items.push(item);
                    }
                }
                TokenKind::KwStruct
                    if self.peek_at(1) == TokenKind::Ident
                        && self.peek_at(2) == TokenKind::LBrace =>
                {
                    if let Some(item) = self.parse_struct_def() {
                        items.push(item);
                    }
                }
                TokenKind::KwEnum => {
                    self.skip_enum();
                }
                _ => match self.parse_function_or_global() {
                    Some(TopLevel::Function(f)) if f.body.is_some() && !defined.insert(f.name) => {
                        self.diags
                            .error(f.span, format!("redefinition of `{}`", f.name));
                    }
                    Some(item) => items.push(item),
                    None => {}
                },
            }
        }
        TranslationUnit {
            items,
            constants: Default::default(),
        }
    }

    fn parse_typedef(&mut self) -> Option<TopLevel> {
        let start = self.expect(TokenKind::KwTypedef);
        // typedef struct [Name] { ... } Alias;
        if self.peek() == TokenKind::KwStruct {
            self.bump();
            let tag = self.peek_ident();
            if tag.is_some() {
                self.bump();
            }
            let fields = if self.peek() == TokenKind::LBrace {
                self.parse_struct_fields()
            } else {
                Vec::new()
            };
            let Some(alias) = self.peek_ident() else {
                self.diags
                    .error(self.peek_span(), "expected typedef alias name");
                self.recover_to(&[TokenKind::Semi]);
                self.eat(TokenKind::Semi);
                return None;
            };
            self.bump();
            let end = self.expect(TokenKind::Semi);
            self.typedefs.insert(alias);
            let struct_name = tag.unwrap_or(alias);
            self.structs.insert(struct_name);
            self.typedefs.insert(struct_name);
            // The alias's id: numbered as a typedef, represented by the
            // struct definition it names.
            let _alias_id = self.fresh_id();
            let sid = self.fresh_id();
            let span = start.to(end);
            return Some(TopLevel::Struct(StructDef {
                id: sid,
                span,
                name: struct_name,
                fields,
            }));
        }
        let ty = self.parse_type_specifier()?;
        let (ty, name, _name_span) = self.parse_declarator(ty)?;
        let end = self.expect(TokenKind::Semi);
        self.typedefs.insert(name);
        let id = self.fresh_id();
        Some(TopLevel::Typedef {
            id,
            span: start.to(end),
            name,
            ty,
        })
    }

    fn parse_struct_def(&mut self) -> Option<TopLevel> {
        let start = self.expect(TokenKind::KwStruct);
        let Some(name) = self.peek_ident() else {
            self.diags.error(self.peek_span(), "expected struct name");
            return None;
        };
        self.bump();
        self.structs.insert(name);
        let fields = self.parse_struct_fields();
        let end = self.expect(TokenKind::Semi);
        let id = self.fresh_id();
        Some(TopLevel::Struct(StructDef {
            id,
            span: start.to(end),
            name,
            fields,
        }))
    }

    fn parse_struct_fields(&mut self) -> Vec<VarDecl> {
        let mut fields = Vec::new();
        self.expect(TokenKind::LBrace);
        while !matches!(self.peek(), TokenKind::RBrace | TokenKind::Eof) {
            let quals = self.parse_qualifiers();
            let base = match self.parse_type_specifier() {
                Some(t) => t,
                None => {
                    self.recover_to(&[TokenKind::Semi, TokenKind::RBrace]);
                    self.eat(TokenKind::Semi);
                    continue;
                }
            };
            while let Some((ty, name, span)) = self.parse_declarator(base.clone()) {
                let id = self.fresh_id();
                fields.push(VarDecl {
                    id,
                    span,
                    name,
                    ty,
                    init: None,
                    is_const: quals.is_const,
                    is_static: false,
                    is_extern: false,
                });
                if !self.eat(TokenKind::Comma) {
                    break;
                }
            }
            self.expect(TokenKind::Semi);
        }
        self.expect(TokenKind::RBrace);
        fields
    }

    fn skip_enum(&mut self) {
        // `enum Name { A, B = 2, ... };` — record enumerators as constants is
        // unnecessary for the benchmarks; skip the definition entirely.
        self.bump();
        if self.peek() == TokenKind::Ident {
            self.bump();
        }
        if self.peek() == TokenKind::LBrace {
            let mut depth = 0usize;
            loop {
                match self.peek() {
                    TokenKind::LBrace => {
                        depth += 1;
                        self.bump();
                    }
                    TokenKind::RBrace => {
                        depth -= 1;
                        self.bump();
                        if depth == 0 {
                            break;
                        }
                    }
                    TokenKind::Eof => break,
                    _ => {
                        self.bump();
                    }
                }
            }
        }
        self.eat(TokenKind::Semi);
    }

    fn parse_function_or_global(&mut self) -> Option<TopLevel> {
        let start_span = self.peek_span();
        let quals = self.parse_qualifiers();
        let base = match self.parse_type_specifier() {
            Some(t) => t,
            None => {
                self.diags.error(
                    self.peek_span(),
                    format!("expected a declaration, found {}", self.describe_current()),
                );
                self.bump();
                self.recover_to(&[TokenKind::Semi, TokenKind::RBrace]);
                self.eat(TokenKind::Semi);
                return None;
            }
        };
        let (ty, name, name_span) = self.parse_declarator(base.clone())?;

        if self.peek() == TokenKind::LParen {
            // Function definition or prototype.
            let (params, variadic) = self.parse_param_list();
            if self.peek() == TokenKind::LBrace {
                let body = self.parse_compound_stmt();
                let id = self.fresh_id();
                return Some(TopLevel::Function(FunctionDef {
                    id,
                    span: start_span.to(body.span),
                    name,
                    ret: ty,
                    params,
                    body: Some(body),
                    is_static: quals.is_static,
                    is_variadic: variadic,
                }));
            }
            let end = self.expect(TokenKind::Semi);
            let id = self.fresh_id();
            return Some(TopLevel::Function(FunctionDef {
                id,
                span: start_span.to(end),
                name,
                ret: ty,
                params,
                body: None,
                is_static: quals.is_static,
                is_variadic: variadic,
            }));
        }

        // Global variable declaration(s).
        let mut decls = Vec::new();
        let mut cur = (ty, name, name_span);
        loop {
            let init = if self.eat(TokenKind::Assign) {
                Some(self.parse_initializer())
            } else {
                None
            };
            let id = self.fresh_id();
            decls.push(VarDecl {
                id,
                span: cur.2,
                name: cur.1,
                ty: cur.0,
                init,
                is_const: quals.is_const,
                is_static: quals.is_static,
                is_extern: quals.is_extern,
            });
            if self.eat(TokenKind::Comma) {
                match self.parse_declarator(base.clone()) {
                    Some(next) => cur = next,
                    None => break,
                }
            } else {
                break;
            }
        }
        self.expect(TokenKind::Semi);
        Some(TopLevel::Globals(decls))
    }

    // -- declaration pieces -------------------------------------------------

    fn parse_qualifiers(&mut self) -> Qualifiers {
        let mut q = Qualifiers::default();
        loop {
            match self.peek() {
                TokenKind::KwConst => {
                    q.is_const = true;
                    self.bump();
                }
                TokenKind::KwStatic => {
                    q.is_static = true;
                    self.bump();
                }
                TokenKind::KwExtern => {
                    q.is_extern = true;
                    self.bump();
                }
                TokenKind::KwInline | TokenKind::KwVolatile | TokenKind::KwRestrict => {
                    self.bump();
                }
                _ => break,
            }
        }
        q
    }

    /// Parse a type specifier (without pointer declarators).
    fn parse_type_specifier(&mut self) -> Option<Type> {
        // Consume interleaved qualifiers too (e.g. `unsigned const int`).
        let mut unsigned = false;
        let mut long_count = 0usize;
        let mut base: Option<Type> = None;
        let mut consumed_any = false;
        loop {
            match self.peek() {
                TokenKind::KwConst | TokenKind::KwVolatile | TokenKind::KwRestrict => {
                    self.bump();
                }
                TokenKind::KwUnsigned => {
                    unsigned = true;
                    consumed_any = true;
                    self.bump();
                }
                TokenKind::KwSigned => {
                    consumed_any = true;
                    self.bump();
                }
                TokenKind::KwLong => {
                    long_count += 1;
                    consumed_any = true;
                    self.bump();
                }
                TokenKind::KwShort => {
                    consumed_any = true;
                    self.bump();
                }
                TokenKind::KwInt => {
                    base = Some(Type::Int);
                    consumed_any = true;
                    self.bump();
                }
                TokenKind::KwChar => {
                    base = Some(Type::Char);
                    consumed_any = true;
                    self.bump();
                }
                TokenKind::KwFloat => {
                    base = Some(Type::Float);
                    consumed_any = true;
                    self.bump();
                }
                TokenKind::KwDouble => {
                    base = Some(Type::Double);
                    consumed_any = true;
                    self.bump();
                }
                TokenKind::KwBool => {
                    base = Some(Type::Bool);
                    consumed_any = true;
                    self.bump();
                }
                TokenKind::KwVoid => {
                    base = Some(Type::Void);
                    consumed_any = true;
                    self.bump();
                }
                TokenKind::KwStruct => {
                    self.bump();
                    let Some(name) = self.peek_ident() else {
                        self.diags.error(self.peek_span(), "expected struct name");
                        return None;
                    };
                    self.bump();
                    self.structs.insert(name);
                    base = Some(Type::Struct(name));
                    consumed_any = true;
                }
                TokenKind::Ident if base.is_none() && !consumed_any => {
                    match self.peek_ident().filter(|name| self.is_typedef(*name)) {
                        Some(name) => {
                            self.bump();
                            base = Some(if self.structs.contains(&name) {
                                Type::Struct(name)
                            } else {
                                Type::Named(name)
                            });
                            consumed_any = true;
                        }
                        None => break,
                    }
                }
                _ => break,
            }
            // A base type followed by anything other than more specifiers is
            // complete; the loop's match-arms above only continue for valid
            // specifier tokens.
            if base.is_some()
                && !matches!(
                    self.peek(),
                    TokenKind::KwConst | TokenKind::KwVolatile | TokenKind::KwRestrict
                )
                && !self.peek().is_type_keyword()
            {
                break;
            }
        }
        if !consumed_any {
            return None;
        }
        let ty = match (base, unsigned, long_count) {
            (Some(Type::Int), true, 0) => Type::UInt,
            (Some(Type::Int), false, 0) => Type::Int,
            (Some(Type::Int), true, _) => Type::ULong,
            (Some(Type::Int), false, _) => Type::Long,
            (Some(Type::Char), _, _) => Type::Char,
            (Some(t), _, _) => t,
            (None, true, 0) => Type::UInt,
            (None, true, _) => Type::ULong,
            (None, false, 0) => Type::Int,
            (None, false, _) => Type::Long,
        };
        Some(ty)
    }

    /// Parse a declarator: pointers, a name, then array suffixes.
    /// Returns (full type, name, name span).
    fn parse_declarator(&mut self, mut base: Type) -> Option<(Type, Symbol, Span)> {
        let mut levels = 0;
        loop {
            match self.peek() {
                TokenKind::Star => {
                    if !self.type_level(&mut levels) {
                        return None;
                    }
                    self.bump();
                    base = Type::Pointer(Box::new(base));
                }
                TokenKind::KwConst | TokenKind::KwRestrict | TokenKind::KwVolatile => {
                    self.bump();
                }
                _ => break,
            }
        }
        let Some(name) = self.peek_ident() else {
            self.diags.error(
                self.peek_span(),
                format!(
                    "expected identifier in declarator, found {}",
                    self.describe_current()
                ),
            );
            return None;
        };
        let name_span = self.bump();
        // Array suffixes (innermost dimension last in source order).
        let mut dims: Vec<Option<Box<Expr>>> = Vec::new();
        while self.peek() == TokenKind::LBracket && self.type_level(&mut levels) {
            self.bump();
            if self.eat(TokenKind::RBracket) {
                dims.push(None);
            } else {
                let size = self.parse_assignment_expr();
                self.expect(TokenKind::RBracket);
                dims.push(Some(Box::new(size)));
            }
        }
        let mut ty = base;
        for dim in dims.into_iter().rev() {
            ty = Type::Array(Box::new(ty), dim);
        }
        Some((ty, name, name_span))
    }

    /// `*`s after a type name in a cast or `sizeof`: pointer levels on `ty`.
    fn pointer_suffix(&mut self, mut ty: Type) -> Type {
        let mut levels = 0;
        while self.peek() == TokenKind::Star && self.type_level(&mut levels) {
            self.bump();
            ty = Type::Pointer(Box::new(ty));
        }
        ty
    }

    fn parse_param_list(&mut self) -> (Vec<ParamDecl>, bool) {
        self.expect(TokenKind::LParen);
        let mut params = Vec::new();
        let mut variadic = false;
        if self.eat(TokenKind::RParen) {
            return (params, variadic);
        }
        // `(void)`
        if self.peek() == TokenKind::KwVoid && self.peek_at(1) == TokenKind::RParen {
            self.bump();
            self.bump();
            return (params, variadic);
        }
        loop {
            if self.eat(TokenKind::Ellipsis) {
                variadic = true;
                break;
            }
            let quals = self.parse_qualifiers();
            let base = match self.parse_type_specifier() {
                Some(t) => t,
                None => {
                    self.diags
                        .error(self.peek_span(), "expected parameter type");
                    self.recover_to(&[TokenKind::Comma, TokenKind::RParen]);
                    if self.eat(TokenKind::Comma) {
                        continue;
                    }
                    break;
                }
            };
            // The pointee is const if `const` appeared before the base type.
            let pointee_const = quals.is_const;
            match self.parse_declarator(base) {
                Some((ty, name, span)) => {
                    let id = self.fresh_id();
                    params.push(ParamDecl {
                        id,
                        span,
                        name,
                        ty: ty.clone(),
                        is_const_pointee: pointee_const && (ty.is_pointer() || ty.is_array()),
                    });
                }
                None => {
                    self.recover_to(&[TokenKind::Comma, TokenKind::RParen]);
                }
            }
            if !self.eat(TokenKind::Comma) {
                break;
            }
        }
        self.expect(TokenKind::RParen);
        (params, variadic)
    }

    fn parse_initializer(&mut self) -> Init {
        self.nested(Self::initializer, |p| Init::Expr(p.error_expr()))
    }

    fn initializer(&mut self) -> Init {
        if self.eat(TokenKind::LBrace) {
            let mut items = Vec::new();
            if self.peek() != TokenKind::RBrace {
                loop {
                    items.push(self.parse_initializer());
                    if !self.eat(TokenKind::Comma) {
                        break;
                    }
                    if self.peek() == TokenKind::RBrace {
                        break;
                    }
                }
            }
            self.expect(TokenKind::RBrace);
            Init::List(items)
        } else {
            Init::Expr(self.parse_assignment_expr())
        }
    }

    // -- statements ---------------------------------------------------------

    pub(crate) fn parse_compound_stmt(&mut self) -> Stmt {
        let start = self.expect(TokenKind::LBrace);
        let mut items = Vec::new();
        while !matches!(self.peek(), TokenKind::RBrace | TokenKind::Eof) {
            items.push(self.parse_stmt());
        }
        let end = self.expect(TokenKind::RBrace);
        Stmt {
            id: self.fresh_id(),
            span: start.to(end),
            kind: StmtKind::Compound(items),
        }
    }

    pub(crate) fn parse_stmt(&mut self) -> Stmt {
        self.nested(Self::stmt, |p| Stmt {
            id: p.fresh_id(),
            span: p.peek_span(),
            kind: StmtKind::Empty,
        })
    }

    fn stmt(&mut self) -> Stmt {
        let start = self.peek_span();
        match self.peek() {
            TokenKind::LBrace => self.parse_compound_stmt(),
            TokenKind::Semi => {
                self.bump();
                Stmt {
                    id: self.fresh_id(),
                    span: start,
                    kind: StmtKind::Empty,
                }
            }
            TokenKind::KwIf => self.parse_if_stmt(),
            TokenKind::KwWhile => self.parse_while_stmt(),
            TokenKind::KwDo => self.parse_do_stmt(),
            TokenKind::KwFor => self.parse_for_stmt(),
            TokenKind::KwSwitch => self.parse_switch_stmt(),
            TokenKind::KwCase => {
                self.bump();
                let value = self.parse_expr();
                let end = self.expect(TokenKind::Colon);
                Stmt {
                    id: self.fresh_id(),
                    span: start.to(end),
                    kind: StmtKind::Case { value },
                }
            }
            TokenKind::KwDefault => {
                self.bump();
                let end = self.expect(TokenKind::Colon);
                Stmt {
                    id: self.fresh_id(),
                    span: start.to(end),
                    kind: StmtKind::Default,
                }
            }
            TokenKind::KwReturn => {
                self.bump();
                let value = if self.peek() == TokenKind::Semi {
                    None
                } else {
                    Some(self.parse_expr())
                };
                let end = self.expect(TokenKind::Semi);
                Stmt {
                    id: self.fresh_id(),
                    span: start.to(end),
                    kind: StmtKind::Return(value),
                }
            }
            TokenKind::KwBreak => {
                self.bump();
                let end = self.expect(TokenKind::Semi);
                Stmt {
                    id: self.fresh_id(),
                    span: start.to(end),
                    kind: StmtKind::Break,
                }
            }
            TokenKind::KwContinue => {
                self.bump();
                let end = self.expect(TokenKind::Semi);
                Stmt {
                    id: self.fresh_id(),
                    span: start.to(end),
                    kind: StmtKind::Continue,
                }
            }
            TokenKind::Pragma => self.parse_pragma_stmt(),
            _ => {
                if self.at_declaration() {
                    self.parse_decl_stmt()
                } else {
                    let expr = self.parse_expr();
                    let end = self.expect(TokenKind::Semi);
                    Stmt {
                        id: self.fresh_id(),
                        span: start.to(end),
                        kind: StmtKind::Expr(expr),
                    }
                }
            }
        }
    }

    fn parse_pragma_stmt(&mut self) -> Stmt {
        let words = self.pragma_words(self.pos);
        let pragma_span = self.bump();
        match words.split_first() {
            Some((omp, words)) if omp.ident().is_some_and(|w| w == "omp") => {
                match parse_omp_pragma(self, words, pragma_span) {
                    Some(mut dir) => {
                        if !dir.kind.is_standalone() {
                            let body = self.parse_stmt();
                            dir.body = Some(Box::new(body));
                        }
                        let span = match &dir.body {
                            Some(b) => pragma_span.to(b.span),
                            None => pragma_span,
                        };
                        Stmt {
                            id: self.fresh_id(),
                            span,
                            kind: StmtKind::Omp(dir),
                        }
                    }
                    None => {
                        self.diags
                            .warning(pragma_span, "unrecognized OpenMP pragma ignored");
                        Stmt {
                            id: self.fresh_id(),
                            span: pragma_span,
                            kind: StmtKind::Empty,
                        }
                    }
                }
            }
            // Non-OpenMP pragma: ignore.
            _ => Stmt {
                id: self.fresh_id(),
                span: pragma_span,
                kind: StmtKind::Empty,
            },
        }
    }

    fn parse_decl_stmt(&mut self) -> Stmt {
        let start = self.peek_span();
        let quals = self.parse_qualifiers();
        let base = match self.parse_type_specifier() {
            Some(t) => t,
            None => {
                self.diags
                    .error(self.peek_span(), "expected type in declaration");
                self.recover_to(&[TokenKind::Semi]);
                let end = self.prev;
                self.eat(TokenKind::Semi);
                return Stmt {
                    id: self.fresh_id(),
                    span: start.to(end),
                    kind: StmtKind::Empty,
                };
            }
        };
        let mut decls = Vec::new();
        loop {
            match self.parse_declarator(base.clone()) {
                Some((ty, name, span)) => {
                    let init = if self.eat(TokenKind::Assign) {
                        Some(self.parse_initializer())
                    } else {
                        None
                    };
                    let id = self.fresh_id();
                    decls.push(VarDecl {
                        id,
                        span,
                        name,
                        ty,
                        init,
                        is_const: quals.is_const,
                        is_static: quals.is_static,
                        is_extern: quals.is_extern,
                    });
                }
                None => {
                    self.recover_to(&[TokenKind::Semi, TokenKind::Comma]);
                }
            }
            if !self.eat(TokenKind::Comma) {
                break;
            }
        }
        let end = self.expect(TokenKind::Semi);
        Stmt {
            id: self.fresh_id(),
            span: start.to(end),
            kind: StmtKind::Decl(decls),
        }
    }

    fn parse_if_stmt(&mut self) -> Stmt {
        let start = self.expect(TokenKind::KwIf);
        self.expect(TokenKind::LParen);
        let cond = self.parse_expr();
        self.expect(TokenKind::RParen);
        let then_branch = Box::new(self.parse_stmt());
        let (else_branch, end) = if self.eat(TokenKind::KwElse) {
            let e = self.parse_stmt();
            let span = e.span;
            (Some(Box::new(e)), span)
        } else {
            (None, then_branch.span)
        };
        Stmt {
            id: self.fresh_id(),
            span: start.to(end),
            kind: StmtKind::If {
                cond,
                then_branch,
                else_branch,
            },
        }
    }

    fn parse_while_stmt(&mut self) -> Stmt {
        let start = self.expect(TokenKind::KwWhile);
        self.expect(TokenKind::LParen);
        let cond = self.parse_expr();
        self.expect(TokenKind::RParen);
        let body = Box::new(self.parse_stmt());
        let end = body.span;
        Stmt {
            id: self.fresh_id(),
            span: start.to(end),
            kind: StmtKind::While { cond, body },
        }
    }

    fn parse_do_stmt(&mut self) -> Stmt {
        let start = self.expect(TokenKind::KwDo);
        let body = Box::new(self.parse_stmt());
        self.expect(TokenKind::KwWhile);
        self.expect(TokenKind::LParen);
        let cond = self.parse_expr();
        self.expect(TokenKind::RParen);
        let end = self.expect(TokenKind::Semi);
        Stmt {
            id: self.fresh_id(),
            span: start.to(end),
            kind: StmtKind::DoWhile { body, cond },
        }
    }

    fn parse_for_stmt(&mut self) -> Stmt {
        let start = self.expect(TokenKind::KwFor);
        self.expect(TokenKind::LParen);
        let init = if self.eat(TokenKind::Semi) {
            None
        } else if self.at_declaration() {
            let stmt = self.parse_decl_stmt();
            match stmt.kind {
                StmtKind::Decl(decls) => Some(Box::new(ForInit::Decl(decls))),
                _ => None,
            }
        } else {
            let e = self.parse_expr();
            self.expect(TokenKind::Semi);
            Some(Box::new(ForInit::Expr(e)))
        };
        let cond = if self.peek() == TokenKind::Semi {
            None
        } else {
            Some(self.parse_expr())
        };
        self.expect(TokenKind::Semi);
        let inc = if self.peek() == TokenKind::RParen {
            None
        } else {
            Some(self.parse_expr())
        };
        self.expect(TokenKind::RParen);
        let body = Box::new(self.parse_stmt());
        let end = body.span;
        Stmt {
            id: self.fresh_id(),
            span: start.to(end),
            kind: StmtKind::For {
                init,
                cond,
                inc,
                body,
            },
        }
    }

    fn parse_switch_stmt(&mut self) -> Stmt {
        let start = self.expect(TokenKind::KwSwitch);
        self.expect(TokenKind::LParen);
        let cond = self.parse_expr();
        self.expect(TokenKind::RParen);
        let body = Box::new(self.parse_stmt());
        let end = body.span;
        Stmt {
            id: self.fresh_id(),
            span: start.to(end),
            kind: StmtKind::Switch { cond, body },
        }
    }

    // -- expressions --------------------------------------------------------

    /// Parse a full expression, including the comma operator.
    pub(crate) fn parse_expr(&mut self) -> Expr {
        let first = self.parse_assignment_expr();
        if self.peek() == TokenKind::Comma {
            let start = first.span;
            let mut items = vec![first];
            while self.eat(TokenKind::Comma) {
                items.push(self.parse_assignment_expr());
            }
            let end = items.last().map(|e| e.span).unwrap_or(start);
            Expr {
                id: self.fresh_id(),
                span: start.to(end),
                kind: ExprKind::Comma(items),
            }
        } else {
            first
        }
    }

    /// Parse an assignment expression (no top-level comma).
    pub(crate) fn parse_assignment_expr(&mut self) -> Expr {
        self.nested(Self::assignment_expr, Self::error_expr)
    }

    fn assignment_expr(&mut self) -> Expr {
        let lhs = self.parse_conditional_expr();
        let op = match self.peek() {
            TokenKind::Assign => AssignOp::Assign,
            TokenKind::PlusAssign => AssignOp::Add,
            TokenKind::MinusAssign => AssignOp::Sub,
            TokenKind::StarAssign => AssignOp::Mul,
            TokenKind::SlashAssign => AssignOp::Div,
            TokenKind::PercentAssign => AssignOp::Rem,
            TokenKind::ShlAssign => AssignOp::Shl,
            TokenKind::ShrAssign => AssignOp::Shr,
            TokenKind::AmpAssign => AssignOp::BitAnd,
            TokenKind::PipeAssign => AssignOp::BitOr,
            TokenKind::CaretAssign => AssignOp::BitXor,
            _ => return lhs,
        };
        self.bump();
        let rhs = self.parse_assignment_expr();
        let span = lhs.span.to(rhs.span);
        Expr {
            id: self.fresh_id(),
            span,
            kind: ExprKind::Assign {
                op,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
            },
        }
    }

    fn parse_conditional_expr(&mut self) -> Expr {
        self.nested(Self::conditional_expr, Self::error_expr)
    }

    fn conditional_expr(&mut self) -> Expr {
        let cond = self.parse_binary_expr(0);
        if self.eat(TokenKind::Question) {
            let then_expr = self.parse_assignment_expr();
            self.expect(TokenKind::Colon);
            let else_expr = self.parse_conditional_expr();
            let span = cond.span.to(else_expr.span);
            Expr {
                id: self.fresh_id(),
                span,
                kind: ExprKind::Conditional {
                    cond: Box::new(cond),
                    then_expr: Box::new(then_expr),
                    else_expr: Box::new(else_expr),
                },
            }
        } else {
            cond
        }
    }

    fn binary_op_of(kind: TokenKind) -> Option<(BinaryOp, u8)> {
        use BinaryOp::*;
        Some(match kind {
            TokenKind::OrOr => (LogicalOr, 1),
            TokenKind::AndAnd => (LogicalAnd, 2),
            TokenKind::Pipe => (BitOr, 3),
            TokenKind::Caret => (BitXor, 4),
            TokenKind::Amp => (BitAnd, 5),
            TokenKind::Eq => (Eq, 6),
            TokenKind::Ne => (Ne, 6),
            TokenKind::Lt => (Lt, 7),
            TokenKind::Gt => (Gt, 7),
            TokenKind::Le => (Le, 7),
            TokenKind::Ge => (Ge, 7),
            TokenKind::Shl => (Shl, 8),
            TokenKind::Shr => (Shr, 8),
            TokenKind::Plus => (Add, 9),
            TokenKind::Minus => (Sub, 9),
            TokenKind::Star => (Mul, 10),
            TokenKind::Slash => (Div, 10),
            TokenKind::Percent => (Rem, 10),
            _ => return None,
        })
    }

    fn parse_binary_expr(&mut self, min_prec: u8) -> Expr {
        let mut lhs = self.parse_unary_expr();
        loop {
            let (op, prec) = match Self::binary_op_of(self.peek()) {
                Some(pair) if pair.1 >= min_prec.max(1) => pair,
                _ => break,
            };
            self.bump();
            let rhs = self.parse_binary_expr(prec + 1);
            let span = lhs.span.to(rhs.span);
            lhs = Expr {
                id: self.fresh_id(),
                span,
                kind: ExprKind::Binary {
                    op,
                    lhs: Box::new(lhs),
                    rhs: Box::new(rhs),
                },
            };
        }
        lhs
    }

    fn parse_unary_expr(&mut self) -> Expr {
        self.nested(Self::unary_expr, Self::error_expr)
    }

    fn unary_expr(&mut self) -> Expr {
        let start = self.peek_span();
        let op = match self.peek() {
            TokenKind::PlusPlus => UnaryOp::Inc,
            TokenKind::MinusMinus => UnaryOp::Dec,
            TokenKind::Minus => UnaryOp::Neg,
            TokenKind::Plus => UnaryOp::Plus,
            TokenKind::Bang => UnaryOp::Not,
            TokenKind::Tilde => UnaryOp::BitNot,
            TokenKind::Star => UnaryOp::Deref,
            TokenKind::Amp => UnaryOp::AddrOf,
            TokenKind::KwSizeof => {
                self.bump();
                // sizeof(type) or sizeof expr
                if self.peek() == TokenKind::LParen && self.is_type_name(self.tok(self.pos + 1)) {
                    self.bump();
                    let ty = self.parse_type_specifier().unwrap_or(Type::Int);
                    let ty = self.pointer_suffix(ty);
                    let end = self.expect(TokenKind::RParen);
                    return Expr {
                        id: self.fresh_id(),
                        span: start.to(end),
                        kind: ExprKind::SizeofType(ty),
                    };
                }
                let operand = self.parse_unary_expr();
                let span = start.to(operand.span);
                return Expr {
                    id: self.fresh_id(),
                    span,
                    kind: ExprKind::SizeofExpr(Box::new(operand)),
                };
            }
            // Cast expression: `(type) unary-expr`
            TokenKind::LParen if self.is_type_name(self.tok(self.pos + 1)) => {
                // Lookahead to distinguish `(int)x` from `(x + y)` when `x`
                // could be a typedef used as a variable; the typedef set makes
                // this unambiguous in MiniC.
                self.bump();
                let base = self.parse_type_specifier().unwrap_or(Type::Int);
                let ty = self.pointer_suffix(base);
                self.expect(TokenKind::RParen);
                let operand = self.parse_unary_expr();
                let span = start.to(operand.span);
                return Expr {
                    id: self.fresh_id(),
                    span,
                    kind: ExprKind::Cast {
                        ty,
                        expr: Box::new(operand),
                    },
                };
            }
            _ => return self.parse_postfix_expr(),
        };
        self.bump();
        let operand = self.parse_unary_expr();
        let span = start.to(operand.span);
        Expr {
            id: self.fresh_id(),
            span,
            kind: ExprKind::Unary {
                op,
                operand: Box::new(operand),
                postfix: false,
            },
        }
    }

    fn parse_postfix_expr(&mut self) -> Expr {
        let mut expr = self.parse_primary_expr();
        loop {
            match self.peek() {
                TokenKind::LBracket => {
                    self.bump();
                    let index = self.parse_expr();
                    let end = self.expect(TokenKind::RBracket);
                    let span = expr.span.to(end);
                    expr = Expr {
                        id: self.fresh_id(),
                        span,
                        kind: ExprKind::Index {
                            base: Box::new(expr),
                            index: Box::new(index),
                        },
                    };
                }
                TokenKind::Dot | TokenKind::Arrow => {
                    let arrow = self.peek() == TokenKind::Arrow;
                    self.bump();
                    let (field, fspan) = match self.peek_ident() {
                        Some(name) => (name, self.bump()),
                        None => {
                            self.diags.error(self.peek_span(), "expected member name");
                            (Symbol::intern("<error>"), self.peek_span())
                        }
                    };
                    let span = expr.span.to(fspan);
                    expr = Expr {
                        id: self.fresh_id(),
                        span,
                        kind: ExprKind::Member {
                            base: Box::new(expr),
                            field,
                            arrow,
                        },
                    };
                }
                TokenKind::PlusPlus | TokenKind::MinusMinus => {
                    let op = if self.peek() == TokenKind::PlusPlus {
                        UnaryOp::Inc
                    } else {
                        UnaryOp::Dec
                    };
                    let end = self.bump();
                    let span = expr.span.to(end);
                    expr = Expr {
                        id: self.fresh_id(),
                        span,
                        kind: ExprKind::Unary {
                            op,
                            operand: Box::new(expr),
                            postfix: true,
                        },
                    };
                }
                _ => break,
            }
        }
        expr
    }

    fn parse_primary_expr(&mut self) -> Expr {
        let tok = *self.tok(self.pos);
        let span = tok.span;
        let literals = self.literals;
        let kind = match tok.kind {
            TokenKind::IntLit => ExprKind::IntLit(literals.int(&tok)),
            TokenKind::FloatLit => ExprKind::FloatLit(literals.float(&tok)),
            TokenKind::CharLit => ExprKind::CharLit(literals.char(&tok)),
            TokenKind::StrLit => ExprKind::StrLit(literals.str(&tok).to_string()),
            TokenKind::Ident => {
                let name = tok.ident().unwrap_or_default();
                self.bump();
                if self.peek() != TokenKind::LParen {
                    return Expr {
                        id: self.fresh_id(),
                        span,
                        kind: ExprKind::Ident(name),
                    };
                }
                self.bump();
                let mut args = Vec::new();
                if self.peek() != TokenKind::RParen {
                    loop {
                        args.push(self.parse_assignment_expr());
                        if !self.eat(TokenKind::Comma) {
                            break;
                        }
                    }
                }
                let end = self.expect(TokenKind::RParen);
                return Expr {
                    id: self.fresh_id(),
                    span: span.to(end),
                    kind: ExprKind::Call {
                        callee: name,
                        callee_span: span,
                        args,
                    },
                };
            }
            TokenKind::LParen => {
                self.bump();
                let inner = self.parse_expr();
                let end = self.expect(TokenKind::RParen);
                return Expr {
                    id: self.fresh_id(),
                    span: span.to(end),
                    kind: ExprKind::Paren(Box::new(inner)),
                };
            }
            _ => {
                self.diags.error(
                    span,
                    format!("expected expression, found {}", self.describe_current()),
                );
                ExprKind::IntLit(0)
            }
        };
        self.bump();
        Expr {
            id: self.fresh_id(),
            span,
            kind,
        }
    }

    pub(crate) fn note_unknown_directive(&mut self, span: Span, text: &str) {
        self.diags.warning(
            span,
            format!("unknown OpenMP directive `{text}` treated opaquely"),
        );
    }
}

#[derive(Default, Clone, Copy)]
struct Qualifiers {
    is_const: bool,
    is_static: bool,
    is_extern: bool,
}

/// Build an [`OmpDirective`] with fresh ids; exposed to the pragma parser.
pub(crate) fn make_directive(
    parser: &mut Parser,
    kind: DirectiveKind,
    clauses: Vec<crate::omp::Clause>,
    pragma_span: Span,
) -> OmpDirective {
    OmpDirective {
        id: parser.fresh_id(),
        pragma_span,
        kind,
        clauses,
        body: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::omp::{Clause, MapType};

    fn parse_ok(src: &str) -> (SourceFile, TranslationUnit) {
        let (file, result) = parse_str("test.c", src);
        assert!(
            result.is_ok(),
            "unexpected parse errors:\n{}",
            result.diagnostics.render_all(&file)
        );
        (file, result.unit)
    }

    #[test]
    fn parses_simple_function() {
        let (_f, unit) = parse_ok("int add(int a, int b) { return a + b; }\n");
        let f = unit.function("add").unwrap();
        assert_eq!(f.params.len(), 2);
        assert_eq!(f.ret, Type::Int);
        assert!(!f.is_prototype());
    }

    #[test]
    fn parses_globals_and_arrays() {
        let (_f, unit) =
            parse_ok("#define N 8\nint a[N];\ndouble grid[4][N];\nint x = 3, y = 4;\n");
        assert!(unit.global("a").unwrap().ty.is_array());
        assert!(unit.global("grid").unwrap().ty.is_array());
        assert_eq!(unit.globals().count(), 4);
        assert_eq!(unit.int_constant("N"), Some(8));
    }

    #[test]
    fn parses_pointers_and_const() {
        let (_f, unit) = parse_ok(
            "void scale(const double *in, double *out, int n) { for (int i = 0; i < n; i++) out[i] = in[i] * 2.0; }\n",
        );
        let f = unit.function("scale").unwrap();
        assert!(f.params[0].is_const_pointee);
        assert!(!f.params[1].is_const_pointee);
        assert!(f.params[0].ty.is_pointer());
    }

    #[test]
    fn parses_control_flow() {
        let (_f, unit) = parse_ok(
            "int main() { int s = 0; for (int i = 0; i < 10; ++i) { if (i % 2 == 0) s += i; else s -= 1; } while (s > 0) { s--; } do { s++; } while (s < 5); return s; }\n",
        );
        let main = unit.function("main").unwrap();
        let mut loops = 0;
        let mut ifs = 0;
        main.body.as_ref().unwrap().walk(&mut |s| {
            if s.is_loop() {
                loops += 1;
            }
            if matches!(s.kind, StmtKind::If { .. }) {
                ifs += 1;
            }
        });
        assert_eq!(loops, 3);
        assert_eq!(ifs, 1);
    }

    #[test]
    fn parses_expression_precedence() {
        let (_f, unit) = parse_ok("int v() { return 1 + 2 * 3 - 4 / 2; }\n");
        let f = unit.function("v").unwrap();
        let body = f.body.as_ref().unwrap();
        let mut value = None;
        body.walk(&mut |s| {
            if let StmtKind::Return(Some(e)) = &s.kind {
                value = e.const_eval(&|_| None);
            }
        });
        assert_eq!(value, Some(5));
    }

    #[test]
    fn parses_ternary_and_logical() {
        let (_f, unit) =
            parse_ok("int f(int a, int b) { return a > b ? a : (a == 0 || b != 1) ? 1 : b; }\n");
        assert!(unit.function("f").is_some());
    }

    #[test]
    fn parses_omp_target_with_clauses() {
        let src = "\
#define N 64
void kernel(double *a) {
  #pragma omp target teams distribute parallel for map(tofrom: a[0:N]) firstprivate(N)
  for (int i = 0; i < N; i++) {
    a[i] = a[i] * 2.0;
  }
}
";
        let (_f, unit) = parse_ok(src);
        let f = unit.function("kernel").unwrap();
        let mut found = None;
        f.body.as_ref().unwrap().walk(&mut |s| {
            if let StmtKind::Omp(dir) = &s.kind {
                found = Some(dir.clone());
            }
        });
        let dir = found.expect("no OpenMP directive found");
        assert_eq!(dir.kind, DirectiveKind::TargetTeamsDistributeParallelFor);
        assert!(dir.kind.is_offload_kernel());
        assert!(dir.body.is_some());
        let maps: Vec<_> = dir.map_clauses().collect();
        assert_eq!(maps.len(), 1);
        assert_eq!(*maps[0].0, Some(MapType::ToFrom));
        assert_eq!(maps[0].1[0].var, "a");
        assert_eq!(maps[0].1[0].sections.len(), 1);
    }

    #[test]
    fn parses_target_data_and_update() {
        let src = "\
void step(double *a, int n) {
  #pragma omp target data map(alloc: a[0:n])
  {
    #pragma omp target update to(a[0:n])
    #pragma omp target
    for (int i = 0; i < n; i++) a[i] += 1.0;
    #pragma omp target update from(a[0:n])
  }
}
";
        let (_f, unit) = parse_ok(src);
        let f = unit.function("step").unwrap();
        let mut kinds = Vec::new();
        f.body.as_ref().unwrap().walk(&mut |s| {
            if let StmtKind::Omp(dir) = &s.kind {
                kinds.push(dir.kind.clone());
            }
        });
        assert_eq!(
            kinds,
            vec![
                DirectiveKind::TargetData,
                DirectiveKind::TargetUpdate,
                DirectiveKind::Target,
                DirectiveKind::TargetUpdate,
            ]
        );
    }

    #[test]
    fn parses_struct_and_member_access() {
        let src = "\
struct point { double x; double y; };
double norm2(struct point p) { return p.x * p.x + p.y * p.y; }
";
        let (_f, unit) = parse_ok(src);
        assert!(unit.struct_def("point").is_some());
        assert_eq!(unit.struct_def("point").unwrap().fields.len(), 2);
        assert!(unit.function("norm2").is_some());
    }

    #[test]
    fn parses_typedef_struct() {
        let src = "\
typedef struct { float w; float h; } box_t;
float area(box_t *b) { return b->w * b->h; }
";
        let (_f, unit) = parse_ok(src);
        let f = unit.function("area").unwrap();
        assert!(f.params[0].ty.is_pointer());
    }

    #[test]
    fn parses_calls_and_casts() {
        let (_f, unit) = parse_ok(
            "double f(int n) { double s = (double)n; s += exp(1.0) + sqrt((double)(n * n)); return s; }\n",
        );
        assert!(unit.function("f").is_some());
    }

    #[test]
    fn parses_sizeof() {
        let (_f, unit) = parse_ok(
            "int main() { int n = sizeof(double) + sizeof(int *); long m = sizeof n; return n; }\n",
        );
        assert!(unit.function("main").is_some());
    }

    #[test]
    fn parses_prototype_and_variadic() {
        let (_f, unit) =
            parse_ok("int printf(const char *fmt, ...);\nvoid use() { printf(\"%d\", 3); }\n");
        let proto = unit.all_functions().find(|f| f.name == "printf").unwrap();
        assert!(proto.is_prototype());
        assert!(proto.is_variadic);
    }

    #[test]
    fn parse_error_is_reported_not_panicking() {
        let (_file, result) = parse_str("bad.c", "int f( { return 0; }\n");
        assert!(!result.is_ok());
        assert!(result.diagnostics.error_count() >= 1);
    }

    /// Input nested past the cap — expressions, statements, initializers,
    /// declarator types — is one error, never a stack overflow; nesting
    /// within it parses.
    #[test]
    fn nesting_past_the_cap_is_an_error_not_a_stack_overflow() {
        let deep = 100_000;
        for src in [
            format!("int x = {}1{};", "(".repeat(deep), ")".repeat(deep)),
            format!("int x = {}1;", "-".repeat(deep)),
            format!("int x = {}1;", "(int)".repeat(deep)),
            format!("void f() {{ int y; {}0; }}", "y = ".repeat(deep)),
            format!("int x = {}0;", "1 ? 1 : ".repeat(deep)),
            format!("int x[1] = {}1{};", "{".repeat(deep), "}".repeat(deep)),
            format!("void f() {}{}", "{".repeat(deep), "}".repeat(deep)),
            format!("void f() {{ {}; }}", "if (1) ".repeat(deep)),
            format!("int {}p;", "*".repeat(deep)),
            format!("int p{};", "[1]".repeat(deep)),
            format!("int x = sizeof(int {});", "*".repeat(deep)),
        ] {
            let (_f, result) = parse_str("deep.c", &src);
            let too_deep = (result.diagnostics.iter())
                .filter(|d| d.message == "nested more than 256 levels deep")
                .count();
            assert_eq!(too_deep, 1, "{}", &src[..40]);
        }
        let within = format!(
            "int x = {}1{};\nvoid f() {}{}",
            "(".repeat(60),
            ")".repeat(60),
            "{".repeat(100),
            "}".repeat(100)
        );
        parse_ok(&within);
    }

    #[test]
    fn spans_point_into_original_source() {
        let src = "int main() {\n  int abc = 1;\n  return abc;\n}\n";
        let (file, result) = parse_str("t.c", src);
        assert!(result.is_ok());
        let main = result.unit.function("main").unwrap();
        let mut decl_span = None;
        main.body.as_ref().unwrap().walk(&mut |s| {
            if let StmtKind::Decl(decls) = &s.kind {
                decl_span = Some(decls[0].span);
            }
        });
        assert_eq!(file.snippet(decl_span.unwrap()), "abc");
    }

    #[test]
    fn reduction_clause_parses() {
        let src = "\
void total(double *a, int n) {
  double sum = 0.0;
  #pragma omp target teams distribute parallel for reduction(+: sum) map(to: a[0:n])
  for (int i = 0; i < n; i++) sum += a[i];
}
";
        let (_f, unit) = parse_ok(src);
        let f = unit.function("total").unwrap();
        let mut dir = None;
        f.body.as_ref().unwrap().walk(&mut |s| {
            if let StmtKind::Omp(d) = &s.kind {
                dir = Some(d.clone());
            }
        });
        let dir = dir.unwrap();
        assert_eq!(dir.reduction_vars(), vec!["sum"]);
        assert!(dir
            .clauses
            .iter()
            .any(|c| matches!(c, Clause::Reduction { op, .. } if op == "+")));
    }
}
