//! A deliberately small C preprocessor: a filter over the unit's token
//! buffer.
//!
//! The lexer has already written every directive line into the buffer as
//! tokens (see [`crate::token`]). [`preprocess`] walks the buffer once and
//! compacts it in place: directive lines and the code of inactive blocks
//! are dropped, a pragma line stays as written, and a macro use is replaced
//! by its expansion. An identifier that is not a macro costs one bit test.
//! There is one of everything behind that: one macro expander (`Expander`)
//! whether the use sits in code or in a condition, and a condition is parsed
//! by the expression parser and evaluated by [`Expr::const_eval`].
//!
//! [`Expr::const_eval`]: crate::ast::Expr::const_eval
//!
//! Supported directives:
//!
//! * `#define NAME replacement` and `#define NAME(a, b) replacement` —
//!   object-like and function-like macros, expanded at each use in code and
//!   in conditions (nested calls, zero-parameter lists and arguments with
//!   commas inside parentheses included). A function-like name not followed
//!   by `(` is an ordinary identifier, and a macro is not re-expanded inside
//!   its own replacement. Substituted tokens take the span of the use site
//!   (the whole call, for a function-like macro) so the rewriter keeps
//!   working against the original source. `#`, `##` and variadic parameter
//!   lists are not supported.
//! * `#undef NAME`
//! * `#include ...` — ignored. Standard library functions used by the
//!   benchmarks (`exp`, `sqrt`, `fabs`, `malloc`, `printf`, ...) are treated
//!   as known external functions by the parser/semantics instead.
//! * `#ifdef NAME` / `#ifndef NAME` / `#if expr` / `#elif expr` / `#else` /
//!   `#endif` — conditional inclusion. `expr` is any integer constant
//!   expression of the MiniC grammar (literals in every base, character
//!   literals, arithmetic, shifts, bitwise and logical operators,
//!   comparisons, `?:`) over macros and `defined NAME` / `defined(NAME)`. A
//!   condition with no integer value (an identifier that is not a macro, a
//!   fractional float, an unknown call, a malformed macro call, a division
//!   by zero, a line the lexer had a problem with) is warned about and
//!   assumed true, never silently decided.
//! * `#error` — reported when active.
//!
//! Macros are not expanded on a pragma line: its clauses name variables as
//! written.

use crate::diag::Diagnostics;
use crate::intern::{FnvBuild, Symbol};
use crate::parser::Parser;
use crate::pragma::{collect_paren_args, split_top_level_commas};
use crate::source::Span;
use crate::token::{Literals, Token, TokenBuffer, TokenKind};
use std::borrow::Cow;
use std::collections::HashMap;
use std::sync::Arc;

/// A macro definition.
#[derive(Clone, Debug)]
pub struct MacroDef {
    pub name: Symbol,
    /// Parameter names in declaration order; `None` for an object-like macro.
    pub params: Option<Vec<Symbol>>,
    /// Replacement tokens (spans point into the `#define` line).
    pub body: Vec<Token>,
    /// Span of the defining directive.
    pub span: Span,
}

/// Result of preprocessing: the unit's buffer, filtered, plus the macro
/// table.
#[derive(Debug)]
pub struct PreprocessOutput {
    pub tokens: TokenBuffer,
    /// All macros seen (last definition wins).
    pub macros: HashMap<Symbol, MacroDef, FnvBuild>,
    /// Macros whose replacement is a single numeric literal, exposed to later
    /// stages (pragma expression evaluation, loop-bound const evaluation).
    pub constants: HashMap<String, f64>,
}

impl PreprocessOutput {
    /// Integer value of a constant macro, if it has one and it is integral.
    pub fn int_constant(&self, name: &str) -> Option<i64> {
        self.constants.get(name).map(|v| *v as i64)
    }
}

/// How many macros may be open inside each other (a macro is never open
/// twice, so this bounds chains of distinct macros, not recursion).
const MAX_EXPANSION_DEPTH: usize = 16;
/// How many replacement tokens one use in the source may rescan in all.
const MAX_EXPANSION_TOKENS: usize = 1 << 16;

/// The macro table, with a bit per symbol id saying whether that name is a
/// macro.
#[derive(Default)]
struct Macros {
    defs: HashMap<Symbol, MacroDef, FnvBuild>,
    flags: Vec<u64>,
}

impl Macros {
    fn contains(&self, name: Symbol) -> bool {
        let id = name.index() as usize;
        self.flags
            .get(id / 64)
            .is_some_and(|word| word >> (id % 64) & 1 != 0)
    }

    fn get(&self, name: Symbol) -> Option<&MacroDef> {
        match self.contains(name) {
            true => self.defs.get(&name),
            false => None,
        }
    }

    fn insert(&mut self, def: MacroDef) {
        if self.defs.capacity() == 0 {
            // One allocation for the few macros a unit usually has.
            self.defs.reserve(8);
        }
        let id = def.name.index() as usize;
        if self.flags.len() <= id / 64 {
            self.flags.resize(id / 64 + 1, 0);
        }
        self.flags[id / 64] |= 1 << (id % 64);
        self.defs.insert(def.name, def);
    }

    fn remove(&mut self, name: Symbol) {
        let id = name.index() as usize;
        if let Some(word) = self.flags.get_mut(id / 64) {
            *word &= !(1 << (id % 64));
        }
        self.defs.remove(&name);
    }
}

/// Run the preprocessor over a unit's buffer, in place.
pub fn preprocess(buffer: TokenBuffer, diags: &mut Diagnostics) -> PreprocessOutput {
    let TokenBuffer {
        mut tokens,
        literals,
        text,
    } = buffer;
    let mut pp = Preprocessor {
        macros: Macros::default(),
        cond_stack: Vec::new(),
        literals,
        text,
        diags,
    };
    let mut active = true;
    let mut expansion = Vec::new();
    // Tokens before `write` are the output so far; `read` is the next input
    // token. Dropping a line or a block leaves `write` behind `read`, and an
    // expansion is written into the room that leaves.
    let (mut read, mut write) = (0, 0);
    // The lexer closes every buffer with an `Eof`, and every directive
    // opener's length points at its line's `EndDirective`.
    loop {
        let tok = tokens[read];
        match tok.kind {
            TokenKind::Eof => break,
            TokenKind::Hash => {
                let end = read + tok.directive_len();
                pp.directive(tok.span, &tokens[read + 1..end], tokens[end].payload());
                active = pp.active();
                read = end + 1;
            }
            TokenKind::Pragma => {
                let end = read + tok.directive_len();
                if active {
                    tokens.copy_within(read..=end, write);
                    write += end + 1 - read;
                }
                read = end + 1;
            }
            _ if !active => read += 1,
            TokenKind::Ident if tok.ident().is_some_and(|name| pp.macros.contains(name)) => {
                expansion.clear();
                let mut next = Expander::new(&pp.macros, &mut *pp.diags).step(
                    &tokens,
                    read,
                    None,
                    &mut expansion,
                );
                let room = next - write;
                if expansion.len() > room {
                    // The expansion outgrew the room its use and the lines
                    // dropped before it left: open a gap behind the use, wide
                    // enough that this stays rare.
                    let gap = (expansion.len() - room).max(tokens.len() / 8);
                    tokens.splice(next..next, std::iter::repeat_n(tok, gap));
                    next += gap;
                }
                tokens[write..write + expansion.len()].copy_from_slice(&expansion);
                write += expansion.len();
                read = next;
            }
            _ => {
                // A run of code with nothing to expand moves as one block.
                let run = tokens[read..]
                    .iter()
                    .position(|t| match t.kind {
                        TokenKind::Eof | TokenKind::Hash | TokenKind::Pragma => true,
                        TokenKind::Ident => t.ident().is_some_and(|name| pp.macros.contains(name)),
                        _ => false,
                    })
                    .unwrap_or(tokens.len() - read);
                tokens.copy_within(read..read + run, write);
                write += run;
                read += run;
            }
        }
    }
    // The closing `Eof` is not code: it survives an inactive block.
    if !pp.cond_stack.is_empty() {
        pp.diags
            .error(tokens[read].span, "unterminated #if/#ifdef block");
    }
    tokens[write] = tokens[read];
    tokens.truncate(write + 1);
    PreprocessOutput {
        constants: constants(&pp.macros.defs, &pp.literals),
        tokens: TokenBuffer {
            tokens,
            literals: pp.literals,
            text: pp.text,
        },
        macros: pp.macros.defs,
    }
}

/// The macros whose replacement is a single numeric literal, by name, with
/// its value.
fn constants(
    macros: &HashMap<Symbol, MacroDef, FnvBuild>,
    literals: &Literals,
) -> HashMap<String, f64> {
    let values = (macros.values())
        .filter(|def| def.params.is_none())
        .filter_map(|def| {
            Some((
                def.name.to_string(),
                single_numeric_value(&def.body, literals)?,
            ))
        });
    values.collect()
}

/// What the walk over a buffer keeps besides the tokens.
struct Preprocessor<'d> {
    macros: Macros,
    /// Conditional states, outermost first: (currently_active, any_branch_taken).
    cond_stack: Vec<(bool, bool)>,
    literals: Literals,
    text: Arc<String>,
    diags: &'d mut Diagnostics,
}

impl Preprocessor<'_> {
    fn active(&self) -> bool {
        self.cond_stack.iter().all(|(a, _)| *a)
    }

    /// Act on the directive line at `span`: its `words` (the name first) and
    /// the count of problems the lexer had with it.
    fn directive(&mut self, span: Span, words: &[Token], problems: u32) {
        let Some((name_token, operands)) = words.split_first() else {
            return;
        };
        let name = name_token.word().unwrap_or("");
        let active = self.active();
        match name {
            "define" if active => self.define(operands, span),
            "undef" if active => {
                if let Some(name) = operands.first().and_then(Token::ident) {
                    self.macros.remove(name);
                }
            }
            "include" => { /* ignored: single translation unit model */ }
            "ifdef" | "ifndef" => {
                let defined = (operands.first().and_then(Token::ident))
                    .is_some_and(|name| self.macros.contains(name));
                let take = defined == (name == "ifdef");
                self.cond_stack.push((take, take));
            }
            "if" => {
                let take = self.condition(name, operands, problems, span);
                self.cond_stack.push((take, take));
            }
            "elif" => match self.cond_stack.pop() {
                Some((_, true)) => self.cond_stack.push((false, true)),
                Some((_, false)) => {
                    let take = self.condition(name, operands, problems, span);
                    self.cond_stack.push((take, take));
                }
                None => self.diags.error(span, "#elif without matching #if"),
            },
            "else" => match self.cond_stack.pop() {
                Some((_, taken)) => self.cond_stack.push((!taken, true)),
                None => self.diags.error(span, "#else without matching #if"),
            },
            "endif" => {
                let balanced = self.cond_stack.pop().is_some();
                if !balanced {
                    self.diags.error(span, "#endif without matching #if");
                }
            }
            "error" if active => {
                let message = self.rest_of_line(name_token.span.end, span.end);
                self.diags.error(span, format!("#error {message}"));
            }
            _ => {
                // Unknown or inactive directive: ignore.
            }
        }
    }

    /// The source text of a directive line from `start` to `end`, as written
    /// but with continuations as spaces and without a trailing comment.
    fn rest_of_line(&self, start: u32, end: u32) -> String {
        let raw = self.text.get(start as usize..end as usize).unwrap_or("");
        let line = raw.replace("\\\r\n", " ").replace("\\\n", " ");
        let line = line.split("//").next().unwrap_or("");
        line.trim().to_string()
    }

    fn define(&mut self, line: &[Token], span: Span) {
        let (name, name_end, mut body) = match line {
            [first, body @ ..] if first.kind == TokenKind::Ident => match first.ident() {
                Some(name) => (name, first.span.end, body),
                None => return,
            },
            // `#define restrict __restrict__`: a keyword never reaches the
            // expander, so there is nothing to record.
            [keyword, ..] if keyword.kind.is_keyword() => return,
            _ => return self.diags.error(span, "#define without a macro name"),
        };
        // A `(` directly after the name (no space) opens a parameter list.
        let mut params = None;
        if matches!(body.first(), Some(t) if t.kind == TokenKind::LParen && t.span.start == name_end)
        {
            let Some((list, next)) = collect_paren_args(body, 0) else {
                return self.diags.error(
                    span,
                    format!("unterminated parameter list of macro `{name}`"),
                );
            };
            // `()` declares zero parameters; otherwise every comma-separated
            // piece must be a plain identifier — `F(a,)` and `F(,)` are
            // malformed, not silently-dropped parameters.
            let names: Option<Vec<Symbol>> = split_top_level_commas(list)
                .iter()
                .map(|piece| match piece {
                    [param] => param.ident(),
                    _ => None,
                })
                .collect();
            let Some(names) = names else {
                return self.diags.error(
                    span,
                    format!(
                        "unsupported parameter list of function-like macro `{name}` \
                         (only plain identifiers are supported)"
                    ),
                );
            };
            params = Some(names);
            body = &body[next..];
        }
        self.macros.insert(MacroDef {
            name,
            params,
            body: body.to_vec(),
            span,
        });
    }

    /// `#if` / `#elif`: the condition's value, or — when it has none — a
    /// warning and `true`: an unevaluable condition is assumed true *loudly*.
    fn condition(&mut self, dir: &str, line: &[Token], problems: u32, span: Span) -> bool {
        self.eval_condition(line, problems).unwrap_or_else(|| {
            (self.diags).warning(span, format!("unsupported #{dir} condition; assuming true"));
            true
        })
    }

    /// Evaluate a `#if`/`#elif` condition: fold `defined`, expand macros,
    /// parse as an expression, evaluate as an integer constant. `None` when
    /// the lexer had a problem with the line, when any of those steps
    /// objects, or when the expression has no integer value.
    fn eval_condition(&mut self, line: &[Token], problems: u32) -> Option<bool> {
        if problems > 0 {
            return None;
        }
        // `defined NAME` / `defined(NAME)` become `0` / `1` before expansion:
        // the operand names a macro, it is not a use of it.
        let mut folded = Vec::with_capacity(line.len());
        let mut rest = line;
        while let Some((tok, after)) = rest.split_first() {
            rest = after;
            if tok.ident().is_none_or(|word| word != "defined") {
                folded.push(*tok);
                continue;
            }
            use TokenKind::{LParen, RParen};
            let name = match after {
                [name, after @ ..] if name.ident().is_some() => {
                    rest = after;
                    name.ident()?
                }
                [open, name, close, after @ ..]
                    if open.kind == LParen && name.ident().is_some() && close.kind == RParen =>
                {
                    rest = after;
                    name.ident()?
                }
                _ => return None,
            };
            let value = i64::from(self.macros.contains(name));
            folded.push(self.literals.int_token(value, tok.span));
        }
        let mut expanded = Vec::with_capacity(folded.len());
        let mut problems = Diagnostics::new();
        Expander::new(&self.macros, &mut problems).expand(&folded, None, &mut expanded);
        let mut parser = Parser::for_fragment(&expanded, &self.literals);
        let expr = parser.parse_expr();
        if !(problems.is_empty() && parser.diags.is_empty() && parser.at_eof()) {
            return None;
        }
        expr.const_eval(&|_| None).map(|v| v != 0)
    }
}

/// If the replacement is a single (possibly parenthesized, possibly negated)
/// numeric literal, return its value.
fn single_numeric_value(mut body: &[Token], literals: &Literals) -> Option<f64> {
    use TokenKind::{FloatLit, IntLit, LParen, Minus, RParen};
    while let [open, inner @ .., close] = body {
        if !(open.kind == LParen && close.kind == RParen) {
            break;
        }
        body = inner;
    }
    let (sign, literal) = match body {
        [minus, literal] if minus.kind == Minus => (-1.0, literal),
        [literal] => (1.0, literal),
        _ => return None,
    };
    match literal.kind {
        IntLit => Some(sign * literals.int(literal) as f64),
        FloatLit => Some(sign * literals.float(literal)),
        _ => None,
    }
}

/// The one macro expander: the code stream and the operands of `#if` /
/// `#elif` both go through [`Expander::step`].
struct Expander<'a> {
    macros: &'a Macros,
    diags: &'a mut Diagnostics,
    /// The macros being expanded, outermost first: `active[..open]`. C does
    /// not expand a macro inside its own expansion, which is what ends
    /// recursive definitions.
    active: [Symbol; MAX_EXPANSION_DEPTH],
    open: usize,
    /// Replacement tokens rescanned for the current top-level use.
    rescanned: usize,
}

impl<'a> Expander<'a> {
    fn new(macros: &'a Macros, diags: &'a mut Diagnostics) -> Self {
        Expander {
            macros,
            diags,
            active: [Symbol::default(); MAX_EXPANSION_DEPTH],
            open: 0,
            rescanned: 0,
        }
    }

    /// Append the macro expansion of `tokens` to `out`.
    fn expand(&mut self, tokens: &[Token], site: Option<Span>, out: &mut Vec<Token>) {
        let mut i = 0;
        while i < tokens.len() {
            i = self.step(tokens, i, site, out);
        }
    }

    /// Append the expansion of `tokens[i]` to `out` — the replacement of a
    /// macro use, arguments and all, or the token itself — and return the
    /// index just past what it used.
    ///
    /// `site` is `Some` inside an expansion, and every token produced there
    /// takes that span — the use site in the original source — so rewriting
    /// decisions stay anchored to text that exists. At the top level (`None`)
    /// tokens keep their own spans and the site of a use is the span of the
    /// use: the name, or the whole call of a function-like macro.
    ///
    /// A use that cannot be expanded (nested too deeply, too large, an
    /// unclosed argument list, the wrong number of arguments) is reported
    /// and stays in the output as written.
    fn step(
        &mut self,
        tokens: &[Token],
        i: usize,
        site: Option<Span>,
        out: &mut Vec<Token>,
    ) -> usize {
        let tok = tokens[i];
        let verbatim = tok.at(site.unwrap_or(tok.span));
        let def = (tok.ident())
            .filter(|name| !self.active[..self.open].contains(name))
            .and_then(|name| self.macros.get(name));
        // A function-like name that is not called is an ordinary identifier.
        let called = |def: &&MacroDef| {
            def.params.is_none()
                || matches!(tokens.get(i + 1), Some(t) if t.kind == TokenKind::LParen)
        };
        let Some(def) = def.filter(called) else {
            out.push(verbatim);
            return i + 1;
        };
        match self.replacement(def, tokens, i + 1, site) {
            Ok((body, next, site)) => {
                // `replacement` refuses a use nested deeper than `active`.
                self.active[self.open] = def.name;
                self.open += 1;
                self.expand(&body, Some(site), out);
                self.open -= 1;
                next
            }
            Err(message) => {
                self.diags.error(verbatim.span, message);
                out.push(verbatim);
                i + 1
            }
        }
    }

    /// The replacement list of the use of `def` named by `tokens[at - 1]` —
    /// for a function-like macro, with the arguments in place of the
    /// parameters — then the index just past the use, and its site.
    fn replacement<'t>(
        &mut self,
        def: &'t MacroDef,
        tokens: &[Token],
        at: usize,
        site: Option<Span>,
    ) -> Result<(Cow<'t, [Token]>, usize, Span), String> {
        let name = def.name;
        if self.open >= MAX_EXPANSION_DEPTH {
            return Err(format!(
                "macro `{name}` is nested too deeply in other macros"
            ));
        }
        if site.is_none() {
            self.rescanned = 0; // a use in the source: a fresh token budget
        }
        let head = tokens[at - 1].span;
        let (body, next, site) = match &def.params {
            None => (Cow::Borrowed(def.body.as_slice()), at, site.unwrap_or(head)),
            Some(params) => {
                let (list, next) = collect_paren_args(tokens, at)
                    .ok_or_else(|| format!("unterminated argument list of macro `{name}`"))?;
                let args = split_top_level_commas(list);
                if args.len() != params.len() {
                    let (want, given) = (params.len(), args.len());
                    return Err(format!(
                        "macro `{name}` takes {want} argument(s), {given} given"
                    ));
                }
                let site = site.unwrap_or(head.to(tokens[next - 1].span));
                // Arguments are expanded before substitution, as uses of this
                // context: `SQ(SQ(2))` expands the inner call although `SQ`
                // is not expanded again in its own replacement. (Tokens carry
                // no "already refused" mark, so a name an argument's own
                // expansion left alone — `#define X X + 1` — is looked at
                // again on the rescan, where C would not.)
                let args: Vec<Vec<Token>> = (args.iter())
                    .map(|arg| {
                        let mut expanded = Vec::with_capacity(arg.len());
                        self.expand(arg, Some(site), &mut expanded);
                        expanded
                    })
                    .collect();
                let mut body = Vec::with_capacity(def.body.len());
                for tok in &def.body {
                    let param = (tok.ident()).and_then(|p| params.iter().position(|q| *q == p));
                    match param {
                        Some(k) => body.extend_from_slice(&args[k]),
                        None => body.push(*tok),
                    }
                }
                (Cow::Owned(body), next, site)
            }
        };
        // Nested calls double their output at every level: bound the total.
        self.rescanned += body.len();
        if self.rescanned > MAX_EXPANSION_TOKENS {
            return Err(format!("macro `{name}` expands to too many tokens"));
        }
        Ok((body, next, site))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::tokenize_file;
    use crate::source::SourceFile;

    fn run(src: &str) -> (PreprocessOutput, Diagnostics) {
        let f = SourceFile::new("t.c", src);
        let (toks, mut diags) = tokenize_file(&f);
        let out = preprocess(toks, &mut diags);
        (out, diags)
    }

    /// Each token's kind and spelling.
    fn kinds(out: &PreprocessOutput) -> Vec<(TokenKind, String)> {
        let literals = out.tokens.literals();
        out.tokens
            .iter()
            .map(|t| (t.kind, literals.spell(t)))
            .collect()
    }

    fn token(kind: TokenKind, spelling: &str) -> (TokenKind, String) {
        (kind, spelling.to_string())
    }

    #[test]
    fn define_substitutes_literal() {
        let (out, diags) = run("#define N 100\nint a[N];\n");
        assert!(!diags.has_errors());
        let k = kinds(&out);
        assert!(k.contains(&token(TokenKind::IntLit, "100")));
        assert!(!k.iter().any(|t| t.0 == TokenKind::Ident && t.1 == "N"));
        assert_eq!(out.int_constant("N"), Some(100));
    }

    #[test]
    fn define_expression_body() {
        let (out, diags) =
            run("#define SIZE (ROWS*COLS)\n#define ROWS 8\n#define COLS 4\nint a = SIZE;\n");
        assert!(!diags.has_errors());
        let k = kinds(&out);
        // SIZE expands to ( ROWS * COLS ); ROWS/COLS were not yet defined when
        // SIZE was defined, but expansion happens at use time.
        assert!(k.contains(&token(TokenKind::IntLit, "8")));
        assert!(k.contains(&token(TokenKind::IntLit, "4")));
        assert!(k.contains(&token(TokenKind::Star, "*")));
        assert_eq!(out.int_constant("ROWS"), Some(8));
        assert!(out.int_constant("SIZE").is_none());
    }

    #[test]
    fn substituted_tokens_keep_use_site_span() {
        let src = "#define N 16\nint a[N];\n";
        let f = SourceFile::new("t.c", src);
        let (toks, mut diags) = tokenize_file(&f);
        let out = preprocess(toks, &mut diags);
        let lit = out
            .tokens
            .iter()
            .find(|t| t.kind == TokenKind::IntLit && out.tokens.literals().int(t) == 16)
            .unwrap();
        assert_eq!(f.snippet(lit.span), "N");
    }

    #[test]
    fn include_is_ignored() {
        let (out, diags) = run("#include <stdio.h>\n#include \"foo.h\"\nint a;\n");
        assert!(!diags.has_errors());
        assert_eq!(kinds(&out).len(), 4); // int a ; eof
    }

    #[test]
    fn ifdef_blocks() {
        let (out, diags) =
            run("#define USE_GPU 1\n#ifdef USE_GPU\nint g;\n#else\nint c;\n#endif\n");
        assert!(!diags.has_errors());
        let k = kinds(&out);
        assert!(k.iter().any(|t| t.0 == TokenKind::Ident && t.1 == "g"));
        assert!(!k.iter().any(|t| t.0 == TokenKind::Ident && t.1 == "c"));
    }

    #[test]
    fn ifndef_and_if_zero() {
        let (out, diags) = run("#ifndef FOO\nint a;\n#endif\n#if 0\nint b;\n#endif\n");
        assert!(!diags.has_errors());
        let k = kinds(&out);
        assert!(k.iter().any(|t| t.0 == TokenKind::Ident && t.1 == "a"));
        assert!(!k.iter().any(|t| t.0 == TokenKind::Ident && t.1 == "b"));
    }

    #[test]
    fn unterminated_if_reports_error() {
        let (_out, diags) = run("#ifdef FOO\nint a;\n");
        assert!(diags.has_errors());
    }

    /// A macro-using source and its hand-expanded twin preprocess to the
    /// same token kinds.
    fn assert_expands_to(src: &str, twin: &str) {
        let (out, diags) = run(src);
        assert!(diags.is_empty(), "{src:?}: {diags:?}");
        assert_eq!(kinds(&out), kinds(&run(twin).0), "{src:?}");
    }

    /// Function-like macros expand in code through the same expander as in
    /// conditions.
    #[test]
    fn function_like_macros_expand_in_code() {
        let defs = "#define N 8\n#define IDX(i, j) ((i) * N + (j))\n\
                    #define MIN(a, b) ((a) < (b) ? (a) : (b))\n#define SQ(x) ((x)*(x))\n\
                    #define ZERO() 0\n#define FIRST(a, b) a\n";
        for (code, twin) in [
            ("x = a[IDX(i, 0)];", "x = a[((i) * 8 + (0))];"),
            // Nested calls, in an argument and of the macro itself.
            (
                "m = MIN(SQ(2), IDX(1, 2));",
                "m = ((((2)*(2))) < (((1) * 8 + (2))) ? (((2)*(2))) : (((1) * 8 + (2))));",
            ),
            ("y = SQ(SQ(3));", "y = ((((3)*(3)))*(((3)*(3))));"),
            // Zero arguments; a call spread over lines.
            ("z = ZERO() + ZERO(\n);", "z = 0 + 0;"),
            // Commas inside parentheses do not split an argument.
            ("f = FIRST(g(1, 2), (3, 4));", "f = g(1, 2);"),
            // A function-like name is a macro only when followed by `(`.
            ("int SQ; SQ = SQ(SQ);", "int SQ; SQ = ((SQ)*(SQ));"),
        ] {
            assert_expands_to(&format!("{defs}{code}\n"), twin);
        }

        // Every substituted token takes the span of the whole call.
        let src = "#define SQ(x) ((x)*(x))\nint a = SQ(3) + 1;\n";
        let f = SourceFile::new("t.c", src);
        let (toks, mut diags) = tokenize_file(&f);
        let out = preprocess(toks, &mut diags);
        for tok in out.tokens.iter() {
            let three = tok.kind == TokenKind::IntLit && out.tokens.literals().int(tok) == 3;
            if tok.kind == TokenKind::Star || three {
                assert_eq!(f.snippet(tok.span), "SQ(3)");
            }
        }

        // A redefinition replaces the macro, whatever its kind was.
        assert_expands_to("#define F(x) x\n#define F 7\nint a = F;\n", "int a = 7;\n");
        assert_expands_to(
            "#define F 7\n#define F(x) x\nint a = F(1) + F;\n",
            "int a = 1 + F;\n",
        );
        assert!(run("#define F 7\n#define F(x) x\n")
            .0
            .int_constant("F")
            .is_none());
    }

    /// A call that cannot be expanded is an error at the use site, and a
    /// malformed parameter list one at the definition — never a silently
    /// smaller arity.
    #[test]
    fn malformed_function_like_macros_are_rejected() {
        // Seventeen macros, each inside the next; one that doubles.
        let mut defs =
            String::from("#define SQ(x) ((x)*(x))\n#define TWICE(x) x x\n#define C0 0\n");
        for k in 1..=16 {
            defs.push_str(&format!("#define C{k} C{}\n", k - 1));
        }
        let doubling = format!("int a = {}1{};", "TWICE(".repeat(20), ")".repeat(20));
        for (code, message) in [
            ("int a = SQ(1, 2);", "takes 1 argument(s), 2 given"),
            ("int a = SQ();", "takes 1 argument(s), 0 given"),
            ("int a = SQ(1;", "unterminated argument list"),
            (
                "int a = SQ(1\n#define M 1\n);",
                "unterminated argument list",
            ),
            ("int a = C16;", "nested too deeply"),
            (doubling.as_str(), "too many tokens"),
        ] {
            let (_out, diags) = run(&format!("{defs}{code}\n"));
            assert!(
                diags.iter().any(|d| d.message.contains(message)),
                "{code:?}: {diags:?}"
            );
        }
        assert_expands_to(&format!("{defs}int a = C15;\n"), "int a = 0;\n");
        // A macro is not expanded inside its own expansion, however it got
        // there: recursion ends where C ends it.
        assert_expands_to(
            "#define PING(x) PONG(x) + 1\n#define PONG(x) PING(x) + 2\n#define SELF SELF\n\
             #define A B + 3\n#define B A + 4\nint a = PING(SELF) + A;\n",
            "int a = PING(SELF) + 2 + 1 + A + 4 + 3;\n",
        );
        for bad in [
            "#define F(a,) x\n",
            "#define F(,) x\n",
            "#define F(1a) x\n",
            "#define F(a b) x\n",
            "#define F(a x\n",
            "#define F(...) x\n",
        ] {
            let (out, diags) = run(bad);
            assert!(diags.has_errors(), "{bad:?} must be rejected");
            assert!(out.macros.is_empty());
        }
        // `()` is a valid zero-parameter list; a space before `(` makes the
        // macro object-like.
        let (out, diags) = run("#define Z() 7\n#define OBJ (x) 7\n");
        assert!(diags.is_empty(), "{diags:?}");
        assert_eq!(out.macros[&Symbol::intern("Z")].params, Some(Vec::new()));
        assert_eq!(out.macros[&Symbol::intern("OBJ")].params, None);
        // A keyword as the macro name is accepted and has no effect.
        assert_expands_to(
            "#define restrict __restrict__\nint *restrict p;\n",
            "int *restrict p;\n",
        );
    }

    /// What `#if` understands, pinned: a condition with a value is taken or
    /// dropped without a word; one without is taken with exactly one warning.
    #[test]
    fn if_condition_table() {
        let defs = "#define N 64\n#define HALF 0.5\n#define EMPTY\n#define SQ(x) ((x)*(x))\n\
                    #define ADD(a, b) ((a)+(b))\n#define MAX(a, b) ((a) > (b) ? (a) : (b))\n\
                    #define LOOP(x) LOOP(x)\n#define PING(x) PONG(x)\n#define PONG(x) PING(x)\n";
        let table: &[(&str, Option<bool>)] = &[
            ("0x0", Some(false)),
            ("0x10 == 16 && 0XfF == 255", Some(true)),
            ("010 == 8", Some(true)),
            ("1UL && 2u == 2L", Some(true)),
            ("(N >> 3) == 8", Some(true)),
            ("(1 << 4) == 16", Some(true)),
            ("(6 & 3) == 2 && (6 | 3) == 7 && (6 ^ 3) == 5", Some(true)),
            ("~0 == -1", Some(true)),
            ("'A' == 65 && '\\n' == 10", Some(true)),
            ("N > 32 ? 0 : 1", Some(false)),
            ("0 ? MYSTERY : 1", Some(true)),
            ("MAX(SQ(2), ADD(1, 1)) == 4", Some(true)),
            ("SQ(SQ(ADD(1, 1))) == 16", Some(true)),
            (
                "defined N && defined(SQ) && !defined(M) && !defined M",
                Some(true),
            ),
            ("defined EMPTY", Some(true)),
            ("0 && MYSTERY(3)", Some(false)),
            ("MYSTERY(3) || 1", Some(true)),
            ("1 || 1 / 0", Some(true)),
            ("N /* not 0 */ == 64", Some(true)),
            // No value: a float, unknown names and calls, malformed calls,
            // recursion, unbalanced parentheses, trailing garbage, a
            // malformed `defined`, `/ 0`, what the lexer or parser rejects.
            ("HALF", None),
            ("MYSTERY", None),
            ("1 && MYSTERY(3)", None),
            ("EMPTY", None),
            ("SQ(1, 2)", None),
            ("LOOP(1)", None),
            ("PING(1)", None),
            ("(1", None),
            ("SQ(1", None),
            ("1 )", None),
            ("1 2", None),
            ("N == 64 garbage", None),
            ("defined(", None),
            ("defined(N", None),
            ("defined 3", None),
            ("1 / 0", None),
            ("N % (N - 64)", None),
            ("99999999999999999999", None),
            ("09", None),
            ("1 @ 1", None),
            ("\"text\"", None),
            ("N = 64", None),
            ("", None),
        ];
        let has_ident = |out: &PreprocessOutput, name: &str| {
            kinds(out)
                .iter()
                .any(|t| t.0 == TokenKind::Ident && t.1 == name)
        };
        for &(cond, value) in table {
            for dir in ["if", "elif"] {
                let open = if dir == "if" { "" } else { "#if 0\n" };
                let src = format!("{defs}{open}#{dir} {cond}\nint yes;\n#else\nint no;\n#endif\n");
                let (out, diags) = run(&src);
                let messages: Vec<&str> = diags.iter().map(|d| d.message.as_str()).collect();
                let warning = format!("unsupported #{dir} condition; assuming true");
                match value {
                    Some(_) => assert!(messages.is_empty(), "#{dir} {cond}: {diags:?}"),
                    None => assert_eq!(messages, [warning.as_str()], "#{dir} {cond}"),
                }
                assert!(!diags.has_errors(), "#{dir} {cond}");
                let taken = value.unwrap_or(true);
                assert_eq!(has_ident(&out, "yes"), taken, "#{dir} {cond}");
                assert_eq!(has_ident(&out, "no"), !taken, "#{dir} {cond}");
            }
        }
    }

    /// Function-like macros expand inside `#if`/`#elif` conditions: plain
    /// calls, nested calls, multi-parameter bodies, and `#elif` all go
    /// through the same token-splicing expansion.
    #[test]
    fn function_like_macros_expand_in_conditions() {
        let has_ident = |out: &PreprocessOutput, name: &str| {
            kinds(out)
                .iter()
                .any(|t| t.0 == TokenKind::Ident && t.1 == name)
        };

        let (out, diags) = run("#define SQ(x) ((x)*(x))\n#if SQ(3) == 9\nint yes;\n#endif\n");
        assert!(diags.is_empty(), "{diags:?}");
        assert!(has_ident(&out, "yes"));

        // Nested calls: the argument of the outer call is itself a call.
        let (out, diags) = run("#define SQ(x) ((x)*(x))\n#define ADD(a, b) ((a)+(b))\n\
             #if SQ(ADD(1, 2)) == 9 && ADD(SQ(2), 1) == 5\nint nested;\n#else\nint no;\n#endif\n");
        assert!(diags.is_empty(), "{diags:?}");
        assert!(has_ident(&out, "nested"));
        assert!(!has_ident(&out, "no"));

        // Bodies may reference object-like constant macros.
        let (out, diags) =
            run("#define N 4\n#define TWICE(x) ((x)*2)\n#if TWICE(N) == 8\nint both;\n#endif\n");
        assert!(diags.is_empty(), "{diags:?}");
        assert!(has_ident(&out, "both"));

        // #elif expands too.
        let (out, diags) = run(
            "#define SEL(m) ((m)%3)\n#if SEL(7) == 0\nint a;\n#elif SEL(7) == 1\nint b;\n\
             #else\nint c;\n#endif\n",
        );
        assert!(diags.is_empty(), "{diags:?}");
        assert!(!has_ident(&out, "a"));
        assert!(has_ident(&out, "b"));
        assert!(!has_ident(&out, "c"));

        // A function-like macro counts as defined — and the operand of
        // `defined` is never expanded as a call.
        let (out, diags) = run("#define SQ(x) ((x)*(x))\n#ifdef SQ\nint d1;\n#endif\n\
             #if defined(SQ) && SQ(2) == 4\nint d2;\n#endif\n");
        assert!(diags.is_empty(), "{diags:?}");
        assert!(has_ident(&out, "d1"));
        assert!(has_ident(&out, "d2"));

        // #undef removes function-like macros as well.
        let (out, diags) = run("#define SQ(x) x\n#undef SQ\n#ifdef SQ\nint gone;\n#endif\n");
        assert!(diags.is_empty(), "{diags:?}");
        assert!(!has_ident(&out, "gone"));
    }

    /// Unknown function-like invocations propagate as *unknown* operands —
    /// decidable short circuits still win, genuinely unknown conditions
    /// warn and assume true, and malformed calls of *known* macros (arity
    /// mismatch, recursion) degrade to the same loud warn-and-assume-true
    /// path instead of mis-evaluating.
    #[test]
    fn function_like_macro_unknowns_propagate() {
        let has_ident = |out: &PreprocessOutput, name: &str| {
            kinds(out)
                .iter()
                .any(|t| t.0 == TokenKind::Ident && t.1 == name)
        };

        // Unknown call on the undecided side of && with a known-false side.
        let (out, diags) = run("#if 0 && MYSTERY(3)\nint dead;\n#endif\n");
        assert!(diags.is_empty(), "{diags:?}");
        assert!(!has_ident(&out, "dead"));

        // Unknown call alone: warn, assume true.
        let (out, diags) = run("#if MYSTERY(3)\nint maybe;\n#endif\n");
        assert!(!diags.is_empty());
        assert!(has_ident(&out, "maybe"));

        // Arity mismatch of a known macro: warn, assume true.
        let (out, diags) = run("#define SQ(x) ((x)*(x))\n#if SQ(1, 2)\nint arity;\n#endif\n");
        assert!(!diags.is_empty(), "arity mismatch must warn");
        assert!(has_ident(&out, "arity"));

        // Self-recursive macro: warn, assume true — never loop.
        let (out, diags) = run("#define LOOP(x) LOOP(x)\n#if LOOP(1)\nint rec;\n#endif\n");
        assert!(!diags.is_empty(), "recursion must warn");
        assert!(has_ident(&out, "rec"));
    }

    #[test]
    fn undef_removes_macro() {
        let (out, diags) = run("#define N 4\n#undef N\nint a[N];\n");
        assert!(!diags.has_errors());
        let k = kinds(&out);
        assert!(k.iter().any(|t| t.0 == TokenKind::Ident && t.1 == "N"));
        assert!(out.int_constant("N").is_none());
    }

    #[test]
    fn negative_constant_macro() {
        let (out, diags) = run("#define OFFSET (-3)\nint a = OFFSET;\n");
        assert!(!diags.has_errors());
        assert_eq!(out.int_constant("OFFSET"), Some(-3));
    }

    #[test]
    fn pragma_tokens_pass_through() {
        let (out, diags) = run("#pragma omp target\n{ }\n");
        assert!(!diags.has_errors());
        assert_eq!(out.tokens[0].kind, TokenKind::Pragma);
        assert_eq!(out.tokens[3].kind, TokenKind::EndDirective);
    }

    /// `#if` must evaluate negation, parentheses, comparisons and `&&`/`||`
    /// over known defines instead of "assuming true" and mis-including
    /// guarded code.
    #[test]
    fn if_conditions_evaluate_operators() {
        let has_ident = |out: &PreprocessOutput, name: &str| {
            kinds(out)
                .iter()
                .any(|t| t.0 == TokenKind::Ident && t.1 == name)
        };

        // `!defined(X)` excludes when X is defined.
        let (out, diags) = run("#define GPU 1\n#if !defined(GPU)\nint cpu;\n#endif\nint after;\n");
        assert!(diags.is_empty(), "{diags:?}");
        assert!(!has_ident(&out, "cpu"));
        assert!(has_ident(&out, "after"));

        // Integer comparison over a constant macro.
        let (out, diags) = run("#define N 8\n#if N > 4\nint big;\n#else\nint small;\n#endif\n");
        assert!(diags.is_empty(), "{diags:?}");
        assert!(has_ident(&out, "big"));
        assert!(!has_ident(&out, "small"));

        // Conjunction, disjunction, parentheses, arithmetic.
        let (out, diags) = run(
            "#define A 1\n#define B 0\n#if (A && !B) || (B > 10)\nint yes;\n#endif\n\
             #if A + B * 2 == 1\nint arith;\n#endif\n",
        );
        assert!(diags.is_empty(), "{diags:?}");
        assert!(has_ident(&out, "yes"));
        assert!(has_ident(&out, "arith"));

        // A known-false side decides `&&` even when the other side is
        // unknown; a known-true side decides `||`. The unknown side may
        // even be a function-like invocation — its argument list is
        // swallowed as part of the unknown operand, so the decided side
        // still wins instead of the leftover tokens poisoning the parse.
        let (out, diags) = run("#if defined(NEVER) && MYSTERY\nint dead;\n#endif\n\
             #define YES 1\n#if YES || MYSTERY\nint live;\n#endif\n\
             #if defined(NEVER) && MYSTERY(3)\nint dead2;\n#endif\n");
        assert!(diags.is_empty(), "unknown sides were decidable: {diags:?}");
        assert!(!has_ident(&out, "dead"));
        assert!(has_ident(&out, "live"));
        assert!(!has_ident(&out, "dead2"));

        // A genuinely unknown condition still warns and assumes true.
        let (out, diags) = run("#if MYSTERY == 3\nint maybe;\n#endif\n");
        assert!(!diags.is_empty());
        assert!(has_ident(&out, "maybe"));

        // A float-valued macro must not be truncated to 0 (which would
        // silently exclude the guarded code): it is unknown, so the block
        // stays included — with a warning.
        let (out, diags) = run("#define HALF 0.5\n#if HALF\nint half;\n#endif\n");
        assert!(!diags.is_empty(), "float-valued condition must warn");
        assert!(has_ident(&out, "half"));
    }

    /// `#elif` goes through the same evaluator and the same warn-on-unknown
    /// path as `#if` — no more silent `unwrap_or(true)`.
    #[test]
    fn elif_evaluates_and_warns_on_unknown() {
        let has_ident = |out: &PreprocessOutput, name: &str| {
            kinds(out)
                .iter()
                .any(|t| t.0 == TokenKind::Ident && t.1 == name)
        };

        let (out, diags) = run(
            "#define MODE 2\n#if MODE == 1\nint one;\n#elif MODE == 2\nint two;\n\
             #elif MODE == 3\nint three;\n#else\nint other;\n#endif\n",
        );
        assert!(diags.is_empty(), "{diags:?}");
        assert!(!has_ident(&out, "one"));
        assert!(has_ident(&out, "two"));
        assert!(!has_ident(&out, "three"));
        assert!(!has_ident(&out, "other"));

        // An unevaluable #elif warns (the old code silently assumed true).
        let (out, diags) = run("#if 0\nint a;\n#elif MYSTERY(3)\nint b;\n#endif\n");
        assert!(
            diags.iter().any(|d| d.message.contains("#elif")),
            "{diags:?}"
        );
        assert!(has_ident(&out, "b"));

        // A taken #if never re-opens on #elif, evaluable or not.
        let (out, diags) = run("#define ON 1\n#if ON\nint a;\n#elif MYSTERY\nint b;\n#endif\n");
        assert!(diags.is_empty(), "{diags:?}");
        assert!(has_ident(&out, "a"));
        assert!(!has_ident(&out, "b"));
    }
}
