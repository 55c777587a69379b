//! Lexer for the MiniC language.
//!
//! The lexer converts raw source text into a stream of [`Token`]s. It
//! performs line splicing (backslash-newline), strips comments, and captures
//! preprocessor lines as dedicated tokens:
//!
//! * `#pragma ...` lines become [`TokenKind::Pragma`] tokens whose span covers
//!   the whole (possibly continued) directive, so the parser can associate
//!   OpenMP directives with the statement that follows them and the rewriter
//!   can reason about their exact source extent.
//! * All other `#...` lines become [`TokenKind::HashDirective`] tokens that the
//!   preprocessor consumes (`#define`, `#include`, `#ifdef`, ...).

use crate::diag::Diagnostics;
use crate::intern::{FnvBuild, Symbol};
use crate::source::{SourceFile, Span};
use crate::token::{keyword_from_str, Token, TokenKind};
use std::collections::HashMap;

/// Streaming lexer over a source file (or a sub-range of one).
pub struct Lexer<'a> {
    text: &'a [u8],
    /// Current byte offset relative to `base`.
    pos: usize,
    /// Offset added to all produced spans; lets a sub-range of a file be lexed
    /// with spans that index into the full file (used for pragma bodies).
    base: u32,
    diags: Diagnostics,
    /// Per-unit interner cache: identifier byte-slices of *this* source →
    /// their interned [`Symbol`]. Repeated occurrences of an identifier hit
    /// this borrowed-slice map and never touch the global symbol table, so
    /// lexing a unit costs O(distinct identifiers) table inserts and zero
    /// per-token string allocations.
    idents: HashMap<&'a [u8], Symbol, FnvBuild>,
}

impl<'a> Lexer<'a> {
    /// Lex the full text of `file`.
    pub fn new(file: &'a SourceFile) -> Self {
        Lexer {
            text: file.text().as_bytes(),
            pos: 0,
            base: 0,
            diags: Diagnostics::new(),
            idents: HashMap::default(),
        }
    }

    /// Lex an arbitrary string whose first byte corresponds to absolute file
    /// offset `base` (used to lex pragma bodies and macro replacement text).
    pub fn with_base(text: &'a str, base: u32) -> Self {
        Lexer {
            text: text.as_bytes(),
            pos: 0,
            base,
            diags: Diagnostics::new(),
            idents: HashMap::default(),
        }
    }

    /// Diagnostics produced while lexing.
    pub fn diagnostics(&self) -> &Diagnostics {
        &self.diags
    }

    /// Consume the lexer and return (tokens, diagnostics). The token vector
    /// always ends with exactly one `Eof` token.
    pub fn tokenize(mut self) -> (Vec<Token>, Diagnostics) {
        // One buffer for the whole text (a token per four bytes is more than
        // C has) instead of a chain of doublings.
        let mut out = Vec::with_capacity(self.text.len() / 4 + 1);
        loop {
            let tok = self.next_token();
            let eof = tok.is_eof();
            out.push(tok);
            if eof {
                break;
            }
        }
        (out, self.diags)
    }

    fn abs(&self, rel: usize) -> u32 {
        self.base + rel as u32
    }

    fn peek(&self) -> Option<u8> {
        self.text.get(self.pos).copied()
    }

    fn peek_at(&self, off: usize) -> Option<u8> {
        self.text.get(self.pos + off).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let c = self.peek();
        if c.is_some() {
            self.pos += 1;
        }
        c
    }

    /// True when positioned at the very start of a line (only whitespace
    /// precedes on this line).
    fn at_line_start(&self) -> bool {
        let mut i = self.pos;
        while i > 0 {
            let c = self.text[i - 1];
            if c == b'\n' {
                return true;
            }
            if c != b' ' && c != b'\t' && c != b'\r' {
                return false;
            }
            i -= 1;
        }
        true
    }

    fn skip_trivia(&mut self) {
        loop {
            match self.peek() {
                Some(b' ') | Some(b'\t') | Some(b'\r') | Some(b'\n') => {
                    self.pos += 1;
                }
                // line splicing
                Some(b'\\') if matches!(self.peek_at(1), Some(b'\n')) => {
                    self.pos += 2;
                }
                Some(b'\\')
                    if matches!(self.peek_at(1), Some(b'\r'))
                        && matches!(self.peek_at(2), Some(b'\n')) =>
                {
                    self.pos += 3;
                }
                Some(b'/') if self.peek_at(1) == Some(b'/') => {
                    while let Some(c) = self.peek() {
                        if c == b'\n' {
                            break;
                        }
                        self.pos += 1;
                    }
                }
                Some(b'/') if self.peek_at(1) == Some(b'*') => {
                    let start = self.pos;
                    self.pos += 2;
                    let mut closed = false;
                    while self.pos < self.text.len() {
                        if self.peek() == Some(b'*') && self.peek_at(1) == Some(b'/') {
                            self.pos += 2;
                            closed = true;
                            break;
                        }
                        self.pos += 1;
                    }
                    if !closed {
                        self.diags.error(
                            Span::new(self.abs(start), self.abs(self.pos)),
                            "unterminated block comment",
                        );
                    }
                }
                _ => break,
            }
        }
    }

    fn next_token(&mut self) -> Token {
        self.skip_trivia();
        let start = self.pos;
        let c = match self.peek() {
            None => return Token::new(TokenKind::Eof, Span::point(self.abs(self.pos))),
            Some(c) => c,
        };

        // Preprocessor directives (only at the start of a line).
        if c == b'#' && self.at_line_start() {
            return self.lex_directive(start);
        }

        if c.is_ascii_alphabetic() || c == b'_' {
            return self.lex_ident(start);
        }
        if c.is_ascii_digit() || (c == b'.' && self.peek_at(1).is_some_and(|d| d.is_ascii_digit()))
        {
            return self.lex_number(start);
        }
        if c == b'\'' {
            return self.lex_char(start);
        }
        if c == b'"' {
            return self.lex_string(start);
        }
        self.lex_operator(start)
    }

    /// Lex a `#...` directive line, honoring backslash continuations.
    fn lex_directive(&mut self, start: usize) -> Token {
        // consume '#'
        self.pos += 1;
        // Collect until end of logical line.
        let text_start = self.pos;
        loop {
            match self.peek() {
                None => break,
                Some(b'\n') => break,
                Some(b'\\') if self.peek_at(1) == Some(b'\n') => {
                    self.pos += 2;
                }
                Some(b'\\') if self.peek_at(1) == Some(b'\r') && self.peek_at(2) == Some(b'\n') => {
                    self.pos += 3;
                }
                // comments terminate the directive body logically but we keep
                // scanning so the span covers the full line
                _ => {
                    self.pos += 1;
                }
            }
        }
        // Normalize continuations and strip trailing comments for the stored
        // text. The common case (no continuation) stays zero-copy until the
        // single final allocation of the token payload.
        let raw = String::from_utf8_lossy(&self.text[text_start..self.pos]);
        let cleaned: std::borrow::Cow<'_, str> = if raw.contains('\\') {
            std::borrow::Cow::Owned(raw.replace("\\\r\n", " ").replace("\\\n", " "))
        } else {
            raw
        };
        let mut body: &str = &cleaned;
        if let Some(idx) = body.find("//") {
            body = &body[..idx];
        }
        let body = body.trim();
        let span = Span::new(self.abs(start), self.abs(self.pos));
        if let Some(stripped) = body.strip_prefix("pragma") {
            Token::new(TokenKind::Pragma(stripped.trim().to_string()), span)
        } else {
            Token::new(TokenKind::HashDirective(body.to_string()), span)
        }
    }

    fn lex_ident(&mut self, start: usize) -> Token {
        while let Some(c) = self.peek() {
            if c.is_ascii_alphanumeric() || c == b'_' {
                self.pos += 1;
            } else {
                break;
            }
        }
        let bytes = &self.text[start..self.pos];
        let span = Span::new(self.abs(start), self.abs(self.pos));
        // Identifier characters are ASCII by construction, so the slice is
        // valid UTF-8.
        let s = std::str::from_utf8(bytes).unwrap_or("");
        match keyword_from_str(s) {
            Some(kw) => Token::new(kw, span),
            None => {
                let sym = *self
                    .idents
                    .entry(bytes)
                    .or_insert_with(|| Symbol::intern(s));
                Token::new(TokenKind::Ident(sym), span)
            }
        }
    }

    fn lex_number(&mut self, start: usize) -> Token {
        let mut is_float = false;
        // hex
        if self.peek() == Some(b'0') && matches!(self.peek_at(1), Some(b'x') | Some(b'X')) {
            self.pos += 2;
            while let Some(c) = self.peek() {
                if c.is_ascii_hexdigit() {
                    self.pos += 1;
                } else {
                    break;
                }
            }
            let text = std::str::from_utf8(&self.text[start + 2..self.pos]).unwrap_or("0");
            let value = i64::from_str_radix(text, 16).unwrap_or_else(|_| {
                self.diags.error(
                    Span::new(self.abs(start), self.abs(self.pos)),
                    "hexadecimal literal out of range",
                );
                0
            });
            self.consume_int_suffix();
            return Token::new(
                TokenKind::IntLit(value),
                Span::new(self.abs(start), self.abs(self.pos)),
            );
        }
        while let Some(c) = self.peek() {
            if c.is_ascii_digit() {
                self.pos += 1;
            } else if c == b'.' && !is_float {
                is_float = true;
                self.pos += 1;
            } else if (c == b'e' || c == b'E')
                && self
                    .peek_at(1)
                    .is_some_and(|d| d.is_ascii_digit() || d == b'+' || d == b'-')
            {
                is_float = true;
                self.pos += 2;
            } else {
                break;
            }
        }
        let text = std::str::from_utf8(&self.text[start..self.pos]).unwrap_or("0");
        // suffixes
        if is_float {
            if matches!(
                self.peek(),
                Some(b'f') | Some(b'F') | Some(b'l') | Some(b'L')
            ) {
                self.pos += 1;
            }
        } else {
            self.consume_int_suffix();
        }
        let span = Span::new(self.abs(start), self.abs(self.pos));
        if is_float {
            let value: f64 = text.parse().unwrap_or_else(|_| {
                self.diags.error(span, "invalid floating-point literal");
                0.0
            });
            Token::new(TokenKind::FloatLit(value), span)
        } else {
            // A leading `0` makes an integer literal octal.
            let radix = if text.len() > 1 && text.starts_with('0') {
                8
            } else {
                10
            };
            let value = i64::from_str_radix(text, radix).unwrap_or_else(|_| {
                self.diags
                    .error(span, "integer literal invalid or out of range");
                0
            });
            Token::new(TokenKind::IntLit(value), span)
        }
    }

    fn consume_int_suffix(&mut self) {
        while matches!(
            self.peek(),
            Some(b'u') | Some(b'U') | Some(b'l') | Some(b'L')
        ) {
            self.pos += 1;
        }
    }

    fn lex_char(&mut self, start: usize) -> Token {
        self.pos += 1; // opening quote
        let mut value = '\0';
        match self.bump() {
            Some(b'\\') => {
                let esc = self.bump().unwrap_or(b'0');
                value = unescape(esc);
            }
            Some(c) => value = c as char,
            None => {
                self.diags.error(
                    Span::new(self.abs(start), self.abs(self.pos)),
                    "unterminated character literal",
                );
            }
        }
        if self.peek() == Some(b'\'') {
            self.pos += 1;
        } else {
            self.diags.error(
                Span::new(self.abs(start), self.abs(self.pos)),
                "unterminated character literal",
            );
        }
        Token::new(
            TokenKind::CharLit(value),
            Span::new(self.abs(start), self.abs(self.pos)),
        )
    }

    fn lex_string(&mut self, start: usize) -> Token {
        self.pos += 1; // opening quote
        let mut value = String::new();
        let mut closed = false;
        while let Some(c) = self.bump() {
            match c {
                b'"' => {
                    closed = true;
                    break;
                }
                b'\\' => {
                    let esc = self.bump().unwrap_or(b'"');
                    value.push(unescape(esc));
                }
                other => value.push(other as char),
            }
        }
        if !closed {
            self.diags.error(
                Span::new(self.abs(start), self.abs(self.pos)),
                "unterminated string literal",
            );
        }
        Token::new(
            TokenKind::StrLit(value),
            Span::new(self.abs(start), self.abs(self.pos)),
        )
    }

    fn lex_operator(&mut self, start: usize) -> Token {
        use TokenKind::*;
        let c = self.bump().unwrap();
        let two = |l: &Lexer| l.peek();
        let kind = match c {
            b'(' => LParen,
            b')' => RParen,
            b'{' => LBrace,
            b'}' => RBrace,
            b'[' => LBracket,
            b']' => RBracket,
            b';' => Semi,
            b',' => Comma,
            b'?' => Question,
            b'~' => Tilde,
            b':' => Colon,
            b'.' => {
                if self.peek() == Some(b'.') && self.peek_at(1) == Some(b'.') {
                    self.pos += 2;
                    Ellipsis
                } else {
                    Dot
                }
            }
            b'+' => match two(self) {
                Some(b'+') => {
                    self.pos += 1;
                    PlusPlus
                }
                Some(b'=') => {
                    self.pos += 1;
                    PlusAssign
                }
                _ => Plus,
            },
            b'-' => match two(self) {
                Some(b'-') => {
                    self.pos += 1;
                    MinusMinus
                }
                Some(b'=') => {
                    self.pos += 1;
                    MinusAssign
                }
                Some(b'>') => {
                    self.pos += 1;
                    Arrow
                }
                _ => Minus,
            },
            b'*' => match two(self) {
                Some(b'=') => {
                    self.pos += 1;
                    StarAssign
                }
                _ => Star,
            },
            b'/' => match two(self) {
                Some(b'=') => {
                    self.pos += 1;
                    SlashAssign
                }
                _ => Slash,
            },
            b'%' => match two(self) {
                Some(b'=') => {
                    self.pos += 1;
                    PercentAssign
                }
                _ => Percent,
            },
            b'&' => match two(self) {
                Some(b'&') => {
                    self.pos += 1;
                    AndAnd
                }
                Some(b'=') => {
                    self.pos += 1;
                    AmpAssign
                }
                _ => Amp,
            },
            b'|' => match two(self) {
                Some(b'|') => {
                    self.pos += 1;
                    OrOr
                }
                Some(b'=') => {
                    self.pos += 1;
                    PipeAssign
                }
                _ => Pipe,
            },
            b'^' => match two(self) {
                Some(b'=') => {
                    self.pos += 1;
                    CaretAssign
                }
                _ => Caret,
            },
            b'!' => match two(self) {
                Some(b'=') => {
                    self.pos += 1;
                    Ne
                }
                _ => Bang,
            },
            b'=' => match two(self) {
                Some(b'=') => {
                    self.pos += 1;
                    Eq
                }
                _ => Assign,
            },
            b'<' => match two(self) {
                Some(b'=') => {
                    self.pos += 1;
                    Le
                }
                Some(b'<') => {
                    self.pos += 1;
                    if self.peek() == Some(b'=') {
                        self.pos += 1;
                        ShlAssign
                    } else {
                        Shl
                    }
                }
                _ => Lt,
            },
            b'>' => match two(self) {
                Some(b'=') => {
                    self.pos += 1;
                    Ge
                }
                Some(b'>') => {
                    self.pos += 1;
                    if self.peek() == Some(b'=') {
                        self.pos += 1;
                        ShrAssign
                    } else {
                        Shr
                    }
                }
                _ => Gt,
            },
            other => {
                self.diags.error(
                    Span::new(self.abs(start), self.abs(self.pos)),
                    format!("unexpected character `{}`", other as char),
                );
                // Skip it and return the next token instead.
                return self.next_token();
            }
        };
        Token::new(kind, Span::new(self.abs(start), self.abs(self.pos)))
    }
}

fn unescape(c: u8) -> char {
    match c {
        b'n' => '\n',
        b't' => '\t',
        b'r' => '\r',
        b'0' => '\0',
        b'\\' => '\\',
        b'\'' => '\'',
        b'"' => '"',
        other => other as char,
    }
}

/// Convenience helper: lex a whole file.
pub fn tokenize_file(file: &SourceFile) -> (Vec<Token>, Diagnostics) {
    Lexer::new(file).tokenize()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<TokenKind> {
        let f = SourceFile::new("t.c", src);
        let (toks, diags) = tokenize_file(&f);
        assert!(!diags.has_errors(), "{}", diags.render_all(&f));
        toks.into_iter().map(|t| t.kind).collect()
    }

    #[test]
    fn lexes_simple_declaration() {
        let k = kinds("int a = 42;");
        assert_eq!(
            k,
            vec![
                TokenKind::KwInt,
                TokenKind::Ident("a".into()),
                TokenKind::Assign,
                TokenKind::IntLit(42),
                TokenKind::Semi,
                TokenKind::Eof
            ]
        );
    }

    #[test]
    fn lexes_operators() {
        let k = kinds("a += b << 2; c = a <= b && d != e;");
        assert!(k.contains(&TokenKind::PlusAssign));
        assert!(k.contains(&TokenKind::Shl));
        assert!(k.contains(&TokenKind::Le));
        assert!(k.contains(&TokenKind::AndAnd));
        assert!(k.contains(&TokenKind::Ne));
    }

    #[test]
    fn lexes_floats_and_suffixes() {
        let k = kinds("double x = 1.5e-3; float y = 2.0f; long n = 10L; unsigned m = 0x1Fu;");
        assert!(k.contains(&TokenKind::FloatLit(1.5e-3)));
        assert!(k.contains(&TokenKind::FloatLit(2.0)));
        assert!(k.contains(&TokenKind::IntLit(10)));
        assert!(k.contains(&TokenKind::IntLit(31)));
    }

    #[test]
    fn lexes_octal_literals() {
        let k = kinds("int a = 010; int b = 0; int c = 0777L; double d = 010.5;");
        assert!(k.contains(&TokenKind::IntLit(8)));
        assert!(k.contains(&TokenKind::IntLit(0)));
        assert!(k.contains(&TokenKind::IntLit(511)));
        assert!(k.contains(&TokenKind::FloatLit(10.5)));
        let f = SourceFile::new("t.c", "int a = 09;");
        assert!(tokenize_file(&f).1.has_errors());
    }

    #[test]
    fn skips_comments() {
        let k = kinds("int a; // trailing\n/* block\n comment */ int b;");
        assert_eq!(
            k,
            vec![
                TokenKind::KwInt,
                TokenKind::Ident("a".into()),
                TokenKind::Semi,
                TokenKind::KwInt,
                TokenKind::Ident("b".into()),
                TokenKind::Semi,
                TokenKind::Eof
            ]
        );
    }

    #[test]
    fn captures_pragma_lines() {
        let src = "#pragma omp target teams distribute \\\n    parallel for\nfor (;;) {}\n";
        let f = SourceFile::new("t.c", src);
        let (toks, diags) = tokenize_file(&f);
        assert!(!diags.has_errors());
        match &toks[0].kind {
            TokenKind::Pragma(body) => {
                assert!(body.starts_with("omp target teams distribute"));
                assert!(body.contains("parallel for"));
            }
            other => panic!("expected pragma, got {other:?}"),
        }
        // Span covers the whole two physical lines of the directive.
        let text = f.snippet(toks[0].span);
        assert!(text.starts_with("#pragma"));
        assert!(text.ends_with("parallel for"));
    }

    #[test]
    fn captures_hash_directives() {
        let k = kinds("#define N 100\nint a[N];\n");
        match &k[0] {
            TokenKind::HashDirective(text) => assert_eq!(text, "define N 100"),
            other => panic!("expected hash directive, got {other:?}"),
        }
    }

    #[test]
    fn hash_inside_line_is_error_not_directive() {
        let f = SourceFile::new("t.c", "int a; #pragma omp target\n");
        let (toks, _diags) = tokenize_file(&f);
        // '#' not at line start (non-whitespace precedes) is still treated as
        // a directive only if at line start; here it isn't, so the lexer
        // reports an error and recovers.
        assert!(toks.iter().any(|t| matches!(t.kind, TokenKind::Semi)));
    }

    #[test]
    fn char_and_string_literals() {
        let k = kinds("char c = 'x'; char n = '\\n'; const char *s = \"hi\\tthere\";");
        assert!(k.contains(&TokenKind::CharLit('x')));
        assert!(k.contains(&TokenKind::CharLit('\n')));
        assert!(k.contains(&TokenKind::StrLit("hi\tthere".into())));
    }

    #[test]
    fn base_offset_shifts_spans() {
        let lx = Lexer::with_base("a + b", 100);
        let (toks, _) = lx.tokenize();
        assert_eq!(toks[0].span, Span::new(100, 101));
        assert_eq!(toks[1].span, Span::new(102, 103));
        assert_eq!(toks[2].span, Span::new(104, 105));
    }

    #[test]
    fn unterminated_string_reports_error() {
        let f = SourceFile::new("t.c", "const char *s = \"oops;\n");
        let (_toks, diags) = tokenize_file(&f);
        assert!(diags.has_errors());
    }

    #[test]
    fn ellipsis_and_arrow() {
        let k = kinds("void f(int n, ...); p->x;");
        assert!(k.contains(&TokenKind::Ellipsis));
        assert!(k.contains(&TokenKind::Arrow));
    }
}
