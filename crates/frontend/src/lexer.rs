//! Lexer for the MiniC language.
//!
//! One pass over a unit's text writes its [`TokenBuffer`]. The lexer
//! performs line splicing (backslash-newline), strips comments, and writes
//! directive lines as ordinary tokens between an opener and an end marker:
//!
//! * a `#` first on its line opens a directive: [`TokenKind::Pragma`] for
//!   `#pragma` (the word itself is not kept), [`TokenKind::Hash`] for any
//!   other. The opener's span covers the whole logical line — to the first
//!   newline no `\` continues, trailing comments included — so the parser can
//!   attach OpenMP directives to the statement that follows them and the
//!   rewriter can reason about their exact source extent;
//! * the line's words follow, lexed like code except that nothing reads past
//!   the end of the line and a `//` comment ends it;
//! * a [`TokenKind::EndDirective`] closes the line. Problems met lexing the
//!   line are counted on it rather than reported: a `#if` that has one has
//!   no value, and the other directives read what they can.

use crate::diag::Diagnostics;
use crate::intern::Symbol;
use crate::source::{SourceFile, Span};
use crate::token::{keyword_from_str, Literals, Token, TokenBuffer, TokenKind};
use std::cell::RefCell;
use std::sync::Arc;

/// What each word (identifier or keyword) lexes as, by its text: an
/// open-addressing table whose hash the lexer computes while it scans the
/// word, so a word seen before costs one probe and one short compare.
#[derive(Default)]
struct Words {
    /// A power-of-two table, at most half full.
    slots: Vec<Option<Word>>,
    len: usize,
}

#[derive(Clone, Copy)]
struct Word {
    hash: u32,
    /// The interned text: lives as long as the process.
    text: &'static [u8],
    kind: TokenKind,
    payload: u32,
}

impl Words {
    fn get(&self, hash: u32, text: &[u8]) -> Option<&Word> {
        let mask = self.slots.len().checked_sub(1)?;
        let mut i = hash as usize & mask;
        loop {
            match &self.slots[i] {
                Some(word) if word.hash == hash && word.text == text => return Some(word),
                Some(_) => i = (i + 1) & mask,
                None => return None,
            }
        }
    }

    fn insert(&mut self, word: Word) {
        if 2 * (self.len + 1) > self.slots.len() {
            let grown = vec![None; (2 * self.slots.len()).max(256)];
            let old = std::mem::replace(&mut self.slots, grown);
            self.len = 0;
            for word in old.into_iter().flatten() {
                self.insert(word);
            }
        }
        let mask = self.slots.len() - 1;
        let mut i = word.hash as usize & mask;
        while self.slots[i].is_some() {
            i = (i + 1) & mask;
        }
        self.slots[i] = Some(word);
        self.len += 1;
    }
}

/// The bytes a word continues with.
static WORD_BYTE: [bool; 256] = {
    let mut table = [false; 256];
    let mut c = 0;
    while c < 256 {
        table[c] = (c as u8).is_ascii_alphanumeric() || c == b'_' as usize;
        c += 1;
    }
    table
};

thread_local! {
    /// The words this thread has lexed. A word seen before, in this unit or
    /// an earlier one, is one probe here and never touches the global symbol
    /// table, so lexing costs no per-token allocation and O(new words)
    /// interner calls. Bounded like the interner: by the distinct words.
    static WORDS: RefCell<Words> = RefCell::new(Words::default());
}

/// Lexer over one source file.
pub struct Lexer<'a> {
    /// What is being lexed: the whole file, or — while a directive line is
    /// lexed — the file up to the end of that line. Offsets are file offsets
    /// either way.
    text: &'a [u8],
    pos: usize,
    diags: Diagnostics,
    /// Problems met on the directive line being lexed; `None` outside one.
    directive_problems: Option<u32>,
    /// This thread's [`WORDS`], held while the lexer runs.
    words: Words,
    tokens: Vec<Token>,
    literals: Literals,
    source: Arc<String>,
}

impl<'a> Lexer<'a> {
    /// Lex the full text of `file`.
    pub fn new(file: &'a SourceFile) -> Self {
        let text = file.text().as_bytes();
        Lexer {
            text,
            pos: 0,
            diags: Diagnostics::new(),
            directive_problems: None,
            words: Words::default(),
            // One buffer for the whole text (C runs about a token per four
            // bytes, directive lines included) instead of a chain of
            // doublings.
            tokens: Vec::with_capacity(text.len() / 4 + 16),
            literals: Literals::for_source(text.len()),
            source: Arc::clone(file.shared_text()),
        }
    }

    /// Consume the lexer and return the unit's buffer — which always ends
    /// with exactly one `Eof` token — and the diagnostics.
    pub fn tokenize(mut self) -> (TokenBuffer, Diagnostics) {
        self.words = WORDS.take();
        self.lex_to_end();
        WORDS.set(self.words);
        let eof = Span::point(self.text.len() as u32);
        self.tokens.push(Token::plain(TokenKind::Eof, eof));
        let buffer = TokenBuffer {
            tokens: self.tokens,
            literals: self.literals,
            text: self.source,
        };
        (buffer, self.diags)
    }

    fn span_from(&self, start: usize) -> Span {
        Span::new(start as u32, self.pos as u32)
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

    /// An error in code; on a directive line, one more problem of the line.
    fn problem(&mut self, span: Span, message: impl Into<String>) {
        match &mut self.directive_problems {
            Some(count) => *count += 1,
            None => self.diags.error(span, message),
        }
    }

    /// True when positioned at the very start of a line (only whitespace
    /// precedes on this line).
    fn at_line_start(&self) -> bool {
        let before = &self.text[..self.pos];
        match before
            .iter()
            .rposition(|c| !matches!(c, b' ' | b'\t' | b'\r'))
        {
            Some(i) => before[i] == b'\n',
            None => true,
        }
    }

    fn skip_trivia(&mut self) {
        let text = self.text;
        let mut pos = self.pos;
        loop {
            match text.get(pos) {
                Some(b' ' | b'\t' | b'\r' | b'\n') => pos += 1,
                // line splicing
                Some(b'\\') if text.get(pos + 1) == Some(&b'\n') => pos += 2,
                Some(b'\\') if text.get(pos + 1..pos + 3) == Some(b"\r\n") => pos += 3,
                Some(b'/') => match text.get(pos + 1) {
                    // On a directive line a `//` comment runs to the end of
                    // the logical line, continuations included.
                    Some(b'/') if self.directive_problems.is_some() => pos = text.len(),
                    Some(b'/') => {
                        let rest = &text[pos..];
                        pos += rest.iter().position(|&c| c == b'\n').unwrap_or(rest.len());
                    }
                    Some(b'*') => match text[pos + 2..].windows(2).position(|w| w == b"*/") {
                        Some(end) => pos += 2 + end + 2,
                        None => {
                            let start = pos;
                            self.pos = text.len();
                            self.problem(self.span_from(start), "unterminated block comment");
                            return;
                        }
                    },
                    _ => break,
                },
                _ => break,
            }
        }
        self.pos = pos;
    }

    /// Lex tokens until the end of the text being lexed.
    fn lex_to_end(&mut self) {
        loop {
            self.skip_trivia();
            let start = self.pos;
            let Some(c) = self.peek() else { return };
            let tok = match c {
                b'a'..=b'z' | b'A'..=b'Z' | b'_' => self.lex_word(start),
                b'0'..=b'9' => self.lex_number(start),
                b'.' if self.peek_at(1).is_some_and(|d| d.is_ascii_digit()) => {
                    self.lex_number(start)
                }
                b'\'' => self.lex_char(start),
                b'"' => self.lex_string(start),
                b'#' if self.directive_problems.is_none() && self.at_line_start() => {
                    self.lex_directive(start);
                    continue;
                }
                _ => match self.lex_operator(start) {
                    Some(tok) => tok,
                    None => continue,
                },
            };
            self.tokens.push(tok);
        }
    }

    /// Lex the directive line whose `#` is at `hash`: opener, words, end.
    fn lex_directive(&mut self, hash: usize) {
        // The logical line runs to the first newline no `\` continues.
        let mut end = hash + 1;
        loop {
            match self.text.get(end) {
                None | Some(b'\n') => break,
                Some(b'\\') if self.text.get(end + 1) == Some(&b'\n') => end += 2,
                Some(b'\\') if self.text[end + 1..].starts_with(b"\r\n") => end += 3,
                _ => end += 1,
            }
        }
        let opener = self.tokens.len();
        let line = Span::new(hash as u32, end as u32);
        self.tokens.push(Token::plain(TokenKind::Hash, line));
        let whole = self.text;
        self.text = &whole[..end];
        self.pos = hash + 1;
        self.directive_problems = Some(0);
        self.skip_trivia();
        let word = &self.text[self.pos..];
        let word_len = word
            .iter()
            .take_while(|c| c.is_ascii_alphanumeric() || **c == b'_')
            .count();
        if &word[..word_len] == b"pragma" {
            self.tokens[opener].kind = TokenKind::Pragma;
            self.pos += word_len;
        }
        self.lex_to_end();
        let problems = self.directive_problems.take().unwrap_or(0);
        let close = self.tokens.len();
        let end_marker = Token::new(TokenKind::EndDirective, problems, Span::point(line.end));
        self.tokens.push(end_marker);
        self.tokens[opener].set_payload((close - opener) as u32);
        self.text = whole;
        self.pos = end;
    }

    /// An identifier or a keyword.
    fn lex_word(&mut self, start: usize) -> Token {
        let text = self.text;
        let mut end = start;
        // FNV-1a over the word's bytes, as they are scanned.
        let mut hash: u32 = 0x811c_9dc5;
        while let Some(&c) = text.get(end).filter(|c| WORD_BYTE[**c as usize]) {
            hash = (hash ^ u32::from(c)).wrapping_mul(0x0100_0193);
            end += 1;
        }
        self.pos = end;
        let bytes = &text[start..end];
        let (kind, payload) = match self.words.get(hash, bytes) {
            Some(word) => (word.kind, word.payload),
            None => {
                // Word bytes are ASCII, so the slice is valid UTF-8.
                let name = Symbol::intern(std::str::from_utf8(bytes).unwrap_or_default());
                let (kind, payload) = match keyword_from_str(bytes) {
                    Some(keyword) => (keyword, 0),
                    None => (TokenKind::Ident, name.index()),
                };
                let text = name.as_str().as_bytes();
                (self.words).insert(Word {
                    hash,
                    text,
                    kind,
                    payload,
                });
                (kind, payload)
            }
        };
        Token::new(kind, payload, self.span_from(start))
    }

    fn lex_number(&mut self, start: usize) -> Token {
        let mut is_float = false;
        // hex
        if self.peek() == Some(b'0') && matches!(self.peek_at(1), Some(b'x') | Some(b'X')) {
            self.pos += 2;
            while self.peek().is_some_and(|c| c.is_ascii_hexdigit()) {
                self.pos += 1;
            }
            let text = std::str::from_utf8(&self.text[start + 2..self.pos]).unwrap_or("0");
            let value = i64::from_str_radix(text, 16).unwrap_or_else(|_| {
                self.problem(self.span_from(start), "hexadecimal literal out of range");
                0
            });
            self.consume_int_suffix();
            return self.literals.int_token(value, self.span_from(start));
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
        let span = self.span_from(start);
        if is_float {
            let value: f64 = text.parse().unwrap_or_else(|_| {
                self.problem(span, "invalid floating-point literal");
                0.0
            });
            self.literals.float_token(value, span)
        } else {
            // A leading `0` makes an integer literal octal.
            let radix = if text.len() > 1 && text.starts_with('0') {
                8
            } else {
                10
            };
            // What `i64::from_str_radix` reads, without its generality: the
            // text is digits only.
            let value = text.bytes().try_fold(0i64, |value, digit| {
                let digit = i64::from(digit - b'0');
                if digit >= radix {
                    return None;
                }
                value.checked_mul(radix)?.checked_add(digit)
            });
            let value = value.unwrap_or_else(|| {
                self.problem(span, "integer literal invalid or out of range");
                0
            });
            self.literals.int_token(value, span)
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
            None => self.problem(self.span_from(start), "unterminated character literal"),
        }
        if self.peek() == Some(b'\'') {
            self.pos += 1;
        } else {
            self.problem(self.span_from(start), "unterminated character literal");
        }
        Token::new(TokenKind::CharLit, value as u32, self.span_from(start))
    }

    fn lex_string(&mut self, start: usize) -> Token {
        self.pos += 1; // opening quote
        let value_start = self.literals.string_text().len();
        let mut closed = false;
        while let Some(c) = self.bump() {
            let value = match c {
                b'"' => {
                    closed = true;
                    break;
                }
                b'\\' => unescape(self.bump().unwrap_or(b'"')),
                other => other as char,
            };
            self.literals.string_text().push(value);
        }
        if !closed {
            self.problem(self.span_from(start), "unterminated string literal");
        }
        self.literals.str_token(value_start, self.span_from(start))
    }

    /// Punctuation or an operator; `None` (and a problem) for a byte that
    /// starts no token.
    fn lex_operator(&mut self, start: usize) -> Option<Token> {
        use TokenKind::*;
        // `lex_to_end` calls this at a byte, never at the end.
        let c = self.bump()?;
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
                let span = self.span_from(start);
                self.problem(span, format!("unexpected character `{}`", other as char));
                return None;
            }
        };
        Some(Token::plain(kind, self.span_from(start)))
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
pub fn tokenize_file(file: &SourceFile) -> (TokenBuffer, Diagnostics) {
    Lexer::new(file).tokenize()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The tokens of `src`, each spelled as clause text spells it, with the
    /// directive markers named.
    fn spelled(src: &str) -> Vec<String> {
        let f = SourceFile::new("t.c", src);
        let (toks, diags) = tokenize_file(&f);
        assert!(!diags.has_errors(), "{}", diags.render_all(&f));
        spell_all(&toks)
    }

    fn spell_all(toks: &TokenBuffer) -> Vec<String> {
        toks.iter()
            .map(|t| match t.kind {
                TokenKind::Hash => "<#>".to_string(),
                TokenKind::Pragma => "<#pragma>".to_string(),
                TokenKind::EndDirective => "<end>".to_string(),
                TokenKind::Eof => "<eof>".to_string(),
                _ => toks.literals().spell(t),
            })
            .collect()
    }

    fn kinds(src: &str) -> Vec<TokenKind> {
        let f = SourceFile::new("t.c", src);
        let (toks, diags) = tokenize_file(&f);
        assert!(!diags.has_errors(), "{}", diags.render_all(&f));
        toks.iter().map(|t| t.kind).collect()
    }

    #[test]
    fn lexes_simple_declaration() {
        assert_eq!(
            spelled("int a = 42;"),
            ["int", "a", "=", "42", ";", "<eof>"]
        );
        assert_eq!(
            kinds("int a = 42;"),
            vec![
                TokenKind::KwInt,
                TokenKind::Ident,
                TokenKind::Assign,
                TokenKind::IntLit,
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
        let k = spelled("double x = 1.5e-3; float y = 2.0f; long n = 10L; unsigned m = 0x1Fu;");
        for value in ["0.0015", "2", "10", "31"] {
            assert!(k.iter().any(|s| s == value), "{value} in {k:?}");
        }
        let f = SourceFile::new("t.c", "float y = 2.0f;");
        let toks = tokenize_file(&f).0;
        assert_eq!(toks[3].kind, TokenKind::FloatLit);
        assert_eq!(toks.literals().float(&toks[3]), 2.0);
    }

    #[test]
    fn lexes_octal_literals() {
        let k = spelled("int a = 010; int b = 0; int c = 0777L; double d = 010.5;");
        for value in ["8", "0", "511", "10.5"] {
            assert!(k.iter().any(|s| s == value), "{value} in {k:?}");
        }
        let f = SourceFile::new("t.c", "int a = 09;");
        assert!(tokenize_file(&f).1.has_errors());
    }

    #[test]
    fn skips_comments() {
        assert_eq!(
            spelled("int a; // trailing\n/* block\n comment */ int b;"),
            ["int", "a", ";", "int", "b", ";", "<eof>"]
        );
    }

    /// A pragma line is its opener, its words and an end marker; the
    /// opener's span covers both physical lines.
    #[test]
    fn captures_pragma_lines() {
        let src = "#pragma omp target teams distribute \\\n    parallel for\nfor (;;) {}\n";
        let f = SourceFile::new("t.c", src);
        let (toks, diags) = tokenize_file(&f);
        assert!(!diags.has_errors());
        assert_eq!(
            spell_all(&toks)[..8],
            [
                "<#pragma>",
                "omp",
                "target",
                "teams",
                "distribute",
                "parallel",
                "for",
                "<end>"
            ]
        );
        assert_eq!(toks[0].directive_len(), 7);
        let text = f.snippet(toks[0].span);
        assert!(text.starts_with("#pragma"));
        assert!(text.ends_with("parallel for"));
        assert_eq!(toks[7].span, Span::point(toks[0].span.end));
        assert_eq!(toks[8].kind, TokenKind::KwFor);
    }

    #[test]
    fn captures_hash_directives() {
        assert_eq!(
            spelled("#define N 100\nint a[N];\n"),
            ["<#>", "define", "N", "100", "<end>", "int", "a", "[", "N", "]", ";", "<eof>"]
        );
    }

    /// A directive line's problems are counted on its end marker, not
    /// reported, and nothing on the line reads past its end.
    #[test]
    fn directive_problems_are_counted_on_the_line() {
        let f = SourceFile::new("t.c", "#if 09 @ \"open\nint x;\n");
        let (toks, diags) = tokenize_file(&f);
        assert!(diags.is_empty(), "{diags:?}");
        let end = toks[0].directive_len();
        assert_eq!(toks[end].kind, TokenKind::EndDirective);
        assert_eq!(toks[end].payload(), 3);
        assert_eq!(toks[end + 1].kind, TokenKind::KwInt);
    }

    /// Tokens on a directive line carry the file offsets of their own bytes.
    #[test]
    fn directive_tokens_carry_file_spans() {
        let src = "int x;\n  #  define  WIDTH \\\n (x + 1)\n";
        let f = SourceFile::new("t.c", src);
        let toks = tokenize_file(&f).0;
        let snippets: Vec<&str> = toks[3..].iter().map(|t| f.snippet(t.span)).collect();
        assert_eq!(
            snippets,
            [
                "#  define  WIDTH \\\n (x + 1)",
                "define",
                "WIDTH",
                "(",
                "x",
                "+",
                "1",
                ")",
                "",
                ""
            ]
        );
    }

    #[test]
    fn hash_inside_line_is_error_not_directive() {
        let f = SourceFile::new("t.c", "int a; #pragma omp target\n");
        let (toks, diags) = tokenize_file(&f);
        // '#' not at line start (non-whitespace precedes) is not a
        // directive: the lexer reports an error and recovers.
        assert!(diags.has_errors());
        assert!(toks.iter().any(|t| matches!(t.kind, TokenKind::Semi)));
        assert!(!toks.iter().any(|t| matches!(t.kind, TokenKind::Pragma)));
    }

    #[test]
    fn char_and_string_literals() {
        let k = spelled("char c = 'x'; char n = '\\n'; const char *s = \"hi\\tthere\";");
        assert!(k.contains(&"'x'".to_string()));
        assert!(k.contains(&"'\n'".to_string()));
        assert!(k.contains(&"\"hi\tthere\"".to_string()));
    }

    #[test]
    fn unterminated_string_reports_error() {
        let f = SourceFile::new("t.c", "const char *s = \"oops;\n");
        let (_toks, diags) = tokenize_file(&f);
        assert!(diags.has_errors());
    }

    /// A run of bytes that start no token is one error each, lexed in a
    /// loop: a long run cannot exhaust the stack.
    #[test]
    fn unexpected_characters_are_skipped_one_by_one() {
        let src = format!("int a;{}int b;", "@".repeat(200_000));
        let f = SourceFile::new("t.c", src);
        let (toks, diags) = tokenize_file(&f);
        assert_eq!(diags.error_count(), 200_000);
        assert_eq!(toks.len(), 7);
    }

    #[test]
    fn ellipsis_and_arrow() {
        let k = kinds("void f(int n, ...); p->x;");
        assert!(k.contains(&TokenKind::Ellipsis));
        assert!(k.contains(&TokenKind::Arrow));
    }
}
