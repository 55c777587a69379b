//! Tokens of the MiniC lexer: one compact buffer per unit.
//!
//! A [`Token`] is 16 bytes — its kind, a four-byte payload and its span —
//! and owns nothing. What a payload holds depends on the kind:
//!
//! * [`TokenKind::Ident`]: the interned [`Symbol`];
//! * [`TokenKind::CharLit`]: the character;
//! * [`TokenKind::IntLit`], [`TokenKind::FloatLit`], [`TokenKind::StrLit`]:
//!   an index into the unit's [`Literals`];
//! * [`TokenKind::Hash`] and [`TokenKind::Pragma`], which open a directive
//!   line: the distance to the [`TokenKind::EndDirective`] that closes it;
//! * [`TokenKind::EndDirective`]: how many lexing problems the line had (its
//!   diagnostics are not reported: the directive decides what they mean).
//!
//! Directive lines are ordinary tokens in the buffer. `#pragma omp target
//! map(to: a)` is `Pragma omp target map ( to : a ) EndDirective`, and the
//! opener's span covers the whole logical line, continuations and trailing
//! comments included.

use crate::intern::Symbol;
use crate::source::Span;
use std::ops::Deref;
use std::sync::Arc;

/// The kind of a lexed token.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum TokenKind {
    // Literals and identifiers
    Ident,
    IntLit,
    FloatLit,
    CharLit,
    StrLit,

    // Keywords (C subset)
    KwInt,
    KwFloat,
    KwDouble,
    KwChar,
    KwLong,
    KwShort,
    KwUnsigned,
    KwSigned,
    KwVoid,
    KwBool,
    KwConst,
    KwStatic,
    KwExtern,
    KwStruct,
    KwTypedef,
    KwIf,
    KwElse,
    KwFor,
    KwWhile,
    KwDo,
    KwReturn,
    KwBreak,
    KwContinue,
    KwSwitch,
    KwCase,
    KwDefault,
    KwSizeof,
    KwGoto,
    KwEnum,
    KwRestrict,
    KwInline,
    KwVolatile,

    // Punctuation and operators
    LParen,
    RParen,
    LBrace,
    RBrace,
    LBracket,
    RBracket,
    Semi,
    Comma,
    Colon,
    Question,
    Dot,
    Arrow,
    Ellipsis,

    Plus,
    Minus,
    Star,
    Slash,
    Percent,
    Amp,
    Pipe,
    Caret,
    Tilde,
    Bang,
    Shl,
    Shr,

    PlusPlus,
    MinusMinus,

    Assign,
    PlusAssign,
    MinusAssign,
    StarAssign,
    SlashAssign,
    PercentAssign,
    AmpAssign,
    PipeAssign,
    CaretAssign,
    ShlAssign,
    ShrAssign,

    Eq,
    Ne,
    Lt,
    Gt,
    Le,
    Ge,
    AndAnd,
    OrOr,

    /// The `#` that opens a directive line other than `#pragma`; the
    /// preprocessor consumes the line.
    Hash,
    /// `#pragma`: opens a pragma line, which the parser reads.
    Pragma,
    /// The end of a directive line.
    EndDirective,

    /// End of file.
    Eof,
}

impl TokenKind {
    /// True if this token starts a type specifier.
    pub fn is_type_keyword(self) -> bool {
        matches!(
            self,
            TokenKind::KwInt
                | TokenKind::KwFloat
                | TokenKind::KwDouble
                | TokenKind::KwChar
                | TokenKind::KwLong
                | TokenKind::KwShort
                | TokenKind::KwUnsigned
                | TokenKind::KwSigned
                | TokenKind::KwVoid
                | TokenKind::KwBool
                | TokenKind::KwStruct
        )
    }

    /// True if this token is a declaration specifier that may precede a type.
    pub fn is_decl_qualifier(self) -> bool {
        matches!(
            self,
            TokenKind::KwConst
                | TokenKind::KwStatic
                | TokenKind::KwExtern
                | TokenKind::KwRestrict
                | TokenKind::KwVolatile
                | TokenKind::KwInline
        )
    }

    /// True for a keyword.
    pub fn is_keyword(self) -> bool {
        (TokenKind::KwInt as u8..=TokenKind::KwVolatile as u8).contains(&(self as u8))
    }

    /// A short human-readable description of a token of this kind, as parse
    /// errors name what they expected; [`Literals::describe`] names a token
    /// that was found.
    pub fn describe(self) -> String {
        match self {
            TokenKind::Ident => "identifier".to_string(),
            TokenKind::IntLit => "integer literal".to_string(),
            TokenKind::FloatLit => "floating literal".to_string(),
            TokenKind::CharLit => "character literal".to_string(),
            TokenKind::StrLit => "string literal".to_string(),
            TokenKind::Pragma => "#pragma directive".to_string(),
            TokenKind::Hash => "preprocessor directive".to_string(),
            TokenKind::EndDirective => "end of directive".to_string(),
            TokenKind::Eof => "end of file".to_string(),
            other => format!("`{}`", other.symbol_text()),
        }
    }

    /// The literal source text of a fixed token (keywords and punctuation).
    pub fn symbol_text(self) -> &'static str {
        use TokenKind::*;
        match self {
            KwInt => "int",
            KwFloat => "float",
            KwDouble => "double",
            KwChar => "char",
            KwLong => "long",
            KwShort => "short",
            KwUnsigned => "unsigned",
            KwSigned => "signed",
            KwVoid => "void",
            KwBool => "bool",
            KwConst => "const",
            KwStatic => "static",
            KwExtern => "extern",
            KwStruct => "struct",
            KwTypedef => "typedef",
            KwIf => "if",
            KwElse => "else",
            KwFor => "for",
            KwWhile => "while",
            KwDo => "do",
            KwReturn => "return",
            KwBreak => "break",
            KwContinue => "continue",
            KwSwitch => "switch",
            KwCase => "case",
            KwDefault => "default",
            KwSizeof => "sizeof",
            KwGoto => "goto",
            KwEnum => "enum",
            KwRestrict => "restrict",
            KwInline => "inline",
            KwVolatile => "volatile",
            LParen => "(",
            RParen => ")",
            LBrace => "{",
            RBrace => "}",
            LBracket => "[",
            RBracket => "]",
            Semi => ";",
            Comma => ",",
            Colon => ":",
            Question => "?",
            Dot => ".",
            Arrow => "->",
            Ellipsis => "...",
            Plus => "+",
            Minus => "-",
            Star => "*",
            Slash => "/",
            Percent => "%",
            Amp => "&",
            Pipe => "|",
            Caret => "^",
            Tilde => "~",
            Bang => "!",
            Shl => "<<",
            Shr => ">>",
            PlusPlus => "++",
            MinusMinus => "--",
            Assign => "=",
            PlusAssign => "+=",
            MinusAssign => "-=",
            StarAssign => "*=",
            SlashAssign => "/=",
            PercentAssign => "%=",
            AmpAssign => "&=",
            PipeAssign => "|=",
            CaretAssign => "^=",
            ShlAssign => "<<=",
            ShrAssign => ">>=",
            Eq => "==",
            Ne => "!=",
            Lt => "<",
            Gt => ">",
            Le => "<=",
            Ge => ">=",
            AndAnd => "&&",
            OrOr => "||",
            Ident | IntLit | FloatLit | CharLit | StrLit | Hash | Pragma | EndDirective | Eof => "",
        }
    }
}

/// A lexed token: kind, payload (see the module docs) and source span.
///
/// Only this crate makes tokens, so a payload always means what its kind
/// says: an `Ident`'s is an interned symbol, a literal's indexes the
/// [`Literals`] of the buffer the token came from.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Token {
    pub kind: TokenKind,
    payload: u32,
    pub span: Span,
}

impl Token {
    pub(crate) fn new(kind: TokenKind, payload: u32, span: Span) -> Self {
        Token {
            kind,
            payload,
            span,
        }
    }

    /// A token of a kind that carries no payload.
    pub(crate) fn plain(kind: TokenKind, span: Span) -> Self {
        Token::new(kind, 0, span)
    }

    /// The same token at another span.
    pub(crate) fn at(self, span: Span) -> Token {
        Token { span, ..self }
    }

    pub(crate) fn payload(&self) -> u32 {
        self.payload
    }

    pub(crate) fn set_payload(&mut self, payload: u32) {
        self.payload = payload;
    }

    /// The identifier, for an `Ident` token.
    pub fn ident(&self) -> Option<Symbol> {
        (self.kind == TokenKind::Ident).then(|| Symbol::from_index(self.payload))
    }

    /// The word a directive or clause position reads: an identifier, or a
    /// keyword's text.
    pub fn word(&self) -> Option<&'static str> {
        match self.kind {
            TokenKind::Ident => self.ident().map(Symbol::as_str),
            kind if kind.is_keyword() => Some(kind.symbol_text()),
            _ => None,
        }
    }

    /// For a directive opener, the index of its `EndDirective` relative to
    /// the opener.
    pub(crate) fn directive_len(&self) -> usize {
        self.payload as usize
    }
}

/// The values of a unit's number and string literals, which their tokens
/// index: an integer's `i64` or a float's `f64` bits, or a string's
/// `start << 32 | end` in `strings`.
#[derive(Clone, Debug, Default)]
pub struct Literals {
    values: Vec<u64>,
    strings: String,
}

impl Literals {
    /// A table sized for the literals of `source_len` bytes of C.
    pub(crate) fn for_source(source_len: usize) -> Self {
        Literals {
            values: Vec::with_capacity(source_len / 16),
            strings: String::new(),
        }
    }

    fn push(&mut self, value: u64) -> u32 {
        self.values.push(value);
        (self.values.len() - 1) as u32
    }

    pub(crate) fn int_token(&mut self, value: i64, span: Span) -> Token {
        Token::new(TokenKind::IntLit, self.push(value as u64), span)
    }

    pub(crate) fn float_token(&mut self, value: f64, span: Span) -> Token {
        Token::new(TokenKind::FloatLit, self.push(value.to_bits()), span)
    }

    /// The growing text of the next string literal; [`Self::str_token`]
    /// closes it.
    pub(crate) fn string_text(&mut self) -> &mut String {
        &mut self.strings
    }

    /// A token for the string appended to [`Self::string_text`] since
    /// `start` (its length then).
    pub(crate) fn str_token(&mut self, start: usize, span: Span) -> Token {
        let range = (start as u64) << 32 | self.strings.len() as u64;
        Token::new(TokenKind::StrLit, self.push(range), span)
    }

    /// The value of an `IntLit` token.
    pub fn int(&self, tok: &Token) -> i64 {
        self.values[tok.payload as usize] as i64
    }

    /// The value of a `FloatLit` token.
    pub fn float(&self, tok: &Token) -> f64 {
        f64::from_bits(self.values[tok.payload as usize])
    }

    /// The value of a `CharLit` token.
    pub fn char(&self, tok: &Token) -> char {
        char::from_u32(tok.payload).unwrap_or('\0')
    }

    /// The (unescaped) value of a `StrLit` token.
    pub fn str(&self, tok: &Token) -> &str {
        let range = self.values[tok.payload as usize];
        &self.strings[(range >> 32) as usize..range as u32 as usize]
    }

    /// A short human-readable description of `tok`, as parse errors name
    /// what they found.
    pub fn describe(&self, tok: &Token) -> String {
        match tok.kind {
            TokenKind::Ident => format!("identifier `{}`", self.spell(tok)),
            TokenKind::IntLit => format!("integer literal `{}`", self.int(tok)),
            TokenKind::FloatLit => format!("floating literal `{}`", self.float(tok)),
            TokenKind::CharLit => format!("character literal `{:?}`", self.char(tok)),
            kind => kind.describe(),
        }
    }

    /// `tok` as clause text spells it: an identifier's name, a number's
    /// value, a quoted string or character, a fixed token's text.
    pub fn spell(&self, tok: &Token) -> String {
        match tok.kind {
            TokenKind::Ident => tok.ident().map(Symbol::as_str).unwrap_or("").to_string(),
            TokenKind::IntLit => self.int(tok).to_string(),
            TokenKind::FloatLit => self.float(tok).to_string(),
            TokenKind::StrLit => format!("\"{}\"", self.str(tok)),
            TokenKind::CharLit => format!("'{}'", self.char(tok)),
            kind => kind.symbol_text().to_string(),
        }
    }
}

/// One unit's tokens: the compact buffer (ending in exactly one `Eof`), the
/// literal table its tokens index, and the source text they were lexed from.
/// It dereferences to the token slice.
#[derive(Clone, Debug)]
pub struct TokenBuffer {
    pub(crate) tokens: Vec<Token>,
    pub(crate) literals: Literals,
    pub(crate) text: Arc<String>,
}

impl TokenBuffer {
    /// The literal table the buffer's tokens index.
    pub fn literals(&self) -> &Literals {
        &self.literals
    }
}

impl Deref for TokenBuffer {
    type Target = [Token];

    fn deref(&self) -> &[Token] {
        &self.tokens
    }
}

/// Map an identifier to a keyword token kind, if it is one.
pub fn keyword_from_str(s: &[u8]) -> Option<TokenKind> {
    Some(match s {
        b"int" => TokenKind::KwInt,
        b"float" => TokenKind::KwFloat,
        b"double" => TokenKind::KwDouble,
        b"char" => TokenKind::KwChar,
        b"long" => TokenKind::KwLong,
        b"short" => TokenKind::KwShort,
        b"unsigned" => TokenKind::KwUnsigned,
        b"signed" => TokenKind::KwSigned,
        b"void" => TokenKind::KwVoid,
        b"bool" | b"_Bool" => TokenKind::KwBool,
        b"const" => TokenKind::KwConst,
        b"static" => TokenKind::KwStatic,
        b"extern" => TokenKind::KwExtern,
        b"struct" => TokenKind::KwStruct,
        b"typedef" => TokenKind::KwTypedef,
        b"if" => TokenKind::KwIf,
        b"else" => TokenKind::KwElse,
        b"for" => TokenKind::KwFor,
        b"while" => TokenKind::KwWhile,
        b"do" => TokenKind::KwDo,
        b"return" => TokenKind::KwReturn,
        b"break" => TokenKind::KwBreak,
        b"continue" => TokenKind::KwContinue,
        b"switch" => TokenKind::KwSwitch,
        b"case" => TokenKind::KwCase,
        b"default" => TokenKind::KwDefault,
        b"sizeof" => TokenKind::KwSizeof,
        b"goto" => TokenKind::KwGoto,
        b"enum" => TokenKind::KwEnum,
        b"restrict" | b"__restrict" | b"__restrict__" => TokenKind::KwRestrict,
        b"inline" => TokenKind::KwInline,
        b"volatile" => TokenKind::KwVolatile,
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keyword_lookup() {
        assert_eq!(keyword_from_str(b"int"), Some(TokenKind::KwInt));
        assert_eq!(keyword_from_str(b"while"), Some(TokenKind::KwWhile));
        assert_eq!(
            keyword_from_str(b"__restrict__"),
            Some(TokenKind::KwRestrict)
        );
        assert_eq!(keyword_from_str(b"banana"), None);
        assert!(TokenKind::KwInt.is_keyword() && TokenKind::KwVolatile.is_keyword());
        assert!(!TokenKind::Ident.is_keyword() && !TokenKind::LParen.is_keyword());
    }

    #[test]
    fn type_keyword_classification() {
        assert!(TokenKind::KwInt.is_type_keyword());
        assert!(TokenKind::KwStruct.is_type_keyword());
        assert!(!TokenKind::KwConst.is_type_keyword());
        assert!(TokenKind::KwConst.is_decl_qualifier());
        assert!(!TokenKind::KwIf.is_type_keyword());
    }

    #[test]
    fn describe_tokens() {
        let mut literals = Literals::default();
        let x = Token::new(TokenKind::Ident, Symbol::intern("x").index(), Span::dummy());
        assert_eq!(literals.describe(&x), "identifier `x`");
        let three = literals.int_token(3, Span::dummy());
        assert_eq!(literals.describe(&three), "integer literal `3`");
        assert_eq!(TokenKind::PlusAssign.describe(), "`+=`");
        assert_eq!(TokenKind::Eof.describe(), "end of file");
        assert_eq!(std::mem::size_of::<Token>(), 16);
    }
}
