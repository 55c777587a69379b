//! Versioned, serde-free JSON serialization of the Mapping IR.
//!
//! The serializer is hand-rolled so the crate stays dependency-free and
//! offline-friendly: one [`JsonWriter`] that appends compact or two-space
//! pretty JSON to a caller's `String`, a tiny [`Json`] value tree, and a
//! recursive-descent parser. The format is versioned via
//! [`PLAN_FORMAT_VERSION`]; [`plans_from_json`] rejects documents written
//! by an incompatible version instead of mis-reading them. A plan document
//! is always `{version, plans}`, for one plan as for many.
//!
//! Plan documents are written, not built: the plan encoder
//! ([`MappingPlan::write_json`], and `write_plans_json` around it) walks
//! the plans and hands each field to the writer, so no value tree stands
//! between the IR and its bytes. Every producer of plan JSON — [`plans_to_json`]
//! (pretty), the daemon's memoised rendering and
//! the store's unit records ([`plans_to_json_compact`], compact) and the
//! suite's all-benchmarks report — goes through it. The [`Json`] tree
//! remains for what is read (decoding, [`plans_from_json`] included, is
//! tree-based) and for small documents built by hand (daemon responses,
//! statistics); [`Json::render`] goes through the same writer, so
//! separators and indentation are decided in one place.
//!
//! The same kernel carries every store document and every daemon frame, so
//! its two hot loops — writing and reading a string — move bytes in runs:
//! the input is scanned eight bytes per step to the next byte that needs
//! attention (`"`, `\`, and for the writer a control byte) and everything
//! before it is copied at once; integers are read digit by digit. The
//! grammar, every error message and offset, the nesting cap and the
//! rendered bytes are those of the char-at-a-time kernel this replaced,
//! which `tests/properties.rs` keeps as the reference. A server that sends
//! the same string or document many times does not call the writer many
//! times: [`write_json_string`] and [`Json::render_into`] append to a
//! caller's buffer, and [`crate::pipeline::UnitAnalysis`] memoises the two
//! renderings the daemon splices into its responses.
//!
//! Node ids and byte spans are serialized as plain integers. They are
//! meaningful relative to a parse of the *same* source text (parsing is
//! deterministic), which is what makes the round-trip
//! `plans -> plans_to_json -> plans_from_json -> rewrite` produce
//! byte-identical output.

use crate::pipeline::Stage;
use crate::plan::ir::{
    FirstPrivateSpec, MapSpec, MappingPlan, Placement, Provenance, ProvenanceFact, UpdateDirection,
    UpdateSpec, PLAN_FORMAT_VERSION,
};
use ompdart_frontend::ast::NodeId;
use ompdart_frontend::omp::MapType;
use ompdart_frontend::source::Span;
use std::fmt;

// ---------------------------------------------------------------------------
// The JSON value tree
// ---------------------------------------------------------------------------

/// A minimal JSON value. Objects preserve insertion order so serialization
/// is deterministic.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    /// Only integers are needed by the plan format.
    Int(i64),
    Str(String),
    Array(Vec<Json>),
    Object(Vec<(String, Json)>),
}

impl Json {
    /// Look up a key in an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_int(&self) -> Option<i64> {
        match self {
            Json::Int(n) => Some(*n),
            _ => None,
        }
    }

    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(items) => Some(items),
            _ => None,
        }
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    pub fn is_null(&self) -> bool {
        matches!(self, Json::Null)
    }

    /// Render compactly (no insignificant whitespace).
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out);
        out
    }

    /// Render compactly into a caller-owned buffer, appending.
    pub fn render_into(&self, out: &mut String) {
        out.reserve(self.rendered_size_hint(None));
        self.write(&mut JsonWriter::compact(out));
    }

    /// Render with two-space indentation.
    pub fn render_pretty(&self) -> String {
        let mut out = String::with_capacity(self.rendered_size_hint(Some(2)));
        self.render_pretty_into(&mut out);
        out
    }

    /// Render with two-space indentation into a caller-owned buffer,
    /// appending. Callers serializing many documents (the persistent
    /// store's write-back batches, the daemon's responses) reuse one
    /// buffer across documents instead of growing a fresh `String` through
    /// the doubling schedule every time.
    pub fn render_pretty_into(&self, out: &mut String) {
        out.reserve(self.rendered_size_hint(Some(2)));
        self.write(&mut JsonWriter::pretty(out));
        out.push('\n');
    }

    /// Upper-ish estimate of the rendered size, used to pre-size output
    /// buffers so rendering does O(1) buffer growths instead of O(log n).
    /// Cheap single pass: strings count raw length plus quote/escape slack,
    /// containers add per-item punctuation plus (when pretty) a padded
    /// line per item at an assumed average depth.
    fn rendered_size_hint(&self, indent: Option<usize>) -> usize {
        // Average nesting of a plan document is ~4; overshooting a little
        // only trims one realloc, undershooting falls back to doubling.
        let per_line = indent.map(|w| 1 + w * 4).unwrap_or(0);
        match self {
            Json::Null | Json::Bool(_) => 5,
            Json::Int(_) => 20,
            Json::Str(s) => s.len() + 8,
            Json::Array(items) => {
                2 + items
                    .iter()
                    .map(|item| item.rendered_size_hint(indent) + 1 + per_line)
                    .sum::<usize>()
            }
            Json::Object(fields) => {
                2 + fields
                    .iter()
                    .map(|(key, value)| {
                        key.len() + 4 + value.rendered_size_hint(indent) + 1 + per_line
                    })
                    .sum::<usize>()
            }
        }
    }

    /// This value as the writer's next item.
    fn write(&self, w: &mut JsonWriter<'_>) {
        match self {
            Json::Null => w.null(),
            Json::Bool(b) => w.bool(*b),
            Json::Int(n) => w.int(*n),
            Json::Str(s) => w.string(s),
            Json::Array(items) => {
                w.begin_array();
                for item in items {
                    item.write(w);
                }
                w.end_array();
            }
            Json::Object(fields) => {
                w.begin_object();
                for (key, value) in fields {
                    value.write(w.key(key));
                }
                w.end_object();
            }
        }
    }

    /// Parse a JSON document. Trailing non-whitespace is an error.
    pub fn parse(text: &str) -> Result<Json, PlanJsonError> {
        let mut p = Parser {
            text,
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let value = p.value()?;
        p.skip_ws();
        if p.pos < p.bytes.len() {
            return Err(PlanJsonError::syntax(p.pos, "trailing characters"));
        }
        Ok(value)
    }
}

// ---------------------------------------------------------------------------
// The writer
// ---------------------------------------------------------------------------

/// A comma, a newline and the indentation of up to 32 levels: what comes
/// before a pretty item is one slice of it.
const SEPARATOR: &str = concat!(
    ",\n",
    "                                ",
    "                                "
);

/// Appends one JSON document to a caller's `String`, compact or indented
/// by two spaces per level. It is the only place separators and
/// indentation are decided: [`Json::render`] renders a tree through it, and
/// the plan encoder ([`MappingPlan::write_json`]) writes the Mapping IR
/// through it field by field, with no tree between.
///
/// The caller drives the nesting: inside an object a [`Self::key`] comes
/// before each value; inside an array values follow one another. A
/// container left empty is written `{}` or `[]` in either layout.
pub struct JsonWriter<'a> {
    out: &'a mut String,
    pretty: bool,
    /// Containers open around the next item.
    depth: usize,
    /// The innermost open container has no item yet.
    empty: bool,
    /// A key was just written: the value that follows it is not an item of
    /// its own.
    after_key: bool,
}

impl<'a> JsonWriter<'a> {
    /// A writer appending without insignificant whitespace.
    pub fn compact(out: &'a mut String) -> JsonWriter<'a> {
        JsonWriter::new(out, false)
    }

    /// A writer appending with two-space indentation. The trailing newline
    /// of a pretty document is the caller's to add.
    pub fn pretty(out: &'a mut String) -> JsonWriter<'a> {
        JsonWriter::new(out, true)
    }

    fn new(out: &'a mut String, pretty: bool) -> JsonWriter<'a> {
        JsonWriter {
            out,
            pretty,
            depth: 0,
            empty: true,
            after_key: false,
        }
    }

    /// Separate the next item from the one before it and indent it.
    #[inline]
    fn item(&mut self) {
        if std::mem::take(&mut self.after_key) || self.depth == 0 {
            return;
        }
        let comma = !std::mem::take(&mut self.empty);
        if self.pretty {
            self.newline(comma, self.depth);
        } else if comma {
            self.out.push(',');
        }
    }

    /// A pretty line break, after a comma or not, to `levels` levels.
    #[inline]
    fn newline(&mut self, comma: bool, levels: usize) {
        let (start, end) = (usize::from(!comma), 2 + 2 * levels);
        match SEPARATOR.get(start..end) {
            Some(separator) => self.out.push_str(separator),
            None => {
                self.out.push_str(&SEPARATOR[start..]);
                self.out.extend((SEPARATOR.len()..end).map(|_| ' '));
            }
        }
    }

    #[inline]
    fn open(&mut self, bracket: char) {
        self.item();
        self.out.push(bracket);
        self.depth += 1;
        self.empty = true;
    }

    #[inline]
    fn close(&mut self, bracket: char) {
        self.depth -= 1;
        if !std::mem::replace(&mut self.empty, false) && self.pretty {
            self.newline(false, self.depth);
        }
        self.out.push(bracket);
    }

    #[inline]
    pub fn begin_object(&mut self) {
        self.open('{');
    }

    #[inline]
    pub fn end_object(&mut self) {
        self.close('}');
    }

    #[inline]
    pub fn begin_array(&mut self) {
        self.open('[');
    }

    #[inline]
    pub fn end_array(&mut self) {
        self.close(']');
    }

    /// The key of the object member whose value is written next, by the
    /// writer this returns: `w.key("depth").int(2)`.
    #[inline]
    pub fn key(&mut self, key: &str) -> &mut Self {
        self.item();
        write_json_string(self.out, key);
        if self.pretty {
            self.out.push_str(": ");
        } else {
            self.out.push(':');
        }
        self.after_key = true;
        self
    }

    #[inline]
    pub fn string(&mut self, s: &str) {
        self.item();
        write_json_string(self.out, s);
    }

    /// An integer, formatted without `fmt`'s machinery.
    #[inline]
    pub fn int(&mut self, n: i64) {
        self.item();
        let mut digits = [0u8; 20];
        let mut at = digits.len();
        let mut rest = n.unsigned_abs();
        loop {
            at -= 1;
            digits[at] = b'0' + (rest % 10) as u8;
            rest /= 10;
            if rest == 0 {
                break;
            }
        }
        if n < 0 {
            self.out.push('-');
        }
        self.out
            .push_str(std::str::from_utf8(&digits[at..]).expect("ASCII digits"));
    }

    #[inline]
    pub fn bool(&mut self, b: bool) {
        self.item();
        self.out.push_str(if b { "true" } else { "false" });
    }

    #[inline]
    pub fn null(&mut self) {
        self.item();
        self.out.push_str("null");
    }
}

/// Append `s` as a JSON string literal. Bytes move in runs: everything up
/// to the next byte that needs an escape (`"`, `\`, or a control byte) is
/// copied by one `push_str`. Such a byte is ASCII, so both ends of a run
/// are character boundaries.
#[inline]
pub fn write_json_string(out: &mut String, s: &str) {
    use std::fmt::Write as _;
    out.reserve(s.len() + 2);
    out.push('"');
    let mut rest = s;
    while let Some(run) = first_special(rest.as_bytes(), 0x20) {
        out.push_str(&rest[..run]);
        match rest.as_bytes()[run] {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            control => {
                let _ = write!(out, "\\u{control:04x}");
            }
        }
        rest = &rest[run + 1..];
    }
    out.push_str(rest);
    out.push('"');
}

/// Index of the first `"`, `\` or byte below `controls` (`0x20` for the
/// writer, which escapes control bytes; `0` for the parser, which takes
/// them raw). Eight bytes are tested per step with the subtract-and-mask
/// tests for "has a zero byte" and "has a byte below n": a borrow can only
/// flag a byte above one that is truly flagged, so the lowest flag is exact.
fn first_special(bytes: &[u8], controls: u8) -> Option<usize> {
    const ONES: u64 = u64::MAX / 0xff;
    const HIGH: u64 = ONES * 0x80;
    let mut at = 0;
    for word in bytes.chunks_exact(8) {
        let w = u64::from_le_bytes(word.try_into().expect("chunks of eight"));
        let (quote, slash) = (w ^ (ONES * 0x22), w ^ (ONES * 0x5c));
        let flags = (w.wrapping_sub(ONES * u64::from(controls)) & !w)
            | (quote.wrapping_sub(ONES) & !quote)
            | (slash.wrapping_sub(ONES) & !slash);
        if flags & HIGH != 0 {
            return Some(at + (flags & HIGH).trailing_zeros() as usize / 8);
        }
        at += 8;
    }
    let tail = bytes[at..]
        .iter()
        .position(|&b| b < controls || b == b'"' || b == b'\\')?;
    Some(at + tail)
}

/// Maximum container nesting the parser accepts. Plan documents nest a
/// handful of levels; the cap turns adversarial deeply-nested input into a
/// syntax error instead of a stack overflow.
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    text: &'a str,
    /// `text.as_bytes()`.
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self.pos < self.bytes.len()
            && matches!(self.bytes[self.pos], b' ' | b'\t' | b'\n' | b'\r')
        {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), PlanJsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(PlanJsonError::syntax(
                self.pos,
                format!("expected `{}`", b as char),
            ))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, PlanJsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(PlanJsonError::syntax(
                self.pos,
                format!("expected `{word}`"),
            ))
        }
    }

    fn value(&mut self) -> Result<Json, PlanJsonError> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') | Some(b'[') => {
                if self.depth >= MAX_DEPTH {
                    return Err(PlanJsonError::syntax(self.pos, "nesting too deep"));
                }
                self.depth += 1;
                let result = if self.peek() == Some(b'{') {
                    self.object()
                } else {
                    self.array()
                };
                self.depth -= 1;
                result
            }
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-') | Some(b'0'..=b'9') => self.number(),
            _ => Err(PlanJsonError::syntax(self.pos, "expected a JSON value")),
        }
    }

    fn object(&mut self) -> Result<Json, PlanJsonError> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Object(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Object(fields));
                }
                _ => return Err(PlanJsonError::syntax(self.pos, "expected `,` or `}`")),
            }
        }
    }

    fn array(&mut self) -> Result<Json, PlanJsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Array(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Array(items));
                }
                _ => return Err(PlanJsonError::syntax(self.pos, "expected `,` or `]`")),
            }
        }
    }

    /// A string literal. Bytes move in runs: everything up to the next `"`
    /// or `\` is one slice of the (already valid UTF-8) input, copied once;
    /// a string without escapes is its first run.
    fn string(&mut self) -> Result<String, PlanJsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            let Some(len) = first_special(&self.bytes[start..], 0) else {
                return Err(PlanJsonError::syntax(
                    self.bytes.len(),
                    "unterminated string",
                ));
            };
            let end = start + len;
            // Every escape consumes whole ASCII bytes, so a run starts and
            // ends on character boundaries; `get` keeps that a checked fact.
            let run = self
                .text
                .get(start..end)
                .ok_or_else(|| PlanJsonError::syntax(start, "invalid UTF-8"))?;
            out.push_str(run);
            self.pos = end + 1;
            if self.bytes[end] == b'"' {
                return Ok(out);
            }
            let Some(esc) = self.peek() else {
                return Err(PlanJsonError::syntax(self.pos, "unterminated escape"));
            };
            self.pos += 1;
            match esc {
                b'"' => out.push('"'),
                b'\\' => out.push('\\'),
                b'/' => out.push('/'),
                b'n' => out.push('\n'),
                b'r' => out.push('\r'),
                b't' => out.push('\t'),
                b'b' => out.push('\u{0008}'),
                b'f' => out.push('\u{000c}'),
                b'u' => out.push(self.unicode_escape()?),
                _ => return Err(PlanJsonError::syntax(self.pos, "unknown escape")),
            }
        }
    }

    /// The character of a `\u` escape whose `\u` has been consumed: four hex
    /// digits, or a surrogate pair of two such escapes.
    fn unicode_escape(&mut self) -> Result<char, PlanJsonError> {
        let unit = self.hex4()?;
        let scalar = match unit {
            // High surrogate: a low surrogate must follow (standard JSON
            // encoding of non-BMP characters, e.g. Python's ensure_ascii).
            0xd800..=0xdbff => {
                for expected in [b'\\', b'u'] {
                    if self.peek() != Some(expected) {
                        return Err(PlanJsonError::syntax(self.pos, "unpaired high surrogate"));
                    }
                    self.pos += 1;
                }
                let low = self.hex4()?;
                if !(0xdc00..=0xdfff).contains(&low) {
                    return Err(PlanJsonError::syntax(self.pos, "invalid low surrogate"));
                }
                0x10000 + ((unit - 0xd800) << 10) + (low - 0xdc00)
            }
            0xdc00..=0xdfff => {
                return Err(PlanJsonError::syntax(self.pos, "unpaired low surrogate"));
            }
            other => other,
        };
        char::from_u32(scalar).ok_or_else(|| PlanJsonError::syntax(self.pos, "invalid \\u escape"))
    }

    /// Read exactly four hex digits of a `\u` escape (no sign, no blanks).
    fn hex4(&mut self) -> Result<u32, PlanJsonError> {
        let Some(digits) = self.bytes.get(self.pos..self.pos + 4) else {
            return Err(PlanJsonError::syntax(self.pos, "truncated \\u escape"));
        };
        let mut unit = 0;
        for &b in digits {
            let digit = (b as char)
                .to_digit(16)
                .ok_or_else(|| PlanJsonError::syntax(self.pos, "invalid \\u escape"))?;
            unit = unit << 4 | digit;
        }
        self.pos += 4;
        Ok(unit)
    }

    /// An integer, accumulated digit by digit on the sign's side of zero so
    /// `i64::MIN` parses and anything wider is an error, not a wrap.
    fn number(&mut self) -> Result<Json, PlanJsonError> {
        let start = self.pos;
        let negative = self.peek() == Some(b'-');
        if negative {
            self.pos += 1;
        }
        let digits = self.pos;
        let mut value = Some(0i64);
        while let Some(b @ b'0'..=b'9') = self.peek() {
            let digit = i64::from(b - b'0');
            value = value.and_then(|v| v.checked_mul(10)).and_then(|v| {
                if negative {
                    v.checked_sub(digit)
                } else {
                    v.checked_add(digit)
                }
            });
            self.pos += 1;
        }
        if matches!(self.peek(), Some(b'.') | Some(b'e') | Some(b'E')) {
            return Err(PlanJsonError::syntax(
                self.pos,
                "the plan format only uses integers",
            ));
        }
        value
            .filter(|_| self.pos > digits)
            .map(Json::Int)
            .ok_or_else(|| PlanJsonError::syntax(start, "invalid number"))
    }
}

// ---------------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------------

/// Failure to parse or interpret a serialized plan.
#[derive(Clone, Debug, PartialEq)]
pub enum PlanJsonError {
    /// The text is not valid JSON.
    Syntax { offset: usize, message: String },
    /// The JSON is valid but does not match the plan schema.
    Schema(String),
    /// The document was written by an incompatible format version.
    UnsupportedVersion(i64),
}

impl PlanJsonError {
    fn syntax(offset: usize, message: impl Into<String>) -> PlanJsonError {
        PlanJsonError::Syntax {
            offset,
            message: message.into(),
        }
    }

    fn schema(message: impl Into<String>) -> PlanJsonError {
        PlanJsonError::Schema(message.into())
    }
}

impl fmt::Display for PlanJsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlanJsonError::Syntax { offset, message } => {
                write!(f, "invalid JSON at byte {offset}: {message}")
            }
            PlanJsonError::Schema(message) => write!(f, "plan schema violation: {message}"),
            PlanJsonError::UnsupportedVersion(v) => write!(
                f,
                "unsupported plan format version {v} (this build reads version {PLAN_FORMAT_VERSION})"
            ),
        }
    }
}

impl std::error::Error for PlanJsonError {}

// ---------------------------------------------------------------------------
// Plan <-> Json conversion
// ---------------------------------------------------------------------------

fn write_node(w: &mut JsonWriter<'_>, id: Option<NodeId>) {
    match id {
        Some(NodeId(n)) => w.int(i64::from(n)),
        None => w.null(),
    }
}

fn node_from_json(value: &Json, what: &str) -> Result<Option<NodeId>, PlanJsonError> {
    match value {
        Json::Null => Ok(None),
        Json::Int(n) if *n >= 0 && *n <= i64::from(u32::MAX) => Ok(Some(NodeId(*n as u32))),
        _ => Err(PlanJsonError::schema(format!(
            "`{what}` must be a node id or null"
        ))),
    }
}

fn require_node(value: &Json, what: &str) -> Result<NodeId, PlanJsonError> {
    node_from_json(value, what)?
        .ok_or_else(|| PlanJsonError::schema(format!("`{what}` must not be null")))
}

fn str_field<'a>(obj: &'a Json, key: &str) -> Result<&'a str, PlanJsonError> {
    obj.get(key)
        .and_then(Json::as_str)
        .ok_or_else(|| PlanJsonError::schema(format!("missing string field `{key}`")))
}

fn opt_str_field(obj: &Json, key: &str) -> Result<Option<String>, PlanJsonError> {
    match obj.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(Json::Str(s)) => Ok(Some(s.clone())),
        Some(_) => Err(PlanJsonError::schema(format!(
            "`{key}` must be a string or null"
        ))),
    }
}

fn array_field<'a>(obj: &'a Json, key: &str) -> Result<&'a [Json], PlanJsonError> {
    obj.get(key)
        .and_then(Json::as_array)
        .ok_or_else(|| PlanJsonError::schema(format!("missing array field `{key}`")))
}

fn write_provenance(w: &mut JsonWriter<'_>, p: &Provenance) {
    w.begin_object();
    w.key("stage").string(p.stage.name());
    w.key("fact").string(p.fact.key());
    w.key("span");
    match p.span {
        Some(span) => {
            w.begin_object();
            w.key("start").int(i64::from(span.start));
            w.key("end").int(i64::from(span.end));
            w.end_object();
        }
        None => w.null(),
    }
    w.key("detail").string(&p.detail);
    w.end_object();
}

/// A section length, or `null` without one.
fn write_section(w: &mut JsonWriter<'_>, length: Option<&str>) {
    match length {
        Some(length) => w.string(length),
        None => w.null(),
    }
}

fn provenance_from_json(value: &Json) -> Result<Provenance, PlanJsonError> {
    let stage_name = str_field(value, "stage")?;
    let stage = Stage::from_name(stage_name)
        .ok_or_else(|| PlanJsonError::schema(format!("unknown stage `{stage_name}`")))?;
    let fact_key = str_field(value, "fact")?;
    let fact = ProvenanceFact::from_key(fact_key)
        .ok_or_else(|| PlanJsonError::schema(format!("unknown provenance fact `{fact_key}`")))?;
    let span = match value.get("span") {
        None | Some(Json::Null) => None,
        Some(obj) => {
            let start = obj
                .get("start")
                .and_then(Json::as_int)
                .ok_or_else(|| PlanJsonError::schema("span is missing `start`"))?;
            let end = obj
                .get("end")
                .and_then(Json::as_int)
                .ok_or_else(|| PlanJsonError::schema("span is missing `end`"))?;
            if start < 0 || end < start || end > i64::from(u32::MAX) {
                return Err(PlanJsonError::schema("span bounds out of range"));
            }
            Some(Span::new(start as u32, end as u32))
        }
    };
    let detail = str_field(value, "detail")?.to_string();
    Ok(Provenance {
        stage,
        fact,
        span,
        detail,
    })
}

fn write_map_spec(w: &mut JsonWriter<'_>, m: &MapSpec) {
    w.begin_object();
    w.key("var").string(&m.var);
    w.key("map_type").string(m.map_type.as_str());
    write_section(w.key("section_length"), m.section_length.as_deref());
    write_provenance(w.key("provenance"), &m.provenance);
    w.end_object();
}

fn map_spec_from_json(value: &Json) -> Result<MapSpec, PlanJsonError> {
    let map_type_key = str_field(value, "map_type")?;
    let map_type = MapType::from_str(map_type_key)
        .ok_or_else(|| PlanJsonError::schema(format!("unknown map type `{map_type_key}`")))?;
    Ok(MapSpec {
        var: str_field(value, "var")?.to_string(),
        map_type,
        section_length: opt_str_field(value, "section_length")?,
        provenance: provenance_from_json(
            value
                .get("provenance")
                .ok_or_else(|| PlanJsonError::schema("map spec is missing `provenance`"))?,
        )?,
    })
}

fn write_update_spec(w: &mut JsonWriter<'_>, u: &UpdateSpec) {
    w.begin_object();
    w.key("var").string(&u.var);
    w.key("direction").string(u.direction.clause_keyword());
    write_node(w.key("anchor"), Some(u.anchor));
    w.key("placement").string(u.placement.keyword());
    write_section(w.key("section_length"), u.section_length.as_deref());
    write_provenance(w.key("provenance"), &u.provenance);
    w.end_object();
}

fn update_spec_from_json(value: &Json) -> Result<UpdateSpec, PlanJsonError> {
    let direction_key = str_field(value, "direction")?;
    let direction = UpdateDirection::from_keyword(direction_key).ok_or_else(|| {
        PlanJsonError::schema(format!("unknown update direction `{direction_key}`"))
    })?;
    let placement_key = str_field(value, "placement")?;
    let placement = Placement::from_keyword(placement_key)
        .ok_or_else(|| PlanJsonError::schema(format!("unknown placement `{placement_key}`")))?;
    Ok(UpdateSpec {
        var: str_field(value, "var")?.to_string(),
        direction,
        anchor: require_node(
            value
                .get("anchor")
                .ok_or_else(|| PlanJsonError::schema("update spec is missing `anchor`"))?,
            "anchor",
        )?,
        placement,
        section_length: opt_str_field(value, "section_length")?,
        provenance: provenance_from_json(
            value
                .get("provenance")
                .ok_or_else(|| PlanJsonError::schema("update spec is missing `provenance`"))?,
        )?,
    })
}

fn write_firstprivate_spec(w: &mut JsonWriter<'_>, f: &FirstPrivateSpec) {
    w.begin_object();
    write_node(w.key("kernel"), Some(f.kernel));
    w.key("var").string(&f.var);
    write_provenance(w.key("provenance"), &f.provenance);
    w.end_object();
}

fn firstprivate_spec_from_json(value: &Json) -> Result<FirstPrivateSpec, PlanJsonError> {
    Ok(FirstPrivateSpec {
        kernel: require_node(
            value
                .get("kernel")
                .ok_or_else(|| PlanJsonError::schema("firstprivate spec is missing `kernel`"))?,
            "kernel",
        )?,
        var: str_field(value, "var")?.to_string(),
        provenance: provenance_from_json(
            value.get("provenance").ok_or_else(|| {
                PlanJsonError::schema("firstprivate spec is missing `provenance`")
            })?,
        )?,
    })
}

fn check_version(obj: &Json) -> Result<(), PlanJsonError> {
    let version = obj
        .get("version")
        .and_then(Json::as_int)
        .ok_or_else(|| PlanJsonError::schema("missing integer field `version`"))?;
    if version != i64::from(PLAN_FORMAT_VERSION) {
        return Err(PlanJsonError::UnsupportedVersion(version));
    }
    Ok(())
}

impl MappingPlan {
    /// Write this plan (versioned) as the writer's next item.
    pub fn write_json(&self, w: &mut JsonWriter<'_>) {
        /// One array member of the plan: `key`, then each item.
        fn array<T>(
            w: &mut JsonWriter<'_>,
            key: &str,
            items: &[T],
            write: fn(&mut JsonWriter<'_>, &T),
        ) {
            w.key(key).begin_array();
            for item in items {
                write(w, item);
            }
            w.end_array();
        }
        w.begin_object();
        w.key("version").int(i64::from(PLAN_FORMAT_VERSION));
        w.key("function").string(&self.function);
        write_node(w.key("region_start"), self.region_start);
        write_node(w.key("region_end"), self.region_end);
        write_node(w.key("attach_to_kernel"), self.attach_to_kernel);
        array(w, "kernels", &self.kernels, |w, k| write_node(w, Some(*k)));
        array(w, "maps", &self.maps, write_map_spec);
        array(w, "updates", &self.updates, write_update_spec);
        array(
            w,
            "firstprivate",
            &self.firstprivate,
            write_firstprivate_spec,
        );
        w.end_object();
    }

    /// Rebuild a plan from its JSON value, a member of a document's
    /// `plans`.
    fn from_json_value(value: &Json) -> Result<MappingPlan, PlanJsonError> {
        check_version(value)?;
        let mut plan = MappingPlan {
            function: str_field(value, "function")?.to_string(),
            region_start: node_from_json(
                value.get("region_start").unwrap_or(&Json::Null),
                "region_start",
            )?,
            region_end: node_from_json(
                value.get("region_end").unwrap_or(&Json::Null),
                "region_end",
            )?,
            attach_to_kernel: node_from_json(
                value.get("attach_to_kernel").unwrap_or(&Json::Null),
                "attach_to_kernel",
            )?,
            ..Default::default()
        };
        for k in array_field(value, "kernels")? {
            plan.kernels.push(require_node(k, "kernels[..]")?);
        }
        for m in array_field(value, "maps")? {
            plan.maps.push(map_spec_from_json(m)?);
        }
        for u in array_field(value, "updates")? {
            plan.updates.push(update_spec_from_json(u)?);
        }
        for f in array_field(value, "firstprivate")? {
            plan.firstprivate.push(firstprivate_spec_from_json(f)?);
        }
        Ok(plan)
    }
}

/// Write a whole translation unit's plans as one versioned document — the
/// writer's next item, so a caller can embed it in a larger document.
pub(crate) fn write_plans_json(w: &mut JsonWriter<'_>, plans: &[MappingPlan]) {
    w.begin_object();
    w.key("version").int(i64::from(PLAN_FORMAT_VERSION));
    w.key("plans").begin_array();
    for plan in plans {
        plan.write_json(w);
    }
    w.end_array();
    w.end_object();
}

/// Serialize a whole translation unit's plans as one versioned document,
/// pretty-printed, in a buffer of its own length: the caller keeps it, so
/// it keeps no growth slack.
pub fn plans_to_json(plans: &[MappingPlan]) -> String {
    let mut out = String::with_capacity(encoded_size_hint(plans, true));
    write_plans_json(&mut JsonWriter::pretty(&mut out), plans);
    out.push('\n');
    out.shrink_to_fit();
    out
}

/// [`plans_to_json`] without insignificant whitespace: the same document
/// as the daemon splices it into responses and the store packs it.
pub fn plans_to_json_compact(plans: &[MappingPlan]) -> String {
    let mut out = String::with_capacity(encoded_size_hint(plans, false));
    write_plans_json(&mut JsonWriter::compact(&mut out), plans);
    out.shrink_to_fit();
    out
}

/// A little over the encoded size of `plans` as a document: fixed bytes
/// per plan, kernel and spec (pretty at a plan document's own depths), plus
/// every string's length. Escapes can push past it; then the buffer grows.
pub(crate) fn encoded_size_hint(plans: &[MappingPlan], pretty: bool) -> usize {
    let (per_plan, per_kernel, per_spec) = if pretty {
        (320, 16, 370)
    } else {
        (200, 10, 170)
    };
    let spec = |var: &str, section: &Option<String>, provenance: &Provenance| {
        per_spec + var.len() + section.as_ref().map_or(0, String::len) + provenance.detail.len()
    };
    let plan = |plan: &MappingPlan| {
        per_plan
            + plan.function.len()
            + per_kernel * plan.kernels.len()
            + (plan.maps.iter())
                .map(|m| spec(&m.var, &m.section_length, &m.provenance))
                .sum::<usize>()
            + (plan.updates.iter())
                .map(|u| spec(&u.var, &u.section_length, &u.provenance))
                .sum::<usize>()
            + (plan.firstprivate.iter())
                .map(|f| spec(&f.var, &None, &f.provenance))
                .sum::<usize>()
    };
    64 + plans.iter().map(plan).sum::<usize>()
}

/// Parse a document produced by [`plans_to_json`].
pub fn plans_from_json(text: &str) -> Result<Vec<MappingPlan>, PlanJsonError> {
    let doc = Json::parse(text)?;
    check_version(&doc)?;
    array_field(&doc, "plans")?
        .iter()
        .map(MappingPlan::from_json_value)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::ir::{AnalysisStats, Placement, UpdateDirection};

    fn sample_plan() -> MappingPlan {
        let mut plan = MappingPlan {
            function: "main".into(),
            region_start: Some(NodeId(4)),
            region_end: Some(NodeId(19)),
            attach_to_kernel: None,
            kernels: vec![NodeId(7), NodeId(12)],
            ..Default::default()
        };
        plan.maps.push(MapSpec {
            section_length: Some("n".into()),
            provenance: Provenance::plan(
                ProvenanceFact::ReadAndLiveAfterRegion,
                Some(Span::new(10, 25)),
                "`a` read by kernel at line 3 and by host at line 9",
            ),
            ..MapSpec::new("a", MapType::ToFrom)
        });
        plan.maps.push(MapSpec {
            provenance: Provenance::plan(ProvenanceFact::DeadExitCopy, None, "demoted"),
            ..MapSpec::new("scratch", MapType::Alloc)
        });
        plan.updates.push(UpdateSpec {
            provenance: Provenance::plan(
                ProvenanceFact::HostReadBetweenKernels,
                Some(Span::new(40, 55)),
                "host sum loop reads `a`",
            ),
            ..UpdateSpec::new("a", UpdateDirection::From, NodeId(9), Placement::Before)
        });
        plan.firstprivate.push(FirstPrivateSpec {
            provenance: Provenance::at_stage(
                Stage::Accesses,
                ProvenanceFact::ReadOnlyInRegion,
                Some(Span::new(60, 61)),
                "`n` is never written on the device",
            ),
            ..FirstPrivateSpec::new(NodeId(7), "n")
        });
        plan
    }

    /// One plan's document: what every reader of a single plan reads.
    fn to_json(plan: &MappingPlan) -> String {
        plans_to_json(std::slice::from_ref(plan))
    }

    /// The one plan of a document.
    fn from_json(text: &str) -> Result<MappingPlan, PlanJsonError> {
        let mut plans = plans_from_json(text)?;
        assert_eq!(plans.len(), 1, "{text}");
        Ok(plans.remove(0))
    }

    #[test]
    fn round_trip_is_identity() {
        let plan = sample_plan();
        let json = to_json(&plan);
        let back = from_json(&json).unwrap();
        assert_eq!(plan, back);
        // Serialization is deterministic.
        assert_eq!(json, to_json(&back));
    }

    #[test]
    fn document_round_trip() {
        let plans = vec![sample_plan(), MappingPlan::default()];
        let doc = plans_to_json(&plans);
        let back = plans_from_json(&doc).unwrap();
        assert_eq!(plans, back);
    }

    #[test]
    fn version_is_enforced() {
        let json = to_json(&sample_plan());
        // The document's version, then the plan's own.
        let document = json.replacen("\"version\": 4", "\"version\": 99", 1);
        let mut plan = json.clone();
        let at = json.rfind("\"version\": 4").unwrap();
        plan.replace_range(at.., &json[at..].replacen(": 4", ": 99", 1));
        for json in [document, plan] {
            assert_eq!(from_json(&json), Err(PlanJsonError::UnsupportedVersion(99)));
        }
    }

    /// Documents of an older version (1: pre-lifetime schema; 2: lifetimes
    /// as enter-data / exit-data spec lists; 3: the `unstructured` marker
    /// and `collapses`) are rejected with the clear unsupported-version
    /// error, not mis-read as structured plans.
    #[test]
    fn previous_version_is_rejected() {
        for old in [1, 2, 3] {
            let downgrade =
                |json: String| json.replacen("\"version\": 4", &format!("\"version\": {old}"), 1);
            let err = from_json(&downgrade(to_json(&sample_plan()))).unwrap_err();
            assert_eq!(err, PlanJsonError::UnsupportedVersion(old));
            let message = err.to_string();
            assert!(message.contains(&format!("unsupported plan format version {old}")));
            assert!(message.contains(&format!("reads version {PLAN_FORMAT_VERSION}")));
            // Same for a document of two plans.
            let two = [sample_plan(), MappingPlan::default()];
            assert_eq!(
                plans_from_json(&downgrade(plans_to_json(&two))),
                Err(PlanJsonError::UnsupportedVersion(old))
            );
        }
    }

    /// A version-3 plan spelled as an unstructured lifetime, with a
    /// collapse clause, is refused by its version before any field is read:
    /// version 4 has no way to say either, so it must not be read as the
    /// structured plan it resembles.
    #[test]
    fn lifetime_schema_is_validated() {
        let json = to_json(&sample_plan());
        assert!(
            !json.contains("unstructured") && !json.contains("collapses"),
            "{json}"
        );
        let v3 = json.replace("\"version\": 4", "\"version\": 3").replacen(
            "\"kernels\"",
            "\"unstructured\": true,\n      \"collapses\": [{\"kernel\": 7, \"depth\": 2}],\n      \"kernels\"",
            1,
        );
        assert_eq!(from_json(&v3), Err(PlanJsonError::UnsupportedVersion(3)));
    }

    #[test]
    fn schema_violations_are_reported() {
        assert!(matches!(
            from_json("{\"version\": 4}"),
            Err(PlanJsonError::Schema(_))
        ));
        assert!(matches!(
            from_json("not json"),
            Err(PlanJsonError::Syntax { .. })
        ));
        // Unknown fact names are schema errors, not silent defaults.
        let bad = to_json(&sample_plan()).replace("read_and_live_after_region", "vibes");
        assert!(matches!(from_json(&bad), Err(PlanJsonError::Schema(_))));
    }

    #[test]
    fn strings_escape_and_parse() {
        let mut plan = MappingPlan {
            function: "weird \"name\"\nwith\tescapes \\ and unicode é".into(),
            ..Default::default()
        };
        plan.maps.push(MapSpec {
            provenance: Provenance::plan(ProvenanceFact::DeviceOnlyData, None, "π ≈ 3"),
            ..MapSpec::new("a", MapType::Alloc)
        });
        let back = from_json(&to_json(&plan)).unwrap();
        assert_eq!(plan, back);
    }

    #[test]
    fn parser_rejects_floats_and_garbage() {
        assert!(Json::parse("1.5").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("{\"a\":1} x").is_err());
        assert_eq!(Json::parse("[1, 2]").unwrap().as_array().unwrap().len(), 2);
        assert_eq!(
            Json::parse("\"a\\u0041b\"").unwrap(),
            Json::Str("aAb".into())
        );
    }

    /// Surrogate-pair escapes (how standard JSON encoders write non-BMP
    /// characters) decode to the real character; lone surrogates are
    /// rejected instead of silently mangled.
    #[test]
    fn surrogate_pairs_decode() {
        // U+1D465 mathematical italic small x, as serde/Python encode it.
        assert_eq!(
            Json::parse("\"\\ud835\\udc65\"").unwrap(),
            Json::Str("\u{1d465}".into())
        );
        assert!(Json::parse("\"\\ud835\"").is_err());
        assert!(Json::parse("\"\\ud835x\"").is_err());
        assert!(Json::parse("\"\\udc65\"").is_err());
    }

    /// A `\u` escape is exactly four hex digits: `from_str_radix` took a
    /// sign, so `\u+041` used to parse as `A`.
    #[test]
    fn unicode_escapes_take_exactly_four_hex_digits() {
        assert_eq!(Json::parse("\"\\u0041\""), Ok(Json::Str("A".into())));
        for bad in ["\"\\u+041\"", "\"\\u-041\"", "\"\\u041\"", "\"\\u 041\""] {
            assert_eq!(
                Json::parse(bad),
                Err(PlanJsonError::syntax(3, "invalid \\u escape")),
                "{bad}"
            );
        }
        // Three digits, then the input ends.
        assert_eq!(
            Json::parse("\"\\u041"),
            Err(PlanJsonError::syntax(3, "truncated \\u escape"))
        );
    }

    /// Integers are accumulated without going through `str::parse`: the
    /// whole `i64` range round-trips and one past either end is an error.
    #[test]
    fn integers_cover_the_whole_range_and_reject_overflow() {
        for n in [0, -1, 7, i64::MAX, i64::MIN] {
            assert_eq!(Json::parse(&n.to_string()), Ok(Json::Int(n)));
            assert_eq!(Json::Int(n).render(), n.to_string());
        }
        assert_eq!(Json::parse("-0"), Ok(Json::Int(0)));
        assert_eq!(Json::parse("007"), Ok(Json::Int(7)));
        for bad in ["9223372036854775808", "-9223372036854775809", "-", "-x"] {
            assert_eq!(
                Json::parse(bad),
                Err(PlanJsonError::syntax(0, "invalid number")),
                "{bad}"
            );
        }
    }

    #[test]
    fn stats_round_trip() {
        let stats = AnalysisStats {
            functions_analyzed: 3,
            functions_with_kernels: 2,
            kernels: 5,
            mapped_variables: 7,
            map_clauses: 6,
            update_directives: 1,
            firstprivate_clauses: 2,
            unknown_callee_fallbacks: 4,
        };
        let json = stats.to_json();
        // The field order is written into every store document: pinned.
        assert_eq!(
            json.render(),
            "{\"functions_analyzed\":3,\"functions_with_kernels\":2,\"kernels\":5,\
             \"mapped_variables\":7,\"map_clauses\":6,\"update_directives\":1,\
             \"firstprivate_clauses\":2,\"unknown_callee_fallbacks\":4}"
        );
        assert_eq!(AnalysisStats::from_json(&json), Ok(stats));
        // Missing and negative fields are schema violations.
        assert!(AnalysisStats::from_json(&Json::Object(vec![])).is_err());
        let negative = Json::Object(vec![("functions_analyzed".into(), Json::Int(-1))]);
        assert!(AnalysisStats::from_json(&negative).is_err());
    }

    /// Indentation deeper than the writer's one-slice separator (32
    /// levels) is padded out to the same bytes.
    #[test]
    fn pretty_indentation_past_the_separator() {
        let depth = 40;
        let mut value = Json::Int(1);
        for _ in 0..depth {
            value = Json::Array(vec![value]);
        }
        let mut expected = String::new();
        for level in 0..depth {
            expected.push('[');
            expected.push('\n');
            expected.push_str(&" ".repeat(2 * (level + 1)));
        }
        expected.push('1');
        for level in (0..depth).rev() {
            expected.push('\n');
            expected.push_str(&" ".repeat(2 * level));
            expected.push(']');
        }
        expected.push('\n');
        assert_eq!(value.render_pretty(), expected);
        assert_eq!(Json::parse(&expected), Ok(value));
    }

    /// Adversarial nesting must fail with a syntax error, never overflow
    /// the stack.
    #[test]
    fn parser_bounds_nesting_depth() {
        let deep = "[".repeat(200_000);
        assert!(matches!(
            Json::parse(&deep),
            Err(PlanJsonError::Syntax { .. })
        ));
        // Reasonable nesting still parses.
        let ok = format!("{}1{}", "[".repeat(100), "]".repeat(100));
        assert!(Json::parse(&ok).is_ok());
    }
}
