//! Source text management: files, byte spans and line/column resolution.
//!
//! All AST nodes produced by the parser carry [`Span`]s that index into the
//! *original* source text of a [`SourceFile`]. The rewriter in
//! `ompdart-core` relies on these byte offsets to splice OpenMP directives
//! into the untouched input, so macro expansion performed by the
//! preprocessor never rewrites spans: expanded tokens inherit the span of
//! the macro *use site*.

use std::fmt;
use std::sync::{Arc, OnceLock};

/// A half-open byte range `[start, end)` into a source file.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Span {
    /// Byte offset of the first character covered by the span.
    pub start: u32,
    /// Byte offset one past the last character covered by the span.
    pub end: u32,
}

impl Span {
    /// Create a new span. `start` must be `<= end`.
    pub fn new(start: u32, end: u32) -> Self {
        debug_assert!(start <= end, "span start must not exceed end");
        Span { start, end }
    }

    /// A zero-length span at `pos`.
    pub fn point(pos: u32) -> Self {
        Span {
            start: pos,
            end: pos,
        }
    }

    /// An empty placeholder span (offset 0). Used for synthesized nodes.
    pub fn dummy() -> Self {
        Span { start: 0, end: 0 }
    }

    /// Length of the span in bytes.
    pub fn len(&self) -> u32 {
        self.end - self.start
    }

    /// True if the span covers no bytes.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// The smallest span covering both `self` and `other`.
    pub fn to(&self, other: Span) -> Span {
        Span {
            start: self.start.min(other.start),
            end: self.end.max(other.end),
        }
    }

    /// True if `self` fully contains `other`.
    pub fn contains(&self, other: Span) -> bool {
        self.start <= other.start && other.end <= self.end
    }

    /// True if `self` contains the byte offset `pos`.
    pub fn contains_pos(&self, pos: u32) -> bool {
        self.start <= pos && pos < self.end
    }
}

impl fmt::Debug for Span {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}..{})", self.start, self.end)
    }
}

/// A 1-based line/column position, as reported in diagnostics.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct LineCol {
    pub line: u32,
    pub col: u32,
}

impl fmt::Display for LineCol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.line, self.col)
    }
}

/// An input file: a name plus its full text, shared, and a line table built
/// the first time a position is resolved to a line.
#[derive(Debug, Clone)]
pub struct SourceFile {
    name: String,
    text: Arc<String>,
    /// Byte offsets of the start of each line (line 1 starts at offset 0).
    line_starts: OnceLock<Vec<u32>>,
}

impl SourceFile {
    /// Create a source file from a name and its contents.
    pub fn new(name: impl Into<String>, text: impl Into<String>) -> Self {
        SourceFile::shared(name, Arc::new(text.into()))
    }

    /// A source file over text someone else holds too: no copy.
    pub fn shared(name: impl Into<String>, text: Arc<String>) -> Self {
        SourceFile {
            name: name.into(),
            text,
            line_starts: OnceLock::new(),
        }
    }

    fn line_starts(&self) -> &[u32] {
        self.line_starts.get_or_init(|| {
            let newlines = self.text.bytes().filter(|b| *b == b'\n').count();
            let mut starts = Vec::with_capacity(newlines + 1);
            starts.push(0);
            let after_newlines = (self.text.bytes().enumerate())
                .filter(|(_, b)| *b == b'\n')
                .map(|(i, _)| i as u32 + 1);
            starts.extend(after_newlines);
            starts
        })
    }

    /// The file name supplied at construction.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The complete source text.
    pub fn text(&self) -> &str {
        &self.text
    }

    /// The complete source text, as the file shares it: a pointer copy.
    pub fn shared_text(&self) -> Arc<String> {
        Arc::clone(&self.text)
    }

    /// Length of the file in bytes.
    pub fn len(&self) -> u32 {
        self.text.len() as u32
    }

    /// True if the file is empty.
    pub fn is_empty(&self) -> bool {
        self.text.is_empty()
    }

    /// The text covered by `span`. Out-of-range spans are clamped.
    pub fn snippet(&self, span: Span) -> &str {
        let start = (span.start as usize).min(self.text.len());
        let end = (span.end as usize).min(self.text.len()).max(start);
        &self.text[start..end]
    }

    /// Resolve a byte offset to a 1-based line/column pair.
    pub fn line_col(&self, pos: u32) -> LineCol {
        let pos = pos.min(self.len());
        let line_starts = self.line_starts();
        // `line_starts[0]` is 0, so a miss is never before the first line.
        let line_idx = match line_starts.binary_search(&pos) {
            Ok(i) => i,
            Err(i) => i - 1,
        };
        let line_start = line_starts[line_idx];
        LineCol {
            line: line_idx as u32 + 1,
            col: pos - line_start + 1,
        }
    }

    /// Byte offset of the start of the (1-based) line containing `pos`.
    pub fn line_start_of(&self, pos: u32) -> u32 {
        let lc = self.line_col(pos);
        self.line_starts()[(lc.line - 1) as usize]
    }

    /// Byte offset just past the end of the line containing `pos`
    /// (i.e. the offset of the `\n`, or the end of file).
    pub fn line_end_of(&self, pos: u32) -> u32 {
        let lc = self.line_col(pos);
        let idx = lc.line as usize;
        let line_starts = self.line_starts();
        if idx < line_starts.len() {
            // subtract 1 to exclude the newline itself
            line_starts[idx].saturating_sub(1)
        } else {
            self.len()
        }
    }

    /// The full text of the (1-based) line containing `pos`, without the
    /// trailing newline.
    pub fn line_text(&self, pos: u32) -> &str {
        let start = self.line_start_of(pos);
        let end = self.line_end_of(pos);
        self.snippet(Span::new(start, end))
    }

    /// The whitespace prefix (indentation) of the line containing `pos`.
    pub fn indentation_at(&self, pos: u32) -> String {
        let line = self.line_text(pos);
        line.chars()
            .take_while(|c| *c == ' ' || *c == '\t')
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_merge_and_contains() {
        let a = Span::new(2, 5);
        let b = Span::new(7, 9);
        let merged = a.to(b);
        assert_eq!(merged, Span::new(2, 9));
        assert!(merged.contains(a));
        assert!(merged.contains(b));
        assert!(!a.contains(b));
        assert!(a.contains_pos(2));
        assert!(!a.contains_pos(5));
    }

    #[test]
    fn span_len_and_empty() {
        assert_eq!(Span::new(3, 3).len(), 0);
        assert!(Span::new(3, 3).is_empty());
        assert_eq!(Span::new(3, 8).len(), 5);
        assert!(Span::dummy().is_empty());
    }

    #[test]
    fn line_col_resolution() {
        let f = SourceFile::new("t.c", "int a;\nint b;\n  int c;\n");
        assert_eq!(f.line_col(0), LineCol { line: 1, col: 1 });
        assert_eq!(f.line_col(4), LineCol { line: 1, col: 5 });
        assert_eq!(f.line_col(7), LineCol { line: 2, col: 1 });
        assert_eq!(f.line_col(16), LineCol { line: 3, col: 3 });
    }

    #[test]
    fn snippet_and_line_text() {
        let f = SourceFile::new("t.c", "int a;\n  int bb;\n");
        assert_eq!(f.snippet(Span::new(0, 3)), "int");
        assert_eq!(f.line_text(9), "  int bb;");
        assert_eq!(f.indentation_at(9), "  ");
        assert_eq!(f.line_start_of(9), 7);
        assert_eq!(f.line_end_of(9), 16);
    }

    #[test]
    fn snippet_clamps_out_of_range() {
        let f = SourceFile::new("t.c", "abc");
        assert_eq!(f.snippet(Span::new(1, 100)), "bc");
        assert_eq!(f.snippet(Span::new(50, 100)), "");
    }

    #[test]
    fn empty_file() {
        let f = SourceFile::new("e.c", "");
        assert!(f.is_empty());
        assert_eq!(f.line_col(0), LineCol { line: 1, col: 1 });
    }
}
