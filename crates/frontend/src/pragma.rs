//! Parsing of `#pragma omp ...` lines into [`OmpDirective`]s.
//!
//! The lexer writes each pragma line into the unit's buffer as tokens; this
//! module reads the words after `omp` there, determines the directive kind
//! (longest match against the Table I grammar), and parses the clause list,
//! each clause expression by a fragment parser over its own tokens.

use crate::ast::Expr;
use crate::omp::{ArraySection, Clause, DirectiveKind, MapItem, MapType, OmpDirective};
use crate::parser::{make_directive, Parser};
use crate::source::Span;
use crate::token::{Literals, Token, TokenKind};

/// Parse the words that follow `#pragma omp` into a directive (without an
/// associated body; the statement parser attaches bodies afterwards).
/// Returns `None` when the words are not a recognizable OpenMP directive.
pub(crate) fn parse_omp_pragma(
    parser: &mut Parser,
    tokens: &[Token],
    pragma_span: Span,
) -> Option<OmpDirective> {
    // 1. Collect the leading directive words (stop at the first clause that
    //    carries parentheses).
    let mut idx = 0usize;
    let mut words: Vec<&'static str> = Vec::new();
    while let Some(word) = tokens.get(idx).and_then(Token::word) {
        if tokens
            .get(idx + 1)
            .is_some_and(|t| t.kind == TokenKind::LParen)
        {
            break;
        }
        words.push(word);
        idx += 1;
    }
    if words.is_empty() {
        // Nothing names a directive: `omp` alone, or a first word that owns
        // parentheses (not valid OpenMP).
        return None;
    }

    let (kind, consumed) = DirectiveKind::from_words(&words);
    if let DirectiveKind::Other(name) = &kind {
        parser.note_unknown_directive(pragma_span, name);
    }

    let mut clauses: Vec<Clause> = Vec::new();
    // 2. Leftover bare words between the directive and the first
    //    parenthesized clause are clauses without arguments (e.g. `nowait`).
    for word in &words[consumed.min(words.len())..] {
        clauses.push(bare_clause(word));
    }

    // 3. Parse the remaining `name(args)` / bare-name clause list.
    let mut i = idx;
    while i < tokens.len() {
        let Some(name) = tokens[i].word() else {
            // Unexpected token inside the pragma: skip it.
            i += 1;
            continue;
        };
        i += 1;
        if tokens.get(i).is_some_and(|t| t.kind == TokenKind::LParen) {
            // An unclosed list runs to the end of the pragma.
            let (args, next) =
                collect_paren_args(tokens, i).unwrap_or((&tokens[i + 1..], tokens.len()));
            i = next;
            clauses.push(build_clause(parser, &kind, name, args));
        } else {
            clauses.push(bare_clause(name));
        }
    }

    Some(make_directive(parser, kind, clauses, pragma_span))
}

fn bare_clause(name: &str) -> Clause {
    match name {
        "nowait" => Clause::Nowait,
        other => Clause::Other {
            name: other.to_string(),
            text: String::new(),
        },
    }
}

/// The tokens between the `(` at `open_idx` and its matching `)`, and the
/// index just past that `)`. `None` when the list is not closed before the
/// tokens, the file or the line (a directive) end.
pub(crate) fn collect_paren_args(tokens: &[Token], open_idx: usize) -> Option<(&[Token], usize)> {
    let mut depth = 0usize;
    for (i, tok) in tokens.iter().enumerate().skip(open_idx) {
        match tok.kind {
            TokenKind::LParen => depth += 1,
            TokenKind::RParen if depth <= 1 => return Some((&tokens[open_idx + 1..i], i + 1)),
            TokenKind::RParen => depth -= 1,
            TokenKind::Eof | TokenKind::Hash | TokenKind::Pragma | TokenKind::EndDirective => break,
            _ => {}
        }
    }
    None
}

fn build_clause(
    parser: &mut Parser,
    directive: &DirectiveKind,
    name: &str,
    args: &[Token],
) -> Clause {
    let literals = parser.literals();
    match name {
        "map" => parse_map_clause(args, literals),
        "to" if *directive == DirectiveKind::TargetUpdate => {
            Clause::UpdateTo(parse_item_list(args, literals))
        }
        "from" if *directive == DirectiveKind::TargetUpdate => {
            Clause::UpdateFrom(parse_item_list(args, literals))
        }
        "to" => Clause::UpdateTo(parse_item_list(args, literals)),
        "from" => Clause::UpdateFrom(parse_item_list(args, literals)),
        "firstprivate" => Clause::FirstPrivate(parse_item_list(args, literals)),
        "private" => Clause::Private(parse_item_list(args, literals)),
        "shared" => Clause::Shared(parse_item_list(args, literals)),
        "reduction" => {
            let (op_tokens, rest) = split_at_colon(args);
            let op = op_tokens.iter().map(|t| literals.spell(t)).collect();
            Clause::Reduction {
                op,
                items: parse_item_list(rest, literals),
            }
        }
        "num_teams" | "num_threads" | "thread_limit" | "collapse" | "device" | "if" => {
            let expr = parse_expr_fragment(args, literals).unwrap_or_else(|| default_expr(parser));
            match name {
                "num_teams" => Clause::NumTeams(expr),
                "num_threads" => Clause::NumThreads(expr),
                "thread_limit" => Clause::ThreadLimit(expr),
                "collapse" => Clause::Collapse(expr),
                "device" => Clause::Device(expr),
                _ => Clause::If(expr),
            }
        }
        "schedule" => Clause::Schedule(render_tokens(args, literals)),
        "defaultmap" => Clause::DefaultMap(render_tokens(args, literals)),
        other => Clause::Other {
            name: other.to_string(),
            text: render_tokens(args, literals),
        },
    }
}

fn default_expr(parser: &mut Parser) -> Expr {
    Expr {
        id: parser.fresh_id(),
        span: Span::dummy(),
        kind: crate::ast::ExprKind::IntLit(1),
    }
}

fn parse_map_clause(args: &[Token], literals: &Literals) -> Clause {
    // Strip map-type modifiers (`always`, `close`) and their commas.
    let mut rest: &[Token] = args;
    while let Some((first, after)) = rest.split_first() {
        if !first.ident().is_some_and(|s| s == "always" || s == "close") {
            break;
        }
        rest = match after.split_first() {
            Some((comma, after)) if comma.kind == TokenKind::Comma => after,
            _ => after,
        };
    }
    // Optional `map-type :`
    let mut map_type = None;
    if let [ty, colon, after @ ..] = rest {
        if colon.kind == TokenKind::Colon {
            if let Some(mt) = ty.ident().and_then(|ty| MapType::from_str(&ty)) {
                map_type = Some(mt);
                rest = after;
            }
        }
    }
    Clause::Map {
        map_type,
        items: parse_item_list(rest, literals),
    }
}

/// Split tokens at the first top-level colon (used for `reduction(op: list)`).
fn split_at_colon(args: &[Token]) -> (&[Token], &[Token]) {
    let mut depth = 0i32;
    for (i, tok) in args.iter().enumerate() {
        match tok.kind {
            TokenKind::LParen | TokenKind::LBracket => depth += 1,
            TokenKind::RParen | TokenKind::RBracket => depth -= 1,
            TokenKind::Colon if depth == 0 => return (&args[..i], &args[i + 1..]),
            _ => {}
        }
    }
    (&[], args)
}

/// Parse a comma-separated list of map items, each `var` optionally followed
/// by array sections `[lower:length]`.
fn parse_item_list(args: &[Token], literals: &Literals) -> Vec<MapItem> {
    let mut items = Vec::new();
    for group in split_top_level_commas(args) {
        let Some((var, var_span)) = group.first().and_then(|t| Some((t.ident()?, t.span))) else {
            continue;
        };
        let mut sections = Vec::new();
        let mut i = 1usize;
        while group.get(i).is_some_and(|t| t.kind == TokenKind::LBracket) {
            // find matching RBracket
            let mut depth = 0i32;
            let mut j = i;
            while j < group.len() {
                match group[j].kind {
                    TokenKind::LBracket => depth += 1,
                    TokenKind::RBracket => {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    _ => {}
                }
                j += 1;
            }
            sections.push(parse_section(&group[i + 1..j], literals));
            i = j + 1;
        }
        let span = group
            .iter()
            .map(|t| t.span)
            .fold(var_span, |acc, s| acc.to(s));
        items.push(MapItem {
            var: var.to_string(),
            span,
            sections,
        });
    }
    items
}

fn parse_section(inner: &[Token], literals: &Literals) -> ArraySection {
    // `lower : length`, either part optional.
    let mut depth = 0i32;
    let mut colon = None;
    for (i, tok) in inner.iter().enumerate() {
        match tok.kind {
            TokenKind::LParen | TokenKind::LBracket => depth += 1,
            TokenKind::RParen | TokenKind::RBracket => depth -= 1,
            TokenKind::Colon if depth == 0 => {
                colon = Some(i);
                break;
            }
            _ => {}
        }
    }
    match colon {
        Some(i) => ArraySection {
            lower: parse_expr_fragment(&inner[..i], literals),
            length: parse_expr_fragment(&inner[i + 1..], literals),
        },
        None => ArraySection {
            lower: parse_expr_fragment(inner, literals),
            length: None,
        },
    }
}

/// Split `args` at its commas outside any parentheses or brackets.
pub(crate) fn split_top_level_commas(args: &[Token]) -> Vec<&[Token]> {
    let mut out = Vec::new();
    let mut start = 0;
    let mut depth = 0i32;
    for (i, tok) in args.iter().enumerate() {
        match tok.kind {
            TokenKind::LParen | TokenKind::LBracket => depth += 1,
            TokenKind::RParen | TokenKind::RBracket => depth -= 1,
            TokenKind::Comma if depth == 0 => {
                out.push(&args[start..i]);
                start = i + 1;
            }
            _ => {}
        }
    }
    // `()` has no pieces; `(a,)` has two, the second empty.
    if !(args.is_empty() && out.is_empty()) {
        out.push(&args[start..]);
    }
    out
}

/// Parse an expression from a slice of the buffer.
fn parse_expr_fragment(tokens: &[Token], literals: &Literals) -> Option<Expr> {
    if tokens.is_empty() {
        return None;
    }
    Some(Parser::for_fragment(tokens, literals).parse_expr())
}

fn render_tokens(args: &[Token], literals: &Literals) -> String {
    let spelled: Vec<String> = args.iter().map(|t| literals.spell(t)).collect();
    spelled.join(" ")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::StmtKind;
    use crate::parser::parse_str;

    fn directives(src: &str) -> Vec<OmpDirective> {
        let (file, result) = parse_str("p.c", src);
        assert!(
            result.is_ok(),
            "parse errors:\n{}",
            result.diagnostics.render_all(&file)
        );
        let mut out = Vec::new();
        for f in result.unit.functions() {
            f.body.as_ref().unwrap().walk(&mut |s| {
                if let StmtKind::Omp(d) = &s.kind {
                    out.push(d.clone());
                }
            });
        }
        out
    }

    #[test]
    fn map_clause_with_sections_and_types() {
        let src = "\
void f(double *a, double *b, int n) {
  #pragma omp target teams distribute parallel for map(to: a[0:n]) map(from: b[0:n]) map(alloc: a)
  for (int i = 0; i < n; i++) b[i] = a[i];
}
";
        let d = &directives(src)[0];
        let maps: Vec<_> = d.map_clauses().collect();
        assert_eq!(maps.len(), 3);
        assert_eq!(*maps[0].0, Some(MapType::To));
        assert_eq!(*maps[1].0, Some(MapType::From));
        assert_eq!(*maps[2].0, Some(MapType::Alloc));
        assert_eq!(maps[0].1[0].var, "a");
        assert!(maps[0].1[0].sections[0].lower.is_some());
        assert!(maps[0].1[0].sections[0].length.is_some());
        assert!(maps[2].1[0].sections.is_empty());
    }

    #[test]
    fn map_clause_without_type_defaults_to_none() {
        let src = "\
void f(int n) {
  int a[10];
  #pragma omp target data map(a)
  {
    #pragma omp target
    for (int i = 0; i < n; i++) a[i] = i;
  }
}
";
        let ds = directives(src);
        let data = ds
            .iter()
            .find(|d| d.kind == DirectiveKind::TargetData)
            .unwrap();
        let maps: Vec<_> = data.map_clauses().collect();
        assert_eq!(*maps[0].0, None);
        assert_eq!(maps[0].1[0].var, "a");
    }

    #[test]
    fn update_clause_direction() {
        let src = "\
void f(double *a, int n) {
  #pragma omp target data map(tofrom: a[0:n])
  {
    #pragma omp target update from(a[0:n])
    #pragma omp target update to(a[0:n])
  }
}
";
        let ds = directives(src);
        let updates: Vec<_> = ds
            .iter()
            .filter(|d| d.kind == DirectiveKind::TargetUpdate)
            .collect();
        assert_eq!(updates.len(), 2);
        assert!(matches!(updates[0].clauses[0], Clause::UpdateFrom(_)));
        assert!(matches!(updates[1].clauses[0], Clause::UpdateTo(_)));
    }

    #[test]
    fn multiple_items_in_one_clause() {
        let src = "\
void f(double *a, double *b, double *c, int n) {
  #pragma omp target map(tofrom: a[0:n], b[0:n]) map(to: c[0:n]) firstprivate(n)
  for (int i = 0; i < n; i++) a[i] = b[i] + c[i];
}
";
        let d = &directives(src)[0];
        let maps: Vec<_> = d.map_clauses().collect();
        assert_eq!(maps[0].1.len(), 2);
        assert_eq!(maps[0].1[1].var, "b");
        assert_eq!(d.firstprivate_vars(), vec!["n"]);
    }

    #[test]
    fn num_teams_and_thread_limit_expressions() {
        let src = "\
void f(int n) {
  int a[64];
  #pragma omp target teams distribute num_teams(n/32) thread_limit(256) nowait
  for (int i = 0; i < 64; i++) a[i] = i;
}
";
        let d = &directives(src)[0];
        assert!(d.clauses.iter().any(|c| matches!(c, Clause::NumTeams(_))));
        assert!(d
            .clauses
            .iter()
            .any(|c| matches!(c, Clause::ThreadLimit(_))));
        assert!(d.clauses.iter().any(|c| matches!(c, Clause::Nowait)));
    }

    #[test]
    fn unstructured_data_directives_are_standalone() {
        let src = "\
void f(double *a, int n) {
  #pragma omp target enter data map(to: a[0:n])
  #pragma omp target
  for (int i = 0; i < n; i++) a[i] += 1.0;
  #pragma omp target exit data map(from: a[0:n])
}
";
        let ds = directives(src);
        assert_eq!(ds.len(), 3);
        assert_eq!(ds[0].kind, DirectiveKind::TargetEnterData);
        assert!(ds[0].body.is_none());
        assert_eq!(ds[2].kind, DirectiveKind::TargetExitData);
        assert!(ds[2].body.is_none());
        assert!(ds[1].body.is_some());
    }

    #[test]
    fn reduction_with_min_max() {
        let src = "\
void f(double *a, int n) {
  double m = 0.0;
  #pragma omp target teams distribute parallel for reduction(max: m) map(to: a[0:n])
  for (int i = 0; i < n; i++) if (a[i] > m) m = a[i];
}
";
        let d = &directives(src)[0];
        assert!(d
            .clauses
            .iter()
            .any(|c| matches!(c, Clause::Reduction { op, .. } if op == "max")));
    }

    #[test]
    fn host_parallel_for_is_not_kernel() {
        let src = "\
void f(int n) {
  int a[100];
  #pragma omp parallel for schedule(static)
  for (int i = 0; i < n; i++) a[i] = i;
}
";
        let d = &directives(src)[0];
        assert_eq!(d.kind, DirectiveKind::ParallelFor);
        assert!(!d.kind.is_offload_kernel());
        assert!(d.clauses.iter().any(|c| matches!(c, Clause::Schedule(_))));
    }
}
