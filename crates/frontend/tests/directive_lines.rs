//! How a directive line is read: continuations, comments, strings and
//! inactive blocks around `#pragma` and `#define`. Each case is compared with
//! its plain one-line spelling through the public parser.

use ompdart_frontend::ast::{ExprKind, Init, StmtKind, Type};
use ompdart_frontend::parser::parse_str;
use ompdart_frontend::printer::expr_to_c;
use ompdart_frontend::{OmpDirective, Span};

/// The only OpenMP directive of `src`, its body detached, and the source's
/// diagnostics rendered.
fn the_directive(src: &str) -> (OmpDirective, Vec<String>) {
    let (file, result) = parse_str("d.c", src);
    let mut found = Vec::new();
    for f in result.unit.functions() {
        f.body.as_ref().unwrap().walk(&mut |s| {
            if let StmtKind::Omp(d) = &s.kind {
                found.push(OmpDirective {
                    body: None,
                    ..d.clone()
                });
            }
        });
    }
    assert_eq!(found.len(), 1, "{src:?}");
    let diagnostics = result.diagnostics.iter().map(|d| d.render(&file)).collect();
    (found.remove(0), diagnostics)
}

/// `format!("{:?}")` of `value` with every span (`[start..end)`) removed:
/// kind, clauses, map items, section expressions and node ids stay.
fn without_spans(value: &impl std::fmt::Debug) -> String {
    let debug = format!("{value:?}");
    let mut out = String::with_capacity(debug.len());
    let mut rest = debug.as_str();
    while let Some(open) = rest.find('[') {
        out.push_str(&rest[..open]);
        let tail = &rest[open + 1..];
        let digits = |s: &str| s.len() - s.trim_start_matches(|c: char| c.is_ascii_digit()).len();
        let a = digits(tail);
        let is_span = a > 0 && tail[a..].starts_with("..") && {
            let b = digits(&tail[a + 2..]);
            b > 0 && tail[a + 2 + b..].starts_with(')')
        };
        if is_span {
            let b = digits(&tail[a + 2..]);
            rest = &tail[a + 2 + b + 1..];
        } else {
            out.push('[');
            rest = tail;
        }
    }
    out.push_str(rest);
    out
}

fn kernel(pragma: &str) -> String {
    format!(
        "void f(double *a, int n) {{\n  {pragma}\n  for (int i = 0; i < n; i++) a[i] = i;\n}}\n"
    )
}

/// A `#pragma omp` line continued with `\` (LF or CRLF), or carrying a
/// trailing `//` or `/* */` comment, is the same directive as its one-line
/// spelling, and its span runs from the `#` to the newline that ends the
/// logical line (a CRLF line's `\r` included).
#[test]
fn a_continued_or_commented_pragma_is_the_same_directive_on_its_whole_line() {
    let plain = "#pragma omp target teams distribute parallel for map(tofrom: a[0:n]) \
                 firstprivate(n) num_teams(n / 32)";
    let (expected, diagnostics) = the_directive(&kernel(plain));
    assert!(diagnostics.is_empty(), "{diagnostics:?}");
    assert!(expected.kind.is_offload_kernel());
    assert_eq!(expected.clauses.len(), 3);
    for pragma in [
        "#pragma omp target teams \\\n    distribute parallel for map(tofrom: a[0:n]) \\\n    \
         firstprivate(n) num_teams(n / 32)",
        "#pragma omp target teams \\\r\n    distribute parallel for map(tofrom: a[0:n]) \\\r\n    \
         firstprivate(n) num_teams(n / 32)",
        "#pragma omp target teams distribute parallel for map(tofrom: a[0:n]) \
         firstprivate(n) num_teams(n / 32) // trailing comment",
        "#pragma omp target teams distribute parallel for map(tofrom: a[0:n]) \
         firstprivate(n) num_teams(n / 32) /* trailing comment */",
        "#pragma omp target teams /* inner */ distribute parallel for map(tofrom: a[0:n]) \
         firstprivate(n) num_teams(n / 32)",
        "#pragma omp target teams distribute parallel for \\\n    map(tofrom: a[0:n]) \
         firstprivate(n) num_teams(n / 32) // done \\\n    with a continued comment",
        "#pragma omp target teams distribute parallel for map(tofrom: a[0:n]) \
         firstprivate(n) num_teams(n / 32)\r",
        "  #  pragma   omp target teams distribute parallel for map(tofrom: a[0:n]) \
         firstprivate(n) num_teams(n / 32)   ",
    ] {
        let src = kernel(pragma);
        let (directive, diagnostics) = the_directive(&src);
        assert!(diagnostics.is_empty(), "{pragma:?}: {diagnostics:?}");
        assert_eq!(
            without_spans(&directive),
            without_spans(&expected),
            "{pragma:?}"
        );
        let start = src.find('#').unwrap() as u32;
        let end = src.find("\n  for").unwrap() as u32;
        assert_eq!(directive.pragma_span, Span::new(start, end), "{pragma:?}");
    }
}

/// A `#define` continued with `\` (LF or CRLF) is one macro, object-like or
/// function-like.
#[test]
fn a_continued_define_is_one_macro() {
    for newline in ["\n", "\r\n"] {
        let src = format!(
            "#define N \\{newline}  64\n#define IDX(i, j) \\{newline}  ((i) * N + (j))\n\
             double a[N];\nint f(int i) {{ return IDX(i, 1); }}\n"
        );
        let (_file, result) = parse_str("d.c", &src);
        assert!(result.diagnostics.is_empty(), "{:?}", result.diagnostics);
        assert_eq!(result.unit.int_constant("N"), Some(64));
        let f = result.unit.function("f").unwrap();
        let mut returned = None;
        f.body.as_ref().unwrap().walk(&mut |s| {
            if let StmtKind::Return(Some(e)) = &s.kind {
                returned = Some(expr_to_c(e));
            }
        });
        assert_eq!(returned.as_deref(), Some("((i) * 64 + (1))"));
        match &result.unit.global("a").unwrap().ty {
            Type::Array(_, Some(dim)) => assert_eq!(expr_to_c(dim), "64"),
            other => panic!("{other:?}"),
        }
    }
}

/// A pragma inside a block the preprocessor drops is not a directive; the
/// one in the kept branch is.
#[test]
fn a_pragma_in_an_inactive_block_is_dropped() {
    for (open, close) in [("#if 0", "#else"), ("#ifdef NOPE", "#elif 1")] {
        let src = format!(
            "void f(double *a, int n) {{\n{open}\n  #pragma omp target teams distribute \
             parallel for map(tofrom: a[0:n])\n{close}\n  #pragma omp target\n#endif\n  \
             for (int i = 0; i < n; i++) a[i] = i;\n}}\n"
        );
        let (directive, diagnostics) = the_directive(&src);
        assert!(diagnostics.is_empty(), "{open}: {diagnostics:?}");
        assert_eq!(directive.kind.directive_text(), "target", "{open}");
        assert!(directive.clauses.is_empty(), "{open}");
    }
}

/// An unterminated string in a pragma ends with the line and is not
/// reported: the clauses before it are read as written.
#[test]
fn an_unterminated_string_in_a_pragma_is_not_reported() {
    let (expected, _) = the_directive(&kernel("#pragma omp target map(tofrom: a[0:n])"));
    for pragma in [
        "#pragma omp target map(tofrom: a[0:n]) \"oops",
        "#pragma omp target map(tofrom: a[0:n]) 'x",
    ] {
        let (directive, diagnostics) = the_directive(&kernel(pragma));
        assert!(diagnostics.is_empty(), "{pragma:?}: {diagnostics:?}");
        assert_eq!(
            without_spans(&directive),
            without_spans(&expected),
            "{pragma:?}"
        );
    }
}

/// The initializer of global `name`, rendered.
fn initializer(src: &str, name: &str) -> String {
    let (_file, result) = parse_str("d.c", src);
    assert!(result.diagnostics.is_empty(), "{:?}", result.diagnostics);
    match &result.unit.global(name).unwrap().init {
        Some(Init::Expr(e)) => match &e.kind {
            ExprKind::StrLit(s) => format!("string {s:?}"),
            _ => expr_to_c(e),
        },
        other => panic!("{other:?}"),
    }
}

/// A trailing `//` comment ends a `#define`.
#[test]
fn a_line_comment_ends_a_define() {
    assert_eq!(initializer("#define N 3 // three\nint x = N;\n", "x"), "3");
    assert_eq!(
        initializer("#define N 3 // three \\\n + 1\nint x = N;\n", "x"),
        "3"
    );
}

/// `//` inside a string or a block comment on a directive line is not a
/// comment: the lexer reads the line's tokens, it does not cut its text at
/// the first `//`.
#[test]
fn a_line_comment_marker_inside_a_string_or_comment_does_not_end_a_directive() {
    assert_eq!(
        initializer(
            "#define URL \"http://example.org\" // site\nconst char *u = URL;\n",
            "u"
        ),
        "string \"http://example.org\""
    );
    assert_eq!(
        initializer("#define N 3 /* c // d */ + 1\nint x = N;\n", "x"),
        "3 + 1"
    );
    let (directive, diagnostics) = the_directive(&kernel(
        "#pragma omp target map(tofrom: a[0:n]) /* see http://x */ firstprivate(n)",
    ));
    assert!(diagnostics.is_empty(), "{diagnostics:?}");
    assert_eq!(directive.firstprivate_vars(), ["n"]);
}
