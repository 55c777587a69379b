//! Outlining: move statements of `main` into a function of their own.
//!
//! Every paper port is one `main` and nothing else, so the interprocedural
//! half of the analysis is scored by a single hand-written port
//! (`lulesh_mf`). Outlining makes it a metamorphic property instead: moving
//! a run of kernels (or any whole lines) out of `main` into a function — and
//! that function into another unit — changes nothing a program does, so it
//! must change nothing a mapping costs. [`outline_lines`] is the one
//! transformation; [`kernel_run_variants`] applies it to every interior
//! kernel run of a port, [`fully_outlined_lulesh`] puts every kernel of
//! `lulesh` behind a call (the known gap: calls do not anchor regions), and
//! the property tests apply it to generated programs.

use ompdart_frontend::ast::{NodeId, Stmt, StmtKind};
use ompdart_frontend::parser::parse_str;
use std::ops::Range;

/// `source` with its lines `run` (zero-based, whole lines inside `main`)
/// moved into a function `signature` — say `void phase(int *d)` — defined
/// right before `main`, and the line `call` — say `phase(data);` — left in
/// their place at the indentation of the first moved line. `rename` maps
/// identifiers of the moved text (a global reached through a pointer
/// parameter takes the parameter's name). Returns the function's definition
/// and what remains, separately: concatenated they are the outlined program
/// as one unit, apart they are its two units.
///
/// # Panics
///
/// Panics if `source` has no `int main(` line or `run` is not inside it.
pub fn outline_lines(
    source: &str,
    run: Range<usize>,
    signature: &str,
    call: &str,
    rename: &[(&str, &str)],
) -> (String, String) {
    let lines: Vec<&str> = source.split_inclusive('\n').collect();
    let main_at = (lines.iter())
        .position(|line| line.starts_with("int main("))
        .expect("the program defines `int main(`");
    assert!(main_at < run.start && run.end <= lines.len(), "{run:?}");
    let moved: String = lines[run.clone()].concat();
    let first = lines[run.start];
    let indent = &first[..first.len() - first.trim_start().len()];
    let function = format!("{signature} {{\n{}}}\n", renamed(&moved, rename));
    let mut rest: String = lines[..run.start].concat();
    rest.push_str(&format!("{indent}{call}\n"));
    rest.push_str(&lines[run.end..].concat());
    (function, rest)
}

/// `text` with every identifier that `rename` names replaced.
fn renamed(text: &str, rename: &[(&str, &str)]) -> String {
    let is_word = |c: char| c.is_ascii_alphanumeric() || c == '_';
    let mut out = String::with_capacity(text.len());
    let mut rest = text;
    while !rest.is_empty() {
        let word = rest.find(|c| !is_word(c)).unwrap_or(rest.len());
        let (token, tail) = match word {
            0 => rest.split_at(rest.chars().next().map_or(1, char::len_utf8)),
            _ => rest.split_at(word),
        };
        let to = rename.iter().find(|(from, _)| *from == token);
        out.push_str(to.map_or(token, |(_, to)| to));
        rest = tail;
    }
    out
}

/// One unit holding `function` (from [`outline_lines`]) ahead of `main`.
pub fn same_unit(function: &str, rest: &str) -> String {
    let main_at = rest.find("int main(").expect("`rest` holds `main`");
    format!("{}{function}{}", &rest[..main_at], &rest[main_at..])
}

/// Every `_fn` variant of a port that is one `main`: for every contiguous
/// run of its *interior* kernels — sibling kernel statements with nothing
/// between them, `main`'s first and last kernel excluded, so the region
/// `main` holds keeps its extent — the port with that run moved into
/// `void <port>_fn()`. Returns `(variant name, source)`, the name spelling
/// the run as `<port>_fn_<first>_<last>` by kernel number (from 1).
pub fn kernel_run_variants(port: &str, source: &str) -> Vec<(String, String)> {
    let (file, parsed) = parse_str(port, source);
    assert!(parsed.is_ok(), "{port} does not parse");
    let main = parsed.unit.function("main").expect("a port defines `main`");
    let body = main.body.as_ref().expect("`main` has a body");
    let is_kernel = |s: &Stmt| match &s.kind {
        StmtKind::Omp(dir) => dir.kind.is_offload_kernel(),
        _ => false,
    };
    let mut kernels: Vec<NodeId> = Vec::new();
    body.walk(&mut |s| kernels.extend(is_kernel(s).then_some(s.id)));
    let number = |id: NodeId| kernels.iter().position(|k| *k == id).unwrap_or(0) + 1;
    let interior = |s: &Stmt| is_kernel(s) && (2..kernels.len()).contains(&number(s.id));
    let line_of = |pos: u32| source[..pos as usize].matches('\n').count();

    let mut variants = Vec::new();
    body.walk(&mut |s| {
        let StmtKind::Compound(items) = &s.kind else {
            return;
        };
        for run in items.split(|item| !interior(item)) {
            for (i, first) in run.iter().enumerate() {
                for last in &run[i..] {
                    let start = line_of(file.line_start_of(first.span.start));
                    let end = line_of(file.line_end_of(last.span.end.saturating_sub(1))) + 1;
                    let name = format!("{port}_fn_{}_{}", number(first.id), number(last.id));
                    let signature = format!("void {port}_fn()");
                    let call = format!("{port}_fn();");
                    let (function, rest) =
                        outline_lines(source, start..end, &signature, &call, &[]);
                    variants.push((name, same_unit(&function, &rest)));
                }
            }
        }
    });
    variants
}

/// `lulesh` with every kernel behind a call: four functions hold the
/// fifteen kernels (forces 1-4, motion 5-8, material 9-14, time step 15)
/// and `main` is left with no kernel of its own.
pub fn fully_outlined_lulesh() -> String {
    let lulesh = crate::benchmarks::by_name("lulesh").expect("lulesh");
    let mut source = lulesh.unoptimized.to_string();
    // Back to front, so the kernel lines ahead keep their numbers.
    let phases = [
        ("time_step", 15, 15),
        ("material", 9, 14),
        ("motion", 5, 8),
        ("forces", 1, 4),
    ];
    for (name, first, last) in phases {
        // `main`'s kernels: the functions outlined so far sit ahead of it.
        let pragmas: Vec<usize> = (source.lines().enumerate())
            .skip_while(|(_, line)| !line.starts_with("int main("))
            .filter(|(_, line)| line.trim_start().starts_with("#pragma omp target"))
            .map(|(at, _)| at)
            .collect();
        let start = pragmas[first - 1];
        // A kernel is its pragma line and the `for` statement after it, up
        // to the line that closes the loop at the pragma's indentation.
        let indent = source.lines().nth(pragmas[last - 1]).unwrap();
        let indent = &indent[..indent.len() - indent.trim_start().len()];
        let close = format!("{indent}}}");
        let end = (source.lines().enumerate())
            .skip(pragmas[last - 1])
            .find(|(_, line)| *line == close)
            .map(|(at, _)| at + 1)
            .expect("the kernel's loop closes");
        let (function, rest) = outline_lines(
            &source,
            start..end,
            &format!("void {name}()"),
            &format!("{name}();"),
            &[],
        );
        source = same_unit(&function, &rest);
    }
    source
}

#[cfg(test)]
mod tests {
    use super::*;

    const PROGRAM: &str = "\
#define N 8
int data[N];
int main() {
  for (int i = 0; i < N; i++) data[i] = i;
  #pragma omp target teams distribute parallel for
  for (int i = 0; i < N; i++) data[i] += 1;
  #pragma omp target teams distribute parallel for
  for (int i = 0; i < N; i++) data[i] *= 2;
  #pragma omp target teams distribute parallel for
  for (int i = 0; i < N; i++) data[i] += 3;
  printf(\"%d\\n\", data[1]);
  return 0;
}
";

    #[test]
    fn a_run_of_lines_moves_into_a_function_and_renames_what_it_is_told_to() {
        let (function, rest) = outline_lines(
            PROGRAM,
            6..8,
            "void phase(int *d)",
            "phase(data);",
            &[("data", "d")],
        );
        assert_eq!(
            function,
            "void phase(int *d) {\n  #pragma omp target teams distribute parallel for\n  \
             for (int i = 0; i < N; i++) d[i] *= 2;\n}\n"
        );
        assert!(rest.contains("data[i] += 1;\n  phase(data);\n  #pragma omp target"));
        let unit = same_unit(&function, &rest);
        assert!(unit.contains("}\nint main() {"));
        assert_eq!(unit.len(), function.len() + rest.len());
    }

    #[test]
    fn only_interior_kernel_runs_become_variants() {
        let variants = kernel_run_variants("demo", PROGRAM);
        let names: Vec<&str> = variants.iter().map(|(name, _)| name.as_str()).collect();
        assert_eq!(names, ["demo_fn_2_2"]);
        assert!(variants[0]
            .1
            .contains("void demo_fn() {\n  #pragma omp target"));
        assert!(variants[0].1.contains("data[i] += 1;\n  demo_fn();\n"));
        // Every port this is meant for has interior runs to offer.
        for (port, count) in [("lulesh", 91), ("ace", 10)] {
            let bench = crate::benchmarks::by_name(port).unwrap();
            assert_eq!(kernel_run_variants(port, bench.unoptimized).len(), count);
        }
    }

    /// The known gap: only kernels anchor a region, so with every kernel of
    /// `lulesh` behind a call `main` holds none and each call maps its own
    /// data. ROADMAP item 1 brings the mapping down to what `lulesh` itself
    /// moves (<= 73 600 B in 23 calls) and must lower this pin when it does.
    #[test]
    fn fully_outlined_lulesh_pins_the_calls_do_not_anchor_regions_gap() {
        use ompdart_sim::{simulate_source, SimConfig};
        let source = fully_outlined_lulesh();
        let unmapped = simulate_source(&source, SimConfig::default()).unwrap();
        let units = [("lulesh_outlined.c".to_string(), source)];
        let mapped = crate::experiment::map_and_simulate(&ompdart_core::Ompdart::new(), &units)
            .unwrap()
            .run;
        assert_eq!(mapped.output, unmapped.output);
        let cost =
            |profile: &ompdart_sim::TransferProfile| (profile.total_bytes(), profile.total_calls());
        assert_eq!(cost(&unmapped.profile), (2_304_000, 720));
        assert_eq!(cost(&mapped.profile), (921_600, 288));
    }
}
