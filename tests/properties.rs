//! Property-based tests over the whole pipeline.
//!
//! Random (but well-formed) MiniC offload programs are generated from a
//! small grammar and pushed through parser, analysis, rewriting and the
//! offload simulator. The key invariants:
//!
//! * the transformed program still parses,
//! * OMPDart never changes program output (no stale-data bugs introduced),
//! * OMPDart never increases the number of bytes moved,
//! * the reference-count semantics of the device data environment hold for
//!   arbitrary nesting sequences.

use ompdart_core::pipeline::Stage;
use ompdart_core::plan::{
    FirstPrivateSpec, MapSpec, MappingPlan, Placement, Provenance, ProvenanceFact, UpdateDirection,
    UpdateSpec,
};
use ompdart_core::Ompdart;
use ompdart_frontend::ast::NodeId;
use ompdart_frontend::omp::MapType;
use ompdart_frontend::parser::parse_str;
use ompdart_frontend::source::Span;
use ompdart_sim::{
    simulate_source, DeviceEnv, Memory, ObjectKind, Section, SimConfig, TransferProfile, Value,
};
use proptest::prelude::*;

/// A small statement menu used to build random host/device interleavings
/// around two global arrays. The first field of a piece says which of the
/// two it works on (0 `data`, 1 `aux`).
#[derive(Clone, Debug)]
enum Piece {
    HostInit(u8, u8),
    HostAccumulate(u8),
    KernelAdd(u8, u8),
    KernelScale(u8, u8),
    KernelInLoop {
        array: u8,
        iters: u8,
        add: u8,
    },
    /// A kernel that overwrites the *other* array from this one.
    KernelCopy(u8),
    HostPrint(u8),
}

fn piece_strategy() -> impl Strategy<Value = Piece> {
    prop_oneof![
        ((0u8..2), (0u8..5)).prop_map(|(array, v)| Piece::HostInit(array, v)),
        (0u8..2).prop_map(Piece::HostAccumulate),
        ((0u8..2), (1u8..4)).prop_map(|(array, v)| Piece::KernelAdd(array, v)),
        ((0u8..2), (1u8..3)).prop_map(|(array, v)| Piece::KernelScale(array, v)),
        ((0u8..2), (2u8..5), (1u8..3)).prop_map(|(array, iters, add)| Piece::KernelInLoop {
            array,
            iters,
            add
        }),
        (0u8..2).prop_map(Piece::KernelCopy),
        (0u8..2).prop_map(Piece::HostPrint),
    ]
}

const ARRAYS: [&str; 2] = ["data", "aux"];
const KERNEL: &str = "#pragma omp target teams distribute parallel for";

impl Piece {
    /// The piece as whole lines of `main`.
    fn render(&self) -> String {
        let name = |array: &u8| ARRAYS[usize::from(*array)];
        match self {
            Piece::HostInit(a, v) => {
                format!(
                    "  for (int i = 0; i < N; i++) {}[i] = {v} + i % 3;\n",
                    name(a)
                )
            }
            Piece::HostAccumulate(a) => {
                format!(
                    "  for (int i = 0; i < N; i++) checksum += {}[i];\n",
                    name(a)
                )
            }
            Piece::KernelAdd(a, v) => {
                format!(
                    "  {KERNEL}\n  for (int i = 0; i < N; i++) {}[i] += {v};\n",
                    name(a)
                )
            }
            Piece::KernelScale(a, v) => {
                let a = name(a);
                format!("  {KERNEL}\n  for (int i = 0; i < N; i++) {a}[i] = {a}[i] * {v} + 1;\n")
            }
            Piece::KernelInLoop { array, iters, add } => format!(
                "  for (int it = 0; it < {iters}; it++) {{\n    {KERNEL}\n    \
                 for (int i = 0; i < N; i++) {}[i] += {add};\n  }}\n",
                name(array)
            ),
            Piece::KernelCopy(a) => format!(
                "  {KERNEL}\n  for (int i = 0; i < N; i++) {}[i] = {}[i] + 1;\n",
                name(&(1 - a)),
                name(a)
            ),
            Piece::HostPrint(a) => {
                format!("  printf(\"probe %d\\n\", {}[7] + checksum);\n", name(a))
            }
        }
    }

    fn has_kernel(&self) -> bool {
        !matches!(
            self,
            Piece::HostInit(..) | Piece::HostAccumulate(_) | Piece::HostPrint(_)
        )
    }
}

/// What every generated program starts with, up to and including the first
/// line of `main`'s body: a guarded header (so a program split into units
/// concatenates back into one), the globals, and `prototype` for the
/// function an outlined program calls.
fn program_prologue(prototype: &str) -> String {
    format!(
        "#ifndef PIECES_H\n#define PIECES_H\n#define N 48\nextern int data[N];\n\
         extern int aux[N];\nextern int checksum;\n{prototype}#endif\n\
         int data[N];\nint aux[N];\nint checksum;\nint main() {{\n  checksum = 0;\n"
    )
}

/// Render a random program. It always contains at least one kernel so the
/// tool has something to do, and always prints a final checksum.
fn render_program(pieces: &[Piece]) -> String {
    let body: String = pieces.iter().map(Piece::render).collect();
    format!(
        "{}{body}  {KERNEL}\n  for (int i = 0; i < N; i++) data[i] += 1;\n  \
         for (int i = 0; i < N; i++) checksum += data[i];\n  \
         printf(\"final %d\\n\", checksum);\n  return 0;\n}}\n",
        program_prologue("")
    )
}

// ---------------------------------------------------------------------------
// Generators for arbitrary (well-formed) MappingPlans
// ---------------------------------------------------------------------------

fn var_name(i: u8) -> String {
    format!("v{i}")
}

fn provenance_strategy() -> impl Strategy<Value = Provenance> {
    (
        0usize..Stage::ALL.len(),
        0usize..ProvenanceFact::all().len(),
        // 0 = no span; otherwise a span at (n, n + 7).
        0u32..100,
        0u8..4,
    )
        .prop_map(|(stage, fact, span_start, detail)| Provenance {
            stage: Stage::ALL[stage],
            fact: ProvenanceFact::all()[fact],
            span: if span_start == 0 {
                None
            } else {
                Some(Span::new(span_start, span_start + 7))
            },
            detail: match detail {
                0 => String::new(),
                1 => "plain detail".to_string(),
                2 => "quotes \" and \\ backslashes\nand newlines".to_string(),
                _ => "unicode: π ≈ 3, done".to_string(),
            },
        })
}

fn section_strategy() -> impl Strategy<Value = Option<String>> {
    (0u8..4).prop_map(|v| match v {
        0 => None,
        1 => Some("n".to_string()),
        2 => Some("rows * cols".to_string()),
        _ => Some("0".to_string()), // degenerate bound: renders as `[:]`
    })
}

fn map_spec_strategy() -> impl Strategy<Value = MapSpec> {
    (
        (0u8..8),
        (0u8..4),
        section_strategy(),
        provenance_strategy(),
    )
        .prop_map(|(var, mt, section_length, provenance)| MapSpec {
            var: var_name(var),
            map_type: match mt {
                0 => MapType::To,
                1 => MapType::From,
                2 => MapType::ToFrom,
                _ => MapType::Alloc,
            },
            section_length,
            provenance,
        })
}

fn update_spec_strategy() -> impl Strategy<Value = UpdateSpec> {
    ((0u8..8), (0u32..64), (0u8..4), provenance_strategy()).prop_map(
        |(var, anchor, bits, provenance)| UpdateSpec {
            var: var_name(var),
            direction: if bits & 1 == 0 {
                UpdateDirection::To
            } else {
                UpdateDirection::From
            },
            anchor: NodeId(anchor),
            placement: if bits & 2 == 0 {
                Placement::Before
            } else {
                Placement::After
            },
            section_length: None,
            provenance,
        },
    )
}

fn firstprivate_strategy() -> impl Strategy<Value = FirstPrivateSpec> {
    ((0u8..8), (0u32..64), provenance_strategy()).prop_map(|(var, kernel, provenance)| {
        FirstPrivateSpec {
            kernel: NodeId(kernel),
            var: var_name(var),
            provenance,
        }
    })
}

fn plan_strategy() -> impl Strategy<Value = MappingPlan> {
    (
        proptest::collection::vec(map_spec_strategy(), 0..5),
        proptest::collection::vec(update_spec_strategy(), 0..5),
        proptest::collection::vec(firstprivate_strategy(), 0..4),
        (0u32..3, 0u32..200),
    )
        .prop_map(|(maps, updates, firstprivate, (shape, base))| MappingPlan {
            function: format!("fn_{base}"),
            region_start: if shape == 0 { None } else { Some(NodeId(base)) },
            region_end: if shape == 0 {
                None
            } else {
                Some(NodeId(base + 9))
            },
            attach_to_kernel: if shape == 2 {
                Some(NodeId(base + 1))
            } else {
                None
            },
            kernels: (0..shape).map(|k| NodeId(base + k)).collect(),
            maps,
            updates,
            firstprivate,
        })
}

/// True when `needle` is a (byte-)subsequence of `haystack`: the pure
/// insertion invariant of the rewriter — everything of the original text
/// survives, in order.
fn is_subsequence(needle: &[u8], haystack: &[u8]) -> bool {
    let mut it = haystack.iter();
    needle.iter().all(|b| it.any(|h| h == b))
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, .. ProptestConfig::default() })]

    /// Rewriting generated sources — including ones carrying multibyte
    /// UTF-8 in comments before and between the target loops — never
    /// panics, and because the rewriter only ever *inserts*, the original
    /// text is always a subsequence of the output.
    #[test]
    fn rewriting_is_pure_insertion_and_never_panics(
        pieces in proptest::collection::vec(piece_strategy(), 1..6),
        decor in 0u8..8,
    ) {
        let mut src = render_program(&pieces);
        // Sprinkle non-ASCII comments into the environment and the body:
        // every span downstream of one is displaced by non-char-boundary
        // byte offsets.
        if decor & 1 != 0 {
            src = format!("// café ≤ ∞ λ — entête\n{src}");
        }
        if decor & 2 != 0 {
            src = src.replacen("checksum = 0;", "checksum = 0; // ∑ ≥ 0 ✓", 1);
        }
        if decor & 4 != 0 {
            src = src.replacen("#define N 48", "#define N 48 // größe", 1);
        }
        let analysis = match Ompdart::builder().build().analyze("utf8.c", &src) {
            Ok(a) => a,
            Err(e) => return Err(TestCaseError::fail(format!("analysis failed: {e}\n{src}"))),
        };
        let out = analysis.rewritten_source();
        prop_assert!(
            is_subsequence(src.as_bytes(), out.as_bytes()),
            "rewrite dropped or reordered original text\noriginal:\n{src}\noutput:\n{out}"
        );
        prop_assert!(std::str::from_utf8(out.as_bytes()).is_ok());
        let (_f, reparsed) = parse_str("utf8_out.c", out);
        prop_assert!(reparsed.is_ok(), "transformed program failed to parse:\n{out}");
    }

    /// Incremental re-analysis after an arbitrary one-function edit agrees
    /// byte for byte with a cold analysis of the edited source.
    #[test]
    fn incremental_reanalysis_agrees_with_cold(
        pieces in proptest::collection::vec(piece_strategy(), 1..5),
        extra in 1u8..4,
    ) {
        let src = render_program(&pieces);
        let tool = Ompdart::new();
        if tool.analyze("inc.c", &src).is_err() {
            return Err(TestCaseError::reject("base program failed to analyze"));
        }
        // Edit main's body by appending more kernel work.
        let edited = src.replacen(
            "  #pragma omp target teams distribute parallel for\n",
            &format!(
                "  for (int e = 0; e < {extra}; e++) data[e] += {extra};\n  #pragma omp target teams distribute parallel for\n"
            ),
            1,
        );
        prop_assert!(edited != src);
        let incremental = match tool.analyze("inc.c", &edited) {
            Ok(a) => a,
            Err(e) => return Err(TestCaseError::fail(format!("incremental analysis failed: {e}\n{edited}"))),
        };
        let fresh = Ompdart::new().analyze("inc.c", &edited).unwrap();
        prop_assert_eq!(&fresh.rewrite.source, &incremental.rewrite.source);
        prop_assert_eq!(&fresh.plans.plans, &incremental.plans.plans);
    }

    /// A tool built with `lifetimes(true)` (a builder method kept for the
    /// benchmark harness that ignores its argument) plans and rewrites
    /// exactly what the default tool does, writes no `target enter data`,
    /// keeps the host-visible output byte-identical and never moves more
    /// data than the implicit mappings.
    #[test]
    fn lifetimes_mode_preserves_semantics(pieces in proptest::collection::vec(piece_strategy(), 1..6)) {
        let src = render_program(&pieces);
        let analysis = match Ompdart::builder().lifetimes(true).build().analyze("lt.c", &src) {
            Ok(a) => a,
            Err(e) => return Err(TestCaseError::fail(format!("lifetimes analysis failed: {e}\n{src}"))),
        };
        let transformed = analysis.rewritten_source();
        let (_f, reparsed) = parse_str("lt_out.c", transformed);
        prop_assert!(reparsed.is_ok(), "transformed program failed to parse:\n{transformed}");
        prop_assert!(analysis.plans().iter().all(|p| p.fully_justified()),
            "unjustified construct in plans for:\n{src}");
        let default = Ompdart::builder().build().analyze("lt.c", &src).unwrap();
        prop_assert_eq!(default.rewritten_source(), transformed);
        prop_assert_eq!(default.plans(), analysis.plans());
        prop_assert!(!transformed.contains("target enter data"),
            "the one spelling is structured:\n{transformed}");
        let before = simulate_source(&src, SimConfig::default()).expect("baseline failed");
        let after = simulate_source(transformed, SimConfig::default())
            .expect("lifetimes program failed");
        prop_assert_eq!(&before.output, &after.output,
            "lifetimes tool changed output\noriginal:\n{src}\ntransformed:\n{transformed}");
        prop_assert!(after.profile.total_bytes() <= before.profile.total_bytes(),
            "lifetimes tool increased data movement ({} -> {})\n{transformed}",
            before.profile.total_bytes(), after.profile.total_bytes());
    }

    /// With a tool built through `lifetimes(true)`, incremental
    /// re-analysis after a one-function edit agrees byte for byte —
    /// rewrite and full plan set — with a cold analysis of the edited
    /// source by the default tool.
    #[test]
    fn lifetimes_incremental_agrees_with_cold(
        pieces in proptest::collection::vec(piece_strategy(), 1..5),
        extra in 1u8..4,
    ) {
        let src = render_program(&pieces);
        let tool = Ompdart::builder().lifetimes(true).build();
        if tool.analyze("lt_inc.c", &src).is_err() {
            return Err(TestCaseError::reject("base program failed to analyze"));
        }
        let edited = src.replacen(
            "  #pragma omp target teams distribute parallel for\n",
            &format!(
                "  for (int e = 0; e < {extra}; e++) data[e] += {extra};\n  #pragma omp target teams distribute parallel for\n"
            ),
            1,
        );
        prop_assert!(edited != src);
        let incremental = match tool.analyze("lt_inc.c", &edited) {
            Ok(a) => a,
            Err(e) => return Err(TestCaseError::fail(format!("incremental lifetimes analysis failed: {e}\n{edited}"))),
        };
        let fresh = Ompdart::new().analyze("lt_inc.c", &edited).unwrap();
        prop_assert_eq!(&fresh.rewrite.source, &incremental.rewrite.source);
        prop_assert_eq!(&fresh.plans.plans, &incremental.plans.plans);
    }

    /// The versioned JSON serialization is the identity under round-trip
    /// for arbitrary generated plans: `plans_from_json(plans_to_json(p))
    /// == p`, both for a document of one plan and for whole documents.
    #[test]
    fn plan_json_round_trip_is_identity(plans in proptest::collection::vec(plan_strategy(), 1..4)) {
        for plan in &plans {
            let json = ompdart_core::plans_to_json(std::slice::from_ref(plan));
            let back = match ompdart_core::plans_from_json(&json) {
                Ok(p) => p,
                Err(e) => return Err(TestCaseError::fail(format!("from_json failed: {e}\n{json}"))),
            };
            prop_assert_eq!(&back[..], std::slice::from_ref(plan), "single-plan round trip diverged:\n{}", json);
            // Serialization is deterministic: a second trip is stable.
            prop_assert_eq!(ompdart_core::plans_to_json(&back), json);
        }
        let doc = ompdart_core::plans_to_json(&plans);
        let back = match ompdart_core::plans_from_json(&doc) {
            Ok(p) => p,
            Err(e) => return Err(TestCaseError::fail(format!("document parse failed: {e}\n{doc}"))),
        };
        prop_assert_eq!(back, plans, "document round trip diverged");
    }

    /// Transformation preserves semantics and never moves more data.
    #[test]
    fn transformation_preserves_semantics(pieces in proptest::collection::vec(piece_strategy(), 1..6)) {
        let src = render_program(&pieces);
        let (_file, parsed) = parse_str("random.c", &src);
        prop_assert!(parsed.is_ok(), "generated program failed to parse:\n{src}");

        let analysis = match Ompdart::builder().build().analyze("random.c", &src) {
            Ok(a) => a,
            Err(e) => return Err(TestCaseError::fail(format!("analysis failed: {e}\n{src}"))),
        };
        let transformed = analysis.rewritten_source();

        // The transformed source must still be a valid program.
        let (_f2, reparsed) = parse_str("random_out.c", transformed);
        prop_assert!(reparsed.is_ok(), "transformed program failed to parse:\n{transformed}");

        // Every construct must justify itself (the IR acceptance bar).
        prop_assert!(analysis.plans().iter().all(|p| p.fully_justified()),
            "unjustified construct in plans for:\n{src}");

        let before = simulate_source(&src, SimConfig::default()).expect("baseline failed");
        let after = simulate_source(transformed, SimConfig::default())
            .expect("transformed program failed");
        prop_assert_eq!(&before.output, &after.output,
            "output changed\noriginal:\n{src}\ntransformed:\n{transformed}");
        prop_assert!(after.profile.total_bytes() <= before.profile.total_bytes(),
            "transformation increased data movement ({} -> {})\n{transformed}",
            before.profile.total_bytes(), after.profile.total_bytes());
        prop_assert!(after.profile.total_calls() <= before.profile.total_calls());
    }

    /// Device data-environment reference counting: for an arbitrary sequence
    /// of nested map types, data is copied to the device only on the 0->1
    /// transition and back only on the 1->0 transition, and presence ends
    /// balanced.
    #[test]
    fn device_env_reference_counting(map_types in proptest::collection::vec(0u8..4, 1..8)) {
        let to_type = |v: u8| match v {
            0 => MapType::To,
            1 => MapType::From,
            2 => MapType::ToFrom,
            _ => MapType::Alloc,
        };
        let mut mem = Memory::new();
        let obj = mem.alloc("a", ObjectKind::Array { dims: vec![16] }, 8, true);
        for i in 0..16 {
            mem.write(obj, i, Value::Double(i as f64));
        }
        let mut dev = DeviceEnv::new();
        let mut profile = TransferProfile::default();
        let kinds: Vec<MapType> = map_types.iter().map(|v| to_type(*v)).collect();
        let whole = Section::whole(mem.object(obj));

        // Enter all mappings (nested), then exit in reverse order.
        for mt in &kinds {
            dev.map_enter(&mem, obj, *mt, whole, &mut profile);
        }
        prop_assert_eq!(dev.ref_count(obj), kinds.len() as u32);
        // At most one HtoD copy can have happened, and only if the OUTERMOST
        // mapping requests it.
        let expected_htod = u64::from(kinds[0].copies_to_device());
        prop_assert_eq!(profile.htod_calls, expected_htod);

        for mt in kinds.iter().rev() {
            dev.map_exit(&mut mem, obj, *mt, whole, &mut profile);
        }
        prop_assert!(!dev.is_present(obj), "object must be released after balanced exits");
        // At most one DtoH copy, and only if the outermost mapping requests it.
        let expected_dtoh = u64::from(kinds[0].copies_to_host());
        prop_assert_eq!(profile.dtoh_calls, expected_dtoh);
    }

    /// The frontend round-trips arbitrary integer expressions built from a
    /// constrained grammar: parse(print(parse(e))) == parse(e) semantically
    /// (same constant value).
    #[test]
    fn expression_constant_folding_is_stable(a in 0i64..100, b in 1i64..50, c in 0i64..20) {
        let src = format!("int main() {{ return ({a} + {b} * {c}) - ({a} / {b}) + ({c} << 1); }}\n");
        let expected = (a + b * c) - (a / b) + (c << 1);
        let out = simulate_source(&src, SimConfig::default()).expect("run failed");
        prop_assert_eq!(out.exit_code, expected);
    }
}

// ---------------------------------------------------------------------------
// Whole-program link stage: arbitrary splits agree with the concatenation
// ---------------------------------------------------------------------------

/// What one generated helper function does; every variant touches globals
/// (and possibly calls an earlier helper) so splits produce real cross-unit
/// summary and liveness dependencies.
#[derive(Clone, Copy, Debug)]
enum HelperKind {
    HostFill(u8),
    KernelAdd(u8),
    KernelScale(u8),
    HostSum,
}

fn helper_kind_strategy() -> impl Strategy<Value = HelperKind> {
    prop_oneof![
        (0u8..4).prop_map(HelperKind::HostFill),
        (1u8..4).prop_map(HelperKind::KernelAdd),
        (1u8..3).prop_map(HelperKind::KernelScale),
        Just(HelperKind::HostSum),
    ]
}

/// The guarded shared header every generated unit carries: the split
/// concatenation stays a well-formed single translation unit.
fn program_header(helper_count: usize) -> String {
    let mut h = String::from(
        "#ifndef GEN_H\n#define GEN_H\n#define N 40\nextern double field[N];\nextern double acc;\n",
    );
    for i in 0..helper_count {
        h.push_str(&format!("void h{i}();\n"));
    }
    h.push_str("#endif\n");
    h
}

/// Render helper `i`. `call_prev` additionally calls `h{i-1}`, creating
/// call chains that cross unit boundaries under most splits.
fn render_helper(i: usize, kind: HelperKind, call_prev: bool) -> String {
    let mut body = String::new();
    match kind {
        HelperKind::HostFill(v) => {
            body.push_str(&format!(
                "  for (int i = 0; i < N; i++) field[i] = {v} + i % 5;\n"
            ));
        }
        HelperKind::KernelAdd(v) => {
            body.push_str(&format!(
                "  #pragma omp target teams distribute parallel for\n  for (int i = 0; i < N; i++) field[i] += {v};\n"
            ));
        }
        HelperKind::KernelScale(v) => {
            body.push_str(&format!(
                "  #pragma omp target teams distribute parallel for\n  for (int i = 0; i < N; i++) field[i] = field[i] * {v} + 1.0;\n"
            ));
        }
        HelperKind::HostSum => {
            body.push_str("  for (int i = 0; i < N; i++) acc = acc + field[i];\n");
        }
    }
    if call_prev && i > 0 {
        body.push_str(&format!("  h{}();\n", i - 1));
    }
    format!("void h{i}() {{\n{body}}}\n")
}

/// Split the generated functions into `k` units at positions driven by
/// `cuts`; each unit carries the shared header, the globals live in the
/// first unit, `main` in the last.
fn split_units(
    header: &str,
    functions: &[String],
    cuts: u64,
    units_wanted: usize,
) -> Vec<(String, String)> {
    let n = functions.len();
    let k = units_wanted.clamp(1, n);
    // Assign each function to a unit: a monotone map derived from `cuts`.
    let mut assignment = Vec::with_capacity(n);
    let mut unit = 0usize;
    for (i, _) in functions.iter().enumerate() {
        let remaining_funcs = n - i;
        let remaining_units = k - unit - 1;
        let advance =
            remaining_units > 0 && (remaining_funcs <= remaining_units || (cuts >> i) & 1 == 1);
        assignment.push(unit);
        if advance {
            unit += 1;
        }
    }
    let used = assignment.last().copied().unwrap_or(0) + 1;
    let mut out: Vec<(String, String)> = (0..used)
        .map(|u| {
            let mut text = header.to_string();
            if u == 0 {
                text.push_str("double field[N];\ndouble acc;\n");
            }
            (format!("gen_unit{u}.c"), text)
        })
        .collect();
    for (func, unit) in functions.iter().zip(&assignment) {
        out[*unit].1.push_str(func);
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, .. ProptestConfig::default() })]

    /// For any split of a generated multi-function program into k units,
    /// linked whole-program analysis rewrites byte-identically to a
    /// single-unit analysis of the concatenated unit sources — and no
    /// intra-program call ever falls back to the pessimistic assumption.
    #[test]
    fn any_program_split_agrees_with_concatenation(
        kinds in proptest::collection::vec(helper_kind_strategy(), 2..6),
        call_mask in 0u64..256,
        cuts in 0u64..256,
        units_wanted in 1usize..4,
    ) {
        let helper_count = kinds.len();
        let header = program_header(helper_count);
        let mut functions: Vec<String> = kinds
            .iter()
            .enumerate()
            .map(|(i, kind)| render_helper(i, *kind, (call_mask >> i) & 1 == 1))
            .collect();
        let mut main_body = String::new();
        for i in 0..helper_count {
            main_body.push_str(&format!("  h{i}();\n"));
        }
        functions.push(format!(
            "int main() {{\n{main_body}  printf(\"%f %f\\n\", acc, field[3]);\n  return 0;\n}}\n"
        ));

        let units = split_units(&header, &functions, cuts, units_wanted);
        let concat: String = units.iter().map(|(_, s)| s.as_str()).collect();

        let program = match ompdart_core::ProgramDriver::new().analyze_program(&units) {
            Ok(p) => p,
            Err(e) => return Err(TestCaseError::fail(format!("link failed: {e}\n{concat}"))),
        };
        let cold = match Ompdart::new().analyze("gen_concat.c", &concat) {
            Ok(a) => a,
            Err(e) => return Err(TestCaseError::fail(format!("concat analysis failed: {e}\n{concat}"))),
        };
        let linked: String = program.units.iter().map(|u| u.rewrite.source.as_str()).collect();
        prop_assert_eq!(
            &linked, &cold.rewrite.source,
            "linked != concatenated for split {:?}\n{}", cuts, concat
        );
        prop_assert_eq!(program.stats().unknown_callee_fallbacks, 0);
    }
}

// ---------------------------------------------------------------------------
// SCC-parallel link fixed point: arbitrary call graphs agree everywhere
// ---------------------------------------------------------------------------

/// The guarded header for the arbitrary-call-graph generator.
fn graph_header(n: usize) -> String {
    let mut h =
        String::from("#ifndef SCCGEN_H\n#define SCCGEN_H\n#define N 40\nextern double field[N];\n");
    for i in 0..n {
        h.push_str(&format!("void g{i}();\n"));
    }
    h.push_str("#endif\n");
    h
}

/// Render graph function `i`: it always touches the shared global (so
/// summaries are non-trivial), optionally launches a kernel, and calls
/// every `j` whose bit is set in row `i` of the edge mask — including
/// self-loops, back edges, and mutual recursion, so the condensation has
/// genuinely cyclic components.
fn render_graph_fn(i: usize, n: usize, edges: u64, kernel: bool) -> String {
    let mut body = format!("  field[{}] += 1.0;\n", i % 40);
    if kernel {
        body.push_str(
            "  #pragma omp target teams distribute parallel for\n  for (int i = 0; i < N; i++) field[i] += 1.0;\n",
        );
    }
    for j in 0..n {
        if (edges >> (i * n + j)) & 1 == 1 {
            body.push_str(&format!("  if (field[{i}] > 100.0) {{ g{j}(); }}\n"));
        }
    }
    format!("void g{i}() {{\n{body}}}\n")
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, .. ProptestConfig::default() })]

    /// For an arbitrary call graph — cycles, mutual recursion, and
    /// unit-private `static` helpers included — split across units:
    ///
    /// * the SCC-wavefront merged fixed point is identical to the sequential
    ///   reference sweep (at any worker count), exposed reads, exit-current
    ///   sides and the recursive components' conservative corner included,
    /// * the linked whole-program rewrite is byte-identical to analyzing
    ///   the concatenated single translation unit,
    /// * no intra-program call falls back to the pessimistic assumption.
    #[test]
    fn scc_parallel_link_matches_sequential_and_concatenation(
        n in 3usize..8,
        edges in 0u64..u64::MAX,
        kernels in 0u64..256,
        cuts in 0u64..256,
        units_wanted in 2usize..4,
    ) {
        let header = graph_header(n);
        let functions: Vec<String> = (0..n)
            .map(|i| render_graph_fn(i, n, edges, (kernels >> i) & 1 == 1))
            .collect();

        // Assign the graph functions to units (monotone split from `cuts`).
        let k = units_wanted.clamp(1, n);
        let mut assignment = Vec::with_capacity(n);
        let mut unit = 0usize;
        for i in 0..n {
            let remaining_funcs = n - i;
            let remaining_units = k - unit - 1;
            let advance = remaining_units > 0
                && (remaining_funcs <= remaining_units || (cuts >> i) & 1 == 1);
            assignment.push(unit);
            if advance {
                unit += 1;
            }
        }
        let used = assignment.last().copied().unwrap_or(0) + 1;
        let mut units: Vec<(String, String)> = (0..used)
            .map(|u| {
                let mut text = header.clone();
                if u == 0 {
                    text.push_str("double field[N];\n");
                }
                // A unit-private `static` helper plus its in-unit caller:
                // the mangled `name@unit` path is on every split. Unique
                // names keep the concatenation a valid single unit.
                text.push_str(&format!(
                    "static void priv{u}() {{\n  field[1] += 2.0;\n}}\nvoid wrap{u}() {{\n  priv{u}();\n}}\n"
                ));
                (format!("scc_unit{u}.c"), text)
            })
            .collect();
        for (func, unit) in functions.iter().zip(&assignment) {
            units[*unit].1.push_str(func);
        }
        let mut main_body = String::new();
        for i in 0..n {
            main_body.push_str(&format!("  g{i}();\n"));
        }
        for u in 0..used {
            main_body.push_str(&format!("  wrap{u}();\n"));
        }
        units[used - 1].1.push_str(&format!(
            "int main() {{\n{main_body}  printf(\"%f\\n\", field[3]);\n  return 0;\n}}\n"
        ));
        let concat: String = units.iter().map(|(_, s)| s.as_str()).collect();

        // Linked (SCC-wavefront) analysis == concatenated single unit.
        let driver = ompdart_core::ProgramDriver::new();
        let program_analysis = match driver.analyze_program(&units) {
            Ok(p) => p,
            Err(e) => return Err(TestCaseError::fail(format!("link failed: {e}\n{concat}"))),
        };
        let cold = match Ompdart::new().analyze("scc_concat.c", &concat) {
            Ok(a) => a,
            Err(e) => {
                return Err(TestCaseError::fail(format!(
                    "concat analysis failed: {e}\n{concat}"
                )))
            }
        };
        let linked: String = program_analysis
            .units
            .iter()
            .map(|u| u.rewrite.source.as_str())
            .collect();
        prop_assert_eq!(
            &linked, &cold.rewrite.source,
            "linked != concatenated for edges {:#x} cuts {:#x}\n{}", edges, cuts, concat
        );
        prop_assert_eq!(program_analysis.stats().unknown_callee_fallbacks, 0);

        // The merged fixed point: wavefront engine (several worker
        // counts) byte-identical to the sequential reference sweep.
        let options = ompdart_core::OmpDartOptions::default();
        let program = driver.link(&units).expect("relink of the same inputs");
        // The reference sweep needs a pass per function of the longest
        // call chain, twice over where a component takes its corner.
        let sequential =
            ompdart_core::oracle::propagate_merged_sequential(&program.units, &options, 2 * n);
        for threads in [1usize, 4] {
            let parallel =
                ompdart_core::Program::propagate_merged(&program.units, &options, threads);
            prop_assert!(
                parallel.same_summaries(&sequential),
                "parallel({threads}) != sequential for edges {:#x}\n{}", edges, concat
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Cold-path overhaul: edit rounds and thread counts never move the output
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, .. ProptestConfig::default() })]

    /// For any generated multi-unit program, the interned cold path, the
    /// identity-fast-path warm round, the dirty-cone edit round, and every
    /// link worker count produce byte-identical rewrites *and* identical
    /// plan JSON. A fresh driver analyzing the edited program cold is the
    /// oracle for the warm edit round.
    #[test]
    fn edit_rounds_and_thread_counts_preserve_rewrites_and_plan_json(
        kinds in proptest::collection::vec(helper_kind_strategy(), 2..6),
        call_mask in 0u64..256,
        cuts in 0u64..256,
        units_wanted in 2usize..4,
        threads in 1usize..5,
    ) {
        let helper_count = kinds.len();
        let header = program_header(helper_count);
        let mut functions: Vec<String> = kinds
            .iter()
            .enumerate()
            .map(|(i, kind)| render_helper(i, *kind, (call_mask >> i) & 1 == 1))
            .collect();
        let mut main_body = String::new();
        for i in 0..helper_count {
            main_body.push_str(&format!("  h{i}();\n"));
        }
        functions.push(format!(
            "int main() {{\n{main_body}  printf(\"%f %f\\n\", acc, field[3]);\n  return 0;\n}}\n"
        ));
        let units = split_units(&header, &functions, cuts, units_wanted);

        let outputs = |program: &ompdart_core::ProgramAnalysis| -> Vec<(String, String)> {
            program
                .units
                .iter()
                .map(|u| (u.rewritten_source().to_string(), u.plans_json()))
                .collect()
        };

        let driver_at = |threads: usize| {
            let session = ompdart_core::AnalysisSession::new().with_parallelism(threads);
            ompdart_core::ProgramDriver::with_session(std::sync::Arc::new(session))
        };
        let driver = driver_at(threads);
        let cold = match driver.analyze_program(&units) {
            Ok(p) => p,
            Err(e) => return Err(TestCaseError::fail(format!("cold link failed: {e}"))),
        };
        let cold_out = outputs(&cold);

        // Warm unchanged round: the identity fast path must not move a byte.
        let warm = driver.analyze_program(&units).unwrap();
        prop_assert_eq!(&outputs(&warm), &cold_out, "warm round moved the output");

        // Single-threaded oracle for the same inputs.
        let oracle = driver_at(1).analyze_program(&units).unwrap();
        prop_assert_eq!(&outputs(&oracle), &cold_out, "thread count moved the output");

        // Edit one unit's body, re-analyze warm (dirty-cone edit path),
        // and compare against a fresh cold analysis of the edited program.
        let mut edited = units.clone();
        let last = edited.len() - 1;
        edited[last].1.push_str("void gen_extra() { acc = acc + 1.0; }\n");
        let warm_edit = driver.analyze_program(&edited).unwrap();
        let cold_edit = driver_at(threads).analyze_program(&edited).unwrap();
        prop_assert_eq!(
            &outputs(&warm_edit), &outputs(&cold_edit),
            "edit round disagrees with cold analysis of the edited program"
        );
    }
}

// ---------------------------------------------------------------------------
// Patched relinks: any edit script leaves the state a cold link would build
// ---------------------------------------------------------------------------

/// One function of the edit-script model: `f<name>`, maybe `static`, one of
/// a few bodies, and the names it calls (defined anywhere or nowhere).
#[derive(Clone, Debug)]
struct ModelFn {
    name: usize,
    is_static: bool,
    body: u8,
    callees: Vec<usize>,
}

/// The names functions are drawn from: few, so a name is often a `static`
/// in one unit and a global (or another static) in the next.
const MODEL_NAMES: usize = 6;

/// A program under edit: `(file id, functions)` per unit, in link order.
/// Unit 0 also holds the globals and `main` and is never removed.
type Model = Vec<(usize, Vec<ModelFn>)>;

fn render_model(model: &Model) -> Vec<(String, String)> {
    let header = "#ifndef RELINK_H\n#define RELINK_H\n#define N 16\n\
                  extern double ga[N];\nextern double gb[N];\nextern double gc[N];\n#endif\n";
    let render_fn = |f: &ModelFn| {
        let body = match f.body % 4 {
            0 => "  ga[2] += 1.0;\n",
            1 => "  gb[3] = ga[1];\n",
            2 => {
                "  #pragma omp target teams distribute parallel for\n  \
                  for (int i = 0; i < N; i++) gc[i] += 1.0;\n"
            }
            _ => "  gc[0] += gb[0];\n",
        };
        let calls: String = (f.callees.iter())
            .map(|c| format!("  if (ga[1] > 100.0) {{ f{c}(); }}\n"))
            .collect();
        let storage = if f.is_static { "static " } else { "" };
        format!("{storage}void f{}() {{\n{body}{calls}}}\n", f.name)
    };
    let mut units: Vec<(String, String)> = (model.iter())
        .map(|(id, functions)| {
            let text: String = functions.iter().map(render_fn).collect();
            (format!("relink_{id}.c"), format!("{header}{text}"))
        })
        .collect();
    let calls: String = (0..MODEL_NAMES).map(|n| format!("  f{n}();\n")).collect();
    units[0].1.push_str(&format!(
        "double ga[N];\ndouble gb[N];\ndouble gc[N];\n\
         int main() {{\n{calls}  printf(\"%f\\n\", ga[0] + gc[1]);\n  return 0;\n}}\n"
    ));
    units
}

/// The next xorshift draw of `rng`, below `bound`.
fn roll(rng: &mut u64, bound: usize) -> usize {
    *rng ^= *rng << 13;
    *rng ^= *rng >> 7;
    *rng ^= *rng << 17;
    (*rng % bound as u64) as usize
}

/// Apply one random edit that keeps the program linkable: no two
/// definitions of a name in one unit, at most one non-static per name.
fn edit_model(model: &mut Model, rng: &mut u64, next_file: &mut usize) {
    let mut roll = |bound: usize| roll(rng, bound);
    let global_taken = |model: &Model, name: usize| {
        (model.iter().flat_map(|(_, fs)| fs)).any(|f| f.name == name && !f.is_static)
    };
    let unit = roll(model.len());
    let functions = model[unit].1.len();
    match roll(8) {
        // Body edit.
        0 if functions > 0 => model[unit].1[roll(functions)].body = roll(4) as u8,
        // Callee retargeted (or a call site added).
        1 if functions > 0 => {
            let f = &mut model[unit].1[roll(functions)];
            let callee = roll(MODEL_NAMES);
            match f.callees.len() {
                0 => f.callees.push(callee),
                n => f.callees[roll(n)] = callee,
            }
        }
        // Function removed (its callers keep calling the name).
        2 if functions > 0 => drop(model[unit].1.remove(roll(functions))),
        // `static` toggled: the name starts or stops being mangled.
        3 if functions > 0 => {
            let at = roll(functions);
            let name = model[unit].1[at].name;
            if !model[unit].1[at].is_static || !global_taken(model, name) {
                model[unit].1[at].is_static ^= true;
            }
        }
        // Unit removed, reordered, or added (empty; functions follow).
        4 if unit > 0 => drop(model.remove(unit)),
        5 => {
            let other = roll(model.len());
            model.swap(unit, other);
        }
        6 if model.len() < 5 => {
            *next_file += 1;
            model.push((*next_file, Vec::new()));
        }
        // Function added.
        _ => {
            let name = roll(MODEL_NAMES);
            if model[unit].1.iter().all(|f| f.name != name) {
                let is_static = global_taken(model, name) || roll(3) == 0;
                let callees = (0..roll(3)).map(|_| roll(MODEL_NAMES)).collect();
                let body = roll(4) as u8;
                model[unit].1.push(ModelFn {
                    name,
                    is_static,
                    body,
                    callees,
                });
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, .. ProptestConfig::default() })]

    /// One long-lived session per worker count follows a random edit
    /// script — body edits, retargeted calls, functions added and removed,
    /// `static` toggled, units added, removed and reordered — and after
    /// every step its patched link state is the one a cold `Program::link`
    /// of the same units builds: converged summaries — the order bits of
    /// every effect included, `same_summaries` compares whole effects —
    /// `defined_in`, every name as each unit resolves it, every imports
    /// fingerprint, and the rewrites planned under them. Half the scripts
    /// run in pessimistic-globals mode, where a call to a name nobody
    /// defines clobbers every global its caller can see — so the script
    /// also declares new globals, which move no function's text.
    #[test]
    fn patched_relink_agrees_with_a_cold_link_after_every_edit(
        seed in 1u64..u64::MAX,
        steps in 4usize..10,
        pessimistic in 0usize..2,
    ) {
        let mut rng = seed;
        let mut next_file = 2;
        let mut model: Model = vec![(0, Vec::new()), (1, Vec::new()), (2, Vec::new())];
        for _ in 0..8 {
            edit_model(&mut model, &mut rng, &mut next_file);
        }
        // The file each global declared so far went into.
        let mut declared: Vec<usize> = Vec::new();
        let options = ompdart_core::OmpDartOptions {
            pessimistic_globals: pessimistic == 1,
        };
        let driver_under = |threads: usize| {
            let session =
                ompdart_core::AnalysisSession::with_options(options).with_parallelism(threads);
            (threads, ompdart_core::ProgramDriver::with_session(std::sync::Arc::new(session)))
        };
        let drivers: Vec<(usize, ompdart_core::ProgramDriver)> =
            [1usize, 2, 8].into_iter().map(driver_under).collect();
        for step in 0..=steps {
            let mut inputs = render_model(&model);
            for (global, file) in declared.iter().enumerate() {
                let name = format!("relink_{file}.c");
                if let Some((_, source)) = inputs.iter_mut().find(|(unit, _)| *unit == name) {
                    source.push_str(&format!("double gx{global}[N];\n"));
                }
            }
            let cold_rewrite = driver_under(1).1
                .analyze_program(&inputs)
                .map(|analysis| analysis.concatenated_rewrite());
            for (threads, driver) in &drivers {
                let at = format!("step {step}, {threads} thread(s), seed {seed:#x}\n{inputs:#?}");
                let warm = driver.analyze_program(&inputs);
                prop_assert_eq!(
                    warm.map(|a| a.concatenated_rewrite()).map_err(|e| e.to_string()),
                    cold_rewrite.clone().map_err(|e| e.to_string()),
                    "rewrites differ at {}", at
                );
                let patched = driver.link(&inputs).expect("the round above linked");
                let cold = ompdart_core::Program::link(patched.units.clone(), &options)
                    .expect("the round above linked");
                prop_assert!(
                    patched.linked.same_summaries(&cold.linked),
                    "summaries differ at {}", at
                );
                prop_assert_eq!(
                    &patched.linked.defined_in(), &cold.linked.defined_in(),
                    "defined_in differs at {}", at
                );
                for unit in 0..patched.len() {
                    let (was, now) = (patched.link_context(unit), cold.link_context(unit));
                    prop_assert_eq!(
                        was.imports_fingerprint, now.imports_fingerprint,
                        "unit {}'s imports fingerprint differs at {}", unit, at
                    );
                    prop_assert!(
                        resolves_alike(&patched, &was, &now),
                        "unit {}'s names resolve differently at {}", unit, at
                    );
                }
            }
            match roll(&mut rng, 4) {
                0 => declared.push(model[roll(&mut rng, model.len())].0),
                _ => edit_model(&mut model, &mut rng, &mut next_file),
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Interfaces: the encoding holds everything the link reads of a unit
// ---------------------------------------------------------------------------

/// True when every function of `program`, called by its source-level name
/// (a `static`'s `name@unit` symbol before the `@`), resolves to the same
/// summary, or to none, in the unit contexts `was` and `now`.
fn resolves_alike(
    program: &ompdart_core::Program,
    was: &ompdart_core::LinkContext,
    now: &ompdart_core::LinkContext,
) -> bool {
    (program.linked.iter()).all(|(name, _)| {
        let source = name.split('@').next().unwrap_or_default();
        was.summary(source) == now.summary(source)
    })
}

/// Link `inputs` from parsed units, encode and decode every unit's interface,
/// and link again from the decoded interfaces alone — with the parsed link
/// at 1, 2 and 8 threads, with pessimistic globals on and off. The decoded interface is
/// the parsed unit's, field for field; the second link converges to the same
/// summaries, definitions, per-unit name resolutions and fingerprints as the
/// first; and nothing of a restored unit was parsed to get there.
fn assert_interfaces_carry_the_link(inputs: &[(String, String)], what: &str) {
    use ompdart_core::{OmpDartOptions, Program, ProgramDriver, SummarizedUnit, UnitExports};
    use std::sync::Arc;
    for pessimistic_globals in [false, true] {
        for threads in [1usize, 2, 8] {
            let at = format!("{what}, {threads} thread(s), pessimistic {pessimistic_globals}");
            let options = OmpDartOptions {
                pessimistic_globals,
            };
            let session =
                ompdart_core::AnalysisSession::with_options(options).with_parallelism(threads);
            let parsed = ProgramDriver::with_session(Arc::new(session))
                .link(inputs)
                .expect("the program links");
            let restored: Vec<Arc<SummarizedUnit>> = (parsed.units.iter())
                .map(|unit| {
                    let mut encoded = Vec::new();
                    assert!(unit.exports().encode(&mut encoded), "{at}: not encodable");
                    let text = std::str::from_utf8(&encoded).expect("the encoding is text");
                    let decoded = UnitExports::decode(unit.name(), text)
                        .unwrap_or_else(|| panic!("{at}: `{}` does not decode", unit.name()));
                    assert_eq!(&decoded, unit.exports(), "{at}: `{}`", unit.name());
                    // The encoding is of the content: under another name it
                    // decodes to what that name's own parse exports.
                    let renamed = format!("renamed_{}", unit.name());
                    let reparsed = ompdart_core::AnalysisSession::with_options(options)
                        .summarize(&renamed, unit.source())
                        .expect("the same text parses");
                    assert_eq!(
                        UnitExports::decode(&renamed, text).as_ref(),
                        Some(reparsed.exports()),
                        "{at}: `{renamed}`"
                    );
                    let unit =
                        SummarizedUnit::restored(unit.name(), unit.source(), &options, decoded);
                    Arc::new(unit)
                })
                .collect();
            let relinked = Program::link(restored, &options).expect("the program links");
            assert!(
                relinked.linked.same_summaries(&parsed.linked),
                "{at}: summaries differ"
            );
            assert_eq!(
                relinked.linked.defined_in(),
                parsed.linked.defined_in(),
                "{at}"
            );
            for unit in 0..parsed.len() {
                let (was, now) = (parsed.link_context(unit), relinked.link_context(unit));
                assert_eq!(
                    was.imports_fingerprint, now.imports_fingerprint,
                    "{at}: unit {unit}'s imports fingerprint differs"
                );
                assert!(
                    resolves_alike(&parsed, &was, &now),
                    "{at}: unit {unit}'s names resolve differently"
                );
                assert!(
                    relinked.units[unit].body_if_built().is_none(),
                    "{at}: the link parsed unit {unit}"
                );
            }
        }
    }
}

/// [`assert_interfaces_carry_the_link`] over the ten ports — the nine
/// single-unit benchmarks and the three-unit lulesh — and over programs of
/// the six-name model, whose few names are statics here and globals there
/// and are often called without being defined.
#[test]
fn a_program_links_from_decoded_interfaces_as_from_parsed_units() {
    for bench in ompdart_suite::all_benchmarks() {
        let unit = (bench.unoptimized_file(), bench.unoptimized.to_string());
        assert_interfaces_carry_the_link(&[unit], &bench.unoptimized_file());
    }
    let lulesh: Vec<(String, String)> = (ompdart_suite::lulesh_multifile().into_iter())
        .map(|(name, source)| (name.to_string(), source.to_string()))
        .collect();
    assert_interfaces_carry_the_link(&lulesh, "lulesh_mf");

    for seed in [0x5eed_u64, 0x1234_5678_9abc, 0xfeed_f00d] {
        let mut rng = seed;
        let mut next_file = 2;
        let mut model: Model = vec![(0, Vec::new()), (1, Vec::new()), (2, Vec::new())];
        for step in 0..24 {
            edit_model(&mut model, &mut rng, &mut next_file);
            if step % 4 == 3 {
                let what = format!("model {seed:#x} after {step} edits");
                assert_interfaces_carry_the_link(&render_model(&model), &what);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// The unit table: a long-lived session answers like a fresh one, and counts
// every lookup once
// ---------------------------------------------------------------------------

/// Every unit's rewritten source and plan JSON, in unit order.
fn unit_outputs(program: &ompdart_core::ProgramAnalysis) -> Vec<(String, String)> {
    (program.units.iter())
        .map(|unit| (unit.rewritten_source().to_string(), unit.plans_json()))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, .. ProptestConfig::default() })]

    /// One long-lived session per worker count follows a random script over
    /// the six-name model: the model's own edits (bodies, calls, functions
    /// and units added, removed and reordered), a unit renamed, the previous
    /// program brought back (A→B→A, which the table keeps warm) and an older
    /// one (A→B→C→A, which overflows its version bound), with one-unit
    /// requests for single units in between, on a second driver of each
    /// session. After every step each unit's rewritten source and plan JSON
    /// are a fresh session's, byte for byte, and the hit and miss rows of
    /// each lookup kind add up to the lookups made.
    #[test]
    fn a_long_lived_session_agrees_with_a_fresh_one_after_every_step(
        seed in 1u64..u64::MAX,
        steps in 6usize..14,
    ) {
        let mut rng = seed;
        let mut next_file = 2;
        let mut model: Model = vec![(0, Vec::new()), (1, Vec::new()), (2, Vec::new())];
        for _ in 0..8 {
            edit_model(&mut model, &mut rng, &mut next_file);
        }
        let drivers: Vec<[ompdart_core::ProgramDriver; 2]> = [1usize, 2, 8]
            .into_iter()
            .map(|threads| {
                let session = ompdart_core::AnalysisSession::new().with_parallelism(threads);
                let session = std::sync::Arc::new(session);
                [(); 2].map(|_| ompdart_core::ProgramDriver::with_session(session.clone()))
            })
            .collect();
        // Lookups made so far on each session (they all see the same script).
        let (mut summarize_lookups, mut analysis_lookups) = (0u64, 0u64);
        let mut history: Vec<Model> = Vec::new();
        for step in 0..=steps {
            let inputs = render_model(&model);
            let fresh = ompdart_core::ProgramDriver::new()
                .analyze_program(&inputs)
                .expect("the model stays linkable");
            let fresh_out = unit_outputs(&fresh);
            // One unit of the program, also asked for on its own.
            let alone_unit = &inputs[roll(&mut rng, inputs.len())..][..1];
            let alone_name = &alone_unit[0].0;
            let fresh_alone = Ompdart::new().analyze(alone_name, &alone_unit[0].1).unwrap();
            summarize_lookups += inputs.len() as u64 + 1;
            analysis_lookups += inputs.len() as u64 + 1;
            for [driver, alone_driver] in &drivers {
                let at = format!(
                    "step {step}, {} thread(s), seed {seed:#x}\n{inputs:#?}",
                    driver.session().parallelism()
                );
                let warm = driver.analyze_program(&inputs).expect("the model stays linkable");
                prop_assert_eq!(&unit_outputs(&warm), &fresh_out, "outputs differ at {}", at);
                let alone = &alone_driver.analyze_program(alone_unit).unwrap().units[0];
                prop_assert_eq!(
                    (&alone.rewrite.source, alone.plans_json()),
                    (&fresh_alone.rewrite.source, fresh_alone.plans_json()),
                    "`{}` analyzed alone differs at {}", alone_name, at
                );
                let stats = driver.session().cache_stats();
                prop_assert_eq!(
                    stats.summarize_hits + stats.summarize_misses, summarize_lookups,
                    "summarize lookups at {}: {}", at, stats
                );
                prop_assert_eq!(
                    stats.fast_path_hits + stats.analysis_hits + stats.analysis_misses,
                    analysis_lookups,
                    "analysis lookups at {}: {}", at, stats
                );
                prop_assert_eq!(
                    stats.parse_misses, stats.summarize_misses,
                    "every summarize miss parses once, at {}: {}", at, stats
                );
            }
            history.push(model.clone());
            match roll(&mut rng, 8) {
                // Back to the program before this one: an edit reverted.
                0 | 1 if history.len() >= 2 => model = history[history.len() - 2].clone(),
                // Back to an older one, two or more distinct versions ago.
                2 if history.len() >= 3 => {
                    model = history[roll(&mut rng, history.len() - 2)].clone();
                }
                // A unit renamed: same content, a name the session never saw.
                3 => {
                    next_file += 1;
                    let unit = roll(&mut rng, model.len());
                    model[unit].0 = next_file;
                }
                _ => edit_model(&mut model, &mut rng, &mut next_file),
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Projected plan keys: device names that come and go
// ---------------------------------------------------------------------------

/// Names of the device-names model — the globals `g0..g3` every unit
/// declares and `gl`, a global only the last stage's unit defines — and its
/// functions: `main` and the chain `s1..s3`, one to a unit.
const DEVICE_MODEL_NAMES: usize = 5;
const DEVICE_MODEL_FUNCTIONS: usize = 4;

/// Per function, per name: 0 untouched, 1 touched on the host, 2 in a
/// kernel, 3 handed by reference to an unknown callee in a kernel, 4 handed
/// to `wrap` on the host and 5 in a kernel — `wrap` hands its parameter to
/// the unknown callee, so only its summary tells its callers. In `main`,
/// `s1` and `s2`, whose units do not declare `gl`, a nonzero `gl` cell is a
/// *local* array of that name, which a callee's effect on the global `gl`
/// does not reach.
type DeviceModel = [[u8; DEVICE_MODEL_NAMES]; DEVICE_MODEL_FUNCTIONS];

/// True for a state of [`DeviceModel`] that touches its name on the device.
fn on_device(state: u8) -> bool {
    matches!(state, 2 | 3 | 5)
}

/// `main` brackets its call into the chain with kernels on `gm`, so its
/// region holds the chain's replayed effects; each stage touches `g0`, `g1`
/// before its call and `g2`, `g3` after it, and the last calls a function
/// nobody defines (a clobber of every global under pessimistic globals) and
/// defines `wrap`. A local `gl` is touched on both sides of its function's
/// call, so a kernel on it puts the call inside the function's region.
fn render_device_model(model: &DeviceModel) -> Vec<(String, String)> {
    let header = "#ifndef DEV_H\n#define DEV_H\n#define N 16\nextern double gm[N];\n\
                  extern double g0[N];\nextern double g1[N];\n\
                  extern double g2[N];\nextern double g3[N];\n\
                  void wrap(double *p);\n#endif\n";
    let name = |j: usize| match j {
        4 => "gl".to_string(),
        _ => format!("g{j}"),
    };
    let touch_one = |f: usize, j: usize| -> String {
        let g = name(j);
        match model[f][j] {
            1 => format!("  {g}[{f}] += 1.0;\n"),
            2 => format!(
                "  #pragma omp target teams distribute parallel for\n  \
                 for (int i = 0; i < N; i++) {g}[i] += {f}.0;\n"
            ),
            3 => format!(
                "  #pragma omp target teams distribute parallel for\n  \
                 for (int i = 0; i < N; i++) {{ ext_use({g}); }}\n"
            ),
            4 => format!("  wrap({g});\n"),
            5 => format!(
                "  #pragma omp target teams distribute parallel for\n  \
                 for (int i = 0; i < N; i++) {{ wrap({g}); }}\n"
            ),
            _ => String::new(),
        }
    };
    let last = DEVICE_MODEL_FUNCTIONS - 1;
    // What function `f` does before its call and after it, and the local
    // `gl` it declares.
    let touch = |f: usize, globals: std::ops::Range<usize>| -> String {
        let local = (f < last).then_some(4);
        (globals.chain(local)).map(|j| touch_one(f, j)).collect()
    };
    let local = |f: usize| match f < last && model[f][4] != 0 {
        true => "  double gl[N];\n",
        false => "",
    };
    let main = format!(
        "{header}double gm[N];\ndouble g0[N];\ndouble g1[N];\ndouble g2[N];\ndouble g3[N];\n\
         int main() {{\n{}{}  #pragma omp target teams distribute parallel for\n  \
         for (int i = 0; i < N; i++) gm[i] = i;\n  s1();\n  \
         #pragma omp target teams distribute parallel for\n  \
         for (int i = 0; i < N; i++) gm[i] += 1.0;\n{}  \
         printf(\"%f %f %f %f %f\\n\", gm[1], g0[1], g1[2], g2[3], g3[1]);\n  return 0;\n}}\n",
        local(0),
        touch(0, 0..2),
        touch(0, 2..4),
    );
    let mut units = vec![("dev_0.c".to_string(), main)];
    for f in 1..DEVICE_MODEL_FUNCTIONS {
        let (call, defined) = match f < last {
            true => (format!("  s{}();\n", f + 1), ""),
            false => (
                "  ext_log();\n".to_string(),
                "double gl[N];\nvoid wrap(double *p) { ext_use(p); }\n",
            ),
        };
        let (before, after) = match f < last {
            true => (touch(f, 0..2), touch(f, 2..4)),
            false => (touch(f, 0..2), touch(f, 2..5)),
        };
        let body = format!("{}{before}{call}{after}", local(f));
        units.push((
            format!("dev_{f}.c"),
            format!("{header}{defined}void s{f}(void) {{\n{body}}}\n"),
        ));
    }
    units
}

/// One edit of the device-names model, of the kind `kind` names when the
/// model allows it (else a random one): 0 adds a host-only effect, 1 the
/// first device access of a name, direct or through an unknown callee, with
/// or without a wrapper (the device names grow), 2 removes the last device
/// access of one (they shrink).
fn edit_device_model(model: &mut DeviceModel, rng: &mut u64, kind: usize) {
    let devices = |model: &DeviceModel, j: usize| model.iter().filter(|f| on_device(f[j])).count();
    let one_of = |rng: &mut u64, states: &[u8]| states[roll(rng, states.len())];
    let pick = |rng: &mut u64, cells: Vec<(usize, usize)>| {
        (!cells.is_empty()).then(|| cells[roll(rng, cells.len())])
    };
    let cells = |keep: &dyn Fn(usize, usize) -> bool| -> Vec<(usize, usize)> {
        (0..DEVICE_MODEL_FUNCTIONS)
            .flat_map(|f| (0..DEVICE_MODEL_NAMES).map(move |j| (f, j)))
            .filter(|&(f, j)| keep(f, j))
            .collect()
    };
    let chosen = match kind {
        0 => pick(rng, cells(&|f, j| model[f][j] == 0)).map(|cell| (cell, one_of(rng, &[1, 4]))),
        1 => pick(rng, cells(&|_, j| devices(model, j) == 0))
            .map(|cell| (cell, one_of(rng, &[2, 3, 5]))),
        2 => pick(
            rng,
            cells(&|f, j| on_device(model[f][j]) && devices(model, j) == 1),
        )
        .map(|cell| (cell, one_of(rng, &[0, 1, 4]))),
        _ => None,
    };
    let ((f, j), state) = chosen.unwrap_or_else(|| {
        let f = roll(rng, DEVICE_MODEL_FUNCTIONS);
        ((f, roll(rng, DEVICE_MODEL_NAMES)), roll(rng, 6) as u8)
    });
    model[f][j] = state;
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, .. ProptestConfig::default() })]

    /// Plan keys project callee summaries onto the device names, so a
    /// script that adds host-only effects, gives a name its first device
    /// access — in a kernel, or handed to an unknown callee inside one or
    /// through a wrapper on the host or in a kernel, on a global or on a
    /// caller's local named like another unit's global — and takes the last
    /// one away must never serve a plan that a cold analysis would not
    /// make. One long-lived session per option
    /// setting (`pessimistic_globals` off and on) follows the
    /// script; after every step each unit's rewrite and plan JSON are a
    /// cold analysis's, and the patched link's imports fingerprints a cold
    /// link's.
    #[test]
    fn projected_plan_keys_agree_with_a_cold_analysis_as_device_names_move(
        seed in 1u64..u64::MAX,
        steps in 6usize..12,
    ) {
        let mut rng = seed;
        let mut model: DeviceModel = [[0; DEVICE_MODEL_NAMES]; DEVICE_MODEL_FUNCTIONS];
        for _ in 0..4 {
            let kind = roll(&mut rng, 4);
            edit_device_model(&mut model, &mut rng, kind);
        }
        let combos = [false, true]
            .map(|pessimistic_globals| ompdart_core::OmpDartOptions { pessimistic_globals });
        let driver_under = |options: ompdart_core::OmpDartOptions| {
            let session = ompdart_core::AnalysisSession::with_options(options);
            ompdart_core::ProgramDriver::with_session(std::sync::Arc::new(session))
        };
        let drivers = combos.map(driver_under);
        let offset = roll(&mut rng, 4);
        for step in 0..=steps {
            let inputs = render_device_model(&model);
            for (options, driver) in combos.iter().zip(&drivers) {
                let at = format!("step {step}, {options:?}, seed {seed:#x}\n{model:?}");
                let warm = driver.analyze_program(&inputs).expect("the model links");
                let cold = driver_under(*options).analyze_program(&inputs).expect("the model links");
                prop_assert_eq!(unit_outputs(&warm), unit_outputs(&cold), "outputs differ at {}", at);
                let patched = driver.link(&inputs).expect("the round above linked");
                let relinked = ompdart_core::Program::link(patched.units.clone(), options)
                    .expect("the round above linked");
                for unit in 0..patched.len() {
                    prop_assert_eq!(
                        patched.link_context(unit).imports_fingerprint,
                        relinked.link_context(unit).imports_fingerprint,
                        "unit {}'s imports fingerprint differs at {}", unit, at
                    );
                }
            }
            edit_device_model(&mut model, &mut rng, (step + offset) % 4);
        }
    }
}

// ---------------------------------------------------------------------------
// The persistent store: a restart at every step answers like a fresh session
// ---------------------------------------------------------------------------

/// A session under `threads` workers, over `cache_dir` if given: what one
/// run of the tool is.
fn one_run(threads: usize, cache_dir: Option<&std::path::Path>) -> ompdart_core::ProgramDriver {
    let mut session = ompdart_core::AnalysisSession::new().with_parallelism(threads);
    if let Some(dir) = cache_dir {
        session = session.with_cache_dir(dir);
    }
    ompdart_core::ProgramDriver::with_session(std::sync::Arc::new(session))
}

/// `units` with a comment no earlier edit made put into the first function
/// of the first unit (from `from` on, wrapping) that defines one: that
/// function's text moves, its summary and everyone else's text do not.
fn edit_one_body(units: &[(String, String)], from: usize, nonce: usize) -> Vec<(String, String)> {
    let mut edited = units.to_vec();
    let order = (0..units.len()).map(|i| (from + i) % units.len());
    for unit in order {
        if let Some(at) = edited[unit].1.find("() {\n") {
            let comment = format!("  /* edit {nonce} */\n");
            edited[unit].1.insert_str(at + "() {\n".len(), &comment);
            break;
        }
    }
    edited
}

/// The units of a restart's round that the frontend had to run for: the ones
/// it planned, and the ones that carry a diagnostic, which are never served
/// without their body.
fn units_needing_a_parse(round: &ompdart_core::ProgramAnalysis) -> u64 {
    let needs = |unit: &ompdart_core::UnitAnalysis, serve: &ompdart_core::UnitServe| {
        *serve != ompdart_core::UnitServe::Store || !unit.diagnostics().is_empty()
    };
    let units = round.units.iter().zip(&round.served);
    units.filter(|(unit, serve)| needs(unit, serve)).count() as u64
}

/// The file names in a cache directory, sorted.
fn cache_listing(dir: &std::path::Path) -> Vec<String> {
    let entries = std::fs::read_dir(dir).into_iter().flatten().flatten();
    let mut names: Vec<String> = entries
        .map(|entry| entry.file_name().to_string_lossy().into_owned())
        .collect();
    names.sort();
    names
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 8, .. ProptestConfig::default() })]

    /// The six-name edit model again, but every step is a *new session over
    /// the same cache directory* — the one-shot user's restart — at 1, 2
    /// and 8 threads. Each unit's rewritten
    /// source and plan JSON are a store-less fresh session's, byte for byte;
    /// every unit the table did not hold went to the store exactly once; the
    /// directory holds the pack and nothing else; and an edit made right
    /// after a restart re-plans exactly the one unit it touched, as it does
    /// in a long-lived store-less session. And a
    /// restart parses what changed: the frontend ran for exactly the units
    /// that were planned or carry a diagnostic (whose warnings must be seen
    /// again) — for none at all when nothing changed.
    #[test]
    fn a_restart_at_every_step_agrees_with_a_fresh_session(
        seed in 1u64..u64::MAX,
        steps in 5usize..10,
    ) {
        let mut rng = seed;
        let mut next_file = 2;
        let mut model: Model = vec![(0, Vec::new()), (1, Vec::new()), (2, Vec::new())];
        for _ in 0..8 {
            edit_model(&mut model, &mut rng, &mut next_file);
        }
        let runs: Vec<(usize, std::path::PathBuf)> = [1usize, 2, 8]
            .into_iter()
            .map(|threads| {
                let dir = std::env::temp_dir().join(format!(
                    "ompdart-restart-{}-{seed:x}-{threads}",
                    std::process::id()
                ));
                let _ = std::fs::remove_dir_all(&dir);
                (threads, dir)
            })
            .collect();
        let mut history: Vec<Model> = Vec::new();
        for step in 0..=steps {
            let inputs = render_model(&model);
            // The edit tried right after a restart: one function's body, with
            // text the pack cannot hold yet (unit 0 always defines `main`).
            let edited = edit_one_body(&inputs, roll(&mut rng, inputs.len()), step);
            for (threads, dir) in &runs {
                let at = format!(
                    "step {step}, {threads} thread(s), seed {seed:#x}\n{inputs:#?}"
                );
                let fresh = one_run(*threads, None)
                    .analyze_program(&inputs)
                    .expect("the model stays linkable");
                let restarted = one_run(*threads, Some(dir));
                let warm = restarted.analyze_program(&inputs).expect("the model stays linkable");
                prop_assert_eq!(&unit_outputs(&warm), &unit_outputs(&fresh), "outputs differ at {}", at);
                let stats = restarted.session().cache_stats();
                prop_assert_eq!(
                    stats.store_hits + stats.store_misses, stats.analysis_misses,
                    "store lookups at {}: {}", at, stats
                );
                prop_assert!(
                    cache_listing(dir).iter().all(|name| name == "ompdart.pack"),
                    "the cache directory holds {:?} at {}", cache_listing(dir), at
                );
                prop_assert_eq!(
                    stats.parse_misses, units_needing_a_parse(&warm),
                    "units parsed at {}: {} (served {:?})", at, stats, warm.served
                );

                // Restart once more: everything saved above is served, and
                // the first edit on top of it is as incremental as it is for
                // a session that planned the program itself.
                let again = one_run(*threads, Some(dir));
                let served = again.analyze_program(&inputs).expect("the model stays linkable");
                prop_assert_eq!(&unit_outputs(&served), &unit_outputs(&fresh), "outputs differ at {}", at);
                let parsed = again.session().cache_stats().parse_misses;
                prop_assert_eq!(
                    parsed, units_needing_a_parse(&served),
                    "units parsed by a restart that changed nothing at {} (served {:?})",
                    at, served.served
                );
                if served.served.iter().any(|serve| *serve != ompdart_core::UnitServe::Store) {
                    // A unit with planning diagnostics is never persisted.
                    continue;
                }
                let oracle = one_run(*threads, None);
                oracle.analyze_program(&inputs).expect("the model stays linkable");
                let (before, oracle_before) =
                    (again.session().cache_stats(), oracle.session().cache_stats());
                let after_edit = again.analyze_program(&edited).expect("the model stays linkable");
                let oracle_edit = oracle.analyze_program(&edited).expect("the model stays linkable");
                prop_assert_eq!(
                    &unit_outputs(&after_edit), &unit_outputs(&oracle_edit),
                    "the edit after a restart differs at {}", at
                );
                let moved = again.session().cache_stats() - before;
                let oracle_moved = oracle.session().cache_stats() - oracle_before;
                prop_assert_eq!(
                    (moved.analysis_misses, moved.function_plan_misses),
                    (oracle_moved.analysis_misses, oracle_moved.function_plan_misses),
                    "the edit after a restart moves {} at {}", moved, at
                );
                let touched = (0..inputs.len()).find(|&i| edited[i] != inputs[i]);
                let unit = after_edit.units[touched.expect("one body moved")].unit();
                let functions = unit.body().parsed.unit.functions().count() as u64;
                prop_assert_eq!(
                    (moved.analysis_misses, moved.function_plan_misses), (1, functions),
                    "one unit moved at {}", at
                );
                prop_assert_eq!(parsed, 0, "a restart that changed nothing parsed at {}", at);
            }
            history.push(model.clone());
            match roll(&mut rng, 6) {
                // Back to the program before this one: an edit reverted.
                0 | 1 if history.len() >= 2 => model = history[history.len() - 2].clone(),
                _ => edit_model(&mut model, &mut rng, &mut next_file),
            }
        }
        for (_, dir) in &runs {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

/// Bounded growth: 200 steps of edit (content never seen before) and revert,
/// a new session over the same cache directory at every step. The pack is
/// never larger than its live bytes plus as many dead ones — or the
/// compaction floor, if that is more — plus what one step appends; and the
/// directory never holds anything but the pack.
#[test]
fn two_hundred_edits_and_reverts_leave_a_bounded_pack() {
    let dir = std::env::temp_dir().join(format!("ompdart-restart-growth-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut rng = 0x5eed_u64;
    let mut next_file = 2;
    let mut model: Model = vec![(0, Vec::new()), (1, Vec::new()), (2, Vec::new())];
    for _ in 0..12 {
        edit_model(&mut model, &mut rng, &mut next_file);
    }
    let base = render_model(&model);
    let pack = dir.join("ompdart.pack");
    let pack_len = || std::fs::metadata(&pack).map_or(0, |meta| meta.len());
    let (mut largest_step, mut compactions) = (0u64, 0usize);
    for step in 0..200 {
        let inputs = match step % 2 {
            0 => edit_one_body(&base, step / 2, step),
            _ => base.clone(),
        };
        let before = pack_len();
        let run = one_run(2, Some(&dir));
        let warm = run
            .analyze_program(&inputs)
            .expect("the model stays linkable");
        let fresh = one_run(2, None).analyze_program(&inputs).unwrap();
        assert_eq!(unit_outputs(&warm), unit_outputs(&fresh), "step {step}");
        drop(run);
        assert_eq!(cache_listing(&dir), ["ompdart.pack"], "step {step}");

        let len = pack_len();
        if len < before {
            compactions += 1;
        } else {
            largest_step = largest_step.max(len - before);
        }
        // Live bytes: what a full compaction of a copy of the pack keeps.
        let copy = dir.with_extension("copy");
        let _ = std::fs::remove_dir_all(&copy);
        std::fs::create_dir_all(&copy).unwrap();
        std::fs::copy(&pack, copy.join("ompdart.pack")).unwrap();
        let live = ompdart_core::ArtifactStore::open(&copy)
            .gc(u64::MAX)
            .bytes_kept;
        let _ = std::fs::remove_dir_all(&copy);
        let bound = live + live.max(ompdart_core::store::COMPACT_FLOOR_BYTES) + largest_step;
        assert!(
            len <= bound,
            "step {step}: a pack of {len} B holds {live} live B (bound {bound})"
        );
    }
    assert!(
        compactions >= 2,
        "the script must outgrow the floor: {compactions} compaction(s)"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------------
// The JSON kernel against its char-at-a-time references, and no-panic at the
// plan-JSON and wire-frame boundaries
// ---------------------------------------------------------------------------

/// The string writer as it was before it moved bytes in runs: one `push`
/// per character. Kept as the reference the run-scanning writer must equal.
fn reference_write_string(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The string parser as it was before it moved bytes in runs — one decode
/// and `push` per character — over a whole document that must be a single
/// string literal. Errors are `(offset, message)` exactly as `Json::parse`
/// reports them. (Its `\u` digits are read strictly, like the fixed kernel;
/// the parent's went through `from_str_radix` and took a sign.)
fn reference_parse_string(text: &str) -> Result<String, (usize, &'static str)> {
    fn hex4(bytes: &[u8], pos: &mut usize) -> Result<u32, (usize, &'static str)> {
        if *pos + 4 > bytes.len() {
            return Err((*pos, "truncated \\u escape"));
        }
        let mut unit = 0;
        for &b in &bytes[*pos..*pos + 4] {
            let digit = (b as char)
                .to_digit(16)
                .ok_or((*pos, "invalid \\u escape"))?;
            unit = unit * 16 + digit;
        }
        *pos += 4;
        Ok(unit)
    }
    let bytes = text.as_bytes();
    let is_ws = |b: u8| matches!(b, b' ' | b'\t' | b'\n' | b'\r');
    let mut pos = bytes.iter().take_while(|&&b| is_ws(b)).count();
    if bytes.get(pos) != Some(&b'"') {
        return Err((pos, "expected a JSON value"));
    }
    pos += 1;
    let mut out = String::new();
    loop {
        let Some(&b) = bytes.get(pos) else {
            return Err((pos, "unterminated string"));
        };
        pos += 1;
        match b {
            b'"' => break,
            b'\\' => {
                let Some(&esc) = bytes.get(pos) else {
                    return Err((pos, "unterminated escape"));
                };
                pos += 1;
                match esc {
                    b'"' => out.push('"'),
                    b'\\' => out.push('\\'),
                    b'/' => out.push('/'),
                    b'n' => out.push('\n'),
                    b'r' => out.push('\r'),
                    b't' => out.push('\t'),
                    b'b' => out.push('\u{0008}'),
                    b'f' => out.push('\u{000c}'),
                    b'u' => {
                        let unit = hex4(bytes, &mut pos)?;
                        let scalar = match unit {
                            0xd800..=0xdbff => {
                                for expected in [b'\\', b'u'] {
                                    if bytes.get(pos) != Some(&expected) {
                                        return Err((pos, "unpaired high surrogate"));
                                    }
                                    pos += 1;
                                }
                                let low = hex4(bytes, &mut pos)?;
                                if !(0xdc00..=0xdfff).contains(&low) {
                                    return Err((pos, "invalid low surrogate"));
                                }
                                0x10000 + ((unit - 0xd800) << 10) + (low - 0xdc00)
                            }
                            0xdc00..=0xdfff => return Err((pos, "unpaired low surrogate")),
                            other => other,
                        };
                        out.push(char::from_u32(scalar).ok_or((pos, "invalid \\u escape"))?);
                    }
                    _ => return Err((pos, "unknown escape")),
                }
            }
            _ => {
                let start = pos - 1;
                let width = match b {
                    0x00..=0x7f => 1,
                    0xc0..=0xdf => 2,
                    0xe0..=0xef => 3,
                    _ => 4,
                };
                let end = (start + width).min(bytes.len());
                match std::str::from_utf8(&bytes[start..end]) {
                    Ok(s) => out.push_str(s),
                    Err(_) => return Err((start, "invalid UTF-8")),
                }
                pos = end;
            }
        }
    }
    pos += bytes[pos..].iter().take_while(|&&b| is_ws(b)).count();
    if pos < bytes.len() {
        return Err((pos, "trailing characters"));
    }
    Ok(out)
}

/// Arbitrary text from a seed: plain runs of every length around the
/// eight-byte scanning step, every escape the writer knows, every control
/// byte, DEL, two- and three-byte characters and astral ones — adjacent in
/// every order, so runs straddle escapes and word boundaries.
fn arbitrary_text(rng: &mut u64) -> String {
    let mut out = String::new();
    for _ in 0..roll(rng, 12) {
        match roll(rng, 8) {
            0 | 1 => {
                for _ in 0..roll(rng, 20) {
                    out.push((b' ' + roll(rng, 95) as u8) as char);
                }
            }
            2 => out.push(['"', '\\', '\n', '\r', '\t', '/'][roll(rng, 6)]),
            3 => out.push(roll(rng, 0x20) as u8 as char),
            4 => out.push('\u{7f}'),
            5 => out.push(['é', 'π', '≈', '\u{fffd}', '\u{80}'][roll(rng, 5)]),
            6 => out.push(['\u{1d465}', '😀', '\u{10ffff}'][roll(rng, 3)]),
            _ => out.push_str("abcdefgh".repeat(roll(rng, 4)).as_str()),
        }
    }
    out
}

/// A string literal as a foreign encoder or a hostile peer might write it:
/// the pieces of [`arbitrary_text`], raw, between quotes, mixed with escape
/// sequences the writer never emits and with malformed ones; sometimes cut
/// short.
fn arbitrary_literal(rng: &mut u64) -> String {
    const ESCAPES: [&str; 16] = [
        "\\/",
        "\\b",
        "\\f",
        "\\n",
        "\\\"",
        "\\\\",
        "\\u00e9",
        "\\u0041",
        "\\ud835\\udc65",
        "\\ud835",
        "\\udc65",
        "\\ud835\\u0041",
        "\\u+041",
        "\\u12",
        "\\x",
        "\\",
    ];
    let mut out = String::from("\"");
    for _ in 0..roll(rng, 6) {
        if roll(rng, 2) == 0 {
            out.push_str(ESCAPES[roll(rng, ESCAPES.len())]);
        } else {
            out.push_str(&arbitrary_text(rng).replace('"', "'"));
        }
    }
    out.push('"');
    if roll(rng, 4) == 0 {
        let mut cut = roll(rng, out.len() + 1);
        while !out.is_char_boundary(cut) {
            cut -= 1;
        }
        out.truncate(cut);
    }
    out
}

/// One wire frame: prefix and payload.
fn frame_of(payload: &str) -> Vec<u8> {
    let mut frame = Vec::new();
    ompdart_server::protocol::write_frame(&mut frame, payload).expect("a Vec takes every byte");
    frame
}

/// Read frames until the stream ends or errs; the property is that this
/// returns at all.
fn drain_frames(bytes: Vec<u8>) -> usize {
    let mut cursor = std::io::Cursor::new(bytes);
    let mut frames = 0;
    while ompdart_server::protocol::read_frame(&mut cursor).is_ok() {
        frames += 1;
    }
    frames
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, .. ProptestConfig::default() })]

    /// `parse(render(s)) == s` for arbitrary strings, and the run-scanning
    /// writer and parser agree with their char-at-a-time references: byte
    /// for byte on what is written, value for value — error offset and
    /// message included — on what is read, also for literals the writer
    /// would never produce.
    #[test]
    fn json_strings_round_trip_and_match_the_char_at_a_time_kernel(seed in 1u64..u64::MAX) {
        use ompdart_core::plan::{Json, PlanJsonError};
        let mut rng = seed;
        let text = arbitrary_text(&mut rng);
        let rendered = Json::Str(text.clone()).render();
        prop_assert_eq!(&rendered, &reference_write_string(&text), "seed {:#x}", seed);
        prop_assert_eq!(Json::parse(&rendered), Ok(Json::Str(text.clone())), "seed {:#x}", seed);
        // As an object key and inside containers the same writer runs.
        let nested = Json::Array(vec![Json::Object(vec![(text.clone(), Json::Str(text))])]);
        prop_assert_eq!(Json::parse(&nested.render()), Ok(nested.clone()), "seed {:#x}", seed);
        prop_assert_eq!(Json::parse(&nested.render_pretty()), Ok(nested), "seed {:#x}", seed);

        let literal = arbitrary_literal(&mut rng);
        let expected = reference_parse_string(&literal)
            .map(Json::Str)
            .map_err(|(offset, message)| PlanJsonError::Syntax { offset, message: message.into() });
        prop_assert_eq!(Json::parse(&literal), expected, "literal {:?}", literal);
    }

    /// Byte mutation at two input boundaries — plan JSON and wire frames:
    /// truncations, flipped and inserted bytes never panic `Json::parse`,
    /// `plans_from_json` or `read_frame`, and whatever still parses renders
    /// to something that parses to the same value.
    #[test]
    fn mutated_plan_json_and_frames_never_panic(
        plans in proptest::collection::vec(plan_strategy(), 1..3),
        seed in 1u64..u64::MAX,
    ) {
        use ompdart_core::plan::{plans_from_json, plans_to_json, plans_to_json_compact, Json};
        let mut rng = seed;
        let documents = [plans_to_json(&plans), plans_to_json_compact(&plans)];
        for document in &documents {
            for _ in 0..24 {
                let mut bytes = document.clone().into_bytes();
                let at = roll(&mut rng, bytes.len());
                match roll(&mut rng, 4) {
                    0 => bytes.truncate(at),
                    1 => bytes[at] ^= 1 << roll(&mut rng, 8),
                    2 => bytes[at] = b"\"\\{}[],:u-0"[roll(&mut rng, 11)],
                    _ => bytes.insert(at, roll(&mut rng, 256) as u8),
                }
                let text = String::from_utf8_lossy(&bytes);
                if let Ok(value) = Json::parse(&text) {
                    prop_assert_eq!(Json::parse(&value.render()), Ok(value), "seed {:#x}", seed);
                }
                let _ = plans_from_json(&text);

                // The same damage to a frame carrying the document, with a
                // second frame behind it.
                let mut frame = frame_of(document);
                frame.extend(frame_of("{}"));
                let at = roll(&mut rng, frame.len());
                match roll(&mut rng, 3) {
                    0 => frame.truncate(at),
                    1 => frame[at] ^= 1 << roll(&mut rng, 8),
                    _ => frame.insert(at, roll(&mut rng, 256) as u8),
                }
                prop_assert!(drain_frames(frame) <= 2);
            }
        }
    }

    /// Byte mutation anywhere in what the frontend reads: the ten ports'
    /// units and expert programs, and a directive seed — code, pragma
    /// bodies, literals, comments and `\` continuations. Edits, deletions,
    /// truncations, insertions and splices land anywhere half the time and
    /// on a byte that switches the lexer's state (`#`, quotes, comment and
    /// continuation marks, brackets) the other half. No mutant panics
    /// `parse_str` or the rendering of its diagnostics, and a `#if` /
    /// `#elif` either has a value or is answered by exactly one warning.
    #[test]
    fn mutated_sources_never_panic(seed in 1u64..u64::MAX) {
        use ompdart_frontend::Severity;
        let mut rng = seed;
        let sources = mutation_seeds();
        for _ in 0..16 {
            let source = sources[roll(&mut rng, sources.len())].as_bytes();
            let sites: Vec<usize> = (0..source.len())
                .filter(|&i| b"#\"'/*\\()[],:\n".contains(&source[i]))
                .collect();
            let mut bytes = source.to_vec();
            for _ in 0..1 + roll(&mut rng, 3) {
                if bytes.is_empty() {
                    bytes.push(b'#');
                }
                let at = match roll(&mut rng, 2) {
                    0 => sites[roll(&mut rng, sites.len())].min(bytes.len() - 1),
                    _ => roll(&mut rng, bytes.len()),
                };
                match roll(&mut rng, 6) {
                    0 => bytes.truncate(at),
                    1 => bytes[at] ^= 1 << roll(&mut rng, 8),
                    2 => bytes[at] = b"()#,\\\"'/*?:~ 0x.\n\r[]{};"[roll(&mut rng, 23)],
                    3 => bytes.insert(at, roll(&mut rng, 256) as u8),
                    4 => {
                        let end = (at + 1 + roll(&mut rng, 8)).min(bytes.len());
                        bytes.drain(at..end);
                    }
                    _ => {
                        let from = roll(&mut rng, source.len());
                        let len = roll(&mut rng, (source.len() - from).min(80) + 1);
                        bytes.splice(at..at, source[from..from + len].iter().copied());
                    }
                }
            }
            let text = String::from_utf8_lossy(&bytes).into_owned();
            let parsed = std::panic::catch_unwind(|| {
                let (file, result) = parse_str("mutant.c", &text);
                result.diagnostics.render_all(&file);
                result.diagnostics
            });
            prop_assert!(parsed.is_ok(), "seed {:#x} panicked on:\n{}", seed, text);
            let diagnostics = parsed.unwrap();
            for (span, word) in conditional_lines(&text) {
                let answers: Vec<_> = diagnostics.iter().filter(|d| d.span == span).collect();
                let unsupported = format!("unsupported #{word} condition; assuming true");
                let ok = match answers[..] {
                    [] => true,
                    [one] if one.message == unsupported => one.severity == Severity::Warning,
                    [one] => word == "elif" && one.message == "#elif without matching #if",
                    _ => false,
                };
                prop_assert!(ok, "seed {:#x}: `#{}` got {:?} in:\n{}", seed, word, answers, text);
            }
        }
    }
}

/// A plan whose strings come from [`arbitrary_text`] (quotes, backslashes,
/// control bytes, non-ASCII) and whose node ids and span bounds reach
/// `u32::MAX`; every vector may be empty, every option `None`.
fn arbitrary_plan(rng: &mut u64) -> MappingPlan {
    fn id(rng: &mut u64) -> NodeId {
        NodeId([0, roll(rng, 1000) as u32, u32::MAX][roll(rng, 3)])
    }
    fn maybe<T>(rng: &mut u64, some: impl FnOnce(&mut u64) -> T) -> Option<T> {
        (roll(rng, 2) == 1).then(|| some(rng))
    }
    fn provenance(rng: &mut u64) -> Provenance {
        let span = maybe(rng, |rng| {
            let end = [roll(rng, 1000) as u32, u32::MAX][roll(rng, 2)];
            Span::new([0, end / 2, end][roll(rng, 3)], end)
        });
        Provenance {
            stage: Stage::ALL[roll(rng, Stage::ALL.len())],
            fact: ProvenanceFact::all()[roll(rng, ProvenanceFact::all().len())],
            span,
            detail: arbitrary_text(rng),
        }
    }
    fn specs<T>(rng: &mut u64, spec: fn(&mut u64) -> T) -> Vec<T> {
        (0..roll(rng, 3)).map(|_| spec(rng)).collect()
    }
    const MAP_TYPES: [MapType; 4] = [MapType::To, MapType::From, MapType::ToFrom, MapType::Alloc];
    MappingPlan {
        function: arbitrary_text(rng),
        region_start: maybe(rng, id),
        region_end: maybe(rng, id),
        attach_to_kernel: maybe(rng, id),
        kernels: specs(rng, id),
        maps: specs(rng, |rng| MapSpec {
            var: arbitrary_text(rng),
            map_type: MAP_TYPES[roll(rng, 4)],
            section_length: maybe(rng, arbitrary_text),
            provenance: provenance(rng),
        }),
        updates: specs(rng, |rng| UpdateSpec {
            var: arbitrary_text(rng),
            direction: [UpdateDirection::To, UpdateDirection::From][roll(rng, 2)],
            anchor: id(rng),
            placement: [Placement::Before, Placement::After][roll(rng, 2)],
            section_length: maybe(rng, arbitrary_text),
            provenance: provenance(rng),
        }),
        firstprivate: specs(rng, |rng| FirstPrivateSpec {
            kernel: id(rng),
            var: arbitrary_text(rng),
            provenance: provenance(rng),
        }),
    }
}

/// The plan encoder writes what the `Json` tree renders from the same
/// document, byte for byte, in both layouts, and what it writes reads back
/// as `plans`: the pretty document equals its parse rendered pretty, the
/// compact one that parse rendered compactly, and both decode to `plans`.
/// A document of each plan on its own holds the same.
fn check_plan_documents(plans: &[MappingPlan]) -> Result<(), String> {
    use ompdart_core::plan::{plans_from_json, plans_to_json, plans_to_json_compact, Json};
    let (pretty, compact) = (plans_to_json(plans), plans_to_json_compact(plans));
    let tree = Json::parse(&pretty).map_err(|e| format!("{e}\n{pretty}"))?;
    if pretty != tree.render_pretty() {
        return Err(format!(
            "pretty document differs from the tree's:\n{pretty}"
        ));
    }
    if compact != tree.render() {
        return Err(format!(
            "compact document differs from the tree's:\n{compact}"
        ));
    }
    for document in [&pretty, &compact] {
        if plans_from_json(document).as_deref() != Ok(plans) {
            return Err(format!(
                "document does not decode to its plans:\n{document}"
            ));
        }
    }
    for plan in plans {
        let one = std::slice::from_ref(plan);
        let json = plans_to_json(one);
        let tree = Json::parse(&json).map_err(|e| format!("{e}\n{json}"))?;
        if json != tree.render_pretty() || plans_from_json(&json).as_deref() != Ok(one) {
            return Err(format!("plan document diverged:\n{json}"));
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, .. ProptestConfig::default() })]

    /// The plan encoder agrees with the tree and round-trips on plans with
    /// hostile strings and extreme ids.
    #[test]
    fn plan_writer_matches_the_tree_and_round_trips(seed in 1u64..u64::MAX) {
        let mut rng = seed;
        let plans: Vec<MappingPlan> = (0..roll(&mut rng, 4)).map(|_| arbitrary_plan(&mut rng)).collect();
        if let Err(e) = check_plan_documents(&plans) {
            return Err(TestCaseError::fail(format!("seed {seed:#x}: {e}")));
        }
    }
}

/// The same over real plans: every unit of the ten ports and of a
/// 200-unit corpus, through the analyses' own
/// renderings (`plans_json`, and `plans_json_compact` as the daemon splices
/// it) as well.
#[test]
fn plan_writer_matches_the_tree_on_ports_and_corpus() {
    use ompdart_core::plan::Json;
    let programs = (ompdart_suite::experiment::ports().into_iter())
        .map(|port| port.units)
        .chain([ompdart_suite::corpus::generate(200, 42)]);
    let mut documents = 0;
    for units in programs.collect::<Vec<_>>() {
        let program = Ompdart::new().analyze_program(&units).expect("analysis");
        for unit in &program.units {
            let plans = &unit.plans.plans;
            check_plan_documents(plans).unwrap_or_else(|e| panic!("{}: {e}", unit.unit().name()));
            let tree = Json::parse(&unit.plans_json()).unwrap();
            assert_eq!(
                unit.plans_json(),
                tree.render_pretty(),
                "{}",
                unit.unit().name()
            );
            assert_eq!(
                unit.plans_json_compact(),
                tree.render(),
                "{}",
                unit.unit().name()
            );
            documents += 1;
        }
    }
    assert_eq!(documents, 212);
}

/// What `mutated_sources_never_panic` damages: every unit and expert
/// program of the ten ports, and the directive seed.
fn mutation_seeds() -> Vec<String> {
    let mut seeds = vec![DIRECTIVE_SEED.to_string()];
    for port in ompdart_suite::experiment::ports() {
        seeds.extend(port.units.into_iter().map(|(_, source)| source));
        seeds.push(port.expert);
    }
    seeds
}

/// The span and word of each line of `text` that starts (after blanks) with
/// `#if` or `#elif`: from the `#` to the first newline no `\` continues.
fn conditional_lines(text: &str) -> Vec<(Span, &'static str)> {
    let bytes = text.as_bytes();
    let mut lines = Vec::new();
    for line in std::iter::once(0).chain(
        (0..bytes.len())
            .filter(|&i| bytes[i] == b'\n')
            .map(|i| i + 1),
    ) {
        let hash = line
            + bytes[line..]
                .iter()
                .take_while(|b| matches!(b, b' ' | b'\t'))
                .count();
        if bytes.get(hash) != Some(&b'#') {
            continue;
        }
        let name = hash
            + 1
            + bytes[hash + 1..]
                .iter()
                .take_while(|b| matches!(b, b' ' | b'\t'))
                .count();
        let len = bytes[name..]
            .iter()
            .take_while(|b| b.is_ascii_alphanumeric() || **b == b'_')
            .count();
        let word = match &bytes[name..name + len] {
            b"if" => "if",
            b"elif" => "elif",
            _ => continue,
        };
        let mut end = name + len;
        while end < bytes.len() {
            match bytes[end] {
                b'\\' if bytes.get(end + 1) == Some(&b'\n') => end += 2,
                b'\\' if bytes[end + 1..].starts_with(b"\r\n") => end += 3,
                b'\n' => break,
                _ => end += 1,
            }
        }
        lines.push((Span::new(hash as u32, end as u32), word));
    }
    lines
}

/// The directive seed of `mutated_sources_never_panic`: every directive the
/// preprocessor evaluates, and function-like calls in subscripts, bounds and
/// host code.
const DIRECTIVE_SEED: &str = "\
#include <stdio.h>
#define N 64
#define IDX(i, j) ((i) * 2 + (j))
#define MIN(a, b) ((a) < (b) ? (a) : (b))
#define EMPTY
#if 0x0 || defined(EMPTY) && !defined NOPE
#define LEN (N * 2)
#elif (N >> 3) == 8 && MIN(IDX(1, 1), 4) == 3
#define LEN 128
#else
#define LEN 4
#endif
#undef EMPTY
#ifdef EMPTY
#error unreachable
#endif
double a[LEN];
int main() {
  #pragma omp target teams distribute parallel for
  for (int i = 0; i < MIN(N, 64); i++) {
    a[IDX(i, 0)] = i * 2.0;
    a[IDX(i, MIN(1, i + 1))] = i + 1.0;
  }
  double s = 0.0;
  for (int i = 0; i < LEN; i++) s += a[MIN(i, LEN - 1)];
  printf(\"%f\\n\", s);
  return 0;
}
";

/// Nesting exactly at the parser's depth cap parses, one level more is a
/// syntax error (never a stack overflow) — for arrays, objects and a mix,
/// through `Json::parse`, `plans_from_json` and a frame's payload alike.
#[test]
fn nesting_at_and_past_the_depth_cap() {
    use ompdart_core::plan::{plans_from_json, Json, PlanJsonError};
    const MAX_DEPTH: usize = 128;
    let nest = |depth: usize, mixed: bool| {
        let mut text = String::new();
        for level in 0..depth {
            text.push_str(if mixed && level % 2 == 0 {
                "{\"k\":"
            } else {
                "["
            });
        }
        text.push('1');
        for level in (0..depth).rev() {
            text.push(if mixed && level % 2 == 0 { '}' } else { ']' });
        }
        text
    };
    for mixed in [false, true] {
        let at = nest(MAX_DEPTH, mixed);
        assert!(Json::parse(&at).is_ok(), "depth {MAX_DEPTH} must parse");
        assert!(matches!(
            plans_from_json(&at),
            Err(PlanJsonError::Schema(_))
        ));
        let past = nest(MAX_DEPTH + 1, mixed);
        for result in [
            Json::parse(&past).map(|_| ()),
            plans_from_json(&past).map(|_| ()),
        ] {
            match result {
                Err(PlanJsonError::Syntax { message, .. }) => {
                    assert_eq!(message, "nesting too deep")
                }
                other => panic!("depth {} must be refused, got {other:?}", MAX_DEPTH + 1),
            }
        }
        let far_past = nest(100_000, mixed);
        assert!(Json::parse(&far_past).is_err());
        assert_eq!(drain_frames(frame_of(&far_past)), 1);
    }
}

/// A kernel nested almost as deep as the parser allows — blocks in `main`,
/// parentheses in a subscript — is analysed, rewritten and simulated on a
/// test thread's stack with its output preserved; one level of blocks more
/// than the parser allows is a parse error.
#[test]
fn source_nested_near_the_parsers_cap_is_analysed() {
    let program = |blocks: usize| {
        format!(
            "double a[8];\nint main() {{\n{}\n  #pragma omp target teams distribute parallel for\n  \
             for (int i = 0; i < 8; i++) a[{}i{}] = i;\n{}\n  printf(\"%f\\n\", a[3]);\n  \
             return 0;\n}}\n",
            "{".repeat(blocks),
            "(".repeat(20),
            ")".repeat(20),
            "}".repeat(blocks)
        )
    };
    let src = program(180);
    let analysis = Ompdart::new().analyze("deep.c", &src).expect("analysed");
    let before = simulate_source(&src, SimConfig::default()).unwrap();
    let after = simulate_source(analysis.rewritten_source(), SimConfig::default()).unwrap();
    assert_eq!(before.output, after.output);
    assert!(Ompdart::new().analyze("deeper.c", &program(256)).is_err());
}

// ---------------------------------------------------------------------------
// Outlining: moving code into a function changes no output and no cost
// ---------------------------------------------------------------------------

/// A [`Piece`] program with the contiguous run `run` of its pieces moved out
/// of `main` into `phase`, which reaches the two arrays as globals or, with
/// `params`, through pointer parameters.
#[derive(Clone, Debug)]
struct Outlined {
    pieces: Vec<Piece>,
    run: std::ops::Range<usize>,
    params: bool,
}

impl Outlined {
    /// The outlined program's two units in link order: `phase` alone, then
    /// the globals and `main`. Concatenated they are the same program as one
    /// unit (each starts with the guarded header).
    fn units(&self) -> Vec<(String, String)> {
        let (signature, call, rename): (_, _, &[(&str, &str)]) = match self.params {
            true => (
                "void phase(int *d, int *a)",
                "phase(data, aux);",
                &[("data", "d"), ("aux", "a")],
            ),
            false => ("void phase()", "phase();", &[]),
        };
        let lines = |pieces: &[Piece]| -> usize {
            let rendered = pieces.iter().map(Piece::render);
            rendered.map(|text| text.matches('\n').count()).sum()
        };
        let prologue = program_prologue(&format!("{signature};\n"));
        let start = prologue.matches('\n').count() + lines(&self.pieces[..self.run.start]);
        let end = start + lines(&self.pieces[self.run.clone()]);
        let inline = render_program(&self.pieces).replacen(&program_prologue(""), &prologue, 1);
        let (function, rest) =
            ompdart_suite::outline::outline_lines(&inline, start..end, signature, call, rename);
        let header = &rest[..rest.find("#endif\n").expect("guarded header") + "#endif\n".len()];
        vec![
            ("pieces_phase.c".to_string(), format!("{header}{function}")),
            ("pieces_main.c".to_string(), rest),
        ]
    }

    /// `main` keeps a kernel of its own before the call (the epilogue's
    /// follows it), so the region it holds has the extent the inline
    /// program's has and the two mappings must cost the same.
    fn keeps_main_region(&self) -> bool {
        self.pieces[..self.run.start].iter().any(Piece::has_kernel)
    }

    /// The next smaller cases: one piece dropped, or the run one shorter.
    fn smaller(&self) -> Vec<Outlined> {
        let mut out = Vec::new();
        for at in 0..self.pieces.len() {
            let mut pieces = self.pieces.clone();
            pieces.remove(at);
            let shift = |bound: usize| bound - usize::from(at < bound);
            let run = shift(self.run.start)..shift(self.run.end);
            if !run.is_empty() {
                out.push(Outlined {
                    pieces,
                    run,
                    ..self.clone()
                });
            }
        }
        if self.run.len() > 1 {
            let (start, end) = (self.run.start, self.run.end);
            for run in [start + 1..end, start..end - 1] {
                out.push(Outlined {
                    run,
                    ..self.clone()
                });
            }
        }
        out
    }
}

fn outlined_strategy() -> impl Strategy<Value = Outlined> {
    (
        proptest::collection::vec(piece_strategy(), 2..7),
        0usize..64,
        0usize..64,
        0u8..2,
    )
        .prop_map(|(pieces, from, len, params)| {
            let start = from % pieces.len();
            let end = start + 1 + len % (pieces.len() - start);
            Outlined {
                pieces,
                run: start..end,
                params: params == 1,
            }
        })
}

/// What the simulator says of `source`: printed lines, bytes, calls.
fn simulated(source: &str) -> Result<(Vec<String>, u64, u64), String> {
    let run = simulate_source(source, SimConfig::default())
        .map_err(|e| format!("simulation failed: {e}\n{source}"))?;
    let profile = run.profile;
    Ok((run.output, profile.total_bytes(), profile.total_calls()))
}

/// `source` with its pragmas removed: what host-only execution runs.
fn host_only(source: &str) -> String {
    (source.split_inclusive('\n'))
        .filter(|line| !line.trim_start().starts_with("#pragma omp"))
        .collect()
}

/// A cache directory of this test's own, removed when dropped.
struct ScratchDir(std::path::PathBuf);

impl ScratchDir {
    fn new(tag: &str) -> ScratchDir {
        static NEXT: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
        let n = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let name = format!("ompdart-{tag}-{}-{n}", std::process::id());
        ScratchDir(std::env::temp_dir().join(name))
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The outlining oracle for one case, over every option set and round kind:
///
/// * the mapped program prints what host-only execution (the program with
///   its pragmas removed) prints;
/// * it moves no more bytes than the unmapped program's implicit `tofrom`;
/// * the linked rewrites — of a cold round, a warm round, and a restart
///   through a cache directory, at 1, 2 and 8 threads — are the rewrite
///   of the two units' concatenation, byte for byte;
/// * where `main` keeps its region, the mapping moves the bytes, in the
///   calls, that the inline program's mapping moves.
fn check_outlined(case: &Outlined) -> Result<(), String> {
    let units = case.units();
    let concat: String = units.iter().map(|(_, source)| source.as_str()).collect();
    let expected = simulated(&host_only(&concat))?.0;
    let (unmapped_output, unmapped_bytes, _) = simulated(&concat)?;
    if unmapped_output != expected {
        return Err(format!("the simulator disagrees with itself on\n{concat}"));
    }
    let inline = render_program(&case.pieces);
    for pessimistic in [false, true] {
        let at = format!("pessimistic globals {pessimistic}");
        let tool = || Ompdart::builder().pessimistic_globals(pessimistic);
        let analyze = |name: &str, source: &str| {
            let analysis = tool().build().analyze(name, source);
            let analysis = analysis.map_err(|e| format!("{at}: {e}\n{source}"))?;
            Ok::<String, String>(analysis.rewritten_source().to_string())
        };
        let mapped = analyze("pieces_one.c", &concat)?;
        for threads in [1usize, 2, 8] {
            let dir = ScratchDir::new("outline");
            let linked = || tool().parallelism(threads).cache_dir(&dir.0).build();
            let session = linked();
            for round in ["cold", "warm", "restart"] {
                let tool = match round {
                    "restart" => linked(),
                    _ => session.clone(),
                };
                let program = tool.analyze_program(&units);
                let program = program.map_err(|e| format!("{at}: {e}\n{concat}"))?;
                if program.concatenated_rewrite() != mapped {
                    return Err(format!(
                        "{at}, {threads} thread(s), {round} round: linked\n{}\n\
                         is not the rewrite of the concatenation\n{mapped}",
                        program.concatenated_rewrite()
                    ));
                }
                if program.stats().unknown_callee_fallbacks != 0 {
                    return Err(format!("{at}: a call fell back\n{concat}"));
                }
            }
        }
        let (output, bytes, calls) = simulated(&mapped)?;
        if output != expected {
            return Err(format!(
                "{at}: the mapping changed the output: {output:?}, host only {expected:?}\n{mapped}"
            ));
        }
        if bytes > unmapped_bytes {
            return Err(format!(
                "{at}: {bytes} B moved, unmapped {unmapped_bytes} B\n{mapped}"
            ));
        }
        if case.keeps_main_region() {
            let inline_mapped = analyze("pieces_inline.c", &inline)?;
            let (_, inline_bytes, inline_calls) = simulated(&inline_mapped)?;
            if (bytes, calls) != (inline_bytes, inline_calls) {
                return Err(format!(
                    "{at}: outlined {bytes} B / {calls} call(s), inline {inline_bytes} B / \
                     {inline_calls} call(s)\n{mapped}\ninline:\n{inline_mapped}"
                ));
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, .. ProptestConfig::default() })]

    /// [`check_outlined`] over generated programs. A failure is minimised —
    /// pieces dropped, the run shortened, while it still fails — so what is
    /// printed is a program of a few lines.
    #[test]
    fn outlining_preserves_output_and_cost(case in outlined_strategy()) {
        if check_outlined(&case).is_err() {
            let minimal = proptest::shrink::minimize(
                case,
                Outlined::smaller,
                |smaller| check_outlined(smaller).is_err(),
            );
            let failure = check_outlined(&minimal).expect_err("the minimal case fails");
            return Err(TestCaseError::fail(format!("{minimal:?}\n{failure}")));
        }
    }
}

/// The same outliner over the two ports whose kernels touch global arrays
/// only: every interior kernel run of `lulesh` and `ace`, moved into a
/// function, costs exactly what the port costs — bytes and calls — and
/// prints what it prints.
#[test]
fn every_fn_variant_of_lulesh_and_ace_costs_what_its_port_costs() {
    for port in ["lulesh", "ace"] {
        let bench = ompdart_suite::by_name(port).unwrap();
        let mapped = |name: &str, source: &str| {
            let analysis = Ompdart::new().analyze(name, source).unwrap();
            assert_eq!(analysis.stats().unknown_callee_fallbacks, 0, "{name}");
            simulated(analysis.rewritten_source()).unwrap()
        };
        let cost = mapped(&bench.unoptimized_file(), bench.unoptimized);
        let variants = ompdart_suite::outline::kernel_run_variants(port, bench.unoptimized);
        for (name, source) in variants {
            assert_eq!(
                mapped(&format!("{name}.c"), &source),
                cost,
                "{name}:\n{source}"
            );
        }
    }
}

// ---------------------------------------------------------------------------
// The checker against the simulator: a mutated mapping that changes the
// output is flagged
// ---------------------------------------------------------------------------

/// Every single-edit mutant of a mapped program's text: one `target update`
/// line dropped, one `map(tofrom:` made `to`, one `map(from:` made `alloc`.
fn mapping_mutants(mapped: &str) -> Vec<String> {
    let lines: Vec<&str> = mapped.split_inclusive('\n').collect();
    let mut out = Vec::new();
    for (at, line) in lines.iter().enumerate() {
        let pragma = line.trim_start();
        let mut with = |replacement: &str| {
            out.push(
                [
                    &lines[..at].concat(),
                    replacement,
                    &lines[at + 1..].concat(),
                ]
                .concat(),
            )
        };
        if pragma.starts_with("#pragma omp target update") {
            with("");
        }
        for (from, to) in [("map(tofrom:", "map(to:"), ("map(from:", "map(alloc:")] {
            if line.contains(from) {
                with(&line.replacen(from, to, 1));
            }
        }
    }
    out
}

/// How the mutants of the programs seen so far fared.
#[derive(Default)]
struct MutantTally {
    mutants: usize,
    changed_output: usize,
    changed_and_flagged: usize,
    flagged_unchanged: usize,
}

/// `source` mapped under every option set verifies clean, and each mutant of
/// the mapping that makes the simulator print something other than host-only
/// execution does has at least one stale read reported.
fn check_mutants(source: &str, tally: &mut MutantTally) -> Result<(), String> {
    let expected = simulated(&host_only(source))?.0;
    let verified = |text: &str| {
        let report = ompdart_core::verify_source("mapped.c", text);
        report.map_err(|e| format!("does not parse: {e:?}\n{text}"))
    };
    for pessimistic in [false, true] {
        let at = format!("pessimistic globals {pessimistic}");
        let tool = Ompdart::builder().pessimistic_globals(pessimistic);
        let analysis = tool.build().analyze("pieces.c", source);
        let analysis = analysis.map_err(|e| format!("{at}: {e}\n{source}"))?;
        let mapped = analysis.rewritten_source();
        let report = verified(mapped)?;
        if !report.is_clean() {
            let reads = report.stale_reads;
            return Err(format!(
                "{at}: the rewrite is flagged: {reads:#?}\n{mapped}"
            ));
        }
        for mutant in mapping_mutants(mapped) {
            // A read of device memory nothing was copied into may also
            // stop the simulator: that is a changed output too.
            let changed = simulated(&mutant).map_or(true, |run| run.0 != expected);
            let flagged = !verified(&mutant)?.is_clean();
            tally.mutants += 1;
            tally.changed_output += usize::from(changed);
            tally.changed_and_flagged += usize::from(changed && flagged);
            tally.flagged_unchanged += usize::from(flagged && !changed);
            if changed && !flagged {
                return Err(format!(
                    "{at}: this mutant prints something else than {expected:?} and \
                     verifies clean\n{mutant}\nits origin:\n{mapped}"
                ));
            }
        }
    }
    Ok(())
}

/// [`check_mutants`] over generated programs, inline and with a run of pieces
/// outlined into `phase` (the two units concatenated in link order): the
/// static checker has no false negative on the generator's language, with the
/// simulator as the judge. Findings on a mutant whose output did not change
/// (the mutated clause was dead, or the checker is conservative) are counted,
/// not asserted.
#[test]
fn a_mutated_mapping_that_changes_the_output_is_flagged() {
    let mut rng = proptest::test_runner::TestRng::deterministic("mutated_mappings");
    let mut tally = MutantTally::default();
    for case in 0..24 {
        let outlined = outlined_strategy().generate(&mut rng);
        let units = outlined.units();
        let concat: String = units.iter().map(|(_, source)| source.as_str()).collect();
        for source in [render_program(&outlined.pieces), concat] {
            if let Err(failure) = check_mutants(&source, &mut tally) {
                panic!("case {case}, {outlined:?}\n{failure}");
            }
        }
    }
    let MutantTally {
        mutants,
        changed_output,
        changed_and_flagged,
        flagged_unchanged,
    } = tally;
    println!(
        "mapping mutants: {mutants} tried, {changed_output} changed the output, \
         {changed_and_flagged} of those flagged, {flagged_unchanged} flagged without a changed output"
    );
    assert!(changed_output > 0, "no mutant changed any output");
}
