//! Golden tests for the whole-program link stage.
//!
//! The defining property: analyzing `k` translation units as one *linked
//! program* rewrites each unit byte-identically to analyzing the
//! concatenation of all `k` unit sources as a single translation unit —
//! with zero pessimistic unknown-callee fallbacks for intra-program calls.
//! On top of that sit the invalidation guarantees: an interface-preserving
//! edit to one unit re-plans only that unit, an interface-*changing* edit
//! re-plans exactly the units whose plans can read the change, and the first
//! edit after a persistent-store warm start re-plans the edited unit alone.

use ompdart_core::{
    AnalysisSession, Ompdart, ProgramDriver, ProgramError, ProvenanceFact, UnitServe,
};
use ompdart_suite::{lulesh_multifile, lulesh_multifile_concat};
use std::sync::Arc;

/// Counter deltas between two cache-stats snapshots — functions planned,
/// functions the relink re-seeded — for the assertions below.
fn delta(before: ompdart_core::CacheStats, after: ompdart_core::CacheStats) -> (u64, u64) {
    (
        after.function_plan_misses - before.function_plan_misses,
        after.relink_reseeded_functions - before.relink_reseeded_functions,
    )
}

const HEADER: &str = "\
#ifndef SHARED_H
#define SHARED_H
#define N 32
extern double data[N];
extern double out[N];
void scale(double *p, int n);
double checksum(const double *p, int n);
#endif
";

fn unit_main() -> String {
    format!(
        "{HEADER}double data[N];
double out[N];
int main() {{
  for (int i = 0; i < N; i++) data[i] = i * 0.5;
  for (int it = 0; it < 3; it++) {{
    #pragma omp target teams distribute parallel for
    for (int i = 0; i < N; i++) out[i] = data[i] * 2.0;
    scale(out, N);
  }}
  printf(\"%f\\n\", checksum(out, N));
  return 0;
}}
"
    )
}

fn unit_helpers() -> String {
    // `scale` only *writes* its argument: strictly weaker than the
    // pessimistic read+write fallback, so linking observably improves the
    // caller's mapping (no `update from` before the call).
    format!(
        "{HEADER}void scale(double *p, int n) {{
  for (int i = 0; i < n; i++) p[i] = 0.25 * n;
}}
double checksum(const double *p, int n) {{
  double s = 0.0;
  for (int i = 0; i < n; i++) s = s + p[i];
  return s;
}}
"
    )
}

fn two_unit_program() -> Vec<(String, String)> {
    vec![
        ("prog_main.c".to_string(), unit_main()),
        ("prog_helpers.c".to_string(), unit_helpers()),
    ]
}

fn owned(units: &[(&str, &str)]) -> Vec<(String, String)> {
    units
        .iter()
        .map(|(n, s)| (n.to_string(), s.to_string()))
        .collect()
}

/// Linked multi-unit analysis == single-unit analysis of the concatenation,
/// byte for byte, with zero unknown-callee fallbacks.
#[test]
fn linked_program_matches_concatenated_single_unit() {
    let inputs = two_unit_program();
    let driver = ProgramDriver::new();
    let program = driver.analyze_program(&inputs).expect("link failed");

    let concat_src: String = inputs.iter().map(|(_, s)| s.as_str()).collect();
    let single = Ompdart::new();
    let cold = single
        .analyze("concat.c", &concat_src)
        .expect("concat failed");

    let linked_concat = program.concatenated_rewrite();
    assert_eq!(
        linked_concat, cold.rewrite.source,
        "linked rewrite must equal the single-unit rewrite of the concatenation"
    );

    // Every intra-program call resolved to a real summary.
    assert_eq!(program.stats().unknown_callee_fallbacks, 0);
    // ...while the same units analyzed alone fall back.
    let alone = Ompdart::new();
    let solo = alone
        .analyze(&inputs[0].0, &inputs[0].1)
        .expect("solo failed");
    assert!(
        solo.plans.stats.unknown_callee_fallbacks > 0,
        "the main unit analyzed alone must hit the fallback"
    );
    assert_ne!(
        solo.rewrite.source, program.units[0].rewrite.source,
        "linking must actually change the main unit's mapping"
    );
}

/// Acceptance golden: the three-file lulesh port's linked rewrite is
/// byte-identical to the single-file (concatenated) version, with zero
/// pessimistic fallbacks for intra-program calls.
#[test]
fn lulesh_multifile_golden() {
    let inputs = owned(&lulesh_multifile());
    let driver = ProgramDriver::new();
    let program = driver.analyze_program(&inputs).expect("link failed");

    let concat = lulesh_multifile_concat();
    let cold = Ompdart::new()
        .analyze("lulesh_mf_concat.c", &concat)
        .expect("concat analysis failed");
    assert_eq!(
        program.concatenated_rewrite(),
        cold.rewrite.source,
        "linked lulesh must equal the concatenated single-unit rewrite"
    );
    let stats = program.stats();
    assert_eq!(
        stats.unknown_callee_fallbacks, 0,
        "no intra-program call may fall back to the pessimistic assumption"
    );
    assert_eq!(stats.kernels, 15, "the port keeps lulesh's 15 kernels");

    // The driver's mapping decisions record their cross-unit origins: the
    // `reduce_dtc` read-only summary from the EOS unit decides an update.
    let main_unit = &program.units[2];
    let cross_unit_detail = main_unit
        .plans
        .plans
        .iter()
        .flat_map(|p| p.provenances())
        .any(|p| p.detail.contains("cross-unit summary of `reduce_dtc`"));
    assert!(
        cross_unit_detail,
        "a provenance in the driver unit must cite the cross-unit summary:\n{}",
        main_unit.explain()
    );

    // The driver unit analyzed alone hits the fallback.
    let solo = Ompdart::new().analyze(&inputs[2].0, &inputs[2].1).unwrap();
    assert!(solo.plans.stats.unknown_callee_fallbacks > 0);
}

/// A one-unit program is the degenerate case: a unit analyzed alone is the
/// unit linked alone, so `analyze` and a one-unit `analyze_program` agree on
/// everything they produce — rewrite, plans, statistics, diagnostics and
/// `explain` — for every single-unit port, every `lulesh_mf` unit and a
/// sample of the generated corpus, under every option combination.
#[test]
fn single_unit_program_is_degenerate() {
    let mut inputs: Vec<(String, String)> = (ompdart_suite::all_benchmarks().into_iter())
        .map(|bench| (bench.unoptimized_file(), bench.unoptimized.to_string()))
        .collect();
    inputs.extend(owned(&lulesh_multifile()));
    inputs.extend(
        ompdart_suite::corpus::generate(30, 7)
            .into_iter()
            .step_by(3),
    );
    inputs.push(("only.c".to_string(), unit_main()));
    for pessimistic_globals in [false, true] {
        for (name, source) in &inputs {
            let at = format!("`{name}` under pessimistic_globals={pessimistic_globals}");
            // Two tools: neither may serve the other's plans.
            let tool = || {
                Ompdart::builder()
                    .pessimistic_globals(pessimistic_globals)
                    .build()
            };
            let alone = tool().analyze(name, source).unwrap();
            let program = tool().analyze_program(&[(name.clone(), source.clone())]);
            let linked = &program.unwrap().units[0];
            assert_eq!(linked.rewrite.source, alone.rewrite.source, "{at}");
            assert_eq!(linked.plans.plans, alone.plans.plans, "{at}");
            assert_eq!(linked.plans.stats, alone.plans.stats, "{at}");
            assert_eq!(
                format!("{:?}", linked.diagnostics()),
                format!("{:?}", alone.diagnostics()),
                "{at}"
            );
            assert_eq!(linked.explain(), alone.explain(), "{at}");
        }
    }
}

/// A warm repeat of `Ompdart::analyze` on one unit is the round-level fast
/// path of its one-unit program: the same analysis back, one fast-path hit,
/// no unit-table analysis lookup and no relink.
#[test]
fn a_warm_one_unit_analysis_is_the_round_fast_path() {
    let tool = Ompdart::new();
    let source = unit_main();
    let cold = tool.analyze("only.c", &source).unwrap();
    let before = tool.session().cache_stats();
    let warm = tool.analyze("only.c", &source).unwrap();
    let moved = tool.session().cache_stats() - before;
    assert!(Arc::ptr_eq(&cold, &warm));
    assert_eq!(
        (
            moved.fast_path_hits,
            moved.analysis_hits,
            moved.analysis_misses
        ),
        (1, 0, 0),
        "{moved:?}"
    );
    assert_eq!(
        (moved.relink_reseeded_functions, moved.relink_touched_units),
        (0, 0),
        "{moved:?}"
    );
    assert_eq!(
        moved.parse_misses + moved.function_plan_misses,
        0,
        "{moved:?}"
    );
}

/// An interface-preserving edit to one unit re-plans that unit (its two
/// functions); every other unit is served from the linked cache without
/// planning anything.
#[test]
fn interface_preserving_edit_replans_only_the_edited_unit() {
    let inputs = owned(&lulesh_multifile());
    let session = Arc::new(AnalysisSession::new());
    let driver = ProgramDriver::with_session(Arc::clone(&session));
    driver.analyze_program(&inputs).expect("cold link failed");

    // A comment inside `update_eos`'s body: content changes, the exported
    // interface (prototypes, summaries, referenced vars) does not.
    let mut edited = inputs.clone();
    edited[1].1 = edited[1].1.replacen(
        "e[i] += (p[i] + q[i])",
        "/* tweak */ e[i] += (p[i] + q[i])",
        1,
    );
    assert_ne!(edited[1].1, inputs[1].1);

    let before = session.cache_stats();
    let program = driver.analyze_program(&edited).expect("warm link failed");
    let after = session.cache_stats();

    let moved = after - before;
    assert_eq!(
        (moved.analysis_misses, moved.function_plan_misses),
        (1, 2),
        "only the EOS unit may be re-planned: {moved:?}"
    );
    assert_eq!(program.served[0], UnitServe::Cached, "mesh unit untouched");
    assert_eq!(
        program.served[2],
        UnitServe::Cached,
        "driver unit untouched"
    );
    assert_eq!(program.served[1], UnitServe::Planned);

    // The incremental result equals a cold analysis of the edited program.
    let cold = ProgramDriver::new().analyze_program(&edited).unwrap();
    assert_eq!(program.concatenated_rewrite(), cold.concatenated_rewrite());
}

/// An interface-*changing* edit (the helper turns from reader into writer)
/// re-plans the dependent unit — exactly once — while
/// units that never call into the edited unit keep their whole analyses:
/// the imports fingerprint is dependency-aware, so only the import cone
/// even re-probes the caches.
#[test]
fn interface_change_replans_dependents_in_other_units() {
    let inputs = owned(&lulesh_multifile());
    let session = Arc::new(AnalysisSession::new());
    let driver = ProgramDriver::with_session(Arc::clone(&session));
    driver.analyze_program(&inputs).expect("cold link failed");

    // `reduce_dtc` now also writes its argument: its exported summary (and
    // therefore the EOS unit's interface) changes.
    let mut edited = inputs.clone();
    edited[1].1 = edited[1].1.replacen(
        "if (d[i] < mindt) { mindt = d[i]; }",
        "if (d[i] < mindt) { mindt = d[i]; d[i] = mindt; }",
        1,
    );
    assert_ne!(edited[1].1, inputs[1].1);

    let before = session.cache_stats();
    let program = driver.analyze_program(&edited).expect("warm link failed");
    let after = session.cache_stats();

    // Re-planned: the EOS unit (edited: `reduce_dtc` and `update_eos`)
    // and the driver unit (`main`, the caller in another unit). The mesh
    // unit names no EOS-unit callee, so its imported surface is unchanged
    // and the whole unit rides the identity fast path.
    let moved = after - before;
    assert_eq!(
        (moved.analysis_misses, moved.function_plan_misses),
        (2, 3),
        "exactly the edited unit and its cross-unit caller's re-plan: {moved:?}"
    );
    assert_eq!(program.served[1], UnitServe::Planned);
    assert_eq!(program.served[2], UnitServe::Planned);
    assert_eq!(
        program.served[0],
        UnitServe::Cached,
        "the mesh unit observes nothing from the EOS unit"
    );

    let cold = ProgramDriver::new().analyze_program(&edited).unwrap();
    assert_eq!(program.concatenated_rewrite(), cold.concatenated_rewrite());
}

/// The incremental core, end to end on a three-unit program: a
/// one-function edit re-plans **exactly its unit** (here the one-function
/// driver unit), the incremental relink re-seeds only that function's
/// call-graph cone (here: just `main`, which nobody calls), and the result
/// is byte-identical to a cold link of the edited program.
#[test]
fn one_function_edit_misses_one_plan_and_reseeds_its_cone() {
    let inputs = owned(&lulesh_multifile());
    let session = Arc::new(AnalysisSession::new());
    let driver = ProgramDriver::with_session(Arc::clone(&session));
    driver.analyze_program(&inputs).expect("cold link failed");

    // A *summary-changing* edit inside `main` (unit 2): the host write of
    // `work` is new in main's local summary, so the relink must re-derive
    // main — and only main, since no function calls it.
    let mut edited = inputs.clone();
    edited[2].1 = edited[2].1.replacen(
        "double esum = 0.0;",
        "double esum = 0.0;\n  work[0] = work[0];",
        1,
    );
    assert_ne!(edited[2].1, inputs[2].1);

    let before = session.cache_stats();
    let program = driver.analyze_program(&edited).expect("warm link failed");
    let after = session.cache_stats();
    let (plan_misses, reseeded) = delta(before, after);
    assert_eq!((after - before).analysis_misses, 1, "only the edited unit");
    assert_eq!(
        plan_misses, 1,
        "only the edited unit's one function re-plans"
    );
    assert_eq!(
        reseeded, 1,
        "the relink must re-seed exactly main's call-graph cone (main alone)"
    );

    let cold = ProgramDriver::new().analyze_program(&edited).unwrap();
    assert_eq!(
        program.concatenated_rewrite(),
        cold.concatenated_rewrite(),
        "incremental relink must be byte-identical to a cold link"
    );
    assert_eq!(program.link_passes, cold.link_passes);

    // An interface-preserving comment edit changes no local summary value:
    // the relink re-seeds *nothing* (the edited unit is summarized again,
    // but every seed comes out as it was).
    let mut commented = edited.clone();
    commented[1].1 = commented[1].1.replacen(
        "e[i] += (p[i] + q[i])",
        "/* tweak */ e[i] += (p[i] + q[i])",
        1,
    );
    let before = session.cache_stats();
    let program = driver.analyze_program(&commented).expect("relink failed");
    let after = session.cache_stats();
    let (plan_misses, reseeded) = delta(before, after);
    assert_eq!((after - before).analysis_misses, 1);
    assert_eq!(plan_misses, 2, "the EOS unit's two functions");
    assert_eq!(
        reseeded, 0,
        "a value-preserving edit must not re-seed the fixed point"
    );
    let cold = ProgramDriver::new().analyze_program(&commented).unwrap();
    assert_eq!(program.concatenated_rewrite(), cold.concatenated_rewrite());

    // An unchanged relink re-seeds nothing and misses nothing.
    let before = session.cache_stats();
    driver.analyze_program(&commented).expect("relink failed");
    let after = session.cache_stats();
    assert_eq!(delta(before, after), (0, 0));
}

/// An edit that changes a *callee's* summary re-seeds the callee plus its
/// transitive callers — the reverse call-graph cone — and nothing else.
#[test]
fn relink_reseeds_the_reverse_call_graph_cone() {
    let inputs = owned(&lulesh_multifile());
    let session = Arc::new(AnalysisSession::new());
    let driver = ProgramDriver::with_session(Arc::clone(&session));
    driver.analyze_program(&inputs).expect("cold link failed");

    // `update_eos` (EOS unit) gains a host write of `e`: its summary
    // changes, and `main` (driver unit) calls it. Cone = {update_eos, main}.
    let mut edited = inputs.clone();
    edited[1].1 = edited[1].1.replacen(
        "void update_eos() {",
        "void update_eos() {\n  e[0] = e[0];",
        1,
    );
    assert_ne!(edited[1].1, inputs[1].1);

    let before = session.cache_stats();
    let program = driver.analyze_program(&edited).expect("warm link failed");
    let after = session.cache_stats();
    assert_eq!(
        after.relink_reseeded_functions - before.relink_reseeded_functions,
        2,
        "exactly update_eos and its caller main must be re-seeded"
    );
    let cold = ProgramDriver::new().analyze_program(&edited).unwrap();
    assert_eq!(program.concatenated_rewrite(), cold.concatenated_rewrite());
}

/// Cross-unit `static` functions link as unit-private symbols: two units
/// defining a same-named static are no longer rejected as duplicates, each
/// unit's calls resolve to its own static, and the two statics keep
/// independent summaries (one writes its argument, the other only reads
/// it) with zero pessimistic fallbacks.
#[test]
fn same_named_statics_link_as_unit_private_symbols() {
    let header = "\
#ifndef S_H
#define S_H
#define N 32
extern double abuf[N];
extern double bbuf[N];
void run_a();
void run_b();
#endif
";
    let unit_a = format!(
        "{header}double abuf[N];
static void helper(double *p, int n) {{
  for (int i = 0; i < n; i++) p[i] = 0.5;
}}
void run_a() {{
  for (int it = 0; it < 3; it++) {{
    #pragma omp target teams distribute parallel for
    for (int i = 0; i < N; i++) abuf[i] += 1.0;
    helper(abuf, N);
  }}
}}
"
    );
    let unit_b = format!(
        "{header}double bbuf[N];
double bsum;
static void helper(double *p, int n) {{
  for (int i = 0; i < n; i++) bsum = bsum + p[i];
}}
void run_b() {{
  for (int it = 0; it < 3; it++) {{
    #pragma omp target teams distribute parallel for
    for (int i = 0; i < N; i++) bbuf[i] += 2.0;
    helper(bbuf, N);
  }}
}}
"
    );
    let inputs = vec![("sa.c".to_string(), unit_a), ("sb.c".to_string(), unit_b)];

    let driver = ProgramDriver::new();
    let program = driver.link(&inputs).expect("statics must link");

    // Independent summaries under unit-private symbols.
    let a = program
        .linked
        .summary("helper@sa.c")
        .expect("sa.c's static must be summarized");
    assert!(a.param_effects[0].host_write(), "sa.c's helper writes");
    assert!(!a.param_effects[0].host_read(), "sa.c's helper never reads");
    let b = program
        .linked
        .summary("helper@sb.c")
        .expect("sb.c's static must be summarized");
    assert!(b.param_effects[0].host_read(), "sb.c's helper reads");
    assert!(
        !b.param_effects[0].host_write(),
        "sb.c's helper never writes"
    );
    assert!(
        program.linked.summary("helper").is_none(),
        "no unit may export a plain `helper` symbol"
    );

    // Each unit's calls resolved to its own static: no pessimistic
    // fallbacks anywhere, and the full analysis goes through cleanly.
    let analysis = driver.analyze_program(&inputs).expect("analyze failed");
    assert_eq!(analysis.stats().unknown_callee_fallbacks, 0);
    let a_rewrite = &analysis.units[0].rewrite.source;
    let b_rewrite = &analysis.units[1].rewrite.source;
    assert!(a_rewrite.contains("#pragma omp target data"));
    assert!(b_rewrite.contains("#pragma omp target data"));
    // The read-only helper forces a copy-out before the host read; the
    // write-only helper instead needs the device refreshed afterwards.
    assert!(
        b_rewrite.contains("target update from(bbuf"),
        "sb.c's host read requires an update from:\n{b_rewrite}"
    );
    assert!(
        a_rewrite.contains("target update to(abuf"),
        "sa.c's host write requires an update to:\n{a_rewrite}"
    );

    // Non-static duplicates are still rejected (satellite does not weaken
    // the duplicate-definition check).
    let clash = vec![
        ("x.c".to_string(), "void f() { }\n".to_string()),
        ("y.c".to_string(), "void f() { }\n".to_string()),
    ];
    assert!(matches!(
        ProgramDriver::new().analyze_program(&clash),
        Err(ProgramError::DuplicateFunction { .. })
    ));
}

/// A unit's `static` shadows a same-named external function another unit
/// defines, as C scoping does: the owner's calls resolve to its static, a
/// third unit's to the external function, through the one summary table.
/// An edit that moves only the external function's projection moves the
/// third unit's imports fingerprint and re-plans it; the owner keeps its
/// fingerprint and its analysis.
#[test]
fn a_static_shadows_a_same_named_external_function() {
    let header = "\
#ifndef SH_H
#define SH_H
#define N 32
extern double obuf[N];
extern double tbuf[N];
void run_own();
void run_third();
#endif
";
    let own = format!(
        "{header}double obuf[N];
static void scale(double *p, int n) {{
  for (int i = 0; i < n; i++) p[i] = 0.5;
}}
void run_own() {{
  for (int it = 0; it < 3; it++) {{
    #pragma omp target teams distribute parallel for
    for (int i = 0; i < N; i++) obuf[i] += 1.0;
    scale(obuf, N);
  }}
}}
"
    );
    let external = |body: &str| {
        format!(
            "{header}double total;
void scale(double *p, int n) {{
  for (int i = 0; i < n; i++) {body}
}}
"
        )
    };
    let third = format!(
        "{header}double tbuf[N];
void scale(double *p, int n);
void run_third() {{
  for (int it = 0; it < 3; it++) {{
    #pragma omp target teams distribute parallel for
    for (int i = 0; i < N; i++) tbuf[i] += 2.0;
    scale(tbuf, N);
  }}
}}
"
    );
    let program_with = |body: &str| {
        owned(&[
            ("own.c", &own),
            ("ext.c", &external(body)),
            ("third.c", &third),
        ])
    };
    let inputs = program_with("total = total + p[i];");

    let driver = ProgramDriver::new();
    let before = driver
        .link(&inputs)
        .expect("a static beside an external links");
    let (own_ctx, third_ctx) = (before.link_context(0), before.link_context(2));
    let static_scale = own_ctx.summary("scale").expect("the owner sees its static");
    assert_eq!(Some(static_scale), before.linked.summary("scale@own.c"));
    assert!(static_scale.param_effects[0].host_write());
    assert!(!static_scale.param_effects[0].host_read());
    let external_scale = third_ctx
        .summary("scale")
        .expect("the third unit sees the external");
    assert_eq!(Some(external_scale), before.linked.summary("scale"));
    assert!(external_scale.param_effects[0].host_read());
    assert!(!external_scale.param_effects[0].host_write());

    // The plans follow: the write-only static needs the device refreshed
    // after the call, the read-only external a copy-out before it.
    let analysis = driver.analyze_program(&inputs).expect("analyze failed");
    assert_eq!(analysis.stats().unknown_callee_fallbacks, 0);
    let own_rewrite = &analysis.units[0].rewrite.source;
    let third_rewrite = &analysis.units[2].rewrite.source;
    assert!(
        own_rewrite.contains("target update to(obuf"),
        "own.c plans against its static:\n{own_rewrite}"
    );
    assert!(
        third_rewrite.contains("target update from(tbuf"),
        "third.c plans against the external function:\n{third_rewrite}"
    );

    // The external function now writes its argument too: its projection
    // moves, the static's does not.
    let edited = program_with("p[i] = p[i] + total;");
    let analysis = driver.analyze_program(&edited).expect("analyze failed");
    assert_eq!(
        analysis.served,
        [UnitServe::Cached, UnitServe::Planned, UnitServe::Planned]
    );
    let after = driver.link(&edited).expect("the edit links");
    assert_eq!(
        before.link_context(0).imports_fingerprint,
        after.link_context(0).imports_fingerprint,
        "the owner's imports fingerprint must not move"
    );
    assert_ne!(
        before.link_context(2).imports_fingerprint,
        after.link_context(2).imports_fingerprint,
        "the third unit's imports fingerprint must move"
    );
    let moved = after.link_context(2);
    assert!(moved.summary("scale").unwrap().param_effects[0].host_write());
}

/// The opt-in pessimistic-globals mode: an unknown extern callee is
/// assumed to clobber every global, which forces re-synchronization
/// around the call — explained with the `unknown_callee_pessimistic`
/// provenance at the call site. The default mode keeps the documented
/// arguments-only assumption.
#[test]
fn pessimistic_globals_mode_clobbers_globals_at_unknown_calls() {
    let src = "\
#define N 16
double data[N];
void external_touch(int step);
int main() {
  for (int it = 0; it < 3; it++) {
    #pragma omp target teams distribute parallel for
    for (int i = 0; i < N; i++) data[i] += 1.0;
    external_touch(it);
  }
  printf(\"%f\\n\", data[1]);
  return 0;
}
";
    // Default: the unknown callee takes no pointer, so it is assumed to
    // touch nothing — the mapping stays hoisted with no per-step updates.
    let default_tool = Ompdart::builder().build();
    let default_analysis = default_tool.analyze("pg.c", src).unwrap();
    assert_eq!(default_analysis.stats().unknown_callee_fallbacks, 0);
    assert!(
        !default_analysis
            .rewritten_source()
            .contains("target update"),
        "default mode must not re-synchronize:\n{}",
        default_analysis.rewritten_source()
    );

    // Opt-in: the callee clobbers `data` on the host every iteration.
    let tool = Ompdart::builder().pessimistic_globals(true).build();
    let analysis = tool.analyze("pg.c", src).unwrap();
    assert!(analysis.stats().unknown_callee_fallbacks > 0);
    assert!(
        analysis.rewritten_source().contains("target update"),
        "clobbered globals must be re-synchronized around the call:\n{}",
        analysis.rewritten_source()
    );
    let pessimistic: Vec<_> = analysis
        .plans()
        .iter()
        .flat_map(|p| p.provenances())
        .filter(|p| p.fact == ProvenanceFact::UnknownCalleePessimistic)
        .collect();
    assert!(
        !pessimistic.is_empty(),
        "the clobber must be explained:\n{}",
        analysis.explain()
    );
    assert!(
        pessimistic
            .iter()
            .any(|p| p.detail.contains("pessimistic-globals")
                && p.detail.contains("`external_touch`")),
        "the provenance must cite the mode and the callee"
    );
    // The span anchors at the call site.
    let cited = pessimistic.iter().any(|p| {
        p.span
            .is_some_and(|s| analysis.source_file().snippet(s).contains("external_touch"))
    });
    assert!(cited, "the provenance span must point at the call site");
}

/// The clobber is *transitive*: a helper that calls an unknown extern
/// carries the global clobber in its own interprocedural summary, so a
/// caller of the helper re-synchronizes around the helper call even though
/// the extern call site is a level of indirection away.
#[test]
fn pessimistic_globals_mode_is_transitive_through_summaries() {
    let src = "\
#define N 16
double data[N];
void external_touch(int step);
void helper(int step) {
  external_touch(step);
}
int main() {
  for (int it = 0; it < 3; it++) {
    #pragma omp target teams distribute parallel for
    for (int i = 0; i < N; i++) data[i] += 1.0;
    helper(it);
  }
  printf(\"%f\\n\", data[1]);
  return 0;
}
";
    let default_tool = Ompdart::builder().build();
    let default_analysis = default_tool.analyze("pgt.c", src).unwrap();
    assert!(
        !default_analysis
            .rewritten_source()
            .contains("target update"),
        "default mode must not re-synchronize:\n{}",
        default_analysis.rewritten_source()
    );

    let tool = Ompdart::builder().pessimistic_globals(true).build();
    let analysis = tool.analyze("pgt.c", src).unwrap();
    assert!(
        analysis.rewritten_source().contains("target update"),
        "the clobber must reach main through helper's summary:\n{}",
        analysis.rewritten_source()
    );
    // The summary-level clobber also survives the simulator: the
    // transformed program still computes what the original computes.
    use ompdart_sim::{simulate_source, SimConfig};
    let before = simulate_source(src, SimConfig::default()).unwrap();
    let after = simulate_source(analysis.rewritten_source(), SimConfig::default()).unwrap();
    assert_eq!(before.output, after.output);
}

/// In pessimistic-globals mode the set of globals a function can see is an
/// input of the link fixed point: `helper` calls an unknown extern, so its
/// summary clobbers every global of its unit. Declaring a new global leaves
/// `helper`'s text, seed and call sites alone — but not what it clobbers, so
/// a long-lived session must re-converge it: the edited program's new
/// `work2` re-synchronizes `g2` around `helper()` exactly as a fresh session
/// plans it.
#[test]
fn a_new_global_reconverges_the_functions_that_clobber_it() {
    let work = |name: &str, global: &str| {
        format!(
            "void {name}(void) {{\n\
             \x20 #pragma omp target teams distribute parallel for\n\
             \x20 for (int i = 0; i < N; i++) {global}[i] += 1.0;\n\
             \x20 helper();\n\
             \x20 #pragma omp target teams distribute parallel for\n\
             \x20 for (int i = 0; i < N; i++) {global}[i] += 2.0;\n\
             \x20 printf(\"%f\\n\", {global}[1]);\n}}\n"
        )
    };
    let prelude = "#define N 16\ndouble g1[N];\nextern void ext(void);\n\
                   void helper(void) { ext(); }\n";
    let base_a = format!("{prelude}{}", work("work", "g1"));
    let edited_a = format!(
        "{prelude}double g2[N];\n{}{}",
        work("work", "g1"),
        work("work2", "g2")
    );
    let main = "void work(void);\nint main() { work(); return 0; }\n";
    let program = |a: &str| owned(&[("a.c", a), ("main.c", main)]);
    let tool = || Ompdart::builder().pessimistic_globals(true).build();

    let long_lived = tool();
    long_lived.analyze_program(&program(&base_a)).unwrap();
    let patched = long_lived.analyze_program(&program(&edited_a)).unwrap();
    let fresh = tool().analyze_program(&program(&edited_a)).unwrap();
    let rewrite = &patched.units[0].rewrite.source;
    assert_eq!(
        patched.concatenated_rewrite(),
        fresh.concatenated_rewrite(),
        "the long-lived session diverges from a fresh one"
    );
    for update in ["target update from(g2)", "target update to(g2)"] {
        assert!(rewrite.contains(update), "no `{update}` in:\n{rewrite}");
    }
}

/// Unknown extern callees produce a dedicated provenance fact anchored at
/// the call site instead of silently inheriting the pessimistic effect.
#[test]
fn unknown_callee_pessimism_is_explained() {
    let source = unit_main();
    let analysis = Ompdart::new().analyze("prog_main.c", &source).unwrap();
    let plan = analysis
        .plans
        .plans
        .iter()
        .find(|p| p.function == "main")
        .expect("main must have a plan");
    let unknown: Vec<_> = plan
        .provenances()
        .into_iter()
        .filter(|p| p.fact == ProvenanceFact::UnknownCalleePessimistic)
        .collect();
    assert!(
        !unknown.is_empty(),
        "the pessimistic `scale` call must be explained:\n{}",
        analysis.explain()
    );
    for p in &unknown {
        assert!(
            p.detail.contains("`scale`") || p.detail.contains("`checksum`"),
            "the provenance names the unknown callee: {}",
            p.detail
        );
        let span = p.span.expect("call-site span must be recorded");
        let snippet = analysis.source_file().snippet(span);
        assert!(
            snippet.contains("scale") || snippet.contains("checksum"),
            "span must point at the call site, got `{snippet}`"
        );
    }
    // The explain rendering surfaces the fact key.
    assert!(analysis.explain().contains("unknown_callee_pessimistic"));
}

/// Whole-program analyses warm-start from the persistent store: a second
/// driver over the same cache dir rewrites byte-identically with zero
/// planned functions, and the *first edit after the restart* re-plans the
/// edited unit alone: the others keep the analyses the store served them.
#[test]
fn program_store_warm_start_and_seeded_first_edit() {
    let dir = std::env::temp_dir().join(format!("ompdart-wp-store-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let inputs = owned(&lulesh_multifile());

    let first = Ompdart::builder().cache_dir(&dir).build();
    let cold = first.analyze_program(&inputs).expect("cold run failed");
    assert!(cold.served.iter().all(|s| *s == UnitServe::Planned));

    // "Process restart": fresh session, same cache dir.
    let second = Ompdart::builder().cache_dir(&dir).build();
    let warm = second.analyze_program(&inputs).expect("warm run failed");
    assert!(
        warm.served.iter().all(|s| *s == UnitServe::Store),
        "all units must be served from the store: {:?}",
        warm.served
    );
    assert_eq!(
        warm.concatenated_rewrite(),
        cold.concatenated_rewrite(),
        "store-served program rewrite diverges"
    );
    let stats = second.session().cache_stats();
    assert_eq!(stats.function_plan_misses, 0, "{stats:?}");

    // First edit after the warm start: only the edited unit re-plans.
    let mut edited = inputs.clone();
    edited[1].1 = edited[1].1.replacen(
        "e[i] += (p[i] + q[i])",
        "/* warm */ e[i] += (p[i] + q[i])",
        1,
    );
    let program = second.analyze_program(&edited).expect("edit run failed");
    let moved = second.session().cache_stats() - stats;
    assert_eq!(
        (moved.analysis_misses, moved.function_plan_misses),
        (1, 2),
        "the warm-started first edit re-plans the EOS unit alone: {moved:?}"
    );
    assert_eq!(
        program.served,
        [UnitServe::Cached, UnitServe::Planned, UnitServe::Cached]
    );
    let cold = ProgramDriver::new().analyze_program(&edited).unwrap();
    assert_eq!(program.concatenated_rewrite(), cold.concatenated_rewrite());
    let _ = std::fs::remove_dir_all(&dir);
}

/// Two byte-identical units in one program (generated sources, a file copied
/// under two names): both are planned and saved by the populating run — one
/// flush, one writer, no race on a shared path — and a restart serves both
/// from the store. Editing one of them does not take the stored content from
/// under the other.
#[test]
fn byte_identical_units_populate_and_restart_with_two_store_hits() {
    let dir = std::env::temp_dir().join(format!("ompdart-wp-twins-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let twin = "\
#define N 32
static double buf[N];
static void touch(void) {
  for (int it = 0; it < 3; it++) {
    #pragma omp target teams distribute parallel for
    for (int i = 0; i < N; i++) buf[i] += 1.0;
  }
  printf(\"%f\\n\", buf[0]);
}
";
    let main = "int main() { return 0; }\n";
    let inputs = owned(&[("left.c", twin), ("right.c", twin), ("main.c", main)]);

    let first = Ompdart::builder().cache_dir(&dir).build();
    let cold = first
        .analyze_program(&inputs)
        .expect("populating run failed");
    let stats = first.session().cache_stats();
    assert_eq!((stats.store_hits, stats.store_misses), (0, 3), "{stats:?}");
    assert_eq!(first.session().artifact_store().unwrap().entry_count(), 3);

    let second = Ompdart::builder().cache_dir(&dir).build();
    let warm = second.analyze_program(&inputs).expect("restart failed");
    assert_eq!(warm.served, vec![UnitServe::Store; 3]);
    let stats = second.session().cache_stats();
    assert_eq!((stats.store_hits, stats.store_misses), (3, 0), "{stats:?}");
    assert_eq!(warm.concatenated_rewrite(), cold.concatenated_rewrite());

    // `left.c` is edited and saved; after another restart `right.c` still
    // finds the content the two used to share.
    let mut edited = inputs.clone();
    edited[0].1 = twin.replace("+= 1.0", "+= 2.0");
    second.analyze_program(&edited).expect("edit run failed");
    let third = Ompdart::builder().cache_dir(&dir).build();
    let again = third
        .analyze_program(&edited)
        .expect("second restart failed");
    assert_eq!(again.served, vec![UnitServe::Store; 3]);
    let entries = std::fs::read_dir(&dir).unwrap().count();
    assert_eq!(entries, 1, "a populated cache directory holds one file");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Duplicate definitions across units are a link error, not silent
/// last-writer-wins behavior.
#[test]
fn duplicate_definitions_are_rejected() {
    let inputs = vec![
        ("a.c".to_string(), "void f() { }\n".to_string()),
        ("b.c".to_string(), "void f() { }\n".to_string()),
    ];
    let err = ProgramDriver::new().analyze_program(&inputs).unwrap_err();
    match err {
        ProgramError::DuplicateFunction { function, units } => {
            assert_eq!(function, "f");
            assert_eq!(units, ["a.c".to_string(), "b.c".to_string()]);
        }
        other => panic!("expected DuplicateFunction, got {other:?}"),
    }

    // A parse failure in any unit names the failing unit.
    let inputs = vec![
        ("ok.c".to_string(), "void g() { }\n".to_string()),
        (
            "broken.c".to_string(),
            "int main( { return 0; }\n".to_string(),
        ),
    ];
    let err = ProgramDriver::new().analyze_program(&inputs).unwrap_err();
    match err {
        ProgramError::Unit { name, .. } => assert_eq!(name, "broken.c"),
        other => panic!("expected Unit error, got {other:?}"),
    }
}

/// Output preservation end to end: the linked program's mapped
/// concatenation simulates to the same output as the unmapped program.
#[test]
fn linked_lulesh_preserves_program_output() {
    use ompdart_sim::{simulate_source, SimConfig};

    let inputs = owned(&lulesh_multifile());
    let program = ProgramDriver::new().analyze_program(&inputs).unwrap();
    let before = simulate_source(&lulesh_multifile_concat(), SimConfig::default()).unwrap();
    let after = simulate_source(&program.concatenated_rewrite(), SimConfig::default()).unwrap();
    assert_eq!(before.output, after.output);
}

/// The round-level identity fast path: re-analyzing a byte-identical
/// program serves every unit from the previous round — zero function-plan
/// misses, all units `Cached`, `fast_path_hits == N` —
/// and the rewrites are byte-identical to the cold round.
#[test]
fn identity_fast_path_serves_unchanged_rounds_wholesale() {
    let inputs = owned(&lulesh_multifile());
    let session = Arc::new(AnalysisSession::new());
    let driver = ProgramDriver::with_session(Arc::clone(&session));
    let cold = driver.analyze_program(&inputs).expect("cold link failed");

    let before = session.cache_stats();
    let (warm, profile) = driver
        .analyze_program_profiled(&inputs)
        .expect("warm round failed");
    let after = session.cache_stats();

    assert_eq!(
        after.function_plan_misses - before.function_plan_misses,
        0,
        "a warm round must re-plan nothing"
    );
    assert_eq!(
        after.fast_path_hits - before.fast_path_hits,
        inputs.len() as u64,
        "every unit must be served by the identity fast path"
    );
    assert!(
        warm.served.iter().all(|s| *s == UnitServe::Cached),
        "a warm round must plan nothing: {:?}",
        warm.served
    );
    assert_eq!(profile.units, inputs.len());
    assert_eq!(profile.fast_path_units, inputs.len());
    assert_eq!(
        warm.concatenated_rewrite(),
        cold.concatenated_rewrite(),
        "the fast path must return byte-identical rewrites"
    );
    assert_eq!(warm.link_passes, cold.link_passes);

    // The fast path keeps serving on every subsequent unchanged round.
    let before = session.cache_stats();
    driver.analyze_program(&inputs).expect("third round failed");
    let after = session.cache_stats();
    assert_eq!(
        after.fast_path_hits - before.fast_path_hits,
        inputs.len() as u64
    );
}

/// The unit-level identity fast path on edit rounds: an
/// interface-preserving edit to one unit leaves every *other* unit's
/// content and imported surface unchanged, so those units bypass even the
/// linked artifact cache and reuse the previous round's analyses outright.
#[test]
fn identity_fast_path_reuses_untouched_units_on_edit_rounds() {
    let inputs = owned(&lulesh_multifile());
    let session = Arc::new(AnalysisSession::new());
    let driver = ProgramDriver::with_session(Arc::clone(&session));
    driver.analyze_program(&inputs).expect("cold link failed");

    let mut edited = inputs.clone();
    edited[1].1 = edited[1].1.replacen(
        "e[i] += (p[i] + q[i])",
        "/* tweak */ e[i] += (p[i] + q[i])",
        1,
    );
    assert_ne!(edited[1].1, inputs[1].1);

    let before = session.cache_stats();
    let (program, profile) = driver
        .analyze_program_profiled(&edited)
        .expect("edit round failed");
    let after = session.cache_stats();

    assert_eq!(
        after.fast_path_hits - before.fast_path_hits,
        (inputs.len() - 1) as u64,
        "every unit but the edited one must ride the per-unit fast path"
    );
    assert_eq!(profile.fast_path_units, inputs.len() - 1);
    assert_eq!(program.served[0], UnitServe::Cached);
    assert_eq!(program.served[2], UnitServe::Cached);
    assert_eq!(program.served[1], UnitServe::Planned);

    let cold = ProgramDriver::new().analyze_program(&edited).unwrap();
    assert_eq!(program.concatenated_rewrite(), cold.concatenated_rewrite());
}

/// A one-unit analysis interleaved between two rounds of the same program
/// on one tool (the daemon's `explain` between `analyze` requests) is a
/// one-unit program on the tool's other driver: it neither records a round
/// in the program's driver nor takes its link state, so the next program
/// round still rides the round-level fast path.
#[test]
fn one_unit_analysis_between_rounds_keeps_the_round_fast_path() {
    let inputs = owned(&lulesh_multifile());
    let tool = Ompdart::builder().build();
    let cold = tool.analyze_program(&inputs).expect("cold link failed");

    let (name, source) = &inputs[1];
    let alone = tool
        .analyze(name, source)
        .expect("one-unit analysis failed");
    let fresh = Ompdart::builder().build().analyze(name, source).unwrap();
    assert_eq!(
        alone.rewritten_source(),
        fresh.rewritten_source(),
        "the one-unit analysis must not see the program's link facts"
    );

    let before = tool.session().cache_stats();
    let warm = tool.analyze_program(&inputs).expect("warm round failed");
    let after = tool.session().cache_stats();
    assert_eq!(
        after.fast_path_hits - before.fast_path_hits,
        inputs.len() as u64,
        "the one-unit analysis must not evict the recorded round"
    );
    assert_eq!(
        after.relink_reseeded_functions, before.relink_reseeded_functions,
        "the one-unit analysis must not replace the link state"
    );
    assert_eq!(after.function_plan_misses, before.function_plan_misses);
    for (warm_unit, cold_unit) in warm.units.iter().zip(&cold.units) {
        assert!(Arc::ptr_eq(warm_unit, cold_unit));
    }
}

/// Byte-identity is pinned at every worker count: the same program linked
/// with 1, 2, 4, and 8 threads — cold and warm — produces identical
/// rewrites and link passes.
#[test]
fn results_are_byte_identical_at_every_thread_count() {
    let inputs = owned(&lulesh_multifile());
    let driver_at = |threads: usize| {
        ProgramDriver::with_session(Arc::new(AnalysisSession::new().with_parallelism(threads)))
    };
    let reference = driver_at(1)
        .analyze_program(&inputs)
        .expect("reference link failed");
    for threads in [2usize, 4, 8] {
        let driver = driver_at(threads);
        let cold = driver.analyze_program(&inputs).expect("cold link failed");
        assert_eq!(
            cold.concatenated_rewrite(),
            reference.concatenated_rewrite(),
            "cold link at {threads} threads must match the sequential result"
        );
        assert_eq!(cold.link_passes, reference.link_passes);
        let warm = driver.analyze_program(&inputs).expect("warm round failed");
        assert_eq!(
            warm.concatenated_rewrite(),
            reference.concatenated_rewrite(),
            "warm round at {threads} threads must match the sequential result"
        );
    }
}

/// One warm round on `driver`'s session: the counter movement, the
/// analysis, and the promise that it equals a cold analysis of `inputs`.
fn warm_round(
    driver: &ProgramDriver,
    inputs: &[(String, String)],
) -> (ompdart_core::CacheStats, ompdart_core::ProgramAnalysis) {
    let before = driver.session().cache_stats();
    let warm = driver.analyze_program(inputs).expect("warm round failed");
    let moved = driver.session().cache_stats() - before;
    let cold = ProgramDriver::new().analyze_program(inputs).unwrap();
    assert_eq!(
        warm.concatenated_rewrite(),
        cold.concatenated_rewrite(),
        "a patched link must rewrite exactly as a cold link of the same units"
    );
    (moved, warm)
}

/// A unit-set change patches the link state like any other edit: adding,
/// removing, reordering or renaming a file of a watched directory keeps
/// the converged fixed point and re-seeds inside the changed units' cone,
/// where the parent threw the whole state away.
#[test]
fn unit_set_changes_relink_inside_the_cone() {
    let base = ompdart_suite::corpus::generate(12, 7);
    let driver = ProgramDriver::new();
    driver.analyze_program(&base).expect("cold link failed");
    let leaf = (
        "leaf.c".to_string(),
        "double leaf_buf[8];\nvoid leaf_fn(void) { leaf_buf[0] += 1.0; }\n".to_string(),
    );

    // Add: a leaf unit in the middle shifts every later unit's index.
    let mut added = base.clone();
    added.insert(3, leaf);
    let (moved, round) = warm_round(&driver, &added);
    assert_eq!(moved.relink_reseeded_functions, 0, "nothing calls the leaf");
    assert_eq!(
        moved.relink_touched_units, 1,
        "the leaf alone: no unit reads anything of a function it does not call"
    );
    assert_eq!(moved.fast_path_hits, base.len() as u64);
    assert_eq!(round.served[3], UnitServe::Planned);

    // Reorder: the same units in another order change nothing at all.
    let mut reordered = added.clone();
    reordered.rotate_left(5);
    let (moved, _) = warm_round(&driver, &reordered);
    assert_eq!(moved.relink_reseeded_functions, 0);
    assert_eq!(moved.relink_touched_units, 0);
    assert_eq!(moved.fast_path_hits, reordered.len() as u64);

    // Rename: the unit's header-defined static re-mangles, so the old
    // `syn_touch@syn_0005.c` leaves and the stages up to the renamed one
    // (stage_1..stage_5 and main) may observe the new one.
    let mut renamed = reordered.clone();
    let at = renamed.iter().position(|(n, _)| n == "syn_0005.c").unwrap();
    renamed[at].0 = "renamed.c".to_string();
    let (moved, _) = warm_round(&driver, &renamed);
    assert!(
        (1..=8).contains(&moved.relink_reseeded_functions),
        "a rename re-seeds its statics and their callers, not the program: {moved}"
    );
    assert!(moved.relink_touched_units <= 7, "{moved}");

    // Remove the leaf again: only its own function is re-derived (away).
    let mut removed = renamed.clone();
    removed.retain(|(n, _)| n != "leaf.c");
    let (moved, _) = warm_round(&driver, &removed);
    assert_eq!(moved.relink_reseeded_functions, 1);
    assert_eq!(moved.relink_touched_units, 0, "nobody observed it");

    // Remove the chain's tail: `stage_10` now calls an undefined function,
    // and every stage above it must forget what `stage_11` did.
    let mut cut = removed.clone();
    cut.retain(|(n, _)| n != "syn_0011.c");
    let (moved, _) = warm_round(&driver, &cut);
    assert!(moved.relink_reseeded_functions >= 11, "{moved}");

    // A duplicate definition is rejected naming both units, and leaves the
    // session's link state as it was: the next round is still a patch.
    let mut duplicated = cut.clone();
    duplicated.push(("dup.c".to_string(), "void stage_3(void) { }\n".to_string()));
    match driver.analyze_program(&duplicated).unwrap_err() {
        ProgramError::DuplicateFunction { function, units } => {
            assert_eq!(function, "stage_3");
            assert!(units.contains(&"syn_0003.c".to_string()), "{units:?}");
            assert!(units.contains(&"dup.c".to_string()), "{units:?}");
        }
        other => panic!("expected DuplicateFunction, got {other:?}"),
    }
    let (moved, _) = warm_round(&driver, &cut);
    assert_eq!(moved.relink_reseeded_functions, 0);
    assert_eq!(moved.fast_path_hits, cut.len() as u64);
}

/// "The relink's cost follows the dirty cone", asserted as counts on the
/// ledger's 1000-unit corpus: an edit at the head of the call chain
/// touches a handful of units however large the program is, and a
/// mid-chain edit touches its cone and no more.
#[test]
fn relink_touches_follow_the_cone_on_the_thousand_unit_corpus() {
    let base = ompdart_suite::corpus::generate(1000, 42);
    let driver = ProgramDriver::new();
    let session = Arc::clone(driver.session());
    let relink = |inputs: &[(String, String)]| {
        let before = session.cache_stats();
        driver.link(inputs).expect("link failed");
        session.cache_stats() - before
    };
    let cold = relink(&base);
    assert_eq!(cold.relink_reseeded_functions, 0);
    assert_eq!(cold.relink_touched_units, 1000);

    let mut head = base.clone();
    ompdart_suite::corpus::edit_one_function(&mut head, 1);
    let moved = relink(&head);
    assert!(
        (1..=8).contains(&moved.relink_reseeded_functions),
        "{moved}"
    );
    assert!((1..=8).contains(&moved.relink_touched_units), "{moved}");

    let unchanged = relink(&head);
    assert_eq!(unchanged.relink_reseeded_functions, 0);
    assert_eq!(unchanged.relink_touched_units, 0);

    // Revert the head edit and edit stage_500 in one round: the cone is
    // main and stage_1..stage_500.
    let mut mid = base.clone();
    ompdart_suite::corpus::edit_one_function(&mut mid, 500);
    let moved = relink(&mid);
    assert!(moved.relink_reseeded_functions >= 500, "{moved}");
    assert!(moved.relink_reseeded_functions <= 501 + 8, "{moved}");
    assert!(moved.relink_touched_units <= 501 + 1 + 8, "{moved}");
}

/// How many functions `source` defines: what planning its unit costs in
/// `function_plan_misses`.
fn functions_in(source: &str) -> u64 {
    let parsed = ompdart_core::pipeline::stage_parse("count.c", source).unwrap();
    parsed.unit.functions().count() as u64
}

/// A plan is keyed by what it can read: the corpus's mid-chain edit adds a
/// host-only `syn_extra` effect that reaches every summary in its cone, but
/// no kernel touches `syn_extra`, so no caller's plan can read it. The
/// first time the session sees the edit, one unit is planned (the edited
/// one) and every other unit is served from memory. Keyed on whole callee
/// summaries, as before the keys were projected onto the device names, the
/// same edit re-planned the units of `stage_1..stage_29` and `main` — 30
/// more units — and this test failed.
///
/// Then a kernel on `syn_extra` in another stage makes it a device global:
/// every fingerprint is re-derived, the units whose callees now move on it
/// are re-planned, the units below the edit stay cached, and the round
/// equals a cold analysis.
#[test]
fn a_host_only_edit_replans_its_function_and_a_new_device_global_its_callers() {
    let base = ompdart_suite::corpus::generate(60, 42);
    let driver = ProgramDriver::new();
    let session = Arc::clone(driver.session());
    driver.analyze_program(&base).expect("cold round failed");
    driver.analyze_program(&base).expect("warm round failed");

    let mut host_only = base.clone();
    ompdart_suite::corpus::edit_one_function(&mut host_only, 30);
    let before = session.cache_stats();
    let (moved, round) = warm_round(&driver, &host_only);
    let edited_unit = functions_in(&host_only[30].1);
    assert_eq!(moved.analysis_misses, 1, "{moved}");
    assert_eq!(moved.function_plan_misses, edited_unit, "{moved}");
    assert!(
        moved.relink_reseeded_functions >= 31,
        "the summaries of the whole cone moved: {moved}"
    );
    assert_eq!(delta(before, session.cache_stats()).0, edited_unit);
    for (i, served) in round.served.iter().enumerate() {
        match i {
            30 => assert_eq!(*served, UnitServe::Planned),
            _ => assert_eq!(*served, UnitServe::Cached, "unit {i}"),
        }
    }

    // `syn_extra` becomes a device global: stage_45 writes it in a kernel.
    let mut device = host_only.clone();
    let marker = "void stage_45(void) {\n";
    let source = &mut device[45].1;
    let at = source.find(marker).expect("the corpus defines stage_45") + marker.len();
    source.insert_str(
        at,
        "  #pragma omp target teams distribute parallel for\n  \
         for (int i = 0; i < SYN_N; i++) syn_extra[i] += 1.0;\n",
    );
    let (moved, round) = warm_round(&driver, &device);
    assert_eq!(
        moved.relink_touched_units, 60,
        "a new device global touches every unit"
    );
    for (i, served) in round.served.iter().enumerate() {
        match i {
            // `main` and stage_1..stage_44 call a function whose summary
            // now moves on a device global; stage_45 was edited.
            0..=45 => assert_eq!(*served, UnitServe::Planned, "unit {i}"),
            _ => assert_eq!(*served, UnitServe::Cached, "unit {i}"),
        }
    }
    let replanned: u64 = device[..=45].iter().map(|(_, s)| functions_in(s)).sum();
    assert_eq!(moved.analysis_misses, 46, "{moved}");
    assert_eq!(moved.function_plan_misses, replanned, "{moved}");
}

/// A global handed by reference to a callee with no summary inside a kernel
/// is touched on the device by the caller's plan (the fallback replays a
/// device read and write), and `main`'s summary records that global on the
/// device: it is a device name, so an edit to another callee's host effect
/// on it re-plans the caller.
#[test]
fn a_global_passed_to_an_unknown_callee_in_a_kernel_is_a_device_global() {
    let main = "\
#define N 16
double g[N];
void ext(double *p);
void h(void);
int main() {
  #pragma omp target teams distribute parallel for
  for (int i = 0; i < N; i++) { ext(g); }
  h();
  #pragma omp target teams distribute parallel for
  for (int i = 0; i < N; i++) { ext(g); }
  printf(\"%f\\n\", g[0]);
  return 0;
}
";
    let helper =
        |body: &str| format!("#define N 16\nextern double g[N];\nvoid h(void) {{ {body} }}\n");
    let program = |body: &str| owned(&[("main.c", main), ("h.c", &helper(body))]);
    let driver = ProgramDriver::new();
    driver
        .analyze_program(&program("g[1] = 2.0;"))
        .expect("cold round failed");
    let (moved, round) = warm_round(&driver, &program("double t = 0.0; t += 1.0;"));
    assert_eq!(round.served[0], UnitServe::Planned, "{moved}");
    assert_eq!(moved.analysis_misses, 2, "{moved}");
}

/// A callee's effect on a global lands only on that global: `c` writes the
/// global `tmp` of `c.c` on the host, and `main.c` declares only a local
/// `tmp`, which the call leaves alone. So `main`'s plan holds no update of
/// its own `tmp` after the call (one that did copied the stale host copy
/// over the kernel's values), whatever `c` does. No summary touches a `tmp`
/// on the device, so `c`'s host write is not in `main`'s plan key: dropping
/// it serves `main.c` from the fast path, and the warm round is a cold
/// analysis's.
#[test]
fn a_callee_global_with_a_caller_local_name_is_not_in_the_plan_key() {
    use ompdart_sim::{simulate_source, SimConfig};
    let main = "\
#define N 16
void c(void);
int main() {
  double tmp[N];
  #pragma omp target teams distribute parallel for
  for (int i = 0; i < N; i++) tmp[i] = i;
  c();
  #pragma omp target teams distribute parallel for
  for (int i = 0; i < N; i++) tmp[i] += 1.0;
  printf(\"%f\\n\", tmp[0]);
  return 0;
}
";
    let callee = |body: &str| format!("#define N 16\ndouble tmp[N];\nvoid c(void) {{ {body} }}\n");
    let program = |body: &str| owned(&[("main.c", main), ("c.c", &callee(body))]);
    let driver = ProgramDriver::new();
    let writes = driver
        .analyze_program(&program("tmp[0] = 1.0;"))
        .expect("cold round failed");
    assert!(
        !writes.units[0].rewrite.source.contains("target update"),
        "`c`'s global is not `main`'s local: {}",
        writes.units[0].rewrite.source
    );
    let concat: String = program("tmp[0] = 1.0;")
        .into_iter()
        .map(|(_, text)| text)
        .collect();
    let unmapped = simulate_source(&concat, SimConfig::default()).unwrap();
    let mapped = simulate_source(&writes.concatenated_rewrite(), SimConfig::default()).unwrap();
    assert_eq!(mapped.output, unmapped.output);
    let (moved, round) = warm_round(&driver, &program("double t = 0.0; t += 1.0;"));
    assert_eq!(round.served[0], UnitServe::Cached, "{moved}");
    assert_eq!(moved.analysis_misses, 1, "{moved}");
    assert!(!round.units[0].rewrite.source.contains("target update"));
}

// ---------------------------------------------------------------------------
// Ordered summaries: a call site costs what its body costs
// ---------------------------------------------------------------------------

const ORDER_HEADER: &str = "\
#ifndef ORDER_H
#define ORDER_H
#define N 64
extern double x[N];
extern double y[N];
void f(int s);
double g(int s);
#endif
";

/// A callee that host-writes `x` and then reads it in a kernel.
const HOST_WRITE_THEN_KERNEL: &str = "\
void f(int s) {
  for (int i = 0; i < N; i++) x[i] = i + s;
  #pragma omp target teams distribute parallel for
  for (int i = 0; i < N; i++) y[i] = x[i] * 2.0;
}
";

/// A callee that writes `y` in a kernel and then reads it on the host.
const KERNEL_THEN_HOST_READ: &str = "\
double g(int s) {
  double t = 0.0;
  #pragma omp target teams distribute parallel for
  for (int i = 0; i < N; i++) y[i] = x[i] * 2.0 + s;
  for (int i = 0; i < N; i++) t += y[i];
  return t;
}
";

/// `main` around `call`: between two kernels of its own when `region` is
/// set, with no kernel (so no region) of its own otherwise.
fn order_main(call: &str, region: bool) -> String {
    let (before, after) = match region {
        true => (
            "    #pragma omp target teams distribute parallel for\n    \
             for (int i = 0; i < N; i++) x[i] += 1.0;\n",
            "    #pragma omp target teams distribute parallel for\n    \
             for (int i = 0; i < N; i++) y[i] += 1.0;\n",
        ),
        false => ("", ""),
    };
    format!(
        "{ORDER_HEADER}double x[N];\ndouble y[N];\nint main() {{\n  \
         for (int i = 0; i < N; i++) {{ x[i] = i; y[i] = 0.0; }}\n  double sum = 0.0;\n  \
         for (int s = 0; s < 3; s++) {{\n{before}    {call}\n{after}  }}\n  \
         for (int i = 0; i < N; i++) sum += y[i];\n  printf(\"%f\\n\", sum);\n  return 0;\n}}\n"
    )
}

fn order_units(callee: &str, call: &str, region: bool) -> Vec<(String, String)> {
    vec![
        (
            "order_callee.c".to_string(),
            format!("{ORDER_HEADER}{callee}"),
        ),
        ("order_main.c".to_string(), order_main(call, region)),
    ]
}

/// Analyse `units` as one unit (their concatenation) and as a linked
/// program; the rewrites agree byte for byte and the mapped program prints
/// what the unmapped one prints. Returns the mapped program.
fn mapped_one_and_linked(units: &[(String, String)]) -> String {
    use ompdart_sim::{simulate_source, SimConfig};
    let concat: String = units.iter().map(|(_, source)| source.as_str()).collect();
    let unmapped = simulate_source(&concat, SimConfig::default()).expect("unmapped program runs");
    let one = Ompdart::new()
        .analyze("order_one.c", &concat)
        .expect("one unit");
    let linked = Ompdart::new().analyze_program(units).expect("two units");
    assert_eq!(linked.stats().unknown_callee_fallbacks, 0);
    let mapped = linked.concatenated_rewrite();
    assert_eq!(
        mapped,
        one.rewritten_source(),
        "the split must not move the rewrite"
    );
    let run = simulate_source(&mapped, SimConfig::default()).expect("mapped program runs");
    assert_eq!(
        run.output, unmapped.output,
        "the mapping changed what the program prints:\n{mapped}"
    );
    assert!(run.profile.total_bytes() <= unmapped.profile.total_bytes());
    mapped
}

/// The lines of `text` around the one holding `needle`: (before, after).
fn neighbours<'t>(text: &'t str, needle: &str) -> (&'t str, &'t str) {
    let lines: Vec<&str> = text.lines().collect();
    let at = (lines.iter().position(|line| line.contains(needle)))
        .unwrap_or_else(|| panic!("no line holds `{needle}` in:\n{text}"));
    (lines[at - 1], lines[at + 1])
}

/// Miscompile (a) of the unordered summary: the callee host-writes `x` and
/// reads it in a kernel. Replayed as "read, then write" per side, the call
/// got a `target update to(x)` *before* it — ahead of the host write inside
/// `f` — while `f`'s own `map(to: x)` is a no-op under `main`'s region: the
/// kernel in `f` read a stale `x`. Now the read is not exposed, so `main`
/// places nothing at the call, and `f` repeats its copy-in as an update
/// outside its region.
#[test]
fn a_callee_that_host_writes_then_kernel_reads_keeps_the_output() {
    let units = order_units(HOST_WRITE_THEN_KERNEL, "f(s);", true);
    let mapped = mapped_one_and_linked(&units);
    assert_eq!(
        mapped.matches("#pragma omp target update").count(),
        1,
        "{mapped}"
    );
    let (before_call, after_call) = neighbours(&mapped, "    f(s);");
    assert!(!before_call.contains("target update"), "{mapped}");
    assert!(!after_call.contains("target update"), "{mapped}");
    // In `f`: after the host loop, before the kernel and whatever maps
    // its data.
    let (before, after) = neighbours(&mapped, "#pragma omp target update to(x)");
    assert!(before.contains("x[i] = i + s"), "{mapped}");
    assert!(after.contains("map(to: x)"), "{mapped}");
}

/// Miscompile (b): the callee writes `y` in a kernel and reads it on the
/// host; `main` anchored `target update from(y)` before the call, and the
/// host loop in `g` read the stale `y`.
#[test]
fn a_callee_that_kernel_writes_then_host_reads_keeps_the_output() {
    let units = order_units(KERNEL_THEN_HOST_READ, "sum += g(s);", true);
    let mapped = mapped_one_and_linked(&units);
    assert_eq!(
        mapped.matches("#pragma omp target update").count(),
        1,
        "{mapped}"
    );
    let (before_call, after_call) = neighbours(&mapped, "    sum += g(s);");
    assert!(!before_call.contains("target update"), "{mapped}");
    assert!(!after_call.contains("target update"), "{mapped}");
    // In `g`: after the kernel and whatever unmaps its data, before the
    // host loop.
    let (before, after) = neighbours(&mapped, "#pragma omp target update from(y)");
    assert!(before.contains("y[i] = x[i] * 2.0 + s") || before.contains("map(from: y)"));
    assert!(after.contains("t += y[i]"), "{mapped}");
}

/// Under a `main` that holds no region the callee's clauses do the copies
/// and its updates find nothing present: they move nothing.
#[test]
fn callee_side_updates_are_free_when_no_caller_holds_the_data() {
    use ompdart_sim::{simulate_source, SimConfig};
    let programs = [
        order_units(HOST_WRITE_THEN_KERNEL, "f(s);", false),
        order_units(KERNEL_THEN_HOST_READ, "sum += g(s);", false),
    ];
    for units in programs {
        let mapped = mapped_one_and_linked(&units);
        assert_eq!(mapped.matches("#pragma omp target update").count(), 1);
        let without: String = (mapped.lines())
            .filter(|line| !line.contains("#pragma omp target update"))
            .flat_map(|line| [line, "\n"])
            .collect();
        let [with, without] =
            [&mapped, &without].map(|text| simulate_source(text, SimConfig::default()).unwrap());
        assert_eq!(with.output, without.output);
        let moved = |run: &ompdart_sim::Outcome| {
            let p = run.profile;
            (p.htod_calls, p.htod_bytes, p.dtoh_calls, p.dtoh_bytes)
        };
        assert_eq!(moved(&with), moved(&without), "{mapped}");
    }
}

/// The acceptance of the ordered summary on the paper's one interprocedural
/// port: linked, `lulesh_mf` costs what the same kernels cost inline.
#[test]
fn lulesh_mf_costs_what_lulesh_costs() {
    use ompdart_sim::{simulate_source, SimConfig};
    let clause = |text: &str, kind: &str| -> Vec<String> {
        let line = (text.lines())
            .find(|line| line.contains("#pragma omp target data"))
            .expect("main holds a region");
        let open = format!("map({kind}: ");
        let from = line
            .find(&open)
            .unwrap_or_else(|| panic!("no {open}in {line}"))
            + open.len();
        let len = line[from..].find(')').unwrap();
        let mut vars: Vec<String> = line[from..from + len]
            .split(", ")
            .map(String::from)
            .collect();
        vars.sort();
        vars
    };
    let inputs = owned(&lulesh_multifile());
    let lulesh = ompdart_suite::benchmarks::by_name("lulesh").unwrap();
    let unmapped = simulate_source(&lulesh_multifile_concat(), SimConfig::default()).unwrap();
    let tool = |threads: usize| Ompdart::builder().parallelism(threads).build();
    let concat = tool(1)
        .analyze("lulesh_mf_concat.c", &lulesh_multifile_concat())
        .unwrap();
    for threads in [1, 2, 8] {
        let program = tool(threads).analyze_program(&inputs).unwrap();
        assert_eq!(program.stats().unknown_callee_fallbacks, 0);
        assert_eq!(program.concatenated_rewrite(), concat.rewritten_source());
    }
    let run = simulate_source(concat.rewritten_source(), SimConfig::default()).unwrap();
    assert_eq!(run.output, unmapped.output);
    assert!(run.profile.total_bytes() <= 73_600, "{:?}", run.profile);
    assert!(run.profile.total_calls() <= 23, "{:?}", run.profile);
    let single = Ompdart::new()
        .analyze(&lulesh.unoptimized_file(), lulesh.unoptimized)
        .unwrap();
    let inline = simulate_source(single.rewritten_source(), SimConfig::default()).unwrap();
    assert_eq!(run.profile.total_bytes(), inline.profile.total_bytes());
    assert_eq!(run.profile.total_calls(), inline.profile.total_calls());
    let main = &tool(1).analyze_program(&inputs).unwrap().units[2];
    for kind in ["to", "tofrom", "alloc"] {
        assert_eq!(
            clause(&main.rewrite.source, kind),
            clause(single.rewritten_source(), kind),
            "main's map({kind}: ...) differs from the single-file port's"
        );
    }
    assert_eq!(clause(&main.rewrite.source, "to").len(), 11);
    assert_eq!(clause(&main.rewrite.source, "tofrom"), ["e", "work", "x"]);
    assert_eq!(clause(&main.rewrite.source, "alloc").len(), 10);
    // The clause says what decided it: the callee's order, and what
    // runs after the region.
    let explained = main.explain();
    assert!(
        explained.contains("`calc_forces` writes `fx` on the device before reading it"),
        "{explained}"
    );
    assert!(
        explained.contains("nothing that runs after the region reads it"),
        "{explained}"
    );
}

/// The order of a callee's accesses is part of its summary: swapping a
/// kernel write and a kernel read of a global keeps the four may bits and
/// moves the fingerprint, so the caller's unit is planned again — once.
/// Which globals a function nothing calls *mentions* is part of nothing (it
/// used to keep `main`'s exit copies alive, so it was part of `main`'s plan
/// key): an edit that changes only that plans the edited unit and no other.
#[test]
fn a_reordered_callee_replans_its_caller_once_and_a_mention_replans_nothing() {
    let header = "#ifndef SWAP_H\n#define SWAP_H\n#define N 32\n\
                  extern double t[N];\nextern double out[N];\nextern double far[N];\n\
                  void stage();\nvoid bystander();\n#endif\n";
    let kernel =
        "  #pragma omp target teams distribute parallel for\n  for (int i = 0; i < N; i++)";
    let stage = |write_first: bool| {
        let write = format!("{kernel} t[i] = i;\n");
        let read = format!("{kernel} out[i] = t[i];\n");
        let (first, second) = match write_first {
            true => (write, read),
            false => (read, write),
        };
        format!("{header}void stage() {{\n{first}{second}}}\n")
    };
    let bystander =
        |mentions: &str| format!("{header}void bystander() {{\n  far[0] = {mentions};\n}}\n");
    let main = format!(
        "{header}double t[N];\ndouble out[N];\ndouble far[N];\nint main() {{\n  \
         for (int s = 0; s < 3; s++) {{\n{kernel} out[i] = s;\n    stage();\n{kernel} out[i] += 1.0;\n  }}\n  \
         printf(\"%f\\n\", out[1]);\n  return 0;\n}}\n"
    );
    let units = |write_first: bool, mentions: &str| {
        vec![
            ("swap_stage.c".to_string(), stage(write_first)),
            ("swap_far.c".to_string(), bystander(mentions)),
            ("swap_main.c".to_string(), main.clone()),
        ]
    };
    let tool = Ompdart::builder().build();
    let session = Arc::clone(tool.session());
    // Every unit here defines one function: units planned, functions
    // planned.
    let planned = |inputs: &[(String, String)]| {
        let before = session.cache_stats();
        let program = tool.analyze_program(inputs).unwrap();
        let moved = session.cache_stats() - before;
        assert_eq!(moved.analysis_misses, moved.function_plan_misses);
        (moved.analysis_misses, program)
    };
    let (_, cold) = planned(&units(true, "1.0"));
    assert!(cold.units[2].rewrite.source.contains("map(alloc: t)"));

    // Same accesses, other order: `stage` and its caller `main`, nothing else.
    let (replanned, swapped) = planned(&units(false, "1.0"));
    assert_eq!(replanned, 2, "the edited unit and its one caller's");
    assert!(matches!(swapped.served[1], UnitServe::Cached));
    assert!(
        swapped.units[2].rewrite.source.contains("map(to: t)"),
        "read first: `t` is copied in now\n{}",
        swapped.units[2].rewrite.source
    );
    assert_ne!(
        cold.units[0].unit().exports(),
        swapped.units[0].unit().exports(),
        "the reordered unit exports another interface"
    );
    let (again, _) = planned(&units(false, "1.0"));
    assert_eq!(again, 0, "once");

    // The far unit starts mentioning `t` and `out`: its own function is
    // planned again, `main` — which used to key on every mention — is not.
    let (replanned, mentioned) = planned(&units(false, "t[0] + out[0]"));
    assert_eq!(replanned, 1, "only the edited unit");
    assert!(matches!(mentioned.served[2], UnitServe::Cached));
    assert_eq!(
        mentioned.units[2].rewrite.source,
        swapped.units[2].rewrite.source
    );
}

/// Three levels: `main` holds `x` on the device, `f` calls `g` — whose kernel
/// writes `x` — before its own kernel reads it. `g`'s result reaches `f`'s
/// kernel on the device; it was never a host write of `f`'s, so `f` must not
/// repeat its copy-in as an update (which would put the stale host `x` over
/// the current device one).
#[test]
fn a_nested_callees_device_write_is_not_a_host_write_of_its_caller() {
    let units = vec![
        (
            "nest_callees.c".to_string(),
            format!(
                "{ORDER_HEADER}void g(int s) {{\n  \
                 #pragma omp target teams distribute parallel for\n  \
                 for (int i = 0; i < N; i++) x[i] = i * 2.0 + s;\n}}\n\
                 void f(int s) {{\n  g(s);\n  \
                 #pragma omp target teams distribute parallel for\n  \
                 for (int i = 0; i < N; i++) y[i] = x[i] + 1.0;\n}}\n"
            )
            .replace("double g(int s);", "void g(int s);"),
        ),
        (
            "nest_main.c".to_string(),
            order_main("f(s);", true).replace("double g(int s);", "void g(int s);"),
        ),
    ];
    let mapped = mapped_one_and_linked(&units);
    assert!(!mapped.contains("#pragma omp target update"), "{mapped}");
}

// ---------------------------------------------------------------------------
// Names are declarations: a name that denotes two variables gets no shared plan
// ---------------------------------------------------------------------------

/// `g` writes the global `tmp` in a kernel.
const TMP_WRITER: &str = "\
double tmp[4];
void g(void) {
  #pragma omp target teams distribute parallel for
  for (int i = 0; i < 4; i++) tmp[i] = 9.0;
}
";

/// `main`'s own local `tmp`, which `g` cannot reach, read on the host after
/// `g` runs between two kernels on `a`.
const LOCAL_TMP_MAIN: &str = "\
void g(void);
int main() {
  double a[4];
  double tmp[4];
  for (int i = 0; i < 4; i++) { a[i] = 1.0; tmp[i] = 5.0; }
  #pragma omp target teams distribute parallel for
  for (int i = 0; i < 4; i++) a[i] = 2.0;
  g();
  #pragma omp target teams distribute parallel for
  for (int i = 0; i < 4; i++) a[i] += 1.0;
  printf(\"%f %f\\n\", a[0], tmp[0]);
  return 0;
}
";

/// Map `units` as one program under both option settings and
/// return the analyses after checking that each has no diagnostic and that
/// each mapped program prints what the unmapped one prints.
fn mapped_under_every_option(units: &[(String, String)]) -> Vec<ompdart_core::ProgramAnalysis> {
    use ompdart_sim::{simulate_source, SimConfig};
    let concat: String = units.iter().map(|(_, source)| source.as_str()).collect();
    let unmapped = simulate_source(&concat, SimConfig::default()).expect("unmapped program runs");
    [false, true]
        .into_iter()
        .map(|pessimistic| {
            let tool = Ompdart::builder().pessimistic_globals(pessimistic).build();
            let mapped = ompdart_suite::map_and_simulate(&tool, units).expect("maps and runs");
            for unit in &mapped.analysis.units {
                assert!(unit.diagnostics().is_empty(), "{:?}", unit.diagnostics());
            }
            assert_eq!(
                mapped.run.output,
                unmapped.output,
                "pessimistic globals {pessimistic}: the mapping changed \
                 what the program prints:\n{}",
                mapped.analysis.concatenated_rewrite()
            );
            mapped.analysis
        })
        .collect()
}

/// A callee's effect on the global `tmp` is replayed by name, so it used to
/// land on `main`'s local `tmp` too: `map(from: a, tmp)` copied the device
/// copy of the local, which nothing wrote, over its 5.0.
#[test]
fn a_callee_global_effect_skips_a_local_of_the_same_name() {
    let units = owned(&[("shadow.c", &format!("{TMP_WRITER}{LOCAL_TMP_MAIN}"))]);
    for analysis in mapped_under_every_option(&units) {
        assert!(!analysis
            .concatenated_rewrite()
            .contains("map(from: a, tmp)"));
    }
}

/// The same across units: `c.c` defines `tmp` and `g`, `main.c` has only its
/// local `tmp`.
#[test]
fn a_callee_global_effect_skips_a_local_of_the_same_name_across_units() {
    let units = owned(&[("c.c", TMP_WRITER), ("main.c", LOCAL_TMP_MAIN)]);
    for analysis in mapped_under_every_option(&units) {
        let main = analysis.units[1].rewritten_source();
        assert!(!main.contains("tmp)"), "{main}");
    }
}

/// A block's `a` hides the outer `a` the kernels work on. The planner maps
/// names, so it put `target update to(a)` after the block and the outer
/// `a`'s stale host copy over the device's: the program is refused, with
/// both declarations named. Sibling `for (int i …)` loops are not
/// shadowing, and the same program without the block plans cleanly.
#[test]
fn a_block_that_shadows_a_device_array_is_refused() {
    let program = |block: &str| {
        format!(
            "int main() {{\n  double a[4];\n  for (int i = 0; i < 4; i++) a[i] = 1.0;\n  \
             #pragma omp target teams distribute parallel for\n  \
             for (int i = 0; i < 4; i++) a[i] = 2.0;\n{block}  \
             #pragma omp target teams distribute parallel for\n  \
             for (int i = 0; i < 4; i++) a[i] += 1.0;\n  printf(\"%f\\n\", a[0]);\n  \
             return 0;\n}}\n"
        )
    };
    let shadowing = program(
        "  {\n    double a[4];\n    for (int i = 0; i < 4; i++) a[i] = 7.0;\n    \
         printf(\"%f\\n\", a[0]);\n  }\n",
    );
    let analysis = Ompdart::new()
        .analyze("shadow.c", &shadowing)
        .expect("the unit parses");
    let diagnostics = analysis.diagnostics();
    let errors: Vec<_> = (diagnostics.iter())
        .filter(|d| d.severity == ompdart_frontend::diag::Severity::Error)
        .collect();
    assert_eq!(errors.len(), 1, "{diagnostics:?}");
    let text = analysis.source_file().text();
    let at = |span: ompdart_frontend::source::Span| &text[span.start as usize..];
    assert!(errors[0]
        .message
        .contains("`a` names two variables in `main`"));
    assert!(
        at(errors[0].span).starts_with("a[4];\n    for"),
        "the inner `a`"
    );
    assert_eq!(errors[0].labels.len(), 1);
    assert!(
        at(errors[0].labels[0].span).starts_with("a[4];\n  for"),
        "the outer `a`"
    );

    mapped_under_every_option(&owned(&[("plain.c", &program(""))]));
}

/// What `program` prints under the simulator, line by line.
fn printed(program: &str) -> Vec<String> {
    let run = ompdart_sim::simulate_source(program, ompdart_sim::SimConfig::default());
    run.expect("the program runs").output
}

/// The mapping the planner gave [`LOCAL_TMP_MAIN`] beside [`TMP_WRITER`]
/// while a callee's effect still landed on a caller's local by name: `main`'s
/// local `tmp` is copied back from a device copy nothing wrote. `verify`
/// reads the copy back as what it is, the host taking the device's stale
/// value, and flags the host read of `tmp`.
#[test]
fn verify_flags_a_copy_back_over_a_newer_host_value() {
    let mapped = "\
double tmp[4];
void g(void) {
  #pragma omp target teams distribute parallel for map(from: tmp)
  for (int i = 0; i < 4; i++) tmp[i] = 9.0;
}
void g(void);
int main() {
  double a[4];
  double tmp[4];
  for (int i = 0; i < 4; i++) { a[i] = 1.0; tmp[i] = 5.0; }
  #pragma omp target data map(from: a, tmp)
  {
  #pragma omp target teams distribute parallel for
  for (int i = 0; i < 4; i++) a[i] = 2.0;
  g();
  #pragma omp target teams distribute parallel for
  for (int i = 0; i < 4; i++) a[i] += 1.0;
  }
  printf(\"%f %f\\n\", a[0], tmp[0]);
  return 0;
}
";
    let unmapped = format!("{TMP_WRITER}{LOCAL_TMP_MAIN}");
    assert_eq!(printed(&unmapped), ["3.000000 5.000000"]);
    assert_eq!(printed(mapped), ["3.000000 0.000000"]);
    let report = ompdart_core::verify_source("shadow.c", mapped).expect("parses");
    assert!(!report.is_clean());
    let found: Vec<_> = (report.stale_reads.iter())
        .map(|r| (r.function.as_str(), r.variable.as_str(), r.on_device))
        .collect();
    assert!(found.contains(&("main", "tmp", false)), "{found:?}");
}

/// The mapping the planner gave the shadowing-block program of
/// [`a_block_that_shadows_a_device_array_is_refused`] while it mapped by
/// name alone: `target update to(a)` after the block copies the outer `a`'s
/// stale host copy over the device's. `verify` refuses the program as the
/// planner now does, with one error naming both declarations.
#[test]
fn verify_refuses_a_block_that_shadows_a_device_array() {
    let block = "  {\n    double a[4];\n    for (int i = 0; i < 4; i++) a[i] = 7.0;\n    \
                 printf(\"%f\\n\", a[0]);\n  }\n";
    let program = |open: &str, update: &str, close: &str| {
        format!(
            "int main() {{\n  double a[4];\n  for (int i = 0; i < 4; i++) a[i] = 1.0;\n{open}  \
             #pragma omp target teams distribute parallel for\n  \
             for (int i = 0; i < 4; i++) a[i] = 2.0;\n{block}{update}  \
             #pragma omp target teams distribute parallel for\n  \
             for (int i = 0; i < 4; i++) a[i] += 1.0;\n{close}  printf(\"%f\\n\", a[0]);\n  \
             return 0;\n}}\n"
        )
    };
    let mapped = program(
        "  #pragma omp target data map(from: a)\n  {\n",
        "  #pragma omp target update to(a)\n",
        "  }\n",
    );
    assert_eq!(printed(&program("", "", "")), ["7.000000", "3.000000"]);
    assert_eq!(printed(&mapped), ["7.000000", "2.000000"]);
    let report = ompdart_core::verify_source("shadow.c", &mapped).expect("parses");
    assert!(!report.is_clean());
    let errors: Vec<_> = (report.diagnostics.iter())
        .filter(|d| d.severity == ompdart_frontend::diag::Severity::Error)
        .collect();
    assert_eq!(errors.len(), 1, "{:?}", report.diagnostics);
    assert!(errors[0]
        .message
        .contains("`a` names two variables in `main`"));
    assert_eq!(errors[0].labels.len(), 1);
}

// ---------------------------------------------------------------------------
// Unknown callees behind a wrapper
// ---------------------------------------------------------------------------

/// `clear` zeroes the global `a` through `memset`, which has no summary,
/// between two of `main`'s kernels.
const CLEARS_A_GLOBAL: &str = include_str!("wrappers/clear_global.c");

/// The same through a parameter: `main` hands its local `a` to `clear`.
const CLEARS_A_PARAM: &str = include_str!("wrappers/clear_param.c");

/// [`CLEARS_A_PARAM`] as two units: `main.c` sees only `clear`'s prototype.
fn clears_a_param_linked() -> Vec<(String, String)> {
    owned(&[
        ("main.c", include_str!("wrappers/linked/main.c")),
        ("clear.c", include_str!("wrappers/linked/clear.c")),
    ])
}

/// A wrapper's summary carries what the planner replays at its call to a
/// callee with no summary, so `main` brings `a` home before `clear()` and
/// sends it back after: the mapped program prints what the program prints,
/// under every option combination.
#[test]
fn an_unknown_callee_behind_a_wrapper_clears_a_global() {
    let units = owned(&[("clear_global.c", CLEARS_A_GLOBAL)]);
    for analysis in mapped_under_every_option(&units) {
        let main = analysis.units[0].rewritten_source();
        assert!(main.contains("target update from(a)\n  clear();"), "{main}");
    }
}

/// The same for the data a wrapper's parameter reaches.
#[test]
fn an_unknown_callee_behind_a_wrapper_clears_a_parameter() {
    let units = owned(&[("clear_param.c", CLEARS_A_PARAM)]);
    for analysis in mapped_under_every_option(&units) {
        let main = analysis.units[0].rewritten_source();
        assert!(
            main.contains("target update from(a)\n  clear(a);"),
            "{main}"
        );
    }
}

/// The same with the wrapper in another unit: its summary comes through the
/// link.
#[test]
fn an_unknown_callee_behind_a_wrapper_in_another_unit_clears_a_parameter() {
    for analysis in mapped_under_every_option(&clears_a_param_linked()) {
        let main = analysis.units[0].rewritten_source();
        assert!(
            main.contains("target update from(a)\n  clear(a);"),
            "{main}"
        );
    }
}

/// `program` as the planner mapped it while a wrapper's summary dropped the
/// unknown-callee fallback: one region around both kernels, no update at
/// the call.
fn mapped_without_the_fallback(program: &str) -> String {
    let region = program
        .replacen(
            "  #pragma omp target teams",
            "  #pragma omp target data map(tofrom: a)\n  {\n  #pragma omp target teams",
            1,
        )
        .replacen("  printf(", "  }\n  printf(", 1);
    assert_eq!(region.matches("target data").count(), 1);
    region
}

/// `verify` flags those rewrites: after the call, the host reads `a` (in
/// `memset`, at `clear()`) and the next kernel reads it, each a stale copy.
#[test]
fn verify_flags_a_wrapper_rewrite_without_the_fallback() {
    for program in [CLEARS_A_GLOBAL, CLEARS_A_PARAM] {
        let mapped = mapped_without_the_fallback(program);
        assert_eq!(printed(program), ["1.000000"]);
        assert_eq!(printed(&mapped), ["2.000000"]);
        let report = ompdart_core::verify_source("wrapper.c", &mapped).expect("parses");
        assert!(!report.is_clean());
        let found: Vec<_> = (report.stale_reads.iter())
            .map(|r| (r.function.as_str(), r.variable.as_str(), r.on_device))
            .collect();
        assert_eq!(
            found,
            [("main", "a", false), ("main", "a", true)],
            "{mapped}"
        );
    }
}
