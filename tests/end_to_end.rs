//! Cross-crate integration tests: frontend -> graph -> core -> sim on the
//! motivating examples of the paper and a subset of the benchmark suite,
//! all through the `Ompdart` builder facade.

use ompdart_core::plan::{justified_line_count, plans_from_json, plans_to_json};
use ompdart_core::{verify_source, MappingConstruct, Ompdart};
use ompdart_frontend::omp::DirectiveKind;
use ompdart_sim::{simulate_source, CostModel, SimConfig};
use ompdart_suite::experiment::{ports, run_port};
use ompdart_suite::{
    all_benchmarks, lulesh_multifile, lulesh_multifile_expert_concat, table4_rows,
};

fn analyze(name: &str, src: &str) -> std::sync::Arc<ompdart_core::UnitAnalysis> {
    Ompdart::builder()
        .build()
        .analyze(name, src)
        .unwrap_or_else(|e| panic!("analysis of {name} failed: {e}"))
}

/// Table I: every offload-kernel directive kind must be recognized by the
/// frontend, marked offloaded by the graph crate, and mapped by the core.
#[test]
fn table1_every_kernel_directive_is_supported_end_to_end() {
    for kind in DirectiveKind::all_offload_kernels() {
        let src = format!(
            "#define N 32\ndouble a[N];\nvoid f() {{\n  #pragma omp {}\n  for (int i = 0; i < N; i++) a[i] = i;\n}}\nint main() {{ f(); printf(\"%.0f\\n\", a[5]); return 0; }}\n",
            kind.directive_text()
        );
        let analysis = analyze("kernel.c", &src);
        assert_eq!(analysis.stats().kernels, 1, "{kind:?}");
        assert!(analysis.stats().map_clauses >= 1, "{kind:?}");
        let before = simulate_source(&src, SimConfig::default()).unwrap();
        let after = simulate_source(analysis.rewritten_source(), SimConfig::default()).unwrap();
        assert_eq!(before.output, after.output, "{kind:?}");
    }
}

/// Table II: the seven constructs of the paper are exactly the ones the tool
/// can insert, and each can be observed in at least one transformation.
#[test]
fn table2_constructs_are_observable() {
    assert_eq!(MappingConstruct::all().len(), 7);

    // A program that needs map(to), map(from), map(alloc), update to,
    // update from and firstprivate all at once.
    let src = "\
#define N 64
#define STEPS 4
double input[N];
double output[N];
double scratch[N];
int flag;
int main() {
  for (int i = 0; i < N; i++) { input[i] = i; output[i] = 0.0; scratch[i] = 0.0; }
  double scale = 0.5;
  for (int s = 0; s < STEPS; s++) {
    flag = s;
    #pragma omp target teams distribute parallel for
    for (int i = 0; i < N; i++) {
      scratch[i] = input[i] * scale + flag;
      if (i > 0) {
        output[i] = scratch[i] + output[i - 1];
      }
    }
    double probe = 0.0;
    for (int i = 0; i < N; i++) probe += output[i];
    printf(\"probe %.1f\\n\", probe);
  }
  printf(\"last %.1f\\n\", output[N - 1] + scratch[N - 1]);
  return 0;
}
";
    let analysis = analyze("all_constructs.c", src);
    let text = analysis.rewritten_source();
    assert!(text.contains("map(to:"), "{text}");
    assert!(
        text.contains("map(from:") || text.contains("map(tofrom:"),
        "{text}"
    );
    assert!(text.contains("firstprivate("), "{text}");
    assert!(text.contains("target update from("), "{text}");
    let before = simulate_source(src, SimConfig::default()).unwrap();
    let after = simulate_source(text, SimConfig::default()).unwrap();
    assert_eq!(before.output, after.output, "{text}");
}

/// The paper's three motivating listings, end to end through the public API.
#[test]
fn motivating_listings_reduce_transfers_and_stay_correct() {
    let listing1 = "\
#define N 128
int a[N];
int main() {
  for (int i = 0; i < N; ++i) {
    #pragma omp target
    for (int j = 0; j < N; ++j) a[j] += j;
  }
  int s = 0;
  for (int j = 0; j < N; ++j) s += a[j];
  printf(\"%d\\n\", s);
  return 0;
}
";
    let listing2 = "\
#define N 128
int a[N];
int main() {
  #pragma omp target
  for (int i = 0; i < N; ++i) a[i] += i;
  #pragma omp target
  for (int i = 0; i < N; ++i) a[i] *= i;
  printf(\"%d\\n\", a[64]);
  return 0;
}
";
    for (name, src, min_reduction) in [("listing1", listing1, 10.0), ("listing2", listing2, 1.5)] {
        let analysis = analyze(name, src);
        let before = simulate_source(src, SimConfig::default()).unwrap();
        let after = simulate_source(analysis.rewritten_source(), SimConfig::default()).unwrap();
        assert_eq!(before.output, after.output, "{name}");
        let reduction =
            before.profile.total_bytes() as f64 / after.profile.total_bytes().max(1) as f64;
        assert!(
            reduction >= min_reduction,
            "{name}: expected at least {min_reduction}x transfer reduction, got {reduction:.2}x"
        );
    }
}

/// Acceptance: for all ten ports (the linked `lulesh_mf` included), every
/// construct of every plan carries a non-default provenance, the explain
/// rendering justifies each construct on its own line, and the plan JSON
/// round-trips.
#[test]
fn every_benchmark_plan_is_fully_explained() {
    let tool = Ompdart::new();
    for port in ports() {
        let name = port.name;
        let program = tool.analyze_program(&port.units).unwrap();
        let plans: Vec<_> = (program.units.iter())
            .flat_map(|unit| unit.plans.plans.iter().cloned())
            .collect();
        assert!(!plans.is_empty(), "{name}: no plans");
        let mut constructs = 0;
        for plan in &plans {
            constructs += plan.construct_count();
            for p in plan.provenances() {
                let function = &plan.function;
                assert!(
                    p.is_justified(),
                    "{name}: construct without provenance in `{function}`"
                );
                assert!(
                    !p.detail.is_empty(),
                    "{name}: empty provenance detail in `{function}`"
                );
            }
        }
        assert!(constructs > 0, "{name}: no constructs");
        // One justified line per construct.
        let explained = ompdart_core::explain_plans(&plans, None);
        assert_eq!(
            justified_line_count(&explained),
            constructs,
            "{name}: explain must print one justified line per construct:\n{explained}"
        );
        // The serialized IR is the identity under round-trip.
        let back = plans_from_json(&plans_to_json(&plans)).unwrap();
        assert_eq!(back, plans, "{name}");
    }
}

/// What `core::verify`'s module documentation promises: every expert
/// variant of the ten ports and everything the tool generates for them, in
/// both spellings, verifies clean — `lulesh_mf` as the concatenation of its
/// units in link order, where `main` holds the data around kernels that sit
/// in functions of the other two.
#[test]
fn every_expert_and_generated_variant_of_the_ports_verifies_clean() {
    let mut findings = Vec::new();
    let mut clean = |what: String, source: &str| {
        let report = verify_source(&what, source).unwrap_or_else(|e| panic!("{what}: {e:?}"));
        for read in report.stale_reads {
            findings.push(format!("{what}: {read:?}"));
        }
    };
    for bench in all_benchmarks() {
        clean(format!("{} expert", bench.name), bench.expert);
    }
    clean(
        "lulesh_mf expert".to_string(),
        &lulesh_multifile_expert_concat(),
    );
    for lifetimes in [false, true] {
        let tool = Ompdart::builder().lifetimes(lifetimes).build();
        let at = |name: &str| format!("{name} generated, lifetimes {lifetimes}");
        for bench in all_benchmarks() {
            let analysis = tool.analyze(bench.name, bench.unoptimized).unwrap();
            clean(at(bench.name), analysis.rewritten_source());
        }
        let units: Vec<(String, String)> = (lulesh_multifile().into_iter())
            .map(|(name, source)| (name.to_string(), source.to_string()))
            .collect();
        let program = tool.analyze_program(&units).unwrap();
        clean(at("lulesh_mf"), &program.concatenated_rewrite());
    }
    assert!(findings.is_empty(), "{findings:#?}");
}

/// The macro-twin oracle: a program that writes its subscripts, loop bounds
/// and host code with function-like macros, and the same program with every
/// call expanded by hand, are one program to the tool — same decisions, same
/// transfers, same output — under both spellings of the mapping.
#[test]
fn a_function_like_macro_program_maps_like_its_hand_expanded_twin() {
    let head = "\
#define N 16
#define M 8
";
    let macros = "\
#define IDX(i, j) ((i) * M + (j))
#define MIN(a, b) ((a) < (b) ? (a) : (b))
";
    let body = "\
double grid[N * M];
double row_sum[N];
int main() {
  for (int i = 0; i < N; i++)
    for (int j = 0; j < M; j++)
      grid[IDX(i, j)] = i + 0.5 * j;
  for (int step = 0; step < 3; step++) {
    #pragma omp target teams distribute parallel for
    for (int i = 0; i < MIN(N, 12); i++) {
      double s = 0.0;
      for (int j = 0; j < M; j++) s += grid[IDX(i, j)];
      row_sum[i] = s;
    }
    #pragma omp target teams distribute parallel for
    for (int i = 0; i < N; i++)
      grid[IDX(i, MIN(i, M - 1))] += row_sum[MIN(i, 11)];
    grid[IDX(step, 0)] += 1.0;
  }
  double total = 0.0;
  for (int i = 0; i < MIN(N, 12); i++) total += row_sum[i] + grid[IDX(i, 0)];
  printf(\"%f\\n\", total);
  return 0;
}
";
    let with_macros = format!("{head}{macros}{body}");
    let by_hand = format!("{head}{body}")
        .replace("MIN(N, 12)", "((N) < (12) ? (N) : (12))")
        .replace("MIN(i, 11)", "((i) < (11) ? (i) : (11))")
        .replace("MIN(i, M - 1)", "((i) < (M - 1) ? (i) : (M - 1))")
        .replace("IDX(i, j)", "((i) * M + (j))")
        .replace("IDX(i, 0)", "((i) * M + (0))")
        .replace("IDX(step, 0)", "((step) * M + (0))")
        .replace(
            "IDX(i, ((i) < (M - 1) ? (i) : (M - 1)))",
            "((i) * M + (((i) < (M - 1) ? (i) : (M - 1))))",
        );
    assert!(!by_hand.contains("IDX") && !by_hand.contains("MIN"));

    let unmapped = simulate_source(&with_macros, SimConfig::default()).unwrap();
    for lifetimes in [false, true] {
        let tool = Ompdart::builder().lifetimes(lifetimes).build();
        let mut runs = Vec::new();
        let mut decisions = Vec::new();
        for (name, source) in [("macros.c", &with_macros), ("by_hand.c", &by_hand)] {
            let at = format!("{name}, lifetimes {lifetimes}");
            let analysis = tool
                .analyze(name, source)
                .unwrap_or_else(|e| panic!("{at}: {e}"));
            assert!(analysis.diagnostics().is_empty(), "{at}");
            let rewritten = analysis.rewritten_source();
            // The rewrite re-parses, verifies clean and runs.
            let report = verify_source(name, rewritten).unwrap_or_else(|e| panic!("{at}: {e:?}"));
            assert!(report.stale_reads.is_empty(), "{at}: {report:?}");
            let run = simulate_source(rewritten, SimConfig::default()).unwrap();
            assert_eq!(run.output, unmapped.output, "{at}");
            runs.push((run.profile.total_bytes(), run.profile.total_calls()));
            // The decisions, up to spans: node ids number the same tree.
            let plans: Vec<_> = (analysis.plans().iter())
                .map(|plan| {
                    let maps: Vec<_> = (plan.maps.iter())
                        .map(|m| (m.var.clone(), m.map_type, m.section_length.clone()))
                        .collect();
                    let updates: Vec<_> = (plan.updates.iter())
                        .map(|u| (u.var.clone(), u.direction, u.anchor, u.placement))
                        .collect();
                    (plan.function.clone(), plan.unstructured, maps, updates)
                })
                .collect();
            decisions.push(plans);
        }
        assert_eq!(runs[0], runs[1], "lifetimes {lifetimes}");
        assert_eq!(decisions[0], decisions[1], "lifetimes {lifetimes}");
        assert!(
            runs[0].0 < unmapped.profile.total_bytes(),
            "the mapping moves less than the implicit one"
        );
        assert!(decisions[0].iter().any(|plan| !plan.2.is_empty()));
    }
}

/// A focused subset of the ports (the full ten-port run lives in
/// `ompdart-suite`), one-unit and linked; checks the cross-crate plumbing
/// under a non-default cost model, which applies where results are read.
#[test]
fn benchmark_subset_end_to_end() {
    let cost = CostModel::fast_interconnect();
    let subset = ["backprop", "clenergy", "lulesh_mf"];
    for port in ports().iter().filter(|p| subset.contains(&p.name)) {
        let result = run_port(port).unwrap();
        let name = port.name;
        assert!(result.output_matches_expert(), "{name}");
        assert!(result.output_matches_unoptimized(), "{name}");
        assert!(
            result.speedup_ompdart(&cost) >= result.speedup_expert(&cost) * 0.95,
            "{name}"
        );
    }
}

/// Table IV sanity from the workspace root: lulesh dominates the mapping
/// search space, mirroring the paper.
#[test]
fn table4_rows_available_from_root() {
    let rows = table4_rows();
    assert_eq!(rows.len(), 9);
    let lulesh = rows.iter().find(|r| r.name == "lulesh").unwrap();
    assert_eq!(lulesh.kernels, 15);
    assert!(rows
        .iter()
        .all(|r| lulesh.possible_mappings >= r.possible_mappings));
}
