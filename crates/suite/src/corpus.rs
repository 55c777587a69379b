//! Seeded synthetic corpus generator for link-stage scaling runs.
//!
//! [`generate`] produces a deterministic ~N-unit MiniC program shaped to
//! stress the whole-program link fixed point at a scale the nine paper
//! ports cannot:
//!
//! * **Deep cross-unit call chains** — `main` calls `stage_1`, each
//!   `stage_i` calls `stage_{i+1}` in the next unit, so summary effects
//!   must flow the full depth of the corpus. A wavefront engine resolves
//!   the chain in one reverse-topological sweep; a flat fixed point needs
//!   one pass per link.
//! * **Shared header-defined functions** — every unit carries the same
//!   guarded header, including a `static` kernel helper (`syn_touch`), so
//!   every unit plans a copy of the same function under its own name.
//! * **Recursion cycles** — every [`RECURSION_STRIDE`] units, a mutually
//!   recursive pair (`syn_rec_a_k` / `syn_rec_b_k`) spans two adjacent
//!   units, giving the condensation genuinely cyclic components that need
//!   inner fixed-point iteration.
//! * **Unit-private statics** — seeded units define a uniquely named
//!   `static` helper, exercising the `name@unit` mangling without
//!   breaking concatenation.
//!
//! The generator is pure: same `(units, seed)` in, byte-identical corpus
//! out. No prototypes are emitted for cross-unit calls (the link stage
//! resolves them by name), which keeps the corpus O(units) bytes; the
//! guarded header makes the concatenation of all units a single valid
//! translation unit. Every call resolves inside the program, so a linked
//! analysis reports `unknown_callee_fallbacks == 0`.

/// How often a mutually recursive pair is inserted (one pair spanning
/// units `k` and `k+1` for every stride).
pub const RECURSION_STRIDE: usize = 50;

/// The guarded shared header every unit carries. Byte-identical across
/// units so the non-function "environment" of the middle units matches
/// and the header-defined `static syn_touch` is store-shareable.
const HEADER: &str = "\
#ifndef SYN_CORPUS_H
#define SYN_CORPUS_H
#define SYN_N 64
extern double syn_acc[SYN_N];
extern double syn_aux[SYN_N];
extern double syn_extra[SYN_N];
static void syn_touch(void) {
  #pragma omp target teams distribute parallel for
  for (int i = 0; i < SYN_N; i++) syn_aux[i] += 0.5;
  printf(\"%f\\n\", syn_aux[0]);
}
#endif
";

/// Deterministic splitmix64 step — the corpus must not depend on any
/// ambient randomness source.
fn mix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e3779b97f4a7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

/// Units `k` (with `k + 1` still in range) that host the `syn_rec_a_k`
/// half of a mutually recursive pair.
fn recursion_anchors(units: usize) -> Vec<usize> {
    (1..units)
        .filter(|k| k % RECURSION_STRIDE == RECURSION_STRIDE / 2 && k + 1 < units)
        .collect()
}

/// Generate the corpus: `units` translation units as `(file name, source)`
/// pairs in link order. Unit 0 defines the shared globals and `main`;
/// unit `i >= 1` defines `stage_i`. Deterministic in `(units, seed)`.
///
/// # Panics
///
/// Panics if `units == 0`.
pub fn generate(units: usize, seed: u64) -> Vec<(String, String)> {
    assert!(units > 0, "a corpus needs at least the driver unit");
    let mut rng = seed ^ 0x5353_4343_4c4e_4b21; // distinct stream per seed
    let anchors = recursion_anchors(units);
    let mut out = Vec::with_capacity(units);

    // Unit 0: globals + main.
    let mut driver = String::from(HEADER);
    driver.push_str("double syn_acc[SYN_N];\ndouble syn_aux[SYN_N];\ndouble syn_extra[SYN_N];\n");
    driver.push_str("int main() {\n  syn_touch();\n");
    if units > 1 {
        driver.push_str("  stage_1();\n");
    }
    for &k in &anchors {
        driver.push_str(&format!("  syn_rec_a_{k}(3);\n"));
    }
    driver.push_str("  printf(\"%f\\n\", syn_acc[0]);\n  return 0;\n}\n");
    out.push(("syn_0000.c".to_string(), driver));

    for i in 1..units {
        let roll = mix(&mut rng);
        let mut src = String::from(HEADER);

        // Seeded unit-private static helper (uniquely named, so the
        // concatenation stays a valid single unit).
        let has_local = roll.is_multiple_of(4);
        if has_local {
            src.push_str(&format!(
                "static void syn_local_{i}(void) {{\n  syn_aux[{slot}] += 2.0;\n}}\n",
                slot = roll % 64,
            ));
        }

        // One half of a mutually recursive pair: `syn_rec_a_k` lives in
        // unit k, `syn_rec_b_k` in unit k + 1, each calling the other.
        if anchors.contains(&i) {
            src.push_str(&format!(
                "void syn_rec_a_{i}(int depth) {{\n  \
                 syn_acc[{slot}] += 1.0;\n  \
                 if (depth > 0) {{ syn_rec_b_{i}(depth - 1); }}\n}}\n",
                slot = (roll >> 8) % 64,
            ));
        }
        if i > 0 && anchors.contains(&(i - 1)) {
            let k = i - 1;
            src.push_str(&format!(
                "void syn_rec_b_{k}(int depth) {{\n  \
                 syn_aux[{slot}] += 1.0;\n  \
                 if (depth > 0) {{ syn_rec_a_{k}(depth - 1); }}\n}}\n",
                slot = (roll >> 16) % 64,
            ));
        }

        // The chain link itself.
        src.push_str(&format!("void stage_{i}(void) {{\n"));
        src.push_str(&format!(
            "  syn_acc[{slot}] += 1.0;\n",
            slot = (roll >> 24) % 64
        ));
        if roll.is_multiple_of(3) {
            src.push_str("  syn_touch();\n");
        }
        if has_local {
            src.push_str(&format!("  syn_local_{i}();\n"));
        }
        if roll % 25 == 7 {
            src.push_str(
                "  #pragma omp target teams distribute parallel for\n  \
                 for (int i = 0; i < SYN_N; i++) syn_acc[i] += syn_aux[i];\n",
            );
        }
        if i + 1 < units {
            src.push_str(&format!("  stage_{}();\n", i + 1));
        }
        src.push_str("}\n");

        out.push((format!("syn_{i:04}.c"), src));
    }
    out
}

/// The single-translation-unit equivalent of [`generate`]: all units
/// concatenated in link order (the header guard keeps it well-formed).
pub fn concat(units: &[(String, String)]) -> String {
    units.iter().map(|(_, src)| src.as_str()).collect()
}

/// Apply a semantic one-function edit to `stage_<unit_index>` in place:
/// insert a write to `syn_extra`, a global no generated function touches,
/// so the function's *effect summary* genuinely changes and an
/// incremental relink must re-seed its dirty cone (the edited stage plus
/// its transitive callers). Returns the edited function's name.
///
/// # Panics
///
/// Panics if `unit_index` is 0, out of range, or the stage body cannot be
/// found (the corpus was not produced by [`generate`]).
pub fn edit_one_function(units: &mut [(String, String)], unit_index: usize) -> String {
    assert!(
        unit_index > 0 && unit_index < units.len(),
        "only the stage units 1..len can be edited"
    );
    let name = format!("stage_{unit_index}");
    let marker = format!("void {name}(void) {{\n");
    let src = &mut units[unit_index].1;
    let at = src
        .find(&marker)
        .expect("generated corpus must contain its stage function");
    src.insert_str(at + marker.len(), "  syn_extra[0] += 3.0;\n");
    name
}

#[cfg(test)]
mod tests {
    use super::*;
    use ompdart_core::program::ProgramDriver;
    use ompdart_core::AnalysisSession;
    use std::sync::Arc;

    #[test]
    fn generation_is_deterministic_and_o_n_sized() {
        let a = generate(40, 7);
        let b = generate(40, 7);
        assert_eq!(a, b, "same (units, seed) must be byte-identical");
        let c = generate(40, 8);
        assert_ne!(a, c, "the seed must matter");

        // No prototypes: the corpus grows linearly, not quadratically.
        let small: usize = generate(20, 7).iter().map(|(_, s)| s.len()).sum();
        let large: usize = generate(200, 7).iter().map(|(_, s)| s.len()).sum();
        assert!(
            large < small * 20,
            "corpus must stay O(units): 20 units = {small}B, 200 units = {large}B"
        );
    }

    /// The corpus links cleanly: every cross-unit call resolves (zero
    /// pessimistic fallbacks), the deep chain converges, and the recursion
    /// pairs are genuinely cyclic.
    #[test]
    fn corpus_links_with_zero_fallbacks() {
        let units = 120;
        let corpus = generate(units, 42);
        assert_eq!(corpus.len(), units);
        let driver = ProgramDriver::new();
        let analysis = driver.analyze_program(&corpus).unwrap();
        let stats = analysis.stats();
        assert_eq!(
            stats.unknown_callee_fallbacks, 0,
            "every call in the corpus must resolve across units"
        );
        assert!(stats.kernels > 0, "the corpus must contain offload kernels");
        assert!(
            !recursion_anchors(units).is_empty(),
            "a 120-unit corpus must contain recursion pairs"
        );
    }

    /// Regression for the link_scale trajectory: a one-function edit in
    /// the middle of the chain re-seeds at most its dirty cone (the
    /// edited stage plus its transitive callers), never the whole
    /// program.
    #[test]
    fn one_function_edit_reseeds_only_the_dirty_cone() {
        let units = 60;
        let mut corpus = generate(units, 42);
        let session = Arc::new(AnalysisSession::new());
        let driver = ProgramDriver::with_session(Arc::clone(&session));
        driver.analyze_program(&corpus).unwrap();

        let edit_at = 40;
        let name = edit_one_function(&mut corpus, edit_at);
        let before = session.cache_stats();
        driver.analyze_program(&corpus).unwrap();
        let reseeded = (session.cache_stats() - before).relink_reseeded_functions;
        let cone_bound = (edit_at + 1) as u64; // main + stage_1..stage_40
        assert!(
            reseeded >= 1,
            "editing {name} must re-seed at least the edited function"
        );
        assert!(
            reseeded <= cone_bound,
            "editing {name} re-seeded {reseeded} functions, dirty cone is {cone_bound}"
        );
    }

    /// The header guard makes the concatenation a valid single unit, and
    /// the one-function edit is a real semantic change.
    #[test]
    fn concat_parses_and_edit_changes_the_stage() {
        let mut corpus = generate(60, 42);
        let single = concat(&corpus);
        let driver = ProgramDriver::new();
        driver
            .analyze_program(&[("all.c".to_string(), single)])
            .expect("concatenated corpus must be a valid translation unit");

        let before = corpus[30].1.clone();
        let name = edit_one_function(&mut corpus, 30);
        assert_eq!(name, "stage_30");
        assert_ne!(corpus[30].1, before);
        driver
            .analyze_program(&corpus)
            .expect("edited corpus must still link");
    }
}
