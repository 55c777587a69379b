//! Pinned golden outputs, one plan in two spellings: the rewritten source of
//! every benchmark — the nine single-file programs and the linked three-file
//! lulesh port — is byte-identical to the committed `tests/golden/*.mapped.c`
//! files by default and to `tests/golden/lifetimes/*.mapped.c` under
//! `--lifetimes`.
//!
//! The default goldens predate the lifetimes mode; the `--lifetimes` ones
//! were recorded from the planner that still restated each `map` as an
//! `enter data` / `exit data` spec pair, before that mode became a rendering
//! of the structured plan. Neither set has moved since.
//!
//! Each port's default-mode plan document is pinned as well
//! (`tests/golden/plans/*.plan.json`): plans serialise node ids, spans and
//! provenance text, which a change to how the analysis addresses nodes could
//! move without moving a single byte of the rewrite.

use ompdart_core::{AnalysisSession, Ompdart, ProgramDriver};
use ompdart_suite::benchmarks;
use std::sync::Arc;

/// `(port, default golden, --lifetimes golden)`.
macro_rules! goldens {
    ($($name:literal),* $(,)?) => {
        [$((
            $name,
            include_str!(concat!("golden/", $name, ".mapped.c")),
            include_str!(concat!("golden/lifetimes/", $name, ".mapped.c")),
        )),*]
    };
}

const GOLDENS: [(&str, &str, &str); 9] = goldens![
    "accuracy", "ace", "backprop", "bfs", "clenergy", "hotspot", "lulesh", "nw", "xsbench",
];

const LINKED_GOLDENS: [(&str, &str, &str); 3] = goldens![
    "lulesh_mf/lulesh_mf_main",
    "lulesh_mf/lulesh_mf_mesh",
    "lulesh_mf/lulesh_mf_eos",
];

/// `(unit stem, default-mode plan JSON golden)`.
macro_rules! plan_goldens {
    ($($name:literal),* $(,)?) => {
        [$(($name, include_str!(concat!("golden/plans/", $name, ".plan.json")))),*]
    };
}

const PLAN_GOLDENS: [(&str, &str); 9] = plan_goldens![
    "accuracy", "ace", "backprop", "bfs", "clenergy", "hotspot", "lulesh", "nw", "xsbench",
];

const LINKED_PLAN_GOLDENS: [(&str, &str); 3] =
    plan_goldens!["lulesh_mf_main", "lulesh_mf_mesh", "lulesh_mf_eos"];

/// Every single-file port in one mode: the rewrite is its golden, and the
/// plan document round-trips with the mode's marker on every plan — the one
/// thing, with the `collapse(n)` clauses, that tells the two modes' plans
/// apart.
fn single_file_rewrites_match_goldens(lifetimes: bool) {
    let tool = Ompdart::builder().lifetimes(lifetimes).build();
    for (name, default_golden, lifetimes_golden) in GOLDENS {
        let bench = benchmarks::by_name(name).unwrap();
        let analysis = tool
            .analyze(&bench.unoptimized_file(), bench.unoptimized)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(
            analysis.rewritten_source(),
            if lifetimes {
                lifetimes_golden
            } else {
                default_golden
            },
            "{name}: rewrite (lifetimes = {lifetimes}) moved off its golden"
        );
        let plans = ompdart_core::plan::plans_from_json(&analysis.plans_json()).unwrap();
        assert_eq!(plans, analysis.plans());
        for plan in &plans {
            assert_eq!(plan.unstructured, lifetimes);
            assert!(lifetimes || plan.collapses.is_empty());
        }
    }
}

#[test]
fn default_rewrites_are_byte_identical_to_goldens() {
    single_file_rewrites_match_goldens(false);
}

#[test]
fn lifetimes_rewrites_are_byte_identical_to_goldens() {
    single_file_rewrites_match_goldens(true);
}

#[test]
fn linked_multifile_rewrites_are_byte_identical_to_goldens() {
    let units: Vec<(String, String)> = benchmarks::lulesh_multifile()
        .into_iter()
        .map(|(n, s)| (n.to_string(), s.to_string()))
        .collect();
    for lifetimes in [false, true] {
        let tool = Ompdart::builder().lifetimes(lifetimes).build();
        let program = tool.analyze_program(&units).unwrap();
        for (stem, default_golden, lifetimes_golden) in LINKED_GOLDENS {
            let name = format!("{}.c", stem.trim_start_matches("lulesh_mf/"));
            let unit = program
                .units
                .iter()
                .zip(&units)
                .find(|(_, (n, _))| *n == name)
                .map(|(u, _)| u)
                .unwrap_or_else(|| panic!("{name}: unit missing from linked program"));
            assert_eq!(
                unit.rewrite.source,
                if lifetimes {
                    lifetimes_golden
                } else {
                    default_golden
                },
                "{name}: linked (lifetimes = {lifetimes}) rewrite moved off its golden"
            );
        }
    }
}

/// The default-mode plan document of every port, node ids and provenance
/// text included, is byte-identical to its golden: the nine single-file
/// ports analysed alone, the three `lulesh_mf` units as one linked program.
#[test]
fn plan_json_is_byte_identical_to_goldens() {
    let tool = Ompdart::builder().build();
    for (name, golden) in PLAN_GOLDENS {
        let bench = benchmarks::by_name(name).unwrap();
        let analysis = tool
            .analyze(&bench.unoptimized_file(), bench.unoptimized)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(
            analysis.plans_json(),
            golden,
            "{name}: plan JSON moved off its golden"
        );
    }

    let units: Vec<(String, String)> = benchmarks::lulesh_multifile()
        .into_iter()
        .map(|(n, s)| (n.to_string(), s.to_string()))
        .collect();
    let program = tool.analyze_program(&units).unwrap();
    for (stem, golden) in LINKED_PLAN_GOLDENS {
        let unit = (program.units.iter().zip(&units))
            .find(|(_, (n, _))| n.trim_end_matches(".c") == stem)
            .map(|(u, _)| u)
            .unwrap_or_else(|| panic!("{stem}: unit missing from linked program"));
        assert_eq!(
            unit.plans_json(),
            golden,
            "{stem}: linked plan JSON moved off its golden"
        );
    }
}

/// The cold-path overhaul (interning, CSR graphs, memoized link inputs)
/// must never move a benchmark's output between rounds: on every
/// benchmark, a warm second analysis over the same session rewrites
/// byte-identically and serializes identical plan JSON; the linked
/// multi-file program additionally agrees at every link worker count.
#[test]
fn warm_rounds_and_thread_counts_keep_benchmarks_byte_identical() {
    let tool = Ompdart::builder().build();
    for bench in benchmarks::all() {
        let name = bench.unoptimized_file();
        let cold = tool
            .analyze(&name, bench.unoptimized)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        let warm = tool
            .analyze(&name, bench.unoptimized)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(
            warm.rewritten_source(),
            cold.rewritten_source(),
            "{name}: warm rewrite moved"
        );
        assert_eq!(
            warm.plans_json(),
            cold.plans_json(),
            "{name}: warm plan JSON moved"
        );
    }

    let units: Vec<(String, String)> = benchmarks::lulesh_multifile()
        .into_iter()
        .map(|(n, s)| (n.to_string(), s.to_string()))
        .collect();
    let outputs = |program: &ompdart_core::ProgramAnalysis| -> Vec<(String, String)> {
        program
            .units
            .iter()
            .map(|u| (u.rewritten_source().to_string(), u.plans_json()))
            .collect()
    };
    let driver_at = |threads: usize| {
        ProgramDriver::with_session(Arc::new(AnalysisSession::new().with_parallelism(threads)))
    };
    let driver = driver_at(1);
    let baseline = outputs(&driver.analyze_program(&units).unwrap());
    assert_eq!(
        outputs(&driver.analyze_program(&units).unwrap()),
        baseline,
        "lulesh_mf: warm linked round moved"
    );
    for threads in [2, 4, 8] {
        let program = driver_at(threads).analyze_program(&units).unwrap();
        assert_eq!(
            outputs(&program),
            baseline,
            "lulesh_mf: {threads}-thread link moved the output"
        );
    }
}
