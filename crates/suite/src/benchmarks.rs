//! The nine benchmark programs used to evaluate OMPDart (Table III of the
//! paper), ported to MiniC.
//!
//! Each benchmark ships in two variants, exactly as in the paper's
//! evaluation methodology (Section V):
//!
//! * **unoptimized** — no explicit data mappings; the program relies on the
//!   implicit OpenMP data-mapping rules. This is the input OMPDart consumes.
//! * **expert** — the hand-optimized data mappings of the Rodinia / HeCBench
//!   implementations (including their known inefficiencies: the small struct
//!   clenergy overlooks, the scalars hotspot/nw/xsbench map instead of
//!   passing firstprivate, and lulesh's redundant per-step updates).
//!
//! The ports are scaled down so the offload runtime simulator executes them
//! in milliseconds, but they preserve the data-mapping structure that drives
//! the paper's results: the same kernel counts as Table IV, the same
//! host/device interleavings, and the same opportunities for OMPDart.

/// Origin suite of a benchmark (Table III).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Suite {
    Rodinia,
    HeCBench,
}

impl Suite {
    pub fn as_str(&self) -> &'static str {
        match self {
            Suite::Rodinia => "Rodinia",
            Suite::HeCBench => "HeCBench",
        }
    }
}

/// One benchmark application with both evaluation variants.
#[derive(Clone, Debug)]
pub struct Benchmark {
    /// Short name used throughout the paper (e.g. `backprop`).
    pub name: &'static str,
    pub suite: Suite,
    /// Application domain (Table III).
    pub domain: &'static str,
    /// One-line description (Table III).
    pub description: &'static str,
    /// Source without explicit data mappings (OMPDart's input).
    pub unoptimized: &'static str,
    /// Source with the expert-defined data mappings.
    pub expert: &'static str,
    /// True when the paper reports OMPDart strictly outperforming the expert
    /// mapping (lulesh).
    pub tool_beats_expert: bool,
}

impl Benchmark {
    /// File name used when reporting diagnostics for the unoptimized source.
    pub fn unoptimized_file(&self) -> String {
        format!("{}_unoptimized.c", self.name)
    }
}

/// All nine benchmarks in the order the paper lists them (Table III).
pub fn all() -> Vec<Benchmark> {
    vec![
        Benchmark {
            name: "accuracy",
            suite: Suite::HeCBench,
            domain: "Machine Learning",
            description: "Computes the classification accuracy of a neural network",
            unoptimized: include_str!("../assets/accuracy_unoptimized.c"),
            expert: include_str!("../assets/accuracy_expert.c"),
            tool_beats_expert: false,
        },
        Benchmark {
            name: "ace",
            suite: Suite::HeCBench,
            domain: "Fluid Dynamics",
            description: "Phase-field simulation of dendritic solidification (Allen-Cahn equation)",
            unoptimized: include_str!("../assets/ace_unoptimized.c"),
            expert: include_str!("../assets/ace_expert.c"),
            tool_beats_expert: false,
        },
        Benchmark {
            name: "backprop",
            suite: Suite::Rodinia,
            domain: "Pattern Recognition",
            description: "Trains the weights of connecting nodes on a neural network layer",
            unoptimized: include_str!("../assets/backprop_unoptimized.c"),
            expert: include_str!("../assets/backprop_expert.c"),
            tool_beats_expert: false,
        },
        Benchmark {
            name: "bfs",
            suite: Suite::Rodinia,
            domain: "Graph Traversal",
            description: "Traverses all the connected components in a graph",
            unoptimized: include_str!("../assets/bfs_unoptimized.c"),
            expert: include_str!("../assets/bfs_expert.c"),
            tool_beats_expert: false,
        },
        Benchmark {
            name: "clenergy",
            suite: Suite::HeCBench,
            domain: "Physics Simulation",
            description:
                "Evaluates electrostatic potentials on a lattice by direct Coulomb summation",
            unoptimized: include_str!("../assets/clenergy_unoptimized.c"),
            expert: include_str!("../assets/clenergy_expert.c"),
            tool_beats_expert: false,
        },
        Benchmark {
            name: "hotspot",
            suite: Suite::Rodinia,
            domain: "Physics Simulation",
            description: "Thermal simulation estimating processor temperature from the floor plan",
            unoptimized: include_str!("../assets/hotspot_unoptimized.c"),
            expert: include_str!("../assets/hotspot_expert.c"),
            tool_beats_expert: false,
        },
        Benchmark {
            name: "lulesh",
            suite: Suite::HeCBench,
            domain: "Hydrodynamics",
            description: "Proxy application that simulates shock hydrodynamics",
            unoptimized: include_str!("../assets/lulesh_unoptimized.c"),
            expert: include_str!("../assets/lulesh_expert.c"),
            tool_beats_expert: true,
        },
        Benchmark {
            name: "nw",
            suite: Suite::Rodinia,
            domain: "Bioinformatics",
            description: "Needleman-Wunsch global optimization for DNA sequence alignment",
            unoptimized: include_str!("../assets/nw_unoptimized.c"),
            expert: include_str!("../assets/nw_expert.c"),
            tool_beats_expert: false,
        },
        Benchmark {
            name: "xsbench",
            suite: Suite::HeCBench,
            domain: "Neutron Transport",
            description: "Key computational kernel of the Monte-Carlo neutron transport algorithm",
            unoptimized: include_str!("../assets/xsbench_unoptimized.c"),
            expert: include_str!("../assets/xsbench_expert.c"),
            tool_beats_expert: false,
        },
    ]
}

/// Find a benchmark by name.
pub fn by_name(name: &str) -> Option<Benchmark> {
    all().into_iter().find(|b| b.name == name)
}

/// The multi-file lulesh port: the single-`main` lulesh benchmark
/// restructured into three translation units — mesh/forces, EOS/material,
/// and the driver — each carrying the guarded shared header
/// (`LULESH_MF_H`), so every unit parses stand-alone *and* the
/// concatenation of the three units is itself a valid single translation
/// unit. This is the whole-program link stage's workload: the driver's
/// kernels call helpers in the other files, `reduce_dtc` is a read-only
/// non-const-pointer helper that closed-world analysis must treat
/// pessimistically, and the last host readers of the energy/work fields
/// live in a different unit than the kernels that produce them.
///
/// Returns `(file name, source)` pairs in link order.
pub fn lulesh_multifile() -> Vec<(&'static str, &'static str)> {
    vec![
        (
            "lulesh_mf_mesh.c",
            include_str!("../assets/lulesh_mf_mesh.c"),
        ),
        ("lulesh_mf_eos.c", include_str!("../assets/lulesh_mf_eos.c")),
        (
            "lulesh_mf_main.c",
            include_str!("../assets/lulesh_mf_main.c"),
        ),
    ]
}

/// The single-translation-unit equivalent of [`lulesh_multifile`]: the
/// three unit sources concatenated in link order. The `#ifndef` header
/// guard makes the result a well-formed program; the whole-program golden
/// tests pin that analyzing the units linked equals analyzing this
/// concatenation.
pub fn lulesh_multifile_concat() -> String {
    lulesh_multifile().iter().map(|(_, src)| *src).collect()
}

/// The expert counterpart of [`lulesh_multifile`]: the same mesh and EOS
/// units (their kernels carry no data directives — the data environment is
/// established by the driver), with the driver unit replaced by the
/// hand-mapped `lulesh_mf_main_expert.c` — one target data region whose
/// dynamic extent covers the kernels in the other files, plus the upstream
/// port's redundant per-step `target update from` directives.
///
/// Returns `(file name, source)` pairs in link order.
pub fn lulesh_multifile_expert() -> Vec<(&'static str, &'static str)> {
    vec![
        (
            "lulesh_mf_mesh.c",
            include_str!("../assets/lulesh_mf_mesh.c"),
        ),
        ("lulesh_mf_eos.c", include_str!("../assets/lulesh_mf_eos.c")),
        (
            "lulesh_mf_main_expert.c",
            include_str!("../assets/lulesh_mf_main_expert.c"),
        ),
    ]
}

/// The single-translation-unit equivalent of [`lulesh_multifile_expert`].
pub fn lulesh_multifile_expert_concat() -> String {
    lulesh_multifile_expert()
        .iter()
        .map(|(_, src)| *src)
        .collect()
}

/// A multi-function incremental-analysis workload (not part of the paper's
/// nine-benchmark evaluation): five functions around a 1-D advection step,
/// several of which launch their own offload kernels. The nine paper ports
/// are single-`main` programs, so this is the corpus member that exercises
/// function-granular re-planning — editing one function body leaves the
/// other functions' plans reusable.
pub fn incremental_demo() -> &'static str {
    include_str!("../assets/incremental_demo.c")
}

/// Produce a one-function edit of `source`: a comment (containing multibyte
/// UTF-8, which also stresses the rewriter's char-boundary handling) is
/// inserted at the start of one function body, changing that function's
/// text — and shifting every later byte offset and node id — without
/// changing the program's semantics. Returns the edited source and the name
/// of the edited function, or `None` when the source has no function
/// definition to edit.
///
/// The edited function is the *first* defined function, so in
/// multi-function programs every function behind it is displaced in node
/// ids and byte offsets.
pub fn one_function_edit(name: &str, source: &str) -> Option<(String, String)> {
    let parsed = ompdart_core::pipeline::stage_parse(name, source).ok()?;
    let func = parsed.unit.functions().next()?;
    let insert_at = func.body.as_ref()?.span.start as usize + 1; // just past `{`
    if insert_at > source.len() || !source.is_char_boundary(insert_at) {
        return None;
    }
    let mut edited = String::with_capacity(source.len() + 48);
    edited.push_str(&source[..insert_at]);
    edited.push_str(" /* édition incrémentale ✎ */");
    edited.push_str(&source[insert_at..]);
    Some((edited, func.name.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ompdart_frontend::parser::parse_str;

    #[test]
    fn nine_benchmarks_in_paper_order() {
        let names: Vec<&str> = all().iter().map(|b| b.name).collect();
        assert_eq!(
            names,
            vec![
                "accuracy", "ace", "backprop", "bfs", "clenergy", "hotspot", "lulesh", "nw",
                "xsbench"
            ]
        );
    }

    #[test]
    fn suites_match_table_iii() {
        let rodinia: Vec<&str> = all()
            .iter()
            .filter(|b| b.suite == Suite::Rodinia)
            .map(|b| b.name)
            .collect();
        assert_eq!(rodinia, vec!["backprop", "bfs", "hotspot", "nw"]);
        assert_eq!(
            all().iter().filter(|b| b.suite == Suite::HeCBench).count(),
            5
        );
    }

    #[test]
    fn every_variant_parses() {
        for bench in all() {
            for (label, src) in [("unoptimized", bench.unoptimized), ("expert", bench.expert)] {
                let (file, result) = parse_str(&format!("{}_{label}.c", bench.name), src);
                assert!(
                    result.is_ok(),
                    "{} {label} failed to parse:\n{}",
                    bench.name,
                    result.diagnostics.render_all(&file)
                );
            }
        }
    }

    #[test]
    fn kernel_counts_match_table_iv() {
        use ompdart_frontend::ast::StmtKind;
        let expected = [
            ("accuracy", 1),
            ("ace", 6),
            ("backprop", 2),
            ("bfs", 2),
            ("clenergy", 2),
            ("hotspot", 1),
            ("lulesh", 15),
            ("nw", 2),
            ("xsbench", 1),
        ];
        for (name, kernels) in expected {
            let bench = by_name(name).unwrap();
            let (_f, result) = parse_str("b.c", bench.unoptimized);
            let mut count = 0;
            for f in result.unit.functions() {
                f.body.as_ref().unwrap().walk(&mut |s| {
                    if let StmtKind::Omp(d) = &s.kind {
                        if d.kind.is_offload_kernel() {
                            count += 1;
                        }
                    }
                });
            }
            assert_eq!(count, kernels, "kernel count mismatch for {name}");
        }
    }

    #[test]
    fn unoptimized_variants_have_no_explicit_mappings() {
        use ompdart_frontend::ast::StmtKind;
        use ompdart_frontend::omp::Clause;
        for bench in all() {
            let (_f, result) = parse_str("b.c", bench.unoptimized);
            for f in result.unit.functions() {
                f.body.as_ref().unwrap().walk(&mut |s| {
                    if let StmtKind::Omp(d) = &s.kind {
                        let data_motion = d.clauses.iter().any(|c| {
                            matches!(
                                c,
                                Clause::Map { .. } | Clause::UpdateTo(_) | Clause::UpdateFrom(_)
                            )
                        });
                        assert!(
                            !d.kind.is_data_directive() && !data_motion,
                            "{}: unoptimized variant contains explicit mappings",
                            bench.name
                        );
                    }
                });
            }
        }
    }

    #[test]
    fn expert_variants_do_use_explicit_mappings() {
        for bench in all() {
            assert!(
                bench.expert.contains("#pragma omp target data"),
                "{}: expert variant should use a target data region",
                bench.name
            );
        }
    }

    #[test]
    fn lookup_by_name() {
        assert!(by_name("lulesh").unwrap().tool_beats_expert);
        assert!(!by_name("ace").unwrap().tool_beats_expert);
        assert!(by_name("does-not-exist").is_none());
    }

    /// The incremental-demo workload really is multi-function, analyzes
    /// cleanly, and its transformation preserves program output.
    #[test]
    fn incremental_demo_is_multi_function_and_clean() {
        use ompdart_core::Ompdart;
        use ompdart_sim::{simulate_source, SimConfig};

        let src = incremental_demo();
        let (_f, result) = parse_str("incremental_demo.c", src);
        assert!(result.is_ok(), "{:?}", result.diagnostics);
        let functions = result.unit.functions().count();
        assert!(functions >= 4, "expected a multi-function workload");

        let analysis = Ompdart::builder()
            .build()
            .analyze("incremental_demo.c", src)
            .unwrap();
        assert!(!analysis.diagnostics().has_errors());
        assert!(analysis.plans().len() >= 2, "several kernel functions");
        let before = simulate_source(src, SimConfig::default()).unwrap();
        let after = simulate_source(analysis.rewritten_source(), SimConfig::default()).unwrap();
        assert_eq!(before.output, after.output);
    }

    /// The multi-file lulesh port: every unit parses stand-alone, the
    /// concatenation parses as one unit, the kernel count matches the
    /// paper's Table IV entry for lulesh (15), and the mapped concatenation
    /// preserves program output on the simulator.
    #[test]
    fn lulesh_multifile_units_and_concat_are_well_formed() {
        use ompdart_core::Ompdart;
        use ompdart_frontend::ast::StmtKind;
        use ompdart_sim::{simulate_source, SimConfig};

        let units = lulesh_multifile();
        assert_eq!(units.len(), 3, "three translation units");
        let mut kernels = 0;
        for (name, src) in &units {
            let (file, result) = parse_str(name, src);
            assert!(
                result.is_ok(),
                "{name} failed to parse:\n{}",
                result.diagnostics.render_all(&file)
            );
            for f in result.unit.functions() {
                f.body.as_ref().unwrap().walk(&mut |s| {
                    if let StmtKind::Omp(d) = &s.kind {
                        if d.kind.is_offload_kernel() {
                            kernels += 1;
                        }
                    }
                });
            }
        }
        assert_eq!(kernels, 15, "the port must keep lulesh's 15 kernels");

        let concat = lulesh_multifile_concat();
        let (file, result) = parse_str("lulesh_mf_concat.c", &concat);
        assert!(
            result.is_ok(),
            "concatenation failed to parse:\n{}",
            result.diagnostics.render_all(&file)
        );

        // The linked mapping preserves program output end to end.
        let analysis = Ompdart::builder()
            .build()
            .analyze("lulesh_mf_concat.c", &concat)
            .unwrap();
        assert!(!analysis.diagnostics().has_errors());
        let before = simulate_source(&concat, SimConfig::default()).unwrap();
        let after = simulate_source(analysis.rewritten_source(), SimConfig::default()).unwrap();
        assert_eq!(before.output, after.output);
    }

    /// The expert counterpart of the multi-file lulesh port: every unit
    /// parses, the concat parses and carries explicit mappings, and the
    /// expert program computes exactly what the unoptimized one computes.
    #[test]
    fn lulesh_multifile_expert_is_well_formed_and_output_preserving() {
        use ompdart_sim::{simulate_source, SimConfig};

        let units = lulesh_multifile_expert();
        assert_eq!(units.len(), 3);
        for (name, src) in &units {
            let (file, result) = parse_str(name, src);
            assert!(
                result.is_ok(),
                "{name} failed to parse:\n{}",
                result.diagnostics.render_all(&file)
            );
        }
        // Only the driver differs from the unoptimized port; the mappings
        // live entirely in its target data region.
        let unopt = lulesh_multifile();
        assert_eq!(units[0].1, unopt[0].1, "mesh unit shared with unoptimized");
        assert_eq!(units[1].1, unopt[1].1, "eos unit shared with unoptimized");
        assert_ne!(units[2].1, unopt[2].1);

        let concat = lulesh_multifile_expert_concat();
        assert!(concat.contains("#pragma omp target data"));
        assert!(concat.contains("#pragma omp target update from"));
        let (file, result) = parse_str("lulesh_mf_expert.c", &concat);
        assert!(
            result.is_ok(),
            "expert concat failed to parse:\n{}",
            result.diagnostics.render_all(&file)
        );

        let before = simulate_source(&lulesh_multifile_concat(), SimConfig::default()).unwrap();
        let after = simulate_source(&concat, SimConfig::default()).unwrap();
        assert_eq!(
            before.output, after.output,
            "the expert mapping must preserve program output"
        );
        // ...and, being hand-optimized, it must move less data than the
        // implicit mappings.
        assert!(after.profile.total_bytes() < before.profile.total_bytes());
    }

    /// `one_function_edit` parses, inserts inside the first function, and
    /// keeps the program semantically identical.
    #[test]
    fn one_function_edit_is_semantics_preserving() {
        for bench in all() {
            let (edited, func) =
                one_function_edit(&bench.unoptimized_file(), bench.unoptimized).unwrap();
            assert_ne!(edited, bench.unoptimized, "{}", bench.name);
            assert!(!func.is_empty());
            let (_f, reparsed) = parse_str("edited.c", &edited);
            assert!(
                reparsed.is_ok(),
                "{}: {:?}",
                bench.name,
                reparsed.diagnostics
            );
        }
        let (edited, func) = one_function_edit("demo.c", incremental_demo()).unwrap();
        assert_eq!(func, "init_grid", "first defined function is edited");
        assert!(edited.contains("édition incrémentale"));
    }
}
