//! Visualize the hybrid AST-CFG (Section IV-B, Figure 2 of the paper) for a
//! small function: prints the control-flow graph in Graphviz DOT format with
//! offloaded nodes highlighted, plus the statement index that links graph
//! nodes back to loops, kernels and data regions.
//!
//! ```sh
//! cargo run --release --example astcfg_dot | dot -Tsvg > astcfg.svg
//! ```

use ompdart_core::Ompdart;
use ompdart_frontend::parser::parse_str;
use ompdart_graph::ProgramGraphs;

const PROGRAM: &str = r#"
int foo(int a[], int n) {
  int x = 0;
  for (int it = 0; it < 10; it++) {
    #pragma omp target teams distribute parallel for
    for (int i = 0; i < n; i++) {
      a[i] = a[i] + it;
    }
    if (a[0] > 0) {
      x = x + a[0];
    }
  }
  return x;
}
"#;

fn main() {
    let (_file, result) = parse_str("foo.c", PROGRAM);
    assert!(result.is_ok(), "{:?}", result.diagnostics);
    let graphs = ProgramGraphs::build(&result.unit);
    let g = graphs.function("foo").expect("function not found");

    // The CFG half of the hybrid representation, as DOT.
    println!("{}", g.cfg.to_dot());

    // The AST half: per-statement structural facts.
    eprintln!("function `{}`:", g.function());
    eprintln!("  kernels: {}", g.kernel_count());
    eprintln!("  loops:   {}", g.index.loops().len());
    for info in g.index.stmts_in_order() {
        let depth = g.index.loops_outward(info.id).count();
        eprintln!(
            "  stmt #{:<3} {:?}{}{}",
            info.order,
            info.kind,
            if info.offloaded { "  [device]" } else { "" },
            if depth == 0 {
                String::new()
            } else {
                format!("  (loop depth {depth})")
            }
        );
    }

    // The same hybrid AST-CFG drives the mapping decisions; show what the
    // analysis concludes for this function and why.
    let analysis = Ompdart::builder()
        .build()
        .analyze("foo.c", PROGRAM)
        .expect("analysis failed");
    eprintln!("\nmapping decisions derived from this graph:");
    eprint!("{}", analysis.explain());
}
