//! # ompdart-graph
//!
//! The per-function statement index of the OMPDart reproduction.
//!
//! The paper (Section IV-B) builds a hybrid AST-CFG for every function. This
//! planner reads control flow structurally instead: the planner and `verify`
//! walk the AST through `ompdart_core::validity::Walker` and consult the
//! statement index for enclosing loops, kernels and regions, not a CFG. This
//! crate provides:
//!
//! * [`index::StmtIndex`] — the AST-side index (enclosing loops, enclosing
//!   kernel, enclosing `target data` region, source order),
//! * [`table::NodeTable`] — the dense per-node table the index and the
//!   analysis keep their per-statement facts in, addressed by node id,
//! * [`index::ProgramGraphs`] — the index of every function of a
//!   translation unit.
//!
//! ```
//! use ompdart_frontend::parser::parse_str;
//! use ompdart_graph::ProgramGraphs;
//!
//! let src = r#"
//! void step(double *a, int n) {
//!   #pragma omp target teams distribute parallel for
//!   for (int i = 0; i < n; i++) a[i] *= 0.5;
//! }
//! "#;
//! let (_file, result) = parse_str("step.c", src);
//! let graphs = ProgramGraphs::build(&result.unit);
//! let index = graphs.function("step").unwrap();
//! assert_eq!(index.kernels().len(), 1);
//! assert_eq!(index.loops().len(), 1);
//! ```

pub mod index;
pub mod table;

pub use index::{AstCfg, NoCfg, ProgramGraphs, StmtIndex, StmtInfo, StmtKindTag};
pub use table::NodeTable;
