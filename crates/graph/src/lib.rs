//! # ompdart-graph
//!
//! Control-flow graphs and the hybrid **AST-CFG** representation used by the
//! OMPDart reproduction.
//!
//! The paper (Section IV-B) constructs a CFG for every function and links
//! each CFG node to its AST node, forming a hybrid structure that supports
//! both flow-sensitive traversal (validity/liveness of data in each memory
//! space) and structural queries (enclosing loops, loop bounds, array
//! subscripts). This crate provides:
//!
//! * [`cfg::Cfg`] — per-function control-flow graphs with branch/back edges
//!   and offload-region marking,
//! * [`index::StmtIndex`] — the AST-side index (enclosing loops, enclosing
//!   kernel, enclosing `target data` region, source order),
//! * [`table::NodeTable`] — the dense per-node table the index and the
//!   analysis keep their per-statement facts in, addressed by node id,
//! * [`index::AstCfg`] / [`index::ProgramGraphs`] — the combined hybrid
//!   representation for a function / a whole translation unit.
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
//! assert_eq!(graphs.total_kernels(), 1);
//! let g = graphs.function("step").unwrap();
//! assert!(g.cfg.all_reachable());
//! ```

pub mod cfg;
pub mod index;
pub mod table;

pub use cfg::{Cfg, CfgEdge, CfgNode, CfgNodeId, CfgNodeKind, EdgeKind};
pub use index::{AstCfg, ProgramGraphs, StmtIndex, StmtInfo, StmtKindTag};
pub use table::NodeTable;
