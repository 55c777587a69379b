//! # ompdart-suite
//!
//! Benchmarks and the experiment harness for the OMPDart reproduction.
//!
//! This crate carries the nine HPC benchmark programs of the paper's
//! evaluation (Table III), ported to MiniC in both the *unoptimized* and the
//! *expert-optimized* variants, plus `lulesh` split into three linked units
//! (`lulesh_mf`), together with:
//!
//! * [`complexity`] — the data-mapping complexity metrics of Table IV,
//! * [`corpus`] — a seeded generator for ~1000-unit synthetic programs
//!   that stress the whole-program link fixed point at scale,
//! * [`experiment`] — the ten ports as one table, and the one measurement
//!   that maps a program's units and runs the rewrite on the offload
//!   runtime simulator; every figure and table reads its results,
//! * [`outline`] — moving statements of a port's `main` into a function, so
//!   that "a call site costs what its body costs" is a property over every
//!   kernel run of a port and not one hand-written multi-file port,
//! * [`report`] — plain-text renderings of every table and figure.
//!
//! ```no_run
//! use ompdart_sim::CostModel;
//! use ompdart_suite::experiment::run_all;
//! use ompdart_suite::report;
//!
//! let results = run_all();
//! let cost = CostModel::default();
//! println!("{}", report::figure5(&results, &cost));
//! println!("{}", report::summary(&results, &cost));
//! ```

pub mod benchmarks;
pub mod complexity;
pub mod corpus;
pub mod experiment;
pub mod outline;
pub mod report;

pub use benchmarks::{
    all as all_benchmarks, by_name, incremental_demo, lulesh_multifile, lulesh_multifile_concat,
    lulesh_multifile_expert, lulesh_multifile_expert_concat, one_function_edit, Benchmark, Suite,
};
pub use complexity::{complexity_of, table4_rows, ComplexityRow};
pub use corpus::{concat as corpus_concat, edit_one_function, generate as generate_corpus};
pub use experiment::{
    map_and_simulate, ports, run_all, run_port, summarize, BenchmarkResult, MappedRun, Port,
    Summary, VariantResult,
};
pub use report::{plan_vs_expert, plans_json};
