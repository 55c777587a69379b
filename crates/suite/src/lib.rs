//! # ompdart-suite
//!
//! Benchmarks and the experiment harness for the OMPDart reproduction.
//!
//! This crate carries the nine HPC benchmark programs of the paper's
//! evaluation (Table III), ported to MiniC in both the *unoptimized* and the
//! *expert-optimized* variants, together with:
//!
//! * [`complexity`] — the data-mapping complexity metrics of Table IV,
//! * [`corpus`] — a seeded generator for ~1000-unit synthetic programs
//!   that stress the whole-program link fixed point at scale,
//! * [`experiment`] — the harness that transforms each unoptimized program
//!   with OMPDart, simulates all three variants on the offload runtime
//!   simulator, and derives Figures 3-6, Table V, and the Section VI
//!   geometric-mean summary,
//! * [`outline`] — moving statements of a port's `main` into a function, so
//!   that "a call site costs what its body costs" is a property over every
//!   kernel run of a port and not one hand-written multi-file port,
//! * [`report`] — plain-text renderings of every table and figure.
//!
//! ```no_run
//! use ompdart_suite::experiment::{run_all, ExperimentConfig};
//! use ompdart_suite::report;
//!
//! let config = ExperimentConfig::default();
//! let results = run_all(&config);
//! println!("{}", report::figure5(&results, &config.cost));
//! println!("{}", report::summary(&results, &config.cost));
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
    run_all, run_all_with_session, run_benchmark, run_benchmark_with_session,
    run_multifile_benchmark, run_multifile_benchmark_with_session, summarize, BenchmarkResult,
    ExperimentConfig, Summary, VariantResult,
};
pub use report::{plan_vs_expert, plans_json};
