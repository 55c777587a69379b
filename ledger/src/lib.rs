//! The pieces of `ompdart-ledger`, the repo's benchmark (see README.md):
//! the measurement harness, the span recorder, seeded inputs, the layer
//! probes, the paper-port quality pass, the five workloads, and the ledger
//! file with its comparison. `main.rs` is the command line over them.

pub mod alloc;
pub mod harness;
pub mod inputs;
pub mod json;
pub mod layers;
pub mod ledger;
pub mod metrics;
pub mod quality;
pub mod trace;
pub mod workloads;

/// Where run-time files go, relative to the repository root.
pub const OUT_DIR: &str = "ledger/out";
