//! # ompdart-sim
//!
//! An OpenMP 5.2 **offload runtime simulator** for MiniC programs.
//!
//! The paper evaluates OMPDart by running nine benchmarks on an NVIDIA A100
//! and profiling them with Nsight Systems. This crate substitutes for that
//! testbed: it interprets MiniC programs with distinct host and device
//! memory spaces, implements the reference-counted device data environment
//! (including the implicit data-mapping rules, `target data` regions,
//! `target update` and `firstprivate` argument passing), and produces the
//! same metrics the paper reports — HtoD/DtoH memcpy call counts, bytes
//! moved, data-transfer wall time and total runtime (through a configurable
//! [`CostModel`]).
//!
//! Because the mapping semantics (not GPU microarchitecture) determine those
//! metrics, the relative results — which variant moves less data, by what
//! factor, and how that translates into speedup — reproduce the shape of the
//! paper's Figures 3-6 even though absolute numbers correspond to the
//! simulated cost model rather than to A100 hardware.
//!
//! ```
//! use ompdart_sim::{simulate_source, SimConfig};
//!
//! let src = r#"
//! #define N 256
//! double a[N];
//! int main() {
//!   #pragma omp target teams distribute parallel for
//!   for (int i = 0; i < N; i++) a[i] = 2.0 * i;
//!   double s = 0.0;
//!   for (int i = 0; i < N; i++) s += a[i];
//!   printf("%.0f\n", s);
//!   return 0;
//! }
//! "#;
//! let outcome = simulate_source(src, SimConfig::default()).unwrap();
//! assert_eq!(outcome.output, vec!["65280"]);
//! assert_eq!(outcome.profile.kernel_launches, 1);
//! ```

pub mod interp;
pub mod memory;
pub mod profile;
pub mod value;

pub use interp::{
    format_printf, referenced_outer_vars, simulate, simulate_source, Interpreter, Outcome,
    SimConfig, SimError,
};
pub use memory::{DeviceEntry, DeviceEnv, MemObject, Memory, ObjectKind, Section};
pub use profile::{format_bytes, geometric_mean, CostModel, TransferProfile};
pub use value::{ObjectId, Pointer, Value};
