//! Source-compatibility shim: the mapping types moved to the explainable
//! Mapping IR in [`crate::plan::ir`].
//!
//! `ompdart_core::mapping::MapSpec` and friends keep resolving, but new code
//! should import from [`crate::plan`] (or the crate root re-exports).

pub use crate::plan::ir::{
    AnalysisStats, FirstPrivateSpec, MapSpec, MappingConstruct, MappingPlan, Placement, Provenance,
    ProvenanceFact, UpdateDirection, UpdateSpec,
};
