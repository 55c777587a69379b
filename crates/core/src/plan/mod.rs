//! The explainable Mapping IR: provenance-carrying, versioned, serializable
//! data-mapping plans.
//!
//! * [`ir`] — the IR itself: [`MappingPlan`], the per-construct specs, and
//!   the [`Provenance`] (stage + dataflow fact + deciding span) each one
//!   carries,
//! * [`json`] — the hand-rolled, serde-free `to_json`/`from_json`
//!   round-trip (versioned via [`ir::PLAN_FORMAT_VERSION`]),
//! * [`explain`] — the human-readable "one justified line per construct"
//!   renderer,
//! * [`diff`] — plan-vs-plan comparison plus extraction of explicit plans
//!   from already-mapped sources (expert variants).

pub mod diff;
pub mod explain;
pub mod ir;
pub mod json;

pub use diff::{diff_plans, extract_explicit_plans, DiffEntry, PlanDiff};
pub use explain::{explain_plan, explain_plans, justified_line_count};
pub use ir::{
    AnalysisStats, CollapseSpec, FirstPrivateSpec, MapSpec, MappingConstruct, MappingPlan,
    Placement, Provenance, ProvenanceFact, UpdateDirection, UpdateSpec, PLAN_FORMAT_VERSION,
};
pub use json::{
    plans_from_json, plans_to_json, plans_to_json_compact, write_json_string, Json, JsonWriter,
    PlanJsonError,
};
