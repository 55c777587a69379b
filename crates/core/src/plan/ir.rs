//! The explainable Mapping IR: provenance-carrying data-mapping plans.
//!
//! Table II of the paper lists the OpenMP constructs the tool inserts to
//! resolve host/device data dependencies. [`MappingConstruct`] mirrors that
//! table; [`MappingPlan`] collects every decision for one function (one
//! `target data` region per function, per Section IV-D).
//!
//! Unlike the original opaque structs, every spec in the IR carries a
//! [`Provenance`]: *which* pipeline stage and *which* dataflow fact justified
//! the construct, together with the deciding source span. Plans are a
//! versioned, serializable artifact — see [`crate::plan::json`] for the
//! `to_json`/`from_json` round-trip and [`crate::plan::explain`] for the
//! human-readable rendering.

use crate::pipeline::Stage;
use ompdart_frontend::ast::NodeId;
use ompdart_frontend::omp::MapType;
use ompdart_frontend::source::Span;
use std::fmt;

/// Version of the serialized [`MappingPlan`] format. Bumped whenever the
/// JSON schema changes incompatibly; `from_json` rejects other versions.
/// Version 4 dropped version 3's `unstructured` marker and `collapses`
/// list: every plan is spelled as a structured `target data` region.
/// Older documents are rejected with a clear error.
pub const PLAN_FORMAT_VERSION: u32 = 4;

/// The OpenMP constructs OMPDart inserts (Table II of the paper).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum MappingConstruct {
    /// `map(to:)` — on region entry copies data from host to device.
    MapTo,
    /// `map(from:)` — on region exit copies data from device to host.
    MapFrom,
    /// `map(tofrom:)` — copies in on entry and out on exit.
    MapToFrom,
    /// `map(alloc:)` — on region entry allocates memory on the device.
    MapAlloc,
    /// `update to()` — updates device data with the host value.
    UpdateTo,
    /// `update from()` — updates host data with the device value.
    UpdateFrom,
    /// `firstprivate()` — initializes a private device copy from the host
    /// value (no memcpy for scalars).
    FirstPrivate,
}

impl MappingConstruct {
    /// Human-readable description matching Table II.
    pub fn description(&self) -> &'static str {
        match self {
            MappingConstruct::MapTo => "on region entry copies data from host to device",
            MappingConstruct::MapFrom => "on region exit copies data from device to host",
            MappingConstruct::MapToFrom => {
                "on region entry copies data from host to device and on exit copies data from device to host"
            }
            MappingConstruct::MapAlloc => "on region entry allocates memory on device",
            MappingConstruct::UpdateTo => "updates data on device with the value from host",
            MappingConstruct::UpdateFrom => "updates data on host with the value from device",
            MappingConstruct::FirstPrivate => {
                "on region entry initializes a private copy on the device with the original value from the host"
            }
        }
    }

    /// The OpenMP source syntax of the construct.
    pub fn syntax(&self) -> &'static str {
        match self {
            MappingConstruct::MapTo => "map(to:)",
            MappingConstruct::MapFrom => "map(from:)",
            MappingConstruct::MapToFrom => "map(tofrom:)",
            MappingConstruct::MapAlloc => "map(alloc:)",
            MappingConstruct::UpdateTo => "update to()",
            MappingConstruct::UpdateFrom => "update from()",
            MappingConstruct::FirstPrivate => "firstprivate()",
        }
    }

    /// All constructs, in the order of Table II.
    pub fn all() -> [MappingConstruct; 7] {
        [
            MappingConstruct::MapTo,
            MappingConstruct::MapFrom,
            MappingConstruct::MapToFrom,
            MappingConstruct::MapAlloc,
            MappingConstruct::UpdateTo,
            MappingConstruct::UpdateFrom,
            MappingConstruct::FirstPrivate,
        ]
    }

    /// The corresponding map-type, for the `map(...)` constructs.
    pub fn map_type(&self) -> Option<MapType> {
        Some(match self {
            MappingConstruct::MapTo => MapType::To,
            MappingConstruct::MapFrom => MapType::From,
            MappingConstruct::MapToFrom => MapType::ToFrom,
            MappingConstruct::MapAlloc => MapType::Alloc,
            _ => return None,
        })
    }
}

impl fmt::Display for MappingConstruct {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.syntax())
    }
}

/// Direction of a `target update`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum UpdateDirection {
    /// `update to(...)`: host -> device.
    To,
    /// `update from(...)`: device -> host.
    From,
}

impl UpdateDirection {
    pub fn clause_keyword(&self) -> &'static str {
        match self {
            UpdateDirection::To => "to",
            UpdateDirection::From => "from",
        }
    }

    /// Parse the clause keyword back into a direction.
    pub fn from_keyword(s: &str) -> Option<UpdateDirection> {
        match s {
            "to" => Some(UpdateDirection::To),
            "from" => Some(UpdateDirection::From),
            _ => None,
        }
    }
}

/// Where to insert a directive relative to its anchor statement.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Placement {
    /// Insert on the line before the anchor statement.
    Before,
    /// Insert on the line after the anchor statement.
    After,
}

impl Placement {
    /// Stable serialization keyword.
    pub fn keyword(&self) -> &'static str {
        match self {
            Placement::Before => "before",
            Placement::After => "after",
        }
    }

    /// Parse the serialization keyword back into a placement.
    pub fn from_keyword(s: &str) -> Option<Placement> {
        match s {
            "before" => Some(Placement::Before),
            "after" => Some(Placement::After),
            _ => None,
        }
    }
}

/// The dataflow fact that justified one mapping construct.
///
/// Each variant corresponds to one decision rule of the host/device
/// data-flow analysis (Section IV-D/IV-E of the paper); the variant a spec
/// carries answers *why* that construct — and not a cheaper or a more
/// conservative one — was emitted.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ProvenanceFact {
    /// No justification recorded. Plans produced by the analysis never carry
    /// this; it only appears on hand-built or legacy-deserialized specs.
    Unspecified,
    /// The device reads host-produced data before writing it, so the value
    /// must be copied in at region entry (`map(to:)` component).
    ReadBeforeWriteOnDevice,
    /// Device-written data escapes the region (a later host read, a global,
    /// or a pointer parameter), so it must be copied out at region exit
    /// (`map(from:)` component).
    LiveAfterRegion,
    /// Both of the above: copied in at entry and out at exit
    /// (`map(tofrom:)`).
    ReadAndLiveAfterRegion,
    /// The data never crosses the host/device boundary: the device writes it
    /// before reading it and the host never consumes it (`map(alloc:)`).
    DeviceOnlyData,
    /// The exit copy was *demoted*: the variable escapes, but nothing that
    /// runs after the region — `main`'s remaining statements and what they
    /// call — reads it, so the `map(from:)` collapses to `map(alloc:)`.
    DeadExitCopy,
    /// A scalar that is only ever read inside kernels: passed as a
    /// `firstprivate()` kernel argument instead of being mapped.
    ReadOnlyInRegion,
    /// The host modified the data inside the region and a later kernel reads
    /// it, so the device copy must be refreshed (`update to()`).
    HostWriteReachesKernel,
    /// The host reads device-produced data between kernels inside the
    /// region, so the host copy must be refreshed (`update from()`).
    HostReadBetweenKernels,
    /// A loop condition (or increment) reads device-produced data, so the
    /// host copy is refreshed at the end of the loop body (`update from()`).
    LoopBoundaryHostRead,
    /// A call to a function whose definition is not visible (no summary, at
    /// best a prototype) forced maximally pessimistic host read+write
    /// assumptions at the call site, and that assumption — not an observed
    /// access — decided this construct. The span points at the call site.
    UnknownCalleePessimistic,
    /// The construct was not decided by the analysis: it was declared
    /// explicitly in the input source (used when extracting expert plans).
    DeclaredInSource,
    /// A function's own cross-space flow — a host write it makes before a
    /// kernel of its reads the value, or a host read it makes of what a
    /// kernel of its wrote — crosses its region's boundary, where the map
    /// clause is a present-table no-op whenever a caller already holds the
    /// data on the device. The `target update` immediately outside the
    /// region moves the value in exactly that case.
    FlowWhenDataPresent,
}

impl ProvenanceFact {
    /// All facts, for enumeration in tests and generators.
    pub fn all() -> [ProvenanceFact; 13] {
        [
            ProvenanceFact::Unspecified,
            ProvenanceFact::ReadBeforeWriteOnDevice,
            ProvenanceFact::LiveAfterRegion,
            ProvenanceFact::ReadAndLiveAfterRegion,
            ProvenanceFact::DeviceOnlyData,
            ProvenanceFact::DeadExitCopy,
            ProvenanceFact::ReadOnlyInRegion,
            ProvenanceFact::HostWriteReachesKernel,
            ProvenanceFact::HostReadBetweenKernels,
            ProvenanceFact::LoopBoundaryHostRead,
            ProvenanceFact::UnknownCalleePessimistic,
            ProvenanceFact::DeclaredInSource,
            ProvenanceFact::FlowWhenDataPresent,
        ]
    }

    /// Stable snake_case key used by the JSON serialization.
    pub fn key(&self) -> &'static str {
        match self {
            ProvenanceFact::Unspecified => "unspecified",
            ProvenanceFact::ReadBeforeWriteOnDevice => "read_before_write_on_device",
            ProvenanceFact::LiveAfterRegion => "live_after_region",
            ProvenanceFact::ReadAndLiveAfterRegion => "read_and_live_after_region",
            ProvenanceFact::DeviceOnlyData => "device_only_data",
            ProvenanceFact::DeadExitCopy => "dead_exit_copy",
            ProvenanceFact::ReadOnlyInRegion => "read_only_in_region",
            ProvenanceFact::HostWriteReachesKernel => "host_write_reaches_kernel",
            ProvenanceFact::HostReadBetweenKernels => "host_read_between_kernels",
            ProvenanceFact::LoopBoundaryHostRead => "loop_boundary_host_read",
            ProvenanceFact::UnknownCalleePessimistic => "unknown_callee_pessimistic",
            ProvenanceFact::DeclaredInSource => "declared_in_source",
            ProvenanceFact::FlowWhenDataPresent => "flow_when_data_present",
        }
    }

    /// Parse a serialization key back into a fact.
    pub fn from_key(key: &str) -> Option<ProvenanceFact> {
        ProvenanceFact::all().into_iter().find(|f| f.key() == key)
    }

    /// One-sentence justification template (variable-independent).
    pub fn describe(&self) -> &'static str {
        match self {
            ProvenanceFact::Unspecified => "no justification was recorded",
            ProvenanceFact::ReadBeforeWriteOnDevice => {
                "the device reads the host value before overwriting it"
            }
            ProvenanceFact::LiveAfterRegion => {
                "the device-written value is read by the host after the region"
            }
            ProvenanceFact::ReadAndLiveAfterRegion => {
                "the device reads the host value and the host reads the device result after the region"
            }
            ProvenanceFact::DeviceOnlyData => {
                "the data never crosses the host/device boundary"
            }
            ProvenanceFact::DeadExitCopy => {
                "nothing that runs after the region reads the value, demoting the exit copy"
            }
            ProvenanceFact::ReadOnlyInRegion => {
                "the scalar is only read inside kernels, so a private device copy suffices"
            }
            ProvenanceFact::HostWriteReachesKernel => {
                "a host write inside the region reaches a later kernel read"
            }
            ProvenanceFact::HostReadBetweenKernels => {
                "the host reads the device-produced value between kernels"
            }
            ProvenanceFact::LoopBoundaryHostRead => {
                "a loop condition reads the device-produced value at the iteration boundary"
            }
            ProvenanceFact::UnknownCalleePessimistic => {
                "a call to a function whose definition is not visible forced pessimistic host read+write assumptions"
            }
            ProvenanceFact::DeclaredInSource => {
                "the construct was declared explicitly in the input source"
            }
            ProvenanceFact::FlowWhenDataPresent => {
                "the function's own host/device flow crosses its region boundary, where the map clause does nothing if a caller already holds the data"
            }
        }
    }
}

impl fmt::Display for ProvenanceFact {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.key())
    }
}

/// Why a construct exists: the pipeline stage that decided it, the dataflow
/// fact that justified it, and the source span of the deciding access.
#[derive(Clone, Debug, PartialEq)]
pub struct Provenance {
    /// The pipeline stage whose analysis produced the governing fact.
    pub stage: Stage,
    /// The dataflow fact that justified the construct.
    pub fact: ProvenanceFact,
    /// Span of the deciding statement in the *input* source (the access or
    /// directive whose dependency forced the construct), when known.
    pub span: Option<Span>,
    /// Free-form detail mentioning the concrete variables/statements.
    pub detail: String,
}

impl Default for Provenance {
    fn default() -> Self {
        Provenance {
            stage: Stage::Plan,
            fact: ProvenanceFact::Unspecified,
            span: None,
            detail: String::new(),
        }
    }
}

impl Provenance {
    /// A provenance decided by the planning stage.
    pub fn plan(fact: ProvenanceFact, span: Option<Span>, detail: impl Into<String>) -> Self {
        Provenance {
            stage: Stage::Plan,
            fact,
            span,
            detail: detail.into(),
        }
    }

    /// A provenance decided by a specific stage.
    pub fn at_stage(
        stage: Stage,
        fact: ProvenanceFact,
        span: Option<Span>,
        detail: impl Into<String>,
    ) -> Self {
        Provenance {
            stage,
            fact,
            span,
            detail: detail.into(),
        }
    }

    /// True when a real justification was recorded (the acceptance bar for
    /// analysis-produced plans).
    pub fn is_justified(&self) -> bool {
        self.fact != ProvenanceFact::Unspecified
    }
}

/// Render an OpenMP list item for a possibly-sectioned variable. Zero-length
/// or unknown extents fall back to the whole-object section `var[:]` instead
/// of emitting an invalid `var[0:0]`.
fn render_list_item(var: &str, section_length: Option<&str>) -> String {
    match section_length {
        Some(len) => {
            let len = len.trim();
            if len.is_empty() || len == "0" {
                format!("{var}[:]")
            } else {
                format!("{var}[0:{len}]")
            }
        }
        None => var.to_string(),
    }
}

/// A map clause entry for the function's `target data` region.
#[derive(Clone, Debug, PartialEq)]
pub struct MapSpec {
    pub var: String,
    pub map_type: MapType,
    /// Length expression for pointer variables mapped with an array section
    /// (`var[0:length]`); `None` maps the whole (fixed-size) array.
    pub section_length: Option<String>,
    /// Why this map clause exists.
    pub provenance: Provenance,
}

impl MapSpec {
    /// A spec without provenance (hand-built plans and tests).
    pub fn new(var: impl Into<String>, map_type: MapType) -> MapSpec {
        MapSpec {
            var: var.into(),
            map_type,
            section_length: None,
            provenance: Provenance::default(),
        }
    }

    /// The Table II construct this spec renders as.
    pub fn construct(&self) -> MappingConstruct {
        match self.map_type {
            MapType::To => MappingConstruct::MapTo,
            MapType::From => MappingConstruct::MapFrom,
            MapType::ToFrom => MappingConstruct::MapToFrom,
            // Release/Delete never appear in generated plans; alloc is the
            // closest Table II construct for any remaining map type.
            _ => MappingConstruct::MapAlloc,
        }
    }

    /// Render the list item as OpenMP source.
    pub fn to_list_item(&self) -> String {
        render_list_item(&self.var, self.section_length.as_deref())
    }
}

/// A planned `target update` directive.
#[derive(Clone, Debug, PartialEq)]
pub struct UpdateSpec {
    pub var: String,
    pub direction: UpdateDirection,
    /// Statement the directive anchors to.
    pub anchor: NodeId,
    pub placement: Placement,
    /// Length expression for pointer variables (`var[0:length]`).
    pub section_length: Option<String>,
    /// Why this update exists.
    pub provenance: Provenance,
}

impl UpdateSpec {
    /// A spec without provenance (hand-built plans and tests).
    pub fn new(
        var: impl Into<String>,
        direction: UpdateDirection,
        anchor: NodeId,
        placement: Placement,
    ) -> UpdateSpec {
        UpdateSpec {
            var: var.into(),
            direction,
            anchor,
            placement,
            section_length: None,
            provenance: Provenance::default(),
        }
    }

    /// The Table II construct this spec renders as.
    pub fn construct(&self) -> MappingConstruct {
        match self.direction {
            UpdateDirection::To => MappingConstruct::UpdateTo,
            UpdateDirection::From => MappingConstruct::UpdateFrom,
        }
    }

    pub fn to_list_item(&self) -> String {
        render_list_item(&self.var, self.section_length.as_deref())
    }
}

/// A planned `firstprivate` addition to a kernel directive.
#[derive(Clone, Debug, PartialEq)]
pub struct FirstPrivateSpec {
    /// The kernel directive statement to augment.
    pub kernel: NodeId,
    pub var: String,
    /// Why this clause exists.
    pub provenance: Provenance,
}

impl FirstPrivateSpec {
    /// A spec without provenance (hand-built plans and tests).
    pub fn new(kernel: NodeId, var: impl Into<String>) -> FirstPrivateSpec {
        FirstPrivateSpec {
            kernel,
            var: var.into(),
            provenance: Provenance::default(),
        }
    }

    /// The Table II construct this spec renders as.
    pub fn construct(&self) -> MappingConstruct {
        MappingConstruct::FirstPrivate
    }
}

/// All data-mapping decisions for one function: the versioned, serializable,
/// explainable Mapping IR.
///
/// The serialized format carries [`PLAN_FORMAT_VERSION`]; see
/// [`crate::plan::json::plans_to_json`] /
/// [`crate::plan::json::plans_from_json`] for the stable round-trip and
/// [`crate::plan::explain`] for the human rendering.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MappingPlan {
    pub function: String,
    /// Statement before which the `target data` region starts.
    pub region_start: Option<NodeId>,
    /// Statement after which the region ends.
    pub region_end: Option<NodeId>,
    /// When the region degenerates to a single kernel, clauses are appended
    /// to that kernel's directive instead of creating a new region.
    pub attach_to_kernel: Option<NodeId>,
    pub maps: Vec<MapSpec>,
    pub updates: Vec<UpdateSpec>,
    pub firstprivate: Vec<FirstPrivateSpec>,
    /// Kernels found in this function (source order).
    pub kernels: Vec<NodeId>,
}

impl MappingPlan {
    /// Total number of constructs this plan will insert.
    pub fn construct_count(&self) -> usize {
        self.maps.len() + self.updates.len() + self.firstprivate.len()
    }

    /// The map specification for a variable, if any.
    pub fn map_for(&self, var: &str) -> Option<&MapSpec> {
        self.maps.iter().find(|m| m.var == var)
    }

    /// All update directives for a variable.
    pub fn updates_for(&self, var: &str) -> Vec<&UpdateSpec> {
        self.updates.iter().filter(|u| u.var == var).collect()
    }

    /// True if the variable is passed `firstprivate` to any kernel.
    pub fn is_firstprivate(&self, var: &str) -> bool {
        self.firstprivate.iter().any(|f| f.var == var)
    }

    /// Variables covered by any construct in the plan.
    pub fn mapped_variables(&self) -> Vec<String> {
        let mut vars: Vec<String> = Vec::new();
        let mut push = |v: &str| {
            if !vars.iter().any(|x| x == v) {
                vars.push(v.to_string());
            }
        };
        for m in &self.maps {
            push(&m.var);
        }
        for u in &self.updates {
            push(&u.var);
        }
        for f in &self.firstprivate {
            push(&f.var);
        }
        vars
    }

    /// Every construct's provenance, in plan order (maps, updates,
    /// firstprivate).
    pub fn provenances(&self) -> Vec<&Provenance> {
        self.maps
            .iter()
            .map(|m| &m.provenance)
            .chain(self.updates.iter().map(|u| &u.provenance))
            .chain(self.firstprivate.iter().map(|f| &f.provenance))
            .collect()
    }

    /// True when every construct carries a real (non-default) justification.
    pub fn fully_justified(&self) -> bool {
        self.provenances().iter().all(|p| p.is_justified())
    }
}

crate::stats::stats_table! {
    /// Aggregate statistics over a whole transformation run.
    pub struct AnalysisStats: usize {
        functions_analyzed,
        functions_with_kernels,
        kernels,
        mapped_variables,
        map_clauses,
        update_directives,
        firstprivate_clauses,
        /// Call sites whose callee had no visible definition (and no
        /// builtin model), forcing the maximally pessimistic host
        /// read+write fallback. Zero for a fully linked whole-program
        /// analysis whose calls all resolve to real summaries.
        unknown_callee_fallbacks,
    }
}

impl AnalysisStats {
    /// Total constructs inserted.
    pub fn total_constructs(&self) -> usize {
        self.map_clauses + self.update_directives + self.firstprivate_clauses
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_ii_has_seven_constructs() {
        let all = MappingConstruct::all();
        assert_eq!(all.len(), 7);
        for c in all {
            assert!(!c.description().is_empty());
            assert!(!c.syntax().is_empty());
        }
    }

    #[test]
    fn map_constructs_expose_map_types() {
        assert_eq!(MappingConstruct::MapTo.map_type(), Some(MapType::To));
        assert_eq!(MappingConstruct::MapAlloc.map_type(), Some(MapType::Alloc));
        assert_eq!(MappingConstruct::UpdateTo.map_type(), None);
        assert_eq!(MappingConstruct::FirstPrivate.map_type(), None);
    }

    /// One rendering test per Table II construct: a spec built for each
    /// variant produces exactly the expected OpenMP surface syntax.
    #[test]
    fn every_construct_variant_renders() {
        for construct in MappingConstruct::all() {
            match construct {
                MappingConstruct::MapTo
                | MappingConstruct::MapFrom
                | MappingConstruct::MapToFrom
                | MappingConstruct::MapAlloc => {
                    let spec = MapSpec::new("v", construct.map_type().unwrap());
                    assert_eq!(spec.construct(), construct);
                    assert_eq!(spec.to_list_item(), "v");
                }
                MappingConstruct::UpdateTo | MappingConstruct::UpdateFrom => {
                    let dir = if construct == MappingConstruct::UpdateTo {
                        UpdateDirection::To
                    } else {
                        UpdateDirection::From
                    };
                    let spec = UpdateSpec::new("v", dir, NodeId(1), Placement::Before);
                    assert_eq!(spec.construct(), construct);
                    assert_eq!(spec.to_list_item(), "v");
                    assert_eq!(spec.direction.clause_keyword(), dir.clause_keyword());
                }
                MappingConstruct::FirstPrivate => {
                    let spec = FirstPrivateSpec::new(NodeId(1), "v");
                    assert_eq!(spec.construct(), construct);
                }
            }
        }
    }

    #[test]
    fn map_spec_rendering() {
        let whole = MapSpec::new("a", MapType::To);
        assert_eq!(whole.to_list_item(), "a");
        let section = MapSpec {
            section_length: Some("n".into()),
            ..MapSpec::new("b", MapType::From)
        };
        assert_eq!(section.to_list_item(), "b[0:n]");
    }

    /// Zero-length or unknown section bounds must not render as the invalid
    /// `var[0:0]`; they fall back to the whole-object section `var[:]`.
    #[test]
    fn degenerate_sections_render_whole_object() {
        for bad in ["0", "", "  ", " 0 "] {
            let m = MapSpec {
                section_length: Some(bad.into()),
                ..MapSpec::new("p", MapType::ToFrom)
            };
            assert_eq!(m.to_list_item(), "p[:]", "section length {bad:?}");
            let u = UpdateSpec {
                section_length: Some(bad.into()),
                ..UpdateSpec::new("p", UpdateDirection::From, NodeId(4), Placement::After)
            };
            assert_eq!(u.to_list_item(), "p[:]", "section length {bad:?}");
        }
        // Real lengths are untouched.
        let m = MapSpec {
            section_length: Some("n * 2".into()),
            ..MapSpec::new("p", MapType::To)
        };
        assert_eq!(m.to_list_item(), "p[0:n * 2]");
    }

    #[test]
    fn mapping_plan_queries() {
        let mut plan = MappingPlan {
            function: "f".into(),
            ..Default::default()
        };
        plan.maps.push(MapSpec::new("a", MapType::ToFrom));
        plan.updates.push(UpdateSpec::new(
            "b",
            UpdateDirection::From,
            NodeId(7),
            Placement::Before,
        ));
        plan.firstprivate
            .push(FirstPrivateSpec::new(NodeId(3), "n"));
        assert_eq!(plan.construct_count(), 3);
        assert!(plan.map_for("a").is_some());
        assert!(plan.map_for("b").is_none());
        assert_eq!(plan.updates_for("b").len(), 1);
        assert!(plan.is_firstprivate("n"));
        assert_eq!(plan.mapped_variables(), vec!["a", "b", "n"]);
        // Hand-built specs default to an unspecified provenance...
        assert!(!plan.fully_justified());
        assert_eq!(plan.provenances().len(), 3);
        // ...and become justified once facts are attached.
        for m in &mut plan.maps {
            m.provenance = Provenance::plan(ProvenanceFact::ReadAndLiveAfterRegion, None, "");
        }
        for u in &mut plan.updates {
            u.provenance = Provenance::plan(ProvenanceFact::HostReadBetweenKernels, None, "");
        }
        for f in &mut plan.firstprivate {
            f.provenance = Provenance::plan(ProvenanceFact::ReadOnlyInRegion, None, "");
        }
        assert!(plan.fully_justified());
    }

    /// A plan read from an expert's unstructured lifetime answers the plan
    /// queries as the structured region it stands for: one map per
    /// variable, each justified by its declaration, and the kernel's
    /// `collapse` is no construct.
    #[test]
    fn lifetime_specs_participate_in_plan_queries() {
        let src = "\
double a[8], b[8];
int n;
void f() {
  #pragma omp target enter data map(to: a) map(alloc: b)
  #pragma omp target teams distribute parallel for collapse(2) firstprivate(n)
  for (int i = 0; i < 8; i++)
    for (int j = 0; j < 8; j++) b[i] = a[i] + j + n;
  #pragma omp target exit data map(from: b) map(release: a)
}
";
        let (_file, result) = ompdart_frontend::parser::parse_str("expert.c", src);
        assert!(result.is_ok(), "{:?}", result.diagnostics);
        let plans = crate::plan::diff::extract_explicit_plans(&result.unit);
        let [plan] = &plans[..] else {
            panic!("{plans:?}")
        };
        assert_eq!(plan.construct_count(), 3);
        assert_eq!(plan.provenances().len(), 3);
        assert_eq!(plan.mapped_variables(), vec!["a", "b", "n"]);
        assert_eq!(plan.map_for("a").map(|m| m.map_type), Some(MapType::To));
        assert_eq!(plan.map_for("b").map(|m| m.map_type), Some(MapType::From));
        assert!(plan.is_firstprivate("n"));
        assert_eq!(plan.kernels.len(), 1);
        assert!(plan.fully_justified());
    }

    #[test]
    fn provenance_fact_keys_round_trip() {
        for fact in ProvenanceFact::all() {
            assert_eq!(ProvenanceFact::from_key(fact.key()), Some(fact));
            assert!(!fact.describe().is_empty());
        }
        assert_eq!(ProvenanceFact::from_key("nonsense"), None);
    }

    #[test]
    fn stats_totals() {
        let stats = AnalysisStats {
            map_clauses: 4,
            update_directives: 2,
            firstprivate_clauses: 3,
            ..Default::default()
        };
        assert_eq!(stats.total_constructs(), 9);
    }

    #[test]
    fn update_direction_keywords() {
        assert_eq!(UpdateDirection::To.clause_keyword(), "to");
        assert_eq!(UpdateDirection::From.clause_keyword(), "from");
        assert_eq!(
            UpdateDirection::from_keyword("to"),
            Some(UpdateDirection::To)
        );
        assert_eq!(Placement::from_keyword("after"), Some(Placement::After));
        assert_eq!(Placement::from_keyword("sideways"), None);
    }
}
