//! OpenMP directive and clause representation.
//!
//! This module models the subset of OpenMP 5.2 relevant to offload data
//! mapping: the target executable directives of Table I of the paper, the
//! data-mapping directives (`target data`, `target enter data`, `target exit
//! data`, `target update`), and the clauses OMPDart inspects or inserts
//! (`map`, `to`, `from`, `firstprivate`, `private`, `reduction`, ...).

use crate::ast::{Expr, NodeId, Stmt};
use crate::source::Span;
use std::fmt;

/// The kind of an OpenMP directive.
///
/// The offload-kernel kinds correspond one-to-one with the Clang AST nodes of
/// Table I in the paper (e.g. `OMPTargetTeamsDistributeParallelForDirective`
/// is [`DirectiveKind::TargetTeamsDistributeParallelFor`]).
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum DirectiveKind {
    // --- Offload kernels (Table I) ---
    Target,
    TargetParallel,
    TargetParallelFor,
    TargetParallelForSimd,
    TargetParallelGenericLoop,
    TargetSimd,
    TargetTeams,
    TargetTeamsDistribute,
    TargetTeamsDistributeParallelFor,
    TargetTeamsDistributeParallelForSimd,
    TargetTeamsDistributeSimd,
    TargetTeamsGenericLoop,

    // --- Data environment directives (not kernels) ---
    TargetData,
    TargetEnterData,
    TargetExitData,
    TargetUpdate,

    // --- Host-side OpenMP, parsed but irrelevant to data mapping ---
    Parallel,
    ParallelFor,
    For,
    Simd,
    Barrier,
    Critical,
    Atomic,
    Single,
    Master,

    /// Anything else (`#pragma omp ...` we do not model specially).
    Other(String),
}

impl DirectiveKind {
    /// True if the directive launches an offload kernel (Table I). This list
    /// includes every `target` directive except `target (enter/exit) data`
    /// and `target update`.
    pub fn is_offload_kernel(&self) -> bool {
        use DirectiveKind::*;
        matches!(
            self,
            Target
                | TargetParallel
                | TargetParallelFor
                | TargetParallelForSimd
                | TargetParallelGenericLoop
                | TargetSimd
                | TargetTeams
                | TargetTeamsDistribute
                | TargetTeamsDistributeParallelFor
                | TargetTeamsDistributeParallelForSimd
                | TargetTeamsDistributeSimd
                | TargetTeamsGenericLoop
        )
    }

    /// True for standalone directives that have no associated statement.
    pub fn is_standalone(&self) -> bool {
        matches!(
            self,
            DirectiveKind::TargetUpdate
                | DirectiveKind::TargetEnterData
                | DirectiveKind::TargetExitData
                | DirectiveKind::Barrier
        )
    }

    /// True for directives that create or modify a device data environment.
    pub fn is_data_directive(&self) -> bool {
        matches!(
            self,
            DirectiveKind::TargetData
                | DirectiveKind::TargetEnterData
                | DirectiveKind::TargetExitData
                | DirectiveKind::TargetUpdate
        )
    }

    /// The canonical directive text (what follows `#pragma omp`).
    pub fn directive_text(&self) -> String {
        use DirectiveKind::*;
        match self {
            Target => "target".into(),
            TargetParallel => "target parallel".into(),
            TargetParallelFor => "target parallel for".into(),
            TargetParallelForSimd => "target parallel for simd".into(),
            TargetParallelGenericLoop => "target parallel loop".into(),
            TargetSimd => "target simd".into(),
            TargetTeams => "target teams".into(),
            TargetTeamsDistribute => "target teams distribute".into(),
            TargetTeamsDistributeParallelFor => "target teams distribute parallel for".into(),
            TargetTeamsDistributeParallelForSimd => {
                "target teams distribute parallel for simd".into()
            }
            TargetTeamsDistributeSimd => "target teams distribute simd".into(),
            TargetTeamsGenericLoop => "target teams loop".into(),
            TargetData => "target data".into(),
            TargetEnterData => "target enter data".into(),
            TargetExitData => "target exit data".into(),
            TargetUpdate => "target update".into(),
            Parallel => "parallel".into(),
            ParallelFor => "parallel for".into(),
            For => "for".into(),
            Simd => "simd".into(),
            Barrier => "barrier".into(),
            Critical => "critical".into(),
            Atomic => "atomic".into(),
            Single => "single".into(),
            Master => "master".into(),
            Other(s) => s.clone(),
        }
    }

    /// The Clang AST node name that corresponds to this offload kernel kind
    /// (Table I of the paper); `None` for non-kernel directives.
    pub fn clang_ast_node(&self) -> Option<&'static str> {
        use DirectiveKind::*;
        Some(match self {
            Target => "OMPTargetDirective",
            TargetParallel => "OMPTargetParallelDirective",
            TargetParallelFor => "OMPTargetParallelForDirective",
            TargetParallelForSimd => "OMPTargetParallelForSimdDirective",
            TargetParallelGenericLoop => "OMPTargetParallelGenericLoopDirective",
            TargetSimd => "OMPTargetSimdDirective",
            TargetTeams => "OMPTargetTeamsDirective",
            TargetTeamsDistribute => "OMPTargetTeamsDistributeDirective",
            TargetTeamsDistributeParallelFor => "OMPTargetTeamsDistributeParallelForDirective",
            TargetTeamsDistributeParallelForSimd => {
                "OMPTargetTeamsDistributeParallelForSimdDirective"
            }
            TargetTeamsDistributeSimd => "OMPTargetTeamsDistributeSimdDirective",
            TargetTeamsGenericLoop => "OMPTargetTeamsGenericLoopDirective",
            _ => return None,
        })
    }

    /// All offload-kernel directive kinds, in the order of Table I.
    pub fn all_offload_kernels() -> Vec<DirectiveKind> {
        use DirectiveKind::*;
        vec![
            Target,
            TargetParallel,
            TargetParallelFor,
            TargetParallelForSimd,
            TargetParallelGenericLoop,
            TargetSimd,
            TargetTeams,
            TargetTeamsDistribute,
            TargetTeamsDistributeParallelFor,
            TargetTeamsDistributeParallelForSimd,
            TargetTeamsDistributeSimd,
            TargetTeamsGenericLoop,
        ]
    }

    /// Determine the directive kind from the whitespace-separated words that
    /// follow `omp` in the pragma, returning the kind and the number of words
    /// consumed.
    pub fn from_words(words: &[&str]) -> (DirectiveKind, usize) {
        use DirectiveKind::*;
        // Longest-match table, checked in order.
        let table: &[(&[&str], DirectiveKind)] = &[
            (
                &["target", "teams", "distribute", "parallel", "for", "simd"],
                TargetTeamsDistributeParallelForSimd,
            ),
            (
                &["target", "teams", "distribute", "parallel", "for"],
                TargetTeamsDistributeParallelFor,
            ),
            (
                &["target", "teams", "distribute", "simd"],
                TargetTeamsDistributeSimd,
            ),
            (&["target", "teams", "distribute"], TargetTeamsDistribute),
            (&["target", "teams", "loop"], TargetTeamsGenericLoop),
            (&["target", "teams"], TargetTeams),
            (
                &["target", "parallel", "for", "simd"],
                TargetParallelForSimd,
            ),
            (&["target", "parallel", "for"], TargetParallelFor),
            (&["target", "parallel", "loop"], TargetParallelGenericLoop),
            (&["target", "parallel"], TargetParallel),
            (&["target", "simd"], TargetSimd),
            (&["target", "enter", "data"], TargetEnterData),
            (&["target", "exit", "data"], TargetExitData),
            (&["target", "data"], TargetData),
            (&["target", "update"], TargetUpdate),
            (&["target"], Target),
            (&["parallel", "for"], ParallelFor),
            (&["parallel"], Parallel),
            (&["for"], For),
            (&["simd"], Simd),
            (&["barrier"], Barrier),
            (&["critical"], Critical),
            (&["atomic"], Atomic),
            (&["single"], Single),
            (&["master"], Master),
        ];
        for (pattern, kind) in table {
            if words.len() >= pattern.len()
                && words[..pattern.len()]
                    .iter()
                    .zip(pattern.iter())
                    .all(|(a, b)| a == b)
            {
                return (kind.clone(), pattern.len());
            }
        }
        (
            Other(words.first().map(|s| s.to_string()).unwrap_or_default()),
            usize::from(!words.is_empty()),
        )
    }
}

impl fmt::Display for DirectiveKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "omp {}", self.directive_text())
    }
}

/// Map-type of a `map` clause.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum MapType {
    To,
    From,
    ToFrom,
    Alloc,
    Release,
    Delete,
}

impl MapType {
    pub fn as_str(&self) -> &'static str {
        match self {
            MapType::To => "to",
            MapType::From => "from",
            MapType::ToFrom => "tofrom",
            MapType::Alloc => "alloc",
            MapType::Release => "release",
            MapType::Delete => "delete",
        }
    }

    #[allow(clippy::should_implement_trait)]
    pub fn from_str(s: &str) -> Option<MapType> {
        Some(match s {
            "to" => MapType::To,
            "from" => MapType::From,
            "tofrom" => MapType::ToFrom,
            "alloc" => MapType::Alloc,
            "release" => MapType::Release,
            "delete" => MapType::Delete,
            _ => return None,
        })
    }

    /// True if entering a region with this map-type copies host data to the
    /// device when the reference count transitions 0 -> 1.
    pub fn copies_to_device(&self) -> bool {
        matches!(self, MapType::To | MapType::ToFrom)
    }

    /// True if exiting a region with this map-type copies device data back to
    /// the host when the reference count transitions 1 -> 0.
    pub fn copies_to_host(&self) -> bool {
        matches!(self, MapType::From | MapType::ToFrom)
    }
}

impl fmt::Display for MapType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.as_str())
    }
}

/// An OpenMP array section `lower : length` within `var[lower:length]`.
#[derive(Clone, Debug, PartialEq)]
pub struct ArraySection {
    pub lower: Option<Expr>,
    pub length: Option<Expr>,
}

/// One item of a `map`/`to`/`from`/`firstprivate` list: a variable, possibly
/// with array sections.
#[derive(Clone, Debug, PartialEq)]
pub struct MapItem {
    pub var: String,
    pub span: Span,
    pub sections: Vec<ArraySection>,
}

impl MapItem {
    pub fn whole(var: impl Into<String>, span: Span) -> Self {
        MapItem {
            var: var.into(),
            span,
            sections: Vec::new(),
        }
    }
}

/// A clause attached to an OpenMP directive.
#[derive(Clone, Debug, PartialEq)]
pub enum Clause {
    /// `map([map-type:] list)`
    Map {
        map_type: Option<MapType>,
        items: Vec<MapItem>,
    },
    /// `to(list)` on `target update`
    UpdateTo(Vec<MapItem>),
    /// `from(list)` on `target update`
    UpdateFrom(Vec<MapItem>),
    FirstPrivate(Vec<MapItem>),
    Private(Vec<MapItem>),
    Shared(Vec<MapItem>),
    Reduction {
        op: String,
        items: Vec<MapItem>,
    },
    NumTeams(Expr),
    NumThreads(Expr),
    ThreadLimit(Expr),
    Collapse(Expr),
    Device(Expr),
    If(Expr),
    Schedule(String),
    DefaultMap(String),
    Nowait,
    /// Any clause we do not model specially, kept verbatim.
    Other {
        name: String,
        text: String,
    },
}

impl Clause {
    /// The clause keyword.
    pub fn name(&self) -> &str {
        match self {
            Clause::Map { .. } => "map",
            Clause::UpdateTo(_) => "to",
            Clause::UpdateFrom(_) => "from",
            Clause::FirstPrivate(_) => "firstprivate",
            Clause::Private(_) => "private",
            Clause::Shared(_) => "shared",
            Clause::Reduction { .. } => "reduction",
            Clause::NumTeams(_) => "num_teams",
            Clause::NumThreads(_) => "num_threads",
            Clause::ThreadLimit(_) => "thread_limit",
            Clause::Collapse(_) => "collapse",
            Clause::Device(_) => "device",
            Clause::If(_) => "if",
            Clause::Schedule(_) => "schedule",
            Clause::DefaultMap(_) => "defaultmap",
            Clause::Nowait => "nowait",
            Clause::Other { name, .. } => name,
        }
    }

    /// Variables named in data-motion related clauses.
    pub fn data_items(&self) -> &[MapItem] {
        match self {
            Clause::Map { items, .. }
            | Clause::UpdateTo(items)
            | Clause::UpdateFrom(items)
            | Clause::FirstPrivate(items)
            | Clause::Private(items)
            | Clause::Shared(items)
            | Clause::Reduction { items, .. } => items,
            _ => &[],
        }
    }
}

/// A parsed OpenMP directive together with its associated statement.
#[derive(Clone, Debug, PartialEq)]
pub struct OmpDirective {
    pub id: NodeId,
    /// Span of the `#pragma` line(s) only.
    pub pragma_span: Span,
    pub kind: DirectiveKind,
    pub clauses: Vec<Clause>,
    /// The associated statement; `None` for standalone directives.
    pub body: Option<Box<Stmt>>,
}

impl OmpDirective {
    /// All map clauses on this directive.
    pub fn map_clauses(&self) -> impl Iterator<Item = (&Option<MapType>, &Vec<MapItem>)> {
        self.clauses.iter().filter_map(|c| match c {
            Clause::Map { map_type, items } => Some((map_type, items)),
            _ => None,
        })
    }

    /// Names of variables in `firstprivate` clauses.
    pub fn firstprivate_vars(&self) -> Vec<&str> {
        self.clauses
            .iter()
            .filter_map(|c| match c {
                Clause::FirstPrivate(items) => Some(items.iter().map(|i| i.var.as_str())),
                _ => None,
            })
            .flatten()
            .collect()
    }

    /// Names of variables in `private` clauses.
    pub fn private_vars(&self) -> Vec<&str> {
        self.clauses
            .iter()
            .filter_map(|c| match c {
                Clause::Private(items) => Some(items.iter().map(|i| i.var.as_str())),
                _ => None,
            })
            .flatten()
            .collect()
    }

    /// Names of variables in `reduction` clauses.
    pub fn reduction_vars(&self) -> Vec<&str> {
        self.clauses
            .iter()
            .filter_map(|c| match c {
                Clause::Reduction { items, .. } => Some(items.iter().map(|i| i.var.as_str())),
                _ => None,
            })
            .flatten()
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_i_offload_kernel_list() {
        // Table I of the paper lists exactly 12 offload-kernel directives.
        let all = DirectiveKind::all_offload_kernels();
        assert_eq!(all.len(), 12);
        for kind in &all {
            assert!(kind.is_offload_kernel());
            assert!(kind.clang_ast_node().is_some());
            assert!(!kind.is_data_directive());
        }
        // Data directives are excluded from the kernel list.
        assert!(!DirectiveKind::TargetData.is_offload_kernel());
        assert!(!DirectiveKind::TargetUpdate.is_offload_kernel());
        assert!(!DirectiveKind::TargetEnterData.is_offload_kernel());
        assert!(!DirectiveKind::TargetExitData.is_offload_kernel());
    }

    #[test]
    fn from_words_longest_match() {
        let (k, n) = DirectiveKind::from_words(&[
            "target",
            "teams",
            "distribute",
            "parallel",
            "for",
            "simd",
        ]);
        assert_eq!(k, DirectiveKind::TargetTeamsDistributeParallelForSimd);
        assert_eq!(n, 6);

        let (k, n) =
            DirectiveKind::from_words(&["target", "teams", "distribute", "parallel", "for", "map"]);
        assert_eq!(k, DirectiveKind::TargetTeamsDistributeParallelFor);
        assert_eq!(n, 5);

        let (k, n) = DirectiveKind::from_words(&["target", "data", "map"]);
        assert_eq!(k, DirectiveKind::TargetData);
        assert_eq!(n, 2);

        let (k, _) = DirectiveKind::from_words(&["target", "update", "from"]);
        assert_eq!(k, DirectiveKind::TargetUpdate);
        assert!(k.is_standalone());

        let (k, _) = DirectiveKind::from_words(&["taskwait"]);
        assert!(matches!(k, DirectiveKind::Other(_)));
    }

    #[test]
    fn map_type_semantics() {
        assert!(MapType::To.copies_to_device());
        assert!(!MapType::To.copies_to_host());
        assert!(MapType::ToFrom.copies_to_device());
        assert!(MapType::ToFrom.copies_to_host());
        assert!(!MapType::Alloc.copies_to_device());
        assert!(!MapType::Alloc.copies_to_host());
        assert!(MapType::From.copies_to_host());
        assert_eq!(MapType::from_str("tofrom"), Some(MapType::ToFrom));
        assert_eq!(MapType::from_str("bogus"), None);
    }

    #[test]
    fn directive_text_round_trip() {
        for kind in DirectiveKind::all_offload_kernels() {
            let text = kind.directive_text();
            let words: Vec<&str> = text.split_whitespace().collect();
            let (parsed, consumed) = DirectiveKind::from_words(&words);
            assert_eq!(parsed, kind);
            assert_eq!(consumed, words.len());
        }
    }
}
