//! A unit as the pipeline holds it: its body (the parse and what is
//! derived from it), its interface, and the analysis planned from it.

use super::stages::stage_parse_shared;
use super::{
    check_input_contract, stage_accesses, stage_graphs, stage_summaries, AccessArtifact,
    AnalysisSession, GraphsArtifact, ParsedUnit, PlansArtifact, RewriteOutput, StageError,
    StageTimings, SummariesArtifact,
};
use crate::interface::UnitExports;
use crate::plan::explain::explain_plans;
use crate::plan::ir::{AnalysisStats, MappingPlan};
use crate::plan::json::{plans_to_json, plans_to_json_compact, write_json_string};
use crate::stats::Counter;
use crate::store;
use crate::OmpDartOptions;
use ompdart_frontend::diag::Diagnostics;
use ompdart_frontend::source::SourceFile;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use std::time::Duration;

/// The **body** of a unit: every artifact derived from parsing it, up to
/// (and including) the seed summaries. Large, and needed only to *plan* the
/// unit (or to look at it: a plan-JSON dump, a stage's timings), so it is
/// built on demand and may be dropped again once the unit is planned — see
/// [`SummarizedUnit`].
#[derive(Debug)]
pub struct UnitBody {
    pub parsed: Arc<ParsedUnit>,
    pub graphs: Arc<GraphsArtifact>,
    pub accesses: Arc<AccessArtifact>,
    /// The seed summaries, which the link converges.
    pub summaries: Arc<SummariesArtifact>,
}

impl UnitBody {
    /// The one body constructor, the plain stage chain: parse → input
    /// contract → graphs → accesses → summaries. Each artifact records its
    /// own `elapsed`; the body is the one place a unit's parse lives.
    pub(super) fn build(
        name: &str,
        source: Arc<String>,
        options: &OmpDartOptions,
    ) -> Result<UnitBody, StageError> {
        let parsed = Arc::new(stage_parse_shared(name, source)?);
        check_input_contract(&parsed)?;
        let graphs = Arc::new(stage_graphs(&parsed.unit));
        let accesses = Arc::new(stage_accesses(&parsed.unit, &graphs));
        let summaries = Arc::new(stage_summaries(&parsed.unit, &accesses, options));
        Ok(UnitBody {
            parsed,
            graphs,
            accesses,
            summaries,
        })
    }
}

/// Lock `mutex`, recovering the guard if a holder panicked: a body cell
/// is valid at every step.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// One translation unit as the whole-program pipeline's first phase leaves
/// it, and the link stage consumes it: its source file (name and text) and
/// its **interface** ([`UnitExports`] — what the rest of the program reads
/// of it), with its **body** ([`UnitBody`]) in a cell that can be emptied.
///
/// A unit parsed this run has its body from the start and computes its
/// interface from it on first use. A unit *restored* from the persistent
/// store has its interface from the start and no body: [`Self::body`]
/// builds it on first use, which a restart whose plans are all in the store
/// never asks for. Once its interface is computed, a unit whose parse left
/// no diagnostic can drop its body again ([`release_bodies`]): it then
/// holds what a store hit holds — name, source, interface and content key
/// — and the analyses planned from it keep their plans, rewrite and wire
/// renderings.
#[derive(Debug)]
pub struct SummarizedUnit {
    /// The unit's name and source text. A resident unit is recognised by
    /// the text's pointer, and a parsed unit's body's [`SourceFile`] shares
    /// it. Spans in plans and diagnostics resolve against this file, so
    /// reading them never needs the body.
    file: SourceFile,
    /// The options the body is built under, when it is built on demand.
    options: OmpDartOptions,
    body: Mutex<Option<Arc<UnitBody>>>,
    exports: OnceLock<UnitExports>,
    /// The store's two content hashes of `source`, computed once per unit:
    /// the interface record and every plan record are keyed by them.
    pub(super) content: OnceLock<store::ContentKey>,
}

impl SummarizedUnit {
    /// A unit parsed this run, around its body.
    pub(super) fn parsed_now(options: &OmpDartOptions, body: UnitBody) -> SummarizedUnit {
        let file = &body.parsed.file;
        SummarizedUnit {
            file: SourceFile::shared(file.name(), Arc::clone(file.shared_text())),
            options: *options,
            body: Mutex::new(Some(Arc::new(body))),
            exports: OnceLock::new(),
            content: OnceLock::new(),
        }
    }

    /// A unit restored from its stored (or otherwise decoded) interface:
    /// `exports` must be the interface of `source` under `options`. Nothing
    /// is parsed until an accessor asks for the body.
    pub fn restored(
        name: &str,
        source: &str,
        options: &OmpDartOptions,
        exports: UnitExports,
    ) -> SummarizedUnit {
        SummarizedUnit {
            file: SourceFile::new(name, source),
            options: *options,
            body: Mutex::new(None),
            exports: OnceLock::from(exports),
            content: OnceLock::new(),
        }
    }

    /// The unit's name (diagnostics file name).
    pub fn name(&self) -> &str {
        self.file.name()
    }

    /// The unit's source text.
    pub fn source(&self) -> &str {
        self.file.text()
    }

    /// The unit's source file: what spans in its plans and diagnostics
    /// point into. Held by the unit itself, body or no body.
    pub fn source_file(&self) -> &SourceFile {
        &self.file
    }

    /// The source text, as the unit and its body share it.
    pub(super) fn text(&self) -> &Arc<String> {
        self.file.shared_text()
    }

    /// The unit's interface, computed from the body on first use unless it
    /// was restored.
    pub fn exports(&self) -> &UnitExports {
        self.exports.get_or_init(|| {
            let body = self.body();
            let (unit, accesses) = (&body.parsed.unit, &body.accesses);
            UnitExports::of(self.name(), unit, accesses, &body.summaries, &self.options)
        })
    }

    /// The body, if the unit holds one: a parsed unit's until it is
    /// released, or a restored unit's once something asked for it.
    pub fn body_if_built(&self) -> Option<Arc<UnitBody>> {
        lock(&self.body).clone()
    }

    /// The body, built now (by the pure stage functions) if the unit holds
    /// none.
    pub fn body(&self) -> Arc<UnitBody> {
        self.body_through(None)
    }

    /// [`Self::body`]; one built now is counted in `session`'s
    /// `parse_misses` if there is one.
    pub(super) fn body_through(&self, session: Option<&AnalysisSession>) -> Arc<UnitBody> {
        let mut cell = lock(&self.body);
        if let Some(body) = &*cell {
            return Arc::clone(body);
        }
        // Only a restored or released unit gets here, and its interface
        // was computed from a parse of these very bytes, under these
        // options, without a diagnostic.
        if let Some(session) = session {
            session.counters().add(Counter::parse_misses, 1);
        }
        let body = UnitBody::build(self.name(), Arc::clone(self.text()), &self.options)
            .expect("a unit with an interface parsed before");
        let body = Arc::new(body);
        *cell = Some(Arc::clone(&body));
        body
    }

    /// Drop the body if the unit can be served without it: its interface
    /// is computed and its parse left no diagnostic (those are shown from
    /// the body, and a store never holds such a unit). Whether it dropped
    /// one.
    fn release_body(&self) -> bool {
        if self.exports.get().is_none() {
            return false;
        }
        let mut cell = lock(&self.body);
        let clean = cell
            .as_ref()
            .is_some_and(|b| b.parsed.diagnostics.is_empty());
        if clean {
            *cell = None;
        }
        clean
    }

    /// The store's content hashes of the source.
    pub(super) fn content(&self) -> store::ContentKey {
        *(self.content).get_or_init(|| store::content_key(self.source()))
    }
}

/// A fully analyzed translation unit: the summarized unit, its plans and
/// its rewrite. Plans, statistics and the rewritten source are held
/// eagerly — they are what every consumer reads; the body is the unit's,
/// reached as `unit().body()`, and an analysis stays whole after its unit
/// released it.
#[derive(Debug)]
pub struct UnitAnalysis {
    pub(super) unit: Arc<SummarizedUnit>,
    pub plans: Arc<PlansArtifact>,
    pub rewrite: Arc<RewriteOutput>,
    /// The two payload-heavy artifacts as a server sends them, rendered on
    /// first use: the rewritten source as a JSON string literal, and the
    /// plan document, compact. An analysis is shared across requests by
    /// the session's unit table, so an unchanged unit is rendered once
    /// however often it is served.
    pub(super) wire: OnceLock<(String, String)>,
}

impl UnitAnalysis {
    /// The summarized unit this analysis planned: name, source, interface,
    /// and the (possibly unbuilt) body.
    pub fn unit(&self) -> &Arc<SummarizedUnit> {
        &self.unit
    }

    /// The rewritten source with data-mapping directives inserted.
    pub fn rewritten_source(&self) -> &str {
        &self.rewrite.source
    }

    /// The provenance-carrying mapping plans, one per kernel-launching
    /// function.
    pub fn plans(&self) -> &[MappingPlan] {
        &self.plans.plans
    }

    /// Aggregate statistics (kernels, mapped variables, constructs).
    pub fn stats(&self) -> AnalysisStats {
        self.plans.stats
    }

    /// The input source file, which spans in plans and diagnostics point
    /// into: the unit's own, so this builds nothing.
    pub fn source_file(&self) -> &SourceFile {
        self.unit.source_file()
    }

    /// Parse- and planning-time diagnostics, merged. Builds nothing: a
    /// unit whose parse produced a diagnostic is never served without its
    /// body, so a unit without one has none to show.
    pub fn diagnostics(&self) -> Diagnostics {
        let parse = self.unit.body_if_built();
        let mut diagnostics = parse.map_or_else(Diagnostics::new, |b| b.parsed.diagnostics.clone());
        diagnostics.extend(self.plans.diagnostics.clone());
        diagnostics
    }

    /// Per-stage timings of this analysis: the stages that ran for it.
    /// The body's four read zero while the unit holds no body.
    pub fn timings(&self) -> StageTimings {
        let body = self.unit.body_if_built();
        let of =
            |elapsed: fn(&UnitBody) -> Duration| body.as_deref().map_or(Duration::ZERO, elapsed);
        // In `Stage` order.
        StageTimings([
            of(|body| body.parsed.elapsed),
            of(|body| body.graphs.elapsed),
            of(|body| body.accesses.elapsed),
            of(|body| body.summaries.elapsed),
            self.plans.elapsed,
            self.rewrite.elapsed,
        ])
    }

    /// Human-readable justification of every mapping decision: one line per
    /// construct, with the deciding source location.
    pub fn explain(&self) -> String {
        explain_plans(&self.plans.plans, Some(self.source_file()))
    }

    /// The versioned plan-JSON document for this unit's plans, pretty:
    /// written by the plan encoder straight from the plans, in a buffer of
    /// its own length.
    pub fn plans_json(&self) -> String {
        plans_to_json(&self.plans.plans)
    }

    fn wire(&self) -> &(String, String) {
        self.wire.get_or_init(|| {
            let mut source = String::new();
            write_json_string(&mut source, &self.rewrite.source);
            // Held for as long as the analysis is: give back the writer's
            // growth slack (up to half of the buffer).
            source.shrink_to_fit();
            (source, plans_to_json_compact(&self.plans.plans))
        })
    }

    /// The rewritten source as a JSON string literal (memoised).
    pub fn rewritten_source_json(&self) -> &str {
        &self.wire().0
    }

    /// [`Self::plans_json`] written compactly by the same encoder
    /// (memoised): the same document, without insignificant whitespace.
    pub fn plans_json_compact(&self) -> &str {
        &self.wire().1
    }
}

/// Drop the body of each analysis's unit that can be served without it —
/// its interface is computed and its parse left no diagnostic (those are
/// shown from the body) — and return how many were dropped. The unit then
/// holds what a store hit holds — name, source, interface, content key —
/// and its analyses keep their plans, rewrite and wire renderings; a later
/// round that has to plan it again rebuilds the body, counted in
/// `parse_misses`.
///
/// A long-lived host calls this on the analyses it has answered with (the
/// daemon once a connection has written its next `analyze` or `explain`
/// answer, `ompdart watch` after each scan), so a resident unit costs what
/// a stored one does. A release is real work — the allocator takes back the
/// parse — so nothing that times a round calls it; a unit without a body
/// costs a lock.
pub fn release_bodies<'a>(analyses: impl IntoIterator<Item = &'a Arc<UnitAnalysis>>) -> usize {
    let released = analyses.into_iter().filter(|a| a.unit.release_body());
    released.count()
}
