//! The session: the unit table (one slot per unit name, two bounded
//! most-recently-used lists) and [`AnalysisSession`], which drives the
//! stages through it and the persistent store below it.

use super::stages::run_plan_stage;
use super::{
    stage_rewrite, PlansArtifact, RewriteOutput, StageError, SummarizedUnit, UnitAnalysis, UnitBody,
};
use crate::program::{LinkContext, UnitServe};
use crate::rewrite;
use crate::shard::ShardMap;
use crate::stats::{AtomicCacheStats, CacheStats, Counter};
use crate::store::{self, ArtifactStore};
use crate::OmpDartOptions;
use ompdart_frontend::diag::Diagnostics;
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// How many content versions of one unit stay resident: the current one and
/// the one before it, so an edit → revert (an editor's undo, a branch
/// switched and switched back) is served from memory. A third distinct
/// version drops the least recently used of the two.
const VERSIONS_PER_UNIT: usize = 2;

/// How many analyses of one version stay resident, each under the imports
/// fingerprint it was planned for: the unit as a one-unit program's (what
/// `explain` and single-unit requests ask for) and the two most recent
/// ones of a larger program, so a *neighbour's* edit → revert, which moves
/// this unit's imports fingerprint and moves it back, stays warm too.
const ANALYSES_PER_VERSION: usize = 3;

/// Most-recently-used lookup: the entry `is` accepts, moved to the front.
fn touch<T>(list: &mut [T], is: impl Fn(&T) -> bool) -> Option<&mut T> {
    let at = list.iter().position(is)?;
    list[..=at].rotate_right(1);
    list.first_mut()
}

/// Put `entry` at the front of a most-recently-used list of at most `bound`
/// entries, dropping the least recently used beyond that.
fn admit<T>(list: &mut Vec<T>, entry: T, bound: usize) {
    list.truncate(bound - 1);
    list.insert(0, entry);
}

/// One resident content version of a unit: the summarized unit (whose body
/// holds its parse while built and not released) and the analyses planned
/// from it.
#[derive(Debug)]
struct UnitVersion {
    /// The source every hit is verified against: the unit's own text, held
    /// here too so that a probe reads it without loading the unit.
    source: Arc<String>,
    unit: Arc<SummarizedUnit>,
    /// `(imports fingerprint, analysis)`, most recently used first, at
    /// most [`ANALYSES_PER_VERSION`]. The same content planned under
    /// different link surroundings yields different plans.
    analyses: Vec<(u64, Arc<UnitAnalysis>)>,
}

impl UnitVersion {
    /// The analysis planned under `imports_fingerprint`, moved to the front.
    fn analysis(&mut self, imports_fingerprint: u64) -> Option<Arc<UnitAnalysis>> {
        touch(&mut self.analyses, |(fp, _)| *fp == imports_fingerprint)
            .map(|(_, analysis)| Arc::clone(analysis))
    }
}

/// Everything the session keeps of one unit name: at most
/// [`VERSIONS_PER_UNIT`] content versions, most recently used first.
#[derive(Debug, Default)]
struct UnitSlot {
    versions: Vec<UnitVersion>,
}

impl UnitSlot {
    /// The resident version with this content, moved to the front. A hit is
    /// a byte compare of the source — or pointer identity, for a caller that
    /// already holds the version's own text.
    fn version(&mut self, shared: Option<&Arc<String>>, source: &str) -> Option<&mut UnitVersion> {
        touch(&mut self.versions, |v| {
            shared.is_some_and(|text| Arc::ptr_eq(text, &v.source)) || *v.source == source
        })
    }

    /// [`Self::version`] of `unit`'s source, admitted around `unit` when it
    /// is not resident. A concurrent call that raced to the same content
    /// finds the first writer's version, so every caller observes one set
    /// of `Arc`s (the duplicated work is benign).
    fn version_or_admit(&mut self, unit: &Arc<SummarizedUnit>) -> &mut UnitVersion {
        if self.version(Some(unit.text()), unit.source()).is_none() {
            let version = UnitVersion {
                source: Arc::clone(unit.text()),
                unit: Arc::clone(unit),
                analyses: Vec::new(),
            };
            admit(&mut self.versions, version, VERSIONS_PER_UNIT);
        }
        &mut self.versions[0]
    }
}

/// A reusable, thread-safe driver for the staged pipeline.
///
/// Every unit the session has seen has **one home**: its slot in the unit
/// table, indexed by unit name. A slot holds the unit's current content
/// version and the one before it (`VERSIONS_PER_UNIT`), and a version holds
/// its [`SummarizedUnit`] — source, interface, and body (the one home of
/// its parse) while built and not released ([`release_bodies`](super::release_bodies)) —
/// and the few most recent [`UnitAnalysis`] bundles planned from it, one
/// per imports fingerprint (`ANALYSES_PER_VERSION`). A lookup is a name probe
/// plus a byte compare of the source — never a content hash, and never
/// another file's artifacts — and a slot never grows past those two bounds, so a
/// long-lived session (`ompdart watch`, the daemon) stays bounded by the
/// number of unit names it has seen, not by the number of saves. A
/// superseded version is released as soon as two newer ones have been
/// analyzed; recomputing it later is an ordinary edit. Below the table sits
/// an optional persistent [`ArtifactStore`]
/// ([`AnalysisSession::with_cache_dir`]): a unit's interface, its plans and
/// the edits that rewrite it are loaded from disk on a content match and
/// written back after every miss, so a fresh process starts warm and parses
/// only the units a change reached. Both are keyed by a whole unit — its
/// content and the imports fingerprint of its link — and a unit that misses
/// both is planned whole: an edited source is parsed, graphed,
/// access-classified, summarized and planned, every function of it, and no
/// other unit is unless its imports fingerprint moved.
///
/// A [`crate::program::ProgramDriver`] round — of many units, or of one —
/// runs [`Self::summarize`] → link → [`Self::analyze_linked`]. To run the
/// pipeline step by step, call the pure stage functions ([`stage_parse`](super::stage_parse)
/// … [`stage_rewrite`]): they are what the session runs.
#[derive(Debug)]
pub struct AnalysisSession {
    options: OmpDartOptions,
    parallelism: usize,
    /// The unit table: unit name → its resident versions.
    units: ShardMap<String, UnitSlot>,
    /// The persistent store. Write-backs are queued in it while planning and
    /// [`AnalysisSession::flush_store_writes`] appends the whole round's at
    /// once.
    store: Option<ArtifactStore>,
    counters: AtomicCacheStats,
}

impl Default for AnalysisSession {
    fn default() -> Self {
        AnalysisSession::new()
    }
}

impl Drop for AnalysisSession {
    fn drop(&mut self) {
        // Last-resort flush of the write-behind buffer: queued write-backs
        // must reach the store even if a caller driving `analyze_linked` by
        // hand never called `flush_store_writes`.
        self.flush_store_writes();
    }
}

impl AnalysisSession {
    /// A session with default options.
    pub fn new() -> AnalysisSession {
        AnalysisSession::with_options(OmpDartOptions::default())
    }

    /// A session with explicit options.
    pub fn with_options(options: OmpDartOptions) -> AnalysisSession {
        AnalysisSession {
            options,
            parallelism: default_parallelism(),
            units: ShardMap::new(),
            store: None,
            counters: AtomicCacheStats::default(),
        }
    }

    /// Override the fan-out width of the session's link and planning stages
    /// (and the default width of a [`crate::program::ProgramDriver`] over
    /// it).
    pub fn with_parallelism(mut self, workers: usize) -> AnalysisSession {
        self.parallelism = workers.max(1);
        self
    }

    /// Attach a persistent [`ArtifactStore`] rooted at `dir`: plans are
    /// loaded from disk when the full content key matches and written back
    /// after every planning run, so a new process with the same `dir`
    /// starts warm. Entries produced under different options, a different
    /// format version, or corrupted on disk are rejected, never trusted.
    pub fn with_cache_dir(mut self, dir: impl Into<std::path::PathBuf>) -> AnalysisSession {
        self.store = Some(ArtifactStore::open(dir));
        self
    }

    /// Attach an already-configured [`ArtifactStore`] (e.g. one with a
    /// size cap from [`ArtifactStore::with_max_bytes`]).
    pub fn with_store(mut self, store: ArtifactStore) -> AnalysisSession {
        self.store = Some(store);
        self
    }

    /// The attached persistent artifact store, if any.
    pub fn artifact_store(&self) -> Option<&ArtifactStore> {
        self.store.as_ref()
    }

    /// Append the store write-backs queued since the last flush to the pack,
    /// in one write. Returns the number of records written. Called once per
    /// planning round by [`crate::program::ProgramDriver::analyze_program`];
    /// dropping the
    /// session flushes any stragglers, so callers driving
    /// [`Self::analyze_linked`] by hand lose nothing. Best effort: records
    /// that cannot be written are a later miss.
    pub fn flush_store_writes(&self) -> usize {
        let flushed = self.store.as_ref().map(ArtifactStore::flush);
        flushed.and_then(Result::ok).unwrap_or(0)
    }

    /// The session's counters, for what the driver counts itself (relink
    /// work, units served by the identity fast path).
    pub(crate) fn counters(&self) -> &AtomicCacheStats {
        &self.counters
    }

    /// The resident version of `name` with this content (see
    /// [`UnitSlot::version`]), read through `get`.
    fn resident<R>(
        &self,
        name: &str,
        shared: Option<&Arc<String>>,
        source: &str,
        get: impl FnOnce(&mut UnitVersion) -> Option<R>,
    ) -> Option<R> {
        let read = |slot: &mut UnitSlot| get(slot.version(shared, source)?);
        self.units.modify(name, read).flatten()
    }

    /// The identity fast path of a program round: the analysis of `unit`
    /// under `imports_fingerprint`, if the unit table holds one — no
    /// context is assembled, nothing is hashed or planned.
    pub(crate) fn resident_analysis(
        &self,
        unit: &SummarizedUnit,
        imports_fingerprint: u64,
    ) -> Option<Arc<UnitAnalysis>> {
        self.resident(unit.name(), Some(unit.text()), unit.source(), |version| {
            version.analysis(imports_fingerprint)
        })
    }

    /// Release the resident versions of `name` whose content differs from
    /// `source` now, instead of when newer versions push them out. No host
    /// has to call this — the unit table bounds itself (see the type docs);
    /// it is for a caller that wants a session which never revisits
    /// superseded content to hold none of it.
    pub fn evict_stale_versions(&self, name: &str, source: &str) {
        self.units
            .modify(name, |slot| slot.versions.retain(|v| *v.source == source));
    }

    /// The active options.
    pub fn options(&self) -> &OmpDartOptions {
        &self.options
    }

    /// The configured worker fan-out width.
    pub fn parallelism(&self) -> usize {
        self.parallelism
    }

    /// Cache hit/miss counters so far.
    pub fn cache_stats(&self) -> CacheStats {
        self.counters.snapshot()
    }

    /// The session's one planning call: [`run_plan_stage`] of the whole
    /// unit, its functions counted in `function_plan_misses`.
    fn plan_under(&self, body: &UnitBody, link: &LinkContext) -> Arc<PlansArtifact> {
        let unit = &body.parsed.unit;
        let functions = unit.functions().count() as u64;
        self.counters.add(Counter::function_plan_misses, functions);
        Arc::new(run_plan_stage(
            unit,
            &body.graphs,
            &body.accesses,
            &self.options,
            self.parallelism,
            link,
        ))
    }

    /// Phase 1, cached: one unit as the link stage consumes it. Lookup
    /// order: the unit table, verified against the full source; then — when
    /// a `cache_dir` is attached — the store's interface record for this
    /// content, which yields the unit without parsing anything; then the
    /// body's stage chain, counted in `parse_misses`, after which the
    /// interface is computed and queued for the store (unless the parse
    /// produced a diagnostic: such a unit is parsed on every start, so its
    /// warnings reappear).
    pub fn summarize(&self, name: &str, source: &str) -> Result<Arc<SummarizedUnit>, StageError> {
        if let Some(unit) = self.resident(name, None, source, |v| Some(Arc::clone(&v.unit))) {
            self.counters.add(Counter::summarize_hits, 1);
            return Ok(unit);
        }
        self.counters.add(Counter::summarize_misses, 1);
        let keyed = (self.store.as_ref()).map(|store| (store, store::content_key(source)));
        let stored = keyed.and_then(|(store, content)| {
            let hit = store.load_interface(content, &self.options, name);
            let row = match hit {
                Some(_) => Counter::interface_store_hits,
                None => Counter::interface_store_misses,
            };
            self.counters.add(row, 1);
            hit
        });
        let unit = match stored {
            Some(exports) => SummarizedUnit::restored(name, source, &self.options, exports),
            None => {
                self.counters.add(Counter::parse_misses, 1);
                let text = Arc::new(source.to_string());
                let body = UnitBody::build(name, text, &self.options)?;
                let clean = body.parsed.diagnostics.is_empty();
                let unit = SummarizedUnit::parsed_now(&self.options, body);
                if let (Some((store, content)), true) = (keyed, clean) {
                    store.queue_interface(name, content, &self.options, unit.exports());
                }
                unit
            }
        };
        if let Some((_, content)) = keyed {
            // Hashed once: the unit's plan records are keyed by it too.
            let _ = unit.content.set(content);
        }
        let unit = Arc::new(unit);
        let admit = |slot: &mut UnitSlot| Arc::clone(&slot.version_or_admit(&unit).unit);
        Ok(self.units.update(name.to_string(), admit))
    }

    /// Phase 3 for one unit: plan and rewrite under a [`LinkContext`].
    /// Lookup order: the unit table (the unit's resident version, under the
    /// context's imports fingerprint), then — when a `cache_dir` is
    /// attached — the persistent store under the same link key (plans and
    /// the rewrite's edits loaded from disk: a splice into the source, the
    /// unit's body is not touched), then the planning stage, which builds
    /// the body if the unit was restored and plans every function of it.
    pub fn analyze_linked(
        &self,
        unit: &Arc<SummarizedUnit>,
        link: &LinkContext,
    ) -> (Arc<UnitAnalysis>, UnitServe) {
        let imports_fingerprint = link.imports_fingerprint;
        if let Some(analysis) = self.resident_analysis(unit, imports_fingerprint) {
            self.counters.add(Counter::analysis_hits, 1);
            return (analysis, UnitServe::Cached);
        }
        self.counters.add(Counter::analysis_misses, 1);
        // The serve report stays this request's own even when a concurrent
        // analysis of the same content is admitted first — the duplicated
        // work really happened.
        let (plans, rewrite, served) = self.plan_or_load(unit, link);
        let analysis = Arc::new(UnitAnalysis {
            unit: Arc::clone(unit),
            plans,
            rewrite: Arc::new(rewrite),
            wire: OnceLock::new(),
        });
        let admit_analysis = |slot: &mut UnitSlot| {
            let version = slot.version_or_admit(unit);
            version.analysis(imports_fingerprint).unwrap_or_else(|| {
                let entry = (imports_fingerprint, Arc::clone(&analysis));
                admit(&mut version.analyses, entry, ANALYSES_PER_VERSION);
                analysis
            })
        };
        (
            self.units.update(unit.name().to_string(), admit_analysis),
            served,
        )
    }

    /// The plans and the rewrite of a unit the table holds no analysis of:
    /// loaded from the persistent store on a verified content match (which
    /// skips planning entirely, and the body with it when the record
    /// carries the rewrite's edits), planned otherwise.
    fn plan_or_load(
        &self,
        unit: &Arc<SummarizedUnit>,
        link: &LinkContext,
    ) -> (Arc<PlansArtifact>, RewriteOutput, UnitServe) {
        // One hash of the source serves every lookup and write-back.
        let store = (self.store.as_ref()).map(|store| {
            let key = unit.content().unit(&self.options, link.imports_fingerprint);
            (store, key)
        });
        let stored = store.as_ref().and_then(|(store, key)| {
            let hit = store.load_unit(key);
            let row = match hit {
                Some(_) => Counter::store_hits,
                None => Counter::store_misses,
            };
            self.counters.add(row, 1);
            hit
        });
        if let Some(stored) = stored {
            let plans = Arc::new(PlansArtifact {
                plans: stored.plans,
                stats: stored.stats,
                diagnostics: Diagnostics::new(),
                function_keys: Vec::new(),
                elapsed: Duration::ZERO,
            });
            let rewrite = match &stored.edits {
                Some(edits) => spliced(edits, unit.source(), Instant::now()),
                // A record saved without its edits: derive them.
                None => {
                    let body = unit.body_through(Some(self));
                    stage_rewrite(&body.parsed, &body.graphs, &plans)
                }
            };
            return (plans, rewrite, UnitServe::Store);
        }
        let body = unit.body_through(Some(self));
        let plans = self.plan_under(&body, link);
        let start = Instant::now();
        let edits = rewrite::plan_edits(
            &body.parsed.file,
            &body.parsed.unit,
            &body.graphs.graphs,
            &plans.plans,
        );
        let rewrite = spliced(&edits, unit.source(), start);
        if let (Some((store, key)), true) = (store, plans.diagnostics.is_empty()) {
            // Queued, and appended to the pack by the round's one
            // [`Self::flush_store_writes`]. Units with planning diagnostics
            // are not persisted: the warnings would be lost on a later
            // store hit.
            store.queue_unit(unit.name(), key, &plans.plans, &plans.stats, Some(&edits));
        }
        (plans, rewrite, UnitServe::Planned)
    }
}

/// The rewrite of `source` that `edits` make, as a stage artifact whose work
/// began at `since`.
fn spliced(edits: &rewrite::EditSet, source: &str, since: Instant) -> RewriteOutput {
    RewriteOutput {
        source: edits.apply(source),
        elapsed: since.elapsed(),
    }
}

/// Worker count used by default for batch, per-function and link-wavefront
/// fan-out: a session's [`AnalysisSession::parallelism`] unless overridden.
pub(crate) fn default_parallelism() -> usize {
    crate::pool::available_width().min(8)
}
