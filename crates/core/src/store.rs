//! Persistent on-disk artifact store: warm starts across process restarts.
//!
//! The store keeps one JSON document per analyzed translation unit, keyed
//! **content-addressed** — by the source text alone, *not* by the file
//! name — plus the analysis options and, for units analyzed as part of a
//! linked whole program, the fingerprint of the interfaces the unit
//! *imports* from the rest of the program. A renamed or copied file (or
//! two units that happen to share their full text, e.g. generated sources
//! sharing one header) therefore starts **warm**: the first analysis under
//! the new name is served from the entry the old name wrote. Nothing in a
//! stored document embeds the unit name — the artifacts that do carry the
//! name (parse diagnostics, the source file handle) are rebuilt from the
//! fresh parse by the relocation layer ([`crate::relocate`]) instead of
//! being persisted, which is what makes the name-free key sound.
//!
//! Documents reuse the versioned plan JSON of [`crate::plan::json`] and add
//! a *full verification key*: besides the primary FNV-1a content hash
//! (which also names the file on disk), every entry records the source
//! length, an independent second content hash, the [`OmpDartOptions`]
//! fingerprint, and the link fingerprint. A lookup only hits when every
//! component matches — a corrupt file, a hash collision, a stale entry
//! from an older format version (including the pre-v3 `(name, source)`
//! keyed layout, which degrades cleanly to a miss), or an entry produced
//! under different options or link surroundings is silently treated as a
//! miss and overwritten on the next write-back, never trusted.
//!
//! The link fingerprint is what makes store invalidation *interface
//! granular* across files: editing one unit changes its own content key
//! (its entry misses and is re-planned), but other units' entries keep
//! hitting unless the edited unit's **exported interface** changed — only
//! then does their imported-interface fingerprint move.
//!
//! Besides the plans, each entry persists per-function sub-entries
//! ([`FunctionKeySnapshot`]), so a warm-started session re-seeds its
//! in-memory function-plan cache from a store hit and the *first edit*
//! after a restart already re-plans only the edited function (access
//! collection and local summarization are not persisted — they are cheap
//! intermediates and re-run for the unit on that first edit).
//!
//! The store is deliberately plan-granular: plans are the expensive artifact
//! (the data-flow analysis), while parsing and rewriting are cheap and must
//! re-run anyway to rebuild spans and node ids for the current source.
//! Because parsing is deterministic, node ids serialized in a stored plan
//! line up with a fresh parse of the identical source, which is what makes
//! a store-served rewrite byte-identical to a cold one (the same property
//! the plan-JSON golden tests pin).
//!
//! Disk growth is bounded two ways. Content addressing removes the name
//! from the key, so "the previous version of this file" is tracked through
//! tiny `ref-*` side files — one per `(unit name, options, link)` — whose
//! only job is to let a write-back prune the entry the same file's previous
//! save produced (a shared entry another name still points at simply
//! re-materializes on that file's next save). On top of that, an optional
//! size cap ([`ArtifactStore::with_max_bytes`], surfaced as `ompdart cache
//! gc`) evicts least-recently-used entries. Eviction never touches the
//! entry being written and removes files one atomic unlink at a time, so a
//! concurrent reader sees either a full entry or a miss, never a torn one.

use crate::pipeline::{content_hash, content_hash2, FunctionKeySnapshot, FunctionPlanKey};
use crate::plan::ir::{AnalysisStats, MappingPlan, PLAN_FORMAT_VERSION};
use crate::plan::json::Json;
use crate::OmpDartOptions;
use std::path::{Path, PathBuf};
use std::time::SystemTime;

/// Version of the on-disk store envelope. Bumped whenever the document
/// layout around the embedded plan JSON changes; entries written by any
/// other version are rejected as stale. v3 moved to the content-addressed
/// key (source text only); v2 `(name, source)` entries degrade to a miss.
pub const STORE_FORMAT_VERSION: u32 = 3;

/// FNV-1a hash of the source text alone — the primary content address.
fn source_hash(source: &str) -> u64 {
    content_hash("", source)
}

/// The independent second hash of the source text alone.
fn source_hash2(source: &str) -> u64 {
    content_hash2("", source)
}

/// A directory-backed store of per-unit planning artifacts.
///
/// Opening a store never fails: the directory is created lazily on the
/// first write, and every read error (missing directory, unreadable file,
/// corrupt JSON) degrades to a cache miss.
#[derive(Clone, Debug)]
pub struct ArtifactStore {
    dir: PathBuf,
    /// When set, every write-back enforces this LRU size cap.
    max_bytes: Option<u64>,
}

/// One unit's stored planning artifacts, as returned by
/// [`ArtifactStore::load`].
#[derive(Clone, Debug)]
pub struct StoredUnit {
    /// The per-function mapping plans, in source order.
    pub plans: Vec<MappingPlan>,
    /// The aggregate statistics recorded when the plans were produced.
    pub stats: AnalysisStats,
    /// Per-function plan-cache key snapshots (source order), used to
    /// re-seed the in-memory function-plan cache on a hit.
    pub functions: Vec<FunctionKeySnapshot>,
}

/// One unit's queued write-back, as buffered by the session's write-behind
/// layer and flushed in bulk through [`ArtifactStore::save_many`].
#[derive(Clone, Debug)]
pub struct PendingUnitSave {
    pub name: String,
    pub source: String,
    pub link: u64,
    pub plans: Vec<MappingPlan>,
    pub stats: AnalysisStats,
    pub functions: Vec<FunctionKeySnapshot>,
}

/// One function's persisted planning result, stored (like the in-memory
/// function-plan cache entry it mirrors) in the node-id/byte
/// coordinates of the parse that produced it and relocated on every hit.
#[derive(Clone, Debug)]
pub(crate) struct StoredFunctionPlan {
    pub(crate) base_id: u32,
    pub(crate) base_pos: u32,
    pub(crate) analyzed: bool,
    pub(crate) fallbacks: u64,
    pub(crate) plan: Option<MappingPlan>,
}

/// What one garbage-collection pass did.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct GcReport {
    /// Entries present before the pass.
    pub entries_before: usize,
    /// Entries evicted (least-recently-used first).
    pub entries_evicted: usize,
    /// Bytes freed by eviction.
    pub bytes_freed: u64,
    /// Bytes still stored after the pass.
    pub bytes_kept: u64,
}

impl ArtifactStore {
    /// A store rooted at `dir`. The directory is created on first write.
    pub fn open(dir: impl Into<PathBuf>) -> ArtifactStore {
        ArtifactStore {
            dir: dir.into(),
            max_bytes: None,
        }
    }

    /// Enforce an LRU size cap: after every write-back, least-recently-used
    /// entries are evicted until the store fits in `max_bytes`. The entry
    /// just written is never evicted.
    pub fn with_max_bytes(mut self, max_bytes: u64) -> ArtifactStore {
        self.max_bytes = Some(max_bytes);
        self
    }

    /// The configured size cap, if any.
    pub fn max_bytes(&self) -> Option<u64> {
        self.max_bytes
    }

    /// The directory backing this store.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The on-disk path an entry for `source` under `options` and `link`
    /// lives at. The file name carries four hashes — two independent
    /// hashes of the source text (the content address; the unit name does
    /// not participate), the options fingerprint, and the link fingerprint
    /// — so sessions with different options or link surroundings sharing
    /// one `cache_dir` coexist instead of overwriting each other.
    /// Colliding hashes share a path but are disambiguated by the in-file
    /// verification key.
    pub fn entry_path(&self, source: &str, options: &OmpDartOptions, link: u64) -> PathBuf {
        self.dir.join(format!(
            "unit-{:016x}-{:016x}-{:016x}-{:016x}.json",
            source_hash(source),
            source_hash2(source),
            options.fingerprint(),
            link,
        ))
    }

    /// The path of the tiny side file remembering which content entry the
    /// unit called `name` last wrote under `options` and `link` — the only
    /// place the unit *name* still appears (hashed), and only so a later
    /// save can prune the superseded entry.
    fn ref_path(&self, name: &str, options: &OmpDartOptions, link: u64) -> PathBuf {
        self.dir.join(format!(
            "ref-{:016x}-{:016x}-{:016x}.ref",
            content_hash(name, ""),
            options.fingerprint(),
            link,
        ))
    }

    fn files_with_prefix(&self, prefix: &str) -> Vec<PathBuf> {
        std::fs::read_dir(&self.dir)
            .map(|entries| {
                entries
                    .filter_map(Result::ok)
                    .map(|e| e.path())
                    .filter(|p| {
                        p.file_name()
                            .and_then(|n| n.to_str())
                            .is_some_and(|n| n.starts_with(prefix) && n.ends_with(".json"))
                    })
                    .collect()
            })
            .unwrap_or_default()
    }

    fn entry_files(&self) -> Vec<PathBuf> {
        self.files_with_prefix("unit-")
    }

    /// Every evictable cache file: unit entries plus function-level
    /// entries. The LRU garbage collector works over this set.
    fn cache_files(&self) -> Vec<PathBuf> {
        let mut files = self.files_with_prefix("unit-");
        files.extend(self.files_with_prefix("fn-"));
        files
    }

    /// Number of unit entries currently on disk (diagnostics and tests).
    pub fn entry_count(&self) -> usize {
        self.entry_files().len()
    }

    /// Number of function-level entries currently on disk.
    pub fn function_entry_count(&self) -> usize {
        self.files_with_prefix("fn-").len()
    }

    /// Total size in bytes of all cache files currently on disk.
    pub fn total_bytes(&self) -> u64 {
        self.cache_files()
            .iter()
            .filter_map(|p| std::fs::metadata(p).ok())
            .map(|m| m.len())
            .sum()
    }

    /// True when no entries are stored.
    pub fn is_empty(&self) -> bool {
        self.entry_count() == 0
    }

    /// Look up the stored plans for `source` under `options` and `link` —
    /// the unit name does not participate, so renamed or copied files hit
    /// the entries their previous name wrote. Returns `None` unless the
    /// entry exists, parses, carries the expected versions, and its full
    /// key — source length, both content hashes, the options fingerprint,
    /// and the link fingerprint — matches exactly. A hit refreshes the
    /// entry's modification time (best effort) so LRU eviction sees it as
    /// recently used.
    pub fn load(&self, source: &str, options: &OmpDartOptions, link: u64) -> Option<StoredUnit> {
        let path = self.entry_path(source, options, link);
        let text = std::fs::read_to_string(&path).ok()?;
        let doc = Json::parse(&text).ok()?;
        if doc.get("store_version").and_then(Json::as_int) != Some(i64::from(STORE_FORMAT_VERSION))
            || doc.get("version").and_then(Json::as_int) != Some(i64::from(PLAN_FORMAT_VERSION))
        {
            return None;
        }
        let key = doc.get("key")?;
        let matches = key.get("len").and_then(Json::as_int) == Some(source.len() as i64)
            && key.get("fnv").and_then(Json::as_str)
                == Some(format!("{:016x}", source_hash(source)).as_str())
            && key.get("fnv2").and_then(Json::as_str)
                == Some(format!("{:016x}", source_hash2(source)).as_str())
            && doc.get("options").and_then(Json::as_str)
                == Some(format!("{:016x}", options.fingerprint()).as_str())
            && doc.get("link").and_then(Json::as_str) == Some(format!("{link:016x}").as_str());
        if !matches {
            return None;
        }
        let plans = doc
            .get("plans")
            .and_then(Json::as_array)?
            .iter()
            .map(MappingPlan::from_json_value)
            .collect::<Result<Vec<_>, _>>()
            .ok()?;
        let stats = AnalysisStats::from_json(doc.get("stats")?).ok()?;
        let functions = doc
            .get("functions")
            .and_then(Json::as_array)?
            .iter()
            .map(function_key_from_json)
            .collect::<Option<Vec<_>>>()?;
        // LRU touch: a hit makes the entry "recently used". Best effort —
        // read-only stores simply age out faster.
        if let Ok(file) = std::fs::OpenOptions::new().write(true).open(&path) {
            let _ = file.set_modified(SystemTime::now());
        }
        Some(StoredUnit {
            plans,
            stats,
            functions,
        })
    }

    /// Write back the plans for `source` produced under `options` and
    /// `link`. The write is atomic (temp file + rename) so concurrent
    /// writers and crashed processes never leave a torn entry behind.
    ///
    /// The entry itself is content-addressed and name-free; `name` is used
    /// only to update the unit's `ref-*` side file and prune the entry the
    /// same unit's *previous* save produced, so a long editing session
    /// still leaves one content entry per (unit, options, link) on disk —
    /// not one per save. When a size cap is configured, least-recently-used
    /// entries are then evicted until the store fits, never including the
    /// entry just written.
    #[allow(clippy::too_many_arguments)]
    pub fn save(
        &self,
        name: &str,
        source: &str,
        options: &OmpDartOptions,
        link: u64,
        plans: &[MappingPlan],
        stats: &AnalysisStats,
        functions: &[FunctionKeySnapshot],
    ) -> std::io::Result<PathBuf> {
        std::fs::create_dir_all(&self.dir)?;
        let path = self.write_entry(source, options, link, plans, stats, functions)?;
        self.repoint_ref(name, options, link, &path);
        self.finish_batch(std::slice::from_ref(&path));
        Ok(path)
    }

    /// Write back many units' plans in one batch — the write-behind flush
    /// of a whole-program analysis. Per-entry atomicity is identical to
    /// [`ArtifactStore::save`] (each entry is its own temp file + rename,
    /// each superseded previous entry its own atomic unlink), but the
    /// directory-wide work — the LRU garbage collection — runs **once** for
    /// the whole batch instead of once per unit, so a 1000-unit cold link
    /// pays one directory scan, not 1000. None of the just-written entries
    /// is ever evicted by the batch's own gc pass.
    pub fn save_many(
        &self,
        options: &OmpDartOptions,
        saves: &[PendingUnitSave],
    ) -> std::io::Result<Vec<PathBuf>> {
        if saves.is_empty() {
            return Ok(Vec::new());
        }
        self.prepare_dir()?;
        let mut paths = Vec::with_capacity(saves.len());
        for save in saves {
            paths.push(self.save_one(options, save)?);
        }
        self.finish_batch(&paths);
        Ok(paths)
    }

    /// Ensure the store directory exists — the once-per-batch prelude of
    /// [`ArtifactStore::save_one`] fan-outs.
    pub(crate) fn prepare_dir(&self) -> std::io::Result<()> {
        std::fs::create_dir_all(&self.dir)
    }

    /// Write one batch member's content entry and re-point its `ref-*`
    /// side file. Per-entry atomicity is identical to
    /// [`ArtifactStore::save`] (own temp file + rename), and entries are
    /// independent of each other, so a whole batch of `save_one` calls may
    /// run concurrently — e.g. fanned out over the session's worker pool
    /// by `AnalysisSession::flush_store_writes`. Callers must run
    /// [`ArtifactStore::prepare_dir`] once first and
    /// [`ArtifactStore::finish_batch`] once afterwards.
    pub(crate) fn save_one(
        &self,
        options: &OmpDartOptions,
        save: &PendingUnitSave,
    ) -> std::io::Result<PathBuf> {
        let path = self.write_entry(
            &save.source,
            options,
            save.link,
            &save.plans,
            &save.stats,
            &save.functions,
        )?;
        self.repoint_ref(&save.name, options, save.link, &path);
        Ok(path)
    }

    /// The directory-wide epilogue of a batch of [`ArtifactStore::save_one`]
    /// calls: one LRU garbage collection for the whole batch (never evicting
    /// the entries just written) when a size cap is configured.
    pub(crate) fn finish_batch(&self, paths: &[PathBuf]) {
        if let Some(max) = self.max_bytes {
            let _ = self.gc_protecting(max, paths);
        }
    }

    /// Atomically materialize one content-addressed entry document.
    fn write_entry(
        &self,
        source: &str,
        options: &OmpDartOptions,
        link: u64,
        plans: &[MappingPlan],
        stats: &AnalysisStats,
        functions: &[FunctionKeySnapshot],
    ) -> std::io::Result<PathBuf> {
        let doc = Json::Object(vec![
            (
                "store_version".into(),
                Json::Int(i64::from(STORE_FORMAT_VERSION)),
            ),
            ("version".into(), Json::Int(i64::from(PLAN_FORMAT_VERSION))),
            (
                "key".into(),
                Json::Object(vec![
                    ("len".into(), Json::Int(source.len() as i64)),
                    (
                        "fnv".into(),
                        Json::Str(format!("{:016x}", source_hash(source))),
                    ),
                    (
                        "fnv2".into(),
                        Json::Str(format!("{:016x}", source_hash2(source))),
                    ),
                ]),
            ),
            (
                "options".into(),
                Json::Str(format!("{:016x}", options.fingerprint())),
            ),
            ("link".into(), Json::Str(format!("{link:016x}"))),
            ("stats".into(), stats.to_json()),
            (
                "functions".into(),
                Json::Array(functions.iter().map(function_key_to_json).collect()),
            ),
            (
                "plans".into(),
                Json::Array(plans.iter().map(MappingPlan::to_json_value).collect()),
            ),
        ]);
        let path = self.entry_path(source, options, link);
        let tmp = path.with_extension(format!("tmp.{}", std::process::id()));
        std::fs::write(&tmp, doc.render_pretty())?;
        std::fs::rename(&tmp, &path)?;
        Ok(path)
    }

    /// Evict least-recently-used entries until the store's total size fits
    /// in `max_bytes`. Returns what the pass did. Entries are removed one
    /// atomic unlink at a time; in-flight temp files are never touched.
    pub fn gc(&self, max_bytes: u64) -> GcReport {
        self.gc_protecting(max_bytes, &[])
    }

    fn gc_protecting(&self, max_bytes: u64, protect: &[PathBuf]) -> GcReport {
        let mut entries: Vec<(PathBuf, SystemTime, u64)> = self
            .cache_files()
            .into_iter()
            .filter_map(|p| {
                let meta = std::fs::metadata(&p).ok()?;
                let mtime = meta.modified().unwrap_or(SystemTime::UNIX_EPOCH);
                Some((p, mtime, meta.len()))
            })
            .collect();
        let mut report = GcReport {
            entries_before: entries.len(),
            ..Default::default()
        };
        let mut total: u64 = entries.iter().map(|(_, _, len)| *len).sum();
        // Oldest first; ties broken by path for determinism.
        entries.sort_by(|a, b| a.1.cmp(&b.1).then_with(|| a.0.cmp(&b.0)));
        for (path, _, len) in entries {
            if total <= max_bytes {
                break;
            }
            if protect.contains(&path) {
                continue;
            }
            if std::fs::remove_file(&path).is_ok() {
                total = total.saturating_sub(len);
                report.entries_evicted += 1;
                report.bytes_freed += len;
            }
        }
        report.bytes_kept = total;
        report
    }

    /// Best-effort removal of the entry superseded by a fresh write.
    ///
    /// Content addressing removed the unit name from the entry key, so
    /// "this file's previous version" is remembered through the unit's
    /// `ref-*` side file: it names the content entry the same
    /// `(name, options, link)` triple last wrote. If that entry differs
    /// from the one just written, it is deleted (if another unit still
    /// shares that content, its next save simply re-materializes it — a
    /// cache miss, never an error) and the ref is repointed.
    fn repoint_ref(&self, name: &str, options: &OmpDartOptions, link: u64, keep: &Path) {
        let keep_file = keep.file_name().and_then(|n| n.to_str()).unwrap_or("");
        let ref_path = self.ref_path(name, options, link);
        if let Ok(previous) = std::fs::read_to_string(&ref_path) {
            let previous = previous.trim();
            if !previous.is_empty()
                && previous != keep_file
                && previous.starts_with("unit-")
                && previous.ends_with(".json")
                && !previous.contains(['/', '\\'])
            {
                let _ = std::fs::remove_file(self.dir.join(previous));
            }
        }
        let _ = std::fs::write(&ref_path, keep_file);
    }
}

// ---------------------------------------------------------------------------
// Function-level entries
// ---------------------------------------------------------------------------

/// Hash over the non-snippet components of a function plan key, used as
/// the third field of a function entry's file name. Purely an index — the
/// in-file key re-verifies every component individually.
fn function_meta_hash(key: &FunctionPlanKey) -> u64 {
    content_hash(
        &format!(
            "{:016x}{:016x}{:016x}{:016x}",
            key.env_hash, key.callees_hash, key.refs_hash, key.options_hash
        ),
        "",
    )
}

impl ArtifactStore {
    /// The on-disk path of a function-level entry: two independent hashes
    /// of the function's source snippet plus one hash over the remaining
    /// key components (environment, callee summaries, refs, options). The
    /// file name only indexes — a hit additionally requires the in-file
    /// key to match, including the stored snippet byte for byte.
    pub(crate) fn function_entry_path(&self, key: &FunctionPlanKey) -> PathBuf {
        self.dir.join(format!(
            "fn-{:016x}-{:016x}-{:016x}.json",
            source_hash(&key.snippet),
            source_hash2(&key.snippet),
            function_meta_hash(key),
        ))
    }

    /// Look up one function's stored planning result under the full plan
    /// key. Same discipline as [`ArtifactStore::load`]: versions, every
    /// hash component, and the full snippet text must match exactly, and a
    /// hit refreshes the entry's mtime so LRU eviction sees it as recently
    /// used. This is what lets two units (or two processes) sharing a
    /// header-defined `static` function warm each other: the key carries
    /// no unit name, only the function's complete planning inputs.
    pub(crate) fn load_function(&self, key: &FunctionPlanKey) -> Option<StoredFunctionPlan> {
        let path = self.function_entry_path(key);
        let text = std::fs::read_to_string(&path).ok()?;
        let doc = Json::parse(&text).ok()?;
        if doc.get("store_version").and_then(Json::as_int) != Some(i64::from(STORE_FORMAT_VERSION))
            || doc.get("version").and_then(Json::as_int) != Some(i64::from(PLAN_FORMAT_VERSION))
        {
            return None;
        }
        let stored_key = doc.get("key")?;
        let matches = stored_key.get("len").and_then(Json::as_int)
            == Some(key.snippet.len() as i64)
            && hex_u64(stored_key.get("env")) == Some(key.env_hash)
            && hex_u64(stored_key.get("callees")) == Some(key.callees_hash)
            && hex_u64(stored_key.get("refs")) == Some(key.refs_hash)
            && hex_u64(stored_key.get("options")) == Some(key.options_hash)
            && doc.get("snippet").and_then(Json::as_str) == Some(key.snippet.as_str());
        if !matches {
            return None;
        }
        let int_u32 = |k: &str| -> Option<u32> {
            doc.get(k)
                .and_then(Json::as_int)
                .and_then(|n| u32::try_from(n).ok())
        };
        let plan = match doc.get("plan") {
            Some(value) => Some(MappingPlan::from_json_value(value).ok()?),
            None => None,
        };
        let entry = StoredFunctionPlan {
            base_id: int_u32("base_id")?,
            base_pos: int_u32("base_pos")?,
            analyzed: doc.get("analyzed").and_then(Json::as_bool)?,
            fallbacks: doc
                .get("fallbacks")
                .and_then(Json::as_int)
                .and_then(|n| u64::try_from(n).ok())?,
            plan,
        };
        if let Ok(file) = std::fs::OpenOptions::new().write(true).open(&path) {
            let _ = file.set_modified(SystemTime::now());
        }
        Some(entry)
    }

    /// Write back one function's planning result under its full plan key.
    /// Atomic (temp file + rename) like the unit entries; no directory
    /// sweep or gc runs here — function entries participate in the LRU
    /// accounting of the next unit-level save's gc pass instead.
    pub(crate) fn save_function(
        &self,
        key: &FunctionPlanKey,
        entry: &StoredFunctionPlan,
    ) -> std::io::Result<PathBuf> {
        std::fs::create_dir_all(&self.dir)?;
        let mut fields = vec![
            (
                "store_version".into(),
                Json::Int(i64::from(STORE_FORMAT_VERSION)),
            ),
            ("version".into(), Json::Int(i64::from(PLAN_FORMAT_VERSION))),
            (
                "key".into(),
                Json::Object(vec![
                    ("len".into(), Json::Int(key.snippet.len() as i64)),
                    ("env".into(), Json::Str(format!("{:016x}", key.env_hash))),
                    (
                        "callees".into(),
                        Json::Str(format!("{:016x}", key.callees_hash)),
                    ),
                    ("refs".into(), Json::Str(format!("{:016x}", key.refs_hash))),
                    (
                        "options".into(),
                        Json::Str(format!("{:016x}", key.options_hash)),
                    ),
                ]),
            ),
            ("snippet".into(), Json::Str(key.snippet.clone())),
            ("base_id".into(), Json::Int(i64::from(entry.base_id))),
            ("base_pos".into(), Json::Int(i64::from(entry.base_pos))),
            ("analyzed".into(), Json::Bool(entry.analyzed)),
            ("fallbacks".into(), Json::Int(entry.fallbacks as i64)),
        ];
        if let Some(plan) = &entry.plan {
            fields.push(("plan".into(), plan.to_json_value()));
        }
        let doc = Json::Object(fields);
        let path = self.function_entry_path(key);
        let tmp = path.with_extension(format!("tmp.{}", std::process::id()));
        std::fs::write(&tmp, doc.render_pretty())?;
        std::fs::rename(&tmp, &path)?;
        Ok(path)
    }
}

fn hex_u64(value: Option<&Json>) -> Option<u64> {
    value
        .and_then(Json::as_str)
        .and_then(|s| u64::from_str_radix(s, 16).ok())
}

fn function_key_to_json(key: &FunctionKeySnapshot) -> Json {
    Json::Object(vec![
        ("function".into(), Json::Str(key.function.to_string())),
        ("base_id".into(), Json::Int(i64::from(key.base_id))),
        ("base_pos".into(), Json::Int(i64::from(key.base_pos))),
        ("snippet_len".into(), Json::Int(i64::from(key.snippet_len))),
        ("env".into(), Json::Str(format!("{:016x}", key.env_hash))),
        (
            "callees".into(),
            Json::Str(format!("{:016x}", key.callees_hash)),
        ),
        ("refs".into(), Json::Str(format!("{:016x}", key.refs_hash))),
        (
            "options".into(),
            Json::Str(format!("{:016x}", key.options_hash)),
        ),
        ("analyzed".into(), Json::Bool(key.analyzed)),
        ("has_plan".into(), Json::Bool(key.has_plan)),
        ("fallbacks".into(), Json::Int(key.fallbacks as i64)),
    ])
}

fn function_key_from_json(value: &Json) -> Option<FunctionKeySnapshot> {
    let int_u32 = |k: &str| -> Option<u32> {
        value
            .get(k)
            .and_then(Json::as_int)
            .and_then(|n| u32::try_from(n).ok())
    };
    Some(FunctionKeySnapshot {
        function: ompdart_frontend::Symbol::intern(value.get("function").and_then(Json::as_str)?),
        base_id: int_u32("base_id")?,
        base_pos: int_u32("base_pos")?,
        snippet_len: int_u32("snippet_len")?,
        env_hash: hex_u64(value.get("env"))?,
        callees_hash: hex_u64(value.get("callees"))?,
        refs_hash: hex_u64(value.get("refs"))?,
        options_hash: hex_u64(value.get("options"))?,
        analyzed: value.get("analyzed").and_then(Json::as_bool)?,
        has_plan: value.get("has_plan").and_then(Json::as_bool)?,
        fallbacks: value
            .get("fallbacks")
            .and_then(Json::as_int)
            .and_then(|n| u64::try_from(n).ok())?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::ir::MapSpec;
    use crate::program::UNLINKED;
    use ompdart_frontend::omp::MapType;

    fn temp_store(tag: &str) -> ArtifactStore {
        let dir =
            std::env::temp_dir().join(format!("ompdart-store-test-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        ArtifactStore::open(dir)
    }

    fn sample_plans() -> Vec<MappingPlan> {
        let mut plan = MappingPlan {
            function: "main".into(),
            ..Default::default()
        };
        plan.maps.push(MapSpec::new("a", MapType::ToFrom));
        vec![plan]
    }

    fn sample_keys() -> Vec<FunctionKeySnapshot> {
        vec![FunctionKeySnapshot {
            function: "main".into(),
            base_id: 3,
            base_pos: 14,
            snippet_len: 25,
            env_hash: 0x1111,
            callees_hash: 0x2222,
            refs_hash: 0x3333,
            options_hash: 0x4444,
            analyzed: true,
            has_plan: true,
            fallbacks: 1,
        }]
    }

    #[test]
    fn round_trip_hits_only_on_exact_key() {
        let store = temp_store("roundtrip");
        let options = OmpDartOptions::default();
        let stats = AnalysisStats {
            map_clauses: 1,
            ..Default::default()
        };
        let plans = sample_plans();
        store
            .save(
                "demo.c",
                "int main() {}",
                &options,
                UNLINKED,
                &plans,
                &stats,
                &sample_keys(),
            )
            .unwrap();
        assert_eq!(store.entry_count(), 1);

        let hit = store.load("int main() {}", &options, UNLINKED).unwrap();
        assert_eq!(hit.plans, plans);
        assert_eq!(hit.stats, stats);
        assert_eq!(hit.functions, sample_keys());

        // Different source, options, or link fingerprint must miss.
        assert!(store.load("int main() { }", &options, UNLINKED).is_none());
        let other_options = OmpDartOptions {
            interprocedural: false,
            ..OmpDartOptions::default()
        };
        assert!(store
            .load("int main() {}", &other_options, UNLINKED)
            .is_none());
        assert!(store.load("int main() {}", &options, 0xdead_beef).is_none());
        let _ = std::fs::remove_dir_all(store.dir());
    }

    /// The key is the *content*, not the name: a renamed or copied file
    /// hits the entry its previous name wrote, and saving identical
    /// content under a second name shares the entry instead of duplicating
    /// it.
    #[test]
    fn content_addressing_shares_entries_across_names() {
        let store = temp_store("content");
        let options = OmpDartOptions::default();
        let stats = AnalysisStats::default();
        let plans = sample_plans();
        store
            .save(
                "a.c",
                "void f() {}",
                &options,
                UNLINKED,
                &plans,
                &stats,
                &[],
            )
            .unwrap();
        // The "renamed file" does not even participate in the lookup —
        // only the content does.
        assert!(store.load("void f() {}", &options, UNLINKED).is_some());

        // A second unit with identical content shares the entry.
        store
            .save(
                "b.c",
                "void f() {}",
                &options,
                UNLINKED,
                &plans,
                &stats,
                &[],
            )
            .unwrap();
        assert_eq!(store.entry_count(), 1, "identical content must share");

        // Editing a.c prunes only its own previous entry (the shared one);
        // b.c's next save re-materializes it — a miss, never corruption.
        store
            .save(
                "a.c",
                "void f() { f(); }",
                &options,
                UNLINKED,
                &plans,
                &stats,
                &[],
            )
            .unwrap();
        assert_eq!(store.entry_count(), 1);
        assert!(store.load("void f() {}", &options, UNLINKED).is_none());
        assert!(store
            .load("void f() { f(); }", &options, UNLINKED)
            .is_some());
        let _ = std::fs::remove_dir_all(store.dir());
    }

    #[test]
    fn corrupt_and_stale_entries_are_rejected() {
        let store = temp_store("corrupt");
        let options = OmpDartOptions::default();
        let stats = AnalysisStats::default();
        let save = || {
            store
                .save(
                    "x.c",
                    "void f() {}",
                    &options,
                    UNLINKED,
                    &sample_plans(),
                    &stats,
                    &[],
                )
                .unwrap()
        };
        save();
        let path = store.entry_path("void f() {}", &options, UNLINKED);

        // Corrupt JSON: miss, not a panic or a bad deserialization.
        std::fs::write(&path, "{ not json").unwrap();
        assert!(store.load("void f() {}", &options, UNLINKED).is_none());

        // A valid document from a future store version: stale, rejected.
        save();
        let bumped = std::fs::read_to_string(&path).unwrap().replacen(
            "\"store_version\": 3",
            "\"store_version\": 99",
            1,
        );
        std::fs::write(&path, bumped).unwrap();
        assert!(store.load("void f() {}", &options, UNLINKED).is_none());

        // An entry whose key was tampered with (collision simulation).
        save();
        let tampered =
            std::fs::read_to_string(&path)
                .unwrap()
                .replacen("\"len\": 11", "\"len\": 12", 1);
        std::fs::write(&path, tampered).unwrap();
        assert!(store.load("void f() {}", &options, UNLINKED).is_none());
        let _ = std::fs::remove_dir_all(store.dir());
    }

    /// Store migration: a v2 `(name, source)`-keyed document — whether it
    /// sits at its legacy path or happens to collide with a v3 path —
    /// degrades cleanly to a miss, and the next save for the same content
    /// overwrites the colliding one. (Legacy files at their own paths are
    /// dead weight that leaves through the LRU `gc`.)
    #[test]
    fn v2_entries_degrade_to_miss() {
        let store = temp_store("migrate");
        let options = OmpDartOptions::default();
        let stats = AnalysisStats::default();
        let plans = sample_plans();
        let source = "void f() {}";

        // A v2-era document at its own four-field path: first field is the
        // *name* hash, which v3 never looks up — unreadable dead weight.
        let v2_path = store.dir().join(format!(
            "unit-{:016x}-{:016x}-{:016x}-{:016x}.json",
            content_hash("old.c", ""),
            content_hash("old.c", source),
            options.fingerprint(),
            UNLINKED,
        ));
        std::fs::create_dir_all(store.dir()).unwrap();
        std::fs::write(&v2_path, "{\"store_version\": 2}").unwrap();
        // ...and a pre-link three-field one.
        let v2_short = store.dir().join(format!(
            "unit-{:016x}-{:016x}-{:016x}.json",
            content_hash("old.c", ""),
            content_hash("old.c", source),
            options.fingerprint(),
        ));
        std::fs::write(&v2_short, "{}").unwrap();
        assert!(store.load(source, &options, UNLINKED).is_none());

        // Even a v2 document sitting exactly at the v3 path (simulated
        // collision) is rejected by its store_version.
        let v3_path = store.entry_path(source, &options, UNLINKED);
        std::fs::write(
            &v3_path,
            format!(
                "{{\"store_version\": 2, \"version\": 1, \"key\": {{\"name\": \"old.c\", \
                 \"len\": {}, \"fnv\": \"x\", \"fnv2\": \"x\"}}}}",
                source.len()
            ),
        )
        .unwrap();
        assert!(
            store.load(source, &options, UNLINKED).is_none(),
            "a v2 document must degrade to a miss, never be trusted"
        );

        // A save of the same content replaces the colliding document.
        store
            .save("old.c", source, &options, UNLINKED, &plans, &stats, &[])
            .unwrap();
        assert!(store.load(source, &options, UNLINKED).is_some());
        let _ = std::fs::remove_dir_all(store.dir());
    }

    /// Different option sets sharing one cache dir coexist (distinct
    /// files), while superseded content of the same (unit, options) pair
    /// is pruned on write-back so disk is bounded by the unit count, not
    /// the save count.
    #[test]
    fn options_variants_coexist_and_superseded_versions_are_pruned() {
        let store = temp_store("prune");
        let stats = AnalysisStats::default();
        let plans = sample_plans();
        let defaults = OmpDartOptions::default();
        let no_ip = OmpDartOptions {
            interprocedural: false,
            ..OmpDartOptions::default()
        };
        let save = |name: &str, src: &str, opts: &OmpDartOptions| {
            store
                .save(name, src, opts, UNLINKED, &plans, &stats, &[])
                .unwrap();
        };
        save("a.c", "v1", &defaults);
        save("a.c", "v1", &no_ip);
        assert_eq!(store.entry_count(), 2, "options variants must coexist");
        assert!(store.load("v1", &defaults, UNLINKED).is_some());
        assert!(store.load("v1", &no_ip, UNLINKED).is_some());

        // New content for the default options: the old default entry is
        // pruned, the other-options entry survives.
        save("a.c", "v2", &defaults);
        assert_eq!(store.entry_count(), 2);
        assert!(store.load("v1", &defaults, UNLINKED).is_none());
        assert!(store.load("v2", &defaults, UNLINKED).is_some());
        assert!(store.load("v1", &no_ip, UNLINKED).is_some());

        // Other units are untouched by pruning.
        save("b.c", "w1", &defaults);
        save("a.c", "v3", &defaults);
        assert_eq!(store.entry_count(), 3);
        assert!(store.load("w1", &defaults, UNLINKED).is_some());
        let _ = std::fs::remove_dir_all(store.dir());
    }

    /// Entries for the same unit under different *link* surroundings
    /// coexist through write-backs (a unit analyzed stand-alone and inside
    /// a program shares one cache dir without thrashing), while superseded
    /// content under the *same* link is still pruned.
    #[test]
    fn link_variants_coexist_and_superseded_content_is_pruned() {
        let store = temp_store("linkprune");
        let options = OmpDartOptions::default();
        let stats = AnalysisStats::default();
        let plans = sample_plans();
        let linked = 0xabcd_u64;

        store
            .save("u.c", "v1", &options, UNLINKED, &plans, &stats, &[])
            .unwrap();
        store
            .save("u.c", "v1", &options, linked, &plans, &stats, &[])
            .unwrap();
        assert_eq!(store.entry_count(), 2, "link variants must coexist");
        assert!(store.load("v1", &options, UNLINKED).is_some());
        assert!(store.load("v1", &options, linked).is_some());

        // New content under one link prunes only that link's old entry.
        store
            .save("u.c", "v2", &options, linked, &plans, &stats, &[])
            .unwrap();
        assert_eq!(store.entry_count(), 2);
        assert!(store.load("v1", &options, UNLINKED).is_some());
        assert!(store.load("v1", &options, linked).is_none());
        assert!(store.load("v2", &options, linked).is_some());
        let _ = std::fs::remove_dir_all(store.dir());
    }

    /// `save_many` batches a whole program's write-backs: per-entry
    /// atomicity and ref-repointing match `save` (superseded content is
    /// pruned), with one gc pass for the batch.
    #[test]
    fn save_many_batches_and_prunes_like_save() {
        let store = temp_store("many");
        let options = OmpDartOptions::default();
        let stats = AnalysisStats::default();
        let plans = sample_plans();
        let batch = |srcs: &[(&str, &str)]| -> Vec<PendingUnitSave> {
            srcs.iter()
                .map(|(name, src)| PendingUnitSave {
                    name: name.to_string(),
                    source: src.to_string(),
                    link: UNLINKED,
                    plans: plans.clone(),
                    stats,
                    functions: Vec::new(),
                })
                .collect()
        };
        let paths = store
            .save_many(
                &options,
                &batch(&[("a.c", "s1"), ("b.c", "s2"), ("c.c", "s3")]),
            )
            .unwrap();
        assert_eq!(paths.len(), 3);
        assert_eq!(store.entry_count(), 3);
        for src in ["s1", "s2", "s3"] {
            assert!(store.load(src, &options, UNLINKED).is_some());
        }

        // A re-flush with one edited unit prunes only its superseded entry.
        store
            .save_many(
                &options,
                &batch(&[("a.c", "s1-edited"), ("b.c", "s2"), ("c.c", "s3")]),
            )
            .unwrap();
        assert_eq!(store.entry_count(), 3);
        assert!(store.load("s1", &options, UNLINKED).is_none());
        assert!(store.load("s1-edited", &options, UNLINKED).is_some());
        assert!(store.load("s2", &options, UNLINKED).is_some());

        // The empty batch is a no-op.
        assert!(store.save_many(&options, &[]).unwrap().is_empty());
        let _ = std::fs::remove_dir_all(store.dir());
    }

    /// The batch flush enforces the size cap once, and never evicts an
    /// entry the batch itself just wrote — only older entries age out.
    #[test]
    fn save_many_gc_protects_the_whole_batch() {
        let dir =
            std::env::temp_dir().join(format!("ompdart-store-test-{}-manycap", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let probe = ArtifactStore::open(&dir);
        let options = OmpDartOptions::default();
        let stats = AnalysisStats::default();
        let plans = sample_plans();
        probe
            .save("probe.c", "p", &options, UNLINKED, &plans, &stats, &[])
            .unwrap();
        let one = probe.total_bytes();
        let _ = probe.gc(0);

        // Room for roughly three entries; one old entry, then a batch of
        // three: the old entry is the only eviction candidate.
        let store = ArtifactStore::open(&dir).with_max_bytes(one * 3 + one / 2);
        store
            .save("old.c", "old", &options, UNLINKED, &plans, &stats, &[])
            .unwrap();
        std::thread::sleep(std::time::Duration::from_millis(20));
        let batch: Vec<PendingUnitSave> = [("n0.c", "n0"), ("n1.c", "n1"), ("n2.c", "n2")]
            .iter()
            .map(|(name, src)| PendingUnitSave {
                name: name.to_string(),
                source: src.to_string(),
                link: UNLINKED,
                plans: plans.clone(),
                stats,
                functions: Vec::new(),
            })
            .collect();
        store.save_many(&options, &batch).unwrap();
        for src in ["n0", "n1", "n2"] {
            assert!(
                store.load(src, &options, UNLINKED).is_some(),
                "batch member {src} must survive its own flush"
            );
        }
        assert!(
            store.load("old", &options, UNLINKED).is_none(),
            "the pre-existing entry must be the one evicted"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    fn sample_fn_key() -> FunctionPlanKey {
        FunctionPlanKey {
            snippet: "static void f(void) { }".into(),
            env_hash: 0xaaaa,
            callees_hash: 0xbbbb,
            refs_hash: 0,
            options_hash: 0xcccc,
        }
    }

    /// Function-level entries round-trip under the full plan key, reject
    /// any differing component (including a tampered snippet), and
    /// participate in the LRU gc accounting.
    #[test]
    fn function_entries_round_trip_and_verify_their_key() {
        let store = temp_store("fnentry");
        let key = sample_fn_key();
        let entry = StoredFunctionPlan {
            base_id: 7,
            base_pos: 120,
            analyzed: true,
            fallbacks: 2,
            plan: Some(sample_plans().remove(0)),
        };
        store.save_function(&key, &entry).unwrap();
        assert_eq!(store.function_entry_count(), 1);
        assert_eq!(
            store.entry_count(),
            0,
            "function entries are not unit entries"
        );
        let hit = store.load_function(&key).expect("exact key must hit");
        assert_eq!(hit.base_id, 7);
        assert_eq!(hit.base_pos, 120);
        assert!(hit.analyzed);
        assert_eq!(hit.fallbacks, 2);
        assert_eq!(hit.plan, entry.plan);

        // Any differing key component must miss.
        let mut other = sample_fn_key();
        other.env_hash ^= 1;
        assert!(store.load_function(&other).is_none());
        let mut other = sample_fn_key();
        other.callees_hash ^= 1;
        assert!(store.load_function(&other).is_none());
        let mut other = sample_fn_key();
        other.snippet.push(' ');
        assert!(store.load_function(&other).is_none());

        // A tampered snippet (index-collision simulation) is rejected by
        // the byte-for-byte verification.
        let path = store.function_entry_path(&key);
        let tampered = std::fs::read_to_string(&path).unwrap().replacen(
            "static void f(void) { }",
            "static void g(void) { }",
            1,
        );
        std::fs::write(&path, tampered).unwrap();
        assert!(store.load_function(&key).is_none());

        // Entries without a plan round-trip too.
        let planless = StoredFunctionPlan {
            base_id: 1,
            base_pos: 0,
            analyzed: false,
            fallbacks: 0,
            plan: None,
        };
        store.save_function(&key, &planless).unwrap();
        let hit = store.load_function(&key).unwrap();
        assert!(hit.plan.is_none());
        assert!(!hit.analyzed);

        // Function entries are part of the gc accounting.
        assert!(store.total_bytes() > 0);
        let report = store.gc(0);
        assert!(report.entries_evicted >= 1);
        assert_eq!(store.function_entry_count(), 0);
        let _ = std::fs::remove_dir_all(store.dir());
    }

    #[test]
    fn missing_directory_degrades_to_miss() {
        let store = ArtifactStore::open("/nonexistent/ompdart-store");
        assert!(store
            .load("int x;", &OmpDartOptions::default(), UNLINKED)
            .is_none());
        assert!(store.is_empty());
        assert_eq!(store.gc(0), GcReport::default());
    }

    /// LRU gc evicts oldest entries first and never the protected (just
    /// written) one; the explicit `gc` entry point reports its work.
    #[test]
    fn gc_evicts_least_recently_used_first() {
        let store = temp_store("gc");
        let options = OmpDartOptions::default();
        let stats = AnalysisStats::default();
        let plans = sample_plans();
        for (name, src) in [("a.c", "s1"), ("b.c", "s2"), ("c.c", "s3")] {
            store
                .save(name, src, &options, UNLINKED, &plans, &stats, &[])
                .unwrap();
            // Distinct mtimes even on coarse-grained filesystems.
            std::thread::sleep(std::time::Duration::from_millis(20));
        }
        assert_eq!(store.entry_count(), 3);
        let total = store.total_bytes();
        let one = total / 3;

        // Touch a.c (the oldest) via a load hit: b.c becomes the LRU.
        assert!(store.load("s1", &options, UNLINKED).is_some());
        std::thread::sleep(std::time::Duration::from_millis(20));

        let report = store.gc(total - one);
        assert_eq!(report.entries_before, 3);
        assert!(report.entries_evicted >= 1);
        assert!(report.bytes_kept <= total - one);
        assert!(
            store.load("s1", &options, UNLINKED).is_some(),
            "recently-used entry must survive"
        );
        assert!(
            store.load("s2", &options, UNLINKED).is_none(),
            "least-recently-used entry must be evicted"
        );

        // gc(0) clears everything.
        let report = store.gc(0);
        assert_eq!(report.bytes_kept, 0);
        assert!(store.is_empty());
        let _ = std::fs::remove_dir_all(store.dir());
    }

    /// A capped store stays under its limit on every save, and the entry
    /// being written is never the one evicted.
    #[test]
    fn size_cap_is_enforced_on_save() {
        let dir =
            std::env::temp_dir().join(format!("ompdart-store-test-{}-cap", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let probe = ArtifactStore::open(&dir);
        let options = OmpDartOptions::default();
        let stats = AnalysisStats::default();
        let plans = sample_plans();
        probe
            .save("probe.c", "p", &options, UNLINKED, &plans, &stats, &[])
            .unwrap();
        let one = probe.total_bytes();
        let _ = probe.gc(0);

        // Room for roughly two entries.
        let store = ArtifactStore::open(&dir).with_max_bytes(one * 2 + one / 2);
        for (i, name) in ["u0.c", "u1.c", "u2.c", "u3.c"].iter().enumerate() {
            store
                .save(
                    name,
                    &format!("src{i}"),
                    &options,
                    UNLINKED,
                    &plans,
                    &stats,
                    &[],
                )
                .unwrap();
            assert!(
                store.total_bytes() <= one * 2 + one / 2,
                "cap exceeded after saving {name}"
            );
            // The freshly written entry always survives its own save.
            assert!(store.load(&format!("src{i}"), &options, UNLINKED).is_some());
            std::thread::sleep(std::time::Duration::from_millis(20));
        }
        assert!(store.entry_count() <= 2);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
