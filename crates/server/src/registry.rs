//! The [`ProgramRegistry`]: one warm analysis session per program key.
//!
//! An [`ompdart_core::ProgramDriver`] keeps exactly one incremental
//! [`ompdart_core::LinkState`], so interleaving requests for *different*
//! programs through a single driver would cold-relink on every switch and
//! the cache counters of concurrent requests would bleed into each other.
//! The registry fixes both: every program key owns its own
//! [`ompdart_core::Ompdart`] tool (own session and drivers → own unit table,
//! link state, function caches, and counters) and its own per-program
//! subdirectory of the persistent store, so clients editing program A never
//! evict or chill program B. A session's unit table keeps a constant number
//! of versions per unit name, so a program's resident memory follows its
//! unit count, not its request count; and the daemon drops the parse of
//! every unit an answer held once the connection has answered again
//! ([`ompdart_core::release_bodies`]), so a resident unit holds what the
//! store keeps of it — name, source, interface — beside its analyses.
//! Requests for one program serialize on the session's request lock (the
//! daemon runs each request on its connection's thread and relies on this
//! lock alone), which is also what makes a request's stats — `after -
//! before` of two [`CacheStats`] snapshots — sound: no concurrent request
//! can move this program's counters between the two reads.

use ompdart_core::{
    CacheStats, DriverProfile, GcReport, Ompdart, ProgramAnalysis, ProgramError, StageError,
    UnitAnalysis,
};
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::{Arc, Mutex, MutexGuard};

/// Session knobs shared by every program the registry creates, mirroring
/// the CLI's session flags.
#[derive(Clone, Debug, Default)]
pub struct RegistryConfig {
    /// Root of the persistent store; each program gets its own
    /// subdirectory (`<cache_dir>/<sanitized key>`).
    pub cache_dir: Option<PathBuf>,
    /// LRU size cap applied to each program's store subdirectory.
    pub cache_max_bytes: Option<u64>,
    /// Pessimistic treatment of unknown extern callees' global effects.
    pub pessimistic_globals: bool,
    /// The width each program's analysis — summarize, link and plan — fans
    /// out over (`--workers`; 0 = auto). Runs are capped at the pool's
    /// width ([`ompdart_core::pool::effective_width`]).
    pub parallelism: usize,
}

/// Lock `mutex`, recovering the guard if a holder panicked: every value
/// behind the registry's locks is valid at every step of its updates.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// One program's warm state: its own tool (session, caches, the program's
/// driver and link state, and the tool's one-unit driver, which `explain`
/// requests run on) plus the request lock that serializes analyses against
/// this program.
#[derive(Debug)]
pub struct ProgramSession {
    key: String,
    tool: Ompdart,
    requests: Mutex<()>,
    /// Driver profile of the most recent `analyze` request, surfaced
    /// through the daemon's `stats` verb.
    last_profile: Mutex<Option<DriverProfile>>,
    /// Driver profile of the most recent *edit* round (an `analyze`
    /// request that rode previously recorded link state), so `stats` can
    /// report one-edit phase timings separately from the latest round.
    last_edit_profile: Mutex<Option<DriverProfile>>,
}

impl ProgramSession {
    /// The program key this session serves.
    pub fn key(&self) -> &str {
        &self.key
    }

    /// The underlying tool (test access; analyses should go through
    /// [`ProgramSession::analyze_program`] / [`ProgramSession::explained`]
    /// so stats snapshots stay sound).
    pub fn tool(&self) -> &Ompdart {
        &self.tool
    }

    /// Analysis of the program the request's units are — one unit or many —
    /// on the program's driver, plus the request's own counter movement.
    pub fn analyze_program(
        &self,
        units: &[(String, String)],
    ) -> Result<(ProgramAnalysis, CacheStats), ProgramError> {
        let _guard = lock(&self.requests);
        let before = self.tool.session().cache_stats();
        let (analysis, profile) = self.tool.analyze_program_profiled(units)?;
        let after = self.tool.session().cache_stats();
        *lock(&self.last_profile) = Some(profile);
        if profile.edit_path {
            *lock(&self.last_edit_profile) = Some(profile);
        }
        Ok((analysis, after - before))
    }

    /// The driver profile of the most recent `analyze` request, if any.
    pub fn last_profile(&self) -> Option<DriverProfile> {
        *lock(&self.last_profile)
    }

    /// The driver profile of the most recent edit round, if any.
    pub fn last_edit_profile(&self) -> Option<DriverProfile> {
        *lock(&self.last_edit_profile)
    }

    /// The analysis an `explain` of a unit reads: the unit as a one-unit
    /// program ([`Ompdart::analyze`]), whose driver is not the program's, so
    /// the program's link state stays as its last round left it.
    pub fn explained(&self, name: &str, source: &str) -> Result<Arc<UnitAnalysis>, StageError> {
        let _guard = lock(&self.requests);
        self.tool.analyze(name, source)
    }

    /// Cumulative counters for this program's session.
    pub fn stats(&self) -> CacheStats {
        self.tool.session().cache_stats()
    }

    /// Flush the session's write-behind store buffer. Returns the number
    /// of entries written.
    pub fn flush(&self) -> usize {
        self.tool.session().flush_store_writes()
    }

    /// Evict this program's persistent store down to `max_bytes`.
    pub fn gc(&self, max_bytes: u64) -> Option<GcReport> {
        let _guard = lock(&self.requests);
        self.flush();
        self.tool
            .session()
            .artifact_store()
            .map(|store| store.gc(max_bytes))
    }
}

/// Program key → warm [`ProgramSession`], created on first use.
#[derive(Debug)]
pub struct ProgramRegistry {
    config: RegistryConfig,
    programs: Mutex<HashMap<String, Arc<ProgramSession>>>,
}

impl ProgramRegistry {
    pub fn new(config: RegistryConfig) -> ProgramRegistry {
        ProgramRegistry {
            config,
            programs: Mutex::new(HashMap::new()),
        }
    }

    /// The shared session config.
    pub fn config(&self) -> &RegistryConfig {
        &self.config
    }

    /// The session for `key`, creating (and warming from its store
    /// subdirectory, if any) on first use.
    pub fn program(&self, key: &str) -> Arc<ProgramSession> {
        let mut programs = lock(&self.programs);
        if let Some(session) = programs.get(key) {
            return Arc::clone(session);
        }
        let mut builder = Ompdart::builder().pessimistic_globals(self.config.pessimistic_globals);
        if self.config.parallelism > 0 {
            builder = builder.parallelism(self.config.parallelism);
        }
        if let Some(root) = &self.config.cache_dir {
            builder = builder.cache_dir(root.join(sanitize_key(key)));
            if let Some(max) = self.config.cache_max_bytes {
                builder = builder.cache_max_bytes(max);
            }
        }
        let session = Arc::new(ProgramSession {
            key: key.to_string(),
            tool: builder.build(),
            requests: Mutex::new(()),
            last_profile: Mutex::new(None),
            last_edit_profile: Mutex::new(None),
        });
        programs.insert(key.to_string(), Arc::clone(&session));
        session
    }

    /// The live session for `key`, if any; creates nothing.
    pub(crate) fn get(&self, key: &str) -> Option<Arc<ProgramSession>> {
        lock(&self.programs).get(key).cloned()
    }

    /// Forget the session for `key`: the next [`ProgramRegistry::program`]
    /// call builds a fresh one (warm from its store subdirectory, if any).
    pub(crate) fn remove(&self, key: &str) -> Option<Arc<ProgramSession>> {
        lock(&self.programs).remove(key)
    }

    /// Keys of every live program, sorted.
    pub fn keys(&self) -> Vec<String> {
        let programs = lock(&self.programs);
        let mut keys: Vec<String> = programs.keys().cloned().collect();
        keys.sort();
        keys
    }

    /// Snapshot of every live session (for stats / shutdown flushing).
    pub fn sessions(&self) -> Vec<Arc<ProgramSession>> {
        let programs = lock(&self.programs);
        let mut sessions: Vec<Arc<ProgramSession>> = programs.values().cloned().collect();
        sessions.sort_by(|a, b| a.key.cmp(&b.key));
        sessions
    }

    /// Flush every session's write-behind store buffer; returns the total
    /// entries written. This is the shutdown path's durability guarantee.
    pub fn flush_all(&self) -> usize {
        self.sessions().iter().map(|s| s.flush()).sum()
    }

    /// Run the store GC on every live program. Returns per-program
    /// reports, sorted by key.
    pub fn gc_all(&self, max_bytes: u64) -> Vec<(String, GcReport)> {
        self.sessions()
            .iter()
            .filter_map(|s| s.gc(max_bytes).map(|report| (s.key.clone(), report)))
            .collect()
    }
}

/// Filesystem-safe form of a program key for the per-program store
/// subdirectory. Distinct keys that sanitize identically share a directory
/// — harmless, because store entries are verified by full content keys.
fn sanitize_key(key: &str) -> String {
    let mut out: String = key
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '-' || c == '_' || c == '.' {
                c
            } else {
                '_'
            }
        })
        .collect();
    if out.is_empty() {
        out.push_str("default");
    }
    out.truncate(64);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use ompdart_core::UnitServe;

    fn one(name: &str, source: &str) -> [(String, String); 1] {
        [(name.to_string(), source.to_string())]
    }

    const UNIT_A: &str = r#"
#define N 64
double a[N];
int main() {
  for (int it = 0; it < 4; it++) {
    #pragma omp target teams distribute parallel for
    for (int i = 0; i < N; i++) a[i] += 1.0;
  }
  printf("%f\n", a[0]);
  return 0;
}
"#;

    const UNIT_B: &str = r#"
#define M 32
double b[M];
int main() {
  for (int it = 0; it < 2; it++) {
    #pragma omp target teams distribute parallel for
    for (int j = 0; j < M; j++) b[j] *= 2.0;
  }
  printf("%f\n", b[0]);
  return 0;
}
"#;

    #[test]
    fn sanitize_produces_fs_safe_keys() {
        assert_eq!(sanitize_key("lulesh"), "lulesh");
        assert_eq!(sanitize_key("../evil key"), ".._evil_key");
        assert_eq!(sanitize_key(""), "default");
    }

    #[test]
    fn programs_get_distinct_sessions_and_isolated_counters() {
        let registry = ProgramRegistry::new(RegistryConfig::default());
        let a = registry.program("alpha");
        let b = registry.program("beta");
        assert!(!Arc::ptr_eq(&a, &b));
        assert!(Arc::ptr_eq(&a, &registry.program("alpha")));

        let (first, stats_a) = a.analyze_program(&one("a.c", UNIT_A)).unwrap();
        assert!(stats_a.function_plan_misses > 0);
        assert_eq!(stats_a.analysis_misses, 1);
        // Program beta's counters are untouched by alpha's request.
        assert_eq!(b.stats(), CacheStats::default());

        // A repeat of the same content is served from alpha's cache — the
        // same artifacts — and the per-request delta proves it.
        let (again, stats_a2) = a.analyze_program(&one("a.c", UNIT_A)).unwrap();
        assert_eq!(again.served, [UnitServe::Cached]);
        assert!(Arc::ptr_eq(&first.units[0], &again.units[0]));
        assert_eq!(stats_a2.function_plan_misses, 0);
        assert_eq!(stats_a2.fast_path_hits, 1);
        assert_eq!(stats_a2.analysis_misses, 0);

        let (_, stats_b) = b.analyze_program(&one("b.c", UNIT_B)).unwrap();
        assert!(stats_b.function_plan_misses > 0);
        assert_eq!(registry.keys(), vec!["alpha".to_string(), "beta".into()]);
    }

    #[test]
    fn per_program_store_subdirs_do_not_collide() {
        let root = std::env::temp_dir().join(format!("ompdart-registry-{}", std::process::id()));
        std::fs::remove_dir_all(&root).ok();
        let registry = ProgramRegistry::new(RegistryConfig {
            cache_dir: Some(root.clone()),
            ..RegistryConfig::default()
        });
        (registry.program("alpha"))
            .analyze_program(&one("a.c", UNIT_A))
            .unwrap();
        (registry.program("beta"))
            .analyze_program(&one("b.c", UNIT_B))
            .unwrap();
        // Every round flushes its own write-back.
        assert_eq!(registry.flush_all(), 0);
        assert!(root.join("alpha").is_dir());
        assert!(root.join("beta").is_dir());

        // A fresh registry over the same root starts warm from the store.
        let fresh = ProgramRegistry::new(RegistryConfig {
            cache_dir: Some(root.clone()),
            ..RegistryConfig::default()
        });
        let alpha = fresh.program("alpha");
        let (warm, stats) = alpha.analyze_program(&one("a.c", UNIT_A)).unwrap();
        assert_eq!(warm.served, [UnitServe::Store]);
        assert_eq!(stats.store_hits, 1);
        assert_eq!(stats.function_plan_misses, 0);
        std::fs::remove_dir_all(&root).ok();
    }
}
