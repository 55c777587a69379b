//! The one stats vocabulary: every counter the engine keeps is one row of
//! one table.
//!
//! `stats_table!` turns a list of rows — a name and its doc comment — into
//! the plain `Copy` snapshot struct with one `pub` field per row,
//! `NAMES`/`values()` in row order, `+` and `-` (a request's movement is
//! `after - before` of two snapshots), one `to_json`/`from_json` pair and one
//! `Display`. A *counted* table also gets its atomic twin and the row enum
//! its increment sites name. Adding, renaming or deleting a counter is one row
//! plus its increment site: the CLI, the daemon's wire format and the store
//! cannot disagree about which counters exist, because none of them lists
//! any.
//!
//! Records that mix counts, flags and durations
//! ([`crate::program::DriverProfile`]) list their fields once as [`Value`]
//! cells and render from that list.

use crate::plan::json::Json;
use crate::program::DriverProfile;
use std::fmt;
use std::sync::atomic::AtomicU64;
use std::time::Duration;

/// Generate a stats table from its rows. See the module docs.
macro_rules! stats_table {
    (
        $(#[$meta:meta])*
        pub struct $name:ident: $ty:ty {
            $( $(#[$doc:meta])* $row:ident, )+
        }
    ) => {
        $(#[$meta])*
        #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
        pub struct $name {
            $( $(#[$doc])* pub $row: $ty, )+
        }

        #[allow(clippy::unnecessary_cast)]
        impl $name {
            /// Row names, in table order — the key order of
            /// [`Self::to_json`] and the column order of `Display`.
            pub const NAMES: [&'static str; [$(stringify!($row)),+].len()] =
                [$(stringify!($row)),+];

            /// Row values, in table order.
            pub fn values(&self) -> [u64; Self::NAMES.len()] {
                [$(self.$row as u64),+]
            }

            /// The inverse of [`Self::values`].
            pub fn from_values(values: [u64; Self::NAMES.len()]) -> Self {
                let [$($row),+] = values;
                $name { $($row: $row as $ty),+ }
            }

            /// One JSON object, one integer per row, in table order.
            pub fn to_json(&self) -> $crate::plan::json::Json {
                $crate::stats::rows_to_json(&Self::NAMES, &self.values())
            }

            /// Parse an object written by [`Self::to_json`]. Every row is
            /// required and must be a non-negative integer; the error names
            /// the offending row.
            pub fn from_json(value: &$crate::plan::json::Json) -> Result<Self, String> {
                $crate::stats::rows_from_json(&Self::NAMES, value).map(Self::from_values)
            }
        }

        impl std::ops::Add for $name {
            type Output = $name;
            fn add(self, other: $name) -> $name {
                $name { $($row: self.$row + other.$row),+ }
            }
        }

        /// `after - before`: the movement between two snapshots of one
        /// monotonic table.
        impl std::ops::Sub for $name {
            type Output = $name;
            fn sub(self, before: $name) -> $name {
                $name { $($row: self.$row - before.$row),+ }
            }
        }

        /// `name=value` per row, space separated, in table order.
        impl std::fmt::Display for $name {
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                $crate::stats::fmt_rows(f, &Self::NAMES, &self.values())
            }
        }
    };
    (
        $(#[$meta:meta])*
        pub struct $name:ident: u64, counted by $counter:ident in $atomic:ident {
            $( $(#[$doc:meta])* $row:ident, )+
        }
    ) => {
        $crate::stats::stats_table! {
            $(#[$meta])*
            pub struct $name: u64 { $( $(#[$doc])* $row, )+ }
        }

        /// One row of the table, named at its increment site.
        #[allow(non_camel_case_types)]
        #[derive(Clone, Copy, Debug, PartialEq, Eq)]
        pub enum $counter {
            $( $(#[$doc])* $row, )+
        }

        /// The atomic twin of the table: adds from any thread,
        /// [`Self::snapshot`] back to the plain struct. The counters publish
        /// no other data, so `Relaxed` is enough.
        #[derive(Debug, Default)]
        pub struct $atomic([std::sync::atomic::AtomicU64; $name::NAMES.len()]);

        impl $atomic {
            /// Add `n` to one row.
            pub fn add(&self, row: $counter, n: u64) {
                self.0[row as usize].fetch_add(n, std::sync::atomic::Ordering::Relaxed);
            }

            /// The current value of every row.
            pub fn snapshot(&self) -> $name {
                $name::from_values(std::array::from_fn(|i| {
                    self.0[i].load(std::sync::atomic::Ordering::Relaxed)
                }))
            }
        }
    };
    (
        $(#[$meta:meta])*
        pub struct $name:ident: u64, counted by $counter:ident in $atomic:ident,
        flattened into $target:ident {
            $( $(#[$doc:meta])* $row:ident, )+
        }
    ) => {
        $crate::stats::stats_table! {
            $(#[$meta])*
            pub struct $name: u64, counted by $counter in $atomic { $( $(#[$doc])* $row, )+ }
        }

        impl $target {
            /// Store every row in this record's field of the same name.
            pub(crate) fn set_rows(&mut self, rows: $name) {
                $( self.$row = rows.$row; )+
            }
        }
    };
}
pub(crate) use stats_table;

pub(crate) fn rows_to_json(names: &[&str], values: &[u64]) -> Json {
    let cell = |(name, value): (&&str, &u64)| (name.to_string(), Json::Int(*value as i64));
    Json::Object(names.iter().zip(values).map(cell).collect())
}

pub(crate) fn rows_from_json<const N: usize>(
    names: &[&str; N],
    value: &Json,
) -> Result<[u64; N], String> {
    let mut values = [0u64; N];
    for (slot, name) in values.iter_mut().zip(names) {
        let n = value
            .get(name)
            .and_then(Json::as_int)
            .ok_or_else(|| format!("missing integer field `{name}`"))?;
        *slot = u64::try_from(n).map_err(|_| format!("`{name}` must be non-negative"))?;
    }
    Ok(values)
}

pub(crate) fn fmt_rows(f: &mut fmt::Formatter<'_>, names: &[&str], values: &[u64]) -> fmt::Result {
    for (i, (name, value)) in names.iter().zip(values).enumerate() {
        if i > 0 {
            f.write_str(" ")?;
        }
        write!(f, "{name}={value}")?;
    }
    Ok(())
}

stats_table! {
    /// Cache hit/miss counters of an
    /// [`AnalysisSession`](crate::pipeline::AnalysisSession).
    pub struct CacheStats: u64, counted by Counter in AtomicCacheStats {
        /// Unit bodies the session built: units that ran the frontend
        /// (parse → graphs → accesses → seeds).
        parse_misses,
        /// Unit analyses `analyze_linked` served entirely from the unit
        /// table: units of a program round, one unit or many, that missed
        /// its fast paths. A warm repeat of a round, a warm `analyze`
        /// included, counts in `fast_path_hits` instead.
        analysis_hits,
        /// Unit analyses that ran planning (or hit the store).
        analysis_misses,
        /// Always 0: a unit is planned whole, and no plan finer than a
        /// unit's is cached. Kept because the benchmark harness
        /// (`ledger/src/layers.rs`) still reads the row.
        function_plan_hits,
        /// Functions that were planned: every function of every unit that
        /// missed the unit table and the store.
        function_plan_misses,
        /// Functions the incremental link fixed point re-derived from
        /// their seeds (the reverse call-graph cone of the edited
        /// functions). Cold links — where no previous converged state
        /// exists — add nothing here; an unchanged relink adds zero.
        relink_reseeded_functions,
        /// Units whose imports fingerprint a relink recomputed: the units
        /// that changed plus the units naming a function whose projected
        /// summary moved (every unit when the device names gained or lost
        /// a member). A cold link computes every unit's; an unchanged
        /// relink adds zero.
        relink_touched_units,
        /// Unit analyses whose plans were served from the persistent
        /// artifact store (when a `cache_dir` is configured).
        store_hits,
        /// Unit analyses that ran the planner while a store was configured
        /// (each one is written back to the store afterwards).
        store_misses,
        /// `summarize` calls that restored a unit from the store's interface
        /// record for its content: nothing of the unit was parsed.
        interface_store_hits,
        /// `summarize` calls that found no interface record while a store
        /// was configured, and parsed the unit (which queues one, unless
        /// the parse produced a diagnostic).
        interface_store_misses,
        /// `summarize` calls served from the unit table.
        summarize_hits,
        /// `summarize` calls that ran the parse→summaries stages.
        summarize_misses,
        /// Units of a program round served by the identity fast path:
        /// their summarized artifact (same `Arc`) and imports fingerprint
        /// matched an analysis already resident — the whole previous
        /// program's, or this unit's slot of the unit table — so the prior
        /// linked analysis was returned without content hashing, context
        /// assembly or re-planning.
        fast_path_hits,
    }
}

stats_table! {
    /// Process-wide, monotonic counters of the worker pool
    /// ([`crate::pool`]) and the shard-map locks ([`crate::shard`]). A
    /// [`DriverProfile`] carries the movement of every row over one call.
    pub struct ProcessStats: u64, counted by ProcessCounter in AtomicProcessStats,
    flattened into DriverProfile {
        /// Jobs executed on the worker pool.
        pool_jobs,
        /// Indices processed by those pool jobs.
        pool_items,
        /// Nested fan-outs that ran inline on a pool task's thread.
        pool_inline_jobs,
        /// Jobs that found the pool busy and ran on the submitting thread.
        pool_fallback_jobs,
        /// Nanoseconds submitters spent blocked waiting for the last
        /// worker to finish after their own claim loop ran dry (pool tail
        /// latency).
        pool_wait_ns,
        /// Nanoseconds blocked on shard-cache locks.
        lock_wait_ns,
        /// Shard-cache lock acquisitions that found the lock held.
        lock_contentions,
    }
}

/// The process-wide counters behind [`ProcessStats`].
pub(crate) static PROCESS: AtomicProcessStats =
    AtomicProcessStats([const { AtomicU64::new(0) }; ProcessStats::NAMES.len()]);

/// One cell of a record that mixes counts, flags and durations: what a
/// renderer needs to know to print it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Value {
    Count(u64),
    Flag(bool),
    Time(Duration),
}

#[cfg(test)]
mod tests {
    use super::*;

    /// N threads × M adds per row snapshot to exactly N·M, and the delta of
    /// two snapshots is the per-row difference.
    #[test]
    fn concurrent_adds_snapshot_exactly_and_deltas_subtract_per_row() {
        const THREADS: u64 = 8;
        const ADDS: u64 = 500;
        let counters = AtomicCacheStats::default();
        counters.add(Counter::store_hits, 7);
        let before = counters.snapshot();
        let start = std::sync::Barrier::new(THREADS as usize);
        std::thread::scope(|scope| {
            for _ in 0..THREADS {
                scope.spawn(|| {
                    start.wait();
                    for _ in 0..ADDS {
                        counters.add(Counter::parse_misses, 1);
                        counters.add(Counter::fast_path_hits, 2);
                    }
                });
            }
        });
        let after = counters.snapshot();
        assert_eq!(after.parse_misses, THREADS * ADDS);
        assert_eq!(after.fast_path_hits, 2 * THREADS * ADDS);
        assert_eq!(after.store_hits, 7);

        let moved = after - before;
        let per_row = std::array::from_fn(|i| after.values()[i] - before.values()[i]);
        assert_eq!(moved.values(), per_row);
        assert_eq!(
            moved.store_hits, 0,
            "a row that did not move subtracts to zero"
        );
        assert_eq!(moved + before, after);

        // Names, values, JSON keys and `Display` columns share one order.
        assert_eq!(CacheStats::NAMES.len(), after.values().len());
        assert_eq!(CacheStats::from_json(&after.to_json()), Ok(after));
        let shown = after.to_string();
        assert!(
            shown.starts_with("parse_misses=4000 analysis_hits=0 "),
            "{shown}"
        );
        assert!(shown.ends_with(" fast_path_hits=8000"), "{shown}");
    }
}
