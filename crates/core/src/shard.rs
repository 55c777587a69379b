//! A sharded concurrent map for the session's unit table.
//!
//! The [`crate::pipeline::AnalysisSession`] unit table used to be one global
//! `Mutex<HashMap>`: eight workers probing it serialized on a single lock
//! per lookup. [`ShardMap`] splits the key space over [`SHARDS`] independent
//! `Mutex<HashMap>` shards — the key's hash selects the shard, and a caller
//! contends only with traffic that hashes to the same shard. Every access
//! of the table changes it (a hit moves a version to the front of its
//! most-recently-used list), so a shard has one lock mode. std-only by
//! design: a fixed-width shard array, not a lock-free map, because the
//! critical sections are short.
//!
//! Lock contention is *measured*, not guessed: every acquisition first
//! tries the non-blocking path, and only a failed try falls back to the
//! blocking call with a timer around it. The totals are the lock rows of
//! the process-wide [`crate::stats::ProcessStats`] table.

use crate::stats::{ProcessCounter, PROCESS};
use std::borrow::Borrow;
use std::collections::HashMap;
use std::hash::{BuildHasher, Hash, RandomState};
use std::sync::{Mutex, MutexGuard, TryLockError};
use std::time::Instant;

/// Number of shards. A small power of two: enough to make cross-shard
/// collisions rare at the session's worker counts (≤ 8).
pub const SHARDS: usize = 16;

/// Lock `shard`, counting the acquisition in the process's lock rows if
/// the lock was held: the contention before blocking, the wait after.
fn lock_timed<T>(shard: &Mutex<T>) -> MutexGuard<'_, T> {
    match shard.try_lock() {
        Ok(guard) => guard,
        Err(TryLockError::Poisoned(p)) => p.into_inner(),
        Err(TryLockError::WouldBlock) => {
            PROCESS.add(ProcessCounter::lock_contentions, 1);
            let start = Instant::now();
            let guard = shard.lock().unwrap_or_else(|p| p.into_inner());
            PROCESS.add(
                ProcessCounter::lock_wait_ns,
                start.elapsed().as_nanos() as u64,
            );
            guard
        }
    }
}

/// An N-way sharded `HashMap` behind per-shard `Mutex`es. See the module
/// docs for the design rationale.
#[derive(Debug)]
pub struct ShardMap<K, V> {
    shards: [Mutex<HashMap<K, V>>; SHARDS],
    hasher: RandomState,
}

impl<K, V> Default for ShardMap<K, V> {
    fn default() -> Self {
        ShardMap::new()
    }
}

impl<K, V> ShardMap<K, V> {
    /// An empty map.
    pub fn new() -> ShardMap<K, V> {
        ShardMap {
            shards: std::array::from_fn(|_| Mutex::new(HashMap::new())),
            hasher: RandomState::new(),
        }
    }
}

impl<K: Hash + Eq, V> ShardMap<K, V> {
    /// The shard of `key`. A borrowed form hashes like the key it borrows
    /// from (the `Borrow` contract), so `&str` finds a `String` key's shard.
    fn shard<Q: Hash + ?Sized>(&self, key: &Q) -> &Mutex<HashMap<K, V>> {
        let h = self.hasher.hash_one(key) as usize;
        &self.shards[h % SHARDS]
    }

    /// Apply `f` to the value under `key`, if there is one, while holding
    /// the shard's lock.
    pub fn modify<Q, R>(&self, key: &Q, f: impl FnOnce(&mut V) -> R) -> Option<R>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        lock_timed(self.shard(key)).get_mut(key).map(f)
    }

    /// Apply `f` to the (default-created if absent) value under `key`
    /// while holding the shard's lock. This is the first-writer-wins
    /// primitive of the unit table: probe the slot again under the lock,
    /// then insert.
    pub fn update<R>(&self, key: K, f: impl FnOnce(&mut V) -> R) -> R
    where
        V: Default,
    {
        let mut guard = lock_timed(self.shard(&key));
        f(guard.entry(key).or_default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::mpsc;
    use std::time::Duration;

    /// Eight threads hammering one key must serialize their bucket pushes
    /// without losing a single update and without aliasing: the bucket ends
    /// up with exactly one entry per distinct value, first writer winning
    /// per value.
    #[test]
    fn eight_threads_hammer_one_key() {
        let map: ShardMap<u64, Vec<usize>> = ShardMap::new();
        let inserted = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for t in 0..8 {
                let map = &map;
                let inserted = &inserted;
                scope.spawn(move || {
                    for round in 0..200 {
                        let value = t * 1000 + round;
                        map.update(42, |bucket| {
                            if !bucket.contains(&value) {
                                bucket.push(value);
                                inserted.fetch_add(1, Ordering::Relaxed);
                            }
                        });
                        // The bucket must always contain what this thread
                        // already pushed.
                        let seen = map.modify(&42, |b| b.contains(&value));
                        assert_eq!(seen, Some(true), "thread {t} lost {value}");
                    }
                });
            }
        });
        assert_eq!(inserted.load(Ordering::Relaxed), 8 * 200);
        let len = map.modify(&42, |b| b.len());
        assert_eq!(len, Some(8 * 200), "no update may be lost, none duplicated");
    }

    /// A `String`-keyed map answers `&str` probes from the key's own
    /// shard, and `modify` touches existing keys only.
    #[test]
    fn borrowed_keys_find_their_shard_and_modify_never_inserts() {
        let map: ShardMap<String, u64> = ShardMap::new();
        for k in 0..1000u64 {
            map.update(format!("unit_{k}.c"), |v| *v = k);
        }
        for k in 0..1000u64 {
            let name = format!("unit_{k}.c");
            assert_eq!(
                map.modify(name.as_str(), |v| std::mem::replace(v, 0)),
                Some(k)
            );
        }
        assert_eq!(map.modify("absent.c", |v| *v), None);
        let entries = |s: &Mutex<HashMap<String, u64>>| s.lock().unwrap().len();
        assert_eq!(map.shards.iter().map(entries).sum::<usize>(), 1000);
    }

    #[test]
    fn distinct_keys_spread_over_shards() {
        let map: ShardMap<u64, u64> = ShardMap::new();
        for k in 0..256u64 {
            map.update(k, |v| *v = k);
        }
        let populated = map
            .shards
            .iter()
            .filter(|s| !s.lock().unwrap().is_empty())
            .count();
        assert!(
            populated > 1,
            "256 keys must not all hash to a single shard"
        );
    }

    /// An update that finds its shard locked is counted, then waits: the
    /// holder keeps the lock until a contention is counted (or a deadline,
    /// so a lost count fails instead of hanging), so the second update
    /// cannot get the lock without blocking.
    #[test]
    fn a_blocked_acquisition_is_counted() {
        let map: ShardMap<u64, u64> = ShardMap::new();
        let contentions = || PROCESS.snapshot().lock_contentions;
        let before = contentions();
        let (held, wait) = mpsc::channel();
        std::thread::scope(|scope| {
            let map = &map;
            scope.spawn(move || {
                map.update(7, |v| {
                    held.send(()).expect("the test waits for the lock");
                    let deadline = Instant::now() + Duration::from_secs(10);
                    while contentions() == before && Instant::now() < deadline {
                        std::thread::yield_now();
                    }
                    *v += 1;
                })
            });
            wait.recv().expect("the holder took the lock");
            map.update(7, |v| *v += 1);
        });
        assert_eq!(map.modify(&7, |v| *v), Some(2));
        assert!(contentions() > before);
    }
}
