//! A sharded concurrent map for the session's hot caches.
//!
//! Every [`crate::pipeline::AnalysisSession`] cache used to be one global
//! `Mutex<HashMap>`: eight workers probing the parse/unit/plan caches
//! serialized on a single lock per lookup. [`ShardMap`] splits the key
//! space over [`SHARDS`] independent `RwLock<HashMap>` shards — the key's
//! hash selects the shard, concurrent readers of one shard share the read
//! lock, and writers contend only with traffic that hashes to the same
//! shard. std-only by design (no new dependencies): this is a fixed-width
//! shard array, not a lock-free map, because the session's access pattern
//! is read-mostly with short critical sections.
//!
//! Lock contention is *measured*, not guessed: every acquisition first
//! tries the non-blocking path, and only a failed try falls back to the
//! blocking call with a timer around it. The totals are the lock rows of
//! the process-wide [`crate::stats::ProcessStats`] table.

use crate::stats::{ProcessCounter, PROCESS};
use std::collections::HashMap;
use std::hash::{BuildHasher, Hash, RandomState};
use std::sync::{RwLock, RwLockReadGuard, RwLockWriteGuard, TryLockError};
use std::time::Instant;

/// Number of shards. A small power of two: enough to make cross-shard
/// collisions rare at the session's worker counts (≤ 8), small enough that
/// whole-map sweeps (`retain`, `len`) stay cheap.
pub const SHARDS: usize = 16;

/// Count one contended acquisition that blocked since `start`.
fn note_contention(start: Instant) {
    PROCESS.add(
        ProcessCounter::lock_wait_ns,
        start.elapsed().as_nanos() as u64,
    );
    PROCESS.add(ProcessCounter::lock_contentions, 1);
}

fn read_timed<T>(lock: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    match lock.try_read() {
        Ok(guard) => guard,
        Err(TryLockError::Poisoned(p)) => p.into_inner(),
        Err(TryLockError::WouldBlock) => {
            let start = Instant::now();
            let guard = lock.read().unwrap_or_else(|p| p.into_inner());
            note_contention(start);
            guard
        }
    }
}

fn write_timed<T>(lock: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    match lock.try_write() {
        Ok(guard) => guard,
        Err(TryLockError::Poisoned(p)) => p.into_inner(),
        Err(TryLockError::WouldBlock) => {
            let start = Instant::now();
            let guard = lock.write().unwrap_or_else(|p| p.into_inner());
            note_contention(start);
            guard
        }
    }
}

/// An N-way sharded `HashMap` behind per-shard `RwLock`s. See the module
/// docs for the design rationale.
#[derive(Debug)]
pub struct ShardMap<K, V> {
    shards: [RwLock<HashMap<K, V>>; SHARDS],
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
            shards: std::array::from_fn(|_| RwLock::new(HashMap::new())),
            hasher: RandomState::new(),
        }
    }

    /// Total number of keys across all shards. Shards are visited one at a
    /// time, so the count is a consistent-per-shard snapshot, not a frozen
    /// whole-map one — exactly what a size gauge needs.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| read_timed(s).len()).sum()
    }

    /// True when no shard holds an entry.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<K: Hash + Eq, V> ShardMap<K, V> {
    fn shard(&self, key: &K) -> &RwLock<HashMap<K, V>> {
        let h = self.hasher.hash_one(key) as usize;
        &self.shards[h % SHARDS]
    }

    /// Apply `f` to the value under `key` (or `None`) while holding the
    /// shard's *read* lock. Concurrent readers of one shard proceed in
    /// parallel.
    pub fn read<R>(&self, key: &K, f: impl FnOnce(Option<&V>) -> R) -> R {
        let guard = read_timed(self.shard(key));
        f(guard.get(key))
    }

    /// Insert (or replace) the value under `key`.
    pub fn insert(&self, key: K, value: V) -> Option<V> {
        write_timed(self.shard(&key)).insert(key, value)
    }

    /// Apply `f` to the (default-created if absent) value under `key`
    /// while holding the shard's write lock. This is the first-writer-wins
    /// primitive the bucketed caches use: probe the bucket again under the
    /// lock, then push.
    pub fn update<R>(&self, key: K, f: impl FnOnce(&mut V) -> R) -> R
    where
        V: Default,
    {
        let mut guard = write_timed(self.shard(&key));
        f(guard.entry(key).or_default())
    }

    /// Retain only the entries for which `f` returns true, shard by shard.
    pub fn retain(&self, mut f: impl FnMut(&K, &mut V) -> bool) {
        for shard in &self.shards {
            write_timed(shard).retain(|k, v| f(k, v));
        }
    }

    /// Fold over every entry, shard by shard (each shard read-locked for
    /// the duration of its visit; unspecified order).
    pub fn fold<A>(&self, init: A, mut f: impl FnMut(A, &K, &V) -> A) -> A {
        let mut acc = init;
        for shard in &self.shards {
            let guard = read_timed(shard);
            for (k, v) in guard.iter() {
                acc = f(acc, k, v);
            }
        }
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// Eight threads hammering one key must serialize their bucket pushes
    /// without losing a single write and without aliasing: the bucket ends
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
                        // Read path: the bucket must always contain what
                        // this thread already pushed.
                        let seen =
                            map.read(&42, |b| b.map(|b| b.contains(&value)).unwrap_or(false));
                        assert!(seen, "thread {t} lost its own write of {value}");
                    }
                });
            }
        });
        assert_eq!(inserted.load(Ordering::Relaxed), 8 * 200);
        let len = map.read(&42, |b| b.map(Vec::len).unwrap_or(0));
        assert_eq!(len, 8 * 200, "no write may be lost, none duplicated");
        assert_eq!(map.len(), 1, "all traffic targeted one key");
    }

    #[test]
    fn retain_and_fold_cover_every_shard() {
        let map: ShardMap<u64, u64> = ShardMap::new();
        for k in 0..1000u64 {
            map.insert(k, k * 2);
        }
        assert_eq!(map.len(), 1000);
        let sum = map.fold(0u64, |acc, _, v| acc + v);
        assert_eq!(sum, (0..1000u64).map(|k| k * 2).sum());
        map.retain(|k, _| k % 2 == 0);
        assert_eq!(map.len(), 500);
    }

    #[test]
    fn distinct_keys_spread_over_shards() {
        let map: ShardMap<u64, u64> = ShardMap::new();
        for k in 0..256u64 {
            map.insert(k, k);
        }
        let populated = map
            .shards
            .iter()
            .filter(|s| !s.read().unwrap().is_empty())
            .count();
        assert!(
            populated > 1,
            "256 keys must not all hash to a single shard"
        );
    }
}
