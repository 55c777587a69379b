//! A sharded concurrent map for the session's hot caches.
//!
//! Every [`crate::pipeline::AnalysisSession`] cache used to be one global
//! `Mutex<HashMap>`: eight workers probing the unit table and the function
//! caches serialized on a single lock per lookup. [`ShardMap`] splits the key
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
use std::borrow::Borrow;
use std::collections::HashMap;
use std::hash::{BuildHasher, Hash, RandomState};
use std::sync::{RwLock, RwLockReadGuard, RwLockWriteGuard, TryLockError};
use std::time::Instant;

/// Number of shards. A small power of two: enough to make cross-shard
/// collisions rare at the session's worker counts (≤ 8), small enough that
/// a whole-map sweep (`len`) stays cheap.
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
    /// The shard of `key`. A borrowed form hashes like the key it borrows
    /// from (the `Borrow` contract), so `&str` finds a `String` key's shard.
    fn shard<Q: Hash + ?Sized>(&self, key: &Q) -> &RwLock<HashMap<K, V>> {
        let h = self.hasher.hash_one(key) as usize;
        &self.shards[h % SHARDS]
    }

    /// Apply `f` to the value under `key` (or `None`) while holding the
    /// shard's *read* lock. Concurrent readers of one shard proceed in
    /// parallel.
    pub fn read<Q, R>(&self, key: &Q, f: impl FnOnce(Option<&V>) -> R) -> R
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        let guard = read_timed(self.shard(key));
        f(guard.get(key))
    }

    /// Insert (or replace) the value under `key`.
    pub fn insert(&self, key: K, value: V) -> Option<V> {
        write_timed(self.shard(&key)).insert(key, value)
    }

    /// Apply `f` to the value under `key`, if there is one, while holding
    /// the shard's write lock.
    pub fn modify<Q, R>(&self, key: &Q, f: impl FnOnce(&mut V) -> R) -> Option<R>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        write_timed(self.shard(key)).get_mut(key).map(f)
    }

    /// Apply `f` to the (default-created if absent) value under `key`
    /// while holding the shard's write lock. This is the first-writer-wins
    /// primitive of the unit table: probe the slot again under the lock,
    /// then insert.
    pub fn update<R>(&self, key: K, f: impl FnOnce(&mut V) -> R) -> R
    where
        V: Default,
    {
        let mut guard = write_timed(self.shard(&key));
        f(guard.entry(key).or_default())
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

    /// A `String`-keyed map answers `&str` probes from the key's own
    /// shard, and `modify` touches existing keys only.
    #[test]
    fn borrowed_keys_find_their_shard_and_modify_never_inserts() {
        let map: ShardMap<String, u64> = ShardMap::new();
        for k in 0..1000u64 {
            map.insert(format!("unit_{k}.c"), k);
        }
        assert_eq!(map.len(), 1000);
        for k in 0..1000u64 {
            let name = format!("unit_{k}.c");
            assert_eq!(map.read(name.as_str(), |v| v.copied()), Some(k));
            assert_eq!(
                map.modify(name.as_str(), |v| std::mem::replace(v, 0)),
                Some(k)
            );
        }
        assert_eq!(map.modify("absent.c", |v| *v), None);
        assert_eq!(map.len(), 1000);
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
