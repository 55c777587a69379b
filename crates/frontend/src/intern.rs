//! Symbol interning: `Symbol(u32)` + side table, std-only.
//!
//! Identifiers used to be carried around the whole pipeline as owned
//! `String`s — one heap allocation per *occurrence* at lex time, then one
//! more per clone at every layer that stored the name (AST, accesses,
//! summaries, the link fixed point's merge loops). This module replaces
//! that with a process-wide symbol table:
//!
//! * **One allocation per distinct identifier, ever.** String bytes live
//!   in a chunked bump arena (4 KiB chunks, leaked for the process
//!   lifetime, bounded by the distinct-identifier set); a [`Symbol`] is a
//!   4-byte index. Lexing a unit does O(distinct identifiers) global-table
//!   touches instead of O(tokens) allocations — the lexer keeps a
//!   per-unit side cache keyed by `&source` byte slices so repeated
//!   occurrences never reach the global table.
//! * **Lock-free resolution.** `Symbol::as_str` is two atomic loads into
//!   a two-level block table — no lock, `&'static str` out — so printing
//!   and map lookups on the hot path never serialize.
//! * **Deterministic ordering.** `Ord` compares the *resolved strings*,
//!   never the numeric ids (which depend on interning order and therefore
//!   on thread scheduling). `BTreeMap<Symbol, _>` iterates exactly like
//!   `BTreeMap<String, _>` did, so byte-identity of every rewrite and
//!   plan document is preserved by construction. `Eq`/`Hash` use the id
//!   (interning canonicalizes, so id equality *is* string equality).
//!
//! Cross-unit comparability comes for free: the table is global, so the
//! link stage can key its fixed-point maps by `Symbol` without any
//! per-unit remapping.

use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::sync::atomic::{AtomicPtr, Ordering};
use std::sync::{Mutex, OnceLock, PoisonError, RwLock};

/// An interned string: a 4-byte handle resolving to `&'static str`.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Symbol(u32);

/// Block size of the id → string side table (power of two).
const BLOCK: usize = 1 << 10;
/// Maximum number of blocks (caps the table at 4M distinct symbols).
const BLOCKS: usize = 1 << 12;
/// Bump-arena chunk size for string bytes.
const CHUNK: usize = 4 << 10;
/// Shard count for the string → id map (power of two).
const SHARDS: usize = 16;

/// FNV-1a: tiny, fast for short identifier keys, and deterministic (the
/// interner shards and the per-unit symbol sets — typedef names, macros,
/// hashed by id — do not need DoS-resistant hashing).
#[derive(Default)]
pub struct FnvHasher(u64);

impl Hasher for FnvHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        let mut h = if self.0 == 0 {
            0xcbf2_9ce4_8422_2325
        } else {
            self.0
        };
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self.0 = h;
    }
}

/// `BuildHasher` for [`FnvHasher`]-keyed maps.
pub type FnvBuild = BuildHasherDefault<FnvHasher>;

/// Bump arena for symbol bytes: chunks are leaked (process lifetime), so
/// the strings they hold really are `'static`. Allocation count is
/// O(distinct symbols / chunk fill), not O(symbols).
struct Bump {
    cur: &'static mut [u8],
    used: usize,
}

impl Bump {
    fn new() -> Bump {
        Bump {
            cur: Box::leak(vec![0u8; CHUNK].into_boxed_slice()),
            used: 0,
        }
    }

    fn alloc(&mut self, s: &str) -> &'static str {
        if self.used + s.len() > self.cur.len() {
            self.cur = Box::leak(vec![0u8; CHUNK.max(s.len())].into_boxed_slice());
            self.used = 0;
        }
        let dst = &mut self.cur[self.used..self.used + s.len()];
        dst.copy_from_slice(s.as_bytes());
        self.used += s.len();
        let ptr = dst.as_ptr();
        // SAFETY: the bytes were copied from a valid `&str` into a leaked
        // chunk that is never reused or freed.
        unsafe { std::str::from_utf8_unchecked(std::slice::from_raw_parts(ptr, s.len())) }
    }
}

struct Insert {
    next: u32,
    bump: Bump,
}

struct Interner {
    /// string → id, sharded by FNV hash.
    shards: [RwLock<HashMap<&'static str, Symbol, FnvBuild>>; SHARDS],
    /// id → string: two-level block table, reads are two atomic loads.
    blocks: [AtomicPtr<&'static str>; BLOCKS],
    insert: Mutex<Insert>,
}

fn table() -> &'static Interner {
    static TABLE: OnceLock<Interner> = OnceLock::new();
    TABLE.get_or_init(|| {
        let interner = Interner {
            shards: std::array::from_fn(|_| RwLock::new(HashMap::default())),
            blocks: std::array::from_fn(|_| AtomicPtr::new(std::ptr::null_mut())),
            insert: Mutex::new(Insert {
                next: 0,
                bump: Bump::new(),
            }),
        };
        // Symbol 0 is the empty string, so `Symbol::default()` resolves.
        interner.intern("");
        interner
    })
}

fn fnv(s: &str) -> u64 {
    let mut h = FnvHasher::default();
    h.write(s.as_bytes());
    h.finish()
}

impl Interner {
    fn resolve(&self, id: u32) -> &'static str {
        let block = self.blocks[id as usize / BLOCK].load(Ordering::Acquire);
        debug_assert!(!block.is_null(), "symbol id {id} was never interned");
        // SAFETY: the slot was written before the id escaped the insert
        // lock, and ids only travel through synchronizing handoffs.
        unsafe { *block.add(id as usize % BLOCK) }
    }

    // The locks are taken through `PoisonError::into_inner`: a panic while
    // one is held (the table-full assertion below) leaves the table valid —
    // at worst an id is skipped before it was published — so the other
    // threads of a long-lived process keep interning.
    fn intern(&self, s: &str) -> Symbol {
        let shard = &self.shards[(fnv(s) as usize) & (SHARDS - 1)];
        if let Some(sym) = shard.read().unwrap_or_else(PoisonError::into_inner).get(s) {
            return *sym;
        }
        let mut insert = self.insert.lock().unwrap_or_else(PoisonError::into_inner);
        // Double-check: another thread may have interned `s` between the
        // shard read and taking the insert lock.
        if let Some(sym) = shard.read().unwrap_or_else(PoisonError::into_inner).get(s) {
            return *sym;
        }
        let id = insert.next;
        // A process interns at most 4M distinct strings (a unit is a few
        // thousand): past that the caller's request fails by this panic,
        // which the daemon's request boundary answers as an error.
        assert!((id as usize) < BLOCK * BLOCKS, "symbol table full");
        insert.next += 1;
        let stored = insert.bump.alloc(s);
        let block_idx = id as usize / BLOCK;
        let mut block = self.blocks[block_idx].load(Ordering::Acquire);
        if block.is_null() {
            let fresh: Box<[&'static str; BLOCK]> = Box::new([""; BLOCK]);
            block = Box::into_raw(fresh) as *mut &'static str;
            self.blocks[block_idx].store(block, Ordering::Release);
        }
        // SAFETY: slot writes happen only under the insert lock, and no
        // reader can hold this id yet.
        unsafe { *block.add(id as usize % BLOCK) = stored };
        let sym = Symbol(id);
        (shard.write().unwrap_or_else(PoisonError::into_inner)).insert(stored, sym);
        sym
    }
}

impl Symbol {
    /// Intern a string, returning its canonical handle. Allocates only the
    /// first time this exact string is ever seen by the process.
    pub fn intern(s: &str) -> Symbol {
        table().intern(s)
    }

    /// Probe for an already-interned string without inserting it. Use this
    /// for membership queries keyed by externally supplied names, so that
    /// misses do not grow the table.
    pub fn lookup(s: &str) -> Option<Symbol> {
        let t = table();
        let shard = &t.shards[(fnv(s) as usize) & (SHARDS - 1)];
        shard
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .get(s)
            .copied()
    }

    /// Resolve to the interned string. Lock-free; `&'static` because the
    /// arena chunks live for the process lifetime.
    pub fn as_str(self) -> &'static str {
        table().resolve(self.0)
    }

    /// The raw table index (ids are assigned in interning order and are NOT
    /// stable across processes).
    pub fn index(self) -> u32 {
        self.0
    }

    /// The symbol whose [`Self::index`] is `index`. Crate-private: only an
    /// index taken from a symbol of this process may come back.
    pub(crate) fn from_index(index: u32) -> Symbol {
        Symbol(index)
    }

    /// True for the empty-string symbol.
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }
}

impl Default for Symbol {
    /// The empty string: the table interns it first, as id 0.
    fn default() -> Symbol {
        Symbol(0)
    }
}

impl std::ops::Deref for Symbol {
    type Target = str;

    fn deref(&self) -> &'static str {
        self.as_str()
    }
}

impl AsRef<str> for Symbol {
    fn as_ref(&self) -> &str {
        self.as_str()
    }
}

// NOTE: no `Borrow<str>` impl on purpose. `Symbol` hashes by id while `str`
// hashes by content, so a `HashMap<Symbol, _>` looked up by `&str` would
// compile but never find anything. Use `Symbol::lookup` / `Symbol::intern`
// at the call site instead.

impl From<&Symbol> for Symbol {
    fn from(s: &Symbol) -> Symbol {
        *s
    }
}

impl fmt::Display for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl fmt::Debug for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_str(), f)
    }
}

impl From<&str> for Symbol {
    fn from(s: &str) -> Symbol {
        Symbol::intern(s)
    }
}

impl From<&String> for Symbol {
    fn from(s: &String) -> Symbol {
        Symbol::intern(s)
    }
}

impl From<String> for Symbol {
    fn from(s: String) -> Symbol {
        Symbol::intern(&s)
    }
}

impl From<Symbol> for String {
    fn from(s: Symbol) -> String {
        s.as_str().to_owned()
    }
}

impl PartialEq<str> for Symbol {
    fn eq(&self, other: &str) -> bool {
        self.as_str() == other
    }
}

impl PartialEq<&str> for Symbol {
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == *other
    }
}

impl PartialEq<String> for Symbol {
    fn eq(&self, other: &String) -> bool {
        self.as_str() == other.as_str()
    }
}

impl PartialEq<Symbol> for str {
    fn eq(&self, other: &Symbol) -> bool {
        self == other.as_str()
    }
}

impl PartialEq<Symbol> for &str {
    fn eq(&self, other: &Symbol) -> bool {
        *self == other.as_str()
    }
}

impl PartialEq<Symbol> for String {
    fn eq(&self, other: &Symbol) -> bool {
        self.as_str() == other.as_str()
    }
}

/// Deterministic order: by resolved string, never by id. Ids depend on
/// interning order (thread scheduling); strings do not. Consistent with
/// `Eq` because interning canonicalizes: equal ids ⇔ equal strings.
impl Ord for Symbol {
    fn cmp(&self, other: &Symbol) -> std::cmp::Ordering {
        if self.0 == other.0 {
            std::cmp::Ordering::Equal
        } else {
            self.as_str().cmp(other.as_str())
        }
    }
}

impl PartialOrd for Symbol {
    fn partial_cmp(&self, other: &Symbol) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    #[test]
    fn round_trip_and_canonicalization() {
        let a = Symbol::intern("alpha");
        let b = Symbol::intern("beta");
        let a2 = Symbol::intern("alpha");
        assert_eq!(a, a2);
        assert_eq!(a.index(), a2.index());
        assert_ne!(a, b);
        assert_eq!(a.as_str(), "alpha");
        assert_eq!(b.as_str(), "beta");
        assert_eq!(String::from(a), "alpha");
    }

    #[test]
    fn empty_symbol_is_default() {
        assert_eq!(Symbol::default().as_str(), "");
        assert!(Symbol::default().is_empty());
        assert!(!Symbol::intern("x").is_empty());
    }

    #[test]
    fn ordering_is_by_string_not_id() {
        // Intern in reverse lexicographic order so ids and strings
        // disagree about ordering.
        let z = Symbol::intern("zzz_order_test");
        let a = Symbol::intern("aaa_order_test");
        assert!(a < z, "Ord must compare strings");
        let mut map = BTreeMap::new();
        map.insert(z, 1);
        map.insert(a, 2);
        let keys: Vec<&str> = map.keys().map(|s| s.as_str()).collect();
        assert_eq!(keys, vec!["aaa_order_test", "zzz_order_test"]);
    }

    #[test]
    fn str_comparisons_work_both_ways() {
        let s = Symbol::intern("needle");
        assert!(s == "needle");
        assert!("needle" == s);
        #[allow(clippy::cmp_owned)] // the `PartialEq<String>` impl is the subject
        {
            assert!(s == "needle".to_string());
        }
        assert!(s != "haystack");
        // Deref gives str methods directly.
        assert!(s.starts_with("nee"));
        assert_eq!(s.len(), 6);
    }

    #[test]
    fn hash_collisions_resolve_to_distinct_symbols() {
        // FNV will collide eventually on *shard selection* — distinct
        // strings must still get distinct symbols even when they land in
        // the same shard. Hammer one shard with many strings.
        let syms: Vec<Symbol> = (0..2000)
            .map(|i| Symbol::intern(&format!("collide_{i}")))
            .collect();
        for (i, s) in syms.iter().enumerate() {
            assert_eq!(s.as_str(), format!("collide_{i}"));
        }
        let unique: std::collections::HashSet<u32> = syms.iter().map(|s| s.index()).collect();
        assert_eq!(unique.len(), syms.len());
    }

    #[test]
    fn long_strings_exceeding_a_chunk() {
        let long = "x".repeat(3 * CHUNK);
        let s = Symbol::intern(&long);
        assert_eq!(s.as_str(), long);
        // And the arena keeps working afterwards.
        assert_eq!(Symbol::intern("after_long").as_str(), "after_long");
    }

    #[test]
    fn concurrent_interning_is_canonical() {
        let handles: Vec<_> = (0..8)
            .map(|t| {
                std::thread::spawn(move || {
                    (0..500)
                        .map(|i| Symbol::intern(&format!("race_{}", (i + t) % 500)))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        let all: Vec<Vec<Symbol>> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        // Every thread must agree on the id of every string.
        for i in 0..500 {
            let canonical = Symbol::intern(&format!("race_{i}"));
            for per_thread in &all {
                assert!(per_thread.contains(&canonical));
            }
        }
    }
}
