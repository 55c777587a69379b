//! Persistent artifact store: one append-only **pack** file per cache
//! directory, so a new process over the same directory starts warm — and
//! parses only the units a change reached.
//!
//! Two kinds of record, both keyed **by content** (the unit name is in no
//! key, so a renamed or copied file hits):
//!
//! * An *interface* record holds what the rest of a program reads of one
//!   translation unit — [`UnitExports`]: per function its seed summary, call
//!   sites, referenced variables and callees — keyed by the source's length
//!   and two independent hashes of its text plus the [`OmpDartOptions`]
//!   fingerprint. It is what lets a restart *link* a program without parsing
//!   it: the link stage reads interfaces and nothing else of a unit.
//! * A *unit* record holds one unit's plans, statistics and the **edit list**
//!   of its rewrite (the `(position, text)` insertions that turn the source
//!   into the mapped program). Its key adds the fingerprint of what the unit
//!   imports from the rest of its program — what its plans can read of the
//!   summaries of the functions it calls — so an edit to one unit leaves the
//!   others' records valid unless such a fact moved. A hit is served without
//!   the unit's AST: the rewrite is a splice of the stored insertions into
//!   the bytes just read, never a re-derivation.
//!
//! Nothing finer than a unit is stored: a function's plan lives in its
//! unit's record, and a unit that misses is planned whole.
//!
//! Both halves of a warm unit are pure functions of its bytes and the
//! options, and parsing is deterministic — the node ids in a stored plan fit
//! a fresh parse of the same text — so whatever mix a restart finds (interface
//! and plans; interface only, because an imported summary moved; neither,
//! because the file was edited) its output is byte-identical to a cold run's.
//! A unit is parsed exactly when its interface is missing or one of its plan
//! records is: the body ([`crate::pipeline::UnitBody`]) is built for the
//! units the change reached and for nothing else.
//!
//! *What is never stored.* A unit whose **parse** produced a diagnostic has
//! no interface record, and a unit whose **planning** produced one has no
//! plan record: a record is served silently, and the warning has to reappear
//! on every run, so such a unit is parsed — or planned — every time. A unit
//! that failed to parse or broke the input contract never got as far as a
//! record. A unit record saved through [`ArtifactStore::save_many`] carries
//! no edit list; a hit on it builds the unit's body and derives the rewrite
//! from the plans.
//!
//! # The pack
//!
//! `<dir>/ompdart.pack` is a sequence of records:
//!
//! ```text
//! magic[4] versions[4] key[6 x u64] slot[8] payload_len[4] payload_sum[8]
//! header_sum[8] payload[payload_len]
//! ```
//!
//! `versions` packs [`STORE_FORMAT_VERSION`] and [`PLAN_FORMAT_VERSION`]; a
//! record of another version is skipped like damage. A unit's payload is
//! lines of compact JSON from [`crate::plan::json`]; an interface's is the
//! token lines [`UnitExports::encode`] writes straight into the queue,
//! without a document tree in between. Every payload is UTF-8. `slot` hashes
//! *who* wrote the record as *what* — `(unit name, options)` and the
//! record's kind, plans or interface — which makes
//! "superseded" a fact of the index instead of an unlink: a record is
//! **live** while it is the latest of its slot, dead once the same name
//! saved something newer, and still answers lookups when dead (a reverted
//! edit hits) until a compaction drops it. A unit has one slot of plans, not
//! one per link fingerprint: those move with every neighbour's interface,
//! and a slot nobody writes again never dies.
//!
//! *Writing.* Nothing is written while planning: records are encoded where
//! they are produced and queued, and a flush appends the whole queue with
//! one `O_APPEND` `write` — no temp file, no `fsync`. A crash or a full disk
//! can tear the pack's tail; it cannot make the store lie, because a header
//! is believed only if its checksum holds, and a payload only if its does.
//!
//! *Reading.* The first use of a store reads the pack once and indexes the
//! headers, skipping payloads by length; a damaged or torn stretch is
//! skipped to the next magic, so the records after it are still found. A
//! miss is answered by the index without a system call. A hit decodes the
//! one payload it needs — from the bytes of that first read until the next
//! flush releases them, by a positioned read afterwards: a long-lived
//! process keeps the index resident, never the payloads. Every key word has
//! to match. A flush re-reads the pack if its length is not the one indexed,
//! so what another process appended (or compacted) is picked up by the next
//! flush or start; an offset gone stale in between fails the payload
//! checksum and is a miss.
//!
//! *Bounded growth.* Appending removes nothing; compaction does. After a
//! flush that leaves more dead bytes than live ones (past
//! [`COMPACT_FLOOR_BYTES`]) or more than the [`ArtifactStore::with_max_bytes`]
//! cap, the live records are copied, least recently used first, into a temp
//! file that is renamed over the pack; under a cap the oldest are left out
//! until the rest fits, never one the current flush wrote. Recency is the
//! position in the pack, refreshed by a hit *in this process* only: a hit in
//! another would have to write on the read path. A process appending to the
//! old pack while another renames a compacted one over it loses those
//! records: a later miss. [`ArtifactStore::gc`] (`ompdart cache gc`, the
//! daemon's `gc` verb) is the same pass under an explicit cap, and removes
//! the files of the layouts before the pack, which are never read.

use crate::interface::UnitExports;
use crate::pipeline::FunctionKeySnapshot;
use crate::plan::ir::{AnalysisStats, MappingPlan, PLAN_FORMAT_VERSION};
use crate::plan::json::{
    encoded_size_hint, plans_from_json, write_json_string, write_plans_json, Json, JsonWriter,
};
use crate::rewrite::EditSet;
use crate::OmpDartOptions;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::PathBuf;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Version of the pack format; a record of any other store or plan version
/// is never read, and leaves with the next compaction. v14's interface
/// records list no device names and mark `const` pointees, and its keys
/// hash summaries that carry the unknown-callee fallback. v13 is v12's pack
/// with three lines to a unit record: v12 ended it with a fourth, the
/// per-function plan-cache key snapshots, which nothing reads since a unit
/// is planned whole. v12 is v11's pack
/// with one slot of plans per `(unit, options)`, where v11 kept a second one
/// for a unit analyzed outside any program (a v11 record there would never
/// be superseded). v11 is v10's pack under other keys: a unit record's
/// imports fingerprint and its functions' `callees_hash` hash callee
/// summaries projected onto the program's device names, where v10 hashed
/// whole summaries, so a v10 key means something else even where its bits
/// match; and its interface records list, after the unit's globals, the
/// unit's device names. v10 is v9's pack with interface records in which
/// every function carries its seed and call sites (no "has propagation
/// inputs" flag bit); v9's interface records no longer opened with a
/// fingerprint of the unit's surface; v8 had version-3 plan documents in the
/// unit records (the `unstructured` marker instead of enter-data / exit-data
/// lists); v3's `unit-*`, `fn-*` and `ref-*` files are ignored, and removed
/// by [`ArtifactStore::gc`].
pub const STORE_FORMAT_VERSION: u32 = 14;

const PACK_FILE: &str = "ompdart.pack";
/// Starts every record. Payloads are UTF-8, which never holds `0xff`, so the
/// scan that follows damage cannot take payload bytes for a record.
const MAGIC: [u8; 4] = [0xff, b'O', b'D', b'P'];
const VERSIONS: u32 = STORE_FORMAT_VERSION << 16 | PLAN_FORMAT_VERSION;
const HEADER_LEN: usize = 4 + 4 + 6 * 8 + 8 + 4 + 8 + 8;
const UNIT: u64 = 1;
const INTERFACE: u64 = 2;

/// Compaction runs once dead bytes exceed live bytes — the traffic of a
/// long-lived session (`ompdart watch`, the daemon), whose every edit appends
/// the edited unit's record and kills its predecessor: a rewrite then costs
/// no more than was appended since the last. The floor is for a few-unit
/// program under that traffic: below it dead bytes cost less than a rename.
pub const COMPACT_FLOOR_BYTES: u64 = 16 << 10;

/// One step of the store's hash: a bijection of `h` for any `word`, so two
/// inputs that differ in one word never collide.
fn fold(h: u64, word: u64) -> u64 {
    let mixed = (h ^ word).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    mixed.rotate_left(29)
}

/// Two independently mixed hashes of `bytes` in one pass, eight bytes a step:
/// both key a unit's source, the first sums headers and payloads.
fn hash_pair(bytes: &[u8]) -> (u64, u64) {
    let (mut a, mut b) = (0xcbf2_9ce4_8422_2325_u64, 0x2545_f491_4f6c_dd1d_u64);
    let mut step = |word: u64| {
        a = fold(a, word);
        b = (b ^ word)
            .wrapping_mul(0xd6e8_feb8_6659_fd93)
            .rotate_left(37);
    };
    let mut chunks = bytes.chunks_exact(8);
    for chunk in &mut chunks {
        step(u64::from_le_bytes(chunk.try_into().expect("eight bytes")));
    }
    let mut tail = [0u8; 8];
    tail[..chunks.remainder().len()].copy_from_slice(chunks.remainder());
    step(u64::from_le_bytes(tail));
    step(bytes.len() as u64);
    (a, b)
}

/// What a lookup has to match, word for word: the record kind, then the
/// source's length and two hashes, the options and (a unit's) link
/// fingerprint.
pub(crate) type RecordKey = [u64; 6];

/// What keys a source text: its length and two hashes. The session hashes a
/// unit's source once, and keys its interface record and every plan record
/// of it — lookup and write-back — with the result.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct ContentKey([u64; 3]);

pub(crate) fn content_key(source: &str) -> ContentKey {
    let (a, b) = hash_pair(source.as_bytes());
    ContentKey([source.len() as u64, a, b])
}

impl ContentKey {
    /// The key of this content planned under `options` and `link`.
    pub(crate) fn unit(self, options: &OmpDartOptions, link: u64) -> RecordKey {
        let [len, a, b] = self.0;
        [UNIT, len, a, b, options.fingerprint(), link]
    }

    /// The key of this content's interface under `options`.
    fn interface(self, options: &OmpDartOptions) -> RecordKey {
        let [len, a, b] = self.0;
        [INTERFACE, len, a, b, options.fingerprint(), 0]
    }
}

/// Who writes a record, as what (see the module docs).
fn slot(kind: u64, who: &str, words: [u64; 2]) -> u64 {
    let who = hash_pair(who.as_bytes()).0;
    fold(fold(fold(who, words[0]), words[1]), kind)
}

/// The slot of the interface the unit called `name` saves under `key`.
fn interface_slot(name: &str, key: &RecordKey) -> u64 {
    slot(INTERFACE, name, [key[4], 0])
}

/// The index's view of one record in the pack.
#[derive(Clone, Copy, Debug)]
struct Record {
    key: RecordKey,
    /// Where its header starts.
    offset: u64,
    len: u32,
    sum: u64,
    /// Position in the pack when indexed, then the time of the last hit.
    recency: u64,
}

impl Record {
    fn size(&self) -> u64 {
        HEADER_LEN as u64 + u64::from(self.len)
    }
}

/// The record whose header starts `bytes` and its slot, if the header's
/// checksum holds; the caller fills in where and when.
fn parse_header(bytes: &[u8]) -> Option<(Record, u64)> {
    let head = bytes.get(..HEADER_LEN)?;
    let word = |at: usize| u64::from_le_bytes(head[at..at + 8].try_into().expect("eight bytes"));
    let half = |at: usize| u32::from_le_bytes(head[at..at + 4].try_into().expect("four bytes"));
    let summed = HEADER_LEN - 8;
    if head[..4] != MAGIC || half(4) != VERSIONS || word(summed) != hash_pair(&head[..summed]).0 {
        return None;
    }
    let key = std::array::from_fn(|i| word(8 + 8 * i));
    let (len, sum, offset, recency) = (half(64), word(68), 0, 0);
    let record = Record {
        key,
        offset,
        len,
        sum,
        recency,
    };
    Some((record, word(56)))
}

/// Append one record to `out`, ready to be written: its header, then the
/// payload `write` appends — which must be UTF-8, see [`MAGIC`]. Returns
/// false, with `out` as it was, if `write` does or the payload is too long.
fn append_record(
    out: &mut Vec<u8>,
    key: &RecordKey,
    slot: u64,
    write: impl FnOnce(&mut Vec<u8>) -> bool,
) -> bool {
    let start = out.len();
    out.resize(start + HEADER_LEN, 0);
    let len = match write(out) {
        true => u32::try_from(out.len() - start - HEADER_LEN).ok(),
        false => None,
    };
    let Some(len) = len else {
        out.truncate(start);
        return false;
    };
    let (header, payload) = out[start..].split_at_mut(HEADER_LEN);
    let words = key.iter().chain([&slot]).map(|word| word.to_le_bytes());
    let fields = (MAGIC.into_iter().chain(VERSIONS.to_le_bytes()))
        .chain(words.flatten())
        .chain(len.to_le_bytes())
        .chain(hash_pair(payload).0.to_le_bytes());
    let summed = HEADER_LEN - 8;
    for (byte, field) in header[..summed].iter_mut().zip(fields) {
        *byte = field;
    }
    let sum = hash_pair(&header[..summed]).0;
    header[summed..].copy_from_slice(&sum.to_le_bytes());
    true
}

fn find_magic(bytes: &[u8]) -> Option<usize> {
    bytes.windows(MAGIC.len()).position(|w| w == MAGIC)
}

/// Append the queue, one buffer, with one `write` (more if `out` falls short).
fn append(queue: &[u8], out: &mut impl Write) -> io::Result<()> {
    out.write_all(queue)
}

/// A store's memory: the index of the pack as last read, and the queue.
#[derive(Debug, Default)]
struct Pack {
    loaded: bool,
    /// Length of the pack the index describes.
    scanned: u64,
    records: Vec<Record>,
    /// The latest record under each key: what lookups read.
    by_key: HashMap<RecordKey, usize>,
    /// The latest record of each slot: what is live.
    by_slot: HashMap<u64, usize>,
    clock: u64,
    /// The bytes of the first read, until the next flush.
    resident: Option<Arc<Vec<u8>>>,
    /// The `queued` records waiting for the next flush, back to back.
    queue: Vec<u8>,
    queued: usize,
}

impl Pack {
    /// Index every intact record in `bytes`, which start at `base`.
    fn index(&mut self, bytes: &[u8], base: u64) {
        let mut at = 0;
        while at < bytes.len() {
            let header = parse_header(&bytes[at..]);
            let end = at + HEADER_LEN + header.map_or(0, |(record, _)| record.len as usize);
            // A record torn by a crash is followed by the next append, not
            // by its own payload: believe a length only if a record, the
            // end, or at least no other record's start comes after it.
            let whole = end <= bytes.len()
                && (end == bytes.len()
                    || bytes[end..].starts_with(&MAGIC)
                    || find_magic(&bytes[at + 1..end]).is_none());
            match header {
                Some((mut record, slot)) if whole => {
                    self.clock += 1;
                    (record.offset, record.recency) = (base + at as u64, self.clock);
                    self.by_key.insert(record.key, self.records.len());
                    self.by_slot.insert(slot, self.records.len());
                    self.records.push(record);
                    at = end;
                }
                _ => at = find_magic(&bytes[at + 1..]).map_or(bytes.len(), |i| at + 1 + i),
            }
        }
    }

    /// Replace the index by that of `bytes`, a whole pack.
    fn reindex(&mut self, bytes: &[u8]) {
        self.records.clear();
        self.by_key.clear();
        self.by_slot.clear();
        self.index(bytes, 0);
        self.scanned = bytes.len() as u64;
        self.loaded = true;
    }

    fn live(&self) -> impl Iterator<Item = &Record> {
        self.by_slot.values().map(|&id| &self.records[id])
    }
}

/// A directory-backed store of planning artifacts (see the module docs).
/// Opening one never fails and touches nothing: the pack is read on first
/// use, the directory is created by the first flush, and every I/O error — a
/// missing or read-only directory, a damaged pack — degrades to a miss or a
/// lost write, never to a wrong answer.
#[derive(Debug)]
pub struct ArtifactStore {
    dir: PathBuf,
    max_bytes: Option<u64>,
    pack: Mutex<Pack>,
}

/// One unit's stored planning artifacts, as [`ArtifactStore::load`] returns.
#[derive(Clone, Debug)]
pub struct StoredUnit {
    /// The per-function mapping plans, in source order.
    pub plans: Vec<MappingPlan>,
    /// The aggregate statistics recorded when the plans were produced.
    pub stats: AnalysisStats,
    /// The insertions that rewrite the unit's source under these plans;
    /// `None` for a record saved without them ([`ArtifactStore::save_many`]),
    /// whose rewrite is derived from the plans again.
    pub(crate) edits: Option<EditSet>,
}

/// One unit's write-back, as taken by [`ArtifactStore::save_many`].
#[derive(Clone, Debug)]
pub struct PendingUnitSave {
    pub name: String,
    pub source: String,
    pub link: u64,
    pub plans: Vec<MappingPlan>,
    pub stats: AnalysisStats,
    /// Always empty, and never written: see [`FunctionKeySnapshot`].
    pub functions: Vec<FunctionKeySnapshot>,
}

/// What one compaction did.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct GcReport {
    /// Records in the pack before, live or dead (`gc`: and older layouts' files).
    pub entries_before: usize,
    /// Records left out: the dead, and the live ones evicted to meet the cap.
    pub entries_evicted: usize,
    pub bytes_freed: u64,
    pub bytes_kept: u64,
}

impl ArtifactStore {
    /// A store rooted at `dir`.
    pub fn open(dir: impl Into<PathBuf>) -> ArtifactStore {
        ArtifactStore {
            dir: dir.into(),
            max_bytes: None,
            pack: Mutex::default(),
        }
    }

    /// Cap the pack's size: a flush that leaves it larger compacts it, evicting
    /// least-recently-used records — never one it just wrote — until it fits.
    pub fn with_max_bytes(mut self, max_bytes: u64) -> ArtifactStore {
        self.max_bytes = Some(max_bytes);
        self
    }

    fn pack_path(&self) -> PathBuf {
        self.dir.join(PACK_FILE)
    }

    /// Read and index the pack as it is now; a missing one is empty.
    fn reload(&self, pack: &mut Pack) -> Vec<u8> {
        let bytes = std::fs::read(self.pack_path()).unwrap_or_default();
        pack.reindex(&bytes);
        bytes
    }

    /// [`Self::reload`] if another process appended to the pack or compacted it.
    fn refresh(&self, pack: &mut Pack) {
        let len = std::fs::metadata(self.pack_path()).map_or(0, |meta| meta.len());
        if len != pack.scanned {
            self.reload(pack);
        }
    }

    /// The state, with the pack indexed: the first call reads it, once, and
    /// keeps the bytes for this round's hits. A poisoned lock is taken over:
    /// the index is a hint (a hit re-verifies what it reads), never unsafe.
    fn loaded(&self) -> MutexGuard<'_, Pack> {
        let mut pack = self.pack.lock().unwrap_or_else(PoisonError::into_inner);
        if !pack.loaded {
            pack.resident = Some(Arc::new(self.reload(&mut pack)));
        }
        pack
    }

    /// Number of live unit records in the pack (diagnostics and tests).
    pub fn entry_count(&self) -> usize {
        self.loaded().live().filter(|r| r.key[0] == UNIT).count()
    }

    /// Size of the pack in bytes, as last read or written by this store.
    pub fn total_bytes(&self) -> u64 {
        self.loaded().scanned
    }

    /// The payload under `key`, decoded: `None` unless the index holds the
    /// key, the payload's checksum holds, and `decode` takes it.
    fn read<R>(&self, key: &RecordKey, decode: impl FnOnce(&str) -> Option<R>) -> Option<R> {
        let (record, resident) = {
            let mut pack = self.loaded();
            let id = *pack.by_key.get(key)?;
            pack.clock += 1;
            pack.records[id].recency = pack.clock;
            (pack.records[id], pack.resident.clone())
        };
        let (start, len) = (record.offset + HEADER_LEN as u64, record.len as usize);
        let mut read = Vec::new();
        let payload = match &resident {
            Some(bytes) => bytes.get(start as usize..start as usize + len)?,
            None => {
                let mut file = std::fs::File::open(self.pack_path()).ok()?;
                file.seek(SeekFrom::Start(start)).ok()?;
                file.take(len as u64).read_to_end(&mut read).ok()?;
                &read[..]
            }
        };
        // A cache may lose its tail; it may never lie.
        if payload.len() != len || hash_pair(payload).0 != record.sum {
            return None;
        }
        decode(std::str::from_utf8(payload).ok()?)
    }

    /// The stored plans for `source` under `options` and `link`. The unit name
    /// does not participate: a renamed or copied file hits.
    pub fn load(&self, source: &str, options: &OmpDartOptions, link: u64) -> Option<StoredUnit> {
        self.load_unit(&content_key(source).unit(options, link))
    }

    pub(crate) fn load_unit(&self, key: &RecordKey) -> Option<StoredUnit> {
        self.read(key, |payload| {
            let mut lines = payload.splitn(3, '\n');
            Some(StoredUnit {
                plans: plans_from_json(lines.next()?).ok()?,
                stats: AnalysisStats::from_json(&Json::parse(lines.next()?).ok()?).ok()?,
                edits: decode_edits(lines.next()?)?,
            })
        })
    }

    /// The stored interface of the content `content` keys, under `options`,
    /// with its names resolved for the unit called `unit`. A hit on a record
    /// that is not `unit`'s latest — the file was renamed, or an edit
    /// reverted — queues it again as that: the unit records planned beside
    /// it are its unit's latest too, and a compaction must not leave them
    /// without the interface that lets a restart serve them unparsed.
    pub(crate) fn load_interface(
        &self,
        content: ContentKey,
        options: &OmpDartOptions,
        unit: &str,
    ) -> Option<UnitExports> {
        let key = content.interface(options);
        let hit = self.read(&key, |payload| UnitExports::decode(unit, payload))?;
        let latest = {
            let pack = self.loaded();
            let of_slot = pack.by_slot.get(&interface_slot(unit, &key));
            of_slot.is_some_and(|&id| pack.records[id].key == key)
        };
        if !latest {
            self.queue_interface(unit, content, options, &hit);
        }
        Some(hit)
    }

    /// Queue one record: `write` appends its payload to the queue itself.
    fn enqueue(&self, key: RecordKey, slot: u64, write: impl FnOnce(&mut Vec<u8>) -> bool) {
        let mut pack = self.loaded();
        if append_record(&mut pack.queue, &key, slot, write) {
            pack.queued += 1;
        }
    }

    /// Queue the interface of the unit called `name` (which only says whose
    /// save this supersedes) for the next [`Self::flush`], encoded straight
    /// into the queue. An interface the encoding has no spelling for is not
    /// queued: its unit is parsed on every start.
    pub(crate) fn queue_interface(
        &self,
        name: &str,
        content: ContentKey,
        options: &OmpDartOptions,
        exports: &UnitExports,
    ) {
        let key = content.interface(options);
        let slot = interface_slot(name, &key);
        self.enqueue(key, slot, |queue| exports.encode(queue));
    }

    /// Queue the plans of the unit called `name` (which only says whose save
    /// this supersedes) for the next [`Self::flush`], as three lines: the
    /// compact plan document, written by the plan encoder straight from
    /// `plans`, the statistics, the rewrite's insertions (`[position, text,
    /// ...]`, or `null` without `edits`).
    pub(crate) fn queue_unit(
        &self,
        name: &str,
        key: RecordKey,
        plans: &[MappingPlan],
        stats: &AnalysisStats,
        edits: Option<&EditSet>,
    ) {
        let mut payload = String::with_capacity(encoded_size_hint(plans, false));
        write_plans_json(&mut JsonWriter::compact(&mut payload), plans);
        payload.push('\n');
        stats.to_json().render_into(&mut payload);
        payload.push('\n');
        match edits {
            Some(edits) => {
                payload.push('[');
                for (i, (position, text)) in edits.insertions().enumerate() {
                    let _ = write!(payload, "{}{position},", if i > 0 { "," } else { "" });
                    write_json_string(&mut payload, text);
                }
                payload.push(']');
            }
            None => payload.push_str("null"),
        }
        // Rendered above, outside the lock; copied into the queue under it.
        self.enqueue(key, slot(UNIT, name, [key[4], 0]), |queue| {
            queue.extend_from_slice(payload.as_bytes());
            true
        });
    }

    /// Write back many units' plans: queue them, then flush the queue.
    /// Returns the files written — the pack, or none for an empty batch.
    pub fn save_many(
        &self,
        options: &OmpDartOptions,
        saves: &[PendingUnitSave],
    ) -> io::Result<Vec<PathBuf>> {
        for save in saves {
            let key = content_key(&save.source).unit(options, save.link);
            self.queue_unit(&save.name, key, &save.plans, &save.stats, None);
        }
        let written = self.flush()?;
        Ok(Vec::from_iter((written > 0).then(|| self.pack_path())))
    }

    /// Append every queued record to the pack with one `write`, compact it if
    /// it has outgrown its bounds, release the bytes kept from the first read.
    /// Returns the number of records written; lost on an error: a later miss.
    pub(crate) fn flush(&self) -> io::Result<usize> {
        let mut pack = self.loaded();
        pack.resident = None;
        let queue = std::mem::take(&mut pack.queue);
        let queued = std::mem::take(&mut pack.queued);
        if queue.is_empty() {
            return Ok(0);
        }
        std::fs::create_dir_all(&self.dir)?;
        let mut options = std::fs::OpenOptions::new();
        let mut file = options.append(true).create(true).open(self.pack_path())?;
        self.refresh(&mut pack);
        let mark = pack.clock;
        append(&queue, &mut file)?;
        let end = file.stream_position()?;
        if end.checked_sub(queue.len() as u64) == Some(pack.scanned) {
            let start = pack.scanned;
            pack.index(&queue, start);
            pack.scanned = end;
        } else {
            // Another process appended between the refresh and the write.
            self.reload(&mut pack);
        }
        let cap = self.max_bytes.unwrap_or(u64::MAX);
        let live: u64 = pack.live().map(Record::size).sum();
        if end > cap || end.saturating_sub(live) > live.max(COMPACT_FLOOR_BYTES) {
            // Best effort: a failed compaction leaves pack and index alone.
            let _ = self.compact(&mut pack, cap, mark);
        }
        Ok(queued)
    }

    /// Rewrite the pack as its live records, least recently used first,
    /// leaving out the oldest until the rest fits in `cap` — but none newer
    /// than `mark`. The caller has brought the index up to date.
    fn compact(&self, pack: &mut Pack, cap: u64, mark: u64) -> io::Result<GcReport> {
        let mut keep: Vec<Record> = pack.live().copied().collect();
        keep.sort_by_key(|record| record.recency);
        let mut total: u64 = keep.iter().map(Record::size).sum();
        keep.retain(|record| {
            let evict = total > cap && record.recency <= mark;
            total -= if evict { record.size() } else { 0 };
            !evict
        });
        let (entries_before, bytes_before) = (pack.records.len(), pack.scanned);
        if total != pack.scanned {
            let old = std::fs::read(self.pack_path())?;
            let mut new = Vec::with_capacity(total as usize);
            for record in &keep {
                // Copy the record only if it is still where the index has it.
                let at = record.offset as usize;
                let bytes = old.get(at..at + record.size() as usize);
                let same = |(h, _): (Record, u64)| (h.key, h.sum) == (record.key, record.sum);
                let there = bytes.filter(|bytes| parse_header(bytes).is_some_and(same));
                new.extend_from_slice(there.unwrap_or_default());
            }
            if new.is_empty() {
                std::fs::remove_file(self.pack_path())?;
            } else {
                // A store compacts under its lock: process and address name it.
                let temp = format!("{PACK_FILE}.{}.{self:p}", std::process::id());
                let temp = self.dir.join(temp);
                let renamed = std::fs::write(&temp, &new)
                    .and_then(|()| std::fs::rename(&temp, self.pack_path()));
                if renamed.is_err() {
                    let _ = std::fs::remove_file(&temp);
                }
                renamed?;
            }
            pack.reindex(&new);
        }
        Ok(GcReport {
            entries_before,
            entries_evicted: entries_before - pack.records.len(),
            bytes_freed: bytes_before.saturating_sub(pack.scanned),
            bytes_kept: pack.scanned,
        })
    }

    /// Compact the pack down to `max_bytes`, evicting least-recently-used
    /// records, and remove what older layouts and interrupted compactions
    /// left in the directory.
    pub fn gc(&self, max_bytes: u64) -> GcReport {
        let mut pack = self.loaded();
        pack.resident = None;
        self.refresh(&mut pack);
        let compacted = self.compact(&mut pack, max_bytes, u64::MAX);
        let mut report = compacted.unwrap_or_default();
        for entry in std::fs::read_dir(&self.dir).into_iter().flatten().flatten() {
            let name = entry.file_name();
            let name = name.to_string_lossy();
            let stale = name.starts_with(PACK_FILE) && name != PACK_FILE
                || name.ends_with(".json")
                    && (name.starts_with("unit-") || name.starts_with("fn-"))
                || name.ends_with(".ref") && name.starts_with("ref-");
            let len = entry.metadata().map_or(0, |meta| meta.len());
            if stale && std::fs::remove_file(entry.path()).is_ok() {
                report.entries_before += 1;
                report.entries_evicted += 1;
                report.bytes_freed += len;
            }
        }
        report
    }
}

/// The inverse of the third line [`ArtifactStore::queue_unit`] writes:
/// `Some(None)` for a record saved without its edits.
fn decode_edits(text: &str) -> Option<Option<EditSet>> {
    let document = Json::parse(text).ok()?;
    if document == Json::Null {
        return Some(None);
    }
    let mut edits = EditSet::default();
    for pair in document.as_array()?.chunks(2) {
        let [position, text] = pair else {
            return None;
        };
        let position = u32::try_from(position.as_int()?).ok()?;
        edits.insert(position, text.as_str()?.to_string());
    }
    Some(Some(edits))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::ir::MapSpec;
    use crate::plan::json::plans_to_json;
    use crate::program::UNLINKED;
    use ompdart_frontend::omp::MapType;
    use std::sync::Barrier;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("ompdart-store-test-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn temp_store(tag: &str) -> ArtifactStore {
        ArtifactStore::open(temp_dir(tag))
    }

    fn unit_key(source: &str, options: &OmpDartOptions, link: u64) -> RecordKey {
        content_key(source).unit(options, link)
    }

    /// One plan mapping `var`, so different saves hold different bytes.
    fn plans_of(var: &str) -> Vec<MappingPlan> {
        let mut plan = MappingPlan {
            function: "main".into(),
            ..Default::default()
        };
        plan.maps.push(MapSpec::new(var, MapType::ToFrom));
        vec![plan]
    }

    fn sample_plans() -> Vec<MappingPlan> {
        plans_of("a")
    }

    fn pending(name: &str, source: &str, link: u64, plans: &[MappingPlan]) -> PendingUnitSave {
        PendingUnitSave {
            name: name.to_string(),
            source: source.to_string(),
            link,
            plans: plans.to_vec(),
            stats: AnalysisStats::default(),
            functions: Vec::new(),
        }
    }

    /// Save one unit through the public batch entry point.
    fn save(store: &ArtifactStore, name: &str, source: &str, options: &OmpDartOptions, link: u64) {
        let batch = [pending(name, source, link, &sample_plans())];
        store.save_many(options, &batch).unwrap();
    }

    /// The names in `dir`, sorted.
    fn listing(dir: &std::path::Path) -> Vec<String> {
        let entries = std::fs::read_dir(dir).into_iter().flatten().flatten();
        let mut names: Vec<String> = entries
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .collect();
        names.sort();
        names
    }

    #[test]
    fn round_trip_hits_only_on_exact_key() {
        let store = temp_store("roundtrip");
        let options = OmpDartOptions::default();
        let stats = AnalysisStats {
            map_clauses: 1,
            ..Default::default()
        };
        let mut unit = pending("demo.c", "int main() {}", UNLINKED, &sample_plans());
        unit.stats = stats;
        let written = store.save_many(&options, &[unit]).unwrap();
        assert_eq!(written, vec![store.pack_path()]);
        assert_eq!(store.entry_count(), 1);
        assert_eq!(listing(&store.dir), [PACK_FILE]);

        // This instance (index built from what it wrote) and a new one
        // (index built from the file) agree.
        for store in [&store, &ArtifactStore::open(&store.dir)] {
            let hit = store.load("int main() {}", &options, UNLINKED).unwrap();
            assert_eq!(hit.plans, sample_plans());
            assert_eq!(hit.stats, stats);

            // Different source, options, or link fingerprint must miss.
            assert!(store.load("int main() { }", &options, UNLINKED).is_none());
            let other_options = OmpDartOptions {
                pessimistic_globals: true,
                ..OmpDartOptions::default()
            };
            assert!(store
                .load("int main() {}", &other_options, UNLINKED)
                .is_none());
            assert!(store.load("int main() {}", &options, 0xdead_beef).is_none());
        }
        let _ = std::fs::remove_dir_all(&store.dir);
    }

    /// The key is the *content*, not the name: a renamed or copied file
    /// hits the record its previous name wrote, and a record stays live
    /// while any name's latest save refers to its content — an edit of one
    /// owner does not take shared content from under the other.
    #[test]
    fn content_addressing_shares_entries_across_names() {
        let store = temp_store("content");
        let options = OmpDartOptions::default();
        save(&store, "a.c", "void f() {}", &options, UNLINKED);
        // The "renamed file" does not even participate in the lookup —
        // only the content does.
        assert!(store.load("void f() {}", &options, UNLINKED).is_some());

        // A second unit with identical content, then an edit of the first.
        save(&store, "b.c", "void f() {}", &options, UNLINKED);
        save(&store, "a.c", "void f() { f(); }", &options, UNLINKED);
        assert_eq!(store.entry_count(), 2, "one live record per name");

        // b.c's content survives a.c's edit, a compaction included; a.c's
        // superseded record (same content, written first) is what goes.
        let report = store.gc(u64::MAX);
        assert_eq!((report.entries_before, report.entries_evicted), (3, 1));
        for store in [&store, &ArtifactStore::open(&store.dir)] {
            assert!(store.load("void f() {}", &options, UNLINKED).is_some());
            assert!(store
                .load("void f() { f(); }", &options, UNLINKED)
                .is_some());
        }
        let _ = std::fs::remove_dir_all(&store.dir);
    }

    /// Rewrite the header of the first record in `pack` through `edit`,
    /// keeping its checksum right: what a writer of another version, or a
    /// colliding key, would have left.
    fn reheader(pack: &mut [u8], edit: impl FnOnce(&mut [u8])) {
        let summed = HEADER_LEN - 8;
        edit(&mut pack[..summed]);
        let sum = hash_pair(&pack[..summed]).0;
        pack[summed..HEADER_LEN].copy_from_slice(&sum.to_le_bytes());
    }

    #[test]
    fn corrupt_and_stale_entries_are_rejected() {
        let store = temp_store("corrupt");
        let options = OmpDartOptions::default();
        save(&store, "x.c", "void f() {}", &options, UNLINKED);
        let path = store.pack_path();
        let intact = std::fs::read(&path).unwrap();
        let load = || ArtifactStore::open(&store.dir).load("void f() {}", &options, UNLINKED);
        assert!(load().is_some());

        // Not a pack at all: a miss, not a panic or a bad decode.
        std::fs::write(&path, "{ not a pack").unwrap();
        assert!(load().is_none());

        // A well-formed record of a future store version: never read.
        let mut future = intact.clone();
        reheader(&mut future, |head| head[6] = 99);
        std::fs::write(&path, &future).unwrap();
        assert!(load().is_none());

        // A format-12 pack: its unit records end with a fourth line, the
        // per-function plan-cache key snapshots this version no longer
        // writes. A miss, though the record is otherwise intact.
        let mut v12 = intact.clone();
        reheader(&mut v12, |head| head[6] = 12);
        std::fs::write(&path, &v12).unwrap();
        assert!(load().is_none());

        // A format-11 pack: its unit records were slotted by whether the
        // unit was analyzed inside a program, a slot this version never
        // writes again. A miss, though the record is otherwise intact.
        let mut v11 = intact.clone();
        reheader(&mut v11, |head| head[6] = 11);
        std::fs::write(&path, &v11).unwrap();
        assert!(load().is_none());

        // A format-10 pack: its imports fingerprints and plan keys hashed
        // whole callee summaries, which the projected keys of this version
        // do not cover. A miss, though the record is otherwise intact.
        let mut v10 = intact.clone();
        reheader(&mut v10, |head| head[6] = 10);
        std::fs::write(&path, &v10).unwrap();
        assert!(load().is_none());

        // Nor is anything a previous version wrote (no legacy reader): a v12
        // unit record (with key snapshots), a v11
        // unit record (in a slot of its own), a v10 unit record (keyed by
        // whole-summary fingerprints), a v9 interface
        // record (whose functions could lack propagation inputs), a v8
        // interface record (whose payload opened with a fingerprint), a v7
        // pack — whose unit records hold version-2 plan documents this
        // version has no reader for — with a unit and an interface record,
        // and a v5 interface record (kind 3 then) behind them. Nothing is
        // read, and all eight are gone from the pack once a compaction has
        // passed over it.
        let mut previous = Vec::new();
        let older = [
            (12u8, UNIT as u8),
            (11, UNIT as u8),
            (10, UNIT as u8),
            (9, INTERFACE as u8),
            (8, INTERFACE as u8),
            (7, UNIT as u8),
            (7, INTERFACE as u8),
            (5, 3),
        ];
        for (version, kind) in older {
            let mut other = intact.clone();
            reheader(&mut other, |head| (head[6], head[8]) = (version, kind));
            previous.extend_from_slice(&other);
        }
        std::fs::write(&path, &previous).unwrap();
        assert!(load().is_none());
        let upgraded = ArtifactStore::open(&store.dir);
        assert_eq!(
            upgraded.loaded().records.len(),
            0,
            "nothing of v12, v11, v10, v9, v8, v7 or v5 is indexed"
        );
        save(&upgraded, "y.c", "void g() {}", &options, UNLINKED);
        assert_eq!(upgraded.total_bytes(), 9 * intact.len() as u64);
        upgraded.gc(u64::MAX);
        assert_eq!(upgraded.total_bytes(), intact.len() as u64);
        assert!(upgraded.load("void g() {}", &options, UNLINKED).is_some());

        // A record under a key that differs in one word (its length).
        let mut other_key = intact.clone();
        reheader(&mut other_key, |head| head[16] ^= 1);
        std::fs::write(&path, &other_key).unwrap();
        assert!(load().is_none());

        // A payload that no longer sums up, though it still parses: the
        // variable name went from `a` to `b`.
        let mut lying = intact.clone();
        let at = intact
            .windows(9)
            .position(|w| w == b"\"var\":\"a\"")
            .unwrap();
        lying[at + 7] = b'b';
        std::fs::write(&path, &lying).unwrap();
        assert!(load().is_none());

        std::fs::write(&path, &intact).unwrap();
        assert!(load().is_some());
        let _ = std::fs::remove_dir_all(&store.dir);
    }

    /// Store migration: the v3 directory of `unit-*`/`fn-*`/`ref-*` files
    /// (and anything older) is never read — a miss — and leaves through
    /// `gc`, which touches nothing else in the directory.
    #[test]
    fn v3_files_are_never_read_and_leave_through_gc() {
        let store = temp_store("migrate");
        let options = OmpDartOptions::default();
        std::fs::create_dir_all(&store.dir).unwrap();
        let legacy = [
            "unit-00000000000000aa-00000000000000bb-00000000000000cc-00000000000000dd.json",
            "fn-00000000000000aa-00000000000000bb-00000000000000cc.json",
            "ref-00000000000000aa-00000000000000bb-00000000000000cc.ref",
            "ompdart.pack.123.0x7f00",
        ];
        for name in legacy {
            std::fs::write(store.dir.join(name), "{\"store_version\": 3}").unwrap();
        }
        std::fs::write(store.dir.join("notes.txt"), "not the store's").unwrap();
        assert!(store.load("void f() {}", &options, UNLINKED).is_none());
        assert_eq!(store.entry_count(), 0);

        // A save beside them lands in the pack and hits.
        save(&store, "old.c", "void f() {}", &options, UNLINKED);
        assert!(store.load("void f() {}", &options, UNLINKED).is_some());

        let report = store.gc(u64::MAX);
        assert_eq!((report.entries_before, report.entries_evicted), (5, 4));
        assert_eq!(listing(&store.dir), ["notes.txt", PACK_FILE]);
        assert!(store.load("void f() {}", &options, UNLINKED).is_some());
        let _ = std::fs::remove_dir_all(&store.dir);
    }

    /// Different option sets sharing one cache dir coexist, while the
    /// superseded content of the same (unit, options) pair is dead: it is
    /// not counted, and a compaction drops it, so disk is bounded by the
    /// unit count, not the save count.
    #[test]
    fn options_variants_coexist_and_superseded_versions_are_pruned() {
        let store = temp_store("prune");
        let defaults = OmpDartOptions::default();
        let pessimistic = OmpDartOptions {
            pessimistic_globals: true,
            ..OmpDartOptions::default()
        };
        save(&store, "a.c", "v1", &defaults, UNLINKED);
        save(&store, "a.c", "v1", &pessimistic, UNLINKED);
        assert_eq!(store.entry_count(), 2, "options variants must coexist");
        assert!(store.load("v1", &defaults, UNLINKED).is_some());
        assert!(store.load("v1", &pessimistic, UNLINKED).is_some());

        // New content for the default options: the old default record is
        // dead (until compacted it still answers — a revert would hit), the
        // other-options record is untouched.
        save(&store, "a.c", "v2", &defaults, UNLINKED);
        assert_eq!(store.entry_count(), 2);
        assert!(store.load("v1", &defaults, UNLINKED).is_some());
        store.gc(u64::MAX);
        assert!(store.load("v1", &defaults, UNLINKED).is_none());
        assert!(store.load("v2", &defaults, UNLINKED).is_some());
        assert!(store.load("v1", &pessimistic, UNLINKED).is_some());

        // Other units are untouched by pruning.
        save(&store, "b.c", "w1", &defaults, UNLINKED);
        save(&store, "a.c", "v3", &defaults, UNLINKED);
        assert_eq!(store.entry_count(), 3);
        store.gc(u64::MAX);
        assert!(store.load("w1", &defaults, UNLINKED).is_some());
        assert_eq!(store.entry_count(), 3);
        let _ = std::fs::remove_dir_all(&store.dir);
    }

    /// A unit has one slot of plans per option set, whatever program it
    /// was linked in: a record under another link fingerprint supersedes
    /// the unit's previous one, which still answers until a compaction
    /// drops it.
    #[test]
    fn a_units_plans_have_one_slot_whatever_the_link() {
        let store = temp_store("linkprune");
        let options = OmpDartOptions::default();
        let (alone, linked) = (0x1234_u64, 0xabcd_u64);
        save(&store, "u.c", "v1", &options, alone);
        save(&store, "u.c", "v1", &options, linked);
        assert_eq!(store.entry_count(), 1, "one live record per unit");
        assert!(store.load("v1", &options, alone).is_some());

        save(&store, "u.c", "v2", &options, linked);
        assert_eq!(store.entry_count(), 1);
        let report = store.gc(u64::MAX);
        assert_eq!(report.entries_evicted, 2);
        assert!(store.load("v1", &options, alone).is_none());
        assert!(store.load("v1", &options, linked).is_none());
        assert!(store.load("v2", &options, linked).is_some());
        let _ = std::fs::remove_dir_all(&store.dir);
    }

    /// `save_many` writes a whole program's records as one batch into the
    /// one pack; a re-flush supersedes exactly the records of the units that
    /// changed.
    #[test]
    fn save_many_batches_and_prunes_like_save() {
        let store = temp_store("many");
        let options = OmpDartOptions::default();
        let plans = sample_plans();
        let batch = |srcs: &[(&str, &str)]| -> Vec<PendingUnitSave> {
            (srcs.iter())
                .map(|(name, src)| pending(name, src, UNLINKED, &plans))
                .collect()
        };
        let first = batch(&[("a.c", "s1"), ("b.c", "s2"), ("c.c", "s3")]);
        store.save_many(&options, &first).unwrap();
        assert_eq!(store.entry_count(), 3);
        assert_eq!(listing(&store.dir), [PACK_FILE]);
        for src in ["s1", "s2", "s3"] {
            assert!(store.load(src, &options, UNLINKED).is_some());
        }

        // A re-flush with one edited unit: still three live records, and
        // the compaction drops the three superseded ones.
        let second = batch(&[("a.c", "s1-edited"), ("b.c", "s2"), ("c.c", "s3")]);
        store.save_many(&options, &second).unwrap();
        assert_eq!(store.entry_count(), 3);
        assert_eq!(store.gc(u64::MAX).entries_evicted, 3);
        assert!(store.load("s1", &options, UNLINKED).is_none());
        assert!(store.load("s1-edited", &options, UNLINKED).is_some());
        assert!(store.load("s2", &options, UNLINKED).is_some());

        // The empty batch is a no-op.
        assert!(store.save_many(&options, &[]).unwrap().is_empty());
        let _ = std::fs::remove_dir_all(&store.dir);
    }

    /// Size of the pack one sample unit makes.
    fn one_record_bytes(tag: &str) -> u64 {
        let probe = temp_store(tag);
        save(
            &probe,
            "probe.c",
            "p00",
            &OmpDartOptions::default(),
            UNLINKED,
        );
        let one = probe.total_bytes();
        assert_eq!(probe.gc(0).bytes_kept, 0);
        assert!(listing(&probe.dir).is_empty(), "an empty pack is no file");
        let _ = std::fs::remove_dir_all(&probe.dir);
        one
    }

    /// The batch flush enforces the size cap once, and never evicts a
    /// record the batch itself just wrote — only older ones age out.
    #[test]
    fn save_many_gc_protects_the_whole_batch() {
        let one = one_record_bytes("manycap-probe");
        let options = OmpDartOptions::default();
        // Room for roughly three records; one old record, then a batch of
        // three: the old one is the only eviction candidate.
        let store = temp_store("manycap").with_max_bytes(one * 3 + one / 2);
        save(&store, "old.c", "old", &options, UNLINKED);
        let plans = sample_plans();
        let batch: Vec<PendingUnitSave> = [("n0.c", "n00"), ("n1.c", "n01"), ("n2.c", "n02")]
            .iter()
            .map(|(name, src)| pending(name, src, UNLINKED, &plans))
            .collect();
        store.save_many(&options, &batch).unwrap();
        for src in ["n00", "n01", "n02"] {
            assert!(
                store.load(src, &options, UNLINKED).is_some(),
                "batch member {src} must survive its own flush"
            );
        }
        assert!(
            store.load("old", &options, UNLINKED).is_none(),
            "the pre-existing record must be the one evicted"
        );
        // A batch larger than the cap is kept whole all the same.
        let tight = temp_store("manycap-tight").with_max_bytes(one);
        tight.save_many(&options, &batch).unwrap();
        assert_eq!(tight.entry_count(), 3);
        let _ = std::fs::remove_dir_all(&store.dir);
        let _ = std::fs::remove_dir_all(&tight.dir);
    }

    #[test]
    fn missing_directory_degrades_to_miss() {
        let store = ArtifactStore::open("/nonexistent/ompdart-store");
        assert!(store
            .load("int x;", &OmpDartOptions::default(), UNLINKED)
            .is_none());
        assert_eq!(store.entry_count(), 0);
        assert_eq!(store.gc(0), GcReport::default());
    }

    /// Compaction under a cap evicts the least recently used first — a hit
    /// in this process refreshes a record — and reports its work.
    #[test]
    fn gc_evicts_least_recently_used_first() {
        let store = temp_store("gc");
        let options = OmpDartOptions::default();
        for (name, src) in [("a.c", "s1"), ("b.c", "s2"), ("c.c", "s3")] {
            save(&store, name, src, &options, UNLINKED);
        }
        assert_eq!(store.entry_count(), 3);
        let total = store.total_bytes();
        let one = total / 3;

        // Touch a.c (the oldest) via a load hit: b.c becomes the LRU.
        assert!(store.load("s1", &options, UNLINKED).is_some());

        let report = store.gc(total - one);
        assert_eq!((report.entries_before, report.entries_evicted), (3, 1));
        assert_eq!(report.bytes_kept, total - one);
        assert_eq!(report.bytes_freed, one);
        assert!(
            store.load("s1", &options, UNLINKED).is_some(),
            "recently-used record must survive"
        );
        assert!(
            store.load("s2", &options, UNLINKED).is_none(),
            "least-recently-used record must be evicted"
        );
        // The order survives in the file: the next process evicts c.c, the
        // older of the two by position.
        let next = ArtifactStore::open(&store.dir);
        assert_eq!(next.gc(one).entries_evicted, 1);
        assert!(next.load("s1", &options, UNLINKED).is_some());
        assert!(next.load("s3", &options, UNLINKED).is_none());

        // gc(0) clears everything, the file included.
        let report = store.gc(0);
        assert_eq!(report.bytes_kept, 0);
        assert_eq!(store.entry_count(), 0);
        assert!(listing(&store.dir).is_empty());
        let _ = std::fs::remove_dir_all(&store.dir);
    }

    /// A capped store stays under its limit on every save, and the record
    /// being written is never the one evicted.
    #[test]
    fn size_cap_is_enforced_on_save() {
        let one = one_record_bytes("cap-probe");
        let options = OmpDartOptions::default();
        // Room for roughly two records.
        let store = temp_store("cap").with_max_bytes(one * 2 + one / 2);
        for (i, name) in ["u0.c", "u1.c", "u2.c", "u3.c"].iter().enumerate() {
            let source = format!("src{i}");
            save(&store, name, &source, &options, UNLINKED);
            assert!(
                store.total_bytes() <= one * 2 + one / 2,
                "cap exceeded after saving {name}"
            );
            let on_disk = std::fs::metadata(store.pack_path()).unwrap().len();
            assert_eq!(on_disk, store.total_bytes());
            // The freshly written record always survives its own save.
            assert!(store.load(&source, &options, UNLINKED).is_some());
        }
        assert_eq!(store.entry_count(), 2);
        let _ = std::fs::remove_dir_all(&store.dir);
    }

    /// Counts calls, the way `protocol.rs` pins `write_frame`.
    struct CountingWriter {
        sink: Vec<u8>,
        writes: usize,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.writes += 1;
            self.sink.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    /// A flush of a whole program's unit and interface records is one
    /// `write` into one file; nothing else is ever created. A miss makes no
    /// system call and a hit writes nothing.
    #[test]
    fn a_flush_is_one_write_a_miss_no_call_and_a_hit_no_write() {
        let store = temp_store("onewrite");
        let options = OmpDartOptions::default();
        let plans = sample_plans();
        for (name, source) in [("a.c", "s1"), ("b.c", "s2"), ("c.c", "s3")] {
            let key = unit_key(source, &options, UNLINKED);
            store.queue_unit(name, key, &plans, &AnalysisStats::default(), None);
        }
        let source = interface_source(0);
        let exports = interface_of("a.c", &source);
        store.queue_interface("a.c", content_key(&source), &options, &exports);

        // What `flush` does with the queue, on a writer that counts.
        let batch = store.loaded().queue.clone();
        let mut out = CountingWriter {
            sink: Vec::new(),
            writes: 0,
        };
        append(&batch, &mut out).unwrap();
        assert_eq!(out.writes, 1, "the whole queue must go out in one write");
        assert_eq!(out.sink, batch);
        let mut index = Pack::default();
        index.index(&batch, 0);
        assert_eq!(index.records.len(), 4);

        assert_eq!(store.flush().unwrap(), 4);
        assert_eq!(listing(&store.dir), [PACK_FILE]);
        assert_eq!(std::fs::read(store.pack_path()).unwrap(), batch);

        // A new instance reads the pack once; then the directory can go
        // away under it: misses stay misses and hits stay hits, because
        // neither touches the file system.
        let fresh = ArtifactStore::open(&store.dir);
        assert!(fresh.load("s1", &options, UNLINKED).is_some());
        let gone = store.dir.with_extension("gone");
        let _ = std::fs::remove_dir_all(&gone);
        std::fs::rename(&store.dir, &gone).unwrap();
        assert!(fresh.load("never saved", &options, UNLINKED).is_none());
        assert!(fresh.load("s2", &options, UNLINKED).is_some());
        let interface = fresh.load_interface(content_key(&source), &options, "a.c");
        assert_eq!(interface, Some(exports));
        std::fs::rename(&gone, &store.dir).unwrap();

        // After a flush the bytes are released and a hit is a positioned
        // read: still no write — the pack's bytes and times do not move.
        assert_eq!(fresh.flush().unwrap(), 0);
        assert!(fresh.loaded().resident.is_none());
        let before = std::fs::metadata(store.pack_path()).unwrap();
        for _ in 0..3 {
            assert!(fresh.load("s3", &options, UNLINKED).is_some());
            assert!(fresh.load("never saved", &options, UNLINKED).is_none());
        }
        let after = std::fs::metadata(store.pack_path()).unwrap();
        assert_eq!(before.len(), after.len());
        assert_eq!(before.modified().unwrap(), after.modified().unwrap());
        assert_eq!(listing(&store.dir), [PACK_FILE]);
        let _ = std::fs::remove_dir_all(&store.dir);
    }

    // -----------------------------------------------------------------
    // Degrade to miss: whatever happens to the pack, a hit is exactly what
    // was saved and everything else is a miss.
    // -----------------------------------------------------------------

    /// What a populated pack must answer: per unit source the plan JSON
    /// saved under it (and the rewrite its edit list makes), and per
    /// interface source the interface saved under it.
    struct Saved {
        units: Vec<(String, String)>,
        interfaces: Vec<(String, UnitExports)>,
    }

    /// The edit list saved with unit `n`: two insertions whose text needs
    /// escaping, at positions inside `int unit_<n>(void);`.
    fn edits_of(n: usize) -> EditSet {
        let mut edits = EditSet::default();
        edits.insert(4, format!("/* \"{n}\" */\n"));
        edits.insert(4 + n as u32, "\t#pragma omp target update to(a)\n".into());
        edits
    }

    /// A unit whose interface has a bit of everything: a static, a global
    /// effect, calls with by-reference arguments, a callee with a prototype.
    fn interface_source(n: usize) -> String {
        format!(
            "double shared_{n}[8];\nvoid sink_{n}(const double *p, int n);\n\
             static void local_{n}(double *p) {{ p[0] = shared_{n}[1]; }}\n\
             void entry_{n}(double *q) {{\n  local_{n}(q);\n  local_{n}(shared_{n});\n\
             \x20 sink_{n}(q, {n});\n  other_{n}();\n}}\n"
        )
    }

    /// The interface of `source`, parsed under the name `name`.
    fn interface_of(name: &str, source: &str) -> UnitExports {
        let session = crate::pipeline::AnalysisSession::new();
        let unit = session.summarize(name, source).unwrap();
        UnitExports::decode(name, &encoded(unit.exports())).unwrap()
    }

    fn encoded(exports: &UnitExports) -> String {
        let mut out = Vec::new();
        assert!(exports.encode(&mut out));
        String::from_utf8(out).unwrap()
    }

    /// A unit that parsed defines each name once, and so does every
    /// interface record the store decodes: one naming a function twice is
    /// not read, so its unit is parsed instead of linked.
    #[test]
    fn an_interface_defining_a_name_twice_is_not_decoded() {
        let payload = encoded(&interface_of("a.c", &interface_source(0)));
        assert!(UnitExports::decode("a.c", &payload).is_some());
        assert!(payload.contains(" entry_0 "), "{payload}");
        let twice = payload.replace(" entry_0 ", " local_0 ");
        assert!(UnitExports::decode("a.c", &twice).is_none(), "{twice}");
    }

    /// Three flushes into `dir`: unit and interface records interleaved,
    /// one unit saved twice (a dead record in the middle of the pack).
    fn populate(dir: &std::path::Path) -> Saved {
        let store = ArtifactStore::open(dir);
        let options = OmpDartOptions::default();
        let mut saved = Saved {
            units: Vec::new(),
            interfaces: Vec::new(),
        };
        for round in 0..3 {
            for i in 0..2 {
                let n = round * 2 + i;
                let (name, source) = (format!("u{n}.c"), format!("int unit_{n}(void);"));
                let plans = plans_of(&format!("v{n}"));
                let key = unit_key(&source, &options, UNLINKED);
                if n == 3 {
                    // Superseded within the same flush by the save below.
                    store.queue_unit(
                        &name,
                        unit_key("old", &options, UNLINKED),
                        &plans,
                        &AnalysisStats::default(),
                        None,
                    );
                }
                store.queue_unit(
                    &name,
                    key,
                    &plans,
                    &AnalysisStats::default(),
                    Some(&edits_of(n)),
                );
                saved.units.push((source, plans_to_json(&plans)));
            }
            let source = interface_source(round);
            let exports = interface_of(&format!("i{round}.c"), &source);
            store.queue_interface(
                &format!("i{round}.c"),
                content_key(&source),
                &options,
                &exports,
            );
            saved.interfaces.push((source, exports));
            store.flush().unwrap();
        }
        saved
    }

    /// An interface served from a record its unit has superseded (an edit
    /// reverted) or never wrote (a file renamed) is that unit's latest from
    /// then on: it survives the compaction that drops the dead one, and a
    /// hit on a unit's latest queues nothing.
    #[test]
    fn an_interface_hit_on_a_record_not_its_units_latest_is_queued_again() {
        let store = temp_store("revive");
        let options = OmpDartOptions::default();
        let (old, new) = (interface_source(0), interface_source(1));
        for source in [&old, &new] {
            let exports = interface_of("u.c", source);
            store.queue_interface("u.c", content_key(source), &options, &exports);
            store.flush().unwrap();
        }
        let old_key = content_key(&old);
        let reverted = store.load_interface(old_key, &options, "u.c");
        assert_eq!(reverted, Some(interface_of("u.c", &old)));
        assert_eq!(store.flush().unwrap(), 1, "the revert is queued again");
        let report = store.gc(u64::MAX);
        assert_eq!((report.entries_before, report.entries_evicted), (3, 2));

        let fresh = ArtifactStore::open(&store.dir);
        assert!(fresh.load_interface(old_key, &options, "u.c").is_some());
        assert_eq!(fresh.flush().unwrap(), 0, "a unit's latest is left alone");
        assert!(fresh
            .load_interface(old_key, &options, "renamed.c")
            .is_some());
        assert_eq!(fresh.flush().unwrap(), 1, "the new name owns a record");
        for name in ["u.c", "renamed.c"] {
            assert!(fresh.load_interface(old_key, &options, name).is_some());
        }
        assert_eq!(fresh.flush().unwrap(), 0);
        let _ = std::fs::remove_dir_all(&store.dir);
    }

    /// Look every saved key up in a new store over `dir`: a hit must hold
    /// exactly what was saved. Returns which keys hit: units, then
    /// interfaces.
    fn lookups(dir: &std::path::Path, saved: &Saved) -> Vec<bool> {
        let store = ArtifactStore::open(dir);
        let options = OmpDartOptions::default();
        let mut hits = Vec::new();
        for (source, plans_json) in &saved.units {
            let hit = store.load(source, &options, UNLINKED);
            if let Some(unit) = &hit {
                assert_eq!(
                    &plans_to_json(&unit.plans),
                    plans_json,
                    "wrong plans for `{source}`"
                );
                assert_eq!(unit.stats, AnalysisStats::default());
                // The rewrite a hit makes is the one the saved edits make.
                let n = hits.len();
                let rewritten = unit.edits.as_ref().map(|edits| edits.apply(source));
                assert_eq!(
                    rewritten,
                    Some(edits_of(n).apply(source)),
                    "wrong rewrite for `{source}`"
                );
            }
            hits.push(hit.is_some());
        }
        for (i, (source, exports)) in saved.interfaces.iter().enumerate() {
            let name = format!("i{i}.c");
            let hit = store.load_interface(content_key(source), &options, &name);
            if let Some(hit) = &hit {
                assert_eq!(hit, exports, "wrong interface for `{name}`");
            }
            hits.push(hit.is_some());
        }
        hits
    }

    /// One damaged pack: every lookup is right or a miss (`lookups`), the
    /// records `must_hit` names are found, and the store still takes a save
    /// and a compaction, after which nothing that hit is lost.
    fn check_damaged(dir: &std::path::Path, saved: &Saved, must_hit: &[bool], what: &str) {
        let hits = lookups(dir, saved);
        for (i, (&hit, &must)) in hits.iter().zip(must_hit).enumerate() {
            assert!(hit || !must, "{what}: intact record {i} was not found");
        }
        let store = ArtifactStore::open(dir);
        let options = OmpDartOptions::default();
        save(&store, "new.c", "int fresh;", &options, UNLINKED);
        assert!(
            store.load("int fresh;", &options, UNLINKED).is_some(),
            "{what}"
        );
        store.gc(u64::MAX);
        let after = lookups(dir, saved);
        assert_eq!(after, hits, "{what}: a compaction changed what hits");
        assert!(ArtifactStore::open(dir)
            .load("int fresh;", &options, UNLINKED)
            .is_some());
    }

    /// xorshift, as in `tests/properties.rs`.
    fn roll(rng: &mut u64, bound: usize) -> usize {
        *rng ^= *rng << 13;
        *rng ^= *rng >> 7;
        *rng ^= *rng << 17;
        (*rng % bound as u64) as usize
    }

    #[test]
    fn a_damaged_pack_degrades_to_misses_and_never_lies() {
        let dir = temp_dir("damage");
        let saved = populate(&dir);
        let path = dir.join(PACK_FILE);
        let intact = std::fs::read(&path).unwrap();
        // Record extents, and which saved key (if any) each record answers:
        // units in order (the dead `old` record answers none), then
        // interfaces.
        let mut index = Pack::default();
        index.index(&intact, 0);
        let extents: Vec<(usize, usize)> = (index.records.iter())
            .map(|r| (r.offset as usize, (r.offset + r.size()) as usize))
            .collect();
        assert_eq!(extents.len(), 10);
        assert_eq!(
            extents.last().unwrap().1,
            intact.len(),
            "no slack in an intact pack"
        );
        let options = OmpDartOptions::default();
        let answers: Vec<Option<usize>> = (index.records.iter())
            .map(|r| {
                let unit =
                    |(source, _): &(String, String)| unit_key(source, &options, UNLINKED) == r.key;
                let interface = |(source, _): &(String, UnitExports)| {
                    content_key(source).interface(&options) == r.key
                };
                let interfaces = saved.units.len();
                (saved.units.iter().position(unit))
                    .or_else(|| Some(interfaces + saved.interfaces.iter().position(interface)?))
            })
            .collect();
        let keys = saved.units.len() + saved.interfaces.len();
        // The keys whose records lie wholly outside `damaged`.
        let untouched = |damaged: std::ops::Range<usize>| -> Vec<bool> {
            let mut must = vec![false; keys];
            for (&(start, end), answer) in extents.iter().zip(&answers) {
                if let (Some(key), true) = (answer, end <= damaged.start || start >= damaged.end) {
                    must[*key] = true;
                }
            }
            must
        };
        let write = |bytes: &[u8]| {
            let _ = std::fs::remove_dir_all(&dir);
            std::fs::create_dir_all(&dir).unwrap();
            std::fs::write(&path, bytes).unwrap();
        };
        assert_eq!(lookups(&dir, &saved), vec![true; keys]);

        // Truncation at and around every record boundary and header end.
        for &(start, end) in &extents {
            for cut in [
                start,
                start + 1,
                start + HEADER_LEN - 1,
                start + HEADER_LEN,
                start + HEADER_LEN + 1,
                end - 1,
            ] {
                write(&intact[..cut]);
                check_damaged(
                    &dir,
                    &saved,
                    &untouched(cut..intact.len()),
                    &format!("cut at {cut}"),
                );
            }
        }

        // One flipped bit: every bit of one header, the low bit of every
        // byte of one unit's and one interface's payload (a digit or a
        // letter becomes its neighbour: a position, an effect, a name that
        // still parses), and a seeded sample of the rest.
        let mut rng = 0x9e37_79b9_7f4a_7c15_u64;
        // The first record of each kind that answers a saved key.
        let of_kind = |kind: u64| {
            let live =
                |(r, answer): &(&Record, &Option<usize>)| r.key[0] == kind && answer.is_some();
            let at = index
                .records
                .iter()
                .zip(&answers)
                .position(|pair| live(&pair));
            extents[at.expect("a live record of every kind")]
        };
        let (unit, interface) = (of_kind(UNIT), of_kind(INTERFACE));
        let mut flips: Vec<(usize, u8)> = (0..HEADER_LEN * 8)
            .map(|bit| (unit.0 + bit / 8, 1 << (bit % 8)))
            .collect();
        for payload in [unit, interface] {
            flips.extend((payload.0 + HEADER_LEN..payload.1).map(|at| (at, 1)));
        }
        flips.extend((0..300).map(|_| (roll(&mut rng, intact.len()), 1 << roll(&mut rng, 8))));
        for (at, bit) in flips {
            let mut bytes = intact.clone();
            bytes[at] ^= bit;
            write(&bytes);
            check_damaged(
                &dir,
                &saved,
                &untouched(at..at + 1),
                &format!("bit {bit:#x} of byte {at}"),
            );
        }

        // A stretch overwritten, and garbage inserted: zeroes, `0xff`, noise,
        // a copy of a real header (a record start that leads nowhere).
        for case in 0..200 {
            let (at, len) = (roll(&mut rng, intact.len()), 1 + roll(&mut rng, 200));
            let garbage: Vec<u8> = match case % 4 {
                0 => vec![0; len],
                1 => vec![0xff; len],
                2 => (0..len).map(|_| roll(&mut rng, 256) as u8).collect(),
                _ => intact[extents[1].0..]
                    .iter()
                    .copied()
                    .cycle()
                    .take(len.min(HEADER_LEN + 3))
                    .collect(),
            };
            let mut bytes = intact.clone();
            let damaged = if case % 2 == 0 {
                let end = (at + garbage.len()).min(bytes.len());
                bytes[at..end].copy_from_slice(&garbage[..end - at]);
                at..end
            } else {
                // Inserted inside a record it breaks it; between two it
                // breaks none.
                bytes.splice(at..at, garbage.iter().copied());
                at..at + usize::from(!extents.iter().any(|&(start, _)| start == at))
            };
            // A copied header announces a payload that is not there: the
            // record after it may be taken for that payload if nothing
            // tells them apart, so only insist on the records before — and
            // not on the record it copies, whose key it now claims.
            let mut must = untouched(damaged.clone());
            if case % 4 == 3 {
                must = untouched(damaged.start..intact.len());
                must[answers[1].unwrap()] = false;
            }
            write(&bytes);
            check_damaged(&dir, &saved, &must, &format!("garbage case {case} at {at}"));
        }

        // No bytes, no file, no directory, a directory in the file's place.
        write(&[]);
        check_damaged(&dir, &saved, &vec![false; keys], "an empty pack");
        std::fs::remove_file(&path).unwrap();
        check_damaged(&dir, &saved, &vec![false; keys], "no pack");
        std::fs::remove_dir_all(&dir).unwrap();
        check_damaged(&dir, &saved, &vec![false; keys], "no directory");
        std::fs::remove_dir_all(&dir).unwrap();
        std::fs::create_dir_all(&path).unwrap();
        assert_eq!(lookups(&dir, &saved), vec![false; keys]);
        let blocked = ArtifactStore::open(&dir);
        let batch = [pending("new.c", "int fresh;", UNLINKED, &sample_plans())];
        assert!(
            blocked.save_many(&options, &batch).is_err(),
            "a lost write is reported"
        );
        assert!(blocked.load("int fresh;", &options, UNLINKED).is_none());
        blocked.gc(0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A read-only directory: what is there is served, a write is lost (or,
    /// for a process allowed to write anyway, lands), nothing panics.
    #[cfg(unix)]
    #[test]
    fn a_read_only_directory_serves_hits_and_loses_writes() {
        use std::os::unix::fs::PermissionsExt;
        let dir = temp_dir("readonly");
        let saved = populate(&dir);
        let keys = saved.units.len() + saved.interfaces.len();
        let set_mode = |path: &std::path::Path, mode: u32| {
            std::fs::set_permissions(path, std::fs::Permissions::from_mode(mode)).unwrap();
        };
        set_mode(&dir.join(PACK_FILE), 0o444);
        set_mode(&dir, 0o555);
        assert_eq!(lookups(&dir, &saved), vec![true; keys]);
        let store = ArtifactStore::open(&dir);
        let options = OmpDartOptions::default();
        let batch = [pending("new.c", "int fresh;", UNLINKED, &sample_plans())];
        let written = store.save_many(&options, &batch);
        assert_eq!(
            written.is_ok(),
            store.load("int fresh;", &options, UNLINKED).is_some()
        );
        store.gc(u64::MAX);
        store.gc(0);
        // Whatever the two passes could do, nothing answers wrongly.
        lookups(&dir, &saved);
        set_mode(&dir, 0o755);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Two stores over one directory, as two processes would be: they flush
    /// the same and different keys at the same time, and then one compacts
    /// while the other appends. Every key hits with the right bytes or
    /// misses, nothing appended without a concurrent compaction is lost,
    /// and each instance's next flush shows it what the other left.
    #[test]
    fn two_instances_over_one_directory() {
        const ROUNDS: usize = 20;
        let dir = temp_dir("two");
        let options = OmpDartOptions::default();
        let source = |who: usize, round: usize| format!("int by_{who}_in_{round};");
        let plans = |who: usize, round: usize| plans_of(&format!("v_{who}_{round}"));
        let right_or_miss = |store: &ArtifactStore, who: usize, round: usize| -> bool {
            let hit = store.load(&source(who, round), &options, UNLINKED);
            if let Some(unit) = &hit {
                assert_eq!(
                    unit.plans,
                    plans(who, round),
                    "wrong bytes for {who}/{round}"
                );
            }
            hit.is_some()
        };
        // `who` saves its own key of the round and the key both share, under
        // names of that round only: nothing is superseded but one of the
        // two saves of a shared key, so no flush compacts on its own.
        let flush_round = |store: &ArtifactStore, who: usize, round: usize| {
            let (own, shared) = (format!("own{who}_{round}.c"), format!("shared{round}.c"));
            let batch = [
                pending(&own, &source(who, round), UNLINKED, &plans(who, round)),
                pending(&shared, &source(2, round), UNLINKED, &plans(2, round)),
            ];
            store.save_many(&options, &batch).unwrap();
        };

        // Both append, round by round at the same moment.
        let stores = [ArtifactStore::open(&dir), ArtifactStore::open(&dir)];
        let barrier = Barrier::new(2);
        std::thread::scope(|scope| {
            for (who, store) in stores.iter().enumerate() {
                let (barrier, flush_round) = (&barrier, &flush_round);
                scope.spawn(move || {
                    for round in 0..ROUNDS {
                        barrier.wait();
                        flush_round(store, who, round);
                    }
                });
            }
        });
        // One more flush each, and both see everything: appends alone lose
        // nothing.
        for (who, store) in stores.iter().enumerate() {
            flush_round(store, who, ROUNDS);
        }
        flush_round(&stores[0], 0, ROUNDS + 1);
        let fresh = ArtifactStore::open(&dir);
        for store in stores.iter().chain([&fresh]) {
            for round in 0..=ROUNDS {
                for who in 0..3 {
                    assert!(right_or_miss(store, who, round), "{who}/{round} was lost");
                }
            }
        }
        assert_eq!(listing(&dir), [PACK_FILE]);

        // One appends new content under ever new names (all of it stays
        // live) while the other compacts under a cap that evicts.
        let cap = fresh.total_bytes() / 2;
        std::thread::scope(|scope| {
            let (barrier, stores, options) = (&barrier, &stores, &options);
            scope.spawn(move || {
                for round in 0..ROUNDS {
                    barrier.wait();
                    let name = format!("late{round}.c");
                    let batch = [pending(
                        &name,
                        &source(3, round),
                        UNLINKED,
                        &plans(3, round),
                    )];
                    stores[0].save_many(options, &batch).unwrap();
                }
            });
            scope.spawn(move || {
                for _ in 0..ROUNDS {
                    barrier.wait();
                    stores[1].gc(cap);
                }
            });
        });
        // After each has flushed once more, all three views agree on what
        // survived, and whatever hits is right.
        for (who, store) in stores.iter().enumerate() {
            flush_round(store, who, ROUNDS + 2);
        }
        flush_round(&stores[0], 0, ROUNDS + 3);
        let fresh = ArtifactStore::open(&dir);
        let mut survivors = 0;
        for round in 0..ROUNDS + 3 {
            for who in 0..4 {
                let on_disk = right_or_miss(&fresh, who, round);
                survivors += usize::from(on_disk);
                for store in &stores {
                    assert_eq!(right_or_miss(store, who, round), on_disk, "{who}/{round}");
                }
            }
        }
        assert!(survivors > 0);
        let names = listing(&dir);
        assert_eq!(
            names,
            [PACK_FILE],
            "no temp file may outlive its compaction"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
