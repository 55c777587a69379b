//! A counting `#[global_allocator]` shim for allocation-budget proofs.
//!
//! Wraps the system allocator and counts every `alloc`/`realloc`/
//! `alloc_zeroed` call (and the bytes they request), and the bytes live
//! (what `dealloc` and a shrinking `realloc` give back are subtracted), in
//! relaxed atomics — cheap enough to leave enabled for a whole benchmark
//! run. Register it in a bench or test *binary* (each binary owns its one
//! global allocator):
//!
//! ```ignore
//! #[global_allocator]
//! static ALLOC: ompdart_bench::alloc_counter::CountingAllocator =
//!     ompdart_bench::alloc_counter::CountingAllocator;
//! ```
//!
//! then bracket the measured region with [`snapshot`] and subtract. The
//! counters are process-wide: measure single-threaded (or accept that
//! other threads' allocations land in the window).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static REALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicI64 = AtomicI64::new(0);

/// System-allocator wrapper that counts allocation calls, bytes requested
/// and bytes live.
pub struct CountingAllocator;

// SAFETY: defers every operation verbatim to `System`; the counters are
// plain relaxed atomics with no allocation of their own.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        LIVE.fetch_add(layout.size() as i64, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        LIVE.fetch_add(layout.size() as i64, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // A realloc is one more allocator round-trip; count the grown
        // portion so `bytes` tracks total requested, not peak.
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        REALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(
            new_size.saturating_sub(layout.size()) as u64,
            Ordering::Relaxed,
        );
        LIVE.fetch_add(new_size as i64 - layout.size() as i64, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as i64, Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }
}

/// Cumulative counter values since process start.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AllocSnapshot {
    /// Allocator calls (`alloc` + `alloc_zeroed` + `realloc`).
    pub allocations: u64,
    /// The `realloc` calls among them: buffers that grew.
    pub reallocations: u64,
    /// Bytes requested by those calls.
    pub bytes: u64,
    /// Bytes allocated and not yet given back. Between two snapshots, the
    /// net growth: negative when the window freed more than it allocated.
    /// Memory freed by an allocator other than [`CountingAllocator`] (one
    /// that switches counting off) is never subtracted.
    pub live: i64,
}

impl AllocSnapshot {
    /// Counters spent since an earlier snapshot.
    pub fn since(&self, earlier: &AllocSnapshot) -> AllocSnapshot {
        AllocSnapshot {
            allocations: self.allocations - earlier.allocations,
            reallocations: self.reallocations - earlier.reallocations,
            bytes: self.bytes - earlier.bytes,
            live: self.live - earlier.live,
        }
    }
}

/// Read the process-wide counters. Zero forever unless the binary
/// registered [`CountingAllocator`] as its `#[global_allocator]`.
pub fn snapshot() -> AllocSnapshot {
    AllocSnapshot {
        allocations: ALLOCATIONS.load(Ordering::Relaxed),
        reallocations: REALLOCATIONS.load(Ordering::Relaxed),
        bytes: BYTES.load(Ordering::Relaxed),
        live: LIVE.load(Ordering::Relaxed),
    }
}
