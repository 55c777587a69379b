//! The process's allocator: the system allocator, with the repo's
//! counting shim (`ompdart_bench::alloc_counter`) switched in only while a
//! probe asks for counts.
//!
//! The shim bumps two shared atomics on every allocation. With two pool
//! workers allocating at once that cache line bounces between cores and a
//! cold 1000-unit analysis takes 62 ms instead of 37 ms on the baseline
//! machine, so it must be off whenever time is being measured.

use ompdart_bench::alloc_counter::{self, AllocSnapshot, CountingAllocator};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, Ordering};

static COUNTING: AtomicBool = AtomicBool::new(false);

pub struct GatedCounter;

// SAFETY: every call is passed on unchanged to `CountingAllocator` or to
// `System`. `CountingAllocator` itself hands every call to `System`, so
// memory obtained on either side of a switch may be freed or resized on
// the other. The flag is a statistic switch and publishes no data, hence
// `Relaxed`.
unsafe impl GlobalAlloc for GatedCounter {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            CountingAllocator.alloc(layout)
        } else {
            System.alloc(layout)
        }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            CountingAllocator.alloc_zeroed(layout)
        } else {
            System.alloc_zeroed(layout)
        }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            CountingAllocator.realloc(ptr, layout, new_size)
        } else {
            System.realloc(ptr, layout, new_size)
        }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

/// Run `f` with counting on; returns what it allocated (on all threads).
pub fn counted<R>(f: impl FnOnce() -> R) -> (R, AllocSnapshot) {
    let before = alloc_counter::snapshot();
    COUNTING.store(true, Ordering::Relaxed);
    let result = f();
    COUNTING.store(false, Ordering::Relaxed);
    (result, alloc_counter::snapshot().since(&before))
}
