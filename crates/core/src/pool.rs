//! The session's persistent worker pool: the one fan-out engine.
//!
//! Every index-parallel map of the analysis — the per-unit summarize and
//! plan fan-outs of a program round, the per-function plan fan-out, the link
//! wavefronts and [`crate::Ompdart::analyze_batch`] — goes through
//! [`pool_map`]: one lazily-spawned, process-wide pool of workers that pull
//! indices from a shared claim cursor and write results into pre-sized
//! slots.
//!
//! * **One job at a time.** The pool runs a single index-parallel job; the
//!   submitting thread participates in the claim loop, so even a pool with
//!   zero workers (single-core hosts) makes progress. A second concurrent
//!   submitter finds the pool busy and runs its job on its own thread: the
//!   job in flight already owns the hardware.
//! * **Nested fan-outs run inline.** A pool task that itself calls
//!   `pool_map` (the per-function plan fan-out inside the per-unit program
//!   fan-out) executes sequentially on its own thread instead of spawning
//!   a second layer of threads under the first — the outer level already
//!   owns the hardware.
//! * **Claim-index result slots.** Each index is claimed exactly once via
//!   `AtomicUsize::fetch_add`, so each result cell is written exactly once
//!   and never contended — no per-slot mutex.
//!
//! Results are bitwise independent of worker count by construction: the
//! claim order affects only *which thread* computes an index, never which
//! value lands in its slot. A panicking task's own payload reaches the
//! submitter, on every path.
//!
//! The pool counts jobs, items, inline/busy splits, and the submitter's
//! wait time on job retirement into the process-wide
//! [`crate::stats::ProcessStats`] table.

use crate::stats::{ProcessCounter, PROCESS};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::time::Instant;

thread_local! {
    /// True while this thread is executing a pool task (worker claim loop
    /// or submitter claim loop): nested fan-outs run inline.
    static IN_POOL_TASK: Cell<bool> = const { Cell::new(false) };
}

/// One index-parallel job: a borrowed task lifetime-erased to `'static`.
///
/// # Safety protocol
///
/// The submitter owns the real task and MUST NOT return from [`Pool::run`]
/// until no worker can touch `task` again. That is guaranteed by the
/// retirement handshake: the submitter removes the job from the pool state
/// (no new worker can join), then blocks until `finished == len` *and*
/// `active == 0` — every worker that ever copied the task reference has
/// decremented `active` under the state lock after its last use.
struct JobCore {
    len: usize,
    /// Worker-slot budget for this job (the submitter occupies one slot
    /// implicitly; at most `width - 1` pool workers join).
    width: usize,
    claim: AtomicUsize,
    finished: AtomicUsize,
    task: &'static (dyn Fn(usize) + Sync),
    /// First panic payload out of any task, re-raised on the submitter.
    panic: Mutex<Option<Box<dyn std::any::Any + Send>>>,
}

#[derive(Default)]
struct PoolState {
    job: Option<Arc<JobCore>>,
    /// Workers currently attached to the in-flight job.
    active: usize,
}

struct Pool {
    state: Mutex<PoolState>,
    work_cv: Condvar,
    done_cv: Condvar,
    spawned: OnceLock<usize>,
}

fn global() -> &'static Pool {
    static POOL: OnceLock<Pool> = OnceLock::new();
    POOL.get_or_init(|| Pool {
        state: Mutex::new(PoolState::default()),
        work_cv: Condvar::new(),
        done_cv: Condvar::new(),
        spawned: OnceLock::new(),
    })
}

/// The machine's available parallelism, probed once per process.
/// `pool_map` never runs a job wider than this: on a box with fewer
/// cores than the requested width, extra claim threads only add submit
/// latency and cache traffic without any real concurrency (the 1→8 thread
/// cold "anti-scaling" in `BENCH_link_scale.json` was exactly this).
pub fn available_width() -> usize {
    static WIDTH: OnceLock<usize> = OnceLock::new();
    *WIDTH.get_or_init(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    })
}

/// The width `pool_map` will actually run a large job at for a requested
/// width: the request capped at the pool's width — the machine's available
/// parallelism, at most 8.
pub fn effective_width(requested: usize) -> usize {
    requested.clamp(1, crate::pipeline::default_parallelism())
}

impl Pool {
    /// Spawn the worker threads on first use. Workers live for the process
    /// lifetime — that is the point: no per-call spawn cost.
    fn ensure_workers(&'static self) -> usize {
        *self.spawned.get_or_init(|| {
            let workers = crate::pipeline::default_parallelism().saturating_sub(1);
            for n in 0..workers {
                std::thread::Builder::new()
                    .name(format!("ompdart-pool-{n}"))
                    .spawn(move || self.worker_loop())
                    .expect("spawn pool worker");
            }
            workers
        })
    }

    fn worker_loop(&self) {
        loop {
            let job = {
                let mut st = self.state.lock().unwrap();
                loop {
                    match &st.job {
                        Some(job)
                            if job.claim.load(Ordering::Relaxed) < job.len
                                && st.active + 1 < job.width =>
                        {
                            let job = Arc::clone(job);
                            st.active += 1;
                            break job;
                        }
                        _ => st = self.work_cv.wait(st).unwrap(),
                    }
                }
            };
            run_claims(&job);
            {
                let mut st = self.state.lock().unwrap();
                st.active -= 1;
            }
            self.done_cv.notify_all();
        }
    }

    /// Run `task` over indices `0..len` with up to `width` concurrent
    /// threads (submitter included). Returns `false`, having run nothing,
    /// when another job is in flight.
    fn run(&'static self, width: usize, len: usize, task: &(dyn Fn(usize) + Sync)) -> bool {
        self.ensure_workers();
        // SAFETY: lifetime erasure; validity until return is guaranteed by
        // the retirement handshake documented on `JobCore`.
        let task: &'static (dyn Fn(usize) + Sync) = unsafe { std::mem::transmute(task) };
        let core = Arc::new(JobCore {
            len,
            width,
            claim: AtomicUsize::new(0),
            finished: AtomicUsize::new(0),
            task,
            panic: Mutex::new(None),
        });
        {
            let mut st = self.state.lock().unwrap();
            if st.job.is_some() || st.active > 0 {
                return false;
            }
            st.job = Some(Arc::clone(&core));
        }
        self.work_cv.notify_all();
        PROCESS.add(ProcessCounter::pool_jobs, 1);
        PROCESS.add(ProcessCounter::pool_items, len as u64);

        run_claims(&core);

        // Retire: unpublish the job, then wait until every attached worker
        // has finished its last task and detached.
        let wait = Instant::now();
        {
            let mut st = self.state.lock().unwrap();
            st.job = None;
            while core.finished.load(Ordering::Acquire) < core.len || st.active > 0 {
                st = self.done_cv.wait(st).unwrap();
            }
        }
        PROCESS.add(
            ProcessCounter::pool_wait_ns,
            wait.elapsed().as_nanos() as u64,
        );
        if let Some(payload) = core.panic.lock().unwrap().take() {
            std::panic::resume_unwind(payload);
        }
        true
    }
}

/// The shared claim loop: pull indices until the cursor runs dry. Panics
/// are caught per task (recorded once, re-raised on the submitter) so a
/// panicking task can never wedge the pool or leave the submitter waiting
/// forever.
fn run_claims(core: &JobCore) {
    IN_POOL_TASK.with(|flag| flag.set(true));
    loop {
        let i = core.claim.fetch_add(1, Ordering::Relaxed);
        if i >= core.len {
            break;
        }
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| (core.task)(i)));
        if let Err(payload) = result {
            let mut slot = core.panic.lock().unwrap();
            if slot.is_none() {
                *slot = Some(payload);
            }
        }
        core.finished.fetch_add(1, Ordering::Release);
    }
    IN_POOL_TASK.with(|flag| flag.set(false));
}

/// Pre-sized result slots written through the claim-index scheme: each
/// index is claimed exactly once, so each cell is written exactly once and
/// no per-slot lock is needed.
struct Slots<T> {
    cells: Vec<std::cell::UnsafeCell<std::mem::MaybeUninit<T>>>,
}

// SAFETY: distinct indices are written by distinct claims; no cell is ever
// accessed from two threads at once.
unsafe impl<T: Send> Sync for Slots<T> {}

impl<T> Slots<T> {
    fn new(len: usize) -> Slots<T> {
        Slots {
            cells: (0..len)
                .map(|_| std::cell::UnsafeCell::new(std::mem::MaybeUninit::uninit()))
                .collect(),
        }
    }

    /// SAFETY: `i` must be a uniquely claimed index.
    unsafe fn write(&self, i: usize, value: T) {
        unsafe { (*self.cells[i].get()).write(value) };
    }

    /// SAFETY: every cell must have been written (all claims finished
    /// without panic).
    unsafe fn into_vec(self) -> Vec<T> {
        self.cells
            .into_iter()
            .map(|cell| unsafe { cell.into_inner().assume_init() })
            .collect()
    }
}

/// Order-preserving parallel map over indices `0..len` on the persistent
/// pool, at most [`effective_width`]`(workers)` wide. `workers <= 1` (or a
/// single item) runs inline — the deterministic-debugging escape hatch —
/// and so does a fan-out nested in a pool task, or one that finds the pool
/// busy with another submitter's job.
pub fn pool_map<T, F>(workers: usize, len: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    // Cap at the pool's width before the item clamp: a width-8 request on
    // a 2-core box runs 2 wide, and on a 1-core box runs inline —
    // byte-identical results either way (order is positional), just
    // without the useless submit/wake overhead.
    let workers = effective_width(workers).min(len);
    if workers <= 1 {
        return (0..len).map(f).collect();
    }
    if IN_POOL_TASK.with(|flag| flag.get()) {
        PROCESS.add(ProcessCounter::pool_inline_jobs, 1);
        return (0..len).map(f).collect();
    }
    let slots = Slots::new(len);
    let task = |i: usize| {
        // SAFETY: each index is claimed exactly once by the claim cursor.
        unsafe { slots.write(i, f(i)) };
    };
    if !global().run(workers, len, &task) {
        PROCESS.add(ProcessCounter::pool_fallback_jobs, 1);
        return (0..len).map(f).collect();
    }
    // SAFETY: the job retired normally, so every index finished and every
    // cell is initialized (a task panic propagates above and skips this —
    // initialized cells leak, which is safe).
    unsafe { slots.into_vec() }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn maps_preserve_order_at_every_width() {
        for workers in [1, 2, 4, 8] {
            let out = pool_map(workers, 100, |i| i * 3);
            assert_eq!(out, (0..100).map(|i| i * 3).collect::<Vec<_>>());
        }
    }

    #[test]
    fn empty_and_single_item_maps() {
        assert_eq!(pool_map(8, 0, |i| i), Vec::<usize>::new());
        assert_eq!(pool_map(8, 1, |i| i + 7), vec![7]);
    }

    #[test]
    fn nested_maps_run_inline_without_deadlock() {
        let out = pool_map(4, 8, |i| {
            // Nested fan-out from inside a pool task must complete inline.
            let inner = pool_map(4, 4, move |j| i * 10 + j);
            inner.iter().sum::<usize>()
        });
        let expect: Vec<usize> = (0..8).map(|i| (0..4).map(|j| i * 10 + j).sum()).collect();
        assert_eq!(out, expect);
    }

    #[test]
    fn concurrent_submitters_all_complete() {
        // Four threads submitting at once: one gets the pool, the others
        // find it busy and run their job on their own thread. All must
        // produce full results.
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4)
                .map(|t| {
                    scope.spawn(move || {
                        let out = pool_map(4, 64, move |i| t * 1000 + i);
                        assert_eq!(out.len(), 64);
                        for (i, v) in out.iter().enumerate() {
                            assert_eq!(*v, t * 1000 + i);
                        }
                    })
                })
                .collect();
            for h in handles {
                h.join().unwrap();
            }
        });
    }

    #[test]
    fn panics_propagate_to_the_submitter() {
        let result = std::panic::catch_unwind(|| {
            pool_map(4, 16, |i| {
                if i == 9 {
                    panic!("task 9 exploded");
                }
                i
            })
        });
        assert!(result.is_err(), "the task panic must reach the submitter");
        // The pool must still be usable afterwards.
        let out = pool_map(4, 8, |i| i);
        assert_eq!(out, (0..8).collect::<Vec<_>>());
    }
}
