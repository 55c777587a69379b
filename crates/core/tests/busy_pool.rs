//! The worker pool has one engine: a submitter that finds the pool busy
//! with another submitter's job runs its own job on its own thread — every
//! index, in order — and a task that panics there reaches it with its own
//! payload.
//!
//! The pool is process-wide, so these tests live in a binary of their own
//! and take turns: nothing else in this process submits a job while one of
//! them holds the pool.

use ompdart_core::pool::pool_map;
use std::sync::{Barrier, Mutex, MutexGuard};
use std::thread::ThreadId;
use std::time::Duration;

/// One test at a time owns the pool.
fn serial() -> MutexGuard<'static, ()> {
    static SERIAL: Mutex<()> = Mutex::new(());
    SERIAL
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Run `submit` on this thread while another thread's pool job is in
/// flight: its task waits on a barrier until `submit` has returned.
fn while_the_pool_is_busy<R>(submit: impl FnOnce() -> R) -> R {
    let held = Barrier::new(2);
    let release = Barrier::new(2);
    std::thread::scope(|scope| {
        scope.spawn(|| {
            pool_map(2, 2, |i| {
                if i == 0 {
                    held.wait();
                    release.wait();
                }
            });
        });
        held.wait();
        let result = submit();
        release.wait();
        result
    })
}

#[test]
fn a_busy_pool_runs_the_submitters_job_on_the_submitting_thread() {
    let _turn = serial();
    let (submitter, ran_on) = while_the_pool_is_busy(|| {
        let ran_on: Vec<ThreadId> = pool_map(8, 16, |_| {
            // Slow enough that any second thread would claim an index.
            std::thread::sleep(Duration::from_millis(1));
            std::thread::current().id()
        });
        (std::thread::current().id(), ran_on)
    });
    assert_eq!(ran_on.len(), 16);
    assert!(
        ran_on.iter().all(|&id| id == submitter),
        "every index must run on the submitting thread"
    );
}

#[test]
fn a_busy_pool_reraises_the_tasks_own_panic_on_the_submitter() {
    let _turn = serial();
    let payload = while_the_pool_is_busy(|| {
        std::panic::catch_unwind(|| {
            pool_map(8, 16, |i| {
                if i == 9 {
                    panic!("task 9 exploded");
                }
                i
            })
        })
        .expect_err("the task's panic must reach the submitter")
    });
    let message = (payload.downcast_ref::<&str>().copied())
        .or_else(|| payload.downcast_ref::<String>().map(String::as_str));
    assert_eq!(message, Some("task 9 exploded"));
}
