//! SIGINT/SIGTERM handling for the long-lived front doors (`ompdartd`,
//! `ompdart watch`).
//!
//! The handler does the only async-signal-safe thing possible: it bumps a
//! global atomic *epoch*. Long-lived loops snapshot the epoch when they
//! start ([`ShutdownToken`]) and treat any later bump — or an explicit
//! in-process [`ShutdownToken::request`], which is how the daemon's
//! `shutdown` request and the tests trigger the same path — as the signal
//! to stop accepting work, drain, and **flush the write-behind store
//! buffer** before exiting. Relying on `Drop` alone is not enough: a
//! SIGTERM default disposition kills the process without unwinding, so
//! every queued store write-back would be lost.
//!
//! No external crates: the handler is registered straight through libc's
//! `signal(2)`, which the Rust standard library already links.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

pub const SIGINT: i32 = 2;
pub const SIGTERM: i32 = 15;

/// Monotonic count of delivered SIGINT/SIGTERM signals.
static SIGNAL_EPOCH: AtomicU64 = AtomicU64::new(0);

#[cfg(unix)]
extern "C" {
    fn signal(signum: i32, handler: usize) -> usize;
    fn raise(signum: i32) -> i32;
}

#[cfg(unix)]
extern "C" fn on_signal(_signum: i32) {
    SIGNAL_EPOCH.fetch_add(1, Ordering::SeqCst);
}

/// Install the SIGINT/SIGTERM handlers (idempotent). Returns a token that
/// reports deliveries from this point on.
pub fn install() -> ShutdownToken {
    #[cfg(unix)]
    unsafe {
        signal(SIGINT, on_signal as *const () as usize);
        signal(SIGTERM, on_signal as *const () as usize);
    }
    ShutdownToken::new()
}

/// Deliver a signal to the current process — the test hook for exercising
/// the real handler path (with the handler installed, the process is not
/// killed; the epoch advances exactly as under an external `kill`).
pub fn deliver(signum: i32) {
    #[cfg(unix)]
    unsafe {
        raise(signum);
    }
    #[cfg(not(unix))]
    {
        let _ = signum;
        SIGNAL_EPOCH.fetch_add(1, Ordering::SeqCst);
    }
}

/// One long-lived loop's view of "should I shut down?": true once a
/// signal arrives after the token was created or once some holder calls
/// [`ShutdownToken::request`]. Clones share the same state, so a
/// connection thread's `shutdown` request is visible to the accept loop.
#[derive(Clone, Debug)]
pub struct ShutdownToken {
    birth_epoch: u64,
    requested: Arc<AtomicBool>,
}

impl Default for ShutdownToken {
    fn default() -> Self {
        ShutdownToken::new()
    }
}

impl ShutdownToken {
    /// A token that ignores signals delivered before this moment.
    pub fn new() -> ShutdownToken {
        ShutdownToken {
            birth_epoch: SIGNAL_EPOCH.load(Ordering::SeqCst),
            requested: Arc::new(AtomicBool::new(false)),
        }
    }

    /// Request shutdown in-process (the daemon's `shutdown` request).
    pub fn request(&self) {
        self.requested.store(true, Ordering::SeqCst);
    }

    /// True once shutdown was requested or a signal arrived.
    pub fn is_shutdown(&self) -> bool {
        self.requested.load(Ordering::SeqCst)
            || SIGNAL_EPOCH.load(Ordering::SeqCst) != self.birth_epoch
    }
}

/// Tests that deliver a signal or run a daemon take turns: a delivery
/// shuts down every token of the process.
#[cfg(test)]
pub(crate) fn serial() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn token_sees_requests_and_signals() {
        let _serial = serial();
        let token = install();
        assert!(!token.is_shutdown());
        let clone = token.clone();
        clone.request();
        assert!(token.is_shutdown());

        let fresh = ShutdownToken::new();
        assert!(!fresh.is_shutdown());
        deliver(SIGINT);
        assert!(fresh.is_shutdown());
        // A token born after the delivery is clean again.
        assert!(!ShutdownToken::new().is_shutdown());
    }
}
