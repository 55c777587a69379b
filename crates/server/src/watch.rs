//! The notify watch backend: inotify-driven directory wakeups with a
//! polling fallback.
//!
//! `ompdart watch` historically slept a fixed interval and re-hashed every
//! file's content each cycle.
//! [`DirWatcher`] replaces the *wakeup* side: on Linux an inotify watch on
//! the directory blocks until something actually changes (bounded by the
//! caller's timeout, so liveness checks still run), and only then does the
//! caller re-scan. Content verification stays exactly as before — the
//! watcher is purely an optimization of *when* to look, never a source of
//! truth about *what* changed, so a missed or coalesced inotify event can
//! at worst delay a scan to the timeout, never produce a wrong result.
//!
//! The inotify binding is a direct libc FFI (`inotify_init1`/
//! `inotify_add_watch`/`poll`/`read`) — no external crates. When inotify
//! is unavailable (exotic filesystems, non-Linux hosts), the
//! [`PollWatcher`] degrades to the plain timeout sleep that drives the
//! classic content-hash re-scan.

use std::path::Path;
use std::time::Duration;

/// Why a [`DirWatcher::wait`] call returned.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WatchWake {
    /// The backend observed filesystem activity in the directory.
    Changed,
    /// The timeout elapsed with no observed activity (poll backends always
    /// report this — the caller's content re-scan decides what changed).
    Timeout,
}

/// A source of "something may have changed in this directory" wakeups.
pub trait DirWatcher: Send {
    /// Block until activity or `timeout`. Spurious `Changed` wakeups are
    /// allowed; missed changes only delay the caller to the next timeout.
    fn wait(&mut self, timeout: Duration) -> WatchWake;

    /// Human-readable backend name for log lines.
    fn backend(&self) -> &'static str;
}

/// The fallback backend: pure timeout (the classic polling loop).
pub struct PollWatcher;

impl DirWatcher for PollWatcher {
    fn wait(&mut self, timeout: Duration) -> WatchWake {
        std::thread::sleep(timeout);
        WatchWake::Timeout
    }

    fn backend(&self) -> &'static str {
        "poll"
    }
}

/// Build the best available watcher for `dir`: inotify on Linux, the
/// polling fallback otherwise (and whenever inotify setup fails — the
/// watcher must never be the reason watch cannot run).
pub fn make_watcher(dir: &Path) -> Box<dyn DirWatcher> {
    #[cfg(target_os = "linux")]
    if let Some(watcher) = inotify::InotifyWatcher::new(dir) {
        return Box::new(watcher);
    }
    let _ = dir;
    Box::new(PollWatcher)
}

#[cfg(target_os = "linux")]
mod inotify {
    use super::{DirWatcher, WatchWake};
    use std::ffi::CString;
    use std::os::unix::ffi::OsStrExt;
    use std::path::Path;
    use std::time::Duration;

    // From <sys/inotify.h> / <poll.h> on Linux (stable ABI).
    const IN_NONBLOCK: i32 = 0o4000;
    const IN_MODIFY: u32 = 0x002;
    const IN_ATTRIB: u32 = 0x004;
    const IN_CLOSE_WRITE: u32 = 0x008;
    const IN_MOVED_FROM: u32 = 0x040;
    const IN_MOVED_TO: u32 = 0x080;
    const IN_CREATE: u32 = 0x100;
    const IN_DELETE: u32 = 0x200;
    const POLLIN: i16 = 0x001;

    #[repr(C)]
    struct PollFd {
        fd: i32,
        events: i16,
        revents: i16,
    }

    extern "C" {
        fn inotify_init1(flags: i32) -> i32;
        fn inotify_add_watch(fd: i32, pathname: *const i8, mask: u32) -> i32;
        fn poll(fds: *mut PollFd, nfds: u64, timeout_ms: i32) -> i32;
        fn read(fd: i32, buf: *mut u8, count: usize) -> isize;
        fn close(fd: i32) -> i32;
    }

    /// An inotify watch on one directory (non-recursive, matching the
    /// flat `scan_c_files` view the watch loop takes of it).
    pub struct InotifyWatcher {
        fd: i32,
    }

    // The fd is used from one watch thread at a time.
    unsafe impl Send for InotifyWatcher {}

    impl InotifyWatcher {
        pub fn new(dir: &Path) -> Option<InotifyWatcher> {
            let fd = unsafe { inotify_init1(IN_NONBLOCK) };
            if fd < 0 {
                return None;
            }
            let path = CString::new(dir.as_os_str().as_bytes()).ok()?;
            let mask = IN_MODIFY
                | IN_ATTRIB
                | IN_CLOSE_WRITE
                | IN_MOVED_FROM
                | IN_MOVED_TO
                | IN_CREATE
                | IN_DELETE;
            let wd = unsafe { inotify_add_watch(fd, path.as_ptr(), mask) };
            if wd < 0 {
                unsafe { close(fd) };
                return None;
            }
            Some(InotifyWatcher { fd })
        }

        /// Drain every queued event (the fd is non-blocking). Returns true
        /// if at least one event was pending.
        fn drain(&self) -> bool {
            let mut saw_any = false;
            let mut buf = [0u8; 4096];
            loop {
                let n = unsafe { read(self.fd, buf.as_mut_ptr(), buf.len()) };
                if n > 0 {
                    saw_any = true;
                } else {
                    return saw_any;
                }
            }
        }
    }

    impl DirWatcher for InotifyWatcher {
        fn wait(&mut self, timeout: Duration) -> WatchWake {
            let mut fds = PollFd {
                fd: self.fd,
                events: POLLIN,
                revents: 0,
            };
            let timeout_ms = timeout.as_millis().min(i32::MAX as u128) as i32;
            let ready = unsafe { poll(&mut fds, 1, timeout_ms) };
            if ready > 0 && self.drain() {
                // Editors write in bursts; absorb the tail of the burst so
                // one save triggers one re-scan, not five.
                std::thread::sleep(Duration::from_millis(20));
                self.drain();
                return WatchWake::Changed;
            }
            WatchWake::Timeout
        }

        fn backend(&self) -> &'static str {
            "inotify"
        }
    }

    impl Drop for InotifyWatcher {
        fn drop(&mut self) {
            unsafe { close(self.fd) };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poll_watcher_times_out() {
        let mut watcher = PollWatcher;
        assert_eq!(watcher.wait(Duration::from_millis(1)), WatchWake::Timeout);
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn inotify_watcher_wakes_on_writes_and_times_out_when_idle() {
        let dir = std::env::temp_dir().join(format!("ompdart-watch-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let mut watcher = make_watcher(&dir);
        assert_eq!(watcher.backend(), "inotify");
        // Idle: times out.
        assert_eq!(watcher.wait(Duration::from_millis(30)), WatchWake::Timeout);
        // A write wakes it up well before the timeout.
        std::fs::write(dir.join("x.c"), "int main() { return 0; }\n").unwrap();
        assert_eq!(watcher.wait(Duration::from_secs(5)), WatchWake::Changed);
        std::fs::remove_dir_all(&dir).ok();
    }
}
