//! The `ompdartd` binary's command line: usage errors exit 2 with a
//! message, through the same parser as `ompdart daemon`, and a daemon it
//! starts says where it listens, then stops cleanly on SIGTERM.

use std::io::{BufRead, BufReader};
use std::os::unix::fs::FileTypeExt;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// A size that overflows `u64` once its suffix is applied used to multiply
/// unchecked here: a panic in debug builds, a silently wrapped cap in
/// release builds.
#[test]
fn overflowing_cache_cap_is_a_usage_error() {
    let out = Command::new(env!("CARGO_BIN_EXE_ompdartd"))
        .args(["--cache-max-bytes", "99999999999g"])
        .output()
        .expect("run ompdartd");
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("error: `99999999999g` overflows"),
        "{stderr}"
    );
}

/// The daemon child, the thread reading its stderr and its scratch
/// directory: however the test ends, the child is killed and reaped, the
/// reader joined and the directory removed.
struct Daemon {
    child: Child,
    reader: Option<JoinHandle<()>>,
    dir: PathBuf,
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(reader) = self.reader.take() {
            let _ = reader.join();
        }
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// `ompdartd` binds its unix socket and then says so on stderr. SIGTERM
/// drains and flushes it, and it removes the socket on its way out.
#[test]
fn the_daemon_says_where_it_listens_and_stops_on_sigterm() {
    extern "C" {
        fn kill(pid: i32, signal: i32) -> i32;
    }
    let dir = std::env::temp_dir().join(format!("ompdartd-cli-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let socket = dir.join("ompdartd.sock");
    let mut child = Command::new(env!("CARGO_BIN_EXE_ompdartd"))
        .arg("--socket")
        .arg(&socket)
        .arg("--cache-dir")
        .arg(dir.join("cache"))
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("run ompdartd");
    let (send, lines) = mpsc::channel();
    let stderr = child.stderr.take().unwrap();
    let reader = std::thread::spawn(move || {
        for line in BufReader::new(stderr).lines().map_while(Result::ok) {
            if send.send(line).is_err() {
                break;
            }
        }
    });
    let mut daemon = Daemon {
        child,
        reader: Some(reader),
        dir,
    };
    // The daemon's next stderr line, or `None` once it has closed stderr.
    let deadline = Instant::now() + Duration::from_secs(120);
    let next = || match lines.recv_timeout(deadline.saturating_duration_since(Instant::now())) {
        Ok(line) => Some(line),
        Err(mpsc::RecvTimeoutError::Disconnected) => None,
        Err(why) => panic!("{why:?}"),
    };
    let listening = format!("listening on unix:{}", socket.display());
    let mut seen: Vec<String> = Vec::new();
    while !seen.iter().any(|line| line.contains(&listening)) {
        match next() {
            Some(line) => seen.push(line),
            None => panic!("no `{listening}`: {seen:#?}"),
        }
    }
    assert!(std::fs::metadata(&socket).unwrap().file_type().is_socket());

    let pid = i32::try_from(daemon.child.id()).expect("a pid fits an i32");
    // SAFETY: `kill` reads no memory of ours. The child is not reaped yet,
    // so `pid` still names it and no other process.
    assert_eq!(unsafe { kill(pid, ompdart_server::signal::SIGTERM) }, 0);
    seen.extend(std::iter::from_fn(next));
    assert!(daemon.child.wait().unwrap().success(), "{seen:#?}");
    let flushed = "graceful shutdown: drained in-flight requests, flushed";
    assert!(seen.iter().any(|line| line.contains(flushed)), "{seen:#?}");
    assert!(!socket.exists(), "the socket outlived the daemon");
}
