//! # ompdart-server
//!
//! Analysis as a service: `ompdartd`, the long-lived concurrent OMPDart
//! daemon, plus the client used to drive it.
//!
//! The one-shot CLI pays the full pipeline on every invocation; `ompdart
//! watch` keeps a single warm session but serves one program and one
//! caller at a time. This crate turns the warm session into a *service*:
//!
//! * [`protocol`] — the wire format: length-prefixed JSON frames carrying
//!   versioned requests (`analyze`, `explain`, `stats`, `gc`, `shutdown`)
//!   and structured error responses. The payloads reuse the crate-wide
//!   plan-JSON machinery, so daemon responses embed plan documents exactly
//!   as the one-shot CLI writes them.
//! * [`registry`] — the [`registry::ProgramRegistry`]: one warm
//!   [`ompdart_core::Ompdart`] session *per program key*, each with its own
//!   incremental link state, function-granular caches, counters, and
//!   persistent store subdirectory, so interleaved clients never chill each
//!   other's programs.
//! * [`daemon`] — the [`daemon::DaemonHandle`] accept/dispatch machinery
//!   over unix sockets (default) or TCP (opt-in): each request runs on its
//!   connection's thread, under its program's request lock, inside a panic
//!   boundary.
//! * [`client`] — a synchronous [`client::Client`] for tests, CI drivers,
//!   and the `ompdart client` CLI verbs.
//! * [`watch`] — inotify-backed [`watch::DirWatcher`] wakeups for the
//!   rebuilt `ompdart watch` (with the classic polling loop as the
//!   fallback where inotify is unavailable).
//! * [`signal`] — SIGINT/SIGTERM tokens that turn process death into a
//!   drain-and-flush instead of a lost write-behind buffer.

pub mod client;
pub mod daemon;
pub mod protocol;
pub mod registry;
pub mod signal;
pub mod watch;

pub use client::{Client, ClientError};
pub use daemon::{parse_size, serve_label, Conn, DaemonConfig, DaemonHandle, Endpoint, Flags};
pub use protocol::{
    error_response, ok_response, read_frame, write_frame, ErrorKind, FrameError, RequestError,
    MAX_FRAME_BYTES, PROTOCOL_VERSION,
};
pub use registry::{ProgramRegistry, ProgramSession, RegistryConfig};
pub use signal::{ShutdownToken, SIGINT, SIGTERM};
pub use watch::{make_watcher, DirWatcher, PollWatcher};
