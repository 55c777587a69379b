//! `ompdartd`: the long-lived analysis daemon.
//!
//! The daemon listens on a unix socket (or, opted in, a TCP address) and
//! speaks the length-prefixed JSON protocol of [`crate::protocol`]. Each
//! connection gets one thread that reads a request, serves it and writes
//! its response before reading the next, so responses on a connection come
//! back in request order, pipelined or not. A request runs against its
//! program's [`ProgramRegistry`] session (own link state, own counters, own
//! store subdirectory): two clients editing the same program serialize on
//! that session's request lock, and two clients editing different programs
//! run fully in parallel.
//!
//! Each request is served inside a panic boundary. A panic answers a
//! structured `analysis` error carrying the request's `id`, drops the named
//! program's session (the next request rebuilds it, warm from its store
//! subdirectory) and counts in `stats`' `panics`; the connection and every
//! other program keep working.
//!
//! Shutdown — SIGINT, SIGTERM, or a `shutdown` request — is graceful and
//! durable: the accept loop stops, every connection's read half is shut
//! down, the connection threads are joined (each finishes the request it
//! is serving and writes its response), and **every program session's
//! write-behind store buffer is flushed** before the socket file is
//! removed. A daemon killed this way restarts warm from its store.

use crate::protocol::{
    self, error_response, ok_response, ErrorKind, FrameError, RequestError, PROTOCOL_VERSION,
};
use crate::registry::{ProgramRegistry, ProgramSession, RegistryConfig};
use crate::signal::{self, ShutdownToken};
use ompdart_core::pipeline::{AnalysisSession, UnitAnalysis};
use ompdart_core::plan::{write_json_string, Json};
use ompdart_core::{release_bodies, CacheStats, UnitServe};
use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::panic::AssertUnwindSafe;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// Where the daemon listens / the client connects.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Endpoint {
    /// A unix-domain socket at this path (the default transport).
    Unix(PathBuf),
    /// A TCP address like `127.0.0.1:7171` (opt-in: `--tcp`).
    Tcp(String),
}

impl Endpoint {
    /// The endpoint `--socket PATH` or `--tcp ADDR` names (the later one
    /// when both are given), else the unix socket `ompdartd.sock`.
    pub fn from_flags(flags: &Flags) -> Endpoint {
        let named = (flags.given.iter().rev()).find_map(|(name, value)| match (*name, value) {
            ("--socket", Some(path)) => Some(Endpoint::Unix(path.into())),
            ("--tcp", Some(addr)) => Some(Endpoint::Tcp(addr.clone())),
            _ => None,
        });
        named.unwrap_or_else(|| Endpoint::Unix("ompdartd.sock".into()))
    }

    /// Connect a client stream to this endpoint.
    pub fn connect(&self) -> std::io::Result<Conn> {
        match self {
            Endpoint::Unix(path) => UnixStream::connect(path).map(Conn::Unix),
            Endpoint::Tcp(addr) => TcpStream::connect(addr).map(Conn::Tcp),
        }
    }
}

impl std::fmt::Display for Endpoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Endpoint::Unix(path) => write!(f, "unix:{}", path.display()),
            Endpoint::Tcp(addr) => write!(f, "tcp:{addr}"),
        }
    }
}

/// One bidirectional protocol stream (either transport).
#[derive(Debug)]
pub enum Conn {
    Unix(UnixStream),
    Tcp(TcpStream),
}

impl Conn {
    fn try_clone(&self) -> std::io::Result<Conn> {
        match self {
            Conn::Unix(s) => s.try_clone().map(Conn::Unix),
            Conn::Tcp(s) => s.try_clone().map(Conn::Tcp),
        }
    }

    /// Stop the peer's requests from arriving while the response in
    /// flight still goes out — the graceful-shutdown half-close.
    fn shutdown_read(&self) {
        let _ = match self {
            Conn::Unix(s) => s.shutdown(Shutdown::Read),
            Conn::Tcp(s) => s.shutdown(Shutdown::Read),
        };
    }
}

impl Read for Conn {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self {
            Conn::Unix(s) => s.read(buf),
            Conn::Tcp(s) => s.read(buf),
        }
    }
}

impl Write for Conn {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match self {
            Conn::Unix(s) => s.write(buf),
            Conn::Tcp(s) => s.write(buf),
        }
    }

    // A frame is one vectored write; the default would send only its prefix.
    fn write_vectored(&mut self, bufs: &[std::io::IoSlice<'_>]) -> std::io::Result<usize> {
        match self {
            Conn::Unix(s) => s.write_vectored(bufs),
            Conn::Tcp(s) => s.write_vectored(bufs),
        }
    }

    fn flush(&mut self) -> std::io::Result<()> {
        match self {
            Conn::Unix(s) => s.flush(),
            Conn::Tcp(s) => s.flush(),
        }
    }
}

enum Listener {
    Unix(UnixListener),
    Tcp(TcpListener),
}

impl Listener {
    fn set_nonblocking(&self) -> std::io::Result<()> {
        match self {
            Listener::Unix(l) => l.set_nonblocking(true),
            Listener::Tcp(l) => l.set_nonblocking(true),
        }
    }

    fn accept(&self) -> std::io::Result<Conn> {
        match self {
            Listener::Unix(l) => l.accept().map(|(s, _)| Conn::Unix(s)),
            Listener::Tcp(l) => l.accept().map(|(s, _)| Conn::Tcp(s)),
        }
    }
}

/// Daemon construction knobs.
#[derive(Clone, Debug)]
pub struct DaemonConfig {
    /// Listen endpoint.
    pub endpoint: Endpoint,
    /// Registry (per-program session) configuration; `--workers` sets its
    /// `parallelism`.
    pub registry: RegistryConfig,
    /// Suppress per-request log lines on stderr.
    pub quiet: bool,
}

impl DaemonConfig {
    /// Parse the daemon's command line — the one front door behind both
    /// `ompdartd` and `ompdart daemon`. Without `--socket`/`--tcp` the
    /// daemon listens on the unix socket `ompdartd.sock`.
    pub fn from_args(args: &[String]) -> Result<DaemonConfig, String> {
        let flags = Flags::read(
            args,
            &[
                "--socket=a path",
                "--tcp=an address",
                "--workers=a number",
                "--cache-dir=a directory",
                "--cache-max-bytes=a size",
                "--pessimistic-globals",
                "--quiet",
            ],
        )?;
        if let Some(other) = flags.positional.first() {
            return Err(format!("unknown flag `{other}`"));
        }
        Ok(DaemonConfig {
            endpoint: Endpoint::from_flags(&flags),
            registry: RegistryConfig {
                cache_dir: flags.value("--cache-dir").map(PathBuf::from),
                cache_max_bytes: flags.size("--cache-max-bytes")?,
                pessimistic_globals: flags.has("--pessimistic-globals"),
                parallelism: flags.number("--workers")?.unwrap_or(0),
            },
            quiet: flags.has("--quiet"),
        })
    }
}

/// A command line read against the flags its verb declares: the one flag
/// reader behind every `ompdart` verb and [`DaemonConfig::from_args`].
///
/// A declaration names a flag (`"-o|--output"` for two spellings) and, for
/// a flag that takes a value, what the value is: given alone, `"--out-dir=a
/// directory"` is the error "`--out-dir` expects a directory". Any other
/// argument starting with `-` is an unknown flag; the rest are positional.
#[derive(Debug, Default)]
pub struct Flags {
    pub positional: Vec<String>,
    /// Each flag given, under its first declared name, and its value.
    given: Vec<(&'static str, Option<String>)>,
}

impl Flags {
    /// Read `args` against the `declared` flags.
    pub fn read(args: &[String], declared: &[&'static str]) -> Result<Flags, String> {
        let mut flags = Flags::default();
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            if !arg.starts_with('-') {
                flags.positional.push(arg.clone());
                continue;
            }
            let (names, what) = declared
                .iter()
                .map(|spec| {
                    spec.split_once('=')
                        .map_or((*spec, None), |(n, w)| (n, Some(w)))
                })
                .find(|(names, _)| names.split('|').any(|name| name == arg))
                .ok_or_else(|| format!("unknown flag `{arg}`"))?;
            let expects = |what| format!("`{arg}` expects {what}");
            let value = what.map(|what| it.next().cloned().ok_or_else(|| expects(what)));
            let value = value.transpose()?;
            let name = names.split('|').next().unwrap_or(names);
            flags.given.push((name, value));
        }
        Ok(flags)
    }

    /// Whether `flag` (its first declared name) was given.
    pub fn has(&self, flag: &str) -> bool {
        self.given.iter().any(|(name, _)| *name == flag)
    }

    /// The value of `flag`; given more than once, the last one.
    pub fn value(&self, flag: &str) -> Option<&str> {
        let (_, value) = self.given.iter().rev().find(|(name, _)| *name == flag)?;
        value.as_deref()
    }

    /// The value of `flag` as a number: "`--x` expects a number" when it is
    /// not one.
    pub fn number<T: std::str::FromStr>(&self, flag: &str) -> Result<Option<T>, String> {
        (self.value(flag).map(str::parse).transpose())
            .map_err(|_| format!("`{flag}` expects a number"))
    }

    /// The value of `flag` as a [`parse_size`] size.
    pub fn size(&self, flag: &str) -> Result<Option<u64>, String> {
        self.value(flag).map(parse_size).transpose()
    }

    /// The one positional argument (`missing` is the error without it); a
    /// second is an "unexpected argument".
    pub fn only_positional(&self, missing: &str) -> Result<&str, String> {
        match &self.positional[..] {
            [] => Err(missing.to_string()),
            [one] => Ok(one),
            [_, extra, ..] => Err(format!("unexpected argument `{extra}`")),
        }
    }
}

/// Parse a size like `1048576`, `64k`, `256m`, `2g` into bytes. Overflow is
/// an error, never a wrap.
pub fn parse_size(text: &str) -> Result<u64, String> {
    let text = text.trim();
    let (digits, factor) = match text.as_bytes().last() {
        Some(b'k' | b'K') => (&text[..text.len() - 1], 1u64 << 10),
        Some(b'm' | b'M') => (&text[..text.len() - 1], 1u64 << 20),
        Some(b'g' | b'G') => (&text[..text.len() - 1], 1u64 << 30),
        _ => (text, 1u64),
    };
    digits
        .parse::<u64>()
        .map_err(|_| format!("`{text}` is not a size (expected N, Nk, Nm or Ng)"))?
        .checked_mul(factor)
        .ok_or_else(|| format!("`{text}` overflows"))
}

struct Shared {
    registry: ProgramRegistry,
    /// The width each program's analysis fans out over, as `stats` reports
    /// it.
    workers: usize,
    /// Requests whose serving panicked.
    panics: AtomicU64,
    /// Read-half clones of live connections, for the shutdown half-close.
    conns: Mutex<HashMap<u64, Conn>>,
    quiet: bool,
}

impl Shared {
    fn log(&self, line: std::fmt::Arguments<'_>) {
        if !self.quiet {
            eprintln!("[ompdartd] {line}");
        }
    }
}

/// A running daemon: join it, or ask it to stop.
pub struct DaemonHandle {
    endpoint: Endpoint,
    token: ShutdownToken,
    accept: Option<JoinHandle<()>>,
}

impl DaemonHandle {
    /// Bind the endpoint and start serving. Fails only if the socket
    /// cannot be bound. A stale unix socket file is replaced.
    pub fn spawn(config: DaemonConfig) -> std::io::Result<DaemonHandle> {
        DaemonHandle::start(config).map(|(handle, _)| handle)
    }

    /// [`DaemonHandle::spawn`], also handing back the state every
    /// connection thread serves from.
    fn start(config: DaemonConfig) -> std::io::Result<(DaemonHandle, Arc<Shared>)> {
        let token = signal::install();
        let (listener, endpoint) = match &config.endpoint {
            Endpoint::Unix(path) => {
                if path.exists() {
                    std::fs::remove_file(path)?;
                }
                if let Some(parent) = path.parent() {
                    if !parent.as_os_str().is_empty() {
                        std::fs::create_dir_all(parent)?;
                    }
                }
                (
                    Listener::Unix(UnixListener::bind(path)?),
                    Endpoint::Unix(path.clone()),
                )
            }
            Endpoint::Tcp(addr) => {
                let listener = TcpListener::bind(addr.as_str())?;
                let actual = listener.local_addr()?.to_string();
                (Listener::Tcp(listener), Endpoint::Tcp(actual))
            }
        };
        listener.set_nonblocking()?;
        let workers = match config.registry.parallelism {
            0 => AnalysisSession::default().parallelism(),
            n => n,
        };
        let shared = Arc::new(Shared {
            registry: ProgramRegistry::new(config.registry),
            workers,
            panics: AtomicU64::new(0),
            conns: Mutex::new(HashMap::new()),
            quiet: config.quiet,
        });
        shared.log(format_args!(
            "listening on {endpoint} ({workers} workers, protocol v{PROTOCOL_VERSION})"
        ));
        let accept_token = token.clone();
        let accept_shared = Arc::clone(&shared);
        let accept_endpoint = endpoint.clone();
        let accept = std::thread::Builder::new()
            .name("ompdartd-accept".into())
            .spawn(move || accept_loop(listener, accept_endpoint, accept_shared, accept_token))?;
        let handle = DaemonHandle {
            endpoint,
            token,
            accept: Some(accept),
        };
        Ok((handle, shared))
    }

    /// The bound endpoint (with TCP port 0 resolved to the real port).
    pub fn endpoint(&self) -> &Endpoint {
        &self.endpoint
    }

    /// Block until the daemon has fully shut down (drained + flushed).
    pub fn join(mut self) {
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
    }
}

impl Drop for DaemonHandle {
    fn drop(&mut self) {
        self.token.request();
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
    }
}

fn accept_loop(listener: Listener, endpoint: Endpoint, shared: Arc<Shared>, token: ShutdownToken) {
    let next_conn = AtomicU64::new(0);
    let mut readers: Vec<JoinHandle<()>> = Vec::new();
    while !token.is_shutdown() {
        match listener.accept() {
            Ok(conn) => {
                let id = next_conn.fetch_add(1, Ordering::Relaxed);
                if let Ok(read_half) = conn.try_clone() {
                    shared.conns.lock().unwrap().insert(id, read_half);
                }
                let conn_shared = Arc::clone(&shared);
                let conn_token = token.clone();
                if let Ok(handle) = std::thread::Builder::new()
                    .name(format!("ompdartd-conn-{id}"))
                    .spawn(move || connection_loop(id, conn, conn_shared, conn_token))
                {
                    readers.push(handle);
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(25));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(25)),
        }
    }
    // Graceful shutdown: no new connections (listener drops below), no new
    // requests (half-close every reader), let every connection thread
    // finish the request it is serving, then flush.
    drop(listener);
    for conn in shared.conns.lock().unwrap().values() {
        conn.shutdown_read();
    }
    for reader in readers {
        let _ = reader.join();
    }
    let flushed = shared.registry.flush_all();
    shared.log(format_args!(
        "graceful shutdown: drained in-flight requests, flushed {flushed} store entries"
    ));
    if let Endpoint::Unix(path) = &endpoint {
        let _ = std::fs::remove_file(path);
    }
}

/// Serve one connection: read a request, answer it, write the response,
/// repeat — so responses leave in request order.
///
/// Once an `analyze` or `explain` answer is written, the units the
/// connection's answer of those two kinds *before* it held drop their
/// parse ([`release_bodies`]), and the last one's do when the connection
/// closes: between requests a unit holds what its store record holds,
/// except for the one answer a client is most likely to follow up on — an
/// `explain` of the unit a save just re-analyzed still finds the body that
/// `analyze` built. The body cells are locks of their own, so a release
/// holds no program's request lock; it runs before the connection reads
/// its next request.
fn connection_loop(id: u64, mut conn: Conn, shared: Arc<Shared>, token: ShutdownToken) {
    let mut previous = Vec::new();
    loop {
        let (response, answered) = match protocol::read_frame(&mut conn) {
            Ok(payload) => handle_payload(&payload, &shared, &token),
            Err(FrameError::Closed) => break,
            Err(e) => {
                // The stream cannot be re-synchronized after a framing
                // violation: report and close.
                let err = RequestError::new(ErrorKind::BadFrame, e.to_string());
                let _ = protocol::write_frame(&mut conn, &error_response(None, &err).render());
                break;
            }
        };
        let written = protocol::write_frame(&mut conn, &response);
        if !answered.is_empty() {
            release_bodies(&std::mem::replace(&mut previous, answered));
        }
        if written.is_err() || token.is_shutdown() {
            break;
        }
    }
    release_bodies(&previous);
    shared.conns.lock().unwrap().remove(&id);
}

/// A request's rendered response, and the analyses it answered with: an
/// `analyze`'s units, an `explain`'s unit, none for another request.
type Answer = (String, Vec<Arc<UnitAnalysis>>);

/// Decode one request payload and answer it.
fn handle_payload(payload: &str, shared: &Shared, token: &ShutdownToken) -> Answer {
    let mut request = match Json::parse(payload) {
        Ok(value) => value,
        Err(e) => {
            let err = RequestError::new(ErrorKind::BadJson, format!("invalid JSON: {e}"));
            return (error_response(None, &err).render(), Vec::new());
        }
    };
    let id = request.get("id").and_then(Json::as_int);
    let version = request.get("version").and_then(Json::as_int);
    if version != Some(i64::from(PROTOCOL_VERSION)) {
        let err = bad_request(format!(
            "unsupported protocol version {:?} (daemon speaks {PROTOCOL_VERSION})",
            version
        ));
        return (error_response(id, &err).render(), Vec::new());
    }
    let Some(kind) = request.get("request").and_then(Json::as_str) else {
        let err = bad_request("missing `request` field");
        return (error_response(id, &err).render(), Vec::new());
    };
    let kind = kind.to_string();
    // The session a panic leaves suspect: the one the request works on.
    let program = match kind.as_str() {
        "analyze" | "explain" => Some(program_key(&request)),
        "gc" => request
            .get("program")
            .and_then(Json::as_str)
            .map(str::to_string),
        _ => None,
    };
    guarded(shared, id, program.as_deref(), || {
        dispatch(&kind, &mut request, id, shared, token)
    })
}

/// The panic boundary every request is served in: the rendered response of
/// `serve`, or of the error it answers. A panic answers a structured
/// `analysis` error for `id`, counts in `stats`' `panics`, and drops
/// `program`'s session, so the next request for it rebuilds the session
/// (warm from its store subdirectory) instead of reusing state the panic
/// may have left half-updated — which is what makes `AssertUnwindSafe`
/// honest.
fn guarded(
    shared: &Shared,
    id: Option<i64>,
    program: Option<&str>,
    serve: impl FnOnce() -> Result<Answer, RequestError>,
) -> Answer {
    let err = match std::panic::catch_unwind(AssertUnwindSafe(serve)) {
        Ok(Ok(response)) => return response,
        Ok(Err(err)) => err,
        Err(payload) => {
            shared.panics.fetch_add(1, Ordering::Relaxed);
            if let Some(key) = program {
                shared.registry.remove(key);
            }
            let message = (payload.downcast_ref::<&str>().copied())
                .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
                .unwrap_or("no message");
            shared.log(format_args!(
                "request id={id:?} panicked: {message}; dropped the session of {program:?}"
            ));
            RequestError::new(
                ErrorKind::Analysis,
                format!("internal error while serving the request: {message}"),
            )
        }
    };
    (error_response(id, &err).render(), Vec::new())
}

/// Serve one decoded request of kind `kind`: its answer.
fn dispatch(
    kind: &str,
    request: &mut Json,
    id: Option<i64>,
    shared: &Shared,
    token: &ShutdownToken,
) -> Result<Answer, RequestError> {
    let ok = |result: Json| (ok_response(id, result).render(), Vec::new());
    match kind {
        "analyze" => {
            let units = decode_units(request)?;
            let session = shared.registry.program(&program_key(request));
            run_analyze(shared, &session, id, &units)
        }
        "explain" => {
            let (result, analysis) = handle_explain(request, shared)?;
            Ok((ok_response(id, result).render(), vec![analysis]))
        }
        "stats" => Ok(ok(stats_result(shared))),
        "check_plans" => handle_check_plans(request).map(ok),
        "gc" => handle_gc(request, shared).map(ok),
        "shutdown" => {
            shared.log(format_args!("shutdown requested (id={id:?})"));
            token.request();
            Ok(ok(Json::Object(vec![(
                "stopping".into(),
                Json::Bool(true),
            )])))
        }
        other => Err(bad_request(format!("unknown request type `{other}`"))),
    }
}

fn field_mut<'a>(object: &'a mut Json, key: &str) -> Option<&'a mut Json> {
    match object {
        Json::Object(fields) => fields.iter_mut().find(|(k, _)| k == key).map(|(_, v)| v),
        _ => None,
    }
}

/// Move the string under `key` out of a request object, leaving `""`.
fn take_str(object: &mut Json, key: &str) -> Option<String> {
    match field_mut(object, key)? {
        Json::Str(text) => Some(std::mem::take(text)),
        _ => None,
    }
}

/// Decode the `units` field: an array of `{name, source}` or `{name?,
/// path}` objects (paths are read daemon-side). Names and sources are moved
/// out of the parsed request, not copied.
fn decode_units(request: &mut Json) -> Result<Vec<(String, String)>, RequestError> {
    let Some(Json::Array(units)) = field_mut(request, "units") else {
        return Err(bad_request("missing `units` array"));
    };
    if units.is_empty() {
        return Err(bad_request("`units` must not be empty"));
    }
    let mut decoded = Vec::with_capacity(units.len());
    for (i, unit) in units.iter_mut().enumerate() {
        let name = take_str(unit, "name");
        if let Some(source) = take_str(unit, "source") {
            let name = name.ok_or_else(|| bad_request(format!("units[{i}] missing `name`")))?;
            decoded.push((name, source));
        } else if let Some(path) = take_str(unit, "path") {
            let source = std::fs::read_to_string(&path).map_err(|e| {
                RequestError::new(
                    ErrorKind::Io,
                    format!("units[{i}]: cannot read {path}: {e}"),
                )
            })?;
            let name = name
                .or_else(|| {
                    std::path::Path::new(&path)
                        .file_name()
                        .map(|f| f.to_string_lossy().into_owned())
                })
                .unwrap_or(path);
            decoded.push((name, source));
        } else {
            return Err(bad_request(format!("units[{i}] needs `source` or `path`")));
        }
    }
    Ok(decoded)
}

/// Validate a client-supplied plan-JSON document against the Mapping IR
/// format this daemon build reads. A document written at a previous
/// `PLAN_FORMAT_VERSION` answers a structured `bad_request` carrying the
/// core error text instead of being half-read (or panicking a session).
fn handle_check_plans(request: &Json) -> Result<Json, RequestError> {
    let rendered;
    let doc = match request.get("plans") {
        Some(Json::Str(text)) => text.as_str(),
        Some(value) => {
            rendered = value.render();
            rendered.as_str()
        }
        None => {
            return Err(bad_request(
                "missing `plans` field (a plan-JSON document, as a string or embedded value)",
            ))
        }
    };
    match ompdart_core::plan::plans_from_json(doc) {
        Ok(plans) => Ok(Json::Object(vec![
            ("valid".into(), Json::Bool(true)),
            (
                "format_version".into(),
                Json::Int(i64::from(ompdart_core::plan::PLAN_FORMAT_VERSION)),
            ),
            ("plans".into(), Json::Int(plans.len() as i64)),
            (
                "constructs".into(),
                Json::Int(plans.iter().map(|p| p.construct_count()).sum::<usize>() as i64),
            ),
        ])),
        Err(e) => Err(bad_request(format!("plan document rejected: {e}"))),
    }
}

/// A `bad_request` error: the request itself is malformed.
fn bad_request(message: impl Into<String>) -> RequestError {
    RequestError::new(ErrorKind::BadRequest, message)
}

fn program_key(request: &Json) -> String {
    request
        .get("program")
        .and_then(Json::as_str)
        .unwrap_or("default")
        .to_string()
}

/// The analysis body of an `analyze` request, answered as the rendered
/// response: the request's units — one or many — are the program, linked
/// by the program's driver.
fn run_analyze(
    shared: &Shared,
    session: &ProgramSession,
    id: Option<i64>,
    units: &[(String, String)],
) -> Result<Answer, RequestError> {
    let (program, stats) = session
        .analyze_program(units)
        .map_err(|e| RequestError::new(ErrorKind::Analysis, e.to_string()))?;
    log_analyze(shared, session.key(), &program.served, &stats);
    let rows: Vec<AnalyzedUnit<'_>> = units
        .iter()
        .zip(&program.served)
        .zip(&program.units)
        .map(|(((name, _), serve), analysis)| (name.as_str(), *serve, &**analysis))
        .collect();
    let response = analyze_response(id, session.key(), &rows, &stats, program.link_passes);
    Ok((response, program.units))
}

/// Human-readable serve verdict, as the daemon logs and answers it and the
/// CLI prints it.
pub fn serve_label(serve: &UnitServe) -> &'static str {
    match serve {
        UnitServe::Cached => "cached",
        UnitServe::Store => "store",
        UnitServe::Planned => "planned",
    }
}

/// One unit of an `analyze` response: its name as requested, how it was
/// served, and its analysis.
pub type AnalyzedUnit<'a> = (&'a str, UnitServe, &'a UnitAnalysis);

/// The rendered `ok` response of an `analyze` request, written straight
/// into one buffer: no [`Json`] tree of it is built and the payload-heavy
/// parts — each unit's rewritten source and plan document — are the
/// analysis's own memoised renderings, so an unchanged unit costs a copy.
/// `stats` is the request's own movement of the program's counters; its
/// fourteen integers alone go through [`CacheStats::to_json`], the one
/// place that object's format lives.
pub fn analyze_response(
    id: Option<i64>,
    key: &str,
    units: &[AnalyzedUnit<'_>],
    stats: &CacheStats,
    link_passes: usize,
) -> String {
    use std::fmt::Write as _;
    // The spliced bytes, plus room for each unit's keys and serve label
    // and for the envelope and `request_stats`.
    let payload: usize = units
        .iter()
        .map(|(name, _, unit)| {
            name.len() + unit.rewritten_source_json().len() + unit.plans_json_compact().len() + 96
        })
        .sum();
    let mut out = String::with_capacity(payload + key.len() + 1024);
    protocol::write_ok_head(&mut out, id);
    out.push_str("{\"program\":");
    write_json_string(&mut out, key);
    out.push_str(",\"units\":[");
    for (i, (name, serve, unit)) in units.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"name\":");
        write_json_string(&mut out, name);
        out.push_str(",\"serve\":");
        write_json_string(&mut out, serve_label(serve));
        out.push_str(",\"rewritten_source\":");
        out.push_str(unit.rewritten_source_json());
        out.push_str(",\"plans\":");
        out.push_str(unit.plans_json_compact());
        out.push('}');
    }
    out.push_str("],\"request_stats\":");
    stats.to_json().render_into(&mut out);
    let _ = write!(out, ",\"link_passes\":{link_passes}}}}}");
    out
}

fn log_analyze(shared: &Shared, key: &str, serves: &[UnitServe], stats: &CacheStats) {
    if shared.quiet {
        return;
    }
    let serves: Vec<&str> = serves.iter().map(serve_label).collect();
    shared.log(format_args!(
        "analyze program={key} units={} serves=[{}] {stats}",
        serves.len(),
        serves.join(", "),
    ));
}

/// Byte offset of a 1-based line:col position in `source`.
fn offset_of(source: &str, line: u32, col: u32) -> Option<u32> {
    let mut offset = 0usize;
    for (current, text) in (1u32..).zip(source.split_inclusive('\n')) {
        if current == line {
            let within = (col.max(1) - 1) as usize;
            if within < text.len() {
                return Some((offset + within) as u32);
            }
            return Some((offset + text.len().saturating_sub(1)) as u32);
        }
        offset += text.len();
    }
    None
}

/// An `explain` request: its one unit analyzed as a one-unit program
/// ([`ProgramSession::explained`], which sees no other unit of the program
/// and leaves the program's link state alone), read at the queried
/// position. A unit whose calls reach into its siblings can be planned
/// differently here than in the linked plan a whole-program `analyze`
/// returned.
fn handle_explain(
    request: &mut Json,
    shared: &Shared,
) -> Result<(Json, Arc<UnitAnalysis>), RequestError> {
    let units = decode_units(request)?;
    let [(name, source)] = &units[..] else {
        return Err(bad_request("`explain` takes exactly one unit"));
    };
    let line = request
        .get("line")
        .and_then(Json::as_int)
        .ok_or_else(|| bad_request("missing `line` (1-based int)"))?;
    let col = request.get("col").and_then(Json::as_int).unwrap_or(1);
    let (Ok(line @ 1..), Ok(col @ 1..)) = (u32::try_from(line), u32::try_from(col)) else {
        return Err(bad_request(
            "`line` and `col` are 1-based and at most 4294967295",
        ));
    };
    let session = shared.registry.program(&program_key(request));
    let analysis = session
        .explained(name, source)
        .map_err(|e| RequestError::new(ErrorKind::Analysis, e.to_string()))?;
    let result = explain_result(&analysis, name, source, line, col);
    Ok((result, analysis))
}

/// The hover payload: every provenance fact whose deciding span covers the
/// queried position, LSP-style.
pub fn explain_result(
    analysis: &UnitAnalysis,
    name: &str,
    source: &str,
    line: u32,
    col: u32,
) -> Json {
    let mut facts = Vec::new();
    let mut hovered_line = Json::Null;
    if let Some(offset) = offset_of(source, line, col) {
        hovered_line = Json::Str(analysis.source_file().line_text(offset).to_string());
        for plan in analysis.plans() {
            for provenance in plan.provenances() {
                let Some(span) = provenance.span else {
                    continue;
                };
                if !span.contains_pos(offset) {
                    continue;
                }
                let at = analysis.source_file().line_col(span.start);
                facts.push(Json::Object(vec![
                    ("function".into(), Json::Str(plan.function.clone())),
                    ("stage".into(), Json::Str(provenance.stage.name().into())),
                    ("fact".into(), Json::Str(provenance.fact.key().into())),
                    ("detail".into(), Json::Str(provenance.detail.clone())),
                    ("line".into(), Json::Int(i64::from(at.line))),
                    ("col".into(), Json::Int(i64::from(at.col))),
                    (
                        "snippet".into(),
                        Json::Str(analysis.source_file().snippet(span).to_string()),
                    ),
                ]));
            }
        }
    }
    Json::Object(vec![
        ("name".into(), Json::Str(name.to_string())),
        ("line".into(), Json::Int(i64::from(line))),
        ("col".into(), Json::Int(i64::from(col))),
        ("hovered_line".into(), hovered_line),
        ("facts".into(), Json::Array(facts)),
    ])
}

fn stats_result(shared: &Shared) -> Json {
    let programs: Vec<Json> = shared
        .registry
        .sessions()
        .iter()
        .map(|session| {
            Json::Object(vec![
                ("program".into(), Json::Str(session.key().to_string())),
                ("stats".into(), session.stats().to_json()),
                // Additive in protocol v1: `null` until the program's
                // first `analyze` request completes.
                (
                    "profile".into(),
                    session
                        .last_profile()
                        .map_or(Json::Null, |p| p.to_wire_json()),
                ),
                // Additive in protocol v1: `null` until the program's
                // first *edit* round (a request served over previously
                // recorded link state) completes.
                (
                    "edit_profile".into(),
                    session
                        .last_edit_profile()
                        .map_or(Json::Null, |p| p.to_wire_json()),
                ),
            ])
        })
        .collect();
    Json::Object(vec![
        ("programs".into(), Json::Array(programs)),
        ("workers".into(), Json::Int(shared.workers as i64)),
        (
            "panics".into(),
            Json::Int(shared.panics.load(Ordering::Relaxed) as i64),
        ),
    ])
}

fn handle_gc(request: &Json, shared: &Shared) -> Result<Json, RequestError> {
    let max_bytes = request
        .get("max_bytes")
        .and_then(Json::as_int)
        .filter(|&n| n >= 0)
        .ok_or_else(|| bad_request("missing `max_bytes` (non-negative)"))?
        as u64;
    let reports = match request.get("program").and_then(Json::as_str) {
        // A key with no live session answers no report; looking it up
        // creates neither a session nor a store subdirectory.
        Some(key) => (shared.registry.get(key))
            .and_then(|session| session.gc(max_bytes))
            .map(|report| vec![(key.to_string(), report)])
            .unwrap_or_default(),
        None => shared.registry.gc_all(max_bytes),
    };
    let programs: Vec<Json> = reports
        .into_iter()
        .map(|(key, report)| {
            Json::Object(vec![
                ("program".into(), Json::Str(key)),
                (
                    "entries_before".into(),
                    Json::Int(report.entries_before as i64),
                ),
                (
                    "entries_evicted".into(),
                    Json::Int(report.entries_evicted as i64),
                ),
                ("bytes_freed".into(), Json::Int(report.bytes_freed as i64)),
                ("bytes_kept".into(), Json::Int(report.bytes_kept as i64)),
            ])
        })
        .collect();
    Ok(Json::Object(vec![(
        "programs".into(),
        Json::Array(programs),
    )]))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `--socket PATH` and `--tcp ADDR` name the endpoint, the later one
    /// when both are given; without either it is `ompdartd.sock`.
    #[test]
    fn endpoint_parse_and_display() {
        let parse = |line: &str| {
            let args: Vec<String> = line.split_whitespace().map(str::to_string).collect();
            Endpoint::from_flags(
                &Flags::read(&args, &["--socket=a path", "--tcp=an address"]).unwrap(),
            )
        };
        assert_eq!(parse(""), Endpoint::Unix(PathBuf::from("ompdartd.sock")));
        assert_eq!(
            parse("--socket /tmp/d.sock"),
            Endpoint::Unix(PathBuf::from("/tmp/d.sock"))
        );
        assert_eq!(
            parse("--socket /tmp/d.sock --tcp 127.0.0.1:0"),
            Endpoint::Tcp("127.0.0.1:0".into())
        );
        assert_eq!(
            parse("--tcp 127.0.0.1:0 --socket /tmp/d.sock"),
            Endpoint::Unix(PathBuf::from("/tmp/d.sock"))
        );
        assert_eq!(
            Endpoint::Tcp("127.0.0.1:9".into()).to_string(),
            "tcp:127.0.0.1:9"
        );
    }

    #[test]
    fn sizes_parse_with_suffixes_and_overflow_is_an_error() {
        assert_eq!(parse_size("1048576"), Ok(1 << 20));
        assert_eq!(parse_size("64k"), Ok(64 << 10));
        assert_eq!(parse_size(" 256M "), Ok(256 << 20));
        assert_eq!(parse_size("2g"), Ok(2 << 30));
        assert!(parse_size("99999999999g").is_err());
        assert!(parse_size("g").is_err());
        assert!(parse_size("-1").is_err());
    }

    #[test]
    fn daemon_flags_parse_through_one_front_door() {
        let parse = |line: &str| {
            let args: Vec<String> = line.split_whitespace().map(str::to_string).collect();
            DaemonConfig::from_args(&args)
        };
        let config = parse("").unwrap();
        assert_eq!(config.endpoint, Endpoint::Unix("ompdartd.sock".into()));
        assert_eq!((config.registry.parallelism, config.quiet), (0, false));

        let config = parse(
            "--tcp 127.0.0.1:0 --workers 3 --cache-dir /tmp/c --cache-max-bytes 1m \
             --pessimistic-globals --quiet",
        )
        .unwrap();
        assert_eq!(config.endpoint, Endpoint::Tcp("127.0.0.1:0".into()));
        assert_eq!((config.registry.parallelism, config.quiet), (3, true));
        assert_eq!(config.registry.cache_dir, Some(PathBuf::from("/tmp/c")));
        assert_eq!(config.registry.cache_max_bytes, Some(1 << 20));
        assert!(config.registry.pessimistic_globals);

        for bad in [
            "--workers",
            "--workers many",
            "--cache-max-bytes 99999999999g",
            "--frobnicate",
            "--link-threads 2",
        ] {
            assert!(parse(bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn offsets_resolve_one_based_positions() {
        let src = "int x;\nint y;\n";
        assert_eq!(offset_of(src, 1, 1), Some(0));
        assert_eq!(offset_of(src, 2, 1), Some(7));
        assert_eq!(offset_of(src, 2, 5), Some(11));
        // Past the last column clamps to the line end; past the last line
        // is out of range.
        assert_eq!(offset_of(src, 1, 99), Some(6));
        assert_eq!(offset_of(src, 9, 1), None);
    }

    /// Fault injection: a panicking closure goes through the boundary real
    /// requests are served in. It is answered, counted and its program's
    /// session dropped; the next real request for that program, on the
    /// same connection, rebuilds the session from its store; and shutdown
    /// still completes and flushes.
    #[test]
    fn a_panicking_request_is_answered_and_its_session_rebuilt() {
        let _serial = signal::serial();
        let dir = std::env::temp_dir().join(format!("ompdartd-panic-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let (socket, cache) = (dir.join("d.sock"), dir.join("cache"));
        let (handle, shared) = DaemonHandle::start(DaemonConfig {
            endpoint: Endpoint::Unix(socket.clone()),
            registry: RegistryConfig {
                cache_dir: Some(cache.clone()),
                ..RegistryConfig::default()
            },
            quiet: true,
        })
        .expect("bind");
        let units = [(
            "p.c".to_string(),
            "#define N 16\ndouble a[N];\nint main() {\n  for (int it = 0; it < 2; it++) {\n    #pragma omp target teams distribute parallel for\n    for (int i = 0; i < N; i++) a[i] += 1.0;\n  }\n  printf(\"%f\\n\", a[0]);\n  return 0;\n}\n"
                .to_string(),
        )];
        let serve = |result: &Json| {
            let units = result.get("units").and_then(Json::as_array).expect("units");
            units[0]
                .get("serve")
                .and_then(Json::as_str)
                .map(str::to_string)
        };
        let mut client = crate::Client::connect(handle.endpoint()).expect("connect");
        let cold = client.analyze_sources("p", &units).expect("cold");
        assert!(serve(&cold).is_some_and(|s| s.starts_with("planned")));

        let (response, answered) =
            guarded(&shared, Some(41), Some("p"), || panic!("injected fault"));
        assert!(answered.is_empty());
        let response = Json::parse(&response).expect("a JSON response");
        assert_eq!(response.get("id").and_then(Json::as_int), Some(41));
        assert_eq!(response.get("ok").and_then(Json::as_bool), Some(false));
        let kind = response.get("error").and_then(|e| e.get("kind"));
        assert_eq!(kind.and_then(Json::as_str), Some("analysis"));
        assert!(shared.registry.keys().is_empty(), "the session must go");
        let stats = client.stats().expect("stats");
        assert_eq!(stats.get("panics").and_then(Json::as_int), Some(1));

        let rebuilt = client.analyze_sources("p", &units).expect("answered");
        assert_eq!(serve(&rebuilt).as_deref(), Some("store"));
        assert_eq!(shared.registry.keys(), ["p"]);

        client.shutdown().expect("shutdown");
        handle.join();
        assert!(!socket.exists(), "shutdown must complete");
        let flushed = ProgramRegistry::new(RegistryConfig {
            cache_dir: Some(cache),
            ..RegistryConfig::default()
        });
        let (warm, _) = flushed.program("p").analyze_program(&units).unwrap();
        assert_eq!(warm.served, [UnitServe::Store]);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
