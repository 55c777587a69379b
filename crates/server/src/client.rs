//! A small synchronous client for `ompdartd` — used by the `ompdart
//! client` CLI verbs, the integration tests, and CI's scripted drivers.
//!
//! The client sends one request per call and blocks for the matching
//! response (matched by `id`; the daemon answers a connection's requests
//! in order, so a response to an earlier request the caller left unread is
//! skipped, not fatal). All analysis state lives daemon-side: a client is
//! nothing but a connected stream and a request counter.

use crate::daemon::{Conn, Endpoint};
use crate::protocol::{self, FrameError, PROTOCOL_VERSION};
use ompdart_core::plan::Json;

/// Why a client call failed.
#[derive(Debug)]
pub enum ClientError {
    /// Transport-level failure (connect, write, read, framing).
    Io(String),
    /// The daemon answered `ok:false`: structured kind + message.
    Remote { kind: String, message: String },
    /// The daemon answered something the client cannot interpret.
    Protocol(String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "daemon I/O failed: {e}"),
            ClientError::Remote { kind, message } => {
                write!(f, "daemon refused ({kind}): {message}")
            }
            ClientError::Protocol(e) => write!(f, "protocol violation: {e}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> ClientError {
        ClientError::Io(e.to_string())
    }
}

impl From<FrameError> for ClientError {
    fn from(e: FrameError) -> ClientError {
        ClientError::Io(e.to_string())
    }
}

/// One connection to a running daemon.
pub struct Client {
    conn: Conn,
    next_id: i64,
}

impl Client {
    /// Connect to the daemon at `endpoint`.
    pub fn connect(endpoint: &Endpoint) -> Result<Client, ClientError> {
        Ok(Client {
            conn: endpoint.connect()?,
            next_id: 1,
        })
    }

    /// Send `request` with fresh id + version and wait for its response.
    /// Returns the `result` object of an `ok:true` answer.
    pub fn request(
        &mut self,
        kind: &str,
        fields: Vec<(String, Json)>,
    ) -> Result<Json, ClientError> {
        let id = self.next_id;
        self.next_id += 1;
        let payload = protocol::request(id, kind, fields).render();
        protocol::write_frame(&mut self.conn, &payload)?;
        loop {
            let text = protocol::read_frame(&mut self.conn)?;
            let response = Json::parse(&text)
                .map_err(|e| ClientError::Protocol(format!("unparseable response: {e}")))?;
            match response.get("id").and_then(Json::as_int) {
                Some(got) if got == id => return unwrap_response(response),
                // A response to an earlier pipelined request (or an
                // id-less frame error that predates ours): skip.
                Some(_) => continue,
                None => return unwrap_response(response),
            }
        }
    }

    /// `analyze` inline sources under `program`.
    pub fn analyze_sources(
        &mut self,
        program: &str,
        units: &[(String, String)],
    ) -> Result<Json, ClientError> {
        let units = units
            .iter()
            .map(|(name, source)| {
                Json::Object(vec![
                    ("name".into(), Json::Str(name.clone())),
                    ("source".into(), Json::Str(source.clone())),
                ])
            })
            .collect();
        self.request(
            "analyze",
            vec![
                ("program".into(), Json::Str(program.to_string())),
                ("units".into(), Json::Array(units)),
            ],
        )
    }

    /// `analyze` daemon-side paths under `program`.
    pub fn analyze_paths(&mut self, program: &str, paths: &[String]) -> Result<Json, ClientError> {
        let units = paths
            .iter()
            .map(|path| Json::Object(vec![("path".into(), Json::Str(path.clone()))]))
            .collect();
        self.request(
            "analyze",
            vec![
                ("program".into(), Json::Str(program.to_string())),
                ("units".into(), Json::Array(units)),
            ],
        )
    }

    /// `explain`: hover facts at a 1-based line:col of one unit.
    pub fn explain(
        &mut self,
        program: &str,
        name: &str,
        source: &str,
        line: u32,
        col: u32,
    ) -> Result<Json, ClientError> {
        let unit = Json::Object(vec![
            ("name".into(), Json::Str(name.to_string())),
            ("source".into(), Json::Str(source.to_string())),
        ]);
        self.request(
            "explain",
            vec![
                ("program".into(), Json::Str(program.to_string())),
                ("units".into(), Json::Array(vec![unit])),
                ("line".into(), Json::Int(i64::from(line))),
                ("col".into(), Json::Int(i64::from(col))),
            ],
        )
    }

    /// `stats`: per-program cumulative counters.
    pub fn stats(&mut self) -> Result<Json, ClientError> {
        self.request("stats", Vec::new())
    }

    /// `gc`: evict persistent stores down to `max_bytes` (all programs, or
    /// one).
    pub fn gc(&mut self, max_bytes: u64, program: Option<&str>) -> Result<Json, ClientError> {
        let mut fields = vec![("max_bytes".into(), Json::Int(max_bytes as i64))];
        if let Some(key) = program {
            fields.push(("program".into(), Json::Str(key.to_string())));
        }
        self.request("gc", fields)
    }

    /// `check_plans`: validate a plan-JSON document against the plan format
    /// this daemon build reads. Old plan versions come back as a structured
    /// `bad_request` error instead of a crash.
    pub fn check_plans(&mut self, plans: &str) -> Result<Json, ClientError> {
        self.request(
            "check_plans",
            vec![("plans".into(), Json::Str(plans.to_string()))],
        )
    }

    /// `shutdown`: ask the daemon to drain, flush, and exit.
    pub fn shutdown(&mut self) -> Result<Json, ClientError> {
        self.request("shutdown", Vec::new())
    }

    /// Send a raw pre-rendered payload and read one raw response frame.
    /// The robustness tests use this to poke the daemon with malformed
    /// input.
    pub fn raw_round_trip(&mut self, payload: &str) -> Result<String, ClientError> {
        protocol::write_frame(&mut self.conn, payload)?;
        Ok(protocol::read_frame(&mut self.conn)?)
    }
}

fn unwrap_response(response: Json) -> Result<Json, ClientError> {
    if response.get("version").and_then(Json::as_int) != Some(i64::from(PROTOCOL_VERSION)) {
        return Err(ClientError::Protocol(format!(
            "unsupported response version (client speaks {PROTOCOL_VERSION})"
        )));
    }
    match response.get("ok").and_then(Json::as_bool) {
        Some(true) => response
            .get("result")
            .cloned()
            .ok_or_else(|| ClientError::Protocol("ok response without `result`".into())),
        Some(false) => {
            let error = response.get("error");
            let field = |name: &str| {
                error
                    .and_then(|e| e.get(name))
                    .and_then(Json::as_str)
                    .unwrap_or("unknown")
                    .to_string()
            };
            Err(ClientError::Remote {
                kind: field("kind"),
                message: field("message"),
            })
        }
        None => Err(ClientError::Protocol("response without `ok`".into())),
    }
}
