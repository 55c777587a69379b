//! The `ompdartd` wire protocol: length-prefixed JSON frames.
//!
//! Every message — request or response — is one *frame*: a 4-byte
//! big-endian `u32` byte length followed by exactly that many bytes of
//! UTF-8 JSON, handed to the transport in one write ([`write_frame`]). The
//! payload reuses the crate-wide hand-rolled [`Json`] value (the same
//! machinery that serializes the versioned plan JSON), so the daemon's
//! responses embed plan documents verbatim. Small responses are built as a
//! [`Json`] value and rendered; an `analyze` response — the one that
//! carries sources and plan documents — is written straight into the
//! frame's buffer by [`crate::daemon::analyze_response`] from renderings
//! each unit's analysis already holds, byte for byte what rendering
//! [`ok_response`] of the equivalent value would give.
//!
//! Requests are objects of the shape
//!
//! ```json
//! {"version": 1, "id": 7, "request": "analyze", ...}
//! ```
//!
//! and every response echoes the `id` back:
//!
//! ```json
//! {"version": 1, "id": 7, "ok": true,  "result": {...}}
//! {"version": 1, "id": 7, "ok": false, "error": {"kind": "...", "message": "..."}}
//! ```
//!
//! Malformed input degrades to a *structured error response*, never to a
//! dead daemon: a frame longer than [`MAX_FRAME_BYTES`], invalid UTF-8, or
//! unparseable JSON each produce an `ok:false` response (the first two
//! also close the connection, because the stream can no longer be
//! re-synchronized; a well-framed bad payload keeps the connection open).

use ompdart_core::plan::Json;
use std::io::{IoSlice, Read, Write};

/// Version of the request/response schema. Bumped on incompatible change;
/// the daemon rejects other versions with a structured error.
pub const PROTOCOL_VERSION: u32 = 1;

/// Upper bound on one frame's payload. Large enough for a whole-program
/// analyze request carrying inline sources; small enough that a garbage
/// or adversarial length prefix cannot make the daemon allocate
/// gigabytes. Oversized prefixes are reported and the connection closed.
pub const MAX_FRAME_BYTES: u32 = 64 << 20;

/// Why a frame could not be read.
#[derive(Debug)]
pub enum FrameError {
    /// The peer closed the connection cleanly between frames.
    Closed,
    /// The connection died inside a frame (truncated prefix or payload).
    Truncated(std::io::Error),
    /// The length prefix exceeds [`MAX_FRAME_BYTES`].
    Oversized(u32),
    /// The payload is not valid UTF-8.
    NotUtf8,
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Closed => write!(f, "connection closed"),
            FrameError::Truncated(e) => write!(f, "truncated frame: {e}"),
            FrameError::Oversized(n) => write!(
                f,
                "length prefix {n} exceeds the {MAX_FRAME_BYTES}-byte frame cap"
            ),
            FrameError::NotUtf8 => write!(f, "frame payload is not valid UTF-8"),
        }
    }
}

impl std::error::Error for FrameError {}

/// Read one frame's payload text. `Ok(payload)` on success;
/// [`FrameError::Closed`] is the *clean* end of the stream (EOF exactly at
/// a frame boundary), everything else is a protocol violation.
pub fn read_frame(reader: &mut impl Read) -> Result<String, FrameError> {
    let mut prefix = [0u8; 4];
    let mut filled = 0usize;
    while filled < 4 {
        match reader.read(&mut prefix[filled..]) {
            Ok(0) if filled == 0 => return Err(FrameError::Closed),
            Ok(0) => {
                return Err(FrameError::Truncated(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "EOF inside length prefix",
                )))
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(FrameError::Truncated(e)),
        }
    }
    let len = u32::from_be_bytes(prefix);
    if len > MAX_FRAME_BYTES {
        return Err(FrameError::Oversized(len));
    }
    let mut payload = vec![0u8; len as usize];
    if let Err(e) = reader.read_exact(&mut payload) {
        return Err(FrameError::Truncated(e));
    }
    String::from_utf8(payload).map_err(|_| FrameError::NotUtf8)
}

/// Write one frame. Prefix and payload go out in one vectored write (one
/// syscall on a socket, and the peer never wakes on a bare prefix), looped
/// only if the writer takes less than it was offered.
pub fn write_frame(writer: &mut impl Write, payload: &str) -> std::io::Result<()> {
    let bytes = payload.as_bytes();
    debug_assert!(bytes.len() <= MAX_FRAME_BYTES as usize);
    let prefix = (bytes.len() as u32).to_be_bytes();
    let mut parts = [IoSlice::new(&prefix), IoSlice::new(bytes)];
    let mut parts = &mut parts[..];
    // `advance_slices` drops every part that is used up, an empty payload
    // included.
    while !parts.is_empty() {
        match writer.write_vectored(parts) {
            Ok(0) => return Err(std::io::ErrorKind::WriteZero.into()),
            Ok(n) => IoSlice::advance_slices(&mut parts, n),
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    writer.flush()
}

// ---------------------------------------------------------------------------
// Response construction
// ---------------------------------------------------------------------------

/// Machine-readable error kinds of `ok:false` responses.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ErrorKind {
    /// The frame itself was malformed (oversized prefix, bad UTF-8). The
    /// connection is closed after this error.
    BadFrame,
    /// The payload was not parseable JSON.
    BadJson,
    /// The request was well-formed JSON but semantically invalid: wrong
    /// protocol version, unknown request type, missing field.
    BadRequest,
    /// The analysis itself failed (parse error, duplicate definitions), or
    /// serving the request panicked.
    Analysis,
    /// Daemon-side I/O failed (e.g. a requested path could not be read).
    Io,
}

impl ErrorKind {
    /// Stable wire keyword.
    pub fn key(&self) -> &'static str {
        match self {
            ErrorKind::BadFrame => "bad_frame",
            ErrorKind::BadJson => "bad_json",
            ErrorKind::BadRequest => "bad_request",
            ErrorKind::Analysis => "analysis",
            ErrorKind::Io => "io",
        }
    }
}

/// A structured request failure: the wire `error` object plus whether the
/// connection can keep going.
#[derive(Debug)]
pub struct RequestError {
    pub kind: ErrorKind,
    pub message: String,
}

impl RequestError {
    pub fn new(kind: ErrorKind, message: impl Into<String>) -> RequestError {
        RequestError {
            kind,
            message: message.into(),
        }
    }
}

/// The `ok:true` response for request `id`.
pub fn ok_response(id: Option<i64>, result: Json) -> Json {
    Json::Object(vec![
        ("version".into(), Json::Int(i64::from(PROTOCOL_VERSION))),
        ("id".into(), id.map(Json::Int).unwrap_or(Json::Null)),
        ("ok".into(), Json::Bool(true)),
        ("result".into(), result),
    ])
}

/// Everything of [`ok_response`]'s compact rendering that precedes the
/// result: a caller appends the rendered result and the closing `}`.
pub(crate) fn write_ok_head(out: &mut String, id: Option<i64>) {
    use std::fmt::Write as _;
    let _ = write!(out, "{{\"version\":{PROTOCOL_VERSION},\"id\":");
    let _ = match id {
        Some(id) => write!(out, "{id}"),
        None => write!(out, "null"),
    };
    out.push_str(",\"ok\":true,\"result\":");
}

/// The `ok:false` response for request `id`.
pub fn error_response(id: Option<i64>, error: &RequestError) -> Json {
    Json::Object(vec![
        ("version".into(), Json::Int(i64::from(PROTOCOL_VERSION))),
        ("id".into(), id.map(Json::Int).unwrap_or(Json::Null)),
        ("ok".into(), Json::Bool(false)),
        (
            "error".into(),
            Json::Object(vec![
                ("kind".into(), Json::Str(error.kind.key().into())),
                ("message".into(), Json::Str(error.message.clone())),
            ]),
        ),
    ])
}

/// Build a request envelope: `{"version", "id", "request", ...fields}`.
pub fn request(id: i64, kind: &str, fields: Vec<(String, Json)>) -> Json {
    let mut object = vec![
        ("version".into(), Json::Int(i64::from(PROTOCOL_VERSION))),
        ("id".into(), Json::Int(id)),
        ("request".into(), Json::Str(kind.into())),
    ];
    object.extend(fields);
    Json::Object(object)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_round_trip() {
        let mut buf: Vec<u8> = Vec::new();
        write_frame(&mut buf, "{\"x\":1}").unwrap();
        write_frame(&mut buf, "").unwrap();
        let mut cursor = std::io::Cursor::new(buf);
        assert_eq!(read_frame(&mut cursor).unwrap(), "{\"x\":1}");
        assert_eq!(read_frame(&mut cursor).unwrap(), "");
        assert!(matches!(read_frame(&mut cursor), Err(FrameError::Closed)));
    }

    /// Counts calls, and takes at most `limit` bytes per call.
    struct CountingWriter {
        sink: Vec<u8>,
        writes: usize,
        limit: usize,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.write_vectored(&[IoSlice::new(buf)])
        }

        fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> std::io::Result<usize> {
            self.writes += 1;
            let before = self.sink.len();
            for buf in bufs {
                let room = self.limit - (self.sink.len() - before);
                self.sink.extend_from_slice(&buf[..buf.len().min(room)]);
            }
            Ok(self.sink.len() - before)
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_frame_is_one_write_and_short_writes_are_completed() {
        let payload = "{\"rewritten_source\":\"int main() {}\"}";
        let mut whole = CountingWriter {
            sink: Vec::new(),
            writes: 0,
            limit: usize::MAX,
        };
        write_frame(&mut whole, payload).unwrap();
        assert_eq!(whole.writes, 1, "prefix and payload must go out together");
        assert_eq!(whole.sink[..4], (payload.len() as u32).to_be_bytes());
        assert_eq!(&whole.sink[4..], payload.as_bytes());

        // A writer that takes three bytes at a time splits the prefix and
        // the payload at every possible place; the frame still arrives whole.
        let mut slow = CountingWriter {
            sink: Vec::new(),
            writes: 0,
            limit: 3,
        };
        write_frame(&mut slow, payload).unwrap();
        write_frame(&mut slow, "").unwrap();
        assert_eq!(slow.writes, (4 + payload.len()).div_ceil(3) + 2);
        let mut cursor = std::io::Cursor::new(slow.sink);
        assert_eq!(read_frame(&mut cursor).unwrap(), payload);
        assert_eq!(read_frame(&mut cursor).unwrap(), "");

        // A writer that takes nothing is an error, not a spin.
        let mut stuck = CountingWriter {
            sink: Vec::new(),
            writes: 0,
            limit: 0,
        };
        let err = write_frame(&mut stuck, payload).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::WriteZero);
    }

    #[test]
    fn oversized_prefix_is_rejected_without_allocating() {
        let mut buf: Vec<u8> = Vec::new();
        buf.extend_from_slice(&u32::MAX.to_be_bytes());
        let mut cursor = std::io::Cursor::new(buf);
        assert!(matches!(
            read_frame(&mut cursor),
            Err(FrameError::Oversized(u32::MAX))
        ));
    }

    #[test]
    fn truncated_frames_are_distinguished_from_clean_close() {
        // EOF inside the prefix.
        let mut cursor = std::io::Cursor::new(vec![0u8, 0]);
        assert!(matches!(
            read_frame(&mut cursor),
            Err(FrameError::Truncated(_))
        ));
        // EOF inside the payload.
        let mut buf: Vec<u8> = Vec::new();
        buf.extend_from_slice(&10u32.to_be_bytes());
        buf.extend_from_slice(b"abc");
        let mut cursor = std::io::Cursor::new(buf);
        assert!(matches!(
            read_frame(&mut cursor),
            Err(FrameError::Truncated(_))
        ));
    }

    #[test]
    fn non_utf8_payload_is_a_frame_error() {
        let mut buf: Vec<u8> = Vec::new();
        buf.extend_from_slice(&2u32.to_be_bytes());
        buf.extend_from_slice(&[0xff, 0xfe]);
        let mut cursor = std::io::Cursor::new(buf);
        assert!(matches!(read_frame(&mut cursor), Err(FrameError::NotUtf8)));
    }

    #[test]
    fn responses_carry_the_id_and_shape() {
        let ok = ok_response(Some(3), Json::Object(vec![]));
        assert_eq!(ok.get("id").and_then(Json::as_int), Some(3));
        assert_eq!(ok.get("ok").and_then(Json::as_bool), Some(true));
        // The head an `analyze` response is spliced behind is this envelope.
        for id in [Some(3), Some(-7), None] {
            let mut spliced = String::new();
            write_ok_head(&mut spliced, id);
            spliced.push_str("{}}");
            assert_eq!(spliced, ok_response(id, Json::Object(vec![])).render());
        }
        let err = error_response(None, &RequestError::new(ErrorKind::BadJson, "nope"));
        assert!(err.get("id").unwrap().is_null());
        assert_eq!(
            err.get("error").unwrap().get("kind").and_then(Json::as_str),
            Some("bad_json")
        );
    }
}
