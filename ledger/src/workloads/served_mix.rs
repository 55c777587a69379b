//! `served_mix`: the daemon user's latency. A release `ompdartd --workers
//! 2 --cache-dir …` child listens on a unix socket; one closed-loop client
//! connection (the next request is sent when the previous response has
//! been read and checked) sends a seeded mix to two resident programs,
//! the three-unit `lulesh_mf` and a 200-unit corpus.
//!
//! The mix is 40 % unchanged `analyze`, 30 % one-function-edit `analyze`,
//! 10 % big-program `analyze` (half of them edited), 10 % `explain`, 5 %
//! `stats`, 5 % `check_plans`; every edit is followed by a request that
//! reverts it, so an "unchanged" request always finds the program as the
//! daemon last saw it. Each block also begins with a fixed number of
//! `analyze` requests under program keys the daemon has never seen
//! (cold). Wire framing, `Json` parse/render and the registry dominate and
//! the analysis is small, so a serialisation win shows here and is
//! invisible to `corpus_cold`.

use super::corpus_cold::Corpus;
use super::{expected_at, rewrites_of, series_section, Ctx, Outcome, OverheadProbe};
use crate::harness::{
    median, ms, percentile, proc_status_kb, run_blocks, timed, Reading, Sample, Series,
};
use crate::inputs::{self, CommentEdit, Request, Units, BIG_UNITS};
use crate::layers::ProbeProgram;
use ompdart_core::plan::Json;
use ompdart_core::Ompdart;
use ompdart_server::daemon::{Conn, Endpoint};
use ompdart_server::protocol;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Requests under a never-seen program key at the start of every block. A
/// fixed count, not a share of the mix: each leaves a session resident in
/// the daemon, and the daemon's memory must not depend on how many
/// requests a run gets through.
const COLD_PER_BLOCK: usize = 10;
/// The daemon's peak RSS is read when this many requests have been
/// answered, a fixed point of the seeded schedule, for the same reason.
const RSS_MARK: u64 = 1000;

const SMALL: &str = "lulesh_mf";
const BIG: &str = "corpus200";

/// The two programs with their reference outputs.
struct Programs {
    small: Units,
    small_edit: CommentEdit,
    small_reference: Vec<String>,
    small_reference_edited: Vec<String>,
    big: Corpus,
    /// The unit `explain` is asked about, and positions in it that have
    /// provenance facts.
    explain_unit: (String, String),
    explain_positions: Vec<(u32, u32)>,
    /// A plan-JSON document for `check_plans`, and its plan count.
    plans_doc: String,
    plans_count: i64,
}

impl Programs {
    fn build(seed: u64) -> Result<Programs, String> {
        let small = inputs::lulesh_mf();
        let small_edit = CommentEdit::locate(&small[0].0, &small[0].1)
            .ok_or("lulesh_mf: no function to edit")?;
        let cold = |units: &Units| {
            Ompdart::builder()
                .build()
                .analyze_program(units)
                .map(|analysis| rewrites_of(&analysis))
                .map_err(|e| format!("reference analysis failed: {e}"))
        };
        let mut small_edited = small.clone();
        small_edited[0].1 = small_edit.apply(&small[0].1, 0);

        let explain_unit = small.last().cloned().expect("lulesh_mf has units");
        let analysis = Ompdart::builder()
            .build()
            .analyze(&explain_unit.0, &explain_unit.1)
            .map_err(|e| format!("reference analysis failed: {e}"))?;
        let mut explain_positions: Vec<(u32, u32)> = analysis
            .plans()
            .iter()
            .flat_map(|plan| plan.provenances())
            .filter_map(|provenance| provenance.span)
            .map(|span| {
                let at = analysis.source_file().line_col(span.start);
                (at.line, at.col)
            })
            .collect();
        explain_positions.sort_unstable();
        explain_positions.dedup();
        explain_positions.truncate(8);
        if explain_positions.is_empty() {
            return Err("lulesh_mf: no provenance position to explain".into());
        }

        Ok(Programs {
            small_reference: cold(&small)?,
            small_reference_edited: cold(&small_edited)?,
            small,
            small_edit,
            big: Corpus::generate(BIG_UNITS, seed)?,
            explain_unit,
            explain_positions,
            plans_count: analysis.plans().len() as i64,
            plans_doc: analysis.plans_json(),
        })
    }

    fn small_edited(&self, nonce: u64) -> Units {
        let mut units = self.small.clone();
        units[0].1 = self.small_edit.apply(&self.small[0].1, nonce);
        units
    }
}

/// The daemon child. Dropping it asks for a graceful shutdown, waits, and
/// kills the process if it does not go.
struct Daemon {
    child: Child,
    endpoint: Endpoint,
    socket: PathBuf,
}

impl Daemon {
    fn start(ctx: &Ctx, generation: usize) -> Result<Daemon, String> {
        // Relative to the working directory the child inherits: a unix
        // socket path is limited to about a hundred bytes.
        let socket = ctx.scratch.join(format!("d{generation}.sock"));
        let cache = ctx.scratch.join(format!("daemon-cache-{generation}"));
        let child = Command::new(&ctx.ompdartd)
            .arg("--socket")
            .arg(&socket)
            .args(["--workers", "2", "--quiet", "--cache-dir"])
            .arg(&cache)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot start `{}`: {e}", ctx.ompdartd.display()))?;
        Ok(Daemon {
            child,
            endpoint: Endpoint::Unix(socket.clone()),
            socket,
        })
    }

    /// Connect, retrying while the daemon is still binding its socket.
    fn connect(&mut self) -> Result<Conn, String> {
        let deadline = Instant::now() + Duration::from_secs(20);
        loop {
            match self.endpoint.connect() {
                Ok(conn) => return Ok(conn),
                Err(e) if Instant::now() > deadline => {
                    return Err(format!("daemon did not come up: {e}"))
                }
                Err(_) => {}
            }
            if let Ok(Some(status)) = self.child.try_wait() {
                return Err(format!("daemon exited at start: {status}"));
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    fn pid(&self) -> u32 {
        self.child.id()
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(mut conn) = self.endpoint.connect() {
            let payload = protocol::request(0, "shutdown", Vec::new()).render();
            if protocol::write_frame(&mut conn, &payload).is_ok() {
                let _ = protocol::read_frame(&mut conn);
            }
        }
        let deadline = Instant::now() + Duration::from_secs(10);
        while Instant::now() < deadline {
            if matches!(self.child.try_wait(), Ok(Some(_))) {
                let _ = std::fs::remove_file(&self.socket);
                return;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        let _ = self.child.kill();
        let _ = self.child.wait();
        let _ = std::fs::remove_file(&self.socket);
    }
}

/// The client side of one connection, with the wire-layer counters.
struct Client {
    conn: Conn,
    next_id: i64,
    answered: u64,
    errors: u64,
    request_bytes: u64,
    response_bytes: u64,
    render: Duration,
    parse: Duration,
    /// Render plus parse time of the latest call, in ms at reference speed.
    last_codec_ms: f64,
}

impl Client {
    fn new(conn: Conn) -> Client {
        Client {
            conn,
            next_id: 1,
            answered: 0,
            errors: 0,
            request_bytes: 0,
            response_bytes: 0,
            render: Duration::ZERO,
            parse: Duration::ZERO,
            last_codec_ms: 0.0,
        }
    }

    /// One request/response round trip, timed from before the request is
    /// rendered until the response is parsed. `Ok` holds the `result` of
    /// an `ok:true` response.
    fn call(
        &mut self,
        ctx: &Ctx,
        span: &'static str,
        kind: &str,
        fields: Vec<(String, Json)>,
    ) -> (Result<Json, String>, Sample) {
        let recorder = &ctx.recorder;
        recorder.next_op();
        let id = self.next_id;
        self.next_id += 1;
        let pace_ms = ctx.pace.now();
        let start = Instant::now();
        let result = recorder.span(span, || -> Result<Json, String> {
            let (payload, render) = timed(|| {
                recorder.span("wire.render", || {
                    protocol::request(id, kind, fields).render()
                })
            });
            self.render += render;
            let mut codec = render;
            self.request_bytes += payload.len() as u64;
            let text = recorder.span("wire.round_trip", || {
                protocol::write_frame(&mut self.conn, &payload)
                    .map_err(|e| format!("write failed: {e}"))?;
                protocol::read_frame(&mut self.conn).map_err(|e| format!("read failed: {e}"))
            })?;
            self.response_bytes += text.len() as u64;
            let (response, parse) = timed(|| recorder.span("wire.parse", || Json::parse(&text)));
            self.parse += parse;
            codec += parse;
            self.last_codec_ms = Sample::new(ms(codec), pace_ms).scaled_ms;
            let response = response.map_err(|e| format!("unparseable response: {e}"))?;
            if response.get("id").and_then(Json::as_int) != Some(id) {
                return Err("response carries another request's id".into());
            }
            match response.get("ok").and_then(Json::as_bool) {
                Some(true) => response
                    .get("result")
                    .cloned()
                    .ok_or_else(|| "ok response without `result`".to_string()),
                _ => Err(format!(
                    "daemon answered an error: {}",
                    response
                        .get("error")
                        .and_then(|e| e.get("message"))
                        .and_then(Json::as_str)
                        .unwrap_or("unknown")
                )),
            }
        });
        let latency = Sample::new(ms(start.elapsed()), pace_ms);
        self.answered += 1;
        self.errors += u64::from(result.is_err());
        (result, latency)
    }

    /// `analyze` inline sources under `program` and compare every unit's
    /// `rewritten_source` with `expected`. Returns the latency.
    #[allow(clippy::too_many_arguments)]
    fn analyze(
        &mut self,
        ctx: &Ctx,
        span: &'static str,
        program: &str,
        units: &[(String, String)],
        expected: &[String],
        replaced: Option<(usize, &str)>,
        out: &mut Outcome,
    ) -> Sample {
        let fields = vec![
            ("program".to_string(), Json::Str(program.to_string())),
            (
                "units".to_string(),
                Json::Array(
                    units
                        .iter()
                        .map(|(name, source)| {
                            Json::Object(vec![
                                ("name".into(), Json::Str(name.clone())),
                                ("source".into(), Json::Str(source.clone())),
                            ])
                        })
                        .collect(),
                ),
            ),
        ];
        let (result, latency) = self.call(ctx, span, "analyze", fields);
        let problem = match result {
            Err(e) => Some(e),
            Ok(result) => {
                let got = result.get("units").and_then(Json::as_array).unwrap_or(&[]);
                let same = got.len() == expected.len()
                    && got.iter().enumerate().all(|(i, unit)| {
                        unit.get("rewritten_source").and_then(Json::as_str)
                            == Some(expected_at(expected, replaced, i))
                    });
                (!same).then(|| {
                    format!("{span}: `rewritten_source` differs from the in-process result")
                })
            }
        };
        out.tally
            .check(problem.is_none(), || problem.unwrap_or_default());
        latency
    }
}

/// A running daemon with both programs resident and a connected client.
struct Fixture {
    programs: Programs,
    client: Client,
    // Declared after `client`, so the connection closes before the daemon
    // is asked to stop.
    daemon: Daemon,
}

impl Fixture {
    fn build(ctx: &Ctx, generation: usize) -> Result<Fixture, String> {
        let programs = Programs::build(ctx.seed)?;
        let mut daemon = Daemon::start(ctx, generation)?;
        let client = Client::new(daemon.connect()?);
        let mut fixture = Fixture {
            programs,
            client,
            daemon,
        };
        // Make both programs resident and warm, and check the whole path.
        let mut scratch = Outcome::default();
        let Fixture {
            programs, client, ..
        } = &mut fixture;
        for _ in 0..2 {
            client.analyze(
                ctx,
                "req.warm",
                SMALL,
                &programs.small,
                &programs.small_reference,
                None,
                &mut scratch,
            );
            client.analyze(
                ctx,
                "req.big_warm",
                BIG,
                &programs.big.base,
                &programs.big.reference,
                None,
                &mut scratch,
            );
        }
        match scratch.tally.reasons.first() {
            Some(reason) => Err(format!("set-up request failed: {reason}")),
            None => Ok(fixture),
        }
    }
}

#[derive(Default)]
struct Classes {
    all: Series,
    revert: Series,
    big_warm: Series,
    big_edit: Series,
    explain: Series,
    stats: Series,
    check_plans: Series,
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let Fixture {
        programs,
        mut client,
        daemon,
    } = ctx.set_up(&mut out, |generation| Fixture::build(ctx, generation))?;
    let set_up_requests = client.answered;

    let mut schedule = inputs::request_schedule(ctx.seed, programs.explain_positions.len() as u8);
    let mut classes = Classes::default();
    let mut overhead = OverheadProbe::default();
    let (mut block_now, mut calls_in_block) = (usize::MAX, 0usize);
    let (mut nonce, mut cold_keys) = (0u64, 0u64);
    let mut rss_mark: Option<(u64, u64, u64)> = None; // (requests, VmHWM kB, VmRSS kB)
    let big_mid = programs.big.sites.mid;
    let big_mid_unit = programs.big.unit_of(big_mid);
    // Client-side render plus parse time of each big unchanged request.
    let mut big_warm_codec: Vec<f64> = Vec::new();

    run_blocks(ctx.seconds, COLD_PER_BLOCK + 1, |block| {
        overhead.enter_round(ctx);
        if block_now != block {
            (block_now, calls_in_block) = (block, 0);
        }
        calls_in_block += 1;

        let request = if calls_in_block <= COLD_PER_BLOCK {
            None
        } else {
            schedule.next()
        };
        let latency = match request {
            None => {
                cold_keys += 1;
                let latency = client.analyze(
                    ctx,
                    "req.cold",
                    &format!("cold-{cold_keys}"),
                    &programs.small,
                    &programs.small_reference,
                    None,
                    &mut out,
                );
                out.cold.push(block, latency);
                latency
            }
            Some(Request::Warm) => {
                let latency = client.analyze(
                    ctx,
                    "req.warm",
                    SMALL,
                    &programs.small,
                    &programs.small_reference,
                    None,
                    &mut out,
                );
                out.warm.push(block, latency);
                overhead.sample(ctx, latency);
                latency
            }
            Some(Request::Edit) => {
                nonce += 1;
                let expected =
                    CommentEdit::expected_rewrite(&programs.small_reference_edited[0], nonce);
                let latency = client.analyze(
                    ctx,
                    "req.edit",
                    SMALL,
                    &programs.small_edited(nonce),
                    &programs.small_reference_edited,
                    Some((0, &expected)),
                    &mut out,
                );
                out.edit.push(block, latency);
                let back = client.analyze(
                    ctx,
                    "req.revert",
                    SMALL,
                    &programs.small,
                    &programs.small_reference,
                    None,
                    &mut out,
                );
                classes.revert.push(block, back);
                classes.all.push(block, back);
                out.ops(block, 1, back);
                latency
            }
            Some(Request::BigWarm) => {
                let latency = client.analyze(
                    ctx,
                    "req.big_warm",
                    BIG,
                    &programs.big.base,
                    &programs.big.reference,
                    None,
                    &mut out,
                );
                classes.big_warm.push(block, latency);
                big_warm_codec.push(client.last_codec_ms);
                latency
            }
            Some(Request::BigEdit) => {
                nonce += 1;
                let expected = inputs::expected_stage_rewrite(
                    &programs.big.reference_mid[big_mid_unit],
                    nonce,
                );
                let latency = client.analyze(
                    ctx,
                    "req.big_edit",
                    BIG,
                    &programs.big.edited(big_mid, nonce),
                    &programs.big.reference_mid,
                    Some((big_mid_unit, &expected)),
                    &mut out,
                );
                classes.big_edit.push(block, latency);
                let back = client.analyze(
                    ctx,
                    "req.revert",
                    BIG,
                    &programs.big.base,
                    &programs.big.reference,
                    None,
                    &mut out,
                );
                classes.revert.push(block, back);
                classes.all.push(block, back);
                out.ops(block, 1, back);
                latency
            }
            Some(Request::Explain { position }) => {
                let (line, col) = programs.explain_positions[position as usize];
                let (name, source) = &programs.explain_unit;
                let unit = Json::Object(vec![
                    ("name".into(), Json::Str(name.clone())),
                    ("source".into(), Json::Str(source.clone())),
                ]);
                let fields = vec![
                    ("program".to_string(), Json::Str(SMALL.to_string())),
                    ("units".to_string(), Json::Array(vec![unit])),
                    ("line".to_string(), Json::Int(i64::from(line))),
                    ("col".to_string(), Json::Int(i64::from(col))),
                ];
                let (result, latency) = client.call(ctx, "req.explain", "explain", fields);
                let facts = result
                    .ok()
                    .and_then(|r| r.get("facts").and_then(Json::as_array).map(<[Json]>::len));
                out.tally.check(facts.is_some_and(|n| n > 0), || {
                    format!("explain {line}:{col} returned no provenance fact")
                });
                classes.explain.push(block, latency);
                latency
            }
            Some(Request::Stats) => {
                let (result, latency) = client.call(ctx, "req.stats", "stats", Vec::new());
                let resident = result.ok().is_some_and(|r| {
                    let keys: Vec<&str> = r
                        .get("programs")
                        .and_then(Json::as_array)
                        .unwrap_or(&[])
                        .iter()
                        .filter_map(|p| p.get("program").and_then(Json::as_str))
                        .collect();
                    keys.contains(&SMALL) && keys.contains(&BIG)
                });
                out.tally.check(resident, || {
                    "stats does not list both resident programs".into()
                });
                classes.stats.push(block, latency);
                latency
            }
            Some(Request::CheckPlans) => {
                let fields = vec![("plans".to_string(), Json::Str(programs.plans_doc.clone()))];
                let (result, latency) = client.call(ctx, "req.check_plans", "check_plans", fields);
                let valid = result.ok().is_some_and(|r| {
                    r.get("valid").and_then(Json::as_bool) == Some(true)
                        && r.get("plans").and_then(Json::as_int) == Some(programs.plans_count)
                });
                out.tally
                    .check(valid, || "check_plans rejected a valid document".into());
                classes.check_plans.push(block, latency);
                latency
            }
        };
        classes.all.push(block, latency);
        out.ops(block, 1, latency);

        let answered = client.answered - set_up_requests;
        if rss_mark.is_none() && answered >= RSS_MARK {
            rss_mark = Some((
                answered,
                proc_status_kb(daemon.pid(), "VmHWM").unwrap_or(0),
                proc_status_kb(daemon.pid(), "VmRSS").unwrap_or(0),
            ));
        }
    });
    let answered = client.answered - set_up_requests;
    let end_hwm = proc_status_kb(daemon.pid(), "VmHWM").unwrap_or(0);
    let end_rss = proc_status_kb(daemon.pid(), "VmRSS").unwrap_or(0);
    let (mark_requests, mark_hwm, mark_rss) = rss_mark.unwrap_or((answered, end_hwm, end_rss));
    out.peak_rss_mb = mark_hwm as f64 / 1024.0;
    out.detail.push((
        "requests".into(),
        series_section(
            &[
                ("all", &classes.all),
                ("revert", &classes.revert),
                ("big_warm", &classes.big_warm),
                ("big_edit", &classes.big_edit),
                ("explain", &classes.explain),
                ("stats", &classes.stats),
                ("check_plans", &classes.check_plans),
            ],
            Reading::Scaled,
        ),
    ));

    if ctx.trace {
        ctx.recorder.set_enabled(true);
        let kb = |bytes: u64| bytes as f64 / 1024.0;
        let layers = &mut out.layers;
        layers.insert(
            "wire.request_bytes",
            client.request_bytes as f64 / client.answered as f64,
        );
        layers.insert(
            "wire.response_bytes",
            client.response_bytes as f64 / client.answered as f64,
        );
        layers.insert(
            "wire.json_render_ns_per_kb",
            client.render.as_nanos() as f64 / kb(client.request_bytes),
        );
        layers.insert(
            "wire.json_parse_ns_per_kb",
            client.parse.as_nanos() as f64 / kb(client.response_bytes),
        );
        let p50 = |series: &Series| median(&series.all(Reading::Scaled));
        layers.insert("server.big_warm_ms", p50(&classes.big_warm));
        layers.insert("server.big_edit_ms", p50(&classes.big_edit));
        layers.insert(
            "server.req_p95_ms",
            percentile(&classes.all.all(Reading::Scaled), 95.0),
        );
        layers.insert("server.explain_p50_us", p50(&classes.explain) * 1e3);
        layers.insert("server.stats_p50_us", p50(&classes.stats) * 1e3);
        layers.insert("server.check_plans_p50_us", p50(&classes.check_plans) * 1e3);
        layers.insert("server.error_responses", client.errors as f64);
        layers.insert(
            "server.rss_kb_per_1k_req",
            (end_rss as f64 - mark_rss as f64) * 1000.0
                / (answered.saturating_sub(mark_requests)).max(1) as f64,
        );

        // What the daemon adds to a big unchanged request: its latency
        // minus the client's own render and parse of that request, minus
        // the same analysis in-process on a warm session.
        let tool = Ompdart::builder().build();
        let _ = tool.analyze_program(&programs.big.base);
        let in_process: Vec<f64> = (0..5)
            .map(|_| {
                ctx.sample(|| tool.analyze_program(&programs.big.base))
                    .1
                    .scaled_ms
            })
            .collect();
        out.layers.insert(
            "server.dispatch_ms",
            p50(&classes.big_warm) - median(&big_warm_codec) - median(&in_process),
        );

        ctx.probe_layers(
            &[
                ProbeProgram {
                    units: programs.small.clone(),
                    edited: programs.small_edited(0),
                },
                programs.big.probe_program(),
            ],
            &mut out,
        );
        out.layers
            .insert("trace.overhead_pct", overhead.overhead_pct());
    }
    drop(client);
    drop(daemon);
    Ok(out)
}
