//! End-to-end tests of `ompdartd` — the concurrent analysis daemon.
//!
//! Covered here:
//! * response parity: a daemon `analyze` returns byte-identical rewritten
//!   sources (and render-identical plan documents) to the one-shot API;
//! * the program registry: two clients interleaving edits to two
//!   *different* programs stay warm — every warm round re-plans exactly
//!   the edited function and never cold-relinks;
//! * protocol robustness: oversized prefixes, invalid JSON, unknown
//!   request types, wrong versions, out-of-range `explain` positions and
//!   truncated frames all produce
//!   structured errors (or a clean connection close) without killing the
//!   daemon or poisoning any program session;
//! * ordering: requests written back to back on one connection are
//!   answered in request order;
//! * `gc` of a program the daemon has never seen creates nothing;
//! * durable shutdown: a SIGTERM'd daemon drains, flushes its stores, and
//!   a restart over the same cache directory starts warm;
//! * released bodies: a daemon that drops the parse of what it answered
//!   with, one answer later, answers as a session that keeps it does, and
//!   parses again only what it has to plan.
//!
//! Signal state is process-global, and the daemon binds real sockets, so
//! every test serializes on [`daemon_lock`].

use ompdart_core::pipeline::UnitAnalysis;
use ompdart_core::plan::{plans_to_json, Json};
use ompdart_core::{CacheStats, Ompdart, UnitServe};
use ompdart_server::daemon::{
    analyze_response, explain_result, serve_label, AnalyzedUnit, DaemonConfig, DaemonHandle,
    Endpoint,
};
use ompdart_server::registry::{ProgramRegistry, RegistryConfig};
use ompdart_server::{protocol, signal, Client, ClientError};
use ompdart_suite::{corpus, lulesh_multifile};
use std::path::PathBuf;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

fn daemon_lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// A per-test scratch directory (unique per test name, wiped on entry),
/// removed when the guard drops.
struct Scratch(PathBuf);

impl std::ops::Deref for Scratch {
    type Target = PathBuf;
    fn deref(&self) -> &PathBuf {
        &self.0
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn scratch(tag: &str) -> Scratch {
    let dir = std::env::temp_dir().join(format!("ompdartd-test-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    Scratch(dir)
}

fn spawn_daemon(socket: PathBuf, cache_dir: Option<PathBuf>) -> DaemonHandle {
    DaemonHandle::spawn(DaemonConfig {
        endpoint: Endpoint::Unix(socket),
        registry: RegistryConfig {
            cache_dir,
            ..RegistryConfig::default()
        },
        quiet: true,
    })
    .expect("daemon must bind its socket")
}

fn lulesh_units() -> Vec<(String, String)> {
    lulesh_multifile()
        .iter()
        .map(|(n, s)| (n.to_string(), s.to_string()))
        .collect()
}

fn stat(result: &Json, field: &str) -> i64 {
    result
        .get("request_stats")
        .and_then(|s| s.get(field))
        .and_then(Json::as_int)
        .unwrap_or(-1)
}

fn serves(result: &Json) -> Vec<String> {
    result
        .get("units")
        .and_then(Json::as_array)
        .map(|units| {
            units
                .iter()
                .filter_map(|u| u.get("serve").and_then(Json::as_str))
                .map(str::to_string)
                .collect()
        })
        .unwrap_or_default()
}

/// Daemon responses are byte-identical to the one-shot API: same rewritten
/// sources, same plan documents; a repeat request is served cached; and a
/// `shutdown` request tears the daemon down cleanly (socket file removed).
#[test]
fn daemon_analyze_matches_one_shot_api_byte_for_byte() {
    let _guard = daemon_lock();
    let dir = scratch("parity");
    let socket = dir.join("d.sock");
    let handle = spawn_daemon(socket.clone(), None);
    let units = lulesh_units();

    let mut client = Client::connect(handle.endpoint()).expect("connect");
    let result = client.analyze_sources("lulesh", &units).expect("analyze");

    // One-shot reference: the same whole-program analysis, fresh session.
    let tool = Ompdart::builder().build();
    let reference = tool.analyze_program(&units).expect("direct analyze");

    let got = result.get("units").and_then(Json::as_array).unwrap();
    assert_eq!(got.len(), units.len());
    for (i, unit) in got.iter().enumerate() {
        assert_eq!(
            unit.get("rewritten_source").and_then(Json::as_str).unwrap(),
            reference.units[i].rewrite.source.as_str(),
            "unit {i} rewritten source must be byte-identical"
        );
        let direct_plans = Json::parse(&reference.units[i].plans_json()).unwrap();
        assert_eq!(
            unit.get("plans").unwrap().render(),
            direct_plans.render(),
            "unit {i} plan document must match"
        );
    }
    assert_eq!(
        result.get("link_passes").and_then(Json::as_int).unwrap(),
        reference.link_passes as i64
    );

    // Identical content again: everything cached, nothing re-planned.
    let again = client
        .analyze_sources("lulesh", &units)
        .expect("re-analyze");
    assert!(serves(&again).iter().all(|s| s == "cached"), "{again:?}");
    assert_eq!(stat(&again, "function_plan_misses"), 0);

    // `explain` hovers the provenance facts at a kernel-body access.
    let (name, source) = &units[2];
    let kernel_line = source
        .lines()
        .position(|l| l.contains("xd[i] += xdd[i] * 0.01;"))
        .expect("driver unit has the integration kernel")
        + 1;
    let hover = client
        .explain("lulesh", name, source, kernel_line as u32, 8)
        .expect("explain");
    let facts = hover.get("facts").and_then(Json::as_array).unwrap();
    assert!(
        !facts.is_empty(),
        "a kernel statement must carry provenance facts: {hover:?}"
    );
    for fact in facts {
        assert!(fact.get("fact").and_then(Json::as_str).is_some());
        assert!(fact.get("detail").and_then(Json::as_str).is_some());
    }

    client.shutdown().expect("shutdown request");
    handle.join();
    assert!(!socket.exists(), "socket file must be removed on shutdown");
}

/// The tree oracle of an `analyze` response: the `Json` value the daemon
/// used to build (and re-build, and re-render) for every request. Product
/// code now writes the same bytes without it; this is what "the same" means.
/// Each unit's plans are its pretty document parsed back, so the compact
/// encoding the daemon splices is checked against the other layout too.
fn analyze_response_oracle(
    id: Option<i64>,
    key: &str,
    units: &[AnalyzedUnit<'_>],
    stats: &CacheStats,
    link_passes: usize,
) -> String {
    let units = units
        .iter()
        .map(|(name, serve, unit)| {
            Json::Object(vec![
                ("name".into(), Json::Str(name.to_string())),
                ("serve".into(), Json::Str(serve_label(serve).to_string())),
                (
                    "rewritten_source".into(),
                    Json::Str(unit.rewrite.source.clone()),
                ),
                (
                    "plans".into(),
                    Json::parse(&plans_to_json(&unit.plans.plans)).expect("a plan document"),
                ),
            ])
        })
        .collect();
    let result = Json::Object(vec![
        ("program".into(), Json::Str(key.to_string())),
        ("units".into(), Json::Array(units)),
        ("request_stats".into(), stats.to_json()),
        ("link_passes".into(), Json::Int(link_passes as i64)),
    ]);
    protocol::ok_response(id, result).render()
}

/// The spliced `analyze` response is the tree oracle's rendering byte for
/// byte — one-unit and multi-unit programs, over cold → unchanged → edit →
/// revert — and an unchanged round re-renders nothing: every unit's
/// memoised source literal and plan document are the very same allocations
/// as in the round before. A live daemon's frames are then checked to be
/// exactly such renderings.
#[test]
fn spliced_analyze_response_equals_the_tree_oracle_byte_for_byte() {
    let one_unit = vec![(
        "one \"quoted\\name\".c".to_string(),
        "#define N 16\ndouble a[N];\nint main() {\n  for (int it = 0; it < 2; it++) {\n    #pragma omp target teams distribute parallel for\n    for (int i = 0; i < N; i++) a[i] += 1.0;\n  }\n  printf(\"%f\\t\u{e9}\\n\", a[0]);\n  return 0;\n}\n"
            .to_string(),
    )];
    let edit_of = |units: &[(String, String)]| {
        let mut edited = units.to_vec();
        let last = edited.last_mut().unwrap();
        last.1 = last.1.replacen("int main()", "/* edit */ int main()", 1);
        assert_ne!(edited, units, "the edit site must exist");
        edited
    };

    let registry = ProgramRegistry::new(RegistryConfig::default());
    for (key, base) in [
        ("solo \u{1d465}", one_unit.clone()),
        ("lulesh", lulesh_units()),
    ] {
        let session = registry.program(key);
        let edited = edit_of(&base);
        let mut rounds: Vec<Vec<Arc<UnitAnalysis>>> = Vec::new();
        for (round, units) in [&base, &base, &edited, &base].into_iter().enumerate() {
            let (program, stats) = session.analyze_program(units).expect("program");
            let (analyses, serves, link_passes) =
                (program.units, program.served, program.link_passes);
            // A one-unit program reports its own link's passes, as any
            // program does.
            assert!(link_passes > 0, "{key} round {round}");
            let rows: Vec<AnalyzedUnit<'_>> = units
                .iter()
                .zip(&serves)
                .zip(&analyses)
                .map(|(((name, _), serve), unit)| (name.as_str(), *serve, &**unit))
                .collect();
            for id in [Some(round as i64 + 1), None] {
                assert_eq!(
                    analyze_response(id, key, &rows, &stats, link_passes),
                    analyze_response_oracle(id, key, &rows, &stats, link_passes),
                    "{key} round {round} id {id:?}"
                );
            }
            if round == 1 {
                assert!(serves.iter().all(|s| *s == UnitServe::Cached), "{serves:?}");
            }
            rounds.push(analyses);
        }
        let literals = |round: usize| -> Vec<(*const u8, *const u8)> {
            rounds[round]
                .iter()
                .map(|u| {
                    (
                        u.rewritten_source_json().as_ptr(),
                        u.plans_json_compact().as_ptr(),
                    )
                })
                .collect()
        };
        assert_eq!(
            literals(0),
            literals(1),
            "{key}: an unchanged round re-rendered"
        );
        // The edit re-rendered the unit it re-analysed, and only that one.
        let (before, after) = (literals(1), literals(2));
        let last = before.len() - 1;
        assert_eq!(
            before[..last],
            after[..last],
            "{key}: untouched units re-rendered"
        );
        assert_ne!(
            before[last], after[last],
            "{key}: the edited unit kept old bytes"
        );
    }

    // Over the socket: each frame is the compact rendering of the value it
    // parses to, and that value carries the in-process rewrite.
    let _guard = daemon_lock();
    let dir = scratch("spliced");
    let handle = spawn_daemon(dir.join("d.sock"), None);
    let mut client = Client::connect(handle.endpoint()).expect("connect");
    for (key, base) in [("solo", one_unit), ("lulesh", lulesh_units())] {
        let edited = edit_of(&base);
        let reference = |units: &[(String, String)]| -> Vec<String> {
            let analysis = Ompdart::builder()
                .build()
                .analyze_program(units)
                .expect("direct");
            analysis
                .units
                .iter()
                .map(|u| u.rewrite.source.clone())
                .collect()
        };
        let expected = [reference(&base), reference(&edited)];
        for (round, (units, expected)) in [
            (&base, &expected[0]),
            (&base, &expected[0]),
            (&edited, &expected[1]),
            (&base, &expected[0]),
        ]
        .into_iter()
        .enumerate()
        {
            let fields = units
                .iter()
                .map(|(name, source)| {
                    Json::Object(vec![
                        ("name".into(), Json::Str(name.clone())),
                        ("source".into(), Json::Str(source.clone())),
                    ])
                })
                .collect();
            let request = protocol::request(
                round as i64,
                "analyze",
                vec![
                    ("program".into(), Json::Str(key.into())),
                    ("units".into(), Json::Array(fields)),
                ],
            );
            let raw = client
                .raw_round_trip(&request.render())
                .expect("round trip");
            let response = Json::parse(&raw).expect("response is JSON");
            assert_eq!(
                response.render(),
                raw,
                "{key} round {round}: not the compact rendering"
            );
            assert_eq!(
                response.get("ok").and_then(Json::as_bool),
                Some(true),
                "{raw}"
            );
            let got = response.get("result").and_then(|r| r.get("units"));
            let got: Vec<&str> = got
                .and_then(Json::as_array)
                .unwrap()
                .iter()
                .filter_map(|u| u.get("rewritten_source").and_then(Json::as_str))
                .collect();
            assert_eq!(got, *expected, "{key} round {round}");
        }
    }
    client.shutdown().expect("shutdown");
    handle.join();
}

/// Satellite: the program registry. Two clients interleave edit rounds to
/// two different programs concurrently; every warm round re-plans exactly
/// the one edited unit (`analysis_misses == 1`, its two functions in
/// `function_plan_misses`) with the reseed bounded by the dirty cone — a
/// cold relink would re-plan every function.
#[test]
fn interleaved_clients_on_two_programs_never_cold_relink() {
    let _guard = daemon_lock();
    let dir = scratch("registry");
    let handle = spawn_daemon(dir.join("d.sock"), None);
    let endpoint = handle.endpoint().clone();

    const ROUNDS: usize = 3;
    /// One warm round: (analysis, function-plan) misses, re-seeded
    /// functions, serve labels.
    type Round = ((i64, i64), i64, Vec<String>);
    fn drive(
        endpoint: Endpoint,
        program: &str,
        edit_unit: usize,
        edit_at: &str,
    ) -> (i64, Vec<Round>) {
        let mut client = Client::connect(&endpoint).expect("connect");
        let mut units = lulesh_units();
        // Keyed content per program so alpha and beta are truly distinct
        // programs, not shared-content cache aliases.
        units[0].1 = format!("/* program {program} */\n{}", units[0].1);
        let cold = client.analyze_sources(program, &units).expect("cold");
        let cold_misses = stat(&cold, "function_plan_misses");
        let mut warm_stats = Vec::new();
        for round in 0..ROUNDS {
            // An interface-preserving body edit of one function.
            units[edit_unit].1 =
                units[edit_unit]
                    .1
                    .replacen(edit_at, &format!("/* r{round} */ {edit_at}"), 1);
            let warm = client.analyze_sources(program, &units).expect("warm");
            warm_stats.push((
                (
                    stat(&warm, "analysis_misses"),
                    stat(&warm, "function_plan_misses"),
                ),
                stat(&warm, "relink_reseeded_functions"),
                serves(&warm),
            ));
        }
        (cold_misses, warm_stats)
    }

    // Two OS threads, two programs, two different edit sites, running
    // concurrently against one daemon.
    let (for_alpha, for_beta) = (endpoint.clone(), endpoint.clone());
    let alpha = std::thread::spawn(move || drive(for_alpha, "alpha", 1, "e[i] += (p[i] + q[i])"));
    let beta =
        std::thread::spawn(move || drive(for_beta, "beta", 0, "xdd[i] = fx[i] / nodalMass[i];"));
    let (alpha_cold, alpha_warm) = alpha.join().expect("alpha thread");
    let (beta_cold, beta_warm) = beta.join().expect("beta thread");

    for (program, cold_misses, warm) in [
        ("alpha", alpha_cold, &alpha_warm),
        ("beta", beta_cold, &beta_warm),
    ] {
        assert!(
            cold_misses > 1,
            "{program}: the cold link must plan the whole program"
        );
        for (round, (plan_misses, reseeded, serves)) in warm.iter().enumerate() {
            assert_eq!(
                *plan_misses,
                (1, 2),
                "{program} round {round}: exactly the edited unit re-plans, its two \
                 functions (a cold relink would re-plan all {cold_misses}); serves={serves:?}"
            );
            assert!(
                (0..=2).contains(reseeded),
                "{program} round {round}: reseed must stay within the dirty cone"
            );
            assert!(
                serves.iter().any(|s| s == "planned"),
                "{program} round {round}: the edited unit must be re-planned: {serves:?}"
            );
            assert!(
                serves.iter().filter(|s| *s == "cached").count() >= serves.len() - 1,
                "{program} round {round}: untouched units must be cache-served: {serves:?}"
            );
        }
    }

    // Both programs are live in the registry, each with its own counters.
    let mut client = Client::connect(&endpoint).expect("connect");
    let stats = client.stats().expect("stats");
    let keys: Vec<&str> = stats
        .get("programs")
        .and_then(Json::as_array)
        .unwrap()
        .iter()
        .filter_map(|p| p.get("program").and_then(Json::as_str))
        .collect();
    assert_eq!(keys, vec!["alpha", "beta"]);
    client.shutdown().expect("shutdown");
    handle.join();
}

/// Satellite: protocol robustness. Malformed input of every kind yields a
/// structured error — and afterwards the same daemon still serves a real
/// request on the same program, so nothing was poisoned.
#[test]
fn malformed_frames_and_requests_do_not_kill_the_daemon() {
    let _guard = daemon_lock();
    let dir = scratch("robust");
    let handle = spawn_daemon(dir.join("d.sock"), None);
    let endpoint = handle.endpoint().clone();
    let unit = vec![(
        "one.c".to_string(),
        "#define N 16\ndouble a[N];\nint main() {\n  for (int it = 0; it < 2; it++) {\n    #pragma omp target teams distribute parallel for\n    for (int i = 0; i < N; i++) a[i] += 1.0;\n  }\n  printf(\"%f\\n\", a[0]);\n  return 0;\n}\n"
            .to_string(),
    )];

    // Seed the program so later rounds can prove the session stayed warm.
    let mut seed = Client::connect(&endpoint).expect("connect");
    seed.analyze_sources("robust", &unit).expect("seed analyze");

    // Invalid JSON in a well-formed frame: bad_json, connection stays up.
    let mut client = Client::connect(&endpoint).expect("connect");
    let raw = client
        .raw_round_trip("this is not json")
        .expect("round trip");
    let response = Json::parse(&raw).expect("error response is JSON");
    assert_eq!(
        response
            .get("error")
            .and_then(|e| e.get("kind"))
            .and_then(Json::as_str),
        Some("bad_json")
    );
    // ... and the *same connection* still serves real work.
    let ok = client
        .analyze_sources("robust", &unit)
        .expect("still alive");
    assert_eq!(serves(&ok), vec!["cached".to_string()]);

    // Unknown request type: bad_request.
    let raw = client
        .raw_round_trip(r#"{"version": 1, "id": 9, "request": "transmogrify"}"#)
        .expect("round trip");
    let response = Json::parse(&raw).unwrap();
    assert_eq!(
        response
            .get("error")
            .and_then(|e| e.get("kind"))
            .and_then(Json::as_str),
        Some("bad_request")
    );
    assert_eq!(response.get("id").and_then(Json::as_int), Some(9));

    // Wrong protocol version: bad_request.
    let raw = client
        .raw_round_trip(r#"{"version": 99, "id": 10, "request": "stats"}"#)
        .expect("round trip");
    assert_eq!(
        Json::parse(&raw)
            .unwrap()
            .get("error")
            .and_then(|e| e.get("kind"))
            .and_then(Json::as_str),
        Some("bad_request")
    );

    // An `explain` position past `u32::MAX`: bad_request, not a wrapped
    // line 1.
    let (name, source) = &unit[0];
    let explain = protocol::request(
        11,
        "explain",
        vec![
            ("program".into(), Json::Str("robust".into())),
            (
                "units".into(),
                Json::Array(vec![Json::Object(vec![
                    ("name".into(), Json::Str(name.clone())),
                    ("source".into(), Json::Str(source.clone())),
                ])]),
            ),
            ("line".into(), Json::Int(i64::from(u32::MAX) + 2)),
            ("col".into(), Json::Int(1)),
        ],
    );
    let raw = client
        .raw_round_trip(&explain.render())
        .expect("round trip");
    let response = Json::parse(&raw).unwrap();
    assert_eq!(
        response
            .get("error")
            .and_then(|e| e.get("kind"))
            .and_then(Json::as_str),
        Some("bad_request"),
        "{raw}"
    );
    assert_eq!(response.get("id").and_then(Json::as_int), Some(11));

    // Oversized length prefix: structured bad_frame, then a hard close
    // (the stream cannot be re-synchronized).
    let mut conn = endpoint.connect().expect("connect raw");
    {
        use std::io::Write;
        conn.write_all(&u32::MAX.to_be_bytes()).unwrap();
        conn.flush().unwrap();
    }
    let response = protocol::read_frame(&mut conn).expect("bad_frame response");
    assert_eq!(
        Json::parse(&response)
            .unwrap()
            .get("error")
            .and_then(|e| e.get("kind"))
            .and_then(Json::as_str),
        Some("bad_frame")
    );
    assert!(
        matches!(
            protocol::read_frame(&mut conn),
            Err(protocol::FrameError::Closed)
        ),
        "the daemon must close after a framing violation"
    );

    // A truncated frame (half a length prefix, then disconnect) must not
    // take the daemon down either.
    {
        use std::io::Write;
        let mut conn = endpoint.connect().expect("connect raw");
        conn.write_all(&[0u8, 0]).unwrap();
        conn.flush().unwrap();
        drop(conn);
    }

    // After all of the abuse: a brand-new client gets a warm answer.
    let mut fresh = Client::connect(&endpoint).expect("connect");
    let ok = fresh
        .analyze_sources("robust", &unit)
        .expect("daemon alive");
    assert_eq!(serves(&ok), vec!["cached".to_string()]);
    fresh.shutdown().expect("shutdown");
    handle.join();
}

/// Satellite: the plan format version flows through the wire protocol. A
/// current plan document validates (and the response names the version);
/// an old-version document gets a structured `bad_request`, not a dead
/// daemon.
#[test]
fn check_plans_reports_version_and_rejects_old_documents() {
    let _guard = daemon_lock();
    let dir = scratch("plans");
    let handle = spawn_daemon(dir.join("d.sock"), None);
    let mut client = Client::connect(handle.endpoint()).expect("connect");

    // A genuine current-version document, straight from the one-shot API.
    let units = vec![(
        "k.c".to_string(),
        "#define N 8\ndouble a[N];\nint main() {\n  #pragma omp target teams distribute parallel for\n  for (int i = 0; i < N; i++) a[i] += 1.0;\n  printf(\"%f\\n\", a[0]);\n  return 0;\n}\n"
            .to_string(),
    )];
    let tool = Ompdart::builder().build();
    let reference = tool.analyze_program(&units).expect("direct analyze");
    let doc = reference.units[0].plans_json();

    let ok = client.check_plans(&doc).expect("current doc validates");
    assert_eq!(ok.get("valid").and_then(Json::as_bool), Some(true));
    assert_eq!(
        ok.get("format_version").and_then(Json::as_int),
        Some(i64::from(ompdart_core::plan::PLAN_FORMAT_VERSION)),
        "the response must name the plan format this build reads"
    );
    assert!(ok.get("plans").and_then(Json::as_int).unwrap_or(0) >= 1);

    // The same document stamped with an older format version: a structured
    // bad_request naming both versions.
    let current = ompdart_core::plan::PLAN_FORMAT_VERSION;
    for old_version in [1, 2] {
        let old = doc.replacen(
            &format!("\"version\": {current}"),
            &format!("\"version\": {old_version}"),
            1,
        );
        assert_ne!(old, doc, "the rendered document must carry its version");
        let err = client
            .check_plans(&old)
            .expect_err("an old version must be rejected");
        match err {
            ClientError::Remote { kind, message } => {
                assert_eq!(kind, "bad_request");
                assert!(
                    message.contains(&format!("version {old_version}"))
                        && message.contains(&format!("version {current}")),
                    "error must name both versions: {message}"
                );
            }
            other => panic!("expected a structured remote error, got {other:?}"),
        }
    }

    // Missing `plans` field: bad_request, and the connection stays usable.
    let raw = client
        .raw_round_trip(r#"{"version": 1, "id": 77, "request": "check_plans"}"#)
        .expect("round trip");
    assert_eq!(
        Json::parse(&raw)
            .unwrap()
            .get("error")
            .and_then(|e| e.get("kind"))
            .and_then(Json::as_str),
        Some("bad_request")
    );
    let ok = client.check_plans(&doc).expect("connection still serves");
    assert_eq!(ok.get("valid").and_then(Json::as_bool), Some(true));

    client.shutdown().expect("shutdown");
    handle.join();
}

/// Requests written back to back on one connection, before any response is
/// read, are answered in request order: an analysis of one program, a
/// `stats`, an analysis of another.
#[test]
fn pipelined_requests_are_answered_in_request_order() {
    let _guard = daemon_lock();
    let dir = scratch("ordering");
    let handle = spawn_daemon(dir.join("d.sock"), None);
    let analyze = |id: i64, program: &str| {
        let units = lulesh_units()
            .into_iter()
            .map(|(name, source)| {
                Json::Object(vec![
                    ("name".into(), Json::Str(name)),
                    ("source".into(), Json::Str(source)),
                ])
            })
            .collect();
        let fields = vec![
            ("program".into(), Json::Str(program.into())),
            ("units".into(), Json::Array(units)),
        ];
        protocol::request(id, "analyze", fields)
    };
    let requests = [
        analyze(1, "alpha"),
        protocol::request(2, "stats", Vec::new()),
        analyze(3, "beta"),
    ];
    let mut conn = handle.endpoint().connect().expect("connect");
    for request in &requests {
        protocol::write_frame(&mut conn, &request.render()).expect("write");
    }
    let ids: Vec<Option<i64>> = (0..requests.len())
        .map(|_| {
            let frame = protocol::read_frame(&mut conn).expect("a response");
            let response = Json::parse(&frame).expect("JSON");
            let ok = response.get("ok").and_then(Json::as_bool);
            assert_eq!(ok, Some(true), "{frame}");
            response.get("id").and_then(Json::as_int)
        })
        .collect();
    assert_eq!(ids, [Some(1), Some(2), Some(3)]);
    drop(conn);
    let mut client = Client::connect(handle.endpoint()).expect("connect");
    client.shutdown().expect("shutdown");
    handle.join();
}

/// A `gc` naming a program the daemon has never seen answers no report and
/// creates nothing: no resident session, no store subdirectory.
#[test]
fn gc_of_an_unknown_program_creates_no_session() {
    let _guard = daemon_lock();
    let dir = scratch("gc");
    let cache = dir.join("cache");
    let handle = spawn_daemon(dir.join("d.sock"), Some(cache.clone()));
    let mut client = Client::connect(handle.endpoint()).expect("connect");
    client
        .analyze_sources("known", &lulesh_units())
        .expect("analyze");
    let programs = |client: &mut Client| -> Vec<String> {
        let stats = client.stats().expect("stats");
        let programs = stats.get("programs").and_then(Json::as_array).unwrap();
        (programs.iter())
            .filter_map(|p| p.get("program").and_then(Json::as_str))
            .map(str::to_string)
            .collect()
    };
    let reports = |result: &Json| {
        result
            .get("programs")
            .and_then(Json::as_array)
            .map(<[Json]>::len)
    };
    assert_eq!(programs(&mut client), ["known"]);

    let unknown = client.gc(1 << 30, Some("never-seen")).expect("gc");
    assert_eq!(reports(&unknown), Some(0), "{unknown:?}");
    assert_eq!(programs(&mut client), ["known"]);
    assert!(!cache.join("never-seen").exists());
    // A live program's store is still collected.
    let known = client.gc(1 << 30, Some("known")).expect("gc");
    assert_eq!(reports(&known), Some(1), "{known:?}");

    client.shutdown().expect("shutdown");
    handle.join();
}

/// Satellite: durable shutdown. SIGTERM drains and flushes every program
/// store; a new daemon over the same cache directory serves the same
/// program from the persistent store without re-planning — or parsing —
/// anything, and what does look at a unit (`explain` at a position,
/// `check_plans` of its plan document) answers as it did for the parsed one.
#[test]
fn sigterm_flushes_stores_and_a_restart_starts_warm() {
    let _guard = daemon_lock();
    let dir = scratch("sigterm");
    let cache = dir.join("cache");
    let units = lulesh_units();
    // A kernel of the driver unit: provenance facts anchor there.
    let (hover_name, hover_source) = &units[2];
    let hover = |client: &mut Client| {
        let result = client.explain("lulesh", hover_name, hover_source, 49, 8);
        result.expect("explain")
    };
    let plan_documents = |result: &Json| -> Vec<String> {
        let units = result.get("units").and_then(Json::as_array).expect("units");
        let plans = units.iter().map(|unit| unit.get("plans").expect("plans"));
        plans.map(Json::render).collect()
    };

    let handle = spawn_daemon(dir.join("d.sock"), Some(cache.clone()));
    let mut client = Client::connect(handle.endpoint()).expect("connect");
    let cold = client.analyze_sources("lulesh", &units).expect("cold");
    assert!(stat(&cold, "function_plan_misses") > 0);
    assert_eq!(stat(&cold, "parse_misses"), units.len() as i64);
    let hovered = hover(&mut client);
    let facts = hovered.get("facts").and_then(Json::as_array);
    assert!(facts.is_some_and(|facts| !facts.is_empty()), "{hovered:?}");
    let checked: Vec<Json> = (plan_documents(&cold).iter())
        .map(|doc| client.check_plans(doc).expect("a current document"))
        .collect();
    drop(client);

    // The real signal path: raise SIGTERM against the installed handler
    // (exactly what an external `kill` delivers), then join the daemon's
    // drain-and-flush epilogue.
    signal::deliver(signal::SIGTERM);
    handle.join();
    assert!(cache.exists(), "the flushed store must be on disk");

    // A fresh daemon over the same cache directory: the program session
    // starts warm from the store — no function is re-planned.
    let restarted = spawn_daemon(dir.join("d2.sock"), Some(cache));
    let mut client = Client::connect(restarted.endpoint()).expect("connect");
    let warm = client.analyze_sources("lulesh", &units).expect("warm");
    assert_eq!(
        stat(&warm, "function_plan_misses"),
        0,
        "restart must serve from the persistent store: {warm:?}"
    );
    assert!(
        serves(&warm).iter().all(|s| s == "store" || s == "cached"),
        "every unit must come from the store: {:?}",
        serves(&warm)
    );
    assert_eq!(
        (
            stat(&warm, "parse_misses"),
            stat(&warm, "interface_store_hits")
        ),
        (0, units.len() as i64),
        "a restart over unchanged sources parses nothing: {warm:?}"
    );
    // The store-served units answer what looks at them as the parsed ones
    // did: the same plan documents, valid; the same hover facts.
    assert_eq!(plan_documents(&warm), plan_documents(&cold));
    for (doc, was) in plan_documents(&warm).iter().zip(&checked) {
        assert_eq!(&client.check_plans(doc).expect("a current document"), was);
    }
    assert_eq!(hover(&mut client), hovered);
    client.shutdown().expect("shutdown");
    restarted.join();
}

/// Satellite: warm whole-program rounds report the identity fast path in
/// the wire protocol. The repeat request's `request_stats.fast_path_hits`
/// equals the unit count, and the `stats` verb's per-program entry carries
/// the additive `profile` object with the same `fast_path_units` — `null`
/// before the program's first whole-program request would have been.
#[test]
fn warm_rounds_report_fast_path_hits_over_the_wire() {
    let _guard = daemon_lock();
    let dir = scratch("fastpath");
    let socket = dir.join("d.sock");
    let handle = spawn_daemon(socket.clone(), None);
    let units = lulesh_units();

    let mut client = Client::connect(handle.endpoint()).expect("connect");
    let cold = client.analyze_sources("lulesh", &units).expect("cold");
    assert_eq!(
        stat(&cold, "fast_path_hits"),
        0,
        "a cold round has no previous round to fast-path from: {cold:?}"
    );

    let warm = client.analyze_sources("lulesh", &units).expect("warm");
    assert_eq!(
        stat(&warm, "fast_path_hits"),
        units.len() as i64,
        "a warm unchanged round must serve every unit via the fast path: {warm:?}"
    );
    assert_eq!(stat(&warm, "function_plan_misses"), 0);
    assert!(serves(&warm).iter().all(|s| s == "cached"));

    // The stats verb surfaces the last round's driver profile.
    let stats = client.stats().expect("stats");
    let program = stats
        .get("programs")
        .and_then(Json::as_array)
        .and_then(|p| p.first())
        .expect("one live program");
    let profile = program.get("profile").expect("profile field present");
    assert_eq!(
        profile.get("fast_path_units").and_then(Json::as_int),
        Some(units.len() as i64),
        "the profile must record the fast-path round: {profile:?}"
    );
    assert_eq!(
        profile.get("units").and_then(Json::as_int),
        Some(units.len() as i64)
    );
    assert!(
        profile.get("total_us").and_then(Json::as_int).is_some(),
        "the profile must carry phase timings: {profile:?}"
    );
    // The warm round was an edit-path round, so the additive
    // `edit_profile` object carries its one-edit phase timings too.
    assert_eq!(profile.get("edit_path").and_then(Json::as_bool), Some(true));
    let edit_profile = program.get("edit_profile").expect("edit_profile field");
    assert_eq!(
        edit_profile.get("fast_path_units").and_then(Json::as_int),
        Some(units.len() as i64),
        "the edit profile must record the warm round: {edit_profile:?}"
    );
    assert!(
        edit_profile
            .get("total_us")
            .and_then(Json::as_int)
            .is_some(),
        "the edit profile must carry one-edit phase timings: {edit_profile:?}"
    );
    // Cumulative session counters also expose the fast path.
    assert_eq!(
        program
            .get("stats")
            .and_then(|s| s.get("fast_path_hits"))
            .and_then(Json::as_int),
        Some(units.len() as i64)
    );
    // One vocabulary on the wire: the cumulative `stats` object and a
    // request's `request_stats` both carry every counter the engine keeps,
    // and the profile says how wide the pool ran.
    for name in CacheStats::NAMES {
        for object in [program.get("stats"), warm.get("request_stats")] {
            let value = object.and_then(|o| o.get(name)).and_then(Json::as_int);
            assert!(value.is_some(), "`{name}` is missing from {object:?}");
        }
    }
    let width = profile.get("pool_workers").and_then(Json::as_int);
    assert!(width >= Some(1), "no effective pool width in {profile:?}");
    client.shutdown().expect("shutdown");
    handle.join();
}

/// An `explain` between two unchanged `analyze` requests of a program runs
/// its unit as a one-unit program on a driver that is not the program's:
/// the second `analyze` is still served wholesale by the round-level fast
/// path, with no relink, and the `explain` answers the facts of the unit
/// analyzed alone.
#[test]
fn an_explain_between_unchanged_rounds_keeps_the_round_fast_path() {
    let _guard = daemon_lock();
    let dir = scratch("explainfast");
    let handle = spawn_daemon(dir.join("d.sock"), None);
    let units = lulesh_units();
    let mut client = Client::connect(handle.endpoint()).expect("connect");
    client.analyze_sources("lulesh", &units).expect("cold");
    let warm = client.analyze_sources("lulesh", &units).expect("warm");
    assert_eq!(stat(&warm, "fast_path_hits"), units.len() as i64);

    let (name, source) = &units[2];
    let line = source
        .lines()
        .position(|l| l.contains("xd[i] += xdd[i] * 0.01;"))
        .expect("the driver unit has the integration kernel")
        + 1;
    let hover = client
        .explain("lulesh", name, source, line as u32, 8)
        .expect("explain");
    let answered: Vec<(String, String, String)> = (hover.get("facts"))
        .and_then(Json::as_array)
        .expect("facts")
        .iter()
        .map(|fact| {
            let field = |key: &str| fact.get(key).and_then(Json::as_str).unwrap().to_string();
            (field("function"), field("fact"), field("detail"))
        })
        .collect();
    let alone = Ompdart::new().analyze(name, source).expect("alone");
    let offset = source
        .lines()
        .take(line - 1)
        .map(|l| l.len() + 1)
        .sum::<usize>()
        + 7;
    let expected: Vec<(String, String, String)> = (alone.plans().iter())
        .flat_map(|plan| plan.provenances().into_iter().map(move |p| (plan, p)))
        .filter(|(_, p)| p.span.is_some_and(|span| span.contains_pos(offset as u32)))
        .map(|(plan, p)| (plan.function.clone(), p.fact.key().into(), p.detail.clone()))
        .collect();
    assert!(!expected.is_empty(), "no fact at {name}:{line}:8");
    assert_eq!(answered, expected);

    let again = client
        .analyze_sources("lulesh", &units)
        .expect("warm again");
    assert_eq!(
        stat(&again, "fast_path_hits"),
        units.len() as i64,
        "the explain evicted the program's round: {again:?}"
    );
    for counter in ["relink_reseeded_functions", "relink_touched_units"] {
        assert_eq!(stat(&again, counter), 0, "{counter}: {again:?}");
    }
    assert!(serves(&again).iter().all(|s| s == "cached"), "{again:?}");
    client.shutdown().expect("shutdown");
    handle.join();
}

/// A unit that defines one function twice is rejected when it is parsed, as
/// C rejects it, on every path that reads a unit: `Ompdart::analyze`,
/// a one-unit program, `verify_source` and a daemon `analyze`. None of them
/// panics, and the daemon serves the same unit once it is fixed.
#[test]
fn a_function_defined_twice_is_rejected_on_every_path() {
    let twice = "\
double a[8];
void f(void) { a[0] = 1.0; }
void f(void) {
  #pragma omp target teams distribute parallel for
  for (int i = 0; i < 8; i++) a[i] += 2.0;
}
int main() { f(); printf(\"%f\\n\", a[1]); return 0; }
";
    let units = vec![("twice.c".to_string(), twice.to_string())];
    let redefinition = |diagnostics: &ompdart_frontend::diag::Diagnostics| {
        let rendered = format!("{diagnostics:?}");
        assert!(
            rendered.contains("redefinition of `f`"),
            "no redefinition error in {rendered}"
        );
    };
    match Ompdart::builder().build().analyze("twice.c", twice) {
        Err(ompdart_core::StageError::Parse { diagnostics, .. }) => redefinition(&diagnostics),
        other => panic!("analyze accepted a redefinition: {:?}", other.map(|_| ())),
    }
    match Ompdart::builder().build().analyze_program(&units) {
        Err(ompdart_core::ProgramError::Unit {
            error: ompdart_core::StageError::Parse { diagnostics, .. },
            ..
        }) => redefinition(&diagnostics),
        other => panic!(
            "a one-unit program accepted a redefinition: {:?}",
            other.map(|_| ())
        ),
    }
    match ompdart_core::verify_source("twice.c", twice) {
        Err(diagnostics) => redefinition(&diagnostics),
        Ok(report) => panic!("verify accepted a redefinition: {report:?}"),
    }

    let _guard = daemon_lock();
    let dir = scratch("twice");
    let handle = spawn_daemon(dir.join("d.sock"), None);
    let mut client = Client::connect(handle.endpoint()).expect("connect");
    match client.analyze_sources("twice", &units) {
        Err(ClientError::Remote { kind, message }) => {
            assert_eq!(kind, "analysis");
            assert!(message.contains("failed to parse"), "{message}");
        }
        other => panic!("the daemon accepted a redefinition: {other:?}"),
    }
    let fixed = vec![(
        "twice.c".to_string(),
        twice.replacen("void f(void) { a[0] = 1.0; }\n", "", 1),
    )];
    let served = client
        .analyze_sources("twice", &fixed)
        .expect("the fixed unit analyzes");
    assert!(serves(&served)[0].starts_with("planned"), "{served:?}");
    client.shutdown().expect("shutdown");
    handle.join();
}

/// The `units` field of a request.
fn units_field(units: &[(String, String)]) -> Json {
    let unit = |(name, source): &(String, String)| {
        Json::Object(vec![
            ("name".into(), Json::Str(name.clone())),
            ("source".into(), Json::Str(source.clone())),
        ])
    };
    Json::Array(units.iter().map(unit).collect())
}

/// A program's cumulative `parse_misses`, as the daemon's `stats` reports
/// it (0 before its first request).
fn parse_misses(client: &mut Client, key: &str) -> i64 {
    let stats = client.stats().expect("stats");
    let programs = stats.get("programs").and_then(Json::as_array).unwrap();
    (programs.iter())
        .find(|program| program.get("program").and_then(Json::as_str) == Some(key))
        .and_then(|program| program.get("stats")?.get("parse_misses")?.as_int())
        .unwrap_or(0)
}

/// The daemon drops the bodies of the units an `analyze` or `explain` answer
/// held once it has written the connection's next answer of those two
/// kinds (the `stats` reads between them do not count), and that changes no byte of
/// what it answers: every response to cold → warm → edit → revert of
/// `lulesh_mf`, three `explain` positions in one of its units, a save of
/// that unit followed by an `explain` of it, and cold → edit → revert of the
/// 200-unit corpus equals the response of an in-process session that never
/// releases. A body comes back only to be planned: each new-content edit
/// parses its one unit; a revert, a second `explain` of the same unit, and
/// an `explain` right after the save of its unit parse nothing.
#[test]
fn released_bodies_change_no_response_and_come_back_only_to_plan() {
    const SMALL: &str = "lulesh_mf";
    const BIG: &str = "corpus200";
    let small = lulesh_units();
    let mut small_edit = small.clone();
    small_edit[0].1.push_str("/* an edit */\n");
    let explained = small.len() - 1;
    let mut small_saved = small.clone();
    small_saved[explained].1.push_str("/* a save */\n");
    let big = corpus::generate(200, 42);
    let mut big_edit = big.clone();
    corpus::edit_one_function(&mut big_edit, 100);
    let (name, source) = &small[explained];
    let alone = Ompdart::new().analyze(name, source).expect("alone");
    let mut positions: Vec<(u32, u32)> = (alone.plans().iter())
        .flat_map(|plan| plan.provenances())
        .filter_map(|provenance| provenance.span)
        .map(|span| alone.source_file().line_col(span.start))
        .map(|at| (at.line, at.col))
        .collect();
    positions.sort_unstable();
    positions.dedup();
    assert!(positions.len() >= 3, "{positions:?}");

    enum Step<'a> {
        Analyze(&'a str, &'a [(String, String)]),
        Explain(&'a (String, String), u32, u32),
    }
    let mut steps = vec![
        ("cold", Step::Analyze(SMALL, &small)),
        ("warm", Step::Analyze(SMALL, &small)),
        ("edit", Step::Analyze(SMALL, &small_edit)),
        ("revert", Step::Analyze(SMALL, &small)),
    ];
    let explains = positions[..3]
        .iter()
        .map(|&(line, col)| ("explain", Step::Explain(&small[explained], line, col)));
    steps.extend(explains);
    let (line, col) = positions[0];
    steps.extend([
        ("save", Step::Analyze(SMALL, &small_saved)),
        ("hover", Step::Explain(&small_saved[explained], line, col)),
        ("big cold", Step::Analyze(BIG, &big)),
        ("big edit", Step::Analyze(BIG, &big_edit)),
        ("big revert", Step::Analyze(BIG, &big)),
    ]);

    let _guard = daemon_lock();
    let dir = scratch("release");
    let handle = spawn_daemon(dir.join("d.sock"), None);
    let mut client = Client::connect(handle.endpoint()).expect("connect");
    let keeps = ProgramRegistry::new(RegistryConfig::default());
    let mut parsed = Vec::new();
    for (id, (label, step)) in steps.iter().enumerate() {
        let id = id as i64;
        let (key, request, expected) = match step {
            Step::Analyze(key, units) => {
                let (program, stats) = keeps.program(key).analyze_program(units).expect(label);
                let rows: Vec<AnalyzedUnit<'_>> = (units.iter().zip(&program.served))
                    .zip(&program.units)
                    .map(|(((name, _), serve), unit)| (name.as_str(), *serve, &**unit))
                    .collect();
                let fields = vec![
                    ("program".into(), Json::Str(key.to_string())),
                    ("units".into(), units_field(units)),
                ];
                let expected = analyze_response(Some(id), key, &rows, &stats, program.link_passes);
                (*key, protocol::request(id, "analyze", fields), expected)
            }
            Step::Explain(unit, line, col) => {
                let (name, source) = unit;
                let analysis = keeps.program(SMALL).explained(name, source).expect(label);
                let result = explain_result(&analysis, name, source, *line, *col);
                let fields = vec![
                    ("program".into(), Json::Str(SMALL.into())),
                    ("units".into(), units_field(std::slice::from_ref(*unit))),
                    ("line".into(), Json::Int(i64::from(*line))),
                    ("col".into(), Json::Int(i64::from(*col))),
                ];
                let expected = protocol::ok_response(Some(id), result).render();
                (SMALL, protocol::request(id, "explain", fields), expected)
            }
        };
        let before = parse_misses(&mut client, key);
        let answered = client.raw_round_trip(&request.render()).expect(label);
        assert_eq!(answered, expected, "{label} (request {id})");
        parsed.push((*label, parse_misses(&mut client, key) - before));
    }
    // The first `explain` plans its unit alone, from a body released after
    // the `analyze` that built it was followed by another; the two after it
    // find that analysis resident. The `hover` plans the saved unit alone
    // from the body its `save` built, which no `analyze` or `explain`
    // answer since has released.
    let expected = [
        ("cold", 3),
        ("warm", 0),
        ("edit", 1),
        ("revert", 0),
        ("explain", 1),
        ("explain", 0),
        ("explain", 0),
        ("save", 1),
        ("hover", 0),
        ("big cold", 200),
        ("big edit", 1),
        ("big revert", 0),
    ];
    assert_eq!(parsed, expected);
    client.shutdown().expect("shutdown");
    handle.join();
}
