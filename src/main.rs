//! The `ompdart` command-line facade: the paper's LibTooling-style tool as
//! a binary over the `Ompdart` builder API. The synopsis of every
//! subcommand and flag is `USAGE` below (`ompdart help`).
//!
//! `analyze` rewrites one translation unit and can emit the versioned plan
//! JSON — or, given several inputs, links them as **one whole program**
//! (cross-unit summaries, program-level liveness) and writes each unit's
//! mapped output; `explain` prints one justified line per inserted
//! construct; `diff-plan` compares two mappings (generated, serialized, or
//! extracted from an already-mapped source); `batch` fans a corpus out over
//! worker threads with one shared artifact cache, each file a one-unit
//! program.
//! `watch` keeps one long-lived session hot — it links the watched
//! directory as one program, re-planning only the functions an edit
//! actually invalidated (across files) and, with `--cache-dir`, starting
//! warm from the persistent artifact store (a restart parses only the units
//! a change reached); `cache gc` compacts the store
//! down to a size cap, least-recently-used records first. `daemon` runs
//! `ompdartd` — analysis as a service over a unix socket (or TCP): many
//! clients, many programs, each program on its own warm incremental
//! session — and `client` drives it.

use ompdart_core::pipeline::stage_parse;
use ompdart_core::plan::{diff_plans, extract_explicit_plans, plans_from_json, Json, MappingPlan};
use ompdart_core::{ArtifactStore, Ompdart, ProgramError, StageError, UnitAnalysis, UnitServe};
use ompdart_server::daemon::{DaemonConfig, DaemonHandle, Endpoint};
use ompdart_server::watch::make_watcher;
use ompdart_server::{parse_size, serve_label, signal, Client};
use ompdart_sim::{simulate_source, SimConfig};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

const USAGE: &str = "\
ompdart — static generation of efficient OpenMP offload data mappings

USAGE:
    ompdart analyze <input.c> [-o <out.c>] [--plan-json <path|->] [--timings] [--simulate]
                    [--pessimistic-globals] [--lifetimes] [--cache-dir <dir>]
    ompdart analyze <a.c> <b.c>... [--out-dir <dir>] [--timings] [--pessimistic-globals]
                    [--lifetimes] [--profile-json <path|->] [--cache-dir <dir>]
    ompdart explain <input.c> [--lifetimes]
    ompdart diff-plan <left> <right>
    ompdart batch <input.c>... [--threads <N>] [--out-dir <dir>] [--pessimistic-globals]
    ompdart watch <dir> [--out-dir <dir>] [--cache-dir <dir>] [--cache-max-bytes <N[k|m|g]>]
                  [--pessimistic-globals] [--interval-ms <N>] [--iterations <N>] [--once]
    ompdart daemon [--socket <path> | --tcp <addr>] [--workers <N>] [--cache-dir <dir>]
                   [--cache-max-bytes <N[k|m|g]>] [--pessimistic-globals] [--quiet]
    ompdart client [--socket <path> | --tcp <addr>] [--program <key>] <verb> ...
                   verbs: analyze <file.c>... [--out-dir <dir>]
                          explain <file.c> <line> [<col>]
                          check_plans <plans.json>
                          stats | gc --max-bytes <N[k|m|g]> | shutdown
    ompdart cache gc <dir> [--max-bytes <N[k|m|g]>]
    ompdart help

SUBCOMMANDS:
    analyze    Insert data-mapping constructs. One input: writes the
               transformed source to stdout (or -o FILE); --plan-json
               additionally emits the versioned Mapping IR (`-` for
               stdout); --simulate compares transfer profiles
               before/after on the offload simulator and exits 1 if
               the program's output changed. Several inputs:
               links them as ONE whole program (cross-unit summaries,
               program-level liveness) and writes each unit's
               `<stem>.mapped.c` (next to the input, or into --out-dir).
               --pessimistic-globals opts into assuming unknown extern
               callees clobber every global (default: they only touch
               their non-const pointer arguments). --lifetimes spells
               the same plan as unstructured device lifetimes: each
               region's maps become one `target enter data` /
               `target exit data` pair at its boundaries instead of a
               `target data` region (same decisions, same construct
               count, same bytes moved), and perfect offload loop
               nests gain `collapse(n)`. --profile-json
               (multi-input) emits a driver profile — per-phase wall
               time, per-unit plan percentiles, identity-fast-path unit
               counts, pool and shard-lock counters — to a file or `-`.
               --cache-dir (one input or several) keeps each unit's link
               interface, plans and rewrite edits in a pack file in that
               directory: a repeat run parses and plans only the units a
               change reached (none, over unchanged sources), with the
               same output byte for byte. A `<stem>.mapped.c` that
               already holds exactly the new bytes is left untouched,
               modification time included.
    explain    Print one justified line per mapping construct: the
               OpenMP syntax, the dataflow fact that forced it, the
               deciding pipeline stage and source location.
    diff-plan  Compare two mappings construct by construct. Each side is
               either a plan-JSON file produced by `analyze --plan-json`
               or a C source (analyzed when unmapped, its explicit
               directives extracted when already mapped).
    batch      Analyze many files concurrently over one shared artifact
               cache — each file a one-unit program (use multi-input
               `analyze` for linked whole-program analysis); --out-dir
               writes each `<name>.mapped.c`.
    watch      Keep one long-lived session over every `.c` file in a
               directory, linked as one whole program: re-analyze on
               change, re-planning only the functions the edit actually
               invalidated (across files), and re-emit `<name>.mapped.c`.
               Falls back to independent per-file analysis when the
               directory holds unrelated programs (duplicate `main`).
               --cache-dir persists plans across restarts and
               --cache-max-bytes caps the pack there (least recently
               used records go first); --pessimistic-globals as for
               `analyze`; --interval-ms bounds the wait between scans
               (default 500); --iterations exits after N scan cycles;
               --once scans a single time.
               Wakeups come from inotify where available, and from the
               classic fixed-interval re-scan elsewhere. SIGINT/SIGTERM
               flush the persistent store before exit.
    daemon     Run ompdartd: analysis as a service on a unix socket
               (default ompdartd.sock) or --tcp ADDR, speaking
               length-prefixed JSON requests (analyze, explain, stats,
               check_plans, gc, shutdown). Every program key gets its own warm
               incremental session; same-program requests serialize,
               distinct programs run in parallel, and one connection's
               responses come back in request order. --workers sets the
               width each program's analysis fans out over (default:
               auto, the machine's cores up to 8; a larger N is capped
               at that). Shutdown (signal or request) finishes in-flight
               requests and flushes every program's store. See README
               \"Analysis as a service\".
    client     Drive a running daemon: `analyze` sends daemon-side
               paths (--out-dir writes the returned mapped sources),
               `explain` asks for the provenance facts governing a
               source position, `check_plans` validates a plan-JSON
               document (old format versions are refused),
               `stats`/`gc`/`shutdown` administrate.
    cache gc   Compact the persistent store's pack, evicting its least
               recently used records until it fits --max-bytes (default
               256m), and remove what older store layouts left there.
";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first() else {
        eprint!("{USAGE}");
        return ExitCode::from(2);
    };
    let rest = &args[1..];
    let result = match command.as_str() {
        "analyze" => cmd_analyze(rest),
        "explain" => cmd_explain(rest),
        "diff-plan" => cmd_diff_plan(rest),
        "batch" => cmd_batch(rest),
        "watch" => cmd_watch(rest),
        "daemon" => cmd_daemon(rest),
        "client" => cmd_client(rest),
        "cache" => cmd_cache(rest),
        "help" | "--help" | "-h" => {
            print!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        other => {
            eprintln!("unknown subcommand `{other}`\n");
            eprint!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    match result {
        Ok(code) => code,
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::FAILURE
        }
    }
}

fn read_source(path: &str) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("cannot read `{path}`: {e}"))
}

fn analyze_file(tool: &Ompdart, path: &str) -> Result<Arc<UnitAnalysis>, String> {
    let source = read_source(path)?;
    tool.analyze(path, &source)
        .map_err(|e| render_stage_error(path, &source, e))
}

/// Render a stage error with its diagnostics (parse failures show the
/// individual messages, not just a count).
fn render_stage_error(path: &str, source: &str, err: StageError) -> String {
    match &err {
        StageError::Parse { diagnostics, .. } => {
            let file = ompdart_frontend::source::SourceFile::new(path, source);
            format!("{err}\n{}", diagnostics.render_all(&file))
        }
        _ => err.to_string(),
    }
}

fn cmd_analyze(args: &[String]) -> Result<ExitCode, String> {
    let mut inputs: Vec<&str> = Vec::new();
    let mut output: Option<&str> = None;
    let mut out_dir: Option<&str> = None;
    let mut plan_json: Option<&str> = None;
    let mut timings = false;
    let mut simulate = false;
    let mut pessimistic_globals = false;
    let mut lifetimes = false;
    let mut profile_json: Option<&str> = None;
    let mut cache_dir: Option<&str> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "-o" | "--output" => {
                output = Some(it.next().ok_or_else(|| format!("`{arg}` expects a path"))?);
            }
            "--profile-json" => {
                profile_json = Some(
                    it.next()
                        .ok_or_else(|| format!("`{arg}` expects a path or `-`"))?,
                );
            }
            "--out-dir" => {
                out_dir = Some(it.next().ok_or("`--out-dir` expects a directory")?);
            }
            "--cache-dir" => {
                cache_dir = Some(it.next().ok_or("`--cache-dir` expects a directory")?);
            }
            "--plan-json" => {
                plan_json = Some(
                    it.next()
                        .ok_or_else(|| format!("`{arg}` expects a path or `-`"))?,
                );
            }
            "--timings" => timings = true,
            "--simulate" => simulate = true,
            "--pessimistic-globals" => pessimistic_globals = true,
            "--lifetimes" => lifetimes = true,
            flag if flag.starts_with('-') => return Err(format!("unknown flag `{flag}`")),
            path => inputs.push(path),
        }
    }
    if inputs.len() > 1 {
        if output.is_some() || plan_json.is_some() || simulate {
            return Err(
                "`-o`, `--plan-json` and `--simulate` apply to single-input analyze; \
                 multi-input analyze links the files as one program and writes each \
                 `<stem>.mapped.c` (use `--out-dir` to redirect them)"
                    .into(),
            );
        }
        return cmd_analyze_program(
            &inputs,
            out_dir,
            timings,
            pessimistic_globals,
            lifetimes,
            profile_json,
            cache_dir,
        );
    }
    if profile_json.is_some() {
        return Err("`--profile-json` applies to multi-input (linked) analyze".into());
    }
    if out_dir.is_some() {
        return Err("`--out-dir` applies to multi-input analyze; use `-o <out.c>`".into());
    }
    let input = *inputs.first().ok_or("`analyze` expects an input file")?;
    if plan_json == Some("-") && output.is_none() {
        return Err(
            "`--plan-json -` would interleave the plan JSON with the transformed source on \
             stdout; pass `-o <out.c>` to redirect the source"
                .into(),
        );
    }

    let mut builder = Ompdart::builder()
        .pessimistic_globals(pessimistic_globals)
        .lifetimes(lifetimes);
    if let Some(dir) = cache_dir {
        builder = builder.cache_dir(dir);
    }
    let analysis = analyze_file(&builder.build(), input)?;

    let stats = analysis.stats();
    eprintln!(
        "{input}: {} kernel(s), {} mapped variable(s), {} construct(s) inserted",
        stats.kernels,
        stats.mapped_variables,
        stats.total_constructs()
    );
    let diagnostics = analysis.diagnostics();
    for diag in diagnostics.iter() {
        eprintln!("{}", diag.render(analysis.source_file()));
    }
    if timings {
        eprintln!("stage timings: {}", analysis.timings());
    }

    match output {
        Some(path) => {
            std::fs::write(path, analysis.rewritten_source())
                .map_err(|e| format!("cannot write `{path}`: {e}"))?;
            eprintln!("wrote {path}");
        }
        None => print!("{}", analysis.rewritten_source()),
    }
    match plan_json {
        Some("-") => print!("{}", analysis.plans_json()),
        Some(path) => {
            std::fs::write(path, analysis.plans_json())
                .map_err(|e| format!("cannot write `{path}`: {e}"))?;
            eprintln!("wrote plan JSON to {path}");
        }
        None => {}
    }
    let mut preserved = true;
    if simulate {
        // Simulate the exact text that was analyzed, not a re-read of the
        // file (which may have changed since).
        let before = simulate_source(analysis.unit().source(), SimConfig::default())
            .map_err(|e| format!("simulation of the input failed: {e}"))?;
        let after = simulate_source(analysis.rewritten_source(), SimConfig::default())
            .map_err(|e| format!("simulation of the transformed source failed: {e}"))?;
        eprintln!("before: {}", before.profile.summary());
        eprintln!("after:  {}", after.profile.summary());
        preserved = before.output == after.output;
        eprintln!(
            "output preserved: {}",
            if preserved {
                "yes"
            } else {
                "NO — please report this"
            }
        );
    }
    // Error-severity diagnostics mean the produced mapping is unsound
    // (e.g. a declaration inside the region extent): the output is still
    // written for inspection, but the run must not look clean.
    if diagnostics.has_errors() {
        eprintln!(
            "error: analysis reported {} error(s); the produced mapping is not usable as-is",
            diagnostics.error_count()
        );
        return Ok(ExitCode::FAILURE);
    }
    // A mapping that changes the simulated output is broken: fail the run.
    Ok(if preserved {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// Render a [`ProgramError`] with the failing unit's diagnostics attached.
fn render_program_error(inputs: &[(String, String)], err: &ProgramError) -> String {
    match err {
        ProgramError::Unit { name, error } => inputs
            .iter()
            .find(|(n, _)| n == name)
            .map(|(n, src)| render_stage_error(n, src, error.clone()))
            .unwrap_or_else(|| err.to_string()),
        _ => err.to_string(),
    }
}

/// Multi-input `analyze`: link every input as one whole program and write
/// each unit's mapped output.
#[allow(clippy::too_many_arguments)]
fn cmd_analyze_program(
    inputs: &[&str],
    out_dir: Option<&str>,
    timings: bool,
    pessimistic_globals: bool,
    lifetimes: bool,
    profile_json: Option<&str>,
    cache_dir: Option<&str>,
) -> Result<ExitCode, String> {
    let pairs: Vec<(String, String)> = inputs
        .iter()
        .map(|path| read_source(path).map(|src| (path.to_string(), src)))
        .collect::<Result<_, _>>()?;
    if let Some(dir) = out_dir {
        std::fs::create_dir_all(dir).map_err(|e| format!("cannot create `{dir}`: {e}"))?;
    }
    let mut builder = Ompdart::builder()
        .pessimistic_globals(pessimistic_globals)
        .lifetimes(lifetimes);
    if let Some(dir) = cache_dir {
        // A persistent store makes a repeat invocation a warm start: the
        // profile then reports it (`warm_units` > 0) and its phase
        // breakdown is the edit-path profile.
        builder = builder.cache_dir(dir);
    }
    let tool = builder.build();
    let start = Instant::now();
    let (program, profile) = tool
        .analyze_program_profiled(&pairs)
        .map_err(|e| render_program_error(&pairs, &e))?;
    match profile_json {
        Some("-") => println!("{}", profile.to_json()),
        Some(path) => {
            std::fs::write(path, profile.to_json())
                .map_err(|e| format!("cannot write `{path}`: {e}"))?;
            eprintln!("wrote driver profile to {path}");
        }
        None => {}
    }

    let mut failures = 0usize;
    let mut used_names: std::collections::HashSet<String> = std::collections::HashSet::new();
    for ((path, _), analysis) in pairs.iter().zip(&program.units) {
        let stats = analysis.stats();
        let diagnostics = analysis.diagnostics();
        for diag in diagnostics.iter() {
            eprintln!("{}", diag.render(analysis.source_file()));
        }
        if diagnostics.has_errors() {
            failures += 1;
            eprintln!(
                "{path}: FAILED — analysis reported {} error diagnostic(s)",
                diagnostics.error_count()
            );
            continue;
        }
        let out_path = mapped_path(Path::new(path), out_dir, &mut used_names);
        write_mapped(&out_path, analysis.rewritten_source())
            .map_err(|e| format!("cannot write `{}`: {e}", out_path.display()))?;
        eprintln!(
            "{path}: {} kernel(s), {} construct(s), {} unknown-callee fallback(s) -> {}",
            stats.kernels,
            stats.total_constructs(),
            stats.unknown_callee_fallbacks,
            out_path.display()
        );
    }
    let total = program.stats();
    eprintln!(
        "linked {} unit(s) as one program: {} kernel(s), {} construct(s), {} unknown-callee fallback(s), link passes {}",
        program.units.len(),
        total.kernels,
        total.total_constructs(),
        total.unknown_callee_fallbacks,
        program.link_passes
    );
    if timings {
        eprintln!(
            "whole-program wall clock: {:.3}ms",
            start.elapsed().as_secs_f64() * 1e3
        );
    }
    Ok(if failures == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn cmd_cache(args: &[String]) -> Result<ExitCode, String> {
    let Some(("gc", rest)) = args.split_first().map(|(a, r)| (a.as_str(), r)) else {
        return Err(
            "`cache` expects the `gc` subcommand: ompdart cache gc <dir> [--max-bytes N]".into(),
        );
    };
    let mut dir: Option<&str> = None;
    let mut max_bytes: u64 = 256 << 20;
    let mut it = rest.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--max-bytes" => {
                max_bytes = parse_size(it.next().ok_or("`--max-bytes` expects a size")?)?;
            }
            flag if flag.starts_with('-') => return Err(format!("unknown flag `{flag}`")),
            path if dir.is_none() => dir = Some(path),
            extra => return Err(format!("unexpected argument `{extra}`")),
        }
    }
    let dir = dir.ok_or("`cache gc` expects the cache directory")?;
    let store = ArtifactStore::open(dir);
    let report = store.gc(max_bytes);
    println!(
        "[cache] {dir}: {} entr(ies) before, evicted {} ({} bytes freed), {} bytes kept (cap {max_bytes})",
        report.entries_before, report.entries_evicted, report.bytes_freed, report.bytes_kept
    );
    Ok(ExitCode::SUCCESS)
}

fn cmd_explain(args: &[String]) -> Result<ExitCode, String> {
    let mut lifetimes = false;
    let mut inputs: Vec<&String> = Vec::new();
    for arg in args {
        match arg.as_str() {
            "--lifetimes" => lifetimes = true,
            flag if flag.starts_with('-') => return Err(format!("unknown flag `{flag}`")),
            _ => inputs.push(arg),
        }
    }
    let [input] = inputs[..] else {
        return Err("`explain` expects exactly one input file".into());
    };
    let tool = Ompdart::builder().lifetimes(lifetimes).build();
    let analysis = analyze_file(&tool, input)?;
    print!("{}", analysis.explain());
    let diagnostics = analysis.diagnostics();
    if diagnostics.has_errors() {
        for diag in diagnostics.iter() {
            eprintln!("{}", diag.render(analysis.source_file()));
        }
        return Ok(ExitCode::FAILURE);
    }
    Ok(ExitCode::SUCCESS)
}

/// Load one side of a `diff-plan`: plan JSON, an unmapped source (analyzed),
/// or an already-mapped source (explicit directives extracted).
fn load_plans(path: &str) -> Result<Vec<MappingPlan>, String> {
    let content = read_source(path)?;
    if Path::new(path).extension().is_some_and(|e| e == "json") {
        // A document with a `plans` field is a `{version, plans}` dump;
        // anything else is one serialized plan.
        let doc = Json::parse(&content).map_err(|e| format!("`{path}`: {e}"))?;
        let plans = match doc.get("plans") {
            Some(_) => plans_from_json(&content),
            None => MappingPlan::from_json(&content).map(|plan| vec![plan]),
        };
        return plans.map_err(|e| format!("`{path}`: {e}"));
    }
    let tool = Ompdart::builder().build();
    match tool.analyze(path, &content) {
        Ok(analysis) => {
            let diagnostics = analysis.diagnostics();
            if diagnostics.has_errors() {
                return Err(format!(
                    "`{path}`: analysis reported {} error(s); its plans are not comparable",
                    diagnostics.error_count()
                ));
            }
            Ok(analysis.plans().to_vec())
        }
        Err(StageError::AlreadyMapped { .. }) => {
            let parsed =
                stage_parse(path, &content).map_err(|e| render_stage_error(path, &content, e))?;
            Ok(extract_explicit_plans(&parsed.unit))
        }
        Err(e) => Err(render_stage_error(path, &content, e)),
    }
}

fn cmd_diff_plan(args: &[String]) -> Result<ExitCode, String> {
    let [left, right] = args else {
        return Err("`diff-plan` expects exactly two inputs (plan .json or .c source)".into());
    };
    // Like `diff(1)`: 0 = equivalent, 1 = divergences, 2 = trouble — so
    // scripts gating on parity cannot mistake a failure for a divergence.
    let load = |path: &str| -> Result<Vec<MappingPlan>, ExitCode> {
        load_plans(path).map_err(|e| {
            eprintln!("error: {e}");
            ExitCode::from(2)
        })
    };
    let (left_plans, right_plans) = match (load(left), load(right)) {
        (Ok(l), Ok(r)) => (l, r),
        (Err(code), _) | (_, Err(code)) => return Ok(code),
    };
    let diff = diff_plans(&left_plans, &right_plans);
    print!("{}", diff.render(left, right));
    Ok(if diff.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn cmd_batch(args: &[String]) -> Result<ExitCode, String> {
    let mut inputs: Vec<&str> = Vec::new();
    let mut threads: Option<usize> = None;
    let mut out_dir: Option<&str> = None;
    let mut pessimistic_globals = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--pessimistic-globals" => pessimistic_globals = true,
            "--threads" => {
                let value = it
                    .next()
                    .ok_or("`--threads` expects a number")?
                    .parse::<usize>()
                    .map_err(|_| "`--threads` expects a number".to_string())?;
                threads = Some(value.max(1));
            }
            "--out-dir" => {
                out_dir = Some(it.next().ok_or("`--out-dir` expects a directory")?);
            }
            flag if flag.starts_with('-') => return Err(format!("unknown flag `{flag}`")),
            path => inputs.push(path),
        }
    }
    if inputs.is_empty() {
        return Err("`batch` expects at least one input file".into());
    }
    let mut builder = Ompdart::builder().pessimistic_globals(pessimistic_globals);
    if let Some(threads) = threads {
        builder = builder.parallelism(threads);
    }
    let tool = builder.build();
    let pairs: Vec<(String, String)> = inputs
        .iter()
        .map(|path| read_source(path).map(|src| (path.to_string(), src)))
        .collect::<Result<_, _>>()?;
    let results = tool.analyze_batch(&pairs);

    if let Some(dir) = out_dir {
        std::fs::create_dir_all(dir).map_err(|e| format!("cannot create `{dir}`: {e}"))?;
    }
    let mut failures = 0usize;
    let mut used_names: std::collections::HashSet<String> = std::collections::HashSet::new();
    for ((path, source), result) in pairs.iter().zip(&results) {
        match result {
            Ok(analysis) => {
                let diagnostics = analysis.diagnostics();
                if diagnostics.has_errors() {
                    failures += 1;
                    println!(
                        "{path}: FAILED — analysis reported {} error diagnostic(s)",
                        diagnostics.error_count()
                    );
                    continue;
                }
                let stats = analysis.stats();
                println!(
                    "{path}: ok — {} kernel(s), {} construct(s)",
                    stats.kernels,
                    stats.total_constructs()
                );
                if out_dir.is_some() {
                    let out_path = mapped_path(Path::new(path), out_dir, &mut used_names);
                    write_mapped(&out_path, analysis.rewritten_source())
                        .map_err(|e| format!("cannot write `{}`: {e}", out_path.display()))?;
                }
            }
            Err(e) => {
                failures += 1;
                println!(
                    "{path}: FAILED — {}",
                    render_stage_error(path, source, e.clone())
                        .lines()
                        .next()
                        .unwrap_or("unknown error")
                );
            }
        }
    }
    println!(
        "{}/{} unit(s) analyzed successfully",
        results.len() - failures,
        results.len()
    );
    Ok(if failures == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

// ---------------------------------------------------------------------------
// watch: the long-lived incremental front door
// ---------------------------------------------------------------------------

/// Where the rewritten source of `input` is emitted: `<stem>.mapped.c`, in
/// `out_dir` or next to the input. Inputs from different directories may
/// share a stem; a name already in `used` (the names handed out so far this
/// run) gets a numeric infix instead of silently overwriting that output.
fn mapped_path(
    input: &Path,
    out_dir: Option<&str>,
    used: &mut std::collections::HashSet<String>,
) -> PathBuf {
    let stem = input.file_stem().and_then(|s| s.to_str()).unwrap_or("unit");
    let mut name = format!("{stem}.mapped.c");
    let mut suffix = 1usize;
    while !used.insert(name.clone()) {
        name = format!("{stem}.{suffix}.mapped.c");
        suffix += 1;
    }
    match out_dir {
        Some(dir) => Path::new(dir).join(name),
        None => input.with_file_name(name),
    }
}

/// Write a mapped output to `path` — unless the file already holds exactly
/// these bytes. An unchanged output keeps its modification time, so a build
/// rule that depends on it does not fire again, and the file is not
/// truncated and rewritten for nothing.
fn write_mapped(path: &Path, contents: &str) -> std::io::Result<()> {
    let held = |len: u64| len == contents.len() as u64;
    let unchanged = std::fs::metadata(path).is_ok_and(|meta| held(meta.len()))
        && std::fs::read(path).is_ok_and(|bytes| bytes == contents.as_bytes());
    match unchanged {
        true => Ok(()),
        false => std::fs::write(path, contents),
    }
}

/// The `.c` inputs under `dir` (excluding our own `.mapped.c` outputs),
/// sorted for deterministic emit order.
fn scan_c_files(dir: &Path) -> Result<Vec<PathBuf>, String> {
    let entries =
        std::fs::read_dir(dir).map_err(|e| format!("cannot read `{}`: {e}", dir.display()))?;
    let mut out: Vec<PathBuf> = entries
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.ends_with(".c") && !n.ends_with(".mapped.c"))
        })
        .collect();
    out.sort();
    Ok(out)
}

/// Analyze `source` (already read from `path`) over the shared hot session
/// and re-emit its mapped output to `out_path`, reporting how the caches
/// served the run. Taking the source instead of re-reading keeps the
/// recorded content hash and the analyzed text in lockstep even when a
/// save lands mid-scan.
fn emit_one(tool: &Ompdart, path: &Path, source: &str, out_path: &Path) {
    let display = path.display().to_string();
    let start = Instant::now();
    // The serve verdict is part of the analysis result itself — not a
    // before/after subtraction of the session's global counters, which
    // other requests interleaving on the same session would contaminate.
    match tool.analyze_program(&[(display.clone(), source.to_string())]) {
        Ok(program) => {
            let (analysis, serve) = (&program.units[0], program.served[0]);
            let elapsed = start.elapsed();
            if let Err(e) = write_mapped(out_path, analysis.rewritten_source()) {
                println!(
                    "[watch] {display}: FAILED — cannot write {}: {e}",
                    out_path.display()
                );
                return;
            }
            println!(
                "[watch] {display}: re-emitted {} ({}, {:.1}ms)",
                out_path.display(),
                serve_label(&serve),
                elapsed.as_secs_f64() * 1e3
            );
        }
        Err(e) => {
            let line = match e {
                ProgramError::Unit { error, .. } => render_stage_error(&display, source, error),
                other => other.to_string(),
            };
            println!(
                "[watch] {display}: FAILED — {}",
                line.lines().next().unwrap_or("unknown error")
            );
        }
    }
    use std::io::Write;
    let _ = std::io::stdout().flush();
}

fn cmd_watch(args: &[String]) -> Result<ExitCode, String> {
    let mut dir: Option<&str> = None;
    let mut out_dir: Option<&str> = None;
    let mut cache_dir: Option<&str> = None;
    let mut builder = Ompdart::builder();
    let mut interval_ms: u64 = 500;
    let mut iterations: Option<u64> = None;
    let mut once = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--out-dir" => {
                out_dir = Some(it.next().ok_or("`--out-dir` expects a directory")?);
            }
            "--cache-dir" => {
                let dir = it.next().ok_or("`--cache-dir` expects a directory")?;
                cache_dir = Some(dir);
                builder = builder.cache_dir(dir);
            }
            "--cache-max-bytes" => {
                builder = builder.cache_max_bytes(parse_size(
                    it.next().ok_or("`--cache-max-bytes` expects a size")?,
                )?);
            }
            "--interval-ms" => {
                interval_ms = it
                    .next()
                    .ok_or("`--interval-ms` expects a number")?
                    .parse()
                    .map_err(|_| "`--interval-ms` expects a number".to_string())?;
            }
            "--iterations" => {
                iterations = Some(
                    it.next()
                        .ok_or("`--iterations` expects a number")?
                        .parse()
                        .map_err(|_| "`--iterations` expects a number".to_string())?,
                );
            }
            "--once" => once = true,
            "--pessimistic-globals" => builder = builder.pessimistic_globals(true),
            flag if flag.starts_with('-') => return Err(format!("unknown flag `{flag}`")),
            path if dir.is_none() => dir = Some(path),
            extra => return Err(format!("unexpected argument `{extra}`")),
        }
    }
    let dir = Path::new(dir.ok_or("`watch` expects a directory")?);
    if let Some(out) = out_dir {
        std::fs::create_dir_all(out).map_err(|e| format!("cannot create `{out}`: {e}"))?;
    }
    let tool = builder.build();
    // SIGINT/SIGTERM end the loop cleanly so the persistent store's
    // write-behind buffer is flushed — not lost in process teardown.
    let shutdown = signal::install();
    // inotify (when available) turns the fixed-interval poll into real
    // wakeups; the interval remains the upper bound between scans.
    let mut watcher = make_watcher(dir);
    println!(
        "[watch] watching {} via {} (scan bound {interval_ms}ms){}",
        dir.display(),
        watcher.backend(),
        match cache_dir {
            Some(cd) => format!(", persistent cache at {cd}"),
            None => String::new(),
        }
    );

    // Re-emit on *content* change, not mtime: editors and CI touch files
    // in too many ways to trust timestamps. The full previous source is
    // kept (not just a hash) so change detection can never be fooled by a
    // hash collision — the same standard the session caches hold. All
    // watched files are linked as ONE whole program: an edit in one file
    // re-plans functions in other files exactly when the edited file's
    // exported interface changed.
    let mut seen: std::collections::HashMap<PathBuf, String> = std::collections::HashMap::new();
    let mut last_emitted: std::collections::HashMap<PathBuf, String> =
        std::collections::HashMap::new();
    let mut cycles: u64 = 0;
    loop {
        match scan_c_files(dir) {
            Ok(paths) => {
                let units: Vec<(PathBuf, String)> = paths
                    .into_iter()
                    .filter_map(|p| std::fs::read_to_string(&p).ok().map(|s| (p, s)))
                    .collect();
                let changed: Vec<&(PathBuf, String)> = units
                    .iter()
                    .filter(|(p, s)| seen.get(p) != Some(s))
                    .collect();
                if !changed.is_empty() {
                    watch_program_scan(&tool, out_dir, &units, &changed, &mut last_emitted);
                    seen = units.into_iter().collect();
                }
            }
            // The watcher is long-lived: a transient scan failure (the
            // directory briefly replaced by a build step, an NFS hiccup)
            // is logged and retried on the next interval — except on the
            // very first scan, where a bad path should fail loudly.
            Err(e) if cycles > 0 => println!("[watch] scan failed (will retry): {e}"),
            Err(e) => return Err(e),
        }
        cycles += 1;
        if once || iterations.is_some_and(|n| cycles >= n) || shutdown.is_shutdown() {
            break;
        }
        // Returns early on filesystem activity (inotify) or after the
        // interval (poll); either way the content re-scan above decides.
        let _ = watcher.wait(std::time::Duration::from_millis(interval_ms));
        if shutdown.is_shutdown() {
            break;
        }
    }
    let flushed = tool.session().flush_store_writes();
    if flushed > 0 {
        println!("[watch] flushed {flushed} store write(s)");
    }
    let stats = tool.session().cache_stats();
    println!(
        "[watch] done after {cycles} scan(s): {} function(s) planned, \
         relink re-seeded {} function(s), store {} unit / {} interface hit(s), \
         {} unit(s) parsed",
        stats.function_plan_misses,
        stats.relink_reseeded_functions,
        stats.store_hits,
        stats.interface_store_hits,
        stats.parse_misses
    );
    Ok(ExitCode::SUCCESS)
}

/// One watch scan over the linked program. Falls back to independent
/// per-file analysis when the directory does not form one program
/// (duplicate `main`s, a unit that fails to parse).
fn watch_program_scan(
    tool: &Ompdart,
    out_dir: Option<&str>,
    units: &[(PathBuf, String)],
    changed: &[&(PathBuf, String)],
    last_emitted: &mut std::collections::HashMap<PathBuf, String>,
) {
    let pairs: Vec<(String, String)> = units
        .iter()
        .map(|(p, s)| (p.display().to_string(), s.clone()))
        .collect();
    let mut used_names = std::collections::HashSet::new();
    match tool.analyze_program(&pairs) {
        Ok(program) => {
            for (idx, (path, _)) in units.iter().enumerate() {
                let unit = &program.units[idx];
                let serve = &program.served[idx];
                let diagnostics = &unit.plans.diagnostics;
                if diagnostics.has_errors() {
                    println!(
                        "[watch] {}: FAILED — analysis reported {} error diagnostic(s)",
                        path.display(),
                        diagnostics.error_count()
                    );
                    continue;
                }
                let rewritten = unit.rewrite.source.as_str();
                let out_path = mapped_path(path, out_dir, &mut used_names);
                let unchanged = last_emitted.get(path).is_some_and(|prev| prev == rewritten);
                if unchanged {
                    // Nothing new on disk; still report re-planning work so
                    // cross-file invalidation is observable.
                    if *serve == UnitServe::Planned {
                        println!("[watch] {}: output unchanged (planned)", path.display());
                    }
                    continue;
                }
                if let Err(e) = write_mapped(&out_path, rewritten) {
                    println!(
                        "[watch] {}: FAILED — cannot write {}: {e}",
                        path.display(),
                        out_path.display()
                    );
                    continue;
                }
                println!(
                    "[watch] {}: re-emitted {} ({})",
                    path.display(),
                    out_path.display(),
                    serve_label(serve)
                );
                last_emitted.insert(path.clone(), rewritten.to_string());
            }
        }
        Err(err) => {
            println!("[watch] not linkable as one program ({err}); analyzing files independently");
            for (path, source) in changed {
                let out_path = mapped_path(path, out_dir, &mut used_names);
                emit_one(tool, path, source, &out_path);
                last_emitted.remove(path.as_path());
            }
        }
    }
    use std::io::Write;
    let _ = std::io::stdout().flush();
}

// ---------------------------------------------------------------------------
// daemon / client: analysis as a service
// ---------------------------------------------------------------------------

/// `ompdart daemon`: run `ompdartd` in the foreground until a signal or a
/// client `shutdown` request drains and flushes it.
fn cmd_daemon(args: &[String]) -> Result<ExitCode, String> {
    let config = DaemonConfig::from_args(args)?;
    let handle = DaemonHandle::spawn(config).map_err(|e| format!("cannot start daemon: {e}"))?;
    // Blocks until shutdown is observed and the accept loop's
    // drain-and-flush epilogue has run.
    handle.join();
    Ok(ExitCode::SUCCESS)
}

/// `ompdart client`: one connection, one verb, structured output.
fn cmd_client(args: &[String]) -> Result<ExitCode, String> {
    let mut endpoint = Endpoint::Unix("ompdartd.sock".into());
    let mut program = "default".to_string();
    let mut out_dir: Option<String> = None;
    let mut max_bytes: Option<u64> = None;
    let mut positional: Vec<&str> = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--socket" => {
                endpoint = Endpoint::Unix(it.next().ok_or("`--socket` expects a path")?.into());
            }
            "--tcp" => {
                endpoint =
                    Endpoint::Tcp(it.next().ok_or("`--tcp` expects an address")?.to_string());
            }
            "--program" => {
                program = it.next().ok_or("`--program` expects a key")?.to_string();
            }
            "--out-dir" => {
                out_dir = Some(
                    it.next()
                        .ok_or("`--out-dir` expects a directory")?
                        .to_string(),
                );
            }
            "--max-bytes" => {
                max_bytes = Some(parse_size(
                    it.next().ok_or("`--max-bytes` expects a size")?,
                )?);
            }
            flag if flag.starts_with('-') => return Err(format!("unknown flag `{flag}`")),
            word => positional.push(word),
        }
    }
    let Some((&verb, rest)) = positional.split_first() else {
        return Err(
            "`client` expects a verb: analyze, explain, stats, check_plans, gc, shutdown".into(),
        );
    };
    let mut client = Client::connect(&endpoint)
        .map_err(|e| format!("cannot connect to daemon at {endpoint}: {e}"))?;
    match verb {
        "analyze" => {
            if rest.is_empty() {
                return Err("`client analyze` expects at least one file".into());
            }
            let paths: Vec<String> = rest.iter().map(|s| s.to_string()).collect();
            let result = client
                .analyze_paths(&program, &paths)
                .map_err(|e| e.to_string())?;
            if let Some(dir) = &out_dir {
                std::fs::create_dir_all(dir).map_err(|e| format!("cannot create `{dir}`: {e}"))?;
            }
            let units = result
                .get("units")
                .and_then(Json::as_array)
                .ok_or("malformed analyze result")?;
            let mut used_names = std::collections::HashSet::new();
            for unit in units {
                let name = unit.get("name").and_then(Json::as_str).unwrap_or("?");
                let serve = unit.get("serve").and_then(Json::as_str).unwrap_or("?");
                println!("[client] {program}/{name}: serve={serve}");
                if let (Some(dir), Some(rewritten)) = (
                    &out_dir,
                    unit.get("rewritten_source").and_then(Json::as_str),
                ) {
                    let out = mapped_path(Path::new(name), Some(dir), &mut used_names);
                    write_mapped(&out, rewritten)
                        .map_err(|e| format!("cannot write `{}`: {e}", out.display()))?;
                    println!("[client] wrote {}", out.display());
                }
            }
            if let Some(stats) = result.get("request_stats") {
                let get = |f: &str| stats.get(f).and_then(Json::as_int).unwrap_or(0);
                println!(
                    "[client] request: plan_misses={} reseeded={} link_passes={}",
                    get("function_plan_misses"),
                    get("relink_reseeded_functions"),
                    result
                        .get("link_passes")
                        .and_then(Json::as_int)
                        .unwrap_or(0)
                );
            }
        }
        "explain" => {
            let (path, line, col) = match rest {
                [path, line] => (path, line, &"1"),
                [path, line, col] => (path, line, col),
                _ => return Err("`client explain` expects <file.c> <line> [<col>]".into()),
            };
            let line: u32 = line
                .parse()
                .map_err(|_| "`explain` line must be a 1-based number".to_string())?;
            let col: u32 = col
                .parse()
                .map_err(|_| "`explain` col must be a 1-based number".to_string())?;
            let source = read_source(path)?;
            let result = client
                .explain(&program, path, &source, line, col)
                .map_err(|e| e.to_string())?;
            let facts = result
                .get("facts")
                .and_then(Json::as_array)
                .ok_or("malformed explain result")?;
            if facts.is_empty() {
                println!("[client] {path}:{line}:{col}: no mapping decision anchors here");
            }
            for fact in facts {
                let get = |f: &str| fact.get(f).and_then(Json::as_str).unwrap_or("?");
                println!(
                    "[client] {path}:{line}:{col}: {} [{} / {}] {}",
                    get("function"),
                    get("stage"),
                    get("fact"),
                    get("detail")
                );
            }
        }
        "stats" => {
            let result = client.stats().map_err(|e| e.to_string())?;
            let programs = result
                .get("programs")
                .and_then(Json::as_array)
                .ok_or("malformed stats result")?;
            let daemon = |f: &str| result.get(f).and_then(Json::as_int).unwrap_or(0);
            println!(
                "[client] daemon: workers {}, panics {}",
                daemon("workers"),
                daemon("panics")
            );
            if programs.is_empty() {
                println!("[client] no programs analyzed yet");
            }
            for entry in programs {
                let key = entry.get("program").and_then(Json::as_str).unwrap_or("?");
                let stats = entry.get("stats");
                let get = |f: &str| {
                    stats
                        .and_then(|s| s.get(f))
                        .and_then(Json::as_int)
                        .unwrap_or(0)
                };
                println!(
                    "[client] {key}: analyses {} hit / {} miss, {} function(s) planned, \
                     relink re-seeded {}, store {} hit / {} miss, fast path {}",
                    get("analysis_hits"),
                    get("analysis_misses"),
                    get("function_plan_misses"),
                    get("relink_reseeded_functions"),
                    get("store_hits"),
                    get("store_misses"),
                    get("fast_path_hits")
                );
                for (field, label) in [("profile", "last round"), ("edit_profile", "one_edit")] {
                    let Some(profile) = entry.get(field).filter(|p| **p != Json::Null) else {
                        continue;
                    };
                    let count = |f: &str| profile.get(f).and_then(Json::as_int).unwrap_or(0);
                    let us = |f: &str| count(f) as f64 / 1e3;
                    println!(
                        "[client] {key}: {label}: {} unit(s) ({} fast-pathed, {} warm) in {:.3}ms \
                         (summarize {:.3}ms, link {:.3}ms, plan {:.3}ms, flush {:.3}ms)",
                        count("units"),
                        count("fast_path_units"),
                        count("warm_units"),
                        us("total_us"),
                        us("summarize_us"),
                        us("link_us"),
                        us("plan_us"),
                        us("flush_us")
                    );
                }
            }
        }
        "check_plans" => {
            let [path] = rest else {
                return Err("`client check_plans` expects one plan-JSON file".into());
            };
            let doc =
                std::fs::read_to_string(path).map_err(|e| format!("cannot read `{path}`: {e}"))?;
            let result = client.check_plans(&doc).map_err(|e| e.to_string())?;
            let version = result
                .get("format_version")
                .and_then(Json::as_int)
                .unwrap_or(0);
            let plans = result.get("plans").and_then(Json::as_int).unwrap_or(0);
            println!(
                "[client] {path}: valid plan document, format version {version}, {plans} plan(s)"
            );
        }
        "gc" => {
            let max = max_bytes.ok_or("`client gc` expects `--max-bytes <N[k|m|g]>`")?;
            let result = client.gc(max, None).map_err(|e| e.to_string())?;
            let programs = result
                .get("programs")
                .and_then(Json::as_array)
                .ok_or("malformed gc result")?;
            for entry in programs {
                let key = entry.get("program").and_then(Json::as_str).unwrap_or("?");
                let get = |f: &str| entry.get(f).and_then(Json::as_int).unwrap_or(0);
                println!(
                    "[client] {key}: evicted {} of {} entr(ies), {} bytes freed, {} kept",
                    get("entries_evicted"),
                    get("entries_before"),
                    get("bytes_freed"),
                    get("bytes_kept")
                );
            }
        }
        "shutdown" => {
            client.shutdown().map_err(|e| e.to_string())?;
            println!("[client] daemon is shutting down (draining + flushing)");
        }
        other => return Err(format!("unknown client verb `{other}`")),
    }
    Ok(ExitCode::SUCCESS)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::{Duration, SystemTime};

    /// Every `<stem>.mapped.c` goes through `write_mapped`: the same bytes
    /// again leave the file — its modification time, its inode — alone, a
    /// one-byte difference rewrites it, a missing file is created.
    #[test]
    fn an_unchanged_mapped_output_is_not_rewritten() {
        let dir = std::env::temp_dir().join(format!("ompdart-write-mapped-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("unit.mapped.c");
        let long_ago = SystemTime::UNIX_EPOCH + Duration::from_secs(1_000_000_000);
        let stamp = |path: &Path| {
            let meta = std::fs::metadata(path).unwrap();
            #[cfg(unix)]
            let inode = std::os::unix::fs::MetadataExt::ino(&meta);
            #[cfg(not(unix))]
            let inode = 0u64;
            (meta.modified().unwrap(), inode)
        };

        write_mapped(&path, "int a;\n").unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "int a;\n");
        let file = std::fs::File::options().write(true).open(&path).unwrap();
        file.set_modified(long_ago).unwrap();
        drop(file);
        let before = stamp(&path);
        assert_eq!(before.0, long_ago);

        write_mapped(&path, "int a;\n").unwrap();
        assert_eq!(
            stamp(&path),
            before,
            "the same bytes must not touch the file"
        );

        write_mapped(&path, "int b;\n").unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "int b;\n");
        assert_ne!(stamp(&path).0, long_ago, "one byte differs: rewritten");

        // Same length is not same bytes, and a shorter text truncates.
        write_mapped(&path, "int").unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "int");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// `diff-plan` refuses a plan document of the previous format version —
    /// whole or a single plan — and says which version it was.
    #[test]
    fn load_plans_refuses_a_version_2_document() {
        let dir = std::env::temp_dir().join(format!("ompdart-load-plans-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let plan = MappingPlan {
            function: "f".into(),
            ..Default::default()
        };
        let documents = [
            ompdart_core::plans_to_json(std::slice::from_ref(&plan)),
            plan.to_json(),
        ];
        for (i, current) in documents.iter().enumerate() {
            let path = dir.join(format!("{i}.json"));
            let path = path.to_str().unwrap();
            std::fs::write(path, current).unwrap();
            assert_eq!(load_plans(path), Ok(vec![plan.clone()]));
            std::fs::write(path, current.replace("\"version\": 3", "\"version\": 2")).unwrap();
            let refused = load_plans(path).unwrap_err();
            assert!(
                refused.contains("version") && refused.contains('2'),
                "{refused}"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
