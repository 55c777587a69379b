//! The `ompdart` command-line facade: the paper's LibTooling-style tool as
//! a binary over the `Ompdart` builder API. The synopsis of every
//! subcommand and flag is `USAGE` below (`ompdart help`).
//!
//! Every verb is one flag read ([`Flags`], against the flags the verb
//! declares; [`tool`] builds the `Ompdart` they configure), one analysis
//! call and one emit ([`Outputs::emit`] writes every `<stem>.mapped.c`).
//! `analyze` links its inputs, one or several, as one whole program;
//! `batch` analyzes each file as a program of its own; `watch` keeps one
//! session hot over a directory, falling back to a batch of the changed
//! files when the directory does not link; `daemon` runs `ompdartd`,
//! analysis as a service, and `client` drives it.

use ompdart_core::pipeline::stage_parse;
use ompdart_core::plan::{diff_plans, extract_explicit_plans, plans_from_json, Json, MappingPlan};
use ompdart_core::{
    release_bodies, AnalysisStats, ArtifactStore, Ompdart, ProgramError, StageError, UnitAnalysis,
    UnitServe,
};
use ompdart_frontend::Diagnostics;
use ompdart_server::daemon::{DaemonConfig, DaemonHandle, Endpoint};
use ompdart_server::watch::make_watcher;
use ompdart_server::{serve_label, signal, Client, Flags};
use ompdart_sim::{simulate_source, SimConfig};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

const USAGE: &str = "\
ompdart — static generation of efficient OpenMP offload data mappings

USAGE:
    ompdart analyze <input.c>... [-o <out.c> | --out-dir <dir>] [--plan-json <path|->]
                    [--simulate] [--profile-json <path|->] [--timings]
                    [--pessimistic-globals] [--cache-dir <dir>]
    ompdart explain <input.c>
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

WHERE OUTPUT GOES:
    One rule for every verb: a unit's rewrite is written to
    `<stem>.mapped.c`, in --out-dir when given, else next to its input
    (`analyze`, `watch`) or not at all (`batch`, `client analyze`). The
    one exception is `analyze` of a single input without --out-dir: it
    writes to stdout, or to -o FILE. -o, --plan-json and --simulate take
    one input; --out-dir and --profile-json take any number.

SUBCOMMANDS:
    analyze    Insert data-mapping constructs. The inputs — one or
               several — are linked as ONE whole program (cross-unit
               summaries, program-level liveness). --plan-json
               additionally emits the versioned Mapping IR (`-` for
               stdout); --simulate compares transfer profiles
               before/after on the offload simulator and exits 1 if
               the program's output changed.
               --pessimistic-globals opts into assuming unknown extern
               callees clobber every global (default: they only touch
               their non-const pointer arguments). Every mapping is
               spelled as one structured `target data` region per
               function (or clauses on its single kernel).
               --profile-json emits a driver profile — per-phase wall
               time, per-unit plan percentiles, identity-fast-path unit
               counts, pool and shard-lock counters — to a file or `-`.
               --cache-dir keeps each unit's link interface, plans and
               rewrite edits in a pack file in that directory: a repeat
               run parses and plans only the units a change reached
               (none, over unchanged sources), with the same output
               byte for byte. A `<stem>.mapped.c` that already holds
               exactly the new bytes is left untouched, modification
               time included.
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
               A deleted input's output is removed, unless it was edited
               since it was written. When the directory holds unrelated
               programs (duplicate `main`) the changed files are analyzed
               independently, as a `batch` would.
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

fn exit_code(success: bool) -> ExitCode {
    match success {
        true => ExitCode::SUCCESS,
        false => ExitCode::FAILURE,
    }
}

fn read_source(path: &str) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("cannot read `{path}`: {e}"))
}

/// The `(path, source)` pair of each path, in order.
fn read_sources(paths: &[String]) -> Result<Vec<(String, String)>, String> {
    (paths.iter())
        .map(|path| read_source(path).map(|source| (path.clone(), source)))
        .collect()
}

/// The tool the verb's tool flags configure: whichever of
/// `--pessimistic-globals`, `--cache-dir`, `--cache-max-bytes` and
/// `--threads` it declares.
fn tool(flags: &Flags) -> Result<Ompdart, String> {
    let mut builder = Ompdart::builder().pessimistic_globals(flags.has("--pessimistic-globals"));
    if let Some(dir) = flags.value("--cache-dir") {
        builder = builder.cache_dir(dir);
    }
    if let Some(max_bytes) = flags.size("--cache-max-bytes")? {
        builder = builder.cache_max_bytes(max_bytes);
    }
    if let Some(threads) = flags.number::<usize>("--threads")? {
        builder = builder.parallelism(threads.max(1));
    }
    Ok(builder.build())
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

/// A stage error on one line, for one-line reports.
fn stage_failure(err: StageError) -> String {
    let text = err.to_string();
    text.lines().next().unwrap_or("unknown error").to_string()
}

/// Render a [`ProgramError`] with the failing unit's diagnostics attached.
fn render_program_error(inputs: &[(String, String)], err: &ProgramError) -> String {
    if let ProgramError::Unit { name, error } = err {
        if let Some((name, source)) = inputs.iter().find(|(n, _)| n == name) {
            return render_stage_error(name, source, error.clone());
        }
    }
    err.to_string()
}

/// Render `unit`'s diagnostics on stderr, and hand them back.
fn render_diagnostics(unit: &UnitAnalysis) -> Diagnostics {
    let diagnostics = unit.diagnostics();
    for diag in diagnostics.iter() {
        eprintln!("{}", diag.render(unit.source_file()));
    }
    diagnostics
}

/// Why a unit's mapping is not usable as-is: error-severity diagnostics
/// mean it is unsound (e.g. a declaration inside the region extent).
fn unsound(diagnostics: &Diagnostics) -> Option<String> {
    let errors = diagnostics.error_count();
    (errors > 0).then(|| format!("analysis reported {errors} error diagnostic(s)"))
}

/// Put a report on stdout (`-`) or in the file `dest`.
fn put_report(dest: &str, text: &str, what: &str) -> Result<(), String> {
    match dest {
        "-" => println!("{}", text.strip_suffix('\n').unwrap_or(text)),
        path => {
            std::fs::write(path, text).map_err(|e| format!("cannot write `{path}`: {e}"))?;
            eprintln!("wrote {what} to {path}");
        }
    }
    Ok(())
}

/// What `analyze` reports of a unit, or of the program.
fn counts(stats: &AnalysisStats) -> String {
    let (kernels, constructs) = (stats.kernels, stats.total_constructs());
    let fallbacks = stats.unknown_callee_fallbacks;
    format!(
        "{kernels} kernel(s), {constructs} construct(s), {fallbacks} unknown-callee fallback(s)"
    )
}

fn cmd_analyze(args: &[String]) -> Result<ExitCode, String> {
    let flags = Flags::read(
        args,
        &[
            "-o|--output=a path",
            "--out-dir=a directory",
            "--plan-json=a path or `-`",
            "--profile-json=a path or `-`",
            "--timings",
            "--simulate",
            "--pessimistic-globals",
            "--cache-dir=a directory",
        ],
    )?;
    let inputs = &flags.positional;
    let (output, out_dir) = (flags.value("-o"), flags.value("--out-dir"));
    let simulate = flags.has("--simulate");
    if inputs.is_empty() {
        return Err("`analyze` expects an input file".into());
    }
    if inputs.len() > 1 && (output.is_some() || flags.has("--plan-json") || simulate) {
        return Err(
            "`-o`, `--plan-json` and `--simulate` apply to single-input analyze; \
             multi-input analyze links the files as one program and writes each \
             `<stem>.mapped.c` (use `--out-dir` to redirect them)"
                .into(),
        );
    }
    if output.is_some() && out_dir.is_some() {
        return Err("pass `-o <out.c>` or `--out-dir <dir>`, not both".into());
    }
    let to_stdout = inputs.len() == 1 && output.is_none() && out_dir.is_none();
    for (flag, what) in [
        ("--plan-json", "plan JSON"),
        ("--profile-json", "driver profile"),
    ] {
        if to_stdout && flags.value(flag) == Some("-") {
            return Err(format!(
                "`{flag} -` would interleave the {what} with the transformed source on \
                 stdout; pass `-o <out.c>` to redirect the source"
            ));
        }
    }

    let tool = tool(&flags)?;
    let pairs = read_sources(inputs)?;
    let start = Instant::now();
    let (program, profile) = tool
        .analyze_program_profiled(&pairs)
        .map_err(|e| render_program_error(&pairs, &e))?;
    if let Some(dest) = flags.value("--profile-json") {
        put_report(dest, &profile.to_json(), "driver profile")?;
    }

    let mut outputs = Outputs::new(out_dir, true)?;
    let mut failures = 0usize;
    for ((path, _), unit) in pairs.iter().zip(&program.units) {
        let written = match output {
            None if !to_stdout => (outputs.emit(path, unit, None))
                .map(|out| out.map_or_else(String::new, |out| out.display().to_string())),
            // The one input's named output is written even when the
            // mapping is unsound, for inspection; the run still fails.
            named => {
                let diagnostics = render_diagnostics(unit);
                match named {
                    Some(file) => std::fs::write(file, unit.rewritten_source())
                        .map_err(|e| format!("cannot write `{file}`: {e}"))?,
                    None => print!("{}", unit.rewritten_source()),
                }
                let dest = named.unwrap_or("stdout");
                match unsound(&diagnostics) {
                    Some(why) => Err(format!("{why}; written to {dest} for inspection")),
                    None => Ok(dest.to_string()),
                }
            }
        };
        match written {
            Ok(dest) => eprintln!("{path}: {} -> {dest}", counts(&unit.stats())),
            Err(why) => {
                failures += 1;
                eprintln!("{path}: FAILED — {why}");
            }
        }
        if flags.has("--timings") {
            eprintln!("{path}: stage timings: {}", unit.timings());
        }
    }
    let elapsed = start.elapsed();
    if let Some(dest) = flags.value("--plan-json") {
        put_report(dest, &program.units[0].plans_json(), "plan JSON")?;
    }
    let mut preserved = true;
    if simulate {
        // Simulate the exact text that was analyzed, not a re-read of the
        // file (which may have changed since).
        let unit = &program.units[0];
        let run = |source: &str, what: &str| {
            simulate_source(source, SimConfig::default())
                .map_err(|e| format!("simulation of the {what} failed: {e}"))
        };
        let before = run(unit.unit().source(), "input")?;
        let after = run(unit.rewritten_source(), "transformed source")?;
        eprintln!("before: {}", before.profile.summary());
        eprintln!("after:  {}", after.profile.summary());
        preserved = before.output == after.output;
        let verdict = match preserved {
            true => "yes",
            false => "NO — please report this",
        };
        eprintln!("output preserved: {verdict}");
    }
    eprintln!(
        "linked {} unit(s) as one program: {}, link passes {}",
        program.units.len(),
        counts(&program.stats()),
        program.link_passes
    );
    if flags.has("--timings") {
        eprintln!(
            "whole-program wall clock: {:.3}ms",
            elapsed.as_secs_f64() * 1e3
        );
    }
    // An unsound mapping, or one that changes the simulated output, fails
    // the run.
    Ok(exit_code(failures == 0 && preserved))
}

fn cmd_cache(args: &[String]) -> Result<ExitCode, String> {
    let Some(("gc", rest)) = args.split_first().map(|(a, r)| (a.as_str(), r)) else {
        return Err(
            "`cache` expects the `gc` subcommand: ompdart cache gc <dir> [--max-bytes N]".into(),
        );
    };
    let flags = Flags::read(rest, &["--max-bytes=a size"])?;
    let dir = flags.only_positional("`cache gc` expects the cache directory")?;
    let max_bytes = flags.size("--max-bytes")?.unwrap_or(256 << 20);
    let report = ArtifactStore::open(dir).gc(max_bytes);
    println!(
        "[cache] {dir}: {} entr(ies) before, evicted {} ({} bytes freed), {} bytes kept (cap {max_bytes})",
        report.entries_before, report.entries_evicted, report.bytes_freed, report.bytes_kept
    );
    Ok(ExitCode::SUCCESS)
}

fn cmd_explain(args: &[String]) -> Result<ExitCode, String> {
    let flags = Flags::read(args, &[])?;
    let [input] = &flags.positional[..] else {
        return Err("`explain` expects exactly one input file".into());
    };
    let source = read_source(input)?;
    let analysis = tool(&flags)?
        .analyze(input, &source)
        .map_err(|e| render_stage_error(input, &source, e))?;
    print!("{}", analysis.explain());
    if !analysis.diagnostics().has_errors() {
        return Ok(ExitCode::SUCCESS);
    }
    render_diagnostics(&analysis);
    Ok(ExitCode::FAILURE)
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
    match Ompdart::new().analyze(path, &content) {
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
    Ok(exit_code(diff.is_empty()))
}

fn cmd_batch(args: &[String]) -> Result<ExitCode, String> {
    let flags = Flags::read(
        args,
        &[
            "--threads=a number",
            "--out-dir=a directory",
            "--pessimistic-globals",
        ],
    )?;
    if flags.positional.is_empty() {
        return Err("`batch` expects at least one input file".into());
    }
    let tool = tool(&flags)?;
    let pairs = read_sources(&flags.positional)?;
    let results = tool.analyze_batch(&pairs);

    let mut outputs = Outputs::new(flags.value("--out-dir"), false)?;
    let mut failures = 0usize;
    for ((path, _), result) in pairs.iter().zip(results) {
        let emitted = (result.map_err(stage_failure))
            .and_then(|unit| outputs.emit(path, &unit, None).map(|_| unit.stats()));
        match emitted {
            Ok(stats) => println!(
                "{path}: ok — {} kernel(s), {} construct(s)",
                stats.kernels,
                stats.total_constructs()
            ),
            Err(why) => {
                failures += 1;
                println!("{path}: FAILED — {why}");
            }
        }
    }
    println!(
        "{}/{} unit(s) analyzed successfully",
        pairs.len() - failures,
        pairs.len()
    );
    Ok(exit_code(failures == 0))
}

// ---------------------------------------------------------------------------
// The emit step every verb shares
// ---------------------------------------------------------------------------

/// Where a run's `<stem>.mapped.c` outputs go: into `dir`, else next to
/// their inputs when `beside` (`analyze`, `watch`) or nowhere (`batch`,
/// `client analyze`). Inputs may share a stem: a name already `used` gets a
/// numeric infix instead of overwriting that output.
struct Outputs<'a> {
    dir: Option<&'a str>,
    beside: bool,
    used: HashSet<String>,
}

impl<'a> Outputs<'a> {
    fn new(dir: Option<&'a str>, beside: bool) -> Result<Outputs<'a>, String> {
        if let Some(dir) = dir {
            std::fs::create_dir_all(dir).map_err(|e| format!("cannot create `{dir}`: {e}"))?;
        }
        let used = HashSet::new();
        Ok(Outputs { dir, beside, used })
    }

    /// Emit one analyzed unit: render its diagnostics, refuse it when one is
    /// an error, and [`Outputs::write`] its rewrite unless it is `held`, the
    /// text an earlier emit wrote (`watch`). Returns the output written, if
    /// any, or why the unit failed.
    fn emit(
        &mut self,
        input: &str,
        unit: &UnitAnalysis,
        held: Option<&str>,
    ) -> Result<Option<PathBuf>, String> {
        if held == Some(unit.rewritten_source()) && !unit.diagnostics().has_errors() {
            return Ok(None);
        }
        if let Some(why) = unsound(&render_diagnostics(unit)) {
            return Err(why);
        }
        self.write(input, unit.rewritten_source())
    }

    /// Write `rewritten` to `input`'s `<stem>.mapped.c`, if this run writes
    /// outputs: the one writer of those files.
    fn write(&mut self, input: &str, rewritten: &str) -> Result<Option<PathBuf>, String> {
        if self.dir.is_none() && !self.beside {
            return Ok(None);
        }
        let input = Path::new(input);
        let stem = input.file_stem().and_then(|s| s.to_str()).unwrap_or("unit");
        let mut name = format!("{stem}.mapped.c");
        let mut suffix = 1usize;
        while !self.used.insert(name.clone()) {
            name = format!("{stem}.{suffix}.mapped.c");
            suffix += 1;
        }
        let path = match self.dir {
            Some(dir) => Path::new(dir).join(name),
            None => input.with_file_name(name),
        };
        write_mapped(&path, rewritten)
            .map_err(|e| format!("cannot write `{}`: {e}", path.display()))?;
        Ok(Some(path))
    }
}

/// Write a mapped output to `path` — unless the file already holds exactly
/// these bytes. An unchanged output keeps its modification time, so a build
/// rule that depends on it does not fire again, and the file is not
/// truncated and rewritten for nothing.
fn write_mapped(path: &Path, contents: &str) -> std::io::Result<()> {
    match holds(path, contents) {
        true => Ok(()),
        false => std::fs::write(path, contents),
    }
}

/// Whether the file at `path` holds exactly `contents`.
fn holds(path: &Path, contents: &str) -> bool {
    std::fs::metadata(path).is_ok_and(|meta| meta.len() == contents.len() as u64)
        && std::fs::read(path).is_ok_and(|bytes| bytes == contents.as_bytes())
}

// ---------------------------------------------------------------------------
// watch: the long-lived incremental front door
// ---------------------------------------------------------------------------

/// A watched input: its path, which names it in the analysis, and source.
type Unit = (String, String);

/// The `.c` inputs under `dir` (excluding our own `.mapped.c` outputs),
/// sorted for deterministic emit order.
fn read_c_files(dir: &Path) -> Result<Vec<Unit>, String> {
    let entries =
        std::fs::read_dir(dir).map_err(|e| format!("cannot read `{}`: {e}", dir.display()))?;
    let mut out: Vec<Unit> = entries
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| (p.to_str()).is_some_and(|p| p.ends_with(".c") && !p.ends_with(".mapped.c")))
        .filter_map(|p| Some((p.display().to_string(), std::fs::read_to_string(&p).ok()?)))
        .collect();
    out.sort();
    Ok(out)
}

/// Per watched input, the output last written for it and what was written.
type Emitted = BTreeMap<String, (PathBuf, String)>;

fn cmd_watch(args: &[String]) -> Result<ExitCode, String> {
    let flags = Flags::read(
        args,
        &[
            "--out-dir=a directory",
            "--cache-dir=a directory",
            "--cache-max-bytes=a size",
            "--interval-ms=a number",
            "--iterations=a number",
            "--once",
            "--pessimistic-globals",
        ],
    )?;
    let dir = Path::new(flags.only_positional("`watch` expects a directory")?);
    let interval_ms: u64 = flags.number("--interval-ms")?.unwrap_or(500);
    let iterations: Option<u64> = flags.number("--iterations")?;
    let once = flags.has("--once");
    let tool = tool(&flags)?;
    let mut outputs = Outputs::new(flags.value("--out-dir"), true)?;
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
        (flags.value("--cache-dir"))
            .map_or(String::new(), |cd| format!(", persistent cache at {cd}"))
    );

    // Re-emit on *content* change (a deleted file included), not mtime:
    // editors and CI touch files in too many ways to trust timestamps. The
    // full previous source is kept (not just a hash) so change detection
    // can never be fooled by a hash collision — the same standard the
    // session caches hold. All watched files are linked as ONE whole
    // program: an edit in one file re-plans functions in other files
    // exactly when the edited file's exported interface changed.
    let mut seen: HashMap<String, String> = HashMap::new();
    let mut last_emitted = Emitted::new();
    let mut cycles: u64 = 0;
    loop {
        match read_c_files(dir) {
            Ok(units) => {
                if needs_rescan(&seen, &units) {
                    watch_program_scan(&tool, &mut outputs, &units, &seen, &mut last_emitted);
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
        watcher.wait(std::time::Duration::from_millis(interval_ms));
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

/// True when a scan that read `units` has to analyze the directory again:
/// some file's content differs from what the previous scan saw, or a file
/// it saw is gone — a deleted unit changes what the others link against.
fn needs_rescan(seen: &HashMap<String, String>, units: &[Unit]) -> bool {
    seen.len() != units.len() || (units.iter()).any(|(path, source)| seen.get(path) != Some(source))
}

/// One watch scan over the linked program. When the directory does not
/// link (duplicate `main`s, a unit that fails to parse), the files changed
/// since the `seen` scan are analyzed as a batch on the tool's one-unit
/// driver, which leaves the program's link state to the next scan that
/// links. Once the scan has emitted, it drops the parse of every unit it
/// analyzed ([`release_bodies`]): between scans a unit costs what its store
/// record does.
fn watch_program_scan(
    tool: &Ompdart,
    outputs: &mut Outputs,
    units: &[Unit],
    seen: &HashMap<String, String>,
    last_emitted: &mut Emitted,
) {
    // An input keeps its output name from scan to scan.
    outputs.used.clear();
    remove_deleted_outputs(units, last_emitted);
    let answered = match tool.analyze_program(units) {
        Ok(program) => {
            let served = program.served.iter().map(serve_label);
            for (((input, _), unit), label) in units.iter().zip(&program.units).zip(served) {
                watch_emit(outputs, last_emitted, input, Ok(Arc::clone(unit)), label);
            }
            program.units
        }
        Err(err) => {
            println!("[watch] not linkable as one program ({err}); analyzing files independently");
            let changed: Vec<Unit> = (units.iter())
                .filter(|(input, source)| seen.get(input) != Some(source))
                .cloned()
                .collect();
            let results = tool.analyze_batch(&changed);
            let analyzed = results.iter().flatten().cloned().collect();
            for ((input, _), result) in changed.iter().zip(results) {
                watch_emit(outputs, last_emitted, input, result, "unlinked");
            }
            analyzed
        }
    };
    release_bodies(&answered);
}

/// Emit one unit of a watch scan, served as `label` says, and report it.
fn watch_emit(
    outputs: &mut Outputs,
    last_emitted: &mut Emitted,
    input: &str,
    analyzed: Result<Arc<UnitAnalysis>, StageError>,
    label: &str,
) {
    let held = last_emitted.get(input).map(|(_, text)| text.as_str());
    let analyzed = analyzed.map_err(stage_failure);
    match analyzed.and_then(|unit| Ok((outputs.emit(input, &unit, held)?, unit))) {
        Ok((Some(out), unit)) => {
            println!("[watch] {input}: re-emitted {} ({label})", out.display());
            let text = unit.rewritten_source().to_string();
            last_emitted.insert(input.to_string(), (out, text));
        }
        // Nothing new on disk; still report re-planning work so cross-file
        // invalidation is observable.
        Ok((None, _)) if label == serve_label(&UnitServe::Planned) => {
            println!("[watch] {input}: output unchanged (planned)");
        }
        Ok((None, _)) => {}
        Err(why) => println!("[watch] {input}: FAILED — {why}"),
    }
}

/// Forget the outputs of inputs a scan no longer lists, removing each that
/// still holds what was written to it (an edited one is left alone).
fn remove_deleted_outputs(units: &[Unit], last_emitted: &mut Emitted) {
    let listed: HashSet<&str> = units.iter().map(|(input, _)| input.as_str()).collect();
    // In input order: `retain` visits a `BTreeMap` by ascending key.
    last_emitted.retain(|input, (out, text)| {
        let gone = !listed.contains(input.as_str());
        if gone && holds(out, text) && std::fs::remove_file(&*out).is_ok() {
            println!("[watch] {input}: removed {}", out.display());
        }
        !gone
    });
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

/// A field of a daemon response: an integer (0 when absent) or a string
/// (`?` when absent).
fn int(json: &Json, field: &str) -> i64 {
    json.get(field).and_then(Json::as_int).unwrap_or(0)
}

fn text<'a>(json: &'a Json, field: &str) -> &'a str {
    json.get(field).and_then(Json::as_str).unwrap_or("?")
}

/// The array field of a `verb` response.
fn items<'a>(json: &'a Json, field: &str, verb: &str) -> Result<&'a [Json], String> {
    (json.get(field).and_then(Json::as_array)).ok_or_else(|| format!("malformed {verb} result"))
}

/// `ompdart client`: one connection, one verb, structured output.
fn cmd_client(args: &[String]) -> Result<ExitCode, String> {
    let flags = Flags::read(
        args,
        &[
            "--socket=a path",
            "--tcp=an address",
            "--program=a key",
            "--out-dir=a directory",
            "--max-bytes=a size",
        ],
    )?;
    let endpoint = Endpoint::from_flags(&flags);
    let program = flags.value("--program").unwrap_or("default");
    let max_bytes = flags.size("--max-bytes")?;
    let Some((verb, rest)) = flags.positional.split_first() else {
        return Err(
            "`client` expects a verb: analyze, explain, stats, check_plans, gc, shutdown".into(),
        );
    };
    let mut client = Client::connect(&endpoint)
        .map_err(|e| format!("cannot connect to daemon at {endpoint}: {e}"))?;
    match verb.as_str() {
        "analyze" => {
            if rest.is_empty() {
                return Err("`client analyze` expects at least one file".into());
            }
            let result = client
                .analyze_paths(program, rest)
                .map_err(|e| e.to_string())?;
            let mut outputs = Outputs::new(flags.value("--out-dir"), false)?;
            for unit in items(&result, "units", "analyze")? {
                let name = text(unit, "name");
                println!("[client] {program}/{name}: serve={}", text(unit, "serve"));
                let Some(rewritten) = unit.get("rewritten_source").and_then(Json::as_str) else {
                    continue;
                };
                if let Some(out) = outputs.write(name, rewritten)? {
                    println!("[client] wrote {}", out.display());
                }
            }
            if let Some(stats) = result.get("request_stats") {
                println!(
                    "[client] request: plan_misses={} reseeded={} link_passes={}",
                    int(stats, "function_plan_misses"),
                    int(stats, "relink_reseeded_functions"),
                    int(&result, "link_passes")
                );
            }
        }
        "explain" => {
            let (path, line, col) = match rest {
                [path, line] => (path, line, "1"),
                [path, line, col] => (path, line, col.as_str()),
                _ => return Err("`client explain` expects <file.c> <line> [<col>]".into()),
            };
            let number = |text: &str, what: &str| {
                (text.parse::<u32>())
                    .map_err(|_| format!("`explain` {what} must be a 1-based number"))
            };
            let (line, col) = (number(line, "line")?, number(col, "col")?);
            let source = read_source(path)?;
            let result = client
                .explain(program, path, &source, line, col)
                .map_err(|e| e.to_string())?;
            let facts = items(&result, "facts", "explain")?;
            if facts.is_empty() {
                println!("[client] {path}:{line}:{col}: no mapping decision anchors here");
            }
            for fact in facts {
                println!(
                    "[client] {path}:{line}:{col}: {} [{} / {}] {}",
                    text(fact, "function"),
                    text(fact, "stage"),
                    text(fact, "fact"),
                    text(fact, "detail")
                );
            }
        }
        "stats" => {
            let result = client.stats().map_err(|e| e.to_string())?;
            let programs = items(&result, "programs", "stats")?;
            println!(
                "[client] daemon: workers {}, panics {}",
                int(&result, "workers"),
                int(&result, "panics")
            );
            if programs.is_empty() {
                println!("[client] no programs analyzed yet");
            }
            for entry in programs {
                let key = text(entry, "program");
                let stats = entry.get("stats").unwrap_or(&Json::Null);
                println!(
                    "[client] {key}: analyses {} hit / {} miss, {} function(s) planned, \
                     relink re-seeded {}, store {} hit / {} miss, fast path {}",
                    int(stats, "analysis_hits"),
                    int(stats, "analysis_misses"),
                    int(stats, "function_plan_misses"),
                    int(stats, "relink_reseeded_functions"),
                    int(stats, "store_hits"),
                    int(stats, "store_misses"),
                    int(stats, "fast_path_hits")
                );
                for (field, label) in [("profile", "last round"), ("edit_profile", "one_edit")] {
                    let Some(profile) = entry.get(field).filter(|p| **p != Json::Null) else {
                        continue;
                    };
                    let count = |f: &str| int(profile, f);
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
            let result = (client.check_plans(&read_source(path)?)).map_err(|e| e.to_string())?;
            println!(
                "[client] {path}: valid plan document, format version {}, {} plan(s)",
                int(&result, "format_version"),
                int(&result, "plans")
            );
        }
        "gc" => {
            let max = max_bytes.ok_or("`client gc` expects `--max-bytes <N[k|m|g]>`")?;
            let result = client.gc(max, None).map_err(|e| e.to_string())?;
            for entry in items(&result, "programs", "gc")? {
                println!(
                    "[client] {}: evicted {} of {} entr(ies), {} bytes freed, {} kept",
                    text(entry, "program"),
                    int(entry, "entries_evicted"),
                    int(entry, "entries_before"),
                    int(entry, "bytes_freed"),
                    int(entry, "bytes_kept")
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

    /// A watch scan re-analyzes the directory when a file's content moved,
    /// when a file appeared, and when a file was deleted; an identical scan
    /// does nothing.
    #[test]
    fn a_deleted_file_rescans_the_watched_directory() {
        let unit = |name: &str, source: &str| (name.to_string(), source.to_string());
        let both = [
            unit("helpers.c", "void scale(void) {}\n"),
            unit("driver.c", "int main() {}\n"),
        ];
        let seen: HashMap<String, String> = both.iter().cloned().collect();
        assert!(!needs_rescan(&seen, &both));
        assert!(needs_rescan(&seen, &both[1..]), "a deleted file");
        let edited = [
            both[0].clone(),
            unit("driver.c", "int main() { return 0; }\n"),
        ];
        assert!(needs_rescan(&seen, &edited), "an edited file");
        let added = [
            both[0].clone(),
            both[1].clone(),
            unit("extra.c", "int x;\n"),
        ];
        assert!(needs_rescan(&seen, &added), "an added file");
        assert!(needs_rescan(&HashMap::new(), &both), "the first scan");
    }

    /// A two-file program for the watch tests: `driver.c`'s kernel loop
    /// calls `helpers.c`'s `smooth`.
    const HELPERS: &str = "#define N 64\ndouble buf[N];\nvoid smooth(double *p, int n) {\n  for (int i = 1; i < n - 1; i++) p[i] = p[i] * 0.5;\n}\n";
    const DRIVER: &str = "#define N 64\nextern double buf[N];\nvoid smooth(double *p, int n);\nint main() {\n  for (int s = 0; s < 4; s++) {\n    #pragma omp target teams distribute parallel for\n    for (int i = 0; i < N; i++) buf[i] += 1.0;\n    smooth(buf, N);\n  }\n  return 0;\n}\n";

    /// A watched directory driven scan by scan, as `cmd_watch` drives it.
    struct Watched {
        dir: PathBuf,
        tool: Ompdart,
        seen: HashMap<String, String>,
        last_emitted: Emitted,
    }

    impl Watched {
        fn new(test: &str) -> Watched {
            let dir = std::env::temp_dir().join(format!("ompdart-{test}-{}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            std::fs::create_dir_all(&dir).unwrap();
            let (tool, seen, last_emitted) = (Ompdart::new(), HashMap::new(), Emitted::new());
            Watched {
                dir,
                tool,
                seen,
                last_emitted,
            }
        }

        fn scan(&mut self) {
            let units = read_c_files(&self.dir).unwrap();
            let mut outputs = Outputs::new(None, true).unwrap();
            let last_emitted = &mut self.last_emitted;
            watch_program_scan(&self.tool, &mut outputs, &units, &self.seen, last_emitted);
            self.seen = units.into_iter().collect();
        }
    }

    /// A deleted input takes its output with it — unless someone edited
    /// that output since it was written.
    #[test]
    fn a_deleted_input_takes_its_output_with_it() {
        let mut watched = Watched::new("watch-delete");
        let dir = watched.dir.clone();
        std::fs::write(dir.join("helpers.c"), HELPERS).unwrap();
        std::fs::write(dir.join("driver.c"), DRIVER).unwrap();
        std::fs::write(dir.join("util.c"), "int twice(int x) { return 2 * x; }\n").unwrap();
        watched.scan();
        for stem in ["helpers", "driver", "util"] {
            assert!(dir.join(format!("{stem}.mapped.c")).exists(), "{stem}");
        }
        assert_eq!(watched.last_emitted.len(), 3);

        std::fs::write(dir.join("util.mapped.c"), "/* edited by hand */\n").unwrap();
        std::fs::remove_file(dir.join("helpers.c")).unwrap();
        std::fs::remove_file(dir.join("util.c")).unwrap();
        watched.scan();
        assert!(!dir.join("helpers.mapped.c").exists(), "the output goes");
        assert_eq!(
            std::fs::read_to_string(dir.join("util.mapped.c")).unwrap(),
            "/* edited by hand */\n",
            "an edited output stays"
        );
        assert!(dir.join("driver.mapped.c").exists());
        let inputs: Vec<&String> = watched.last_emitted.keys().collect();
        assert_eq!(inputs, [&dir.join("driver.c").display().to_string()]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A directory that stops linking (a second `main`) is analyzed as a
    /// batch on the tool's one-unit driver, so the program's link state
    /// is the linked one still: once the stray file goes, the next scan
    /// is served by the round-level fast path without a relink.
    #[test]
    fn the_fallback_leaves_the_program_link_state_alone() {
        let mut watched = Watched::new("watch-fallback");
        let dir = watched.dir.clone();
        std::fs::write(dir.join("helpers.c"), HELPERS).unwrap();
        std::fs::write(dir.join("driver.c"), DRIVER).unwrap();
        watched.scan();
        std::fs::write(dir.join("other.c"), "int main() { return 0; }\n").unwrap();
        watched.scan();
        assert!(dir.join("other.mapped.c").exists(), "the fallback emits");

        std::fs::remove_file(dir.join("other.c")).unwrap();
        let before = watched.tool.session().cache_stats();
        watched.scan();
        let after = watched.tool.session().cache_stats();
        assert_eq!(after.fast_path_hits - before.fast_path_hits, 2, "{after}");
        assert_eq!(after.relink_touched_units, before.relink_touched_units);
        assert!(!dir.join("other.mapped.c").exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

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

    /// `diff-plan` refuses a plan document of an older format version —
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
            for old in ['2', '3'] {
                let downgraded = current.replace("\"version\": 4", &format!("\"version\": {old}"));
                std::fs::write(path, downgraded).unwrap();
                let refused = load_plans(path).unwrap_err();
                assert!(
                    refused.contains("version") && refused.contains(old),
                    "{refused}"
                );
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
