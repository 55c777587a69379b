//! `ompdart-ledger`: the repo's benchmark. See `ledger/README.md`.
//!
//! ```text
//! ompdart-ledger --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ompdart-ledger [--seed <n>] [--seconds <s>] [--compare <ledger.json>]
//! ```
//!
//! With `--workload` it runs that one workload in this process and prints
//! its metrics, the last line being the result object the benchmark
//! contract asks for. Without, it runs every workload twice as a child of
//! its own (an end-to-end pass, then a traced pass), writes the ledger
//! and the Chrome trace under `ledger/out/`, and optionally compares the
//! ledger with an earlier one.

use ompdart_ledger::harness::{self, Reading};
use ompdart_ledger::json::{obj, Value};
use ompdart_ledger::metrics::{END_TO_END, PER_LAYER, WORKLOADS};
use ompdart_ledger::workloads::{self, Ctx, Outcome};
use ompdart_ledger::{alloc, ledger, quality, trace, OUT_DIR};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

#[global_allocator]
static ALLOC: alloc::GatedCounter = alloc::GatedCounter;

/// Spans written to a trace file at most; a run records far fewer per
/// second than this in total.
const TRACE_SPAN_LIMIT: usize = 200_000;

/// `run_seconds` of `BENCHMARK.json`, so a ledger made without
/// `--seconds` compares with what the benchmark's driver measures.
const DEFAULT_SECONDS: f64 = 15.0;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    compare: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 42,
        seconds: DEFAULT_SECONDS,
        trace: false,
        compare: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("`{flag}` expects a value"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?),
            "--seed" => {
                args.seed = value()?
                    .parse()
                    .map_err(|_| "`--seed` expects a whole number".to_string())?
            }
            "--seconds" => {
                args.seconds = value()?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or("`--seconds` expects a positive number")?
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("`--trace` expects 0 or 1".into()),
                }
            }
            "--compare" => args.compare = Some(value()?.into()),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(args)
}

/// The release binaries under test sit beside this one when all three are
/// built into one target directory, which `ledger/run.sh` sees to.
fn sibling_binary(name: &str) -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this executable: {e}"))?;
    let path = exe.with_file_name(name);
    if path.is_file() {
        Ok(path)
    } else {
        Err(format!(
            "`{}` is missing: build it with `cargo build --release --bin ompdart --bin ompdartd` \
             into the same target directory, or use `bash ledger/run.sh`",
            path.display()
        ))
    }
}

/// A directory no earlier run has used: runs never delete what they wrote
/// (see `workloads/cli_restart.rs`), and process ids repeat.
fn new_scratch_dir() -> Result<PathBuf, String> {
    std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("cannot create `{OUT_DIR}`: {e}"))?;
    for n in 0.. {
        let dir = PathBuf::from(format!("{OUT_DIR}/run-{n}"));
        match std::fs::create_dir(&dir) {
            Ok(()) => return Ok(dir),
            Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => {}
            Err(e) => return Err(format!("cannot create `{}`: {e}", dir.display())),
        }
    }
    unreachable!("the loop only ends by returning")
}

/// Empty every file under `dir`, a finished run's directory, so that runs
/// do not fill the disk. The files stay: unlinking them would slow the
/// next run's file creation (see `workloads/cli_restart.rs`).
fn release_disk_space(dir: &Path) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        match entry.file_type() {
            Ok(kind) if kind.is_dir() => release_disk_space(&entry.path()),
            Ok(kind) if kind.is_file() => {
                let _ = std::fs::File::create(entry.path());
            }
            _ => {}
        }
    }
}

fn run_workload(args: &Args, name: &str) -> Result<ExitCode, String> {
    let Some(index) = WORKLOADS.iter().position(|(known, _)| *known == name) else {
        let known: Vec<&str> = WORKLOADS.iter().map(|(n, _)| *n).collect();
        return Err(format!(
            "unknown workload `{name}` (have: {})",
            known.join(", ")
        ));
    };
    if !Path::new("ledger").is_dir() {
        return Err("run from the repository root (no `ledger/` here)".into());
    }
    let scratch = new_scratch_dir()?;
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        recorder: trace::Recorder::new(false),
        pace: harness::Pace::new(),
        scratch,
        ompdart: sibling_binary("ompdart")?,
        ompdartd: sibling_binary("ompdartd")?,
    };

    let mut outcome = match name {
        "paper_suite" => workloads::paper_suite::run(&ctx),
        "corpus_cold" => workloads::corpus_cold::run(&ctx),
        "corpus_edit" => workloads::corpus_edit::run(&ctx),
        "cli_restart" => workloads::cli_restart::run(&ctx),
        "served_mix" => workloads::served_mix::run(&ctx),
        _ => unreachable!("checked against WORKLOADS above"),
    }?;

    // An output check every end-to-end pass makes: the mappings generated
    // for the paper ports, simulated and verified. It yields the quality
    // metrics, and for `paper_suite`'s traced pass the simulator's layers.
    ctx.recorder.set_enabled(ctx.trace);
    let (quality, pass) = if !ctx.trace || name == "paper_suite" {
        ctx.sample_setup(|| ctx.recorder.span("quality.pass", quality::measure))
    } else {
        (quality::Quality::default(), harness::Sample::default())
    };
    outcome.tally.attempted += quality.attempted;
    for failure in &quality.failures {
        outcome.tally.fail(failure.clone());
    }
    if ctx.trace && name == "paper_suite" {
        let to_reference_speed = pass.scaled_ms / pass.raw_ms;
        workloads::paper_suite::record_quality_layers(
            &quality,
            to_reference_speed,
            &mut outcome.layers,
        );
    }

    let metrics = result_metrics(&ctx, &outcome, &quality);
    print_human(name, &ctx, &outcome, &metrics);
    ledger::write_fragment(name, &ctx, &outcome, &quality, &metrics)?;
    if ctx.trace {
        let path = format!("{OUT_DIR}/trace-{name}.json");
        // In the whole command's trace each workload is a process.
        std::fs::write(&path, ctx.recorder.chrome_json(TRACE_SPAN_LIMIT, index + 1))
            .map_err(|e| format!("cannot write `{path}`: {e}"))?;
    }

    release_disk_space(&ctx.scratch);

    let correct = outcome.tally.failed == 0;
    println!(
        "{}",
        obj([
            ("correct", correct.into()),
            ("attempted", outcome.tally.attempted.into()),
            ("failed", outcome.tally.failed.into()),
            (
                "metrics",
                Value::Object(
                    metrics
                        .iter()
                        .map(|(name, unit, value)| {
                            (
                                name.to_string(),
                                obj([("value", (*value).into()), ("unit", (*unit).into())]),
                            )
                        })
                        .collect(),
                ),
            ),
        ])
        .render()
    );
    Ok(if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// The metrics of the result line: every end-to-end metric in the
/// end-to-end pass, every per-layer metric in the traced pass.
fn result_metrics(
    ctx: &Ctx,
    outcome: &Outcome,
    quality: &quality::Quality,
) -> Vec<(&'static str, &'static str, f64)> {
    if ctx.trace {
        return PER_LAYER
            .iter()
            .map(|layer| {
                let value = outcome.layers.get(layer.name).copied().unwrap_or(0.0);
                (layer.name, layer.unit, value)
            })
            .collect();
    }
    END_TO_END
        .iter()
        .map(|metric| {
            let value = match metric.name {
                "setup_s" => outcome.setup_s(Reading::Scaled),
                "cold_ms" => outcome.cold.summary(outcome.readings[0]).value,
                "warm_ms" => outcome.warm.summary(outcome.readings[1]).value,
                "edit_ms" => outcome.edit.summary(outcome.readings[2]).value,
                "ops_per_s" => outcome.ops_per_s(Reading::Scaled),
                "peak_rss_mb" => outcome.peak_rss_mb,
                name => quality
                    .metrics()
                    .iter()
                    .find(|(n, _)| *n == name)
                    .map(|(_, v)| *v)
                    .expect("every end-to-end metric has a source"),
            };
            (metric.name, metric.unit, value)
        })
        .collect()
}

fn print_human(
    name: &str,
    ctx: &Ctx,
    outcome: &Outcome,
    metrics: &[(&'static str, &'static str, f64)],
) {
    println!(
        "workload {name}  seed {}  {} s  {} pass",
        ctx.seed,
        ctx.seconds,
        if ctx.trace { "traced" } else { "end-to-end" }
    );
    for (series_name, series, reading) in outcome.latencies() {
        let summary = series.summary(reading);
        let tail = series
            .tail(reading)
            .map(|(pct, value)| format!("  p{pct} {value:.3}"))
            .unwrap_or_default();
        println!(
            "  {series_name:<28} {:>14.4} ms   iqr {:.4}  n {}{tail}  (as timed {:.4}, at reference speed {:.4})",
            summary.value,
            summary.iqr,
            summary.samples,
            series.summary(Reading::Raw).value,
            series.summary(Reading::Scaled).value,
        );
    }
    let (pace_runs, pace_spent) = ctx.pace.cost();
    println!(
        "  reference loop: {pace_runs} runs, {:.3} s; set-up as timed {:.4} s, throughput as timed {:.4} 1/s",
        pace_spent.as_secs_f64(),
        outcome.setup_s(Reading::Raw),
        outcome.ops_per_s(Reading::Raw),
    );
    for (metric, unit, value) in metrics {
        println!("  {metric:<28} {value:>14.4} {unit}");
    }
    println!(
        "  ops {}  attempted {}  failed {}",
        outcome.ops_total(),
        outcome.tally.attempted,
        outcome.tally.failed
    );
    for reason in &outcome.tally.reasons {
        println!("  FAILED: {reason}");
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let result = match &args.workload {
        Some(name) => run_workload(&args, name),
        None => ledger::run_all(args.seed, args.seconds, args.compare.as_deref()),
    };
    match result {
        Ok(code) => code,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}
