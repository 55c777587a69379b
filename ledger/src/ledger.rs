//! The ledger file: one JSON document with sections `e2e`, `layers` and
//! `ports`, assembled from the fragments the per-workload child processes
//! leave behind; and `--compare`, which judges one ledger against another
//! by the benchmark's own bounds.

use crate::harness::{machine_facts, quartiles, Reading};
use crate::json::{obj, Value};
use crate::metrics::{Better, END_TO_END, WORKLOADS};
use crate::quality::Quality;
use crate::workloads::{reasons_json, Ctx, Outcome};
use crate::OUT_DIR;
use std::path::Path;
use std::process::{Command, ExitCode, Stdio};

fn fragment_path(workload: &str, trace: bool) -> String {
    let pass = if trace { "traced" } else { "e2e" };
    format!("{OUT_DIR}/{workload}.{pass}.json")
}

/// Write what one workload run measured where `run_all` will pick it up.
pub fn write_fragment(
    workload: &str,
    ctx: &Ctx,
    outcome: &Outcome,
    quality: &Quality,
    metrics: &[(&'static str, &'static str, f64)],
) -> Result<(), String> {
    let series = outcome.latencies();
    let metrics = Value::Object(
        metrics
            .iter()
            .map(|(name, unit, value)| {
                // The three latency series carry their spread and count.
                let mut entry = match series.iter().find(|(n, ..)| n == name) {
                    Some((_, s, reading)) if !ctx.trace => {
                        match Outcome::series_json(s, *reading) {
                            Value::Object(fields) => fields,
                            _ => unreachable!("series_json builds an object"),
                        }
                    }
                    _ => vec![("value".to_string(), (*value).into())],
                };
                if *name == "setup_s" {
                    // The spread between this run's set-ups, for `--compare`.
                    let setups = outcome.setups_s(Reading::Scaled);
                    let (q1, q3) = quartiles(&setups);
                    entry.push(("iqr".to_string(), (q3 - q1).into()));
                    entry.push(("samples".to_string(), setups.len().into()));
                }
                entry.push(("unit".to_string(), (*unit).into()));
                (name.to_string(), Value::Object(entry))
            })
            .collect(),
    );
    let mut fields = vec![
        ("workload".to_string(), workload.into()),
        ("facts".to_string(), machine_facts(ctx.seed, ctx.seconds)),
        ("ops".to_string(), outcome.ops_total().into()),
        ("checks".to_string(), reasons_json(&outcome.tally)),
        ("metrics".to_string(), metrics),
        ("ports".to_string(), quality.ports_json()),
    ];
    if ctx.trace {
        // Self time per span name: where the traced pass spent its time.
        let spans = ctx
            .recorder
            .layer_times()
            .into_iter()
            .map(|(name, t)| {
                let entry = obj([
                    ("self_ms", (t.self_ns as f64 / 1e6).into()),
                    ("total_ms", (t.total_ns as f64 / 1e6).into()),
                    ("count", t.count.into()),
                ]);
                (name.to_string(), entry)
            })
            .collect();
        fields.push(("spans".to_string(), Value::Object(spans)));
    }
    fields.extend(outcome.detail.iter().cloned());
    let path = fragment_path(workload, ctx.trace);
    std::fs::write(&path, Value::Object(fields).render_pretty())
        .map_err(|e| format!("cannot write `{path}`: {e}"))
}

fn read_json(path: &Path) -> Result<Value, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read `{}`: {e}", path.display()))?;
    Value::parse(&text).map_err(|e| format!("`{}` is not a ledger: {e}", path.display()))
}

/// Run every workload in a process of its own, end-to-end pass then
/// traced pass, so peak memory and allocation counts are per workload.
pub fn run_all(seed: u64, seconds: f64, compare: Option<&Path>) -> Result<ExitCode, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this executable: {e}"))?;
    let mut failed_runs = Vec::new();
    for (workload, _) in WORKLOADS {
        for trace in ["0", "1"] {
            let status = Command::new(&exe)
                .args(["--workload", workload, "--trace", trace])
                .args(["--seed", &seed.to_string()])
                .args(["--seconds", &seconds.to_string()])
                .stdin(Stdio::null())
                .status()
                .map_err(|e| format!("cannot run `{}`: {e}", exe.display()))?;
            if !status.success() {
                failed_runs.push(format!("{workload} --trace {trace}: {status}"));
            }
        }
    }

    let mut e2e = Vec::new();
    let mut layers = Vec::new();
    let mut spans = Vec::new();
    let mut checks = Vec::new();
    let mut detail = Vec::new();
    let mut ports = Value::Null;
    let mut trace_events = Vec::new();
    for (index, (workload, why)) in WORKLOADS.iter().enumerate() {
        let untraced = read_json(Path::new(&fragment_path(workload, false)))?;
        let traced = read_json(Path::new(&fragment_path(workload, true)))?;
        let take = |doc: &Value, key: &str| doc.get(key).cloned().unwrap_or(Value::Null);
        e2e.push((workload.to_string(), take(&untraced, "metrics")));
        layers.push((workload.to_string(), take(&traced, "metrics")));
        spans.push((workload.to_string(), take(&traced, "spans")));
        checks.push((workload.to_string(), take(&untraced, "checks")));
        // What a workload wrote beside the common sections, in either pass
        // (the end-to-end pass's entry where both wrote one).
        let mut extra = vec![("why".to_string(), Value::from(*why))];
        for fragment in [&untraced, &traced] {
            for (key, value) in fragment.as_object().unwrap_or(&[]) {
                let common = [
                    "workload", "facts", "ops", "checks", "metrics", "ports", "spans",
                ];
                if !common.contains(&key.as_str()) && !extra.iter().any(|(k, _)| k == key) {
                    extra.push((key.clone(), value.clone()));
                }
            }
        }
        detail.push((workload.to_string(), Value::Object(extra)));
        if *workload == "paper_suite" {
            ports = take(&untraced, "ports");
        }

        // One trace for the whole command: each workload is a process,
        // numbered as its own trace file numbers its events.
        let pid = index + 1;
        trace_events.push(format!(
            "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{pid},\"args\":{{\"name\":\"{workload}\"}}}}"
        ));
        let path = format!("{OUT_DIR}/trace-{workload}.json");
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("cannot read `{path}`: {e}"))?;
        trace_events.extend(
            text.lines()
                .filter(|line| line.starts_with("{\"name\""))
                .map(|line| line.trim_end_matches(',').to_string()),
        );
    }
    let ledger = obj([
        ("schema", 1u64.into()),
        ("facts", machine_facts(seed, seconds)),
        ("e2e", Value::Object(e2e)),
        ("layers", Value::Object(layers)),
        ("spans", Value::Object(spans)),
        ("ports", ports),
        ("checks", Value::Object(checks)),
        ("detail", Value::Object(detail)),
    ]);
    let latest = format!("{OUT_DIR}/latest.json");
    std::fs::write(&latest, ledger.render_pretty())
        .map_err(|e| format!("cannot write `{latest}`: {e}"))?;
    let trace = format!("{OUT_DIR}/trace.json");
    std::fs::write(
        &trace,
        format!(
            "{{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n{}\n]}}\n",
            trace_events.join(",\n")
        ),
    )
    .map_err(|e| format!("cannot write `{trace}`: {e}"))?;
    println!("wrote {latest} and {trace}");

    for run in &failed_runs {
        println!("FAILED: {run}");
    }
    let mut ok = failed_runs.is_empty();
    if let Some(baseline) = compare {
        ok &= compare_ledgers(&read_json(baseline)?, &ledger);
    }
    Ok(if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// How one metric moved between two ledgers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Unchanged,
    /// Within the bound, but the spread between blocks is wider than the
    /// bound, so "no regression" is not shown.
    Unresolved,
    Worse,
}

/// Judge `new` against `base`: `worse` is the share of `base` by which
/// `new` is worse (negative when better); `spread` the larger of the two
/// sides' IQR as a share of its value.
pub fn verdict(worse: f64, spread: f64, bound: f64) -> Verdict {
    if worse > bound {
        Verdict::Worse
    } else if spread > bound {
        Verdict::Unresolved
    } else if worse < -bound {
        Verdict::Better
    } else {
        Verdict::Unchanged
    }
}

/// Print one row per workload and end-to-end metric; false when any
/// metric is worse than its bound or a workload's failed share rose.
pub fn compare_ledgers(base: &Value, new: &Value) -> bool {
    let mut ok = true;
    println!(
        "{:<12} {:<26} {:>14} {:>14} {:>9} {:>7}  verdict",
        "workload", "metric", "baseline", "now", "change", "bound"
    );
    for (workload, _) in WORKLOADS {
        let side = |doc: &Value, metric: &str, field: &str| {
            doc.get("e2e")?
                .get(workload)?
                .get(metric)?
                .get(field)?
                .as_f64()
        };
        for metric in END_TO_END {
            let (Some(before), Some(now)) = (
                side(base, metric.name, "value"),
                side(new, metric.name, "value"),
            ) else {
                println!("{workload:<12} {:<26} missing on one side", metric.name);
                ok = false;
                continue;
            };
            let change = (now - before) / before;
            let worse = match metric.better {
                Better::Lower => change,
                Better::Higher => -change,
            };
            let spread = [(base, before), (new, now)]
                .iter()
                .filter_map(|(doc, value)| Some(side(doc, metric.name, "iqr")? / value))
                .fold(0.0, f64::max);
            let verdict = verdict(worse, spread, metric.bound);
            ok &= verdict != Verdict::Worse;
            println!(
                "{workload:<12} {:<26} {before:>14.4} {now:>14.4} {:>+8.2}% {:>6.0}%  {}",
                metric.name,
                change * 100.0,
                metric.bound * 100.0,
                format!("{verdict:?}").to_lowercase()
            );
        }
        let failed_share = |doc: &Value| {
            let checks = doc.get("checks")?.get(workload)?;
            Some(checks.get("failed")?.as_f64()? / checks.get("attempted")?.as_f64()?.max(1.0))
        };
        let (before, now) = (
            failed_share(base).unwrap_or(0.0),
            failed_share(new).unwrap_or(0.0),
        );
        if now > before {
            println!("{workload:<12} failed share rose from {before:.4} to {now:.4}");
            ok = false;
        }
    }
    ok
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ledger(cold_ms: f64, iqr: f64, failed: f64) -> Value {
        let metrics = Value::Object(
            END_TO_END
                .iter()
                .map(|m| {
                    let value = if m.name == "cold_ms" { cold_ms } else { 1.0 };
                    (
                        m.name.to_string(),
                        obj([("value", value.into()), ("iqr", iqr.into())]),
                    )
                })
                .collect(),
        );
        let per_workload = |v: Value| {
            Value::Object(
                WORKLOADS
                    .iter()
                    .map(|(w, _)| (w.to_string(), v.clone()))
                    .collect(),
            )
        };
        obj([
            ("e2e", per_workload(metrics)),
            (
                "checks",
                per_workload(obj([
                    ("attempted", 100.0.into()),
                    ("failed", failed.into()),
                ])),
            ),
        ])
    }

    #[test]
    fn verdict_follows_bound_and_spread() {
        assert_eq!(verdict(0.11, 0.0, 0.10), Verdict::Worse);
        assert_eq!(verdict(0.09, 0.0, 0.10), Verdict::Unchanged);
        assert_eq!(verdict(0.09, 0.2, 0.10), Verdict::Unresolved);
        assert_eq!(verdict(-0.3, 0.0, 0.10), Verdict::Better);
        // Bound 0: any drift is a regression, none is "unchanged".
        assert_eq!(verdict(1e-9, 0.0, 0.0), Verdict::Worse);
        assert_eq!(verdict(0.0, 0.0, 0.0), Verdict::Unchanged);
    }

    #[test]
    fn compare_fails_on_regression_and_on_new_failures() {
        let bound = END_TO_END
            .iter()
            .find(|m| m.name == "cold_ms")
            .expect("cold_ms is an end-to-end metric")
            .bound;
        let (inside, outside) = (100.0 * (1.0 + bound * 0.8), 100.0 * (1.0 + bound * 1.2));
        let base = ledger(100.0, 1.0, 0.0);
        assert!(compare_ledgers(&base, &ledger(inside, 1.0, 0.0)));
        assert!(!compare_ledgers(&base, &ledger(outside, 1.0, 0.0)));
        assert!(!compare_ledgers(&base, &ledger(100.0, 1.0, 1.0)));
        // A wide spread makes the row unresolved, which is not a failure.
        assert!(compare_ledgers(&base, &ledger(inside, 60.0, 0.0)));
    }
}
