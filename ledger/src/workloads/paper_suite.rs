//! `paper_suite`: the nine paper ports plus the linked `lulesh_mf`, each
//! in a fresh session, in both planner modes (structured and
//! `--lifetimes`).
//!
//! One round analyses all ten ports in both modes: the first analysis in
//! a new session (cold), the same inputs again (warm), and a one-function
//! edit (edit). Each sample is the sum over the twenty port × mode pairs.
//! The units are small (1-4 KB) and kernel-dense, so frontend, dataflow
//! planning and plan JSON dominate tool time while link, store and wire
//! are idle. It is the only workload whose inputs have an expert mapping,
//! so the mapping-quality metrics and the simulator's own cost show here.

use super::{Ctx, Outcome, OverheadProbe};
use crate::harness::{median_peak_rss_mb, ms, run_blocks, Sample};
use crate::inputs::Units;
use crate::layers::{Metrics, ProbeProgram};
use crate::quality::{analyze_units, fresh_tool, ports, PortAnalysis, Quality};
use ompdart_suite::one_function_edit;

/// One port in one planner mode, with its reference outputs.
struct Case {
    label: String,
    lifetimes: bool,
    units: Units,
    edited: Units,
    /// Rewrites and plan JSON of a cold analysis of `units` and of `edited`.
    reference: PortAnalysis,
    reference_edited: PortAnalysis,
}

fn cases() -> Result<Vec<Case>, String> {
    let mut cases = Vec::new();
    for port in ports() {
        // The edit goes into the first function of the port's first unit.
        let (name, source) = &port.units[0];
        let (edited_source, _) = one_function_edit(name, source)
            .ok_or_else(|| format!("{}: no function to edit", port.name))?;
        let mut edited = port.units.clone();
        edited[0].1 = edited_source;
        for lifetimes in [false, true] {
            let cold = |units: &Units| {
                analyze_units(&fresh_tool(lifetimes), units)
                    .map_err(|e| format!("{}: reference analysis failed: {e}", port.name))
            };
            cases.push(Case {
                label: format!(
                    "{}{}",
                    port.name,
                    if lifetimes { " --lifetimes" } else { "" }
                ),
                lifetimes,
                reference: cold(&port.units)?,
                reference_edited: cold(&edited)?,
                units: port.units.clone(),
                edited: edited.clone(),
            });
        }
    }
    Ok(cases)
}

/// All cases once; returns the summed cold, warm and edit times.
fn round(cases: &[Case], out: &mut Outcome, ctx: &Ctx) -> [Sample; 3] {
    let recorder = &ctx.recorder;
    let mut sums = [Sample::default(); 3];
    for case in cases {
        recorder.next_op();
        let tool = fresh_tool(case.lifetimes);
        let steps = [
            ("op.cold", &case.units, &case.reference),
            ("op.warm", &case.units, &case.reference),
            ("op.edit", &case.edited, &case.reference_edited),
        ];
        for (sum, (span, units, reference)) in sums.iter_mut().zip(steps) {
            let (analysis, sample) =
                ctx.sample(|| recorder.span(span, || analyze_units(&tool, units)));
            *sum += sample;
            out.tally
                .check(analysis.is_ok_and(|a| a == *reference), || {
                    format!(
                        "{}: {span} output differs from the cold reference",
                        case.label
                    )
                });
        }
    }
    sums
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let cases = ctx.set_up(&mut out, |_| {
        let cases = cases()?;
        round(&cases, &mut Outcome::default(), ctx); // warm-up
        Ok(cases)
    })?;

    let mut overhead = OverheadProbe::default();
    run_blocks(ctx.seconds, 1, |block| {
        overhead.enter_round(ctx);
        let [cold, warm, edit] = round(&cases, &mut out, ctx);
        out.cold.push(block, cold);
        out.warm.push(block, warm);
        out.edit.push(block, edit);
        overhead.sample(ctx, cold);
        for sample in [cold, warm, edit] {
            out.ops(block, cases.len() as u64, sample);
        }
    });
    // Memory, apart from time: a few more rounds, each from a trimmed heap.
    out.peak_rss_mb = median_peak_rss_mb(|| {
        round(&cases, &mut Outcome::default(), ctx);
    });

    if ctx.trace {
        ctx.recorder.set_enabled(true);
        // Planner modes share every layer but planning; probe the
        // structured mode's inputs once.
        let programs: Vec<ProbeProgram> = cases
            .iter()
            .filter(|case| !case.lifetimes)
            .map(|case| ProbeProgram {
                units: case.units.clone(),
                edited: case.edited.clone(),
            })
            .collect();
        let totals = ctx.probe_layers(&programs, &mut out);
        // A cold sample covers both planner modes, the probe one.
        super::record_attribution(
            &mut out.layers,
            2.0 * (totals.stages_ms + totals.planjson_encode_ms + totals.link_cold_ms),
            overhead.untraced_ms(),
        );
        out.layers
            .insert("trace.overhead_pct", overhead.overhead_pct());
    }
    Ok(out)
}

/// The simulator's and the verifier's own cost and output, from the
/// quality pass. These are `paper_suite`'s layers; the other workloads
/// run the pass as an output check only and report the layers as idle.
pub fn record_quality_layers(quality: &Quality, to_reference_speed: f64, layers: &mut Metrics) {
    let ports = quality.rows.len().max(1) as f64;
    layers.insert(
        "sim.ms_per_port",
        ms(quality.sim_wall) * to_reference_speed / ports,
    );
    let sum = |f: fn(&crate::quality::PortRow) -> u64| quality.rows.iter().map(f).sum::<u64>();
    layers.insert(
        "sim.htod_bytes",
        sum(|r| r.mapped.profile.htod_bytes) as f64,
    );
    layers.insert(
        "sim.dtoh_bytes",
        sum(|r| r.mapped.profile.dtoh_bytes) as f64,
    );
    layers.insert("sim.calls", sum(|r| r.mapped.profile.total_calls()) as f64);
    layers.insert(
        "verify.ns_per_unit",
        quality.verify_wall.as_nanos() as f64 * to_reference_speed
            / quality.verified_units.max(1) as f64,
    );
    layers.insert("verify.stale_reads", quality.stale_reads as f64);
}
