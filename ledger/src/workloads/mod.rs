//! The five workloads and what they share: the run context, the tally of
//! checked operations, and the shape of a result.

pub mod cli_restart;
pub mod corpus_cold;
pub mod corpus_edit;
pub mod paper_suite;
pub mod served_mix;

use crate::harness::{median, ms, timed, Pace, Reading, Sample, Series};
use crate::json::{obj, Value};
use crate::layers::{self, Clocks, Metrics, ProbeProgram, ProbeTotals};
use crate::trace::Recorder;
use ompdart_core::ProgramAnalysis;
use std::path::PathBuf;

/// Set-up runs this often per invocation; `setup_s` is the median. One
/// set-up's time varies by a fifth on the baseline machine; the median of
/// five still moved by a tenth from run to run.
const SETUP_REPEATS: usize = 11;

/// Everything a workload is given.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    /// The traced pass: spans on, layer probes run, per-layer metrics out.
    pub trace: bool,
    pub recorder: Recorder,
    /// The reference loop, read beside every timed sample.
    pub pace: Pace,
    /// A directory of this run's own, inside the checkout. No file in it is
    /// unlinked, by the run or after it; when the run ends they are emptied.
    pub scratch: PathBuf,
    /// The release `ompdart` and `ompdartd` binaries under test.
    pub ompdart: PathBuf,
    pub ompdartd: PathBuf,
}

impl Ctx {
    /// Time one operation, with the reference loop's reading beside it.
    pub fn sample<R>(&self, f: impl FnOnce() -> R) -> (R, Sample) {
        let pace_ms = self.pace.now();
        let (result, wall) = timed(f);
        (result, Sample::new(ms(wall), pace_ms))
    }

    pub fn clocks(&self) -> Clocks<'_> {
        Clocks {
            recorder: &self.recorder,
            pace: &self.pace,
        }
    }

    /// Time one set-up: long enough for the machine's speed to change
    /// under it, so the reference loop is read before and after. A set-up
    /// starts processes and writes files, which leave the caches cold for
    /// the loop's next run; the median of a few readings passes over that.
    pub fn sample_setup<R>(&self, f: impl FnOnce() -> R) -> (R, Sample) {
        let mut readings = [0.0; 6];
        let (before, after) = readings.split_at_mut(3);
        before.fill_with(|| self.pace.measure());
        let (result, wall) = timed(f);
        after.fill_with(|| self.pace.measure());
        (result, Sample::new(ms(wall), median(&readings)))
    }
}

impl Ctx {
    /// Set up `SETUP_REPEATS` times, each timed into `out.setup`; returns
    /// what the last one built. `build` is given the repeat's number.
    pub fn set_up<T>(
        &self,
        out: &mut Outcome,
        mut build: impl FnMut(usize) -> Result<T, String>,
    ) -> Result<T, String> {
        let mut built = None;
        for generation in 0..SETUP_REPEATS {
            drop(built.take()); // e.g. stop the previous daemon first
            let (result, sample) = self.sample_setup(|| build(generation));
            out.setup.push(sample);
            built = Some(result?);
        }
        Ok(built.expect("SETUP_REPEATS > 0"))
    }

    /// The traced pass's layer probes over `programs`, into `out.layers`;
    /// a probe that fails counts as a failed operation.
    pub fn probe_layers(&self, programs: &[ProbeProgram], out: &mut Outcome) -> ProbeTotals {
        let mut failures = Vec::new();
        let totals = layers::probe(
            self.clocks(),
            programs,
            &self.scratch,
            &mut out.layers,
            &mut failures,
        );
        for failure in failures {
            out.tally.check(false, || failure);
        }
        totals
    }
}

/// Operations attempted and failed, with the first few reasons.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub reasons: Vec<String>,
}

impl Tally {
    /// Count one checked operation; `reason` is only built on failure.
    pub fn check(&mut self, ok: bool, reason: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(reason());
        }
    }

    /// Count a failure of an operation already counted as attempted.
    pub fn fail(&mut self, reason: String) {
        self.failed += 1;
        if self.reasons.len() < 8 {
            self.reasons.push(reason);
        }
    }
}

/// What a workload hands back: the three latency series every workload
/// has (see README.md for what cold, warm and edit are on each), what it
/// takes to derive the other end-to-end metrics, and its layer metrics.
#[derive(Default)]
pub struct Outcome {
    pub tally: Tally,
    pub cold: Series,
    pub warm: Series,
    pub edit: Series,
    /// Which reading of `cold`, `warm` and `edit` the workload reports.
    pub readings: [Reading; 3],
    /// Per block of the timed part: operations completed, and the time
    /// spent inside them (not in checking their outputs, nor idle between
    /// paced rounds).
    pub busy: Vec<(u64, Sample)>,
    /// One sample (in ms) per complete set-up.
    pub setup: Vec<Sample>,
    pub peak_rss_mb: f64,
    /// Per-layer metrics (traced pass only).
    pub layers: Metrics,
    /// Extra sections for the ledger file.
    pub detail: Vec<(String, Value)>,
}

impl Outcome {
    /// The three latency series by metric name, each with its reading.
    pub fn latencies(&self) -> [(&'static str, &Series, Reading); 3] {
        [
            ("cold_ms", &self.cold, self.readings[0]),
            ("warm_ms", &self.warm, self.readings[1]),
            ("edit_ms", &self.edit, self.readings[2]),
        ]
    }

    /// Count `count` operations completed in block `block` that took
    /// `sample` together.
    pub fn ops(&mut self, block: usize, count: u64, sample: Sample) {
        if self.busy.len() <= block {
            self.busy.resize(block + 1, (0, Sample::default()));
        }
        self.busy[block].0 += count;
        self.busy[block].1 += sample;
    }

    /// Operations completed in the timed part.
    pub fn ops_total(&self) -> u64 {
        self.busy.iter().map(|(count, _)| count).sum()
    }

    pub fn setup_s(&self, reading: Reading) -> f64 {
        median(&self.setups_s(reading))
    }

    /// Every set-up's time in seconds.
    pub fn setups_s(&self, reading: Reading) -> Vec<f64> {
        self.setup.iter().map(|s| reading.of(*s) / 1e3).collect()
    }

    /// Throughput, block by block; the median over blocks, like the
    /// latencies, so that one stalled block does not move it.
    pub fn ops_per_s(&self, reading: Reading) -> f64 {
        median(
            &self
                .busy
                .iter()
                .map(|(count, busy)| *count as f64 / (reading.of(*busy) / 1e3))
                .collect::<Vec<_>>(),
        )
    }

    /// One series as a ledger entry: value, spread across blocks, count,
    /// and the tail at the highest percentile the count supports.
    pub fn series_json(series: &Series, reading: Reading) -> Value {
        let summary = series.summary(reading);
        let mut fields = vec![
            ("value".to_string(), summary.value.into()),
            ("iqr".to_string(), summary.iqr.into()),
            ("samples".to_string(), summary.samples.into()),
            // Both readings, whichever one `value` is.
            (
                "as_timed".to_string(),
                series.summary(Reading::Raw).value.into(),
            ),
            (
                "half_way".to_string(),
                series.summary(Reading::Half).value.into(),
            ),
            (
                "at_reference_speed".to_string(),
                series.summary(Reading::Scaled).value.into(),
            ),
            (
                "block_medians".to_string(),
                Value::Array(
                    series
                        .block_medians(reading)
                        .into_iter()
                        .map(Value::from)
                        .collect(),
                ),
            ),
        ];
        let all = series.all(reading);
        for (name, pct) in [("p10", 10.0), ("p25", 25.0), ("p50", 50.0)] {
            fields.push((
                name.to_string(),
                crate::harness::percentile(&all, pct).into(),
            ));
        }
        if let Some((pct, value)) = series.tail(reading) {
            fields.push(("tail_percentile".to_string(), pct.into()));
            fields.push(("tail".to_string(), value.into()));
        }
        Value::Object(fields)
    }
}

/// In the traced pass the recorder is on in every other round, so one run
/// yields the primary operation's latency with and without spans.
#[derive(Default)]
pub struct OverheadProbe {
    rounds: usize,
    /// The latest round with spans on, until the next one without pairs
    /// up with it.
    traced: Option<f64>,
    /// Latency with spans over latency without, of neighbouring rounds:
    /// the machine's speed drifts, two rounds in a row see the same one.
    ratios: Vec<f64>,
    untraced: Vec<f64>,
}

impl OverheadProbe {
    /// Call at the start of each round.
    pub fn enter_round(&mut self, ctx: &Ctx) {
        if ctx.trace {
            ctx.recorder.set_enabled(self.rounds.is_multiple_of(2));
        }
        self.rounds += 1;
    }

    /// Record the primary operation's latency in this round.
    pub fn sample(&mut self, ctx: &Ctx, sample: Sample) {
        if ctx.recorder.enabled() {
            self.traced = Some(sample.scaled_ms);
        } else {
            if let Some(traced) = self.traced.take() {
                self.ratios.push(traced / sample.scaled_ms);
            }
            self.untraced.push(sample.scaled_ms);
        }
    }

    /// Extra latency with spans on, in percent of the latency without.
    pub fn overhead_pct(&self) -> f64 {
        if self.ratios.is_empty() {
            return 0.0;
        }
        (median(&self.ratios) - 1.0) * 100.0
    }

    /// Median latency of the rounds that ran with spans off.
    pub fn untraced_ms(&self) -> f64 {
        median(&self.untraced)
    }
}

/// The rewrite expected of unit `index`: `expected[index]`, except for
/// unit `replaced.0`, which must equal `replaced.1`.
pub fn expected_at<'a>(
    expected: &'a [String],
    replaced: Option<(usize, &'a str)>,
    index: usize,
) -> &'a str {
    match replaced {
        Some((at, text)) if at == index => text,
        _ => &expected[index],
    }
}

/// True when every unit's rewrite is the expected one (see [`expected_at`]).
pub fn rewrites_match(
    analysis: &ProgramAnalysis,
    expected: &[String],
    replaced: Option<(usize, &str)>,
) -> bool {
    analysis.units.len() == expected.len()
        && analysis
            .units
            .iter()
            .enumerate()
            .all(|(i, unit)| unit.rewrite.source == expected_at(expected, replaced, i))
}

pub fn rewrites_of(analysis: &ProgramAnalysis) -> Vec<String> {
    analysis
        .units
        .iter()
        .map(|u| u.rewrite.source.clone())
        .collect()
}

/// `session.layer_sum_ms` and `session.unattributed_ms`: the probes'
/// layer times, each layer run on one thread, against the untraced
/// end-to-end time of the cold operation. The remainder is what the
/// session adds around the layers (hashing, cache bookkeeping, the pool)
/// less what its fan-out over the pool saves; it can be negative.
pub fn record_attribution(layers: &mut Metrics, layer_sum_ms: f64, end_to_end_ms: f64) {
    layers.insert("session.layer_sum_ms", layer_sum_ms);
    layers.insert("session.unattributed_ms", end_to_end_ms - layer_sum_ms);
}

/// A `name → {value, iqr, samples}` object of extra series.
pub fn series_section(series: &[(&str, &Series)], reading: Reading) -> Value {
    Value::Object(
        series
            .iter()
            .map(|(name, s)| (name.to_string(), Outcome::series_json(s, reading)))
            .collect(),
    )
}

pub fn reasons_json(tally: &Tally) -> Value {
    obj([
        ("attempted", tally.attempted.into()),
        ("failed", tally.failed.into()),
        (
            "reasons",
            Value::Array(tally.reasons.iter().map(|r| r.as_str().into()).collect()),
        ),
    ])
}
