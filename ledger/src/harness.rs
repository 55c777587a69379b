//! Measurement helpers every workload reports through: blocks of samples,
//! the median-of-block-medians, its spread, the percentile rule, and the
//! machine facts stamped into every ledger.

use crate::json::{obj, Value};
use std::cell::Cell;
use std::collections::HashMap;
use std::time::{Duration, Instant};

/// A workload's timed run is cut into this many blocks.
pub const BLOCKS: usize = 5;

/// Median of `values` (mean of the two middle elements for even counts).
/// `NaN` for an empty slice, so a series that never ran cannot pass for a
/// measurement.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// First and third quartile by the "exclusive" method, which is what
/// Python's `statistics.quantiles(values, n=4)` computes and what the
/// acceptance check of this benchmark uses.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let n = values.len();
    if n < 2 {
        let only = values.first().copied().unwrap_or(f64::NAN);
        return (only, only);
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let at = |q: usize| {
        // Position q*(n+1)/4 in 1-based ranks; the pair of neighbours is
        // clamped to the data and extrapolates beyond it, as Python does.
        let rank = (q * (n + 1)) as f64 / 4.0;
        let below = (rank.floor() as usize).clamp(1, n - 1);
        let frac = rank - below as f64;
        sorted[below - 1] + frac * (sorted[below] - sorted[below - 1])
    };
    (at(1), at(3))
}

/// The percentiles a tail may be reported at, lowest first, in tenths of a
/// percent so the rule below is exact integer arithmetic.
const PERMILLE_LADDER: [usize; 6] = [500, 750, 900, 950, 990, 999];

/// The highest ladder percentile that still has at least ten samples
/// beyond it; `None` below twenty samples, where not even the median has.
pub fn highest_percentile(samples: usize) -> Option<f64> {
    PERMILLE_LADDER
        .iter()
        .rfind(|&&permille| samples * (1000 - permille) >= 10 * 1000)
        .map(|&permille| permille as f64 / 10.0)
}

/// The `pct`-th percentile by nearest rank (`NaN` for no samples).
pub fn percentile(values: &[f64], pct: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (pct / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The reference loop: a fixed piece of allocation- and hash-heavy work,
/// like the analysis itself, that the benchmark times beside its samples.
///
/// The baseline machine is a small VM on a shared host whose speed for
/// this kind of code swings by 10-20 % from one second to the next. The
/// loop and the tool's analysis work slow down and speed up together (their
/// ratio holds to about 2 % while either alone swings 15 %), so a latency
/// is reported *at reference speed*: each sample is multiplied by
/// `REFERENCE_MS / <the loop's time beside it>`. README.md, "How steady it
/// is", has the measurements behind this.
pub struct Pace {
    /// Time of the latest run of the loop in ms, and when it ended.
    latest: Cell<(f64, Instant)>,
    runs: Cell<u64>,
    spent: Cell<Duration>,
}

/// The speed all scaled latencies are reported at: the one at which the
/// reference loop takes this long, about its median on the baseline machine.
pub const REFERENCE_MS: f64 = 0.5;

/// A reading of the loop older than this is taken again before it is used.
const PACE_MAX_AGE: Duration = Duration::from_millis(8);

/// The loop itself. It must never change: every scaled number in every
/// ledger is relative to it.
fn reference_loop() -> u64 {
    let mut map: HashMap<String, Vec<u32>> = HashMap::new();
    let mut x = 0x9e37_79b9_7f4a_7c15_u64;
    for i in 0..4000u32 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        map.entry(format!("k{}", x % 997))
            .or_default()
            .push((x >> 40) as u32 ^ i);
    }
    let mut sum = 0u64;
    for values in map.values_mut() {
        values.sort_unstable();
        sum += u64::from(values[0]) + values.len() as u64;
    }
    sum
}

impl Pace {
    pub fn new() -> Pace {
        let pace = Pace {
            latest: Cell::new((REFERENCE_MS, Instant::now())),
            runs: Cell::new(0),
            spent: Cell::new(Duration::ZERO),
        };
        // The first runs grow the heap and warm the caches.
        for _ in 0..8 {
            pace.measure();
        }
        pace
    }

    /// Run the loop now; returns its time in ms.
    pub fn measure(&self) -> f64 {
        let start = Instant::now();
        std::hint::black_box(reference_loop());
        let end = Instant::now();
        let wall = end - start;
        self.latest.set((ms(wall), end));
        self.runs.set(self.runs.get() + 1);
        self.spent.set(self.spent.get() + wall);
        ms(wall)
    }

    /// The loop's time as of now: the latest reading, taken again if it
    /// is older than a few milliseconds. Call right before a timed sample.
    pub fn now(&self) -> f64 {
        let (latest, at) = self.latest.get();
        if at.elapsed() > PACE_MAX_AGE {
            self.measure()
        } else {
            latest
        }
    }

    /// How often the loop ran, and the time that took.
    pub fn cost(&self) -> (u64, Duration) {
        (self.runs.get(), self.spent.get())
    }
}

impl Default for Pace {
    fn default() -> Pace {
        Pace::new()
    }
}

/// One timed sample in ms: as timed, and at reference speed.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Sample {
    pub raw_ms: f64,
    pub scaled_ms: f64,
}

impl Sample {
    /// A sample of `raw_ms` taken while the reference loop took `pace_ms`.
    pub fn new(raw_ms: f64, pace_ms: f64) -> Sample {
        Sample {
            raw_ms,
            scaled_ms: raw_ms * REFERENCE_MS / pace_ms,
        }
    }
}

/// Samples add up to the sample of the operations run one after another.
impl std::ops::AddAssign for Sample {
    fn add_assign(&mut self, other: Sample) {
        self.raw_ms += other.raw_ms;
        self.scaled_ms += other.scaled_ms;
    }
}

/// One metric's samples, kept apart by block.
#[derive(Clone, Debug, Default)]
pub struct Series {
    blocks: Vec<Vec<Sample>>,
}

/// What a [`Series`] reports: the median over blocks of the block median,
/// the interquartile range of the block medians, and the sample count.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    pub value: f64,
    pub iqr: f64,
    pub samples: usize,
}

/// Which reading of a series' samples: as timed, at reference speed, or
/// half-way between (the geometric mean of the two), for operations only
/// about half of whose time follows the reference loop.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Reading {
    Raw,
    Half,
    #[default]
    Scaled,
}

impl Reading {
    pub fn of(self, sample: Sample) -> f64 {
        match self {
            Reading::Raw => sample.raw_ms,
            Reading::Half => (sample.raw_ms * sample.scaled_ms).sqrt(),
            Reading::Scaled => sample.scaled_ms,
        }
    }
}

impl Series {
    /// Add a sample taken in block `block`.
    pub fn push(&mut self, block: usize, sample: Sample) {
        if self.blocks.len() <= block {
            self.blocks.resize_with(block + 1, Vec::new);
        }
        self.blocks[block].push(sample);
    }

    pub fn all(&self, reading: Reading) -> Vec<f64> {
        self.blocks
            .iter()
            .flatten()
            .map(|s| reading.of(*s))
            .collect()
    }

    /// The median of each block that has samples.
    pub fn block_medians(&self, reading: Reading) -> Vec<f64> {
        self.blocks
            .iter()
            .filter(|b| !b.is_empty())
            .map(|b| median(&b.iter().map(|s| reading.of(*s)).collect::<Vec<_>>()))
            .collect()
    }

    pub fn summary(&self, reading: Reading) -> Summary {
        let block_medians = self.block_medians(reading);
        let (q1, q3) = quartiles(&block_medians);
        Summary {
            value: median(&block_medians),
            iqr: q3 - q1,
            samples: self.blocks.iter().map(Vec::len).sum(),
        }
    }

    /// The tail of all samples at the highest percentile the count allows.
    pub fn tail(&self, reading: Reading) -> Option<(f64, f64)> {
        let all = self.all(reading);
        highest_percentile(all.len()).map(|pct| (pct, percentile(&all, pct)))
    }
}

/// Runs the timed part of a workload: `BLOCKS` blocks that share
/// `seconds` equally. `body` is called until its block's time is up and
/// at least `min_rounds` times per block, so a slow machine still yields
/// a sample in every block.
pub fn run_blocks(seconds: f64, min_rounds: usize, mut body: impl FnMut(usize)) {
    let per_block = Duration::from_secs_f64(seconds / BLOCKS as f64);
    for block in 0..BLOCKS {
        let block_start = Instant::now();
        let mut rounds = 0usize;
        while rounds < min_rounds || block_start.elapsed() < per_block {
            body(block);
            rounds += 1;
        }
    }
}

/// Like [`run_blocks`], for a workload whose user does not run the tool
/// back to back: every block holds `rounds_per_block` rounds, each started
/// on its own evenly spaced slot of the run's `seconds`. A round that
/// overruns its slot delays the next ones; nothing is skipped.
pub fn run_paced(seconds: f64, rounds_per_block: usize, mut body: impl FnMut(usize)) {
    let start = Instant::now();
    let slot = Duration::from_secs_f64(seconds / (BLOCKS * rounds_per_block) as f64);
    for round in 0..BLOCKS * rounds_per_block {
        if let Some(wait) = (slot * round as u32).checked_sub(start.elapsed()) {
            std::thread::sleep(wait);
        }
        body(round / rounds_per_block);
    }
}

pub fn ms(duration: Duration) -> f64 {
    duration.as_secs_f64() * 1e3
}

/// Time one call.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, Duration) {
    let start = Instant::now();
    let result = f();
    (result, start.elapsed())
}

/// One field of `/proc/<pid>/status` in kB (`VmHWM`, `VmRSS`); `None`
/// when the process is gone or the platform has no procfs.
pub fn proc_status_kb(pid: u32, field: &str) -> Option<u64> {
    let text = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    text.lines()
        .find_map(|line| line.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|rest| rest.split_whitespace().next()?.parse().ok())
}

/// Peak resident set of this process in MB.
pub fn own_peak_rss_mb() -> f64 {
    proc_status_kb(std::process::id(), "VmHWM").unwrap_or(0) as f64 / 1024.0
}

/// Give the heap's free memory back to the kernel, so that what stays
/// resident is what is in use. A no-op where the C library has no
/// `malloc_trim`.
fn trim_heap() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> i32;
        }
        // SAFETY: `malloc_trim` takes no pointer and may be called at any
        // time from any thread; it only returns free heap pages.
        unsafe {
            malloc_trim(0);
        }
    }
}

/// Peak resident set of this process while `op` runs, in MB.
///
/// The peak of the whole process only ever grows: with the number of
/// rounds a run gets through, and with how the work happened to fall on
/// the pool's threads, each of which keeps what its arena once held. So
/// the heap is trimmed and the kernel's record of the peak is reset
/// (`/proc/self/clear_refs`, Linux 4.0 on) right before `op`. Where the
/// reset fails the result is the peak of the process so far.
fn peak_rss_mb_during(op: impl FnOnce()) -> f64 {
    trim_heap();
    let _ = std::fs::write("/proc/self/clear_refs", "5");
    op();
    own_peak_rss_mb()
}

/// Memory is measured over this many rounds; the median is reported.
pub const MEMORY_ROUNDS: usize = 5;

/// Median over `MEMORY_ROUNDS` calls of `round` of this process's peak
/// resident set during the call, in MB.
pub fn median_peak_rss_mb(mut round: impl FnMut()) -> f64 {
    let peaks: Vec<f64> = (0..MEMORY_ROUNDS)
        .map(|_| peak_rss_mb_during(&mut round))
        .collect();
    median(&peaks)
}

fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map(|text| text.trim().to_string())
        .filter(|text| !text.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Facts about the machine and build that a reader needs beside any
/// number in the ledger.
pub fn machine_facts(seed: u64, seconds: f64) -> Value {
    obj([
        ("seed", seed.into()),
        ("seconds", seconds.into()),
        (
            "available_parallelism",
            ompdart_core::pool::available_width().into(),
        ),
        (
            "pool_workers_effective",
            ompdart_core::pool::effective_width(
                ompdart_core::OmpDartOptions::default().effective_link_threads(),
            )
            .into(),
        ),
        ("rustc", command_line("rustc", &["--version"]).into()),
        (
            "git_commit",
            command_line("git", &["rev-parse", "HEAD"]).into(),
        ),
        ("os", std::env::consts::OS.into()),
        ("arch", std::env::consts::ARCH.into()),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_rule_needs_ten_samples_beyond() {
        assert_eq!(highest_percentile(0), None);
        assert_eq!(highest_percentile(19), None);
        assert_eq!(highest_percentile(20), Some(50.0));
        assert_eq!(highest_percentile(39), Some(50.0));
        assert_eq!(highest_percentile(40), Some(75.0));
        assert_eq!(highest_percentile(100), Some(90.0));
        assert_eq!(highest_percentile(199), Some(90.0));
        assert_eq!(highest_percentile(200), Some(95.0));
        assert_eq!(highest_percentile(1000), Some(99.0));
        assert_eq!(highest_percentile(9_999), Some(99.0));
        assert_eq!(highest_percentile(10_000), Some(99.9));
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let values: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&values, 50.0), 50.0);
        assert_eq!(percentile(&values, 95.0), 95.0);
        assert_eq!(percentile(&values, 99.9), 100.0);
        assert_eq!(percentile(&[7.0], 50.0), 7.0);
    }

    #[test]
    fn median_of_block_medians_ignores_one_bad_block() {
        let mut series = Series::default();
        let blocks = [
            vec![1.0, 2.0, 3.0],
            vec![2.0, 2.0, 2.0],
            vec![100.0, 200.0, 300.0], // a block hit by a noisy neighbour
            vec![1.0, 3.0],
            vec![2.0],
        ];
        for (block, samples) in blocks.iter().enumerate() {
            for &sample in samples {
                // The reference loop at twice its reference time: the
                // machine ran at half speed.
                series.push(block, Sample::new(sample, 2.0 * REFERENCE_MS));
            }
        }
        let summary = series.summary(Reading::Raw);
        assert_eq!(summary.value, 2.0);
        assert_eq!(summary.samples, 12);
        assert_eq!(series.summary(Reading::Scaled).value, 1.0);
        // The median of all twelve samples pooled is the same here; the
        // mean (51.5) is what the bad block would have moved.
        assert_eq!(median(&series.all(Reading::Raw)), 2.0);
    }

    #[test]
    fn pace_is_read_again_once_stale() {
        let pace = Pace::new();
        let (runs, _) = pace.cost();
        pace.now();
        assert_eq!(pace.cost().0, runs, "a fresh reading is reused");
        std::thread::sleep(PACE_MAX_AGE * 2);
        assert!(pace.now() > 0.0);
        assert_eq!(pace.cost().0, runs + 1);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let values: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&values);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        let (q1, q3) = quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]);
        assert!((q1 - 1.5).abs() < 1e-12 && (q3 - 4.5).abs() < 1e-12);
    }

    #[test]
    fn blocks_always_get_their_minimum_rounds() {
        let mut per_block = [0usize; BLOCKS];
        run_blocks(0.0, 2, |block| per_block[block] += 1);
        assert_eq!(per_block, [2; BLOCKS]);
    }
}
