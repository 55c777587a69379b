//! `cli_restart`: the one-shot user's real wall time. A 400-stage corpus
//! is written to disk, ten stages to a file, and the release `ompdart
//! analyze … --out-dir … --cache-dir …` binary runs as a child process.
//!
//! One round runs the tool with an empty cache directory (cold: every
//! plan is computed and written), twice more with nothing changed (warm:
//! every plan is read back), and once after a mid-chain edit of one file
//! (edit). Process start, file I/O and `core::store` are most of every
//! run, so the store's write and read sides are measured side by side. The
//! traced pass adds runs without a cache directory and `--help` runs to
//! split the wall time further.
//!
//! No file is unlinked: every round gets a new cache directory, and the
//! old ones stay. The baseline machine's disk is ext4 without a journal,
//! where a new inode is not taken from the ones unlinked in the last
//! minutes and the search skips them one by one: after a few thousand
//! unlinks, creating a file in the same block group takes 0.5 ms instead
//! of 0.02 ms, for up to five minutes, and every run of the tool with it.

use super::corpus_cold::Corpus;
use super::{expected_at, Ctx, Outcome, OverheadProbe};
use crate::harness::{median, proc_status_kb, run_paced, Sample, MEMORY_ROUNDS};
use crate::inputs;
use ompdart_core::Ompdart;
use std::cell::Cell;
use std::path::PathBuf;
use std::process::{Command, ExitStatus, Stdio};

/// The program on disk: a corpus of this many chain stages, ten to a
/// file. Every round leaves its cache directory behind (see above), some
/// 220 files, so the program is smaller than the in-process workloads'.
const CLI_STAGES: usize = 400;
const STAGES_PER_FILE: usize = 10;

/// Rounds in a block, evenly spaced over the block's time: a one-shot user
/// does not run the tool back to back, and what a run leaves on disk
/// stays near 40 MB whatever the machine's speed.
const ROUNDS_PER_BLOCK: usize = 6;

/// The corpus on disk and everything a run needs to be checked.
struct Fixture {
    corpus: Corpus,
    /// The source files, in link order, as passed on the command line.
    paths: Vec<PathBuf>,
    /// Parent of this fixture's cache and output directories.
    dir: PathBuf,
    /// Number of the cache directory in use.
    cache_dir: Cell<usize>,
}

impl Fixture {
    fn build(ctx: &Ctx, generation: usize) -> Result<Fixture, String> {
        let dir = ctx.scratch.join(format!("cli-{generation}"));
        let src_dir = dir.join("src");
        std::fs::create_dir_all(&src_dir).map_err(|e| format!("cannot create sources: {e}"))?;
        let corpus = Corpus::generate_packed(CLI_STAGES, ctx.seed, STAGES_PER_FILE)?;
        let mut paths = Vec::with_capacity(corpus.base.len());
        for (name, source) in &corpus.base {
            let path = src_dir.join(name);
            std::fs::write(&path, source)
                .map_err(|e| format!("cannot write `{}`: {e}", path.display()))?;
            paths.push(path);
        }
        let fixture = Fixture {
            corpus,
            paths,
            dir,
            cache_dir: Cell::new(0),
        };
        // Warm-up and a first check of the whole path.
        let mut tally = Outcome::default();
        fixture.new_cache();
        fixture.run(ctx, "cli.populate", true, None, None, &mut tally);
        match tally.tally.reasons.first() {
            Some(reason) => Err(format!("set-up run failed: {reason}")),
            None => Ok(fixture),
        }
    }

    /// Switch to a cache directory no run has used.
    fn new_cache(&self) {
        self.cache_dir.set(self.cache_dir.get() + 1);
    }

    /// One round: the tool with an empty cache directory, twice more with
    /// nothing changed, and once after a mid-chain edit. Returns the four
    /// wall times in that order.
    fn round(
        &self,
        ctx: &Ctx,
        nonce: u64,
        mut peak_kb: Option<&mut u64>,
        out: &mut Outcome,
    ) -> [Sample; 4] {
        self.new_cache();
        let steps = [
            ("cli.populate", None),
            ("cli.store_warm", None),
            ("cli.store_warm", None),
            ("cli.edit", Some(nonce)),
        ];
        steps.map(|(span, edit)| self.run(ctx, span, true, edit, peak_kb.as_deref_mut(), out))
    }

    /// Run the tool over all files; `edit` names the nonce of a mid-chain
    /// edit to make on disk for this run only. With `peak_kb` the run is
    /// watched for its peak resident set, which is folded into it (such a
    /// run's time means nothing). Returns the wall time.
    fn run(
        &self,
        ctx: &Ctx,
        span: &'static str,
        use_cache: bool,
        edit: Option<u64>,
        peak_kb: Option<&mut u64>,
        out: &mut Outcome,
    ) -> Sample {
        let mid = self.corpus.unit_of(self.corpus.sites.mid);
        if let Some(nonce) = edit {
            let edited = self.corpus.edited(self.corpus.sites.mid, nonce);
            if let Err(e) = std::fs::write(&self.paths[mid], &edited[mid].1) {
                out.tally
                    .check(false, || format!("cannot edit the source file: {e}"));
            }
        }
        // One output directory, as a user's would be: every run overwrites
        // the last one's files. They are emptied first, so that a run which
        // wrote nothing cannot pass for one that wrote the right thing.
        let out_dir = self.dir.join("mapped");
        for path in &self.paths {
            if let Some(name) = mapped_name(path) {
                let _ = std::fs::write(out_dir.join(name), "");
            }
        }

        let mut command = Command::new(&ctx.ompdart);
        command.arg("analyze").args(&self.paths);
        command.arg("--out-dir").arg(&out_dir);
        if use_cache {
            let cache = self.dir.join(format!("cache-{}", self.cache_dir.get()));
            command.arg("--cache-dir").arg(cache);
        }
        command
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null());
        ctx.recorder.next_op();
        let (status, wall) = ctx.sample(|| {
            ctx.recorder.span(span, || match peak_kb {
                Some(peak_kb) => run_watching_memory(&mut command, peak_kb),
                None => command.status(),
            })
        });

        let problem = match status {
            Err(e) => Some(format!("cannot run `{}`: {e}", ctx.ompdart.display())),
            Ok(status) if !status.success() => Some(format!("{span}: exit {status}")),
            Ok(_) => self.first_difference(&out_dir, edit),
        };
        out.tally
            .check(problem.is_none(), || problem.unwrap_or_default());

        if edit.is_some() {
            if let Err(e) = std::fs::write(&self.paths[mid], &self.corpus.base[mid].1) {
                out.tally
                    .check(false, || format!("cannot restore the source file: {e}"));
            }
        }
        wall
    }

    /// Compare every `<stem>.mapped.c` with the in-process reference.
    fn first_difference(&self, out_dir: &std::path::Path, edit: Option<u64>) -> Option<String> {
        let mid = self.corpus.unit_of(self.corpus.sites.mid);
        let reference = match edit {
            Some(_) => &self.corpus.reference_mid,
            None => &self.corpus.reference,
        };
        let expected_mid = edit.map(|nonce| inputs::expected_stage_rewrite(&reference[mid], nonce));
        for (i, path) in self.paths.iter().enumerate() {
            let mapped = out_dir.join(mapped_name(path)?);
            let want = expected_at(
                reference,
                expected_mid.as_deref().map(|text| (mid, text)),
                i,
            );
            match std::fs::read_to_string(&mapped) {
                Ok(got) if got == want => {}
                Ok(_) => return Some(format!("`{}` differs from the reference", mapped.display())),
                Err(e) => return Some(format!("cannot read `{}`: {e}", mapped.display())),
            }
        }
        None
    }
}

/// `<stem>.mapped.c`, the name the tool gives the output for `source`.
fn mapped_name(source: &std::path::Path) -> Option<String> {
    Some(format!(
        "{}.mapped.c",
        source.file_stem()?.to_string_lossy()
    ))
}

/// Run `command` to its end, reading its peak resident set (`VmHWM`)
/// from procfs for as long as it lives and folding the readings into
/// `peak_kb`. `wait4`'s `ru_maxrss` would not do: a child's peak starts at
/// the resident set of the process that spawned it, and this process is
/// larger than the tool.
fn run_watching_memory(command: &mut Command, peak_kb: &mut u64) -> std::io::Result<ExitStatus> {
    // `spawn` returns once the child has replaced its image, so every
    // reading is of the tool's own address space.
    let mut child = command.spawn()?;
    loop {
        if let Some(kb) = proc_status_kb(child.id(), "VmHWM") {
            *peak_kb = (*peak_kb).max(kb);
        }
        if let Some(status) = child.try_wait()? {
            return Ok(status);
        }
    }
}

fn help_run(ctx: &Ctx) -> Sample {
    let mut command = Command::new(&ctx.ompdart);
    command
        .arg("--help")
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::null());
    ctx.sample(|| ctx.recorder.span("cli.startup", || command.status()))
        .1
}

fn median_scaled(samples: &[Sample]) -> f64 {
    median(&samples.iter().map(|s| s.scaled_ms).collect::<Vec<_>>())
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let fixture = ctx.set_up(&mut out, |generation| Fixture::build(ctx, generation))?;

    let mut overhead = OverheadProbe::default();
    let mut nonce = 0u64;
    run_paced(ctx.seconds, ROUNDS_PER_BLOCK, |block| {
        overhead.enter_round(ctx);
        nonce += 1;
        let [cold, warm, warm_again, edit] = fixture.round(ctx, nonce, None, &mut out);
        out.cold.push(block, cold);
        out.warm.push(block, warm);
        out.warm.push(block, warm_again);
        out.edit.push(block, edit);
        let mut round = Sample::default();
        for sample in [cold, warm, warm_again, edit] {
            out.ops(block, 1, sample);
            round += sample;
        }
        overhead.sample(ctx, round);
    });
    // Memory, apart from time: a few more rounds, each run of the tool
    // watched for its peak.
    let peaks: Vec<f64> = (0..MEMORY_ROUNDS)
        .map(|_| {
            nonce += 1;
            let mut peak_kb = 0;
            fixture.round(ctx, nonce, Some(&mut peak_kb), &mut Outcome::default());
            peak_kb as f64 / 1024.0
        })
        .collect();
    out.peak_rss_mb = median(&peaks);

    if ctx.trace {
        ctx.recorder.set_enabled(true);
        let nocache: Vec<Sample> = (0..5)
            .map(|_| fixture.run(ctx, "cli.nocache", false, None, None, &mut out))
            .collect();
        let startup: Vec<Sample> = (0..5).map(|_| help_run(ctx)).collect();
        let in_process: Vec<Sample> = (0..5)
            .map(|_| {
                let tool = Ompdart::builder().build();
                ctx.sample(|| tool.analyze_program(&fixture.corpus.base)).1
            })
            .collect();
        let (nocache, startup, in_process) = (
            median_scaled(&nocache),
            median_scaled(&startup),
            median_scaled(&in_process),
        );
        out.layers.insert("cli.nocache_ms", nocache);
        out.layers.insert("cli.startup_ms", startup);
        out.layers
            .insert("cli.io_ms", nocache - startup - in_process);

        let totals = ctx.probe_layers(&[fixture.corpus.probe_program()], &mut out);
        super::record_attribution(
            &mut out.layers,
            totals.stages_ms + totals.link_cold_ms,
            in_process,
        );
        out.layers
            .insert("trace.overhead_pct", overhead.overhead_pct());
    }
    Ok(out)
}
