//! `corpus_cold`: the 1000-unit corpus through
//! `Ompdart::analyze_program`, a new session every round.
//!
//! Each round is a short-lived session's whole life: the first analysis
//! (cold), the same inputs again (warm: the identity fast path right after
//! the caches were filled), one mid-chain semantic edit (edit), drop.
//! Summarize and link are most of the cold work, simulation, wire and
//! store do nothing, so a frontend or link win shows here and nowhere
//! else.

use super::{rewrites_match, rewrites_of, Ctx, Outcome, OverheadProbe};
use crate::harness::{median_peak_rss_mb, run_blocks, Reading, Sample};
use crate::inputs::{self, EditSites, Units, CORPUS_UNITS};
use crate::layers::ProbeProgram;
use ompdart_core::{Ompdart, ProgramAnalysis};
use ompdart_suite::corpus;

/// The generated program with its reference outputs, shared by every
/// workload that analyses a corpus.
pub struct Corpus {
    /// The program as analysed: `stages_per_unit` chain stages to a unit.
    pub base: Units,
    stages_per_unit: usize,
    /// The stages the workload edits (stage numbers, not unit indices).
    pub sites: EditSites,
    /// Per-unit rewrites of a cold analysis of `base`.
    pub reference: Vec<String>,
    /// Per-unit rewrites of a cold analysis of `base` with the mid-chain
    /// edit at nonce 0, and the same for the head edit.
    pub reference_mid: Vec<String>,
    pub reference_head: Vec<String>,
}

impl Corpus {
    /// `corpus::generate(stages, seed)`, one stage per unit.
    pub fn generate(stages: usize, seed: u64) -> Result<Corpus, String> {
        Corpus::generate_packed(stages, seed, 1)
    }

    /// The same program with `stages_per_unit` stages in every file.
    pub fn generate_packed(
        stages: usize,
        seed: u64,
        stages_per_unit: usize,
    ) -> Result<Corpus, String> {
        let base = inputs::pack(&corpus::generate(stages, seed), stages_per_unit);
        let mut corpus = Corpus {
            base,
            stages_per_unit,
            sites: inputs::edit_sites(stages, seed),
            reference: Vec::new(),
            reference_mid: Vec::new(),
            reference_head: Vec::new(),
        };
        let cold = |program: &Units| {
            Ompdart::builder()
                .build()
                .analyze_program(program)
                .map(|analysis| rewrites_of(&analysis))
                .map_err(|e| format!("reference analysis failed: {e}"))
        };
        corpus.reference = cold(&corpus.base)?;
        corpus.reference_mid = cold(&corpus.edited(corpus.sites.mid, 0))?;
        corpus.reference_head = cold(&corpus.edited(corpus.sites.head, 0))?;
        Ok(corpus)
    }

    /// Index of the unit that defines `stage_<stage>`.
    pub fn unit_of(&self, stage: usize) -> usize {
        stage / self.stages_per_unit
    }

    /// Edit `stage_<stage>` in `work`, a copy of `base`.
    pub fn edit(&self, work: &mut Units, stage: usize, nonce: u64) {
        inputs::edit_stage(&mut work[self.unit_of(stage)].1, stage, nonce);
    }

    /// Undo every edit to the unit of `stage_<stage>` in `work`.
    pub fn revert(&self, work: &mut Units, stage: usize) {
        let unit = self.unit_of(stage);
        work[unit].1.clone_from(&self.base[unit].1);
    }

    /// `base` with `stage_<stage>` edited at `nonce`.
    pub fn edited(&self, stage: usize, nonce: u64) -> Units {
        let mut edited = self.base.clone();
        self.edit(&mut edited, stage, nonce);
        edited
    }

    /// True when `analysis` is what a cold analysis of `base`, edited at
    /// `stage` with `nonce` (or unedited), produces.
    pub fn matches(&self, analysis: &ProgramAnalysis, edit: Option<(usize, u64)>) -> bool {
        let Some((stage, nonce)) = edit else {
            return rewrites_match(analysis, &self.reference, None);
        };
        let reference = if stage == self.sites.mid {
            &self.reference_mid
        } else {
            &self.reference_head
        };
        let unit = self.unit_of(stage);
        let expected = inputs::expected_stage_rewrite(&reference[unit], nonce);
        rewrites_match(analysis, reference, Some((unit, &expected)))
    }

    pub fn probe_program(&self) -> ProbeProgram {
        ProbeProgram {
            units: self.base.clone(),
            edited: self.edited(self.sites.mid, 0),
        }
    }
}

/// One session's life; returns the three latencies.
fn round(
    corpus: &Corpus,
    work: &mut Units,
    nonce: u64,
    out: &mut Outcome,
    ctx: &Ctx,
) -> [Sample; 3] {
    let recorder = &ctx.recorder;
    recorder.next_op();
    let tool = Ompdart::builder().build();
    let mid = corpus.sites.mid;

    let (cold, cold_t) = ctx.sample(|| recorder.span("op.cold", || tool.analyze_program(work)));
    out.tally
        .check(cold.is_ok_and(|a| corpus.matches(&a, None)), || {
            "cold rewrite differs from the reference".into()
        });
    let (warm, warm_t) = ctx.sample(|| recorder.span("op.warm", || tool.analyze_program(work)));
    out.tally
        .check(warm.is_ok_and(|a| corpus.matches(&a, None)), || {
            "warm rewrite differs from the cold reference".into()
        });

    corpus.edit(work, mid, nonce);
    let (edit, edit_t) = ctx.sample(|| recorder.span("op.edit", || tool.analyze_program(work)));
    out.tally.check(
        edit.is_ok_and(|a| corpus.matches(&a, Some((mid, nonce)))),
        || "edit rewrite differs from a cold analysis of the edited program".into(),
    );
    corpus.revert(work, mid);
    [cold_t, warm_t, edit_t]
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let mut out = Outcome {
        // An unchanged round hashes and copies text; only about half of
        // its time follows the reference loop (README.md, "How steady it
        // is").
        readings: [Reading::Scaled, Reading::Half, Reading::Scaled],
        ..Outcome::default()
    };
    let corpus = ctx.set_up(&mut out, |_| {
        let corpus = Corpus::generate(CORPUS_UNITS, ctx.seed)?;
        // Warm-up: one whole round, so the first timed round does not
        // pay for the pool's thread start or the allocator's growth.
        let mut scratch = Outcome::default();
        round(&corpus, &mut corpus.base.clone(), 0, &mut scratch, ctx);
        Ok(corpus)
    })?;

    let mut work = corpus.base.clone();
    let mut overhead = OverheadProbe::default();
    let mut nonce = 0u64;
    run_blocks(ctx.seconds, 1, |block| {
        overhead.enter_round(ctx);
        nonce += 1;
        let [cold, warm, edit] = round(&corpus, &mut work, nonce, &mut out, ctx);
        out.cold.push(block, cold);
        out.warm.push(block, warm);
        out.edit.push(block, edit);
        overhead.sample(ctx, cold);
        for sample in [cold, warm, edit] {
            out.ops(block, 1, sample);
        }
    });
    // Memory, apart from time: a few more rounds, each from a trimmed heap.
    out.peak_rss_mb = median_peak_rss_mb(|| {
        nonce += 1;
        round(&corpus, &mut work, nonce, &mut Outcome::default(), ctx);
    });

    if ctx.trace {
        ctx.recorder.set_enabled(true);
        let totals = ctx.probe_layers(&[corpus.probe_program()], &mut out);
        super::record_attribution(
            &mut out.layers,
            totals.stages_ms + totals.link_cold_ms,
            overhead.untraced_ms(),
        );
        out.layers
            .insert("trace.overhead_pct", overhead.overhead_pct());
    }
    Ok(out)
}
