//! `corpus_edit`: a long-lived session over the 1000-unit corpus.
//!
//! A session is opened (cold round), then cycles unchanged round (warm) →
//! mid-chain semantic edit, dirty cone N/2+1 (edit) → revert → head edit,
//! cone of a few functions → revert; after a few cycles it is dropped and
//! the next one opened. It runs the same
//! layers as `corpus_cold`, reading caches instead of filling them: relink
//! and the function-plan cache dominate while the frontend parses one
//! unit, so a cold-path win that taxes cache lookups or relocation shows
//! as a loss here.
//!
//! Every edit inserts a statement no earlier edit inserted, and stale
//! versions of the edited unit are evicted after each round, as `ompdart
//! watch` does; the session neither revisits cached content nor grows.

use super::corpus_cold::Corpus;
use super::{series_section, Ctx, Outcome, OverheadProbe};
use crate::harness::{
    median, median_peak_rss_mb, ms, run_blocks, Reading, Sample, Series, REFERENCE_MS,
};
use crate::inputs::{Units, CORPUS_UNITS};
use crate::json::obj;
use ompdart_core::Ompdart;

/// A session lives for this many cycles (five rounds each); then it is
/// dropped and the next one opened, whose first round is a cold sample.
/// That yields some fifty cold samples a run, spread over all of it.
const CYCLES_PER_SESSION: usize = 6;

/// Edit rounds the traced pass has the driver profile.
const PROFILED_EDITS: usize = 9;

/// A session and the program text it last analysed.
struct Session<'a> {
    corpus: &'a Corpus,
    tool: Ompdart,
    work: Units,
}

impl<'a> Session<'a> {
    /// Open a session with its cold round; returns the round's time.
    fn open(corpus: &'a Corpus, out: &mut Outcome, ctx: &Ctx) -> (Session<'a>, Sample) {
        let session = Session {
            corpus,
            tool: Ompdart::builder().build(),
            work: corpus.base.clone(),
        };
        ctx.recorder.next_op();
        let (cold, wall) = ctx.sample(|| {
            ctx.recorder
                .span("op.cold", || session.tool.analyze_program(&session.work))
        });
        out.tally
            .check(cold.is_ok_and(|a| corpus.matches(&a, None)), || {
                "cold rewrite differs from the reference".into()
            });
        (session, wall)
    }

    /// An unchanged round.
    fn unchanged(&self, span: &'static str, out: &mut Outcome, ctx: &Ctx) -> Sample {
        ctx.recorder.next_op();
        let (round, wall) = ctx.sample(|| {
            ctx.recorder
                .span(span, || self.tool.analyze_program(&self.work))
        });
        out.tally
            .check(round.is_ok_and(|a| self.corpus.matches(&a, None)), || {
                format!("{span}: rewrite differs from the cold reference")
            });
        wall
    }

    /// Edit `stage_<site>`, analyse, then revert and analyse again.
    /// Returns the times of the edit round and of the revert round.
    fn edit_and_revert(
        &mut self,
        site: usize,
        nonce: u64,
        span: &'static str,
        out: &mut Outcome,
        ctx: &Ctx,
    ) -> (Sample, Sample) {
        self.corpus.edit(&mut self.work, site, nonce);
        ctx.recorder.next_op();
        let (round, edit_wall) = ctx.sample(|| {
            ctx.recorder
                .span(span, || self.tool.analyze_program(&self.work))
        });
        out.tally.check(
            round.is_ok_and(|a| self.corpus.matches(&a, Some((site, nonce)))),
            || format!("{span}: rewrite differs from a cold analysis of the edited program"),
        );
        self.evict(site);

        self.corpus.revert(&mut self.work, site);
        let revert_wall = self.unchanged("op.revert", out, ctx);
        self.evict(site);
        (edit_wall, revert_wall)
    }

    /// One more mid-chain edit round, profiled by the driver itself:
    /// the phase times in ms at reference speed, or `None` on an error.
    /// The edit is reverted afterwards.
    fn profiled_edit(&mut self, nonce: u64, out: &mut Outcome, ctx: &Ctx) -> Option<[f64; 5]> {
        let site = self.corpus.sites.mid;
        self.corpus.edit(&mut self.work, site, nonce);
        let scale = REFERENCE_MS / ctx.pace.now();
        let round = self.tool.analyze_program_profiled(&self.work);
        let phases = round.as_ref().ok().map(|(_, profile)| {
            [
                profile.summarize,
                profile.link,
                profile.contexts,
                profile.plan,
                profile.total,
            ]
            .map(|phase| ms(phase) * scale)
        });
        out.tally.check(
            round.is_ok_and(|(a, _)| self.corpus.matches(&a, Some((site, nonce)))),
            || "profiled edit: rewrite differs from a cold analysis of the edited program".into(),
        );
        self.evict(site);
        self.corpus.revert(&mut self.work, site);
        self.unchanged("op.revert", out, ctx);
        self.evict(site);
        phases
    }

    /// One cycle: unchanged round, mid-chain edit, revert, head edit,
    /// revert; returns the five rounds' times in that order.
    fn cycle(&mut self, nonce: u64, out: &mut Outcome, ctx: &Ctx) -> [Sample; 5] {
        let sites = self.corpus.sites;
        let warm = self.unchanged("op.warm", out, ctx);
        let (edit, back) = self.edit_and_revert(sites.mid, nonce, "op.edit", out, ctx);
        let (edit_shallow, back_shallow) =
            self.edit_and_revert(sites.head, nonce, "op.edit_shallow", out, ctx);
        [warm, edit, back, edit_shallow, back_shallow]
    }

    fn evict(&self, site: usize) {
        let (name, source) = &self.work[self.corpus.unit_of(site)];
        self.tool.session().evict_stale_versions(name, source);
    }
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
        // Warm-up: a session's first cold round and one edit cycle.
        let mut scratch = Outcome::default();
        let (mut session, _) = Session::open(&corpus, &mut scratch, ctx);
        session.edit_and_revert(corpus.sites.mid, 0, "op.edit", &mut scratch, ctx);
        drop(session);
        Ok(corpus)
    })?;

    let (mut shallow, mut revert) = (Series::default(), Series::default());
    let mut overhead = OverheadProbe::default();
    let mut session: Option<Session> = None;
    let mut cycles_in_session = 0;
    let mut nonce = 0u64;
    run_blocks(ctx.seconds, 1, |block| {
        overhead.enter_round(ctx);
        if session.is_none() || cycles_in_session == CYCLES_PER_SESSION {
            session = None; // drop the old session before opening the next
            let (opened, cold) = Session::open(&corpus, &mut out, ctx);
            out.cold.push(block, cold);
            out.ops(block, 1, cold);
            session = Some(opened);
            cycles_in_session = 0;
        }
        let session = session.as_mut().expect("opened above");
        cycles_in_session += 1;
        nonce += 1;
        let [warm, edit, back, edit_shallow, back_shallow] = session.cycle(nonce, &mut out, ctx);
        out.warm.push(block, warm);
        overhead.sample(ctx, warm);
        out.edit.push(block, edit);
        shallow.push(block, edit_shallow);
        revert.push(block, back);
        revert.push(block, back_shallow);
        for sample in [warm, edit, back, edit_shallow, back_shallow] {
            out.ops(block, 1, sample);
        }
    });

    // Memory, apart from time: a session's first round and one cycle, a
    // few more times, each from a trimmed heap with no session alive.
    drop(session);
    out.peak_rss_mb = median_peak_rss_mb(|| {
        nonce += 1;
        let mut checks = Outcome::default();
        let (mut opened, _) = Session::open(&corpus, &mut checks, ctx);
        opened.cycle(nonce, &mut checks, ctx);
    });
    out.detail.push((
        "rounds".into(),
        series_section(
            &[("edit_shallow_ms", &shallow), ("revert_ms", &revert)],
            Reading::Scaled,
        ),
    ));

    if ctx.trace {
        ctx.recorder.set_enabled(true);
        ctx.probe_layers(&[corpus.probe_program()], &mut out);
        out.layers.insert(
            "session.edit_shallow_ms",
            shallow.summary(Reading::Scaled).value,
        );
        out.layers
            .insert("session.revert_ms", revert.summary(Reading::Scaled).value);
        out.layers
            .insert("trace.overhead_pct", overhead.overhead_pct());

        // The probe's edit round is the first edit of a new session. What
        // an edit costs one that has seen a few, phase by phase, comes from
        // letting the driver profile some more of its rounds.
        let (mut session, _) = Session::open(&corpus, &mut out, ctx);
        for _ in 0..3 {
            nonce += 1;
            session.cycle(nonce, &mut out, ctx);
        }
        let rounds: Vec<[f64; 5]> = (0..PROFILED_EDITS)
            .filter_map(|_| {
                nonce += 1;
                session.profiled_edit(nonce, &mut out, ctx)
            })
            .collect();
        let phase = |index: usize| median(&rounds.iter().map(|r| r[index]).collect::<Vec<_>>());
        out.layers.insert("link.relink_ms", phase(1));
        out.detail.push((
            "edit_round".into(),
            obj([
                ("summarize_ms", phase(0).into()),
                ("link_ms", phase(1).into()),
                ("contexts_ms", phase(2).into()),
                ("plan_ms", phase(3).into()),
                ("total_ms", phase(4).into()),
            ]),
        ));
    }
    Ok(out)
}
