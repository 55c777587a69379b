//! Everything the benchmark feeds the program, generated from `--seed`:
//! the corpus, where it is edited, what each edit inserts, and the request
//! schedule of the served mix. The program under test only ever sees the
//! generated inputs, never the seed.

use ompdart_suite::{lulesh_multifile, one_function_edit};

pub type Units = Vec<(String, String)>;

/// Units of the corpus the in-process and CLI workloads analyse.
pub const CORPUS_UNITS: usize = 1000;
/// Units of the big program resident in the daemon.
pub const BIG_UNITS: usize = 200;

/// splitmix64, a separate stream per `(seed, stream)` pair.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0xa076_1d64_78bd_642f));
        rng.next_u64();
        rng
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// The two stage units a corpus workload edits. The seed moves each by a
/// few positions only: the mid-chain edit keeps a dirty cone of about
/// half the program and the head edit one of a handful of functions, so
/// runs with different seeds measure the same amount of work.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EditSites {
    pub mid: usize,
    pub head: usize,
}

pub fn edit_sites(units: usize, seed: u64) -> EditSites {
    assert!(units >= 16, "edit sites need a corpus of at least 16 units");
    let mut rng = Rng::new(seed, 1);
    EditSites {
        mid: units / 2 + rng.below(8) as usize,
        head: 1 + rng.below(4) as usize,
    }
}

/// Join every `per_file` consecutive units into one translation unit.
/// The corpus's guarded header makes any concatenation of its units valid,
/// so this is the same program in fewer, larger files.
pub fn pack(units: &[(String, String)], per_file: usize) -> Units {
    units
        .chunks(per_file)
        .enumerate()
        .map(|(i, chunk)| {
            let source: String = chunk.iter().map(|(_, src)| src.as_str()).collect();
            (format!("pack_{i:04}.c"), source)
        })
        .collect()
}

/// Make the edit `corpus::edit_one_function` makes to `stage_<stage>`, in
/// whichever unit text holds that function, with the inserted statement
/// unique to `nonce`. A long-lived session caches by content, so repeating
/// one edit text would measure a cache revisit from the second time on; a
/// new constant each time keeps every edit round a real edit with the same
/// effect on the function's summary.
///
/// # Panics
///
/// Panics if `source` does not define `stage_<stage>`.
pub fn edit_stage(source: &mut String, stage: usize, nonce: u64) {
    let marker = format!("void stage_{stage}(void) {{\n");
    let at = source
        .find(&marker)
        .expect("the unit must define the stage being edited");
    source.insert_str(
        at + marker.len(),
        &format!("  {}\n", stage_edit_text(nonce)),
    );
}

pub fn stage_edit_text(nonce: u64) -> String {
    format!("syn_extra[0] += {}.0;", 3 + nonce)
}

/// What the rewrite of an edited unit must be, given the reference
/// rewrite of the same edit made with nonce 0: the rewriter copies host
/// statements verbatim, so only the inserted text differs.
pub fn expected_stage_rewrite(reference: &str, nonce: u64) -> String {
    reference.replacen(&stage_edit_text(0), &stage_edit_text(nonce), 1)
}

/// The three units of the multi-file lulesh port.
pub fn lulesh_mf() -> Units {
    lulesh_multifile()
        .into_iter()
        .map(|(name, src)| (name.to_string(), src.to_string()))
        .collect()
}

/// A comment edit at the start of a function body: the function's text
/// changes and every later offset moves, the program's meaning does not.
#[derive(Clone, Debug)]
pub struct CommentEdit {
    /// Byte offset just past the `{` of the unit's first function body.
    at: usize,
}

impl CommentEdit {
    /// Where `ompdart_suite::one_function_edit` edits `source`.
    pub fn locate(name: &str, source: &str) -> Option<CommentEdit> {
        let (edited, _) = one_function_edit(name, source)?;
        let at = source
            .bytes()
            .zip(edited.bytes())
            .take_while(|(a, b)| a == b)
            .count();
        Some(CommentEdit { at })
    }

    pub fn text(nonce: u64) -> String {
        format!(" /* edit {nonce} */")
    }

    pub fn apply(&self, source: &str, nonce: u64) -> String {
        let mut edited = String::with_capacity(source.len() + 24);
        edited.push_str(&source[..self.at]);
        edited.push_str(&CommentEdit::text(nonce));
        edited.push_str(&source[self.at..]);
        edited
    }

    /// See [`expected_stage_rewrite`].
    pub fn expected_rewrite(reference: &str, nonce: u64) -> String {
        reference.replacen(&CommentEdit::text(0), &CommentEdit::text(nonce), 1)
    }
}

/// One request of the served mix.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Request {
    /// `analyze` of the unchanged three-unit program.
    Warm,
    /// `analyze` of the three-unit program with one function edited.
    Edit,
    /// `analyze` of the unchanged 200-unit program.
    BigWarm,
    /// `analyze` of the 200-unit program with one stage edited.
    BigEdit,
    /// `explain` at one of the prepared positions.
    Explain {
        position: u8,
    },
    Stats,
    CheckPlans,
}

/// The seeded request mix: 40 % unchanged, 30 % one-function edit, 10 %
/// big program (half of them edited), 10 % explain, 5 % stats, 5 %
/// check_plans. An endless iterator; a run consumes as long a prefix as
/// its time allows.
pub fn request_schedule(seed: u64, explain_positions: u8) -> impl Iterator<Item = Request> {
    assert!(explain_positions > 0);
    let mut rng = Rng::new(seed, 2);
    std::iter::repeat_with(move || match rng.below(100) {
        0..=39 => Request::Warm,
        40..=69 => Request::Edit,
        70..=74 => Request::BigWarm,
        75..=79 => Request::BigEdit,
        80..=89 => Request::Explain {
            position: rng.below(u64::from(explain_positions)) as u8,
        },
        90..=94 => Request::Stats,
        _ => Request::CheckPlans,
    })
}
