//! A program round runs at one width: its session's parallelism. Every
//! phase — summarize, the relink's wavefronts, the unit fan-out and each
//! unit's function fan-out — reads it, so a session of parallelism 1 never
//! submits a job to the worker pool.
//!
//! The pool's counters are process-wide, so this check is a test binary of
//! its own: no other test moves them while it runs.

use ompdart_core::{AnalysisSession, ProgramDriver};
use ompdart_suite::lulesh_multifile;
use std::sync::Arc;

#[test]
fn a_round_at_parallelism_one_submits_no_pool_job() {
    let units: Vec<(String, String)> = lulesh_multifile()
        .into_iter()
        .map(|(name, source)| (name.to_string(), source.to_string()))
        .collect();
    let session = AnalysisSession::new().with_parallelism(1);
    let driver = ProgramDriver::with_session(Arc::new(session));
    let (program, profile) = driver.analyze_program_profiled(&units).unwrap();
    assert_eq!(program.units.len(), units.len());
    assert!(
        profile.units == units.len() && profile.fast_path_units == 0,
        "a cold round plans every unit: {profile:?}"
    );
    assert_eq!(profile.pool_workers, 1, "{profile:?}");
    assert_eq!(
        (profile.pool_jobs, profile.pool_items),
        (0, 0),
        "a round at parallelism 1 ran pool jobs: {profile:?}"
    );
}
