//! The `ompdartd` binary's command line: usage errors exit 2 with a
//! message, through the same parser as `ompdart daemon`.

use std::process::Command;

/// A size that overflows `u64` once its suffix is applied used to multiply
/// unchecked here: a panic in debug builds, a silently wrapped cap in
/// release builds.
#[test]
fn overflowing_cache_cap_is_a_usage_error() {
    let out = Command::new(env!("CARGO_BIN_EXE_ompdartd"))
        .args(["--cache-max-bytes", "99999999999g"])
        .output()
        .expect("run ompdartd");
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("error: `99999999999g` overflows"),
        "{stderr}"
    );
}
