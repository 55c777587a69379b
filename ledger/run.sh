#!/usr/bin/env bash
# Build the programs under test and the benchmark, then run the benchmark.
#
#   bash ledger/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#   bash ledger/run.sh [--seed <n>] [--seconds <s>] [--compare ledger/baseline.json]
#
# All three binaries go into one target directory (CARGO_TARGET_DIR, or
# `target/` of the repository), because the benchmark looks for `ompdart`
# and `ompdartd` beside itself. Nothing is fetched: every dependency is a
# path dependency inside the repository.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"

target="${CARGO_TARGET_DIR:-target}"
case "$target" in
  /*) ;;
  *) target="$root/$target" ;;
esac
export CARGO_TARGET_DIR="$target"

# The programs under test, from the root workspace ...
cargo build --release --offline --quiet --bin ompdart --bin ompdartd
# ... and the benchmark, a package of its own.
cargo build --release --offline --quiet --manifest-path ledger/Cargo.toml

# Not `exec`: the benchmark reads the peak memory of its child processes,
# and a process keeps the children of the shell it replaced.
"$target/release/ompdart-ledger" "$@"
