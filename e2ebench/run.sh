#!/usr/bin/env bash
# Builds the benchmark and the repository's `rempd` from source, then runs
#   e2ebench --workload NAME --seed N --seconds S --trace 0|1
# from the root of a checkout. Build output goes to standard error, so the
# last line of standard output is the benchmark's JSON result.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/target}"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" 1>&2
exec "$target/release/e2ebench" "$@"
