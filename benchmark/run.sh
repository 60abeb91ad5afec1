#!/usr/bin/env bash
# Builds the benchmark from source and runs it; run from the repository root.
#   bash benchmark/run.sh --workload NAME|all [--seed N] [--seconds S] [--trace 0|1] [--quick] [--aa]
# Cargo puts the build under $CARGO_TARGET_DIR when set, else benchmark/target.
set -euo pipefail
manifest=benchmark/Cargo.toml
cargo build --release --offline --quiet --manifest-path "$manifest" >&2
exec "${CARGO_TARGET_DIR:-benchmark/target}/release/pilut-benchmark" "$@"
