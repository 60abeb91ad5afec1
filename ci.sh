#!/bin/sh
# Full local CI gate. Everything here runs offline with an empty cargo
# registry cache: the workspace has no registry dependency at all.
set -eu
cd "$(dirname "$0")"

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> xtask lint"
cargo run -p xtask -- lint

echo "==> xtask loc (code lines per crate, tracked in CHANGES.md)"
cargo run -q -p xtask -- loc

echo "==> release build"
cargo build --workspace --release

echo "==> tests"
cargo test --workspace -q

# The benchmark crate is outside the workspace and pins a slice of the
# public surface (serial::ilut, LuFactors::{nnz, solve_into},
# IluPreconditioner::new, par_ilut, ParStats, dist_mis/build_level_links,
# RankFactors::initial_reduced_cols): compile and smoke it here so a break
# of that surface is red CI. Read-only use; its target/ is git-ignored.
echo "==> benchmark crate (pinned API surface)"
cargo test --offline -q --manifest-path benchmark/Cargo.toml

echo "==> chaos (seeded fault-injection suite, quick)"
cargo run -q -p xtask --release -- chaos --quick

echo "==> chaos --recover (self-healing solve under kill/drop plans, quick)"
cargo run -q -p xtask --release -- chaos --recover --quick

echo "==> schedcheck (bitwise-determinism sanitizer, quick)"
cargo run -q -p xtask --release -- schedcheck --quick

echo "==> modelcheck (DPOR schedule-space exploration, quick)"
cargo run -q -p xtask --release -- modelcheck --quick

# The paper's tables and figures at CI size: simulated time and every
# count in them are bit-reproducible, so the committed experiments/ci/*.txt
# must regenerate exactly. A change that moves them re-blesses with
# `xtask paper` (and `xtask paper --record` for experiments/*.txt) and
# shows the moved numbers in its diff.
echo "==> paper --check (Tables 1-3, Figures 1-6, ablations; exact diff)"
cargo run -q -p xtask --release -- paper --check

# ThreadSanitizer pass over the VM crate: the logical-clock machine is the
# only place in the workspace that touches raw threads, so it gets a real
# data-race check. BLOCKING: when the pinned nightly can run it (TSan needs
# -Z flags and a std rebuilt with the sanitizer, i.e. rust-src), any finding
# is red CI — no allowed-to-warn fallback. Environments missing the
# toolchain skip the stage loudly; they cannot turn a finding green.
# Pinned: validated on rustc 1.97.0-nightly (e50aa6fba 2026-05-19); TSan's
# -Z surface and std instrumentation drift between nightlies, so bumps to
# TSAN_TOOLCHAIN should re-validate before landing.
TSAN_TOOLCHAIN="${TSAN_TOOLCHAIN:-nightly}"
tsan_src="$(rustup run "$TSAN_TOOLCHAIN" rustc --print sysroot 2>/dev/null || true)/lib/rustlib/src/rust/library/Cargo.lock"
echo "==> tsan (crates/par, $TSAN_TOOLCHAIN, blocking when runnable)"
if [ -f "$tsan_src" ]; then
    RUSTFLAGS="-Zsanitizer=thread" RUSTDOCFLAGS="-Zsanitizer=thread" \
        cargo "+$TSAN_TOOLCHAIN" test -p pilut-par -Zbuild-std \
        --target x86_64-unknown-linux-gnu -q
else
    echo "tsan: $TSAN_TOOLCHAIN lacks rust-src (std cannot be instrumented); stage skipped."
    echo "      enable with: rustup toolchain install nightly-2026-05-20 -c rust-src"
fi

# The smoke pass also exercises the scaling sweep end to end (tiny
# two-point curves) so the JSON writer's scaling section and its
# bench-verify validation stay covered; --slack 0 is the default but is
# spelled out because it is the contract — the delta-protocol byte
# predictions are exact, so zero divergence is the gate, not a wish.
# --profile-alloc runs the whole sweep under the counting allocator and
# records per-region acquisition counts, which bench-verify gates: every
# steady-state replay region (trisolve_replay, replay_halo, send_values,
# recv_values, gmres_inner — DESIGN §16.2) must report exactly 0
# acquisitions, same spirit as the slack-0 comm gate.
echo "==> bench smoke (incl. scaling curves + zero-steady-alloc gate)"
cargo run -q -p xtask --release -- bench --quick --scaling --profile-alloc \
    --out target/bench_smoke.json
cargo run -q -p xtask --release -- bench-verify target/bench_smoke.json --slack 0

# Full-size re-run of every scenario, gated on the geometric mean of the
# min-time ratios. The baseline is BENCH_pr9.json — the tree with the
# blocked storage layer, before the memory-plane audit landed. The
# baseline file is schema v1 (no alloc columns); bench-compare reads both
# schemas, compares on min times only, and the geomean gates the full
# scenario set. The fresh report is schema v2 and still passes
# bench-verify at zero slack, which now enforces both that every
# serial-named scenario put nothing on the wire and that every gated
# steady region performed zero heap acquisitions. Per-scenario numbers
# still swing ±10-15% from binary layout alone; the geomean over min
# times cancels that undirected noise, and precise before/after numbers
# live in EXPERIMENTS.md.
echo "==> bench regression vs BENCH_pr9.json (full scenarios, geomean gate)"
cargo run -q -p xtask --release -- bench --profile-alloc \
    --out target/bench_compare.json --label ci \
    --baseline BENCH_pr9.json
cargo run -q -p xtask --release -- bench-verify target/bench_compare.json --slack 0
cargo run -q -p xtask --release -- bench-compare target/bench_compare.json \
    --baseline BENCH_pr9.json --tolerance 5 --geomean

echo "ci.sh: all green"
