#!/bin/sh
# Full local CI gate. Everything here runs offline with an empty cargo
# registry cache: the workspace has no registry dependency at all.
set -eu
cd "$(dirname "$0")"

echo "==> cargo fmt --check"
cargo fmt --check

# The rules clippy holds: no-unwrap (unwrap_used, expect_used), no-hash-order
# and par-confinement (disallowed_types / disallowed_methods over the items
# of clippy.toml) and no-raw-comm (the Ctx send/recv entries of clippy.toml),
# all denied in the root Cargo.toml's [workspace.lints.clippy]. The escape is
# #[expect(clippy::<lint>, reason = "...")], and -D warnings turns an
# expectation that suppresses nothing (unfulfilled_lint_expectations) red
# too. --lib --bins is non-test code. No skip branch: a toolchain without
# clippy is red CI. -D warnings reaches lints only, and a clippy.toml path
# that names nothing is a plain warning, so any warning line is red as well.
echo "==> cargo clippy (-D warnings)"
clippy_out="$(cargo clippy --workspace --lib --bins --color never -- -D warnings 2>&1)" || {
    printf '%s\n' "$clippy_out"
    exit 1
}
printf '%s\n' "$clippy_out"
if printf '%s\n' "$clippy_out" | grep -q '^warning'; then
    echo "cargo clippy: the warnings above fail the stage"
    exit 1
fi

# The repo-local rules clippy lacks (crates/xtask/src/lint.rs). Two
# boundaries are not linted because privacy holds them: the CSR index arrays
# and the reserved tag range; their compile_fail doctests run in the tests
# stage below (cargo test --workspace).
echo "==> xtask lint"
cargo run -p xtask -- lint

echo "==> xtask loc (code and test lines per crate, doc bytes; tracked in CHANGES.md)"
cargo run -q -p xtask -- loc

echo "==> release build"
cargo build --workspace --release

# The tests run the sweep suites at their one size, the full one: chaos's
# destructive and recovery sweeps, schedcheck and modelcheck, as #[test]s
# of xtask.
echo "==> tests"
cargo test --workspace -q

# A doc comment that links to a deleted or renamed item, or public docs
# that link a private item (a dead link for readers), is red CI.
echo "==> doc links (cargo doc, broken and private intra-doc links denied)"
RUSTDOCFLAGS="-D rustdoc::broken_intra_doc_links -D rustdoc::private_intra_doc_links" \
    cargo doc --workspace --no-deps -q

# The benchmark crate is outside the workspace and pins a slice of the
# public surface (CsrMatrix::{n_rows, nnz, spmv, spmv_owned} and Clone,
# gen::{g40, fem_torso}, Graph::from_csr_pattern, partition_kway,
# DistMatrix::new, serial::ilut, LuFactors::{nnz, solve_into},
# IluPreconditioner::new, solver::gmres::gmres over a &CsrMatrix, par_ilut,
# ParStats, dist_mis/build_level_links, RankFactors::initial_reduced_cols,
# DistCsr::new, DistOperator::apply_into, dist_gmres, DistGmresResult,
# DistIlu::new, DistPrecond::apply_into): compile and smoke it here so a
# break of that surface is red CI. DistOperator keeps a trait although
# DistCsr (which holds the SpMV plan itself) is its only implementation and
# apply_into its one product, and dist_mis/build_level_links keep their
# HashMap-keyed rows (the library's only #[expect(clippy::disallowed_types)]
# lines), because the benchmark imports them. Read-only use; its target/ is
# git-ignored.
echo "==> benchmark crate (pinned API surface)"
cargo test --offline -q --manifest-path benchmark/Cargo.toml

# The paper's tables and figures, plus the per-level attribution of the
# three factorizations (levels.txt) and the kernel gate (kernels.txt):
# simulated time and every count in them are bit-reproducible, so they must
# regenerate exactly. The seven rows cheap at their one size (fig1-3,
# ablation_partition, baseline_ilu0, levels, kernels) are diffed against
# experiments/*.txt; Tables 1-3, Figs 4-6 and ablation_comm against their
# CI stand-ins in experiments/ci/*.txt. Before kernels.txt is diffed,
# the gate runs every scenario of the kernel table, untimed, and fails the
# stage, naming scenario and tag or region, on
#   - planned != measured traffic for any tag, or an unplanned tag;
#   - any heap acquisition in a steady region;
#   - the mis_rounds, alg42_sweep or plan_replay allocation budgets exceeded;
#   - the byte budgets exceeded (set-up live bytes, matrix and factor bytes
#     per entry, par_ilut live bytes per factor byte), or a serial row
#     putting anything on the wire;
#   - a gated region that no scenario entered.
# README.md and EXPERIMENTS.md quote experiments/ files in blocks between
# `<!-- experiments/<file>.txt[#fragment] -->` and `<!-- end -->`; the check
# also diffs every block against the committed file and fails at its
# doc:line. A change that moves them re-blesses with `xtask paper` (and
# `xtask paper --record` for the stand-ins' rows of experiments/*.txt),
# which re-renders every block too, and shows the moved numbers in its diff.
echo "==> paper --check (Tables 1-3, Figures 1-6, ablations, levels, kernel gate, doc blocks; exact diff)"
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

echo "ci.sh: all green"
