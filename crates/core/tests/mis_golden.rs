//! Golden fingerprints of `par_ilut` across a rewrite of the dist-MIS
//! kernel.
//!
//! Every constant below was recorded at commit 6572ec8 — the last tree in
//! which `dist_mis` kept its state in `HashMap`s and charged the logical
//! clock a flat `Σ len(all live reduced rows)` per Luby round — *before*
//! `dist_mis.rs` was touched (the discipline of `krylov_golden.rs`). The
//! table pins what a change of the kernel's data layout or of its clock
//! pricing must not move: the level count, every bit of every factor row,
//! the modelled factorization flops (`ParStats::flops`), and the per-tag
//! message and byte counts, which together fix the chosen sets and every
//! wire frame. Simulated time is *meant* to depend on the pricing rule, so
//! it is not pinned to a constant — only to itself across repeated runs.
//!
//! The flops column alone was re-recorded when the third dropping rule
//! moved from every level of Algorithm 4.2 to the place a row is factored
//! (a `selection_cost` per interface row, and one more whenever its `L`
//! would pass `2m` entries, instead of one per row-touch); the other six
//! columns are the 6572ec8 values.
//!
//! On a mismatch the panic message prints the observed table as Rust
//! literals; paste it over the constants only when the change is meant to
//! alter the sets, the numerics or the traffic.

use pilut_core::dist::DistMatrix;
use pilut_core::options::IlutOptions;
use pilut_core::parallel::par_ilut;
use pilut_par::{Machine, MachineModel};
use pilut_sparse::{gen, SplitMix64};

/// Folds one word into a running SplitMix64 hash.
fn fold(h: u64, v: u64) -> u64 {
    SplitMix64::new(h ^ v).next_u64()
}

const SEED: u64 = 0x6d69_735f_676f_6c64; // "mis_gold"

/// `(p, levels, factor hash, flops hash, messages, bytes, per-tag hash)`.
type Row = (usize, usize, u64, u64, u64, u64, u64);

#[rustfmt::skip]
const GOLDEN: &[Row] = &[
    (2, 61, 0x2041ee927fe88501, 0xc8f475158c5640e3, 1263, 123152, 0x3936edfc41d5fc84),
    (4, 89, 0x60c5533bd9e187cc, 0xb0d360185deb5468, 8937, 765616, 0x4eeea0253f3847c3),
    (8, 99, 0xa7c3cdac5377c8bd, 0x9ecbb2f4cda5ecda, 39178, 3265696, 0x4e63591a0af4fffa),
];

/// One checked run: the row above plus the simulated time's bits.
fn run(p: usize) -> (Row, u64) {
    let a = gen::fem_torso(12, 1);
    let opts = IlutOptions::new(20, 1e-6);
    let dm = DistMatrix::from_matrix(a, p, 17);
    let out = Machine::run_checked(p, MachineModel::cray_t3d(), |ctx| {
        let local = dm.local_view(ctx.rank());
        par_ilut(ctx, &dm, &local, &opts).expect("factorization failed")
    });
    let levels = out.results[0].stats.levels;
    let (mut factors, mut flops) = (SEED, SEED);
    for rf in &out.results {
        assert_eq!(rf.stats.levels, levels, "ranks disagree on the level count");
        flops = fold(flops, rf.stats.flops.to_bits());
        for level in &rf.levels {
            factors = level
                .iter()
                .fold(fold(factors, level.len() as u64), |h, &v| fold(h, v as u64));
        }
        for (g, row) in rf.rows() {
            factors = fold(fold(factors, g as u64), row.diag().to_bits());
            for (c, v) in row.l().chain(row.u()) {
                factors = fold(fold(factors, c as u64), v.to_bits());
            }
        }
    }
    let by_tag = out.stats.by_tag.iter();
    let tags = by_tag.fold(SEED, |h, (&t, &(m, by))| fold(fold(fold(h, t), m), by));
    let (messages, bytes) = (out.stats.messages, out.stats.bytes);
    (
        (p, levels, factors, flops, messages, bytes, tags),
        out.sim_time.to_bits(),
    )
}

#[test]
fn par_ilut_sets_factors_flops_and_traffic_match_the_recorded_fingerprints() {
    let mut seen: Vec<Row> = Vec::new();
    for p in [2usize, 4, 8] {
        let (row, sim) = run(p);
        // The clock is a sum of integer-valued charges in program order:
        // bit-reproducible, whatever the pricing rule.
        for rep in 0..2 {
            let (again, sim_again) = run(p);
            assert_eq!(again, row, "p={p}: repeat {rep} moved a fingerprint");
            assert_eq!(sim_again, sim, "p={p}: repeat {rep} moved sim_time");
        }
        seen.push(row);
    }
    assert!(
        seen == GOLDEN,
        "par_ilut fingerprints moved; observed:\n{}",
        seen.iter()
            .map(|(p, lv, f, fl, m, by, tg)| format!(
                "    ({p}, {lv}, {f:#018x}, {fl:#018x}, {m}, {by}, {tg:#018x}),\n"
            ))
            .collect::<String>()
    );
}
