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
//! would pass `2m` entries, instead of one per row-touch). The messages,
//! bytes and tag-hash columns were re-recorded when checked mode stopped
//! shipping `CommPlan::verify`'s plan summaries as a priced all-gather:
//! they are what the same body yields under the production
//! `Machine::run` at d3c27e5, the commit before that change, so they hold
//! the traffic of the factorization alone. The levels and factor-hash
//! columns are the 6572ec8 values.
//!
//! On a mismatch the panic message prints the observed table as Rust
//! literals; paste it over the constants only when the change is meant to
//! alter the sets, the numerics or the traffic.
//!
//! `ILU0_GOLDEN` pins `par_ilu0` the same way, minus the traffic. It was
//! recorded at commit 9d64d65, where ILU(0) still ran a schedule loop and a
//! numeric loop of its own, before it moved onto `par_ilut`'s level loop;
//! that move changes its messages and collectives by design, but not its
//! level sets, a bit of its factors or its flops.

use pilut_core::dist::DistMatrix;
use pilut_core::options::IlutOptions;
use pilut_core::parallel::{par_ilu0, par_ilut, RankFactors};
use pilut_par::{Ctx, Machine, MachineModel, RunOutput};
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
    (2, 61, 0x2041ee927fe88501, 0xc8f475158c5640e3, 1141, 105680, 0x45919a82e2e2caf2),
    (4, 89, 0x60c5533bd9e187cc, 0xb0d360185deb5468, 8403, 547632, 0xb8e9ede76fedbce2),
    (8, 99, 0xa7c3cdac5377c8bd, 0x9ecbb2f4cda5ecda, 37792, 1477520, 0x50127833633c2001),
];

/// `(p, levels, factor hash, flops hash)`.
type Ilu0Row = (usize, usize, u64, u64);

const ILU0_GOLDEN: &[Ilu0Row] = &[
    (2, 4, 0x726a6edf03630932, 0x1e757dfb98718102),
    (4, 5, 0x49223bf4ef5df834, 0x0d6461a01ed15560),
    (8, 4, 0x50972d12d5b6c390, 0x12f459bca64c58d4),
];

/// One checked run of `factor` on every rank of `fem_torso(12, 1)` split
/// `p` ways.
fn factor_torso(
    p: usize,
    factor: impl Fn(&mut Ctx, &DistMatrix) -> RankFactors + Sync,
) -> RunOutput<RankFactors> {
    let dm = DistMatrix::from_matrix(gen::fem_torso(12, 1), p, 17);
    Machine::run_checked(p, MachineModel::cray_t3d(), |ctx| factor(ctx, &dm))
}

/// `(levels, factor hash, flops hash)` of one run: every rank's level
/// sets, every bit of its rows and its `ParStats::flops`.
fn fingerprint(out: &RunOutput<RankFactors>) -> (usize, u64, u64) {
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
    (levels, factors, flops)
}

/// One checked run: the row above plus the simulated time's bits.
fn run(p: usize) -> (Row, u64) {
    let opts = IlutOptions::new(20, 1e-6);
    let out = factor_torso(p, |ctx, dm| {
        let local = dm.local_view(ctx.rank());
        par_ilut(ctx, dm, &local, &opts).expect("factorization failed")
    });
    let (levels, factors, flops) = fingerprint(&out);
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

#[test]
fn par_ilu0_sets_factors_and_flops_match_the_recorded_fingerprints() {
    let seen: Vec<Ilu0Row> = [2usize, 4, 8]
        .into_iter()
        .map(|p| {
            let out = factor_torso(p, |ctx, dm| {
                let local = dm.local_view(ctx.rank());
                par_ilu0(ctx, dm, &local).expect("factorization failed")
            });
            let (levels, factors, flops) = fingerprint(&out);
            (p, levels, factors, flops)
        })
        .collect();
    assert!(
        seen == ILU0_GOLDEN,
        "par_ilu0 fingerprints moved; observed:\n{}",
        seen.iter()
            .map(|(p, lv, f, fl)| format!("    ({p}, {lv}, {f:#018x}, {fl:#018x}),\n"))
            .collect::<String>()
    );
}
