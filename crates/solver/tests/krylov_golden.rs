//! Golden fingerprints of restarted GMRES, serial and distributed.
//!
//! Every constant below was recorded at commit 5021796 — the last tree in
//! which `gmres` and `dist_gmres` were two separate loops — except
//! `torso8/ilut`, which became the `torso8/p1/ilut` row when serial `ilut`
//! became the one-rank case of `par_ilut` (one row kernel, one tie rule at
//! the fill cap), and the `sim_time` column — that column only — of the four
//! `*/p{2,4}/ilut` rows, re-recorded when the dist-MIS kernel began charging
//! the logical clock for the pattern entries it reads instead of a flat
//! `Σ len(all live rows)` per Luby round, and again when `par_ilut` began
//! charging the third dropping rule when an interface row is factored instead of
//! at every row-touch. That second change also gave the rule a total order
//! (magnitude, then column — DESIGN §2.2), which decides one tie at the
//! `m = 5` cut of `torso8/p4/ilut` differently: its solution hash and
//! residual bits were re-recorded with it (9 matvecs before and after); no
//! other row's numerics moved. The `matvecs`, `sim_time`, messages, bytes
//! and tag-hash columns of every row were re-recorded when a cold start
//! began at `b` instead of computing `b − A·0`: each row lost exactly one
//! matvec, one SpMV exchange and one all-reduce, and no solution hash,
//! residual bit or breakdown moved. The `sim_time`, messages, bytes and
//! tag-hash columns of every `p2` and `p4` row were re-recorded again when
//! checked mode stopped shipping `CommPlan::verify`'s plan summaries as a
//! priced all-gather: they are what the same body yields under the
//! production `Machine::run` at d3c27e5, the commit before that change.
//! The table pins what a refactor of
//! the iteration must not move: the solution bits, the matvec count, the
//! reported residual, the breakdown verdict, and (on the machine) the
//! logical clock and the per-tag traffic, which together fix the order of
//! every `ctx.work` charge and every collective.
//!
//! On a mismatch the panic message prints the whole observed table as Rust
//! literals; paste it over the constants only when the change is *meant* to
//! alter numerics, charges or traffic.

use pilut_core::dist::op::DistCsr;
use pilut_core::dist::DistMatrix;
use pilut_core::options::IlutOptions;
use pilut_core::parallel::par_ilut;
use pilut_core::precond::{DiagonalPreconditioner, IluPreconditioner, Preconditioner};
use pilut_core::serial::ilut;
use pilut_par::{Machine, MachineModel};
use pilut_solver::dist_gmres::{dist_gmres, DistDiagonal, DistIlu, DistPrecond};
use pilut_solver::gmres::{gmres, GmresOptions};
use pilut_sparse::{gen, CsrMatrix, SplitMix64};

/// Folds one word into a running SplitMix64 hash.
fn fold(h: u64, v: u64) -> u64 {
    SplitMix64::new(h ^ v).next_u64()
}

fn fold_f64s(h: u64, xs: &[f64]) -> u64 {
    xs.iter().fold(h, |h, x| fold(h, x.to_bits()))
}

const SEED: u64 = 0x6b72_796c_6f76; // "krylov"

fn matrices() -> [(&'static str, CsrMatrix); 2] {
    [
        ("cd24", gen::convection_diffusion_2d(24, 24, 10.0, 20.0)),
        ("torso8", gen::torso(8)),
    ]
}

fn rhs(a: &CsrMatrix) -> Vec<f64> {
    let x_true: Vec<f64> = (0..a.n_rows()).map(|i| 1.0 + (i % 3) as f64).collect();
    a.spmv_owned(&x_true)
}

fn opts() -> GmresOptions {
    GmresOptions {
        restart: 20,
        ..Default::default()
    }
}

fn ilut_opts() -> IlutOptions {
    IlutOptions::new(5, 1e-2)
}

/// `(case, x hash, matvecs, rel_residual bits, breakdown)`.
type SerialRow = (String, u64, usize, u64, String);

#[rustfmt::skip]
const SERIAL: &[(&str, u64, usize, u64, &str)] = &[
    ("cd24/ilut", 0x64d7e8004845533e, 12, 0x3e5210157b15b067, "None"),
    ("cd24/jacobi", 0x8616218513287338, 129, 0x3e7605a1fb5392e5, "None"),
    ("torso8/ilut", 0x373175415097a864, 8, 0x3e6f87c58a1d9e0f, "None"),
    ("torso8/jacobi", 0xdf955bef952bb356, 19, 0x3e743afdc39b9bba, "None"),
];

#[test]
fn serial_gmres_matches_the_recorded_fingerprints() {
    let mut seen: Vec<SerialRow> = Vec::new();
    for (name, a) in matrices() {
        let b = rhs(&a);
        let ilu = IluPreconditioner::new(ilut(&a, &ilut_opts()).unwrap());
        let jacobi = DiagonalPreconditioner::new(&a);
        let pres: [(&str, &dyn Preconditioner); 2] = [("ilut", &ilu), ("jacobi", &jacobi)];
        for (pname, pre) in pres {
            let r = gmres(&a, &b, pre, &opts());
            seen.push((
                format!("{name}/{pname}"),
                fold_f64s(SEED, &r.x),
                r.matvecs,
                r.rel_residual.to_bits(),
                format!("{:?}", r.breakdown),
            ));
        }
    }
    let want: Vec<SerialRow> = SERIAL
        .iter()
        .map(|&(c, x, mv, rel, bd)| (c.to_string(), x, mv, rel, bd.to_string()))
        .collect();
    assert!(
        seen == want,
        "serial fingerprints moved; observed:\n{}",
        seen.iter()
            .map(|(c, x, mv, rel, bd)| format!(
                "    ({c:?}, {x:#018x}, {mv}, {rel:#018x}, {bd:?}),\n"
            ))
            .collect::<String>()
    );
}

/// `(case, x hash over ranks, matvecs, rel_residual bits, breakdown,
/// sim_time bits, messages, bytes, per-tag hash)`.
type DistRow = (String, u64, usize, u64, String, u64, u64, u64, u64);

#[rustfmt::skip]
const DIST: &[(&str, u64, usize, u64, &str, u64, u64, u64, u64)] = &[
    ("cd24/p1/ilut", 0x64d7e8004845533e, 12, 0x3e5210157b15b067, "None", 0x3faca1ff0638455e, 0, 0, 0x00006b72796c6f76),
    ("cd24/p1/jacobi", 0x8616218513287338, 129, 0x3e7605a1fb5392e5, "None", 0x3fe36cd52242c9fc, 0, 0, 0x00006b72796c6f76),
    ("cd24/p2/ilut", 0x3d7f5cf416ff5dbc, 13, 0x3e7052c5b48fd902, "None", 0x3fa2d055a646853c, 668, 23120, 0x71a5169d23993226),
    ("cd24/p2/jacobi", 0x34da9d98e95a4252, 129, 0x3e7605a1fb52016c, "None", 0x3fd54572ef665845, 3062, 76576, 0x0412495502a0e329),
    ("cd24/p4/ilut", 0x55fa3296bbdac75b, 14, 0x3e623b899b1f9a4b, "None", 0x3f9b66501617eebe, 2725, 56600, 0x9e361e9e6ada32a0),
    ("cd24/p4/jacobi", 0x2c0abc312c469c83, 129, 0x3e7605a1fbdf3a72, "None", 0x3fcacf0a1bbd19b5, 9706, 171712, 0x17b38ce3ffdffcb1),
    ("torso8/p1/ilut", 0x373175415097a864, 8, 0x3e6f87c58a1d9e0f, "None", 0x3f7d32a0161b2e29, 0, 0, 0x00006b72796c6f76),
    ("torso8/p1/jacobi", 0xdf955bef952bb356, 19, 0x3e743afdc39b9bba, "None", 0x3f927dedebde038e, 0, 0, 0x00006b72796c6f76),
    ("torso8/p2/ilut", 0x49c6dae9422d1728, 8, 0x3e6fc25abfd4a04c, "None", 0x3f7a9349b7c728d0, 437, 14456, 0x3599bcc6eea5bb6b),
    ("torso8/p2/jacobi", 0x06c3942332006383, 19, 0x3e743afdc385f951, "None", 0x3f8aa566b4e87ec6, 426, 10048, 0xbca427e549e73181),
    ("torso8/p4/ilut", 0xc7ffc301eef81eb5, 8, 0x3e717991e353f44b, "None", 0x3f7b6e09ae578f9a, 1657, 39208, 0x706557e0094eb7c3),
    ("torso8/p4/jacobi", 0x3f55cb7b3fd432e9, 19, 0x3e743afdc3b8d8b8, "None", 0x3f89e575d9a67eaa, 1358, 24128, 0x893fee917452a1bf),
];

#[test]
fn dist_gmres_matches_the_recorded_fingerprints() {
    let mut seen: Vec<DistRow> = Vec::new();
    let mut tag_dump = String::new();
    for (name, a) in matrices() {
        let b_global = rhs(&a);
        for p in [1usize, 2, 4] {
            for pname in ["ilut", "jacobi"] {
                let dm = DistMatrix::from_matrix(a.clone(), p, 23);
                let out = Machine::run_checked(p, MachineModel::cray_t3d(), |ctx| {
                    let local = dm.local_view(ctx.rank());
                    let mut op = DistCsr::new(ctx, &dm, &local);
                    let b: Vec<f64> = local.nodes.iter().map(|&g| b_global[g]).collect();
                    let mut pre: Box<dyn DistPrecond> = if pname == "ilut" {
                        let rf = par_ilut(ctx, &dm, &local, &ilut_opts()).unwrap();
                        Box::new(DistIlu::new(ctx, &dm, &local, rf))
                    } else {
                        Box::new(DistDiagonal::new(&dm, &local))
                    };
                    dist_gmres(ctx, &mut op, &local, pre.as_mut(), &b, &opts())
                });
                let r0 = &out.results[0];
                for r in &out.results {
                    assert_eq!(r.matvecs, r0.matvecs, "replicated scalars diverged");
                    assert_eq!(r.rel_residual.to_bits(), r0.rel_residual.to_bits());
                    assert_eq!(r.breakdown, r0.breakdown);
                }
                let x = out
                    .results
                    .iter()
                    .fold(SEED, |h, r| fold_f64s(h, &r.x_local));
                let tags = out
                    .stats
                    .by_tag
                    .iter()
                    .fold(SEED, |h, (&t, &(m, by))| fold(fold(fold(h, t), m), by));
                let case = format!("{name}/p{p}/{pname}");
                tag_dump.push_str(&format!("    {case}: {:?}\n", out.stats.by_tag));
                seen.push((
                    case,
                    x,
                    r0.matvecs,
                    r0.rel_residual.to_bits(),
                    format!("{:?}", r0.breakdown),
                    out.sim_time.to_bits(),
                    out.stats.messages,
                    out.stats.bytes,
                    tags,
                ));
            }
        }
    }
    let want: Vec<DistRow> = DIST
        .iter()
        .map(|&(c, x, mv, rel, bd, t, m, by, tg)| {
            (c.to_string(), x, mv, rel, bd.to_string(), t, m, by, tg)
        })
        .collect();
    assert!(
        seen == want,
        "distributed fingerprints moved; observed:\n{}per-tag (messages, bytes):\n{tag_dump}",
        seen.iter()
            .map(|(c, x, mv, rel, bd, t, m, by, tg)| format!(
                "    ({c:?}, {x:#018x}, {mv}, {rel:#018x}, {bd:?}, {t:#018x}, {m}, {by}, {tg:#018x}),\n"
            ))
            .collect::<String>()
    );
}
