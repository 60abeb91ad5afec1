//! Integration tests of the parallel ILUT/ILUT* factorization and the
//! parallel triangular solves, cross-checked against the serial algorithms.

use pilut_core::dist::DistMatrix;
use pilut_core::options::{FactorError, IlutOptions};
use pilut_core::parallel::{par_ilut, RankFactors};
use pilut_core::serial::ilut_with_stats;
use pilut_core::trisolve::{dist_solve_into, SolveScratch, TrisolvePlan};
use pilut_par::{Machine, MachineModel};
use pilut_sparse::vec_ops::norm2;
use pilut_sparse::{gen, CsrMatrix};

/// Runs the parallel factorization and solves `LUx = b`; returns
/// (x in global numbering, per-rank factors).
#[expect(clippy::expect_used, reason = "the test matrices factor cleanly")]
fn factor_and_solve(
    a: &CsrMatrix,
    p: usize,
    opts: &IlutOptions,
    b_global: &[f64],
) -> (Vec<f64>, Vec<RankFactors>) {
    let dm = DistMatrix::from_matrix(a.clone(), p, 17);
    let out = Machine::run_checked(p, MachineModel::cray_t3d(), |ctx| {
        let local = dm.local_view(ctx.rank());
        let rf = par_ilut(ctx, &dm, &local, opts).expect("factorization failed");
        let plan = TrisolvePlan::build(ctx, &dm, &local, &rf);
        let b_local: Vec<f64> = local.nodes.iter().map(|&g| b_global[g]).collect();
        let mut scratch = SolveScratch::build(&local, &plan);
        let mut x_local = vec![0.0; local.len()];
        dist_solve_into(
            ctx,
            &local,
            &rf,
            &plan,
            &b_local,
            &mut scratch,
            &mut x_local,
        );
        (local.nodes.clone(), x_local, rf)
    });
    let mut x = vec![f64::NAN; a.n_rows()];
    let mut factors = Vec::new();
    for (nodes, xl, rf) in out.results {
        for (g, v) in nodes.into_iter().zip(xl) {
            x[g] = v;
        }
        factors.push(rf);
    }
    (x, factors)
}

fn rel_residual(a: &CsrMatrix, x: &[f64], b: &[f64]) -> f64 {
    let ax = a.spmv_owned(x);
    let r: Vec<f64> = ax.iter().zip(b).map(|(y, bi)| y - bi).collect();
    norm2(&r) / norm2(b)
}

/// Serial ILUT is the one-rank case of the parallel factorization by
/// construction (same row kernel, same store), so the two agree in every
/// bit of every entry and in the flop count — including on the TORSO-like
/// inputs, whose rows are full of magnitude ties at the fill cap.
#[test]
fn single_rank_matches_serial_ilut() {
    let inputs = [
        ("cd 8x8", gen::convection_diffusion_2d(8, 8, 4.0, -3.0)),
        ("torso(8)", gen::torso(8)),
        ("fem_torso(12,1)", gen::fem_torso(12, 1)),
        ("g40(1)", gen::g40(1)),
    ];
    let bits = |(c, v): (usize, f64)| (c, v.to_bits());
    for (name, a) in inputs {
        for opts in [
            IlutOptions::new(5, 1e-2),
            IlutOptions::new(10, 1e-4),
            IlutOptions::new(20, 1e-6),
        ] {
            let what = format!("{name} {}", opts.name());
            let (serial, stats) = ilut_with_stats(&a, &opts).unwrap();
            let dm = DistMatrix::from_matrix(a.clone(), 1, 1);
            let out = Machine::run_checked(1, MachineModel::cray_t3d(), |ctx| {
                let local = dm.local_view(0);
                par_ilut(ctx, &dm, &local, &opts).unwrap()
            });
            let rf = &out.results[0];
            assert_eq!(rf.interior.len(), a.n_rows());
            assert!(rf.levels.is_empty(), "no interface nodes on one rank");
            for i in 0..a.n_rows() {
                let row = rf.row(i).expect("one rank owns every row");
                let l = row.l().map(bits);
                assert!(l.eq(serial.l_row(i).map(bits)), "{what}: L row {i}");
                assert_eq!(
                    row.diag().to_bits(),
                    serial.diag(i).to_bits(),
                    "{what}: diag {i}"
                );
                let u = row.u().map(bits);
                assert!(u.eq(serial.u_row(i).map(bits)), "{what}: U row {i}");
            }
            assert_eq!(
                rf.stats.flops.to_bits(),
                stats.flops.to_bits(),
                "{what}: flops"
            );
        }
    }
}

#[test]
fn no_dropping_gives_exact_solve_2d() {
    let a = gen::laplace_2d(10, 10);
    let n = a.n_rows();
    let x_true: Vec<f64> = (0..n).map(|i| ((i * 7) % 11) as f64 - 5.0).collect();
    let b = a.spmv_owned(&x_true);
    for p in [2, 4] {
        let (x, _) = factor_and_solve(&a, p, &IlutOptions::new(n, 0.0), &b);
        let err: f64 = x
            .iter()
            .zip(&x_true)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max);
        assert!(err < 1e-8, "p={p}: max error {err}");
    }
}

#[test]
fn no_dropping_gives_exact_solve_torso() {
    let a = gen::fem_torso(8, 2);
    let n = a.n_rows();
    let x_true: Vec<f64> = (0..n).map(|i| (i as f64 * 0.31).cos()).collect();
    let b = a.spmv_owned(&x_true);
    let (x, factors) = factor_and_solve(&a, 3, &IlutOptions::new(n, 0.0), &b);
    let err: f64 = x
        .iter()
        .zip(&x_true)
        .map(|(a, b)| (a - b).abs())
        .fold(0.0, f64::max);
    assert!(err < 1e-7, "max error {err}");
    // Every node factored exactly once across ranks.
    let total: usize = factors.iter().map(|f| f.n_rows()).sum();
    assert_eq!(total, n);
}

#[test]
fn dropped_factorization_is_a_useful_preconditioner() {
    let a = gen::convection_diffusion_2d(14, 14, 8.0, 2.0);
    let n = a.n_rows();
    let x_true = vec![1.0; n];
    let b = a.spmv_owned(&x_true);
    let (x, _) = factor_and_solve(&a, 4, &IlutOptions::new(8, 1e-4), &b);
    // One application of an incomplete factorization is not exact but must
    // be a solid approximation on this well-behaved problem.
    let res = rel_residual(&a, &x, &b);
    assert!(
        res < 0.5,
        "relative residual {res} too poor for a preconditioner"
    );
}

#[test]
fn every_interface_node_lands_in_exactly_one_level() {
    let a = gen::laplace_2d(12, 12);
    let dm = DistMatrix::from_matrix(a, 4, 17);
    let opts = IlutOptions::new(5, 1e-2);
    let out = Machine::run_checked(4, MachineModel::cray_t3d(), |ctx| {
        let local = dm.local_view(ctx.rank());
        let rf = par_ilut(ctx, &dm, &local, &opts).unwrap();
        (local.interface.clone(), rf)
    });
    let mut q = None;
    for (interface, rf) in &out.results {
        // Same number of global levels on every rank.
        match q {
            None => q = Some(rf.levels.len()),
            Some(q0) => assert_eq!(rf.levels.len(), q0, "level counts disagree"),
        }
        let mut seen: Vec<usize> = rf.levels.iter().flatten().copied().collect();
        seen.sort_unstable();
        let mut expect = interface.clone();
        expect.sort_unstable();
        assert_eq!(seen, expect, "interface nodes must be covered exactly once");
    }
    assert!(
        q.unwrap() >= 1,
        "a 4-way split has interface nodes to factor"
    );
}

#[test]
fn deterministic_given_seed() {
    // Ten runs each: levels, every rank's flop count and the logical clock
    // must repeat to the bit. (Before the reduced rows were visited in
    // ascending position, Algorithm 4.2 charged the clock in `HashMap`
    // order and `sim_time` moved in its last digits from run to run.)
    let a = gen::fem_torso(12, 1);
    for opts in [IlutOptions::new(20, 1e-6), IlutOptions::star(20, 1e-6, 2)] {
        for p in [2, 4] {
            let run = || {
                let dm = DistMatrix::from_matrix(a.clone(), p, 17);
                let out = Machine::run_checked(p, MachineModel::cray_t3d(), |ctx| {
                    let local = dm.local_view(ctx.rank());
                    let rf = par_ilut(ctx, &dm, &local, &opts).unwrap();
                    (rf.levels.clone(), rf.stats.flops.to_bits())
                });
                (out.results, out.sim_time.to_bits())
            };
            let first = run();
            for rep in 1..10 {
                assert_eq!(run(), first, "{} p={p} rep {rep}", opts.name());
            }
        }
    }
}

#[test]
fn factor_store_keeps_no_slack() {
    // The store must hold the factor and little else: 16 B per entry
    // (slot + value), 24 B per row (two row pointers + pivot), 10 % for
    // the node, ghost and level lists. Rows that kept the capacity of
    // their pre-drop working row blew this ~2x.
    let a = gen::fem_torso(12, 1);
    let dm = DistMatrix::from_matrix(a, 2, 17);
    let opts = IlutOptions::new(20, 1e-6);
    let out = Machine::run_checked(2, MachineModel::cray_t3d(), |ctx| {
        let local = dm.local_view(ctx.rank());
        par_ilut(ctx, &dm, &local, &opts).unwrap()
    });
    for rf in &out.results {
        let entries = rf.stats.nnz_l + rf.stats.nnz_u;
        let ideal = 16 * entries + 24 * rf.n_rows();
        let held = rf.heap_bytes();
        assert!(
            held as f64 <= 1.1 * ideal as f64,
            "rank {}: holds {held} B for an ideal of {ideal} B",
            rf.rank
        );
    }
}

/// Builds the 4×4 matrix whose row 2 has no diagonal and no lower
/// couplings: no elimination can fill its pivot.
fn singular_4x4() -> pilut_sparse::CsrMatrix {
    let mut coo = pilut_sparse::CooMatrix::new(4, 4);
    coo.push(0, 0, 2.0);
    coo.push(0, 1, -1.0);
    coo.push(1, 0, -1.0);
    coo.push(1, 1, 2.0);
    coo.push(2, 3, 1.0);
    coo.push(3, 3, 2.0);
    coo.to_csr()
}

#[test]
fn zero_pivot_reported_on_all_ranks() {
    // The factorization must fail on every rank: the owner of row 2 with
    // the detailed error, its peers with a RankFailure naming the owner.
    let dm = DistMatrix::from_matrix(singular_4x4(), 2, 5);
    let opts = IlutOptions::new(6, 0.0);
    let out = Machine::run_checked(2, MachineModel::cray_t3d(), |ctx| {
        let local = dm.local_view(ctx.rank());
        par_ilut(ctx, &dm, &local, &opts)
    });
    let mut owner = None;
    for (rank, r) in out.results.iter().enumerate() {
        match r {
            Err(FactorError::StructurallySingular { row: 2 }) => {
                assert!(owner.replace(rank).is_none(), "one owner expected");
            }
            Err(FactorError::RankFailure { rank: o }) => {
                assert_ne!(*o, rank, "a peer never names itself");
            }
            other => panic!("expected a factorization failure on every rank, got {other:?}"),
        }
    }
    let owner = owner.expect("some rank must report the detailed error");
    for (rank, r) in out.results.iter().enumerate() {
        if rank != owner {
            assert!(
                matches!(r, Err(FactorError::RankFailure { rank: o }) if *o == owner),
                "rank {rank} should name rank {owner}, got {r:?}"
            );
        }
    }
}

#[test]
fn shift_recovers_the_singular_matrix_in_parallel() {
    use pilut_core::options::BreakdownPolicy;
    let dm = DistMatrix::from_matrix(singular_4x4(), 2, 5);
    let opts = IlutOptions::new(6, 0.0).with_breakdown(BreakdownPolicy::Shift);
    let out = Machine::run_checked(2, MachineModel::cray_t3d(), |ctx| {
        let local = dm.local_view(ctx.rank());
        par_ilut(ctx, &dm, &local, &opts).unwrap()
    });
    let repaired: usize = out
        .results
        .iter()
        .map(|rf| rf.stats.breakdowns_repaired)
        .sum();
    assert_eq!(repaired, 1, "exactly row 2 needed repair");
    for rf in &out.results {
        for (v, row) in rf.rows() {
            assert!(
                row.diag().is_finite() && row.diag() != 0.0,
                "row {v} pivot unusable after repair"
            );
        }
    }
}

#[test]
fn ilut_star_uses_no_more_levels_than_ilut() {
    // A 3-D problem with a small threshold generates enough interface fill
    // for the reduced matrices to densify — the regime ILUT* targets.
    let a = gen::laplace_3d(7, 7, 7);
    let run = |opts: IlutOptions| {
        let dm = DistMatrix::from_matrix(a.clone(), 4, 17);
        let out = Machine::run_checked(4, MachineModel::cray_t3d(), |ctx| {
            let local = dm.local_view(ctx.rank());
            let rf = par_ilut(ctx, &dm, &local, &opts).unwrap();
            (rf.stats.levels, rf.stats.reduced_nnz_peak)
        });
        let levels = out.results[0].0;
        let peak: usize = out.results.iter().map(|r| r.1).sum();
        (levels, peak)
    };
    let (q_ilut, peak_ilut) = run(IlutOptions::new(10, 1e-6));
    let (q_star, peak_star) = run(IlutOptions::star(10, 1e-6, 2));
    assert!(
        q_star <= q_ilut,
        "ILUT* levels {q_star} > ILUT levels {q_ilut}"
    );
    assert!(
        peak_star <= peak_ilut,
        "ILUT* reduced fill {peak_star} > ILUT {peak_ilut}"
    );
}

#[test]
fn solve_roundtrip_repeatable_for_gmres_use() {
    // Two successive solves with the same plan and scratch must agree —
    // the message protocol has to stay aligned across repeated solves.
    let a = gen::laplace_2d(9, 9);
    let dm = DistMatrix::from_matrix(a.clone(), 3, 7);
    let opts = IlutOptions::new(5, 1e-3);
    let out = Machine::run_checked(3, MachineModel::cray_t3d(), |ctx| {
        let local = dm.local_view(ctx.rank());
        let rf = par_ilut(ctx, &dm, &local, &opts).unwrap();
        let plan = TrisolvePlan::build(ctx, &dm, &local, &rf);
        let b: Vec<f64> = local.nodes.iter().map(|&g| (g as f64).sin()).collect();
        let mut scratch = SolveScratch::build(&local, &plan);
        let (mut x1, mut x2) = (vec![0.0; local.len()], vec![0.0; local.len()]);
        dist_solve_into(ctx, &local, &rf, &plan, &b, &mut scratch, &mut x1);
        dist_solve_into(ctx, &local, &rf, &plan, &b, &mut scratch, &mut x2);
        (x1, x2)
    });
    for (x1, x2) in out.results {
        assert_eq!(x1, x2);
    }
}
