//! Parity tests: the parallel triangular solve against the serial one on
//! a single rank, and the two sweeps composed across ranks.

use pilut_core::dist::{DistMatrix, LocalView};
use pilut_core::options::IlutOptions;
use pilut_core::parallel::{par_ilut, RankFactors};
use pilut_core::serial::ilut;
use pilut_core::trisolve::{dist_solve_into, SolveScratch, TrisolvePlan};
use pilut_par::{Ctx, Machine, MachineModel};
use pilut_sparse::gen;

/// One forward + backward solve of `b` into a fresh vector.
fn solve(
    ctx: &mut Ctx,
    local: &LocalView,
    rf: &RankFactors,
    plan: &TrisolvePlan,
    b: &[f64],
) -> Vec<f64> {
    let mut scratch = SolveScratch::build(local, plan);
    let mut x = vec![0.0; local.len()];
    dist_solve_into(ctx, local, rf, plan, b, &mut scratch, &mut x);
    x
}

/// On one rank the parallel solve must agree with the serial factor solve
/// bit for bit: serial `ilut` is the one-rank `par_ilut`, the local-view
/// order is the natural order, and both sweep the one factor store row by
/// row in that order (DESIGN §2.5).
#[test]
fn single_rank_sweeps_match_serial() {
    let a = gen::convection_diffusion_2d(9, 9, 5.0, -2.0);
    let opts = IlutOptions::new(6, 1e-3);
    let serial = ilut(&a, &opts).unwrap();
    let b: Vec<f64> = (0..a.n_rows())
        .map(|i| ((i * 13) % 7) as f64 - 3.0)
        .collect();
    let x_serial = serial.solve(&b);

    let dm = DistMatrix::from_matrix(a, 1, 1);
    let out = Machine::run_checked(1, MachineModel::cray_t3d(), |ctx| {
        let local = dm.local_view(0);
        let rf = par_ilut(ctx, &dm, &local, &opts).unwrap();
        let plan = TrisolvePlan::build(ctx, &dm, &local, &rf);
        solve(ctx, &local, &rf, &plan, &b)
    });
    let x = &out.results[0];
    for i in 0..b.len() {
        assert_eq!(x[i].to_bits(), x_serial[i].to_bits(), "row {i}");
    }
}

/// Forward then backward across several ranks inverts the factored
/// operator exactly when nothing is dropped (complete LU).
#[test]
fn multi_rank_forward_backward_compose() {
    let a = gen::fem_torso(10, 4);
    let n = a.n_rows();
    let opts = IlutOptions::new(n, 0.0);
    let x_true: Vec<f64> = (0..n).map(|i| 1.0 + (i % 4) as f64).collect();
    let b_global = a.spmv_owned(&x_true);
    let dm = DistMatrix::from_matrix(a, 4, 13);
    let out = Machine::run_checked(4, MachineModel::cray_t3d(), |ctx| {
        let local = dm.local_view(ctx.rank());
        let rf = par_ilut(ctx, &dm, &local, &opts).unwrap();
        let plan = TrisolvePlan::build(ctx, &dm, &local, &rf);
        let b: Vec<f64> = local.nodes.iter().map(|&g| b_global[g]).collect();
        let x = solve(ctx, &local, &rf, &plan, &b);
        (local.nodes.clone(), x)
    });
    for (nodes, x) in out.results {
        for (g, v) in nodes.into_iter().zip(x) {
            assert!(
                (v - x_true[g]).abs() < 1e-7,
                "node {g}: {v} vs {}",
                x_true[g]
            );
        }
    }
}

/// The solve's simulated cost grows with the level count: the same problem
/// factored with a dense-reduced-matrix ILUT (more levels) must have a
/// costlier substitution than ILUT* (fewer levels) at equal machine model —
/// the paper's Table 2 effect.
#[test]
fn more_levels_cost_more_simulated_time() {
    let a = gen::laplace_3d(10, 10, 10);
    let p = 8;
    let time_of = |opts: IlutOptions| {
        let dm = DistMatrix::from_matrix(a.clone(), p, 17);
        let out = Machine::run_checked(p, MachineModel::cray_t3d(), |ctx| {
            let local = dm.local_view(ctx.rank());
            let rf = par_ilut(ctx, &dm, &local, &opts).unwrap();
            let plan = TrisolvePlan::build(ctx, &dm, &local, &rf);
            let b = vec![1.0; local.len()];
            ctx.barrier();
            let t0 = ctx.time();
            solve(ctx, &local, &rf, &plan, &b);
            ctx.barrier();
            (ctx.time() - t0, rf.stats.levels)
        });
        let t = out.results.iter().map(|r| r.0).fold(0.0, f64::max);
        (t, out.results[0].1)
    };
    let (t_ilut, q_ilut) = time_of(IlutOptions::new(10, 1e-6));
    let (t_star, q_star) = time_of(IlutOptions::star(10, 1e-6, 2));
    assert!(
        q_ilut > q_star,
        "expected ILUT to need more levels: {q_ilut} vs {q_star}"
    );
    assert!(
        t_ilut > t_star,
        "substitution with more levels should cost more: {t_ilut} vs {t_star}"
    );
}
