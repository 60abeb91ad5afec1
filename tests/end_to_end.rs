//! Cross-crate end-to-end tests: the full pipeline from matrix generation
//! through partitioning, parallel factorization, and distributed GMRES —
//! plus "shape" checks of the paper's headline claims at test scale.

use pilut::core::dist::op::{DistCsr, DistOperator};
use pilut::core::dist::DistMatrix;
use pilut::core::options::IlutOptions;
use pilut::core::parallel::par_ilut;
use pilut::core::precond::IluPreconditioner;
use pilut::core::serial::ilut;
use pilut::par::{Machine, MachineModel};
use pilut::solver::dist_gmres::{dist_gmres, DistDiagonal, DistIlu, DistPrecond};
use pilut::solver::gmres::{gmres, GmresOptions};
use pilut::sparse::gen;

/// Distributed GMRES reaches the same solution as serial GMRES with the
/// matching serial preconditioner family.
#[test]
fn distributed_solution_matches_serial() {
    let a = gen::convection_diffusion_2d(16, 16, 6.0, 3.0);
    let n = a.n_rows();
    let x_true: Vec<f64> = (0..n).map(|i| ((i % 5) as f64) - 2.0).collect();
    let b = a.spmv_owned(&x_true);
    let gopts = GmresOptions {
        restart: 20,
        rtol: 1e-9,
        max_matvecs: 2000,
    };

    // Serial reference.
    let f = ilut(&a, &IlutOptions::new(8, 1e-3)).unwrap();
    let serial = gmres(&a, &b, &IluPreconditioner::new(f), &gopts);
    assert!(serial.converged);

    // Distributed run on 4 simulated processors.
    let dm = DistMatrix::from_matrix(a.clone(), 4, 29);
    let b2 = b.clone();
    let out = Machine::run_checked(4, MachineModel::cray_t3d(), |ctx| {
        let local = dm.local_view(ctx.rank());
        let mut op = DistCsr::new(ctx, &dm, &local);
        let rf = par_ilut(ctx, &dm, &local, &IlutOptions::new(8, 1e-3)).unwrap();
        let mut pre = DistIlu::new(ctx, &dm, &local, rf);
        let bl: Vec<f64> = local.nodes.iter().map(|&g| b2[g]).collect();
        let r = dist_gmres(ctx, &mut op, &local, &mut pre, &bl, &gopts);
        assert!(r.converged);
        (local.nodes.clone(), r.x_local)
    });
    let mut x = vec![0.0; n];
    for (nodes, xl) in out.results {
        for (g, v) in nodes.into_iter().zip(xl) {
            x[g] = v;
        }
    }
    for i in 0..n {
        assert!(
            (x[i] - x_true[i]).abs() < 1e-5,
            "row {i}: distributed {} vs true {}",
            x[i],
            x_true[i]
        );
    }
}

/// Paper shape: the simulated factorization time decreases with p (it's the
/// point of the paper) at a fixed problem size, for both ILUT and ILUT*.
#[test]
fn simulated_time_shrinks_with_processors() {
    let a = gen::laplace_3d(14, 14, 14);
    for opts in [IlutOptions::new(5, 1e-2), IlutOptions::star(5, 1e-2, 2)] {
        let time = |p: usize| {
            let dm = DistMatrix::from_matrix(a.clone(), p, 17);
            let out = Machine::run_checked(p, MachineModel::cray_t3d(), |ctx| {
                let local = dm.local_view(ctx.rank());
                par_ilut(ctx, &dm, &local, &opts).unwrap();
                ctx.barrier();
                ctx.time()
            });
            out.sim_time
        };
        let t2 = time(2);
        let t8 = time(8);
        assert!(
            t8 < t2 * 0.7,
            "{}: no speedup from 2 to 8 ranks ({t2} vs {t8})",
            opts.name()
        );
    }
}

/// Paper shape (§4.2/§6): at a small threshold, ILUT* is at least as fast
/// as ILUT in simulated time, and needs no more independent sets.
#[test]
fn ilut_star_dominates_at_small_threshold() {
    let a = gen::laplace_3d(12, 12, 12);
    let p = 8;
    let run = |opts: IlutOptions| {
        let dm = DistMatrix::from_matrix(a.clone(), p, 17);
        let out = Machine::run_checked(p, MachineModel::cray_t3d(), |ctx| {
            let local = dm.local_view(ctx.rank());
            let rf = par_ilut(ctx, &dm, &local, &opts).unwrap();
            ctx.barrier();
            (ctx.time(), rf.stats.levels)
        });
        (out.sim_time, out.results[0].1)
    };
    let (t_ilut, q_ilut) = run(IlutOptions::new(10, 1e-6));
    let (t_star, q_star) = run(IlutOptions::star(10, 1e-6, 2));
    assert!(q_star <= q_ilut, "q: {q_star} > {q_ilut}");
    assert!(t_star <= t_ilut * 1.05, "time: {t_star} > {t_ilut}");
}

/// Paper §5: a fwd+bwd substitution costs a small multiple of a matvec —
/// not orders of magnitude more — because the level structure keeps the
/// solves parallel.
#[test]
fn trisolve_cost_is_comparable_to_matvec() {
    let a = gen::laplace_3d(12, 12, 12);
    let p = 4;
    let dm = DistMatrix::from_matrix(a.clone(), p, 17);
    let opts = IlutOptions::star(5, 1e-4, 2);
    let out = Machine::run_checked(p, MachineModel::cray_t3d(), |ctx| {
        let local = dm.local_view(ctx.rank());
        let rf = par_ilut(ctx, &dm, &local, &opts).unwrap();
        let mut pre = DistIlu::new(ctx, &dm, &local, rf);
        let mut op = DistCsr::new(ctx, &dm, &local);
        let b = vec![1.0; local.len()];
        let mut x = vec![0.0; local.len()];
        ctx.barrier();
        let t0 = ctx.time();
        pre.apply_into(ctx, &local, &b, &mut x);
        ctx.barrier();
        let t1 = ctx.time();
        op.apply_into(ctx, &b, &mut x);
        ctx.barrier();
        (t1 - t0, ctx.time() - t1)
    });
    let tri = out.results.iter().map(|r| r.0).fold(0.0, f64::max);
    let mv = out.results.iter().map(|r| r.1).fold(0.0, f64::max);
    assert!(tri > mv, "a two-sweep solve must cost more than one matvec");
    assert!(
        tri < 25.0 * mv,
        "trisolve {tri} vs matvec {mv}: solves degenerated to serial"
    );
}

/// The diagonal baseline loses to parallel ILUT end to end (paper Table 3).
#[test]
fn parallel_ilut_preconditioning_beats_diagonal_end_to_end() {
    let a = gen::fem_torso(14, 9);
    let p = 4;
    let dm = DistMatrix::from_matrix(a.clone(), p, 17);
    let gopts = GmresOptions {
        restart: 10,
        rtol: 1e-7,
        max_matvecs: 4000,
    };
    let run = |use_ilut: bool| {
        let out = Machine::run_checked(p, MachineModel::cray_t3d(), |ctx| {
            let local = dm.local_view(ctx.rank());
            let mut op = DistCsr::new(ctx, &dm, &local);
            let ones = vec![1.0; local.len()];
            let mut b = vec![0.0; local.len()];
            op.apply_into(ctx, &ones, &mut b);
            let mut pre: Box<dyn DistPrecond> = if use_ilut {
                let rf = par_ilut(ctx, &dm, &local, &IlutOptions::new(10, 1e-4)).unwrap();
                Box::new(DistIlu::new(ctx, &dm, &local, rf))
            } else {
                Box::new(DistDiagonal::new(&dm, &local))
            };
            let r = dist_gmres(ctx, &mut op, &local, pre.as_mut(), &b, &gopts);
            (r.matvecs, r.converged)
        });
        out.results[0]
    };
    let (nmv_diag, _) = run(false);
    let (nmv_ilut, conv_ilut) = run(true);
    assert!(conv_ilut);
    assert!(
        nmv_ilut * 2 < nmv_diag,
        "ILUT NMV {nmv_ilut} not clearly better than diagonal {nmv_diag}"
    );
}
