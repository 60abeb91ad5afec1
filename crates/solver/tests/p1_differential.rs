//! The serial solver is the one-rank distributed solver: `dist_gmres` with
//! `DistDiagonal` on a p = 1 machine and `gmres` with
//! `DiagonalPreconditioner` run the same kernel (`solver::krylov`) — the
//! serial space reduces by identity, a one-rank all-reduce is the identity
//! — so they agree bitwise in the solution, the matvec count and the whole
//! residual history.

use pilut_core::dist::op::DistCsr;
use pilut_core::dist::DistMatrix;
use pilut_core::precond::DiagonalPreconditioner;
use pilut_par::{Machine, MachineModel};
use pilut_solver::dist_gmres::{dist_gmres, DistDiagonal};
use pilut_solver::gmres::{gmres, GmresOptions};
use pilut_sparse::gen;

#[test]
fn one_rank_dist_gmres_equals_serial_gmres_bitwise() {
    let opts = GmresOptions {
        restart: 20,
        ..Default::default()
    };
    for a in [
        gen::convection_diffusion_2d(24, 24, 10.0, 20.0),
        gen::torso(8),
    ] {
        let n = a.n_rows();
        let x_true: Vec<f64> = (0..n).map(|i| 1.0 + (i % 3) as f64).collect();
        let b_global = a.spmv_owned(&x_true);
        let serial = gmres(&a, &b_global, &DiagonalPreconditioner::new(&a), &opts);

        let dm = DistMatrix::from_matrix(a, 1, 23);
        let out = Machine::run_checked(1, MachineModel::cray_t3d(), |ctx| {
            let local = dm.local_view(ctx.rank());
            let mut op = DistCsr::new(ctx, &dm, &local);
            let b: Vec<f64> = local.nodes.iter().map(|&g| b_global[g]).collect();
            let mut pre = DistDiagonal::new(&dm, &local);
            let r = dist_gmres(ctx, &mut op, &local, &mut pre, &b, &opts);
            (local.nodes.clone(), r)
        });
        let (nodes, dist) = &out.results[0];

        // The one rank owns every row, in local-view order.
        let mut x = vec![f64::NAN; n];
        for (&g, &v) in nodes.iter().zip(&dist.x_local) {
            x[g] = v;
        }
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
        assert_eq!(bits(&x), bits(&serial.x), "solutions differ");
        assert_eq!(dist.matvecs, serial.matvecs);
        assert_eq!(
            bits(&dist.history),
            bits(&serial.history),
            "histories differ"
        );
        assert!(serial.converged && dist.converged);
        assert_eq!(
            serial.history.len(),
            serial.matvecs + 1,
            "‖b‖, then one entry per matvec"
        );
    }
}
