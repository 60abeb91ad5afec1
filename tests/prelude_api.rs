//! Smoke test of the one-import public API surface.

use pilut::prelude::*;

#[test]
fn the_whole_pipeline_is_reachable_from_the_prelude() {
    // Serial path.
    let a = gen::convection_diffusion_2d(10, 10, 5.0, 2.0);
    let stats = MatrixStats::of(&a);
    assert_eq!(stats.n, 100);
    let f = ilut(&a, &IlutOptions::new(6, 1e-3)).unwrap();
    let b = a.spmv_owned(&vec![1.0; 100]);
    let r = gmres(&a, &b, &IluPreconditioner::new(f), &GmresOptions::default());
    assert!(r.converged);

    // Distributed path: a complete factorization (`m = n`, `t = 0`) on two
    // ranks, applied through `DistIlu`, solves `A x = A·1` exactly.
    let dm = DistMatrix::from_matrix(a.clone(), 2, 1);
    let out = Machine::run_checked(2, MachineModel::cray_t3d(), |ctx| {
        let local = dm.local_view(ctx.rank());
        let rf = par_ilut(ctx, &dm, &local, &IlutOptions::new(100, 0.0)).unwrap();
        let mut pre = DistIlu::new(ctx, &dm, &local, rf);
        let bl: Vec<f64> = local.nodes.iter().map(|&g| b[g]).collect();
        let mut xl = vec![0.0; local.len()];
        pre.apply_into(ctx, &local, &bl, &mut xl);
        (local.nodes.clone(), xl)
    });
    let mut x = vec![f64::NAN; 100];
    for (nodes, xl) in out.results {
        for (g, v) in nodes.into_iter().zip(xl) {
            x[g] = v;
        }
    }
    for xi in x {
        assert!((xi - 1.0).abs() < 1e-8);
    }
}
