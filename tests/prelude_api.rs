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

    // Distributed path.
    let dm = DistMatrix::from_matrix(a.clone(), 2, 1);
    let out = Machine::run_checked(2, MachineModel::cray_t3d(), |ctx| {
        let local = dm.local_view(ctx.rank());
        let rf = par_ilut(ctx, &dm, &local, &IlutOptions::star(6, 1e-3, 2)).unwrap();
        let plan = TrisolvePlan::build(ctx, &dm, &local, &rf);
        let bl = vec![1.0; local.len()];
        dist_solve(ctx, &local, &rf, &plan, &bl).len()
    });
    assert_eq!(out.results.iter().sum::<usize>(), 100);

    // Assembly utility.
    let out2 = Machine::run_checked(2, MachineModel::cray_t3d(), |ctx| {
        let local = dm.local_view(ctx.rank());
        par_ilut(ctx, &dm, &local, &IlutOptions::new(100, 0.0)).unwrap()
    });
    let asm = assemble_factors(&out2.results, 100);
    let x = asm.solve(&b);
    for xi in x {
        assert!((xi - 1.0).abs() < 1e-8);
    }
}
