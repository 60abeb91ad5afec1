//! The level loop leaves the registered `f64` buffer pool alone: a level
//! plan ships frames, never values, so a factorization neither warms a
//! class nor draws from one. One test, alone in its process — the pool is
//! process-wide, and a neighbouring test building a halo would move it.

use pilut_core::dist::DistMatrix;
use pilut_core::options::IlutOptions;
use pilut_core::parallel::par_ilut;
use pilut_par::{pool, Machine, MachineModel};
use pilut_sparse::gen;

#[test]
fn par_ilut_adds_nothing_to_and_draws_nothing_from_the_f64_pool() {
    // Every size class a link of this factorization could fall in (a link
    // lists at most the other ranks' interface nodes, far below 2^16).
    let shelved = || -> Vec<usize> { (0..=16).map(|c| pool::pooled_f64(1 << c)).collect() };
    let dm = DistMatrix::from_matrix(gen::fem_torso(12, 1), 4, 17);
    let opts = IlutOptions::new(20, 1e-6);
    // A machine launch tops the scalar class up: baseline after one.
    Machine::run(4, MachineModel::cray_t3d(), |ctx| ctx.barrier());
    let before = shelved();
    let out = Machine::run(4, MachineModel::cray_t3d(), |ctx| {
        let local = dm.local_view(ctx.rank());
        let rf = par_ilut(ctx, &dm, &local, &opts).expect("factorization failed");
        rf.stats.levels
    });
    assert!(out.results[0] > 1, "the level loop must have built plans");
    assert_eq!(shelved(), before);
}
