//! The level loop leaves the registered `f64` buffer pool alone: a level
//! plan ships frames, never values, so a factorization neither warms a
//! class nor draws from one. The pool is the run's own, so every rank reads
//! the shelf of its run before and after the factorization, whatever else
//! runs in the process.

use pilut_core::dist::DistMatrix;
use pilut_core::options::IlutOptions;
use pilut_core::parallel::par_ilut;
use pilut_par::{Ctx, Machine, MachineModel};
use pilut_sparse::gen;

#[test]
fn par_ilut_adds_nothing_to_and_draws_nothing_from_the_f64_pool() {
    // Every size class a link of this factorization could fall in (a link
    // lists at most the other ranks' interface nodes, far below 2^16).
    let shelved =
        |ctx: &Ctx| -> Vec<usize> { (0..=16).map(|c| ctx.pool().available(1 << c)).collect() };
    let dm = DistMatrix::from_matrix(gen::fem_torso(12, 1), 4, 17);
    let opts = IlutOptions::new(20, 1e-6);
    let out = Machine::run(4, MachineModel::cray_t3d(), |ctx| {
        // No rank draws from the shelf before or during the factorization,
        // so both reads are exact whatever the other ranks are doing.
        let before = shelved(ctx);
        let local = dm.local_view(ctx.rank());
        let rf = par_ilut(ctx, &dm, &local, &opts).expect("factorization failed");
        (before, shelved(ctx), rf.stats.levels)
    });
    for (rank, (before, after, levels)) in out.results.into_iter().enumerate() {
        assert!(levels > 1, "the level loop must have built plans");
        assert!(
            before[0] > 0,
            "the run's scalar class is warm from the start"
        );
        assert_eq!(after, before, "rank {rank}");
    }
}
