//! ECG torso scenario: the paper's TORSO workload end to end.
//!
//! Builds the inhomogeneous 3-D "human thorax" Laplace problem (heart /
//! lungs / muscle conductivities), distributes it over 8 simulated
//! processors with the multilevel k-way partitioner, factors it in parallel
//! with ILUT and ILUT\*, and solves with distributed GMRES(50) — reporting
//! the quantities the paper reports: interface fraction, independent-set
//! count q, simulated factor/solve times, and matvec counts.
//!
//! Run with: `cargo run --release --example torso_ecg`

use pilut::core::dist::op::{DistCsr, DistOperator};
use pilut::core::dist::DistMatrix;
use pilut::core::options::IlutOptions;
use pilut::core::parallel::par_ilut;
use pilut::par::{Machine, MachineModel};
use pilut::solver::dist_gmres::{dist_gmres, DistIlu};
use pilut::solver::gmres::GmresOptions;
use pilut::sparse::gen;

fn main() {
    let p = 8;
    let a = gen::fem_torso(28, 0x70_72_73_6f);
    println!(
        "TORSO surrogate: {} unknowns, {} nonzeros",
        a.n_rows(),
        a.nnz()
    );

    let dm = DistMatrix::from_matrix(a, p, 17);
    println!(
        "partitioned over {p} processors: {} interface nodes ({:.1}% of the mesh)",
        dm.total_interface(),
        100.0 * dm.total_interface() as f64 / dm.n() as f64
    );

    for opts in [IlutOptions::new(10, 1e-4), IlutOptions::star(10, 1e-4, 2)] {
        let out = Machine::run(p, MachineModel::cray_t3d(), |ctx| {
            let local = dm.local_view(ctx.rank());
            let mut op = DistCsr::new(ctx, &dm, &local);

            ctx.barrier();
            let t0 = ctx.time();
            #[expect(
                clippy::expect_used,
                reason = "a rank body has no caller to hand the error to"
            )]
            let rf = par_ilut(ctx, &dm, &local, &opts).expect("factorization failed");
            ctx.barrier();
            let t_factor = ctx.time() - t0;
            let q = rf.stats.levels;

            let ones = vec![1.0; local.len()];
            let mut b = vec![0.0; local.len()];
            op.apply_into(ctx, &ones, &mut b);
            let mut pre = DistIlu::new(ctx, &dm, &local, rf);
            let gopts = GmresOptions {
                restart: 50,
                rtol: 1e-7,
                max_matvecs: 2000,
            };
            ctx.barrier();
            let t1 = ctx.time();
            let r = dist_gmres(ctx, &mut op, &local, &mut pre, &b, &gopts);
            ctx.barrier();
            let t_solve = ctx.time() - t1;
            (t_factor, t_solve, q, r.matvecs, r.converged)
        });
        let (tf, ts, q, nmv, conv) = out.results[0];
        println!(
            "{:<18} factor {:.3}s (q = {q:>3})   GMRES(50) solve {:.3}s, NMV = {nmv}, converged = {conv}",
            opts.name(),
            tf,
            ts
        );
    }
    println!("\n(times are simulated Cray T3D seconds from the pilut-par cost model)");
}
