//! Scaling study: how factorization and triangular-solve times scale with
//! the processor count, and how ILUT\* changes the picture — a miniature of
//! the paper's Figures 4–6 runnable in seconds.
//!
//! Run with: `cargo run --release --example scaling_study`

use pilut::core::dist::DistMatrix;
use pilut::core::options::IlutOptions;
use pilut::core::parallel::par_ilut;
use pilut::par::{Machine, MachineModel};
use pilut::solver::dist_gmres::{DistIlu, DistPrecond};
use pilut::sparse::gen;

fn measure(a: &pilut::sparse::CsrMatrix, p: usize, opts: &IlutOptions) -> (f64, f64, usize) {
    let dm = DistMatrix::from_matrix(a.clone(), p, 17);
    let out = Machine::run(p, MachineModel::cray_t3d(), |ctx| {
        let local = dm.local_view(ctx.rank());
        ctx.barrier();
        let t0 = ctx.time();
        let rf = par_ilut(ctx, &dm, &local, opts).expect("factorization failed");
        ctx.barrier();
        let t_factor = ctx.time() - t0;
        let levels = rf.stats.levels;
        let mut pre = DistIlu::new(ctx, &dm, &local, rf);
        let b = vec![1.0; local.len()];
        let mut x = vec![0.0; local.len()];
        ctx.barrier();
        let t1 = ctx.time();
        pre.apply_into(ctx, &local, &b, &mut x);
        ctx.barrier();
        (t_factor, ctx.time() - t1, levels)
    });
    let tf = out.results.iter().map(|r| r.0).fold(0.0, f64::max);
    let ts = out.results.iter().map(|r| r.1).fold(0.0, f64::max);
    (tf, ts, out.results[0].2)
}

fn main() {
    let a = gen::laplace_3d(20, 20, 20);
    println!(
        "20^3 Laplacian: {} unknowns, {} nonzeros\n",
        a.n_rows(),
        a.nnz()
    );
    for opts in [IlutOptions::new(10, 1e-6), IlutOptions::star(10, 1e-6, 2)] {
        println!("{}:", opts.name());
        println!(
            "  {:>4} | {:>12} | {:>9} | {:>12} | {:>9} | {:>4}",
            "p", "factor (s)", "speedup", "solve (s)", "speedup", "q"
        );
        let mut base: Option<(f64, f64)> = None;
        for p in [2usize, 4, 8, 16, 32] {
            let (tf, ts, q) = measure(&a, p, &opts);
            let (bf, bs) = *base.get_or_insert((tf, ts));
            println!(
                "  {p:>4} | {tf:>12.4} | {:>8.2}x | {ts:>12.5} | {:>8.2}x | {q:>4}",
                bf / tf,
                bs / ts
            );
        }
        println!();
    }
    println!("(simulated Cray T3D seconds; ILUT* should scale further before the");
    println!(" interface work and its q synchronisation points dominate)");
}
