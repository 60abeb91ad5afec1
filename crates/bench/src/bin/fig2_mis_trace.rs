//! Figure 2 — the interface nodes being factored by repeatedly taking a
//! maximal independent set of the successively reduced matrices.
//!
//! Prints the per-level trace: how many interface nodes each independent set
//! captured and how many remained, for ILUT and ILUT\* side by side.
//!
//! Usage: `cargo run --release -p pilut-bench --bin fig2_mis_trace`

use pilut_core::dist::DistMatrix;
use pilut_core::options::IlutOptions;
use pilut_core::parallel::par_ilut;
use pilut_par::{Machine, MachineModel};
use pilut_sparse::gen;

fn trace(a: &pilut_sparse::CsrMatrix, p: usize, opts: &IlutOptions) -> Vec<usize> {
    let dm = DistMatrix::from_matrix(a.clone(), p, 17);
    let out = Machine::run(p, MachineModel::cray_t3d(), |ctx| {
        let local = dm.local_view(ctx.rank());
        let rf = par_ilut(ctx, &dm, &local, opts).unwrap();
        rf.levels.iter().map(|l| l.len()).collect::<Vec<usize>>()
    });
    let q = out.results[0].len();
    (0..q)
        .map(|l| out.results.iter().map(|r| r[l]).sum())
        .collect()
}

fn main() {
    let p = 8;
    let a = gen::laplace_3d(12, 12, 12);
    println!("## Figure 2 — repeated MIS factorization of the interface nodes\n");
    println!("12x12x12 Laplacian, {p} domains.\n");
    for opts in [IlutOptions::new(10, 1e-4), IlutOptions::star(10, 1e-4, 2)] {
        let sizes = trace(&a, p, &opts);
        let total: usize = sizes.iter().sum();
        println!(
            "{} — {} interface nodes, q = {} independent sets:",
            opts.name(),
            total,
            sizes.len()
        );
        let mut remaining = total;
        for (l, &s) in sizes.iter().enumerate() {
            remaining -= s;
            let bar = "#".repeat((s * 60 / total.max(1)).max(1));
            println!("  level {l:>3}: |I_l| = {s:>5}  remaining = {remaining:>5}  {bar}");
        }
        println!();
    }
    println!("(The paper's Figure 2 illustrates the same process on a toy mesh: each");
    println!(" level factors an independent set and forms the next reduced matrix.)");
}
