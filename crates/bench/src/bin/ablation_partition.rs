//! Ablation: how much the multilevel k-way partition matters.
//!
//! The paper attributes part of its efficiency to the high-quality domain
//! decomposition ("a good domain decomposition … significantly decreases
//! the amount of communication", §1). This binary factors the same problem
//! under the multilevel k-way partition and under a naive contiguous block
//! distribution, comparing interface sizes, level counts, and simulated
//! factorization time.
//!
//! Usage: `cargo run --release -p pilut-bench --bin ablation_partition`

use pilut_bench::{fmt_time, torso};
use pilut_core::dist::{DistMatrix, Distribution};
use pilut_core::options::IlutOptions;
use pilut_core::parallel::par_ilut;
use pilut_par::{Machine, MachineModel};

fn run(dm: &DistMatrix, p: usize, opts: &IlutOptions) -> (f64, usize) {
    let out = Machine::run(p, MachineModel::cray_t3d(), |ctx| {
        let local = dm.local_view(ctx.rank());
        let rf = par_ilut(ctx, dm, &local, opts).expect("factorization failed");
        ctx.barrier();
        rf.stats.levels
    });
    (out.sim_time, out.results[0])
}

fn main() {
    let a = torso();
    let p = 32;
    let opts = IlutOptions::star(10, 1e-4, 2);
    eprintln!(
        "[ablation_partition] TORSO: n = {}, p = {p}, {}",
        a.n_rows(),
        opts.name()
    );
    println!("## Ablation — multilevel k-way partition vs naive block distribution\n");
    println!("TORSO, p = {p}, {}:\n", opts.name());
    println!(
        "| {:<18} | {:>10} | {:>8} | {:>12} | {:>6} |",
        "Distribution", "interface", "(% n)", "factor (s)", "q"
    );
    println!(
        "|{:-<20}|{:-<12}|{:-<10}|{:-<14}|{:-<8}|",
        "", "", "", "", ""
    );
    let n = a.n_rows();
    for (name, dist) in [
        ("multilevel k-way", Distribution::from_matrix(&a, p, 17)),
        ("contiguous block", Distribution::block(n, p)),
    ] {
        let dm = DistMatrix::new(a.clone(), dist);
        let iface = dm.total_interface();
        let (t, q) = run(&dm, p, &opts);
        println!(
            "| {:<18} | {:>10} | {:>7.1}% | {} | {:>6} |",
            name,
            iface,
            100.0 * iface as f64 / n as f64,
            fmt_time(t),
            q
        );
    }
    println!("\n(A bad decomposition inflates the interface set, hence the reduced");
    println!(" matrices, the independent-set count, and the factorization time.)");
}
