//! Figure 5 — factorization speedup for TORSO (same layout as Figure 4).
//!
//! Usage: `PILUT_SCALE=0.25 cargo run --release -p pilut-bench --bin fig5_speedup_torso`

use pilut_bench::{print_speedup_table, proc_list, run_factorization, torso};

fn main() {
    let a = torso();
    eprintln!("[fig5] TORSO: n = {}, nnz = {}", a.n_rows(), a.nnz());
    print_speedup_table(
        "Figure 5 — factorization speedup, TORSO",
        &a,
        &proc_list(),
        &mut |a, p, opts| {
            let r = run_factorization(a, p, opts);
            eprintln!(
                "[fig5] {} p={p}: {:.4}s (q={})",
                opts.name(),
                r.sim_time,
                r.levels
            );
            r.sim_time
        },
    );
}
