//! Figure 4 — factorization speedup for G40, relative to the smallest
//! processor count, for all nine (m, t) configurations of ILUT and ILUT\*.
//!
//! Usage: `PILUT_SCALE=0.25 cargo run --release -p pilut-bench --bin fig4_speedup_g40`

use pilut_bench::{g40, print_speedup_table, proc_list, run_factorization};

fn main() {
    let a = g40();
    eprintln!("[fig4] G40: n = {}, nnz = {}", a.n_rows(), a.nnz());
    print_speedup_table(
        "Figure 4 — factorization speedup, G40",
        &a,
        &proc_list(),
        &mut |a, p, opts| {
            let r = run_factorization(a, p, opts);
            eprintln!(
                "[fig4] {} p={p}: {:.4}s (q={})",
                opts.name(),
                r.sim_time,
                r.levels
            );
            r.sim_time
        },
    );
}
