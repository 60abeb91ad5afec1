//! Table 1 — parallel factorization time (simulated T3D seconds) for G40
//! and TORSO across p ∈ {16, 32, 64, 128}, the full (m, t) grid, ILUT and
//! ILUT\*.
//!
//! Usage: `PILUT_SCALE=0.25 cargo run --release -p pilut-bench --bin table1`

use pilut_bench::{config_grid, fmt_time, g40, print_header, proc_list, run_factorization, torso};

fn main() {
    let procs = proc_list();
    for (name, a) in [("G40", g40()), ("TORSO", torso())] {
        eprintln!("[table1] {name}: n = {}, nnz = {}", a.n_rows(), a.nnz());
        let cols: Vec<String> = procs.iter().map(|p| format!("p = {p:<4}")).collect();
        let mut extra: Vec<String> = Vec::new();
        print_header(&format!("Table 1 — factorization time, {name}"), &cols);
        for opts in config_grid() {
            let mut cells = Vec::new();
            let mut qs = Vec::new();
            for &p in &procs {
                let r = run_factorization(&a, p, &opts);
                cells.push(fmt_time(r.sim_time));
                qs.push(r.levels);
                eprintln!(
                    "[table1] {name} {} p={p}: sim {:.4}s, q={}, wall {:.1}s",
                    opts.name(),
                    r.sim_time,
                    r.levels,
                    r.wall
                );
            }
            println!("| {:<18} | {} |", opts.name(), cells.join(" | "));
            extra.push(format!(
                "{:<18} levels(q) by p: {}",
                opts.name(),
                qs.iter()
                    .map(|q| q.to_string())
                    .collect::<Vec<_>>()
                    .join(", ")
            ));
        }
        println!("\nIndependent-set counts (paper §6 discussion):");
        for line in extra {
            println!("  {line}");
        }
    }
}
