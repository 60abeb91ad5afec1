//! Table 2 — forward+backward substitution time for TORSO (simulated T3D
//! seconds) for each factorization, plus the matrix–vector product row, and
//! the §6 ratio analysis (trisolve vs matvec).
//!
//! Usage: `PILUT_SCALE=0.25 cargo run --release -p pilut-bench --bin table2`

use pilut_bench::{config_grid, fmt_time, print_header, proc_list, run_trisolve, torso};

fn main() {
    let procs = proc_list();
    let a = torso();
    eprintln!("[table2] TORSO: n = {}, nnz = {}", a.n_rows(), a.nnz());
    let cols: Vec<String> = procs.iter().map(|p| format!("p = {p:<4}")).collect();
    print_header("Table 2 — forward+backward substitution time, TORSO", &cols);
    let mut matvec_rows: Vec<Vec<f64>> = Vec::new();
    let mut ratio_lines: Vec<String> = Vec::new();
    for opts in config_grid() {
        let mut cells = Vec::new();
        let mut mv = Vec::new();
        let mut ratios = Vec::new();
        for &p in &procs {
            let r = run_trisolve(&a, p, &opts);
            cells.push(fmt_time(r.trisolve_time));
            mv.push(r.matvec_time);
            ratios.push(r.trisolve_time / r.matvec_time);
            eprintln!(
                "[table2] {} p={p}: trisolve {:.5}s, matvec {:.5}s, q={}",
                opts.name(),
                r.trisolve_time,
                r.matvec_time,
                r.levels
            );
        }
        println!("| {:<18} | {} |", opts.name(), cells.join(" | "));
        ratio_lines.push(format!(
            "{:<18} trisolve/matvec by p: {}",
            opts.name(),
            ratios
                .iter()
                .map(|r| format!("{r:.2}"))
                .collect::<Vec<_>>()
                .join(", ")
        ));
        matvec_rows.push(mv);
    }
    // The matvec row (identical across factorizations up to noise — print
    // the first measurement set).
    if let Some(mv) = matvec_rows.first() {
        let cells: Vec<String> = mv.iter().map(|&t| fmt_time(t)).collect();
        println!("| {:<18} | {} |", "Matrix-Vector", cells.join(" | "));
    }
    println!("\nTrisolve/matvec cost ratios (paper §5: ≈1.3× for ILUT*):");
    for line in ratio_lines {
        println!("  {line}");
    }
}
