//! Table 3 — GMRES(10) and GMRES(50) on the largest processor count:
//! solve time (simulated T3D seconds, excluding the factorization, as in the
//! paper) and the number of matrix–vector products (NMV), for all 18
//! ILUT/ILUT\* preconditioners plus the diagonal baseline.
//!
//! Usage: `PILUT_SCALE=0.25 cargo run --release -p pilut-bench --bin table3`

use pilut_bench::{config_grid, fmt_time, g40, proc_list, torso};
use pilut_core::dist::op::{DistCsr, DistOperator};
use pilut_core::dist::DistMatrix;
use pilut_core::options::IlutOptions;
use pilut_core::parallel::par_ilut;
use pilut_par::{Machine, MachineModel};
use pilut_solver::dist_gmres::{dist_gmres, DistDiagonal, DistIlu, DistPrecond};
use pilut_solver::gmres::GmresOptions;
use pilut_sparse::CsrMatrix;

fn max_matvecs() -> usize {
    std::env::var("PILUT_MAX_NMV")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(3000)
}

/// One GMRES solve; returns (sim solve seconds, NMV, converged).
fn run_solve(
    a: &CsrMatrix,
    p: usize,
    ilut: Option<&IlutOptions>,
    restart: usize,
) -> (f64, usize, bool) {
    let dm = DistMatrix::from_matrix(a.clone(), p, 17);
    let gopts = GmresOptions {
        restart,
        rtol: 1e-7,
        max_matvecs: max_matvecs(),
    };
    let ilut = ilut.cloned();
    let out = Machine::run(p, MachineModel::cray_t3d(), |ctx| {
        let local = dm.local_view(ctx.rank());
        let mut op = DistCsr::new(ctx, &dm, &local);
        // b = A·1, x0 = 0 (paper §6).
        let ones = vec![1.0; local.len()];
        let b = op.apply(ctx, &ones);
        let mut pre: Box<dyn DistPrecond> = match &ilut {
            Some(io) => {
                let rf = par_ilut(ctx, &dm, &local, io).expect("factorization failed");
                Box::new(DistIlu::new(ctx, &dm, &local, rf))
            }
            None => Box::new(DistDiagonal::new(&dm, &local)),
        };
        // Time only the solve, as the paper does.
        ctx.barrier();
        let t0 = ctx.time();
        let r = dist_gmres(ctx, &mut op, &local, pre.as_mut(), &b, &gopts);
        ctx.barrier();
        (ctx.time() - t0, r.matvecs, r.converged)
    });
    let t = out.results.iter().map(|r| r.0).fold(0.0, f64::max);
    (t, out.results[0].1, out.results[0].2)
}

fn main() {
    let p = *proc_list().last().expect("PILUT_PROCS must be non-empty");
    let restarts = [10usize, 50];
    for (name, a) in [("G40", g40()), ("TORSO", torso())] {
        eprintln!(
            "[table3] {name}: n = {}, nnz = {}, p = {p}",
            a.n_rows(),
            a.nnz()
        );
        println!("\n## Table 3 — GMRES performance, {name}, p = {p}\n");
        println!(
            "| {:<18} | GMRES(10) time | GMRES(10) NMV | GMRES(50) time | GMRES(50) NMV |",
            "Preconditioner"
        );
        println!(
            "|{:-<20}|{:-<16}|{:-<15}|{:-<16}|{:-<15}|",
            "", "", "", "", ""
        );
        let mut rows: Vec<(String, Option<IlutOptions>)> = config_grid()
            .into_iter()
            .map(|o| (o.name(), Some(o)))
            .collect();
        rows.push(("Diagonal".to_string(), None));
        for (label, opts) in rows {
            let mut cells = Vec::new();
            for &restart in &restarts {
                let (t, nmv, conv) = run_solve(&a, p, opts.as_ref(), restart);
                let tcell = if conv {
                    fmt_time(t)
                } else {
                    format!("{:>8}", "--")
                };
                let ncell = if conv {
                    format!("{nmv:>6}")
                } else {
                    format!("{nmv:>5}*")
                };
                eprintln!(
                    "[table3] {name} {label} GMRES({restart}): {t:.3}s NMV={nmv} conv={conv}"
                );
                cells.push(format!("{tcell:>14}"));
                cells.push(format!("{ncell:>13}"));
            }
            println!("| {label:<18} | {} |", cells.join(" | "));
        }
        println!(
            "\n(`--`/`*` = not converged within the NMV budget, as for the paper's diagonal runs.)"
        );
    }
}
