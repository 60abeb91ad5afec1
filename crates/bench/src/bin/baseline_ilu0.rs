//! Baseline comparison: parallel ILU(0) vs ILUT / ILUT\* end to end.
//!
//! The paper's §2–3 narrative: ILU(0) is cheap and its static schedule is
//! short (a colouring), but it is value-blind, so the preconditioner is
//! weaker; threshold dropping costs more to factor and to schedule, but wins
//! overall. This binary measures all three on one problem: simulated factor
//! time, schedule length q, substitution time, and GMRES(50) matvecs.
//!
//! Usage: `cargo run --release -p pilut-bench --bin baseline_ilu0`

use pilut_bench::{fmt_time, torso};
use pilut_core::dist::op::{DistCsr, DistOperator};
use pilut_core::dist::DistMatrix;
use pilut_core::options::IlutOptions;
use pilut_core::parallel::{par_ilu0, par_ilut};
use pilut_par::{Machine, MachineModel};
use pilut_solver::dist_gmres::{dist_gmres, DistIlu};
use pilut_solver::gmres::GmresOptions;

fn main() {
    let p = 32;
    let a = torso();
    eprintln!("[baseline_ilu0] TORSO: n = {}, p = {p}", a.n_rows());
    println!("## Baseline — parallel ILU(0) vs ILUT vs ILUT* (TORSO, p = {p}, GMRES(50))\n");
    println!(
        "| {:<18} | {:>12} | {:>5} | {:>12} | {:>6} | {:>5} |",
        "Method", "factor (s)", "q", "solve (s)", "NMV", "conv"
    );
    println!(
        "|{:-<20}|{:-<14}|{:-<7}|{:-<14}|{:-<8}|{:-<7}|",
        "", "", "", "", "", ""
    );
    let variants: [(&str, Option<IlutOptions>); 3] = [
        ("ILU(0)", None),
        ("ILUT(10,1e-4)", Some(IlutOptions::new(10, 1e-4))),
        ("ILUT*(10,1e-4,2)", Some(IlutOptions::star(10, 1e-4, 2))),
    ];
    for (label, opts) in variants {
        let dm = DistMatrix::from_matrix(a.clone(), p, 17);
        let out = Machine::run(p, MachineModel::cray_t3d(), |ctx| {
            let local = dm.local_view(ctx.rank());
            let mut op = DistCsr::new(ctx, &dm, &local);
            ctx.barrier();
            let t0 = ctx.time();
            let rf = match &opts {
                Some(io) => par_ilut(ctx, &dm, &local, io).unwrap(),
                None => par_ilu0(ctx, &dm, &local).unwrap(),
            };
            ctx.barrier();
            let t_factor = ctx.time() - t0;
            let q = rf.stats.levels;
            let ones = vec![1.0; local.len()];
            let b = op.apply(ctx, &ones);
            let mut pre = DistIlu::new(ctx, &dm, &local, rf);
            let gopts = GmresOptions {
                restart: 50,
                rtol: 1e-7,
                max_matvecs: 3000,
            };
            ctx.barrier();
            let t1 = ctx.time();
            let r = dist_gmres(ctx, &mut op, &local, &mut pre, &b, &gopts);
            ctx.barrier();
            (t_factor, q, ctx.time() - t1, r.matvecs, r.converged)
        });
        let (tf, q, ts, nmv, conv) = out.results[0];
        println!(
            "| {:<18} | {} | {:>5} | {} | {:>6} | {:>5} |",
            label,
            fmt_time(tf),
            q,
            fmt_time(ts),
            nmv,
            conv
        );
    }
    println!("\n(ILU(0): short static schedule, weak preconditioner; ILUT*: costlier");
    println!(" factorization, far fewer iterations — the paper's §2 trade-off.)");
}
