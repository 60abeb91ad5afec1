//! Shared harness for regenerating every table and figure of the paper
//! (see DESIGN.md §5 for the experiment index and EXPERIMENTS.md for the
//! recorded results).
//!
//! All timings reported by the `table*`/`fig*` binaries are **simulated
//! Cray T3D seconds** from the `pilut-par` logical-clock model; shapes
//! (speedups, algorithm ratios, crossovers) are the reproduction target, not
//! absolute values. Problem sizes scale with the `PILUT_SCALE` environment
//! variable (default 1.0 = paper-magnitude problems; use e.g. 0.5 for a
//! quick pass) and the processor list with `PILUT_PROCS` (default
//! `16,32,64,128`).

use pilut_core::dist::spmv::{dist_spmv, SpmvPlan};
use pilut_core::dist::DistMatrix;
use pilut_core::options::IlutOptions;
use pilut_core::parallel::{par_ilut, ParStats};
use pilut_core::trisolve::{dist_backward, dist_forward, TrisolvePlan};
use pilut_par::{Machine, MachineModel};
use pilut_sparse::{gen, CsrMatrix};

/// The paper's parameter grid: m ∈ {5, 10, 20} × t ∈ {1e-2, 1e-4, 1e-6}.
pub const M_VALUES: [usize; 3] = [5, 10, 20];
pub const T_VALUES: [f64; 3] = [1e-2, 1e-4, 1e-6];
/// ILUT\* cap factor used throughout the paper's experiments.
pub const K_STAR: usize = 2;

/// Scale factor from the environment (default 1.0).
pub fn scale() -> f64 {
    std::env::var("PILUT_SCALE")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(1.0)
}

/// Processor counts from the environment (default the paper's 16..128).
pub fn proc_list() -> Vec<usize> {
    match std::env::var("PILUT_PROCS") {
        Ok(s) => s
            .split(',')
            .map(|t| {
                t.trim()
                    .parse()
                    .expect("PILUT_PROCS must be comma-separated integers")
            })
            .collect(),
        Err(_) => vec![16, 32, 64, 128],
    }
}

/// The paper's G40 stand-in at the current scale (57 600 unknowns at 1.0).
pub fn g40() -> CsrMatrix {
    let side = ((240.0 * scale().sqrt()).round() as usize).max(20);
    gen::convection_diffusion_2d(side, side, 10.0, 20.0)
}

/// The paper's TORSO stand-in at the current scale (≈10⁵ unknowns at 1.0).
pub fn torso() -> CsrMatrix {
    let dim = ((64.0 * scale().cbrt()).round() as usize).max(10);
    gen::torso(dim)
}

/// The nine (m, t) combinations of Tables 1–3, ILUT first then ILUT\*.
pub fn config_grid() -> Vec<IlutOptions> {
    let mut out = Vec::new();
    for &t in &T_VALUES {
        for &m in &M_VALUES {
            out.push(IlutOptions::new(m, t));
        }
    }
    for &t in &T_VALUES {
        for &m in &M_VALUES {
            out.push(IlutOptions::star(m, t, K_STAR));
        }
    }
    out
}

/// Measurements from one parallel factorization run.
#[derive(Clone, Debug)]
pub struct FactorRun {
    pub p: usize,
    /// Simulated parallel time, seconds.
    pub sim_time: f64,
    /// Global interface-level count (the paper's q).
    pub levels: usize,
    /// Total modelled flops across ranks.
    pub flops: f64,
    /// Total L+U fill across ranks.
    pub fill: usize,
    /// Host wall-clock seconds for the whole machine run (all ranks).
    pub wall: f64,
}

/// Factors `a` on `p` simulated processors and reports the measurements.
pub fn run_factorization(a: &CsrMatrix, p: usize, opts: &IlutOptions) -> FactorRun {
    let dm = DistMatrix::from_matrix(a.clone(), p, 17);
    let t0 = std::time::Instant::now();
    let out = Machine::run(p, MachineModel::cray_t3d(), |ctx| {
        let local = dm.local_view(ctx.rank());
        let rf = par_ilut(ctx, &dm, &local, opts).expect("factorization failed");
        rf.stats
    });
    let wall = t0.elapsed().as_secs_f64();
    let stats: Vec<ParStats> = out.results;
    FactorRun {
        p,
        sim_time: out.sim_time,
        levels: stats[0].levels,
        flops: stats.iter().map(|s| s.flops).sum(),
        fill: stats.iter().map(|s| s.nnz_l + s.nnz_u).sum(),
        wall,
    }
}

/// Measurements from one triangular-solve (and matvec) timing run.
#[derive(Clone, Debug)]
pub struct SolveRun {
    pub p: usize,
    /// Simulated seconds for one forward+backward substitution.
    pub trisolve_time: f64,
    /// Simulated seconds for one matrix–vector product.
    pub matvec_time: f64,
    /// L+U fill of the factorization used.
    pub fill: usize,
    pub levels: usize,
}

/// Factors once, then times one fwd+bwd substitution and one matvec
/// (simulated clock deltas, max over ranks).
pub fn run_trisolve(a: &CsrMatrix, p: usize, opts: &IlutOptions) -> SolveRun {
    let dm = DistMatrix::from_matrix(a.clone(), p, 17);
    let out = Machine::run(p, MachineModel::cray_t3d(), |ctx| {
        let local = dm.local_view(ctx.rank());
        let rf = par_ilut(ctx, &dm, &local, opts).expect("factorization failed");
        let tplan = TrisolvePlan::build(ctx, &dm, &local, &rf);
        let mut splan = SpmvPlan::build(ctx, &dm, &local);
        let b: Vec<f64> = local.nodes.iter().map(|&g| 1.0 + (g % 5) as f64).collect();
        // Align clocks so the timed section measures the kernel alone.
        ctx.barrier();
        let t0 = ctx.time();
        let y = dist_forward(ctx, &local, &rf, &tplan, &b);
        let _x = dist_backward(ctx, &local, &rf, &tplan, &y);
        ctx.barrier();
        let t1 = ctx.time();
        let _ = dist_spmv(ctx, &dm, &local, &mut splan, &b);
        ctx.barrier();
        let t2 = ctx.time();
        (
            t1 - t0,
            t2 - t1,
            rf.stats.nnz_l + rf.stats.nnz_u,
            rf.stats.levels,
        )
    });
    let trisolve_time = out.results.iter().map(|r| r.0).fold(0.0, f64::max);
    let matvec_time = out.results.iter().map(|r| r.1).fold(0.0, f64::max);
    SolveRun {
        p,
        trisolve_time,
        matvec_time,
        fill: out.results.iter().map(|r| r.2).sum(),
        levels: out.results[0].3,
    }
}

/// Prints a relative-speedup table (the paper's Figures 4–6 as data series):
/// for each configuration, `runner` yields the simulated time at each `p`,
/// and the printed series is `time(p₀) / time(p)`.
pub fn print_speedup_table(
    title: &str,
    a: &CsrMatrix,
    procs: &[usize],
    runner: &mut dyn FnMut(&CsrMatrix, usize, &IlutOptions) -> f64,
) {
    let base_p = procs[0];
    println!("## {title} (speedup relative to p = {base_p})\n");
    println!(
        "| {:<18} | {} |",
        "Factorization",
        procs
            .iter()
            .map(|p| format!("S(p={p:<3})"))
            .collect::<Vec<_>>()
            .join(" | ")
    );
    println!(
        "|{:-<20}|{}",
        "",
        procs
            .iter()
            .map(|_| format!("{:-<10}|", ""))
            .collect::<String>()
    );
    for opts in config_grid() {
        let mut times = Vec::new();
        for &p in procs {
            times.push(runner(a, p, &opts));
        }
        let base = times[0];
        let cells: Vec<String> = times
            .iter()
            .map(|&t| format!("{:>8.2}", base / t))
            .collect();
        println!("| {:<18} | {} |", opts.name(), cells.join(" | "));
    }
    println!(
        "\n(Ideal speedup at p = {} is {:.1}x.)",
        procs.last().unwrap(),
        *procs.last().unwrap() as f64 / base_p as f64
    );
}

/// Formats a simulated-seconds cell the way the paper's tables do.
pub fn fmt_time(t: f64) -> String {
    if t >= 100.0 {
        format!("{t:8.1}")
    } else if t >= 1.0 {
        format!("{t:8.3}")
    } else {
        format!("{t:8.4}")
    }
}

/// Prints a Markdown-ish table header.
pub fn print_header(title: &str, cols: &[String]) {
    println!("\n## {title}\n");
    println!("| {:<18} | {} |", "Factorization", cols.join(" | "));
    println!(
        "|{:-<20}|{}",
        "",
        cols.iter()
            .map(|c| format!("{:-<w$}|", "", w = c.len() + 2))
            .collect::<String>()
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_has_eighteen_configs() {
        let g = config_grid();
        assert_eq!(g.len(), 18);
        assert!(g[..9].iter().all(|o| o.reduced_cap_factor.is_none()));
        assert!(g[9..].iter().all(|o| o.reduced_cap_factor == Some(K_STAR)));
    }

    #[test]
    fn factorization_run_produces_sane_numbers() {
        std::env::set_var("PILUT_SCALE", "0.02");
        let a = g40();
        let r = run_factorization(&a, 4, &IlutOptions::new(5, 1e-2));
        assert!(r.sim_time > 0.0);
        assert!(r.flops > 0.0);
        assert!(r.fill > a.n_rows());
    }

    #[test]
    fn trisolve_run_times_both_kernels() {
        std::env::set_var("PILUT_SCALE", "0.02");
        let a = g40();
        let r = run_trisolve(&a, 4, &IlutOptions::star(5, 1e-2, 2));
        assert!(r.trisolve_time > 0.0);
        assert!(r.matvec_time > 0.0);
        // A substitution sweeps L and U (≈2× the matvec's flops at equal
        // fill) plus q synchronisations — it must cost more than one matvec.
        assert!(r.trisolve_time > r.matvec_time);
    }
}
