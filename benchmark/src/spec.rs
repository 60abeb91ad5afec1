//! The benchmark's fixed tables: the five workloads and the metric names.
//!
//! `BENCHMARK.json` at the repository root declares the same names; the
//! smoke test keeps the two in step.

use pilut::core::options::IlutOptions;
use pilut::solver::gmres::GmresOptions;

/// Which generated matrix a workload factors.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Input {
    /// `gen::g40(6)`: n = 57 600, nnz = 287 040 (`--quick`: `g40(1)`).
    G40,
    /// `gen::fem_torso(40, seed)`: n = 23 176, nnz = 156 296 (`--quick`:
    /// dimension 12).
    Torso,
}

/// One named workload: a matrix, the factorization corner and the number of
/// ranks (`None` is the plain single-threaded pipeline).
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    pub name: &'static str,
    pub input: Input,
    pub ranks: Option<usize>,
    pub m: usize,
    pub tau: f64,
    /// `Some(k)` selects ILUT\*(m, t, k).
    pub star: Option<usize>,
}

impl Workload {
    /// The factorization options of this workload.
    pub fn ilut_options(&self) -> IlutOptions {
        match self.star {
            Some(k) => IlutOptions::star(self.m, self.tau, k),
            None => IlutOptions::new(self.m, self.tau),
        }
    }
}

/// The paper's workloads. Sizes, corners and reasons are in `README.md`.
pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "g40_serial",
        input: Input::G40,
        ranks: None,
        m: 10,
        tau: 1e-4,
        star: None,
    },
    Workload {
        name: "g40_p1",
        input: Input::G40,
        ranks: Some(1),
        m: 10,
        tau: 1e-4,
        star: None,
    },
    Workload {
        name: "g40_loose_p2",
        input: Input::G40,
        ranks: Some(2),
        m: 5,
        tau: 1e-2,
        star: None,
    },
    Workload {
        name: "torso_tight_p2",
        input: Input::Torso,
        ranks: Some(2),
        m: 20,
        tau: 1e-6,
        star: None,
    },
    Workload {
        name: "torso_tight_star_p8",
        input: Input::Torso,
        ranks: Some(8),
        m: 20,
        tau: 1e-6,
        star: Some(2),
    },
];

/// The workloads the harness runs and `BENCHMARK.json` does not declare:
/// the end-to-end times are simulated ones, which the serial pipeline does
/// not have and which on one rank of G40 read the same for every seed. Both
/// are baselines to read the others against, reported and not judged.
pub const UNDECLARED: [&str; 2] = ["g40_serial", "g40_p1"];

/// Looks a workload up by name.
pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// GMRES(50) to rtol 1e-7, the paper's solver setting.
pub fn gmres_options() -> GmresOptions {
    GmresOptions {
        restart: 50,
        rtol: 1e-7,
        max_matvecs: 2_000,
    }
}

/// `--seconds` when the caller gives none; equals `run_seconds` in
/// `BENCHMARK.json`.
pub const DEFAULT_SECONDS: f64 = 15.0;
/// `--seed` when the caller gives none.
pub const DEFAULT_SEED: u64 = 17;
/// Standalone replays of each steady kernel in the traced run.
pub const REPLAYS: usize = 50;
/// Back-to-back barriers / all-reduces in the `par` micro-measurement.
pub const COLLECTIVE_REPS: usize = 1_000;

/// End-to-end metrics as (name, unit, regression bound), printed with
/// `--trace 0`. Every one but `setup_s` repeats for a seed: counts, memory
/// and seconds of the simulated machine. Wall times are per-layer metrics,
/// because on a shared box none of them holds a bound (see `README.md`).
pub const END_TO_END: [(&str, &str, f64); 6] = [
    ("setup_s", "s", 0.25),
    ("tts_sim_s", "s", 0.10),
    ("factor_sim_s", "s", 0.10),
    ("solve_sim_s", "s", 0.10),
    ("matvecs", "count", 0.05),
    ("peak_rss_mib", "MiB", 0.10),
];

/// Per-layer metrics as (name, unit), printed with `--trace 1`. A metric whose layer a
/// workload does not run reads 0 there.
pub const PER_LAYER: [(&str, &str); 57] = [
    ("tts_wall_s", "s"),
    ("factor_wall_s", "s"),
    ("solve_wall_s", "s"),
    ("warmup_rep_s", "s"),
    ("sparse.gen_s", "s"),
    ("sparse.spmv_s", "s"),
    ("sparse.spmv_gbps", "GB/s"),
    ("sparse.spmv_flops_per_byte", "flop/B"),
    ("graph.partition_s", "s"),
    ("graph.edge_cut", "count"),
    ("graph.imbalance", "ratio"),
    ("graph.interface_frac", "ratio"),
    ("core.dist.matrix_build_s", "s"),
    ("core.dist.spmv_plan_s", "s"),
    ("core.dist.spmv_s", "s"),
    ("core.dist.spmv_msgs", "count"),
    ("core.dist.spmv_bytes", "B"),
    ("core.serial.ilut_s", "s"),
    ("core.serial.ilut_mnnz_per_s", "Mnnz/s"),
    ("core.serial.fill_nnz", "count"),
    ("core.factors.solve_s", "s"),
    ("core.factors.solve_gbps", "GB/s"),
    ("core.parallel.par_ilut_s", "s"),
    ("core.parallel.par_ilut_sim_s", "s"),
    ("core.parallel.flops", "count"),
    ("core.parallel.fill_nnz", "count"),
    ("core.parallel.reduced_nnz_peak", "count"),
    ("core.parallel.levels", "count"),
    ("core.parallel.urows_msgs", "count"),
    ("core.parallel.urows_bytes", "B"),
    ("core.parallel.dist_mis_s", "s"),
    ("core.parallel.mis_msgs", "count"),
    ("core.parallel.mis_bytes", "B"),
    ("core.parallel.mis_set_frac", "ratio"),
    ("core.trisolve.plan_s", "s"),
    ("core.trisolve.solve_s", "s"),
    ("core.trisolve.solve_sim_s", "s"),
    ("core.trisolve.mnnz_per_s", "Mnnz/s"),
    ("core.trisolve.fwd_msgs", "count"),
    ("core.trisolve.fwd_bytes", "B"),
    ("core.trisolve.bwd_msgs", "count"),
    ("core.trisolve.bwd_bytes", "B"),
    ("solver.gmres_s", "s"),
    ("solver.matvecs", "count"),
    ("solver.rel_residual", "ratio"),
    ("solver.krylov_self_s", "s"),
    ("solver.coll_msgs", "count"),
    ("par.spawn_s", "s"),
    ("par.barrier_us", "us"),
    ("par.allreduce_us", "us"),
    ("par.messages", "count"),
    ("par.bytes", "B"),
    ("par.collectives", "count"),
    ("scaling.sim_speedup", "ratio"),
    ("scaling.sim_efficiency", "ratio"),
    ("trace.unaccounted_frac", "ratio"),
    ("trace.overhead_frac", "ratio"),
];
