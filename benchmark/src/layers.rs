//! The traced run: per-layer metrics measured from outside the library.
//!
//! After a warm-up rep, five plain reps give the untraced reference and
//! five staged reps, taken in turn with them, give a barrier-to-barrier span
//! per stage and rank, a rep without the solve
//! separates the factorization's collectives from the solver's, and a
//! kernel machine replays each steady kernel [`REPLAYS`] times. Counts come
//! from `ParStats`, `PartitionResult`, `DistGmresResult` and
//! `MachineStats::by_tag`; nothing crate-private is read.

use crate::inputs::{generate, Inputs};
use crate::pipeline::{distribute, run_rep, stage, Mode, Rep, Span, Track, EVERY_REP};
use crate::run::Runner;
use crate::spec::{Workload, COLLECTIVE_REPS, PER_LAYER, REPLAYS};
use crate::stats::{fastest, median};
use crate::trace::Trace;
use pilut::core::dist::exchange::tags;
use pilut::core::dist::op::{DistCsr, DistOperator};
use pilut::core::parallel::dist_mis::{build_level_links, dist_mis};
use pilut::core::parallel::par_ilut;
use pilut::core::serial::ilut;
use pilut::par::{Machine, MachineModel, MachineStats};
use pilut::solver::dist_gmres::{DistIlu, DistPrecond};
use std::collections::{BTreeMap, HashMap};
use std::hint::black_box;
use std::time::Instant;

/// Plain reps and as many staged ones; the plain reps' median time is the
/// untraced reference of `trace.overhead_frac`.
const REFERENCE_REPS: usize = 5;
/// Empty machines started for `par.spawn_s`.
const SPAWNS: usize = 10;

/// Span names of the kernel machine.
mod kernel {
    pub const SETUP: &str = "kernels.setup";
    pub const DIST_MIS: &str = "core.parallel.dist_mis";
    pub const DIST_SPMV: &str = "core.dist.dist_spmv_into.replays";
    pub const TRISOLVE: &str = "core.trisolve.dist_solve_into.replays";
    pub const BARRIERS: &str = "par.barrier.replays";
    pub const ALLREDUCES: &str = "par.all_reduce_sum.replays";
}

/// What the traced run measured.
pub struct Layers {
    /// One value per entry of [`PER_LAYER`], in that order.
    pub metrics: Vec<(&'static str, &'static str, f64)>,
    pub trace: Trace,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

/// Named values; a metric nobody sets reads 0.
#[derive(Default)]
struct Values(BTreeMap<&'static str, f64>);

impl Values {
    fn set(&mut self, name: &'static str, v: f64) {
        assert!(
            PER_LAYER.iter().any(|&(n, _)| n == name),
            "undeclared per-layer metric {name}"
        );
        self.0.insert(name, v);
    }

    fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }
}

/// Runs the traced protocol of `w`.
pub fn run_layers(w: &Workload, seed: u64, quick: bool) -> Layers {
    let origin = Instant::now();
    let mut v = Values::default();
    let mut trace = Trace::default();

    let t = Instant::now();
    let inp = generate(w, seed, 0, quick);
    v.set("sparse.gen_s", t.elapsed().as_secs_f64());

    // One warm-up rep, then plain and staged reps in turn so that a drift
    // of the machine's speed falls on both alike.
    let mut runner = Runner::new(w, origin);
    v.set("warmup_rep_s", runner.rep(&inp, Mode::Plain).tts_wall_s);
    let mut plain = Rep::default();
    let (mut reference, mut factor, mut solve) = (Vec::new(), Vec::new(), Vec::new());
    let mut staged = Vec::with_capacity(REFERENCE_REPS);
    for _ in 0..REFERENCE_REPS {
        plain = runner.rep(&inp, Mode::Plain);
        reference.push(plain.tts_wall_s);
        factor.push(plain.factor_wall_s());
        solve.push(plain.solve_wall_s());
        trace.add_rep(&plain, runner.attempted - 1);
        let rep = runner.rep(&inp, Mode::Staged);
        trace.add_rep(&rep, runner.attempted - 1);
        staged.push(rep);
    }
    // The staged rep with the median time is the one the stage metrics
    // describe.
    staged.sort_by(|a, b| a.tts_wall_s.total_cmp(&b.tts_wall_s));
    let staged = staged.swap_remove(REFERENCE_REPS / 2);

    // Interference only ever adds to a wall time: the fastest rep is the
    // steadiest figure.
    v.set("tts_wall_s", fastest(&reference));
    v.set("factor_wall_s", fastest(&factor));
    v.set("solve_wall_s", fastest(&solve));
    let accounted: f64 = staged
        .driver_spans
        .iter()
        .chain(staged.rank_spans.first().into_iter().flatten())
        .filter(|s| s.name != stage::MACHINE)
        .map(Span::wall)
        .sum();
    v.set(
        "trace.unaccounted_frac",
        (staged.tts_wall_s - accounted) / staged.tts_wall_s,
    );
    v.set(
        "trace.overhead_frac",
        staged.tts_wall_s / median(&reference) - 1.0,
    );
    v.set("solver.matvecs", staged.matvecs as f64);
    v.set("solver.rel_residual", staged.rel_residual);

    serial_spmv(&inp, &mut v);
    match w.ranks {
        None => serial_layers(w, &inp, &staged, &mut v),
        Some(p) => {
            dist_layers(w, &inp, p, &plain, &staged, origin, &mut v, &mut trace);
            scaling(w, &inp, p, &plain, &mut runner, &mut v);
        }
    }
    // Arnoldi, orthogonalisation and reductions: the solve minus its matvecs
    // and preconditioner applications at their standalone replay cost.
    let (spmv, precond) = match w.ranks {
        None => (v.get("sparse.spmv_s"), v.get("core.factors.solve_s")),
        Some(_) => (v.get("core.dist.spmv_s"), v.get("core.trisolve.solve_s")),
    };
    v.set(
        "solver.krylov_self_s",
        v.get("solver.gmres_s") - staged.matvecs as f64 * (spmv + precond),
    );

    Layers {
        metrics: PER_LAYER
            .iter()
            .map(|&(name, unit)| (name, unit, v.get(name)))
            .collect(),
        trace,
        attempted: runner.attempted,
        failed: runner.failed,
        failures: runner.failures,
    }
}

/// Serial `CsrMatrix::spmv` on the workload's matrix. Bytes are computed
/// from the array sizes (values, column ids, row pointers, one read of `x`
/// and one write of `y`) and the arrays sit in the last-level cache.
fn serial_spmv(inp: &Inputs, v: &mut Values) {
    let (n, nnz) = (inp.a.n_rows() as f64, inp.a.nnz() as f64);
    let mut y = vec![0.0; inp.a.n_rows()];
    let t = Instant::now();
    for _ in 0..REPLAYS {
        inp.a.spmv(black_box(&inp.x_true), &mut y);
        black_box(&mut y);
    }
    let s = t.elapsed().as_secs_f64() / REPLAYS as f64;
    let bytes = 16.0 * nnz + 24.0 * n;
    v.set("sparse.spmv_s", s);
    v.set("sparse.spmv_gbps", bytes / s / 1e9);
    v.set("sparse.spmv_flops_per_byte", 2.0 * nnz / bytes);
}

/// The serial pipeline's layers: the staged rep's spans plus a standalone
/// replay of `LuFactors::solve_into`.
fn serial_layers(w: &Workload, inp: &Inputs, staged: &Rep, v: &mut Values) {
    let ilut_s = staged.stage_wall(stage::ILUT);
    v.set("core.serial.ilut_s", ilut_s);
    v.set(
        "core.serial.ilut_mnnz_per_s",
        inp.a.nnz() as f64 / ilut_s / 1e6,
    );
    v.set("core.serial.fill_nnz", staged.serial_fill_nnz as f64);
    v.set("solver.gmres_s", staged.stage_wall(stage::GMRES));

    let Ok(factors) = ilut(&inp.a, &w.ilut_options()) else {
        return; // the staged rep already counted the failure
    };
    let mut x = vec![0.0; inp.a.n_rows()];
    let t = Instant::now();
    for _ in 0..REPLAYS {
        factors.solve_into(black_box(&inp.b), &mut x);
        black_box(&mut x);
    }
    let s = t.elapsed().as_secs_f64() / REPLAYS as f64;
    // Computed bytes: factor entries (value + column id), r read, x
    // written then swept twice.
    let bytes = 16.0 * factors.nnz() as f64 + 32.0 * inp.a.n_rows() as f64;
    v.set("core.factors.solve_s", s);
    v.set("core.factors.solve_gbps", bytes / s / 1e9);
}

/// What one rank measured in the kernel machine.
struct KernelOut {
    spans: Vec<Span>,
    mis_selected: usize,
    mis_candidates: usize,
}

/// The distributed pipeline's layers.
#[allow(clippy::too_many_arguments)]
fn dist_layers(
    w: &Workload,
    inp: &Inputs,
    p: usize,
    plain: &Rep,
    staged: &Rep,
    origin: Instant,
    v: &mut Values,
    trace: &mut Trace,
) {
    v.set(
        "graph.partition_s",
        staged.stage_wall(stage::GRAPH) + staged.stage_wall(stage::PARTITION),
    );
    if let Some(part) = staged.partition {
        v.set("graph.edge_cut", part.edge_cut as f64);
        v.set("graph.imbalance", part.imbalance);
        v.set("graph.interface_frac", part.interface_frac);
    }
    v.set(
        "core.dist.matrix_build_s",
        staged.stage_wall(stage::MATRIX) + staged.stage_wall(stage::LOCAL_VIEW),
    );
    v.set("core.dist.spmv_plan_s", staged.stage_wall(stage::SPMV_PLAN));
    v.set(
        "core.parallel.par_ilut_s",
        staged.stage_wall(stage::PAR_ILUT),
    );
    v.set(
        "core.parallel.par_ilut_sim_s",
        staged.stage_sim(stage::PAR_ILUT),
    );
    let stats = &staged.par_stats;
    v.set("core.parallel.flops", stats.iter().map(|s| s.flops).sum());
    let fill: usize = stats.iter().map(|s| s.nnz_l + s.nnz_u).sum();
    v.set("core.parallel.fill_nnz", fill as f64);
    v.set(
        "core.parallel.reduced_nnz_peak",
        stats.iter().map(|s| s.reduced_nnz_peak).sum::<usize>() as f64,
    );
    v.set(
        "core.parallel.levels",
        stats.first().map_or(0, |s| s.levels) as f64,
    );
    v.set(
        "core.trisolve.plan_s",
        staged.stage_wall(stage::TRISOLVE_PLAN),
    );
    v.set("solver.gmres_s", staged.stage_wall(stage::DIST_GMRES));

    // Traffic of a whole untraced rep; only the factorization uses the
    // urows and MIS tags.
    v.set("par.messages", plain.machine.messages as f64);
    v.set("par.bytes", plain.machine.bytes as f64);
    v.set("par.collectives", plain.machine.collectives as f64);
    let (m, b) = plain.tag(tags::UROWS);
    v.set("core.parallel.urows_msgs", m as f64);
    v.set("core.parallel.urows_bytes", b as f64);
    let mis = [tags::MIS_KEYS, tags::MIS_TENT, tags::MIS_CONF].map(|t| plain.tag(t));
    v.set(
        "core.parallel.mis_msgs",
        mis.iter().map(|t| t.0).sum::<u64>() as f64,
    );
    v.set(
        "core.parallel.mis_bytes",
        mis.iter().map(|t| t.1).sum::<u64>() as f64,
    );
    let no_solve = run_rep(w, inp, Mode::NoSolve, origin);
    v.set(
        "solver.coll_msgs",
        plain.coll_messages() as f64 - no_solve.coll_messages() as f64,
    );

    let spawn: Vec<f64> = (0..SPAWNS)
        .map(|_| {
            let t = Instant::now();
            Machine::run(p, MachineModel::cray_t3d(), |ctx| ctx.barrier());
            t.elapsed().as_secs_f64()
        })
        .collect();
    v.set("par.spawn_s", median(&spawn));

    let Some((outs, stats)) = kernel_machine(w, inp, p, origin) else {
        return; // the staged rep already counted the failed factorization
    };
    let k = REPLAYS as f64;
    let rank0 = |name: &str| {
        outs[0]
            .spans
            .iter()
            .find(|s| s.name == name)
            .map_or((0.0, 0.0), |s| (s.wall(), s.sim()))
    };
    v.set("core.parallel.dist_mis_s", rank0(kernel::DIST_MIS).0);
    let selected: usize = outs.iter().map(|o| o.mis_selected).sum();
    let candidates: usize = outs.iter().map(|o| o.mis_candidates).sum();
    if candidates > 0 {
        v.set(
            "core.parallel.mis_set_frac",
            selected as f64 / candidates as f64,
        );
    }
    let spmv_s = rank0(kernel::DIST_SPMV).0 / k;
    v.set("core.dist.spmv_s", spmv_s);
    // Building a plan sends a little under its replay tag; the rep without
    // the solve built the same plans and replayed none.
    let per_replay = |tag: u64| {
        let (m, b) = stats.tag_totals(tag);
        let (m0, b0) = no_solve.tag(tag);
        ((m - m0) as f64 / k, (b - b0) as f64 / k)
    };
    let (m, b) = per_replay(tags::SPMV);
    v.set("core.dist.spmv_msgs", m);
    v.set("core.dist.spmv_bytes", b);
    let (solve_wall, solve_sim) = rank0(kernel::TRISOLVE);
    v.set("core.trisolve.solve_s", solve_wall / k);
    v.set("core.trisolve.solve_sim_s", solve_sim / k);
    v.set(
        "core.trisolve.mnnz_per_s",
        fill as f64 / (solve_wall / k) / 1e6,
    );
    let (m, b) = per_replay(tags::FWD);
    v.set("core.trisolve.fwd_msgs", m);
    v.set("core.trisolve.fwd_bytes", b);
    let (m, b) = per_replay(tags::BWD);
    v.set("core.trisolve.bwd_msgs", m);
    v.set("core.trisolve.bwd_bytes", b);
    let per_collective = 1e6 / COLLECTIVE_REPS as f64;
    v.set("par.barrier_us", rank0(kernel::BARRIERS).0 * per_collective);
    v.set(
        "par.allreduce_us",
        rank0(kernel::ALLREDUCES).0 * per_collective,
    );
    for (rank, o) in outs.iter().enumerate() {
        trace.add_rank(rank, &o.spans, "kernels", None);
    }
}

/// Rebuilds the rep's distributed state on `p` ranks, then times level 0 of
/// the distributed MIS, [`REPLAYS`] SpMV and triangular-solve replays and
/// [`COLLECTIVE_REPS`] barriers and all-reduces, each block
/// barrier-to-barrier. `None` when the factorization fails.
fn kernel_machine(
    w: &Workload,
    inp: &Inputs,
    p: usize,
    origin: Instant,
) -> Option<(Vec<KernelOut>, MachineStats)> {
    let opts = w.ilut_options();
    let mut driver = Track::new(origin, true);
    let (dm, _, _) = distribute(inp.a.clone(), inp.partition_seed, p, &mut driver);
    let out = Machine::run(p, MachineModel::cray_t3d(), |ctx| {
        let mut t = Track::new(origin, true);
        let local = dm.local_view(ctx.rank());
        let mut op = DistCsr::new(ctx, &dm, &local);
        let rf = par_ilut(ctx, &dm, &local, &opts).ok()?;
        let reduced: HashMap<usize, Vec<usize>> = rf.initial_reduced_cols.iter().cloned().collect();
        t.end(ctx, kernel::SETUP, EVERY_REP);

        let links = build_level_links(ctx, dm.dist(), &reduced);
        let mis = dist_mis(ctx, &links, &reduced, opts.seed, 0, opts.mis_rounds).ok()?;
        t.end(ctx, kernel::DIST_MIS, EVERY_REP);

        let mut pre = DistIlu::new(ctx, &dm, &local, rf);
        let x: Vec<f64> = local.nodes.iter().map(|&g| inp.b[g]).collect();
        let mut y = vec![0.0; x.len()];
        t.start(ctx, EVERY_REP);
        for _ in 0..REPLAYS {
            op.apply_into(ctx, &x, &mut y);
        }
        t.end(ctx, kernel::DIST_SPMV, EVERY_REP);
        for _ in 0..REPLAYS {
            pre.apply_into(ctx, &local, &x, &mut y);
        }
        t.end(ctx, kernel::TRISOLVE, EVERY_REP);
        for _ in 0..COLLECTIVE_REPS {
            ctx.barrier();
        }
        t.end(ctx, kernel::BARRIERS, EVERY_REP);
        let mut sum = 0.0;
        for _ in 0..COLLECTIVE_REPS {
            sum += ctx.all_reduce_sum(1.0);
        }
        black_box((sum, &y));
        t.end(ctx, kernel::ALLREDUCES, EVERY_REP);

        Some(KernelOut {
            spans: t.spans,
            mis_selected: mis.my_in.len(),
            mis_candidates: reduced.len(),
        })
    });
    let outs: Option<Vec<KernelOut>> = out.results.into_iter().collect();
    Some((outs?, out.stats))
}

/// One extra p = 1 rep of the same problem: simulated speedup and
/// efficiency of the workload's rank count.
fn scaling(w: &Workload, inp: &Inputs, p: usize, plain: &Rep, runner: &mut Runner, v: &mut Values) {
    let sim_p1 = if p == 1 {
        plain.tts_sim_s
    } else {
        let one = Workload {
            ranks: Some(1),
            ..*w
        };
        let mut r = Runner::new(&one, runner.origin);
        let rep = r.rep(inp, Mode::Plain);
        runner.attempted += r.attempted;
        runner.failed += r.failed;
        runner.failures.append(&mut r.failures);
        rep.tts_sim_s
    };
    let speedup = sim_p1 / plain.tts_sim_s;
    v.set("scaling.sim_speedup", speedup);
    v.set("scaling.sim_efficiency", speedup / p as f64);
}
