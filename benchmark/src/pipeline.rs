//! One rep of a workload: the paper's pipeline through the public `pilut`
//! facade, with clocks at the stage boundaries.
//!
//! The same code serves both runs. The untraced run synchronises the ranks
//! three times (before the factorization, after it, after the solve) and
//! otherwise only reads clocks; the staged rep of the traced run puts a
//! barrier at every stage boundary so each stage is a barrier-to-barrier
//! span on every rank.

use crate::inputs::Inputs;
use crate::spec::{gmres_options, Workload};
use pilut::core::dist::exchange::tags;
use pilut::core::dist::op::DistCsr;
use pilut::core::dist::{DistMatrix, Distribution};
use pilut::core::parallel::{par_ilut, ParStats};
use pilut::core::precond::IluPreconditioner;
use pilut::core::serial::ilut;
use pilut::core::LuFactors;
use pilut::graph::{partition_kway, Graph, PartitionOptions};
use pilut::par::{Ctx, Machine, MachineModel, MachineStats};
use pilut::solver::dist_gmres::{dist_gmres, DistGmresResult, DistIlu};
use pilut::solver::gmres::gmres;
use pilut::sparse::CsrMatrix;
use std::time::Instant;

/// Stage names; also the span names of the Chrome trace.
pub mod stage {
    pub const GRAPH: &str = "graph.from_csr_pattern";
    pub const PARTITION: &str = "graph.partition_kway";
    pub const MATRIX: &str = "core.dist.DistMatrix::new";
    pub const MACHINE: &str = "par.Machine::run";
    pub const LOCAL_VIEW: &str = "core.dist.local_view";
    pub const SPMV_PLAN: &str = "core.dist.DistCsr::new";
    pub const PAR_ILUT: &str = "core.parallel.par_ilut";
    pub const TRISOLVE_PLAN: &str = "core.trisolve.TrisolvePlan::build";
    pub const RHS: &str = "rhs.scatter";
    pub const DIST_GMRES: &str = "solver.dist_gmres";
    pub const ILUT: &str = "core.serial.ilut";
    pub const PRECOND: &str = "core.precond.IluPreconditioner::new";
    pub const GMRES: &str = "solver.gmres";
}

/// A finished stage on one track: wall interval relative to the process's
/// time origin and, on rank tracks, the logical-clock interval.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_s: f64,
    pub end_s: f64,
    pub sim_start_s: f64,
    pub sim_end_s: f64,
}

impl Span {
    pub fn wall(&self) -> f64 {
        self.end_s - self.start_s
    }
    pub fn sim(&self) -> f64 {
        self.sim_end_s - self.sim_start_s
    }
}

/// Stage clock of one track (the driver thread or one rank).
pub(crate) struct Track {
    epoch: Instant,
    staged: bool,
    last: (f64, f64),
    pub(crate) spans: Vec<Span>,
}

impl Track {
    pub(crate) fn new(epoch: Instant, staged: bool) -> Self {
        Track {
            epoch,
            staged,
            last: (epoch.elapsed().as_secs_f64(), 0.0),
            spans: Vec::with_capacity(8),
        }
    }

    /// Restarts the clock of the next span. A boundary of kind
    /// [`EVERY_REP`] is a rank-wide barrier in every rep, one of kind
    /// [`STAGED_ONLY`] only in a staged rep.
    pub(crate) fn start(&mut self, ctx: &mut Ctx, every_rep: bool) {
        if every_rep || self.staged {
            ctx.barrier();
        }
        self.last = (self.epoch.elapsed().as_secs_f64(), ctx.time());
    }

    /// Ends the span `name` on a rank, at a boundary of the given kind.
    pub(crate) fn end(&mut self, ctx: &mut Ctx, name: &'static str, every_rep: bool) {
        if every_rep || self.staged {
            ctx.barrier();
        }
        self.close(name, ctx.time());
    }

    /// Ends a span on the driver thread, which has no logical clock.
    pub(crate) fn end_driver(&mut self, name: &'static str) {
        self.close(name, 0.0);
    }

    fn close(&mut self, name: &'static str, sim_now: f64) {
        let now = (self.epoch.elapsed().as_secs_f64(), sim_now);
        self.spans.push(Span {
            name,
            start_s: self.last.0,
            end_s: now.0,
            sim_start_s: self.last.1,
            sim_end_s: now.1,
        });
        self.last = now;
    }
}

/// The three boundaries every rep synchronises on: before the factorization,
/// after it, after the solve.
pub(crate) const EVERY_REP: bool = true;
/// A boundary where the untraced rep only reads the clocks.
pub(crate) const STAGED_ONLY: bool = false;

/// What one rank brings back from the machine.
struct RankOut {
    spans: Vec<Span>,
    nodes: Vec<usize>,
    interface: usize,
    stats: ParStats,
    solve: Option<DistGmresResult>,
}

/// Outcome of one rep. Times are seconds; `*_sim_s` are T3D-model seconds
/// and stay 0 on the serial pipeline.
#[derive(Clone, Debug, Default)]
pub struct Rep {
    pub tts_wall_s: f64,
    pub tts_sim_s: f64,
    pub matvecs: usize,
    /// Relative residual as the solver reports it.
    pub rel_residual: f64,
    /// The gathered solution in global numbering.
    pub x: Vec<f64>,
    /// Why the library reported the rep as failed, if it did.
    pub error: Option<String>,
    /// Driver spans, then one span list per rank.
    pub driver_spans: Vec<Span>,
    pub rank_spans: Vec<Vec<Span>>,
    pub machine: MachineStats,
    pub partition: Option<PartitionSummary>,
    /// Factorization statistics: per-rank `ParStats`, or the serial fill.
    pub par_stats: Vec<ParStats>,
    pub serial_fill_nnz: usize,
}

/// The partition's quality figures.
#[derive(Clone, Copy, Debug)]
pub struct PartitionSummary {
    pub edge_cut: i64,
    pub imbalance: f64,
    pub interface_frac: f64,
}

impl Rep {
    /// Wall seconds of the `ilut` / `par_ilut` call, barrier-to-barrier.
    pub fn factor_wall_s(&self) -> f64 {
        self.stage_wall(stage::ILUT) + self.stage_wall(stage::PAR_ILUT)
    }

    /// Wall seconds of the `gmres` / `dist_gmres` call.
    pub fn solve_wall_s(&self) -> f64 {
        self.stage_wall(stage::GMRES) + self.stage_wall(stage::DIST_GMRES)
    }

    /// Logical-clock seconds across `par_ilut`.
    pub fn factor_sim_s(&self) -> f64 {
        self.stage_sim(stage::PAR_ILUT)
    }

    /// Logical-clock seconds across `dist_gmres`.
    pub fn solve_sim_s(&self) -> f64 {
        self.stage_sim(stage::DIST_GMRES)
    }

    /// Wall seconds of `name` on rank 0 (or the driver); 0 when the stage
    /// did not run.
    pub fn stage_wall(&self, name: &str) -> f64 {
        self.find(name).map_or(0.0, Span::wall)
    }

    /// Logical-clock seconds of `name`, the maximum over ranks.
    pub fn stage_sim(&self, name: &str) -> f64 {
        self.rank_spans
            .iter()
            .flatten()
            .filter(|s| s.name == name)
            .map(Span::sim)
            .fold(0.0, f64::max)
    }

    fn find(&self, name: &str) -> Option<&Span> {
        self.driver_spans
            .iter()
            .chain(self.rank_spans.first().into_iter().flatten())
            .find(|s| s.name == name)
    }

    /// `(messages, bytes)` the machine counted under `tag`.
    pub fn tag(&self, tag: u64) -> (u64, u64) {
        self.machine.tag_totals(tag)
    }

    /// Messages of all collective traffic.
    pub fn coll_messages(&self) -> u64 {
        let coll = |&(&t, _): &(&u64, _)| tags::tag_name(t) == "coll";
        self.machine
            .by_tag
            .iter()
            .filter(coll)
            .map(|(_, c)| c.0)
            .sum()
    }
}

/// How a rep is run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    /// The untraced rep: three barriers, clocks read at the other
    /// boundaries.
    Plain,
    /// A barrier at every stage boundary.
    Staged,
    /// [`Mode::Plain`] without the GMRES call, so that its traffic counts
    /// can be subtracted from a full rep's.
    NoSolve,
}

/// Runs one rep of `w`; span times count from `origin`.
pub fn run_rep(w: &Workload, inp: &Inputs, mode: Mode, origin: Instant) -> Rep {
    match w.ranks {
        None => serial_rep(w, inp, origin),
        Some(p) => dist_rep(w, inp, p, mode, origin),
    }
}

/// `serial::ilut` → `IluPreconditioner` → `gmres` on the calling thread.
fn serial_rep(w: &Workload, inp: &Inputs, origin: Instant) -> Rep {
    let opts = w.ilut_options();
    let gopts = gmres_options();
    let t0 = Instant::now();
    let mut track = Track::new(origin, false);
    let factors: LuFactors = match ilut(&inp.a, &opts) {
        Ok(f) => f,
        Err(e) => {
            return Rep {
                error: Some(format!("ilut: {e:?}")),
                ..Rep::default()
            }
        }
    };
    track.end_driver(stage::ILUT);
    let serial_fill_nnz = factors.nnz();
    let pre = IluPreconditioner::new(factors);
    track.end_driver(stage::PRECOND);
    let out = gmres(&inp.a, &inp.b, &pre, &gopts);
    track.end_driver(stage::GMRES);
    let tts_wall_s = t0.elapsed().as_secs_f64();

    let mut rep = Rep {
        tts_wall_s,
        matvecs: out.matvecs,
        rel_residual: out.rel_residual,
        x: out.x,
        driver_spans: track.spans,
        serial_fill_nnz,
        ..Rep::default()
    };
    if !out.converged || out.breakdown.is_some() {
        rep.error = Some(format!(
            "gmres: converged={} breakdown={:?}",
            out.converged, out.breakdown
        ));
    }
    rep
}

/// Graph build → `partition_kway` → `DistMatrix::new`, one driver span each.
/// Returns the distributed matrix, the edge cut and the imbalance (heaviest
/// part over the mean).
pub(crate) fn distribute(
    a: CsrMatrix,
    seed: u64,
    p: usize,
    track: &mut Track,
) -> (DistMatrix, i64, f64) {
    let g = Graph::from_csr_pattern(&a);
    track.end_driver(stage::GRAPH);
    let popts = PartitionOptions {
        seed,
        ..PartitionOptions::new(p)
    };
    let part = partition_kway(&g, &popts);
    track.end_driver(stage::PARTITION);
    let heaviest = part.part_weights.iter().copied().max().unwrap_or(0);
    let imbalance = heaviest as f64 * p as f64 / g.total_vertex_weight() as f64;
    let dm = DistMatrix::new(a, Distribution::from_part(part.part, p));
    track.end_driver(stage::MATRIX);
    (dm, part.edge_cut, imbalance)
}

/// partition → `DistMatrix` → `Machine::run`{`DistCsr::new` → `par_ilut` →
/// `DistIlu::new` → RHS → `dist_gmres`} on `p` rank threads.
fn dist_rep(w: &Workload, inp: &Inputs, p: usize, mode: Mode, origin: Instant) -> Rep {
    let staged = mode == Mode::Staged;
    let opts = w.ilut_options();
    let gopts = gmres_options();
    // The pipeline consumes its matrix; the copy is not part of a solve.
    let a = inp.a.clone();

    let t0 = Instant::now();
    let mut track = Track::new(origin, staged);
    let (dm, edge_cut, imbalance) = distribute(a, inp.partition_seed, p, &mut track);

    let b = &inp.b;
    let out = Machine::run(p, MachineModel::cray_t3d(), |ctx| {
        let mut t = Track::new(origin, staged);
        t.start(ctx, STAGED_ONLY);
        let local = dm.local_view(ctx.rank());
        t.end(ctx, stage::LOCAL_VIEW, STAGED_ONLY);
        let mut op = DistCsr::new(ctx, &dm, &local);
        t.end(ctx, stage::SPMV_PLAN, STAGED_ONLY);

        t.start(ctx, EVERY_REP);
        let factored = par_ilut(ctx, &dm, &local, &opts);
        t.end(ctx, stage::PAR_ILUT, EVERY_REP);
        let rf = match factored {
            Ok(rf) => rf,
            // Collective verdict: every rank takes this branch together.
            Err(e) => return Err(format!("par_ilut: {e:?}")),
        };
        let stats = rf.stats.clone();

        let mut pre = DistIlu::new(ctx, &dm, &local, rf);
        t.end(ctx, stage::TRISOLVE_PLAN, STAGED_ONLY);
        let b_local: Vec<f64> = local.nodes.iter().map(|&g| b[g]).collect();
        t.end(ctx, stage::RHS, STAGED_ONLY);
        let res = (mode != Mode::NoSolve)
            .then(|| dist_gmres(ctx, &mut op, &local, &mut pre, &b_local, &gopts));
        t.end(ctx, stage::DIST_GMRES, EVERY_REP);

        Ok(RankOut {
            spans: t.spans,
            interface: local.interface.len(),
            nodes: local.nodes,
            stats,
            solve: res,
        })
    });
    track.end_driver(stage::MACHINE);
    let tts_wall_s = t0.elapsed().as_secs_f64();

    let mut rep = Rep {
        tts_wall_s,
        tts_sim_s: out.sim_time,
        driver_spans: track.spans,
        machine: out.stats,
        x: vec![0.0; inp.a.n_rows()],
        ..Rep::default()
    };
    let mut interface = 0;
    for r in out.results {
        let r = match r {
            Ok(r) => r,
            Err(e) => {
                rep.error = Some(e);
                return rep;
            }
        };
        interface += r.interface;
        if let Some(s) = r.solve {
            for (&g, &v) in r.nodes.iter().zip(&s.x_local) {
                rep.x[g] = v;
            }
            rep.matvecs = s.matvecs;
            rep.rel_residual = s.rel_residual;
            if !s.converged || s.breakdown.is_some() {
                rep.error = Some(format!(
                    "dist_gmres: converged={} breakdown={:?}",
                    s.converged, s.breakdown
                ));
            }
        }
        rep.par_stats.push(r.stats);
        rep.rank_spans.push(r.spans);
    }
    rep.partition = Some(PartitionSummary {
        edge_cut,
        imbalance,
        interface_frac: interface as f64 / inp.a.n_rows() as f64,
    });
    rep
}
