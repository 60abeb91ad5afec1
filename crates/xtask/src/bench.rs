//! `xtask bench` — the in-tree, zero-registry-dependency kernel benchmark.
//!
//! [`SCENARIOS`] is the whole configuration: one row per scenario with its
//! matrix, its two sizes (`--quick` and full), `ranks` (`None` = a serial
//! kernel, `Some(p)` = `p` ranks of the simulated machine), the ILUT
//! options, the operations per timed sample, and one body. Two runners
//! drive the table: a serial kernel is built once and its operation timed;
//! a machine body runs the timed repetitions and then **exactly one more
//! time** for the statistics, so what is timed and what is counted are the
//! same code.
//!
//! Every row has two halves, and one rule decides which may fail a build:
//!
//! * **Deterministic quantities gate.** The self-consistency invariants
//!   ([`check`]: measured per-tag traffic equals the static `CommPlan`
//!   prediction exactly, no protocol tag escapes the plan, every
//!   [`STEADY_REGIONS`] entry performed zero heap acquisitions, the
//!   `mis_rounds` region at most [`MIS_ALLOCS_PER_MESSAGE`] per dist-MIS
//!   message, the `alg42_sweep` region at most [`SWEEP_GROWTHS_PER_ROW`]
//!   per interface row, the `plan_replay` region the frames' buffers and
//!   nothing else, `distribute_p8` at most [`DISTRIBUTE_LIVE_PER_INPUT`]
//!   live bytes per byte of its matrix, a serial row puts nothing on the
//!   wire) are asserted on the
//!   typed [`Measurement`] inside `xtask bench`, before the report is written;
//!   an unfiltered run also asserts that every gated region was entered by
//!   some scenario ([`unrecorded_region`]), so a renamed region cannot pass
//!   by vanishing.
//!   The counts themselves ([`Facts`]: flops, simulated T3D seconds,
//!   per-tag messages and bytes, fill, factor heap bytes) are rendered by
//!   `xtask paper` as the `kernels` experiment and exact-diffed by
//!   `paper --check` like every table of the paper.
//! * **Wall time only reports.** Median/min ns per operation and Mnnz/s
//!   (entries processed per operation — for the GMRES solve,
//!   `(nnz(A) + nnz(M)) · matvecs`) go into the JSON report
//!   (`BENCH_<label>.json` at the repo root by convention), and
//!   `bench-compare <new> <base>` prints per-row ratios and their geometric
//!   mean. Nothing derived from `Instant` can fail a stage: same-code wall
//!   spreads of 0.2–0.5 were measured on the shared host (EXPERIMENTS).
//!
//! `--quick` runs *every* row at its small size (the CI smoke: harness,
//! invariants and JSON writer, not quotable numbers); `--scenario NAME`
//! (repeatable) selects rows; `--out PATH` and `--label STR` name the
//! report.

use std::path::Path;
use std::time::Instant;

use pilut_allocaudit::RegionStats;
use pilut_core::dist::exchange::tags;
use pilut_core::dist::{DistMatrix, Distribution, LocalView};
use pilut_core::options::{FactorError, IlutOptions};
use pilut_core::parallel::par_ilut;
use pilut_core::precond::IluPreconditioner;
use pilut_core::serial::{block_ilut, block_ilut_with_stats, ilut, ilut_with_stats};
use pilut_core::trisolve::{dist_solve_into, SolveScratch, TrisolvePlan};
use pilut_graph::{partition_kway, Graph, PartitionOptions};
use pilut_par::{
    Ctx, FaultAction, FaultPlan, FaultRule, Machine, MachineModel, MachineStats, RunOutput,
};
use pilut_solver::{dist_solve_robust, gmres, GmresOptions};
use pilut_sparse::{gen, BcsrMatrix, CsrMatrix};

/// Audit regions that must perform **zero** heap acquisitions over a whole
/// scenario: each is a replay path whose plan, pools and workspaces are
/// built before the steady state begins, so one allocation inside is a
/// regression of the memory plane. The level loop ships content-dependent
/// frames and grows live rows, so its regions are budgeted instead
/// ([`BUDGETED_REGIONS`]).
const STEADY_REGIONS: &[&str] = &[
    "gmres_inner",
    "recv_values",
    "send_values",
    "trisolve_replay",
];

/// Audit regions [`check`] holds to a budget per unit of work:
/// `mis_rounds` ([`MIS_ALLOCS_PER_MESSAGE`]), `alg42_sweep`
/// ([`SWEEP_GROWTHS_PER_ROW`]) and `plan_replay` — every frame round of a
/// `CommPlan`, the dist-MIS rounds nested in `mis_rounds` and the `U`-row
/// shipment ([`UROWS_ALLOCS_PER_MESSAGE`]).
const BUDGETED_REGIONS: &[&str] = &["alg42_sweep", "mis_rounds", "plan_replay"];

/// Heap acquisitions the `mis_rounds` region may make per dist-MIS message
/// a rank puts on the wire (`mis_keys` + `mis_tent` + `mis_conf`): the
/// exact-size frame buffer and nothing else — the kernel's slot arrays are
/// sized before the region opens. Counted against messages *sent*, i.e.
/// c = ½ over sent + received.
const MIS_ALLOCS_PER_MESSAGE: u64 = 1;

/// Heap acquisitions the `plan_replay` region may make per `U`-row message
/// (`urows` / `u0`) on top of its dist-MIS frames: the batch's index and
/// value buffers, sized exactly by the encoder — a round's staging area and
/// its round counters are the plan's from birth, and the receiver decodes
/// into buffers that regrow a handful of times per factorization, inside
/// what the empty batches leave of the budget.
const UROWS_ALLOCS_PER_MESSAGE: u64 = 2;

/// Heap acquisitions the `alg42_sweep` region (Algorithm 4.2's pass over
/// the live reduced rows, once per level) may make per interface row per
/// factorization. A live row owns the two buffers the sweep writes — its
/// staged `L`, held to `2m` entries, and its reduced row — and each takes
/// a quarter more than it needs when it must grow, so a row pays for
/// growth a few times in its life and never per touch. Measured on the
/// machine rows: 2.6–2.9 at full size, up to 3.7 at `--quick` size,
/// against 16.0 (p = 4) / 18.6 (p = 8) for the two exact-size copies per
/// row-touch that preceded it; three growths per buffer is the budget.
const SWEEP_GROWTHS_PER_ROW: u64 = 6;

/// Most bytes `distribute_p8` may hold at once, per byte of its matrix
/// (`8·(n + 1) + 16·nnz`). Resident at the peak — the deepest coarsening
/// level — are the matrix `DistMatrix` will keep (1.0), the structure
/// graph (0.9), the coarsening hierarchy (a geometric sum, 1.3 graphs) and
/// one level's scratch: 3.49 at full size, 3.46 at `--quick` size. The
/// transpose and the symmetrised copy behind the graph, the partitioner's
/// clone of it and the symmetrised copy in `DistMatrix` held 5.04 / 5.18
/// (EXPERIMENTS).
const DISTRIBUTE_LIVE_PER_INPUT: f64 = 3.6;

/// Dofs per node of `gen::elasticity_3d` = the tile size of `block_ilut`.
const DOFS: usize = 3;

/// What the machine arms around a body.
#[derive(Clone, Copy, PartialEq)]
pub(crate) enum Net {
    Plain,
    /// Reliable delivery and rank-loss recovery on, no fault fired: the
    /// steady-state cost of the robustness layers.
    Armed,
    /// Armed, and rank 2 dies at its 60th comm op — mid-factorization,
    /// after plans exist: the end-to-end time to recover.
    Killed,
}

/// A serial scenario, built once: the operation to time and what one
/// operation establishes without a clock.
struct Kernel<'a> {
    facts: Facts,
    op: Box<dyn FnMut() + 'a>,
}

/// One rank's share of a machine scenario.
struct RankOut {
    /// Barrier-aligned wall ns per operation (0 on a rank that died).
    ns: u64,
    /// This rank's share of the entries processed per operation.
    nnz: usize,
    /// `(fill, heap_bytes)` of this rank's factor rows, when the body holds them.
    store: Option<(usize, usize)>,
}

type RankBody = fn(&mut Ctx, &DistMatrix, &IlutOptions, usize) -> RankOut;

#[derive(Clone, Copy)]
enum Body {
    Serial(for<'a> fn(&'a CsrMatrix, &'a IlutOptions) -> Kernel<'a>),
    Ranks(RankBody),
}

/// One row of the scenario table.
#[derive(Clone, Copy)]
pub(crate) struct Scenario {
    pub(crate) name: &'static str,
    /// The matrix, given the grid side.
    matrix: fn(usize) -> CsrMatrix,
    /// Grid side at (`--quick`, full) size.
    dims: (usize, usize),
    /// `None`: a serial kernel, no machine. `Some(p)`: `p` simulated ranks.
    pub(crate) ranks: Option<usize>,
    pub(crate) net: Net,
    /// The factorization's options, given the problem dimension.
    opts: fn(usize) -> IlutOptions,
    /// Back-to-back operations per timed sample.
    inner: usize,
    body: Body,
}

const SERIAL_ILUT: Scenario = Scenario {
    name: "serial_ilut",
    matrix: |d| gen::convection_diffusion_2d(d, d, 4.0, -3.0),
    dims: (24, 64),
    ranks: None,
    net: Net::Plain,
    opts: |_| IlutOptions::new(10, 1e-4),
    inner: 1,
    body: Body::Serial(factor_kernel),
};

const TRISOLVE_SERIAL: Scenario = Scenario {
    name: "trisolve_serial",
    inner: 50,
    body: Body::Serial(trisolve_kernel),
    ..SERIAL_ILUT
};

/// The scalar twin of `block_ilut`: same matrix, matched fill
/// (m_scalar = [`DOFS`] · m_tile).
const SERIAL_ILUT_DOF3: Scenario = Scenario {
    name: "serial_ilut_dof3",
    // 3 dofs per node: the input with a block structure to find.
    matrix: |d| gen::elasticity_3d(d, d, d),
    dims: (5, 14),
    opts: |_| IlutOptions::new(10 * DOFS, 1e-4),
    ..SERIAL_ILUT
};

const BLOCK_ILUT: Scenario = Scenario {
    name: "block_ilut",
    opts: |_| IlutOptions::new(10, 1e-4),
    body: Body::Serial(block_factor_kernel),
    ..SERIAL_ILUT_DOF3
};

const PAR_ILUT_P4: Scenario = Scenario {
    name: "par_ilut_p4",
    matrix: |d| gen::laplace_2d(d, d),
    dims: (16, 48),
    ranks: Some(4),
    inner: 2,
    body: Body::Ranks(par_ilut_ranks),
    ..SERIAL_ILUT
};

const DIST_SOLVE_ROBUST_P4: Scenario = Scenario {
    name: "dist_solve_robust_p4",
    dims: (12, 32),
    net: Net::Armed,
    inner: 1,
    body: Body::Ranks(robust_solve_ranks),
    ..PAR_ILUT_P4
};

/// Every scenario, in report order. Rows that read as a pair sit next to
/// each other: a scalar kernel and its one-rank or blocked counterpart.
pub(crate) const SCENARIOS: [Scenario; 16] = [
    SERIAL_ILUT,
    // ILUT(n, 0) on a Laplacian: exact LU, the hardest fill per unknown.
    Scenario {
        name: "serial_ilut_unbounded",
        matrix: |d| gen::laplace_2d(d, d),
        dims: (12, 64),
        opts: |n| IlutOptions::new(n, 0.0),
        ..SERIAL_ILUT
    },
    TRISOLVE_SERIAL,
    // The `trisolve_serial` factor (serial = one rank, entry for entry)
    // through the distributed sweeps: zero messages, equal fill.
    Scenario {
        name: "dist_trisolve_p1",
        ranks: Some(1),
        body: Body::Ranks(dist_trisolve_ranks),
        ..TRISOLVE_SERIAL
    },
    SERIAL_ILUT_DOF3,
    BLOCK_ILUT,
    Scenario {
        name: "spmv",
        matrix: |d| gen::laplace_2d(d, d),
        dims: (40, 200),
        inner: 50,
        body: Body::Serial(spmv_kernel),
        ..SERIAL_ILUT
    },
    // Set-up on the driver thread, for 8 ranks: structure graph, k-way
    // partition, `DistMatrix`, every rank's `LocalView`.
    Scenario {
        name: "distribute_p8",
        matrix: gen::g40,
        dims: (1, 6),
        body: Body::Serial(distribute_kernel),
        ..SERIAL_ILUT
    },
    // Right-preconditioned GMRES(30) to 1e-8, ILUT preconditioner.
    Scenario {
        name: "gmres_ilut",
        matrix: |d| gen::convection_diffusion_2d(d, d, 8.0, 2.0),
        dims: (16, 48),
        inner: 1,
        body: Body::Serial(gmres_kernel),
        ..SERIAL_ILUT
    },
    PAR_ILUT_P4,
    Scenario {
        name: "par_ilut_p8",
        ranks: Some(8),
        ..PAR_ILUT_P4
    },
    Scenario {
        name: "par_ilut_star_p4",
        opts: |_| IlutOptions::star(10, 1e-4, 2),
        ..PAR_ILUT_P4
    },
    Scenario {
        name: "par_ilut_star_p8",
        ranks: Some(8),
        opts: |_| IlutOptions::star(10, 1e-4, 2),
        ..PAR_ILUT_P4
    },
    // Factor + plan build once, then the distributed sweeps of paper §5.
    Scenario {
        name: "dist_trisolve_p4",
        inner: 20,
        body: Body::Ranks(dist_trisolve_ranks),
        ..PAR_ILUT_P4
    },
    DIST_SOLVE_ROBUST_P4,
    // Detection, world adoption, re-planning, re-factorization and the
    // checkpoint-warm-started re-solve, all inside the timed operation.
    Scenario {
        name: "recovery_p4",
        net: Net::Killed,
        ..DIST_SOLVE_ROBUST_P4
    },
];

// ---- Bodies ----------------------------------------------------------------

fn must<T>(r: Result<T, FactorError>) -> T {
    // lint: allow(unwrap): bench problems factor by construction; a failure is fatal to the measurement
    r.expect("factorization failed")
}

fn factor_kernel<'a>(a: &'a CsrMatrix, opts: &'a IlutOptions) -> Kernel<'a> {
    let (f, stats) = must(ilut_with_stats(a, opts));
    Kernel {
        facts: Facts::of(a.nnz(), Some(f.nnz()), Some(stats.flops)),
        op: Box::new(move || {
            std::hint::black_box(must(ilut(a, opts)));
        }),
    }
}

fn trisolve_kernel<'a>(a: &'a CsrMatrix, opts: &'a IlutOptions) -> Kernel<'a> {
    let f = must(ilut(a, opts));
    let b: Vec<f64> = (0..a.n_rows()).map(|i| ((i % 13) as f64) - 6.0).collect();
    let mut x = vec![0.0; a.n_rows()];
    Kernel {
        facts: Facts::of(f.nnz(), Some(f.nnz()), None),
        op: Box::new(move || {
            f.solve_into(&b, &mut x);
            std::hint::black_box(&x);
        }),
    }
}

fn block_factor_kernel<'a>(a: &'a CsrMatrix, opts: &'a IlutOptions) -> Kernel<'a> {
    let ab = BcsrMatrix::from_csr(a, DOFS);
    let (f, stats) = must(block_ilut_with_stats(&ab, opts));
    Kernel {
        facts: Facts::of(a.nnz(), Some(f.nnz()), Some(stats.flops)),
        op: Box::new(move || {
            std::hint::black_box(must(block_ilut(&ab, opts)));
        }),
    }
}

fn spmv_kernel<'a>(a: &'a CsrMatrix, _: &'a IlutOptions) -> Kernel<'a> {
    let x: Vec<f64> = (0..a.n_rows()).map(|i| (i as f64 * 0.37).sin()).collect();
    let mut y = vec![0.0; a.n_rows()];
    Kernel {
        facts: Facts::of(a.nnz(), None, None),
        op: Box::new(move || {
            a.spmv(&x, &mut y);
            std::hint::black_box(&y);
        }),
    }
}

fn distribute_kernel<'a>(a: &'a CsrMatrix, _: &'a IlutOptions) -> Kernel<'a> {
    const P: usize = 8;
    let distribute = move || {
        let owned = a.clone(); // the pipeline consumes its matrix
        let g = Graph::from_csr_pattern(&owned);
        let popts = PartitionOptions {
            seed: 17,
            ..PartitionOptions::new(P)
        };
        let part = partition_kway(&g, &popts).part;
        let dm = DistMatrix::new(owned, Distribution::from_part(part, P));
        let views: Vec<LocalView> = (0..P).map(|r| dm.local_view(r)).collect();
        std::hint::black_box((&g, &dm, &views)); // the caller still reads the graph's weights
    };
    let audit = pilut_allocaudit::region("distribute");
    distribute();
    let peak = audit.peak_live_bytes();
    drop(audit);
    let input_bytes = 8 * (a.n_rows() + 1) + 16 * a.nnz();
    Kernel {
        facts: Facts {
            live_per_input: Some(peak as f64 / input_bytes as f64),
            ..Facts::of(a.nnz(), None, None)
        },
        op: Box::new(distribute),
    }
}

fn gmres_kernel<'a>(a: &'a CsrMatrix, opts: &'a IlutOptions) -> Kernel<'a> {
    let b = a.spmv_owned(&vec![1.0; a.n_rows()]);
    let f = must(ilut(a, opts));
    let fill = f.nnz();
    let pre = IluPreconditioner::new(f);
    let gopts = GmresOptions {
        rtol: 1e-8,
        ..GmresOptions::default()
    };
    let solve = move || {
        let r = gmres(a, &b, &pre, &gopts);
        assert!(r.converged, "gmres bench problem must converge");
        r.matvecs
    };
    // The solver is deterministic: every solve applies A and the
    // preconditioner `matvecs` times, which makes that the entry count.
    Kernel {
        facts: Facts::of((a.nnz() + fill) * solve(), Some(fill), None),
        op: Box::new(move || {
            std::hint::black_box(solve());
        }),
    }
}

/// Wall ns per operation of `inner` back-to-back `op`s on this rank, from a
/// barrier-aligned start (the scenario reports the max over ranks, which
/// is what a real machine would observe).
fn timed(ctx: &mut Ctx, inner: usize, mut op: impl FnMut(&mut Ctx)) -> u64 {
    ctx.barrier();
    let t = Instant::now();
    for _ in 0..inner {
        op(ctx);
    }
    (t.elapsed().as_nanos() / inner as u128) as u64
}

fn par_ilut_ranks(ctx: &mut Ctx, dm: &DistMatrix, opts: &IlutOptions, inner: usize) -> RankOut {
    let local = dm.local_view(ctx.rank());
    let mut store = None;
    let ns = timed(ctx, inner, |ctx| {
        let rf = must(par_ilut(ctx, dm, &local, opts));
        store = Some((rf.stats.nnz_l + rf.stats.nnz_u, rf.heap_bytes()));
        std::hint::black_box(&rf);
    });
    RankOut {
        ns,
        nnz: local.nnz(dm.matrix()),
        store,
    }
}

fn dist_trisolve_ranks(
    ctx: &mut Ctx,
    dm: &DistMatrix,
    opts: &IlutOptions,
    inner: usize,
) -> RankOut {
    let local = dm.local_view(ctx.rank());
    let rf = must(par_ilut(ctx, dm, &local, opts));
    let plan = TrisolvePlan::build(ctx, dm, &local, &rf);
    let b: Vec<f64> = local.nodes.iter().map(|&g| (g as f64).sin()).collect();
    let mut scratch = SolveScratch::build(&local, &plan);
    let mut x = vec![0.0; local.len()];
    let ns = timed(ctx, inner, |ctx| {
        dist_solve_into(ctx, &local, &rf, &plan, &b, &mut scratch, &mut x);
        std::hint::black_box(&x);
    });
    let fill = rf.stats.nnz_l + rf.stats.nnz_u;
    RankOut {
        ns,
        nnz: fill,
        store: Some((fill, rf.heap_bytes())),
    }
}

/// The self-healing solve (`dist_solve_robust`: factor, plan, GMRES(30) to
/// 1e-8, and the catch/adopt/shrink loop around them) on a known solution.
fn robust_solve_ranks(ctx: &mut Ctx, dm: &DistMatrix, opts: &IlutOptions, inner: usize) -> RankOut {
    let a = dm.matrix();
    let x_true: Vec<f64> = (0..dm.n()).map(|i| 1.0 + (i % 3) as f64).collect();
    let b = a.spmv_owned(&x_true);
    let gopts = GmresOptions {
        restart: 30,
        rtol: 1e-8,
        max_matvecs: 400,
    };
    let nnz = dm.local_view(ctx.rank()).nnz(dm.matrix());
    let mut dead = false;
    let ns = timed(ctx, inner, |ctx| {
        let rep = dist_solve_robust(ctx, a, &b, dm.dist(), opts, &gopts);
        assert!(rep.dead || rep.converged, "survivors must converge");
        dead = rep.dead;
        std::hint::black_box(&rep);
    });
    RankOut {
        ns: if dead { 0 } else { ns },
        nnz,
        store: None,
    }
}

// ---- Runners ---------------------------------------------------------------

/// The bit-reproducible half of a row: what one run of its body
/// establishes without a clock. `paper`'s `kernels` experiment renders
/// these; [`check`] asserts their self-consistency.
#[derive(Default)]
pub(crate) struct Facts {
    pub(crate) n: usize,
    /// Entries processed per operation.
    pub(crate) nnz: usize,
    /// Interface rows over all ranks (zero on a serial row).
    pub(crate) interface: usize,
    pub(crate) fill: Option<usize>,
    pub(crate) heap_bytes: Option<usize>,
    /// Modelled flops: the factorization's own count on a serial row, the
    /// machine's total on a machine row.
    pub(crate) flops: Option<f64>,
    /// Simulated T3D seconds of the whole stats pass (machine rows).
    pub(crate) sim_time: Option<f64>,
    /// Peak live heap bytes of one operation per byte of its input matrix
    /// (`distribute_p8`).
    pub(crate) live_per_input: Option<f64>,
    /// Measured and planned traffic (all zero on a serial row).
    pub(crate) stats: MachineStats,
    /// Injected faults that fired. A killed epoch abandons planned rounds
    /// mid-flight, so planned = measured is a fault-free contract only.
    pub(crate) faults: usize,
}

impl Facts {
    /// What a serial kernel can know (the runner fills in `n`).
    fn of(nnz: usize, fill: Option<usize>, flops: Option<f64>) -> Facts {
        Facts {
            nnz,
            fill,
            flops,
            ..Facts::default()
        }
    }
}

fn machine_run(s: &Scenario, dm: &DistMatrix, body: RankBody, inner: usize) -> RunOutput<RankOut> {
    let (opts, ranks) = ((s.opts)(dm.n()), dm.dist().n_ranks());
    let mut machine = Machine::builder(MachineModel::cray_t3d());
    if s.net != Net::Plain {
        machine = machine.reliable(true).recovery(true);
    }
    if s.net != Net::Killed {
        return machine.run(ranks, |ctx| body(ctx, dm, &opts, inner));
    }
    let kill = FaultRule::new(FaultAction::Kill).rank(2).after_op(60);
    machine = machine.fault_plan(FaultPlan::new(17).with(kill));
    // The kill is by design and its unwind is handled inside the machine:
    // keep the induced backtrace out of the log.
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let out = machine.run(ranks, |ctx| body(ctx, dm, &opts, inner));
    std::panic::set_hook(hook);
    out
}

/// Median and min of `reps` samples taken after one warm-up.
fn sample(reps: usize, mut op: impl FnMut() -> u64) -> (u64, u64) {
    op();
    let mut ns: Vec<u64> = (0..reps).map(|_| op()).collect();
    ns.sort_unstable();
    (ns[ns.len() / 2], ns[0])
}

/// Runs one row: `reps` timed samples when `reps > 0`, and the facts — for
/// a machine row from exactly one further pass of the same body.
fn run_row(s: &Scenario, quick: bool, reps: usize) -> Measurement {
    let a = (s.matrix)(if quick { s.dims.0 } else { s.dims.1 });
    let n = a.n_rows();
    let (timing, facts) = match (s.body, s.ranks) {
        (Body::Serial(build), _) => {
            let opts = (s.opts)(n);
            let mut k = build(&a, &opts);
            let timing = (reps > 0).then(|| {
                sample(reps, || {
                    let t = Instant::now();
                    (0..s.inner).for_each(|_| (k.op)());
                    (t.elapsed().as_nanos() / s.inner as u128) as u64
                })
            });
            (timing, Facts { n, ..k.facts })
        }
        (Body::Ranks(body), ranks) => {
            // lint: allow(unwrap): a table invariant (unit-tested): every machine body names its ranks
            let dm = DistMatrix::from_matrix(a, ranks.expect("machine rows set ranks"), 17);
            let slowest = |out: RunOutput<RankOut>| out.results.iter().map(|r| r.ns).max();
            let timing = (reps > 0).then(|| {
                sample(reps, || {
                    slowest(machine_run(s, &dm, body, s.inner)).unwrap_or(0)
                })
            });
            let out = machine_run(s, &dm, body, 1);
            let stores = out.results.iter().map(|r| r.store);
            let store = stores.reduce(|x, y| Some((x?.0 + y?.0, x?.1 + y?.1)));
            let facts = Facts {
                n,
                nnz: out.results.iter().map(|r| r.nnz).sum(),
                interface: dm.total_interface(),
                fill: store.flatten().map(|s| s.0),
                heap_bytes: store.flatten().map(|s| s.1),
                flops: Some(out.stats.flops),
                sim_time: Some(out.sim_time),
                live_per_input: None,
                faults: out.injected_faults.len(),
                stats: out.stats,
            };
            (timing, facts)
        }
    };
    let (median_ns, min_ns) = timing.unwrap_or((0, 0));
    Measurement {
        row: *s,
        reps,
        median_ns,
        min_ns,
        facts,
        regions: Vec::new(),
    }
}

/// The facts of one row at its quick or full size, untimed.
pub(crate) fn facts(s: &Scenario, quick: bool) -> Facts {
    run_row(s, quick, 0).facts
}

/// One row's measurement: the reported wall half, the facts, and the
/// scenario's audit-region traffic (warm-up, timed samples and stats pass
/// together — zero per scenario implies zero per operation).
struct Measurement {
    row: Scenario,
    reps: usize,
    median_ns: u64,
    min_ns: u64,
    facts: Facts,
    regions: Vec<RegionStats>,
}

impl Measurement {
    fn mnnz_per_s(&self) -> f64 {
        self.facts.nnz as f64 * 1e3 / self.median_ns.max(1) as f64
    }

    /// Runs of the operation the audit regions cover: the warm-up and the
    /// timed samples at `inner` operations each, plus the stats pass.
    fn passes(&self) -> u64 {
        ((self.reps + 1) * self.row.inner + 1) as u64
    }
}

/// The gate: every invariant a row must satisfy on its own, checked on the
/// typed measurement. The error names the scenario and the tag or region.
fn check(m: &Measurement) -> Result<(), String> {
    let stats = &m.facts.stats;
    let fail = |what: String| Err(format!("scenario {}: {what}", m.row.name));
    if m.row.ranks.is_none() && stats.messages + stats.bytes != 0 {
        let (msgs, bytes) = (stats.messages, stats.bytes);
        return fail(format!(
            "a serial row must put nothing on the wire, measured {msgs} message(s) / {bytes} byte(s)"
        ));
    }
    match m.facts.live_per_input {
        Some(live) if live > DISTRIBUTE_LIVE_PER_INPUT => {
            return fail(format!(
                "set-up held {live:.3} live byte(s) per byte of its matrix, budget \
                 {DISTRIBUTE_LIVE_PER_INPUT}: a second copy of the pattern is resident"
            ));
        }
        _ => {}
    }
    if m.facts.faults == 0 {
        for (&tag, &(messages, bytes, exact)) in &stats.planned_by_tag {
            let (name, (mm, mb)) = (tags::tag_name(tag), stats.tag_totals(tag));
            if mm != messages {
                return fail(format!(
                    "tag {name}: planned {messages} message(s), measured {mm}"
                ));
            }
            if exact && mb != bytes {
                return fail(format!(
                    "tag {name}: planned {bytes} byte(s), measured {mb}"
                ));
            }
        }
        for (&tag, &(mm, _)) in &stats.by_tag {
            if !stats.planned_by_tag.contains_key(&tag) {
                let name = tags::tag_name(tag);
                return fail(format!(
                    "tag {name}: {mm} measured message(s) bypassed the planned data plane"
                ));
            }
        }
        // Every pass repeats the stats pass's traffic (a body that factors
        // once outside its operation only makes the budget looser).
        let sent = |tags: &[u64]| tags.iter().map(|&t| stats.tag_totals(t).0).sum::<u64>();
        let mis = sent(&[tags::MIS_KEYS, tags::MIS_TENT, tags::MIS_CONF]);
        let urows = sent(&[tags::UROWS, tags::U0]);
        let rows = m.facts.interface as u64;
        let passes = m.passes();
        let budgets = [
            (
                "mis_rounds",
                MIS_ALLOCS_PER_MESSAGE * mis,
                format!("{mis} dist-MIS message(s)"),
                "only wire frames may allocate",
            ),
            (
                "alg42_sweep",
                SWEEP_GROWTHS_PER_ROW * rows,
                format!("{rows} interface row(s)"),
                "a live row's buffers may grow, a row-touch may not allocate",
            ),
            (
                "plan_replay",
                MIS_ALLOCS_PER_MESSAGE * mis + UROWS_ALLOCS_PER_MESSAGE * urows,
                format!("{mis} dist-MIS and {urows} U-row message(s)"),
                "only wire frames may allocate",
            ),
        ];
        for (name, per_pass, of, why) in budgets {
            let region = m.regions.iter().find(|r| r.name == name);
            let (allocs, budget) = (region.map_or(0, |r| r.allocs), per_pass * passes);
            if allocs > budget {
                return fail(format!(
                    "region {name} acquired {allocs} allocation(s) over {passes} pass(es) of \
                     {of}, budget {budget}: {why}"
                ));
            }
        }
    }
    for r in &m.regions {
        if STEADY_REGIONS.contains(&r.name) && r.allocs != 0 {
            let (name, allocs, bytes) = (r.name, r.allocs, r.bytes);
            return fail(format!(
                "steady region {name} acquired {allocs} allocation(s) / {bytes} byte(s); \
                 steady-state replay paths must not touch the heap"
            ));
        }
    }
    Ok(())
}

/// The first gated region no measurement recorded, if any. A region is
/// recorded when a scenario enters it, whatever it allocates, so on a run
/// of the whole table a missing name means the gate it belongs to has been
/// passing vacuously — the region was renamed, or lost its last caller.
fn unrecorded_region(results: &[Measurement]) -> Option<&'static str> {
    let regions = || results.iter().flat_map(|m| &m.regions);
    let mut gated = STEADY_REGIONS.iter().chain(BUDGETED_REGIONS).copied();
    gated.find(|&name| regions().all(|r| r.name != name))
}

/// Pairs whose wall ratio the report prints: the one-rank distributed
/// sweeps against the serial ones on the same factor, and the blocked
/// factorization against its scalar twin at matched fill.
const RATIOS: &[(&str, &str)] = &[
    ("dist_trisolve_p1", "trisolve_serial"),
    ("block_ilut", "serial_ilut_dof3"),
];

/// `bench [--quick] [--out PATH] [--label STR] [--scenario NAME]...`
pub fn run(args: &[String]) -> Result<(), String> {
    let mut quick = false;
    let mut out_path = String::from("BENCH.json");
    let mut label = String::from("local");
    let mut only: Vec<&str> = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{arg} needs a value"));
        match arg.as_str() {
            "--quick" => quick = true,
            "--out" => out_path = value()?.clone(),
            "--label" => label = value()?.clone(),
            "--scenario" => only.push(value()?.as_str()),
            other => return Err(format!("unknown bench flag {other}")),
        }
    }
    let known: Vec<&str> = SCENARIOS.iter().map(|s| s.name).collect();
    if let Some(bad) = only.iter().find(|o| !known.contains(o)) {
        let known = known.join(", ");
        return Err(format!("unknown scenario {bad} (known: {known})"));
    }
    let selected = |s: &&Scenario| only.is_empty() || only.contains(&s.name);
    let mut results = Vec::new();
    for s in SCENARIOS.iter().filter(selected) {
        eprint!("bench {} ... ", s.name);
        pilut_allocaudit::reset_regions();
        let mut m = run_row(s, quick, if quick { 3 } else { 9 });
        m.regions = pilut_allocaudit::region_stats();
        eprintln!(
            "median {:.3} ms, min {:.3} ms, {:.1} Mnnz/s",
            m.median_ns as f64 / 1e6,
            m.min_ns as f64 / 1e6,
            m.mnnz_per_s()
        );
        check(&m)?;
        results.push(m);
    }
    if only.is_empty() {
        if let Some(name) = unrecorded_region(&results) {
            return Err(format!(
                "region {name} is gated but no scenario entered it: the gate passes vacuously"
            ));
        }
    }
    let min_of = |name: &str| {
        results
            .iter()
            .find(|m| m.row.name == name)
            .map(|m| m.min_ns)
    };
    for (a, b) in RATIOS {
        if let (Some(x), Some(y)) = (min_of(a), min_of(b)) {
            println!(
                "bench: {a} takes {:.2}x the time of {b} (min {x} vs {y} ns, reported only)",
                x as f64 / y as f64
            );
        }
    }
    let json = render_json(&label, quick, &results);
    std::fs::write(&out_path, json).map_err(|e| format!("writing {out_path}: {e}"))?;
    println!(
        "bench: {} scenario(s) passed their invariants, report in {out_path}",
        results.len()
    );
    Ok(())
}

/// A per-tag ledger as `"name:messages/bytes"` cells (`~` for a byte count
/// the plan does not predict exactly).
pub(crate) fn ledger(entries: impl Iterator<Item = (u64, u64, Option<u64>)>) -> Vec<String> {
    let cell = |(tag, m, b): (u64, u64, Option<u64>)| {
        let bytes = b.map_or("~".to_string(), |b| b.to_string());
        format!("{}:{m}/{bytes}", tags::tag_name(tag))
    };
    entries.map(cell).collect()
}

/// Measured traffic by tag, as [`ledger`] entries.
pub(crate) fn measured(stats: &MachineStats) -> impl Iterator<Item = (u64, u64, Option<u64>)> + '_ {
    stats.by_tag.iter().map(|(&t, &(m, b))| (t, m, Some(b)))
}

fn render_json(label: &str, quick: bool, results: &[Measurement]) -> String {
    let row = |m: &Measurement| {
        let stats = &m.facts.stats;
        let planned = stats
            .planned_by_tag
            .iter()
            .map(|(&t, &(m, b, exact))| (t, m, exact.then_some(b)));
        let regions = m.regions.iter();
        let steady = regions.clone().filter(|r| STEADY_REGIONS.contains(&r.name));
        let live_peaks: Vec<String> = regions
            .clone()
            .map(|r| format!("{}:{}", r.name, r.peak_live_bytes))
            .collect();
        let regions: Vec<String> = regions
            .map(|r| format!("{}:{}/{}", r.name, r.allocs, r.bytes))
            .collect();
        format!(
            "    {{\"name\": \"{}\", \"n\": {}, \"nnz\": {}, \"interface\": {}, \"reps\": {}, \"inner\": {}, \
             \"median_ns\": {}, \"min_ns\": {}, \"mnnz_per_s\": {:.2}, \
             \"comm_messages\": {}, \"comm_bytes\": {}, \"comm_tags\": \"{}\", \
             \"comm_planned\": \"{}\", \"allocs\": {}, \"alloc_bytes\": {}, \
             \"alloc_regions\": \"{}\", \"alloc_live_peaks\": \"{}\"}}",
            m.row.name,
            m.facts.n,
            m.facts.nnz,
            m.facts.interface,
            m.reps,
            m.row.inner,
            m.median_ns,
            m.min_ns,
            m.mnnz_per_s(),
            stats.messages,
            stats.bytes,
            ledger(measured(stats)).join(" "),
            ledger(planned).join(" "),
            steady.clone().map(|r| r.allocs).sum::<u64>(),
            steady.map(|r| r.bytes).sum::<u64>(),
            regions.join(" "),
            live_peaks.join(" "),
        )
    };
    let rows: Vec<String> = results.iter().map(row).collect();
    format!(
        "{{\n  \"schema\": \"pilut-bench-v2\",\n  \"label\": \"{label}\",\n  \
         \"quick\": {quick},\n  \"scenarios\": [\n{}\n  ]\n}}\n",
        rows.join(",\n")
    )
}

/// `bench-compare <new.json> <base.json>`: per-row wall ratios between two
/// reports and the geometric mean of the min-time ratios. Rows match by
/// name and compare only when `n` and `inner` agree (a quick report never
/// cross-compares with a full one). A report, not a gate: the exit status
/// is zero for any two readable reports.
pub fn compare(args: &[String]) -> Result<(), String> {
    let [new_path, base_path] = args else {
        return Err("usage: bench-compare <new.json> <base.json>".into());
    };
    let (new, base) = (read_scenarios(new_path)?, read_scenarios(base_path)?);
    let mut log_ratios = Vec::new();
    for s in &new {
        let same = |b: &&ParsedScenario| b.name == s.name && b.n == s.n && b.inner == s.inner;
        let Some(b) = base.iter().find(same) else {
            continue;
        };
        let pct = |new: u64, old: u64| (new as f64 / old as f64 - 1.0) * 100.0;
        println!(
            "bench-compare: {:<24} median {:>10} -> {:>10} ns ({:+.1}%), min {:+.1}%",
            s.name,
            b.median_ns,
            s.median_ns,
            pct(s.median_ns, b.median_ns),
            pct(s.min_ns, b.min_ns)
        );
        log_ratios.push((s.min_ns as f64 / b.min_ns as f64).ln());
    }
    let compared = log_ratios.len();
    let geomean = (log_ratios.iter().sum::<f64>() / compared.max(1) as f64).exp();
    println!(
        "bench-compare: geomean of {compared} min-time ratio(s) {:+.1}% (wall time: reported, not gated)",
        (geomean - 1.0) * 100.0
    );
    Ok(())
}

/// One scenario row parsed back out of a bench report.
struct ParsedScenario {
    name: String,
    n: u64,
    inner: u64,
    median_ns: u64,
    min_ns: u64,
}

/// Parses the scenario lines of a bench JSON report — the writer's own
/// one-row-per-line format, in either schema generation (the timing fields
/// are the same in both).
fn read_scenarios(path: &str) -> Result<Vec<ParsedScenario>, String> {
    let content =
        std::fs::read_to_string(Path::new(path)).map_err(|e| format!("reading {path}: {e}"))?;
    if !content.contains("\"schema\": \"pilut-bench-v") {
        return Err(format!("{path}: missing pilut-bench schema marker"));
    }
    let mut out = Vec::new();
    for line in content.lines().map(str::trim) {
        let Some(rest) = line.strip_prefix("{\"name\": \"") else {
            continue;
        };
        let name = rest.split('"').next().unwrap_or_default().to_string();
        let grab = |key: &str| {
            field_u64(line, key).ok_or_else(|| format!("{path}: scenario {name} missing {key}"))
        };
        let timings = (grab("\"median_ns\":")?, grab("\"min_ns\":")?);
        if timings.0 == 0 || timings.1 == 0 {
            return Err(format!("{path}: scenario {name} has a zero timing"));
        }
        out.push(ParsedScenario {
            n: grab("\"n\":")?,
            inner: grab("\"inner\":")?,
            median_ns: timings.0,
            min_ns: timings.1,
            name,
        });
    }
    if out.is_empty() {
        return Err(format!("{path}: no scenarios recorded"));
    }
    Ok(out)
}

/// Extracts the unsigned integer following `key` on `line`.
fn field_u64(line: &str, key: &str) -> Option<u64> {
    let rest = line[line.find(key)? + key.len()..].trim_start();
    let end = rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    /// A healthy p = 4 row: 12 messages / 4096 bytes under `spmv`, planned
    /// exactly, nothing allocated in a steady region or (no dist-MIS
    /// message, so no frame) in `mis_rounds`.
    fn healthy() -> Measurement {
        let stats = MachineStats {
            messages: 12,
            bytes: 4096,
            by_tag: [(tags::SPMV, (12, 4096))].into(),
            planned_by_tag: [(tags::SPMV, (12, 4096, true))].into(),
            ..MachineStats::default()
        };
        Measurement {
            row: PAR_ILUT_P4,
            reps: 3,
            median_ns: 1000,
            min_ns: 900,
            facts: Facts {
                n: 100,
                nnz: 460,
                stats,
                ..Facts::default()
            },
            regions: vec![region("mis_rounds", 0), region("trisolve_replay", 0)],
        }
    }

    fn region(name: &'static str, allocs: u64) -> RegionStats {
        RegionStats {
            name,
            allocs,
            bytes: allocs * 64,
            deallocs: allocs,
            entries: 5,
            peak_live_bytes: 0,
        }
    }

    /// The violation is reported, naming the scenario and `what`.
    fn assert_fails(m: &Measurement, what: &str) {
        let err = check(m).unwrap_err();
        assert!(err.starts_with("scenario par_ilut_p4: "), "{err}");
        assert!(err.contains(what), "{err}");
    }

    #[test]
    fn healthy_rows_pass() {
        check(&healthy()).unwrap();
        // A one-rank machine plans zero messages per tag and measures none.
        let mut m = healthy();
        m.facts.stats = MachineStats {
            planned_by_tag: [(tags::FWD, (0, 0, true)), (tags::BWD, (0, 0, true))].into(),
            ..MachineStats::default()
        };
        check(&m).unwrap();
    }

    #[test]
    fn message_count_mismatch_fails() {
        let mut m = healthy();
        m.facts.stats.planned_by_tag = [(tags::SPMV, (11, 0, false))].into();
        assert_fails(&m, "tag spmv: planned 11 message(s), measured 12");
        // A planned message that never shipped is a divergence too.
        m.facts.stats.planned_by_tag =
            [(tags::SPMV, (12, 4096, true)), (tags::FWD, (1, 8, true))].into();
        assert_fails(&m, "tag fwd: planned 1 message(s), measured 0");
    }

    #[test]
    fn byte_mismatch_fails_when_the_prediction_is_exact() {
        let mut m = healthy();
        m.facts.stats.planned_by_tag = [(tags::SPMV, (12, 4095, true))].into();
        assert_fails(&m, "tag spmv: planned 4095 byte(s), measured 4096");
        // A producer-defined round predicts its message count only.
        m.facts.stats.planned_by_tag = [(tags::SPMV, (12, 4095, false))].into();
        check(&m).unwrap();
    }

    #[test]
    fn unplanned_tag_fails() {
        let mut m = healthy();
        m.facts.stats.by_tag.insert(tags::FWD, (3, 24));
        assert_fails(
            &m,
            "tag fwd: 3 measured message(s) bypassed the planned data plane",
        );
        // Collectives plan themselves like every other tag: no allowance.
        let mut m = healthy();
        m.facts
            .stats
            .by_tag
            .insert(Ctx::RESERVED_TAG_BASE, (7, 320));
        assert_fails(&m, "tag coll: 7 measured message(s) bypassed");
    }

    #[test]
    fn steady_region_acquisitions_fail() {
        let mut m = healthy();
        m.regions = vec![region("mis_rounds", 0), region("trisolve_replay", 3)];
        assert_fails(
            &m,
            "steady region trisolve_replay acquired 3 allocation(s) / 192 byte(s)",
        );
        // The planned = measured contract is waived once a fault fired (a
        // killed epoch abandons planned rounds); the memory plane is not.
        m.facts.faults = 1;
        m.facts.stats.planned_by_tag.clear();
        assert_fails(&m, "steady region trisolve_replay");
        m.regions.pop();
        check(&m).unwrap();
    }

    #[test]
    fn mis_rounds_acquisitions_beyond_the_frame_budget_fail() {
        // 5 dist-MIS messages per pass over 9 passes (warm-up + 3 reps at
        // 2 operations each, + the stats pass): 45 frames may allocate.
        let mut m = healthy();
        for (tag, traffic) in [(tags::MIS_KEYS, (3, 96)), (tags::MIS_CONF, (2, 64))] {
            m.facts.stats.by_tag.insert(tag, traffic);
            let planned = (traffic.0, traffic.1, true);
            m.facts.stats.planned_by_tag.insert(tag, planned);
        }
        m.regions[0] = region("mis_rounds", 45);
        check(&m).unwrap();
        m.regions[0] = region("mis_rounds", 46);
        assert_fails(
            &m,
            "region mis_rounds acquired 46 allocation(s) over 9 pass(es) of 5 dist-MIS message(s), budget 45",
        );
        // A killed epoch abandons rounds mid-flight: waived like planned = measured.
        m.facts.faults = 1;
        check(&m).unwrap();
    }

    #[test]
    fn plan_replay_acquisitions_beyond_the_frame_budget_fail() {
        // Per pass 3 dist-MIS frames at one buffer and 4 U-row batches at
        // two, over 9 passes: (3 + 2 · 4) · 9 = 99 acquisitions.
        let mut m = healthy();
        for (tag, traffic) in [(tags::MIS_TENT, (3, 96)), (tags::UROWS, (4, 640))] {
            m.facts.stats.by_tag.insert(tag, traffic);
            let planned = (traffic.0, traffic.1, true);
            m.facts.stats.planned_by_tag.insert(tag, planned);
        }
        m.regions.push(region("plan_replay", 99));
        check(&m).unwrap();
        m.regions[2] = region("plan_replay", 100);
        assert_fails(
            &m,
            "region plan_replay acquired 100 allocation(s) over 9 pass(es) of 3 dist-MIS and 4 U-row message(s), budget 99",
        );
        m.facts.faults = 1;
        check(&m).unwrap();
    }

    #[test]
    fn a_gated_region_no_scenario_entered_is_reported() {
        // Between them the rows record every gated name; take one away (as
        // a rename of the region in the library would) and it is named.
        let gated = STEADY_REGIONS.iter().chain(BUDGETED_REGIONS);
        let mut m = healthy();
        m.regions = gated.map(|name| region(name, 0)).collect();
        assert_eq!(unrecorded_region(&[healthy(), m]), None);
        assert_eq!(unrecorded_region(&[healthy()]), Some("gmres_inner"));
        let mut m = healthy();
        m.regions.push(region("gmres_inner", 0));
        assert_eq!(unrecorded_region(&[m]), Some("recv_values"));
    }

    #[test]
    fn sweep_acquisitions_beyond_the_growth_budget_fail() {
        // 10 interface rows over 9 passes: 6 · 10 · 9 growths, and no more
        // (one acquisition per row-touch would be hundreds per pass).
        let mut m = healthy();
        m.facts.interface = 10;
        m.regions.push(region("alg42_sweep", 540));
        check(&m).unwrap();
        m.regions[2] = region("alg42_sweep", 541);
        assert_fails(
            &m,
            "region alg42_sweep acquired 541 allocation(s) over 9 pass(es) of 10 interface row(s), budget 540",
        );
        // A killed epoch re-partitions: its rows are not this count.
        m.facts.faults = 1;
        check(&m).unwrap();
    }

    #[test]
    fn serial_row_with_traffic_fails() {
        let mut m = healthy();
        m.row.ranks = None;
        assert_fails(
            &m,
            "a serial row must put nothing on the wire, measured 12 message(s)",
        );
    }

    #[test]
    fn table_is_well_formed() {
        let names: BTreeSet<&str> = SCENARIOS.iter().map(|s| s.name).collect();
        assert_eq!(names.len(), SCENARIOS.len(), "scenario names are unique");
        for s in &SCENARIOS {
            let serial = matches!(s.body, Body::Serial(_));
            assert_eq!(
                serial,
                s.ranks.is_none(),
                "{}: body and ranks agree",
                s.name
            );
            assert!(serial || s.ranks.is_some_and(|p| p >= 1), "{}", s.name);
            assert!(
                s.net == Net::Plain || !serial,
                "{}: only a machine is armed",
                s.name
            );
        }
        for (a, b) in RATIOS {
            assert!(names.contains(a) && names.contains(b), "{a} / {b}");
        }
    }

    #[test]
    fn every_row_passes_its_invariants_at_quick_size() {
        for s in &SCENARIOS {
            let m = run_row(s, true, 0);
            check(&m).unwrap();
            if s.ranks.is_some_and(|p| p >= 2) {
                let planned = &m.facts.stats.planned_by_tag;
                assert!(
                    !planned.is_empty(),
                    "{}: a machine row plans its traffic",
                    s.name
                );
                assert!(m.facts.stats.messages > 0, "{}", s.name);
            }
            assert_eq!(m.facts.faults > 0, s.net == Net::Killed, "{}", s.name);
        }
        // The pair the report prints as a ratio is the same factor twice.
        let fill = |name| facts(SCENARIOS.iter().find(|s| s.name == name).unwrap(), true).fill;
        assert_eq!(fill("dist_trisolve_p1"), fill("trisolve_serial"));
    }

    #[test]
    fn exact_lu_holds_a_small_multiple_of_the_factor_it_returns() {
        // ILUT(n, 0) is every test's exact-LU configuration: `m` bounds
        // nothing there, and arenas reserved for `rows · m` entries would
        // hold O(n²) bytes for a factor of O(n log n). What a rank holds at
        // once — arenas in mid-growth, the live reduced rows, the working
        // row — stays within 3× the store it hands back (1.9× and 1.5×
        // here; `rows · n` reserved up front would be 23×).
        let a = gen::laplace_2d(24, 24);
        let opts = IlutOptions::new(a.n_rows(), 0.0);
        let dm = DistMatrix::from_matrix(a, 2, 17);
        let out = Machine::run(2, MachineModel::cray_t3d(), |ctx| {
            let local = dm.local_view(ctx.rank());
            let audit = pilut_allocaudit::region("test_exact_lu");
            let rf = must(par_ilut(ctx, &dm, &local, &opts));
            (audit.peak_live_bytes() as usize, rf.heap_bytes())
        });
        for (rank, &(peak, kept)) in out.results.iter().enumerate() {
            assert!(
                peak <= 3 * kept,
                "rank {rank}: {peak} B live for {kept} B kept"
            );
        }
    }

    fn flags(s: &[&str]) -> Vec<String> {
        s.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn unknown_scenario_is_an_error() {
        let err = run(&flags(&["--quick", "--scenario", "par_ilut_p5"])).unwrap_err();
        assert!(err.contains("unknown scenario par_ilut_p5"), "{err}");
        assert!(run(&flags(&["--scaling"])).is_err());
        assert!(run(&flags(&["--out"])).is_err());
    }

    #[test]
    fn quick_selects_any_row_and_the_report_reads_back() {
        let out = std::env::temp_dir().join("pilut_bench_quick_par.json");
        let out = out.to_str().unwrap();
        run(&flags(&[
            "--quick",
            "--scenario",
            "par_ilut_p4",
            "--out",
            out,
            "--label",
            "t",
        ]))
        .unwrap();
        let rows = read_scenarios(out).unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(
            (rows[0].name.as_str(), rows[0].n, rows[0].inner),
            ("par_ilut_p4", 256, 2)
        );
        assert!(rows[0].min_ns > 0 && rows[0].min_ns <= rows[0].median_ns);
        let json = std::fs::read_to_string(out).unwrap();
        assert!(json.contains("\"label\": \"t\"") && json.contains("\"comm_planned\": \"urows:"));
    }

    #[test]
    fn compare_reports_and_never_gates() {
        // A schema-v1 baseline (no alloc columns) against a current report
        // 10x slower: compared, printed, exit 0.
        let v1 = "{\n  \"schema\": \"pilut-bench-v1\",\n  \"scenarios\": [\n    \
                  {\"name\": \"par_ilut_p4\", \"n\": 100, \"nnz\": 460, \"reps\": 3, \
                  \"inner\": 2, \"median_ns\": 100, \"min_ns\": 90, \"mnnz_per_s\": 4600.0}\n  ]\n}\n";
        let dir = std::env::temp_dir();
        let (base, new) = (
            dir.join("pilut_bench_v1_base.json"),
            dir.join("pilut_bench_v2_new.json"),
        );
        std::fs::write(&base, v1).unwrap();
        std::fs::write(&new, render_json("t", true, &[healthy()])).unwrap();
        let paths = flags(&[new.to_str().unwrap(), base.to_str().unwrap()]);
        compare(&paths).unwrap();
        // No comparable row is still a readable pair.
        std::fs::write(&base, v1.replace("\"n\": 100", "\"n\": 7")).unwrap();
        compare(&paths).unwrap();
        // Unreadable input and the retired flags are errors.
        std::fs::write(&base, "{\"schema\": \"other\"}").unwrap();
        assert!(compare(&paths).is_err());
        assert!(compare(&flags(&["a.json", "b.json", "--geomean"])).is_err());
    }

    #[test]
    fn every_committed_report_still_reads() {
        let root = crate::workspace_root();
        let mut seen = 0;
        for entry in std::fs::read_dir(&root).unwrap().flatten() {
            let name = entry.file_name().to_string_lossy().into_owned();
            if name.starts_with("BENCH_pr") && name.ends_with(".json") {
                let rows = read_scenarios(entry.path().to_str().unwrap()).unwrap();
                assert!(rows.len() >= 5, "{name}");
                seen += 1;
            }
        }
        assert!(seen >= 9, "the committed trajectory is present");
    }

    #[test]
    fn throughput_and_report_columns() {
        let m = healthy();
        // 460 entries in 1000 ns = 460 Mnnz/s.
        assert!((m.mnnz_per_s() - 460.0).abs() < 1e-9);
        // The report's alloc totals cover steady regions only.
        let mut m = healthy();
        m.regions[1] = region("trisolve_replay", 2);
        let json = render_json("t", true, &[m]);
        assert!(
            json.contains("\"allocs\": 2, \"alloc_bytes\": 128"),
            "{json}"
        );
        assert!(json.contains("\"alloc_regions\": \"mis_rounds:0/0 trisolve_replay:2/128\""));
        assert_eq!(field_u64("{\"median_ns\": 42,", "\"median_ns\":"), Some(42));
        assert_eq!(field_u64("no field", "\"median_ns\":"), None);
    }
}
