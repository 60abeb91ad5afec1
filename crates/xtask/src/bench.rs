//! The kernel gate: the in-tree, zero-registry-dependency invariant check
//! over the kernels, run by `xtask paper`'s `kernels` experiment.
//!
//! [`SCENARIOS`] is the whole configuration: one row per scenario with its
//! matrix and grid side, `ranks` (`None` = a serial kernel, `Some(p)` = `p`
//! ranks of the simulated machine), the ILUT options, the operations per
//! audit pass, and one body. Every row runs
//! its body twice, untimed: an **audit pass** of `inner` back-to-back
//! operations, which replays each steady region more than once, and the
//! **facts pass**. A serial kernel is built once — the build establishes
//! its facts — and its operation replayed; a machine body runs the audit
//! pass and then **exactly one more time** for the statistics, so what is
//! audited and what is counted are the same code.
//!
//! Only deterministic quantities are measured, and [`gate`] holds every row
//! to them before `paper` renders or diffs a line of `kernels.txt`:
//!
//! * The self-consistency invariants ([`check`]: measured per-tag messages
//!   and bytes equal the planned ones exactly, `coll` included, no tag
//!   escapes the plan, every [`STEADY_REGIONS`] entry performed zero heap
//!   acquisitions, the `mis_rounds` region at most
//!   [`MIS_ALLOCS_PER_MESSAGE`] per dist-MIS message, the `alg42_sweep`
//!   region at most [`SWEEP_GROWTHS_PER_ROW`] per interface row, the
//!   `plan_replay` region the frames' buffers and nothing else,
//!   `distribute_p8` at most [`DISTRIBUTE_LIVE_PER_INPUT`] live bytes per
//!   byte of its matrix, a row's matrix at most [`MATRIX_BYTES_PER_ENTRY`]
//!   and its factors at most [`FACTOR_BYTES_PER_ENTRY`] heap bytes per
//!   entry, `par_ilut` at most [`FACTOR_LIVE_PER_KEPT`] live bytes per
//!   byte of the factors it returns, a serial row puts nothing on the
//!   wire) are
//!   asserted on the typed [`Measurement`] of each row; after the last row
//!   the gate also asserts that every gated region was entered by some
//!   scenario ([`unrecorded_region`]), so a renamed region cannot pass by
//!   vanishing.
//! * The counts themselves (flops, simulated T3D seconds, per-tag messages
//!   and bytes, fill, factor heap bytes) are what `kernels` renders, and
//!   `paper --check` exact-diffs them like every table of the paper.
//!
//! Wall time lives in the standalone `benchmark/` package, whose per-layer
//! metrics time the same kernels: `core.serial.ilut_s`,
//! `core.factors.solve_s`, `sparse.spmv_s`, `graph.partition_s` and
//! `core.dist.matrix_build_s`, `solver.gmres_s`, `core.parallel.par_ilut_s`
//! and `core.trisolve.solve_s`.

use pilut_allocaudit::RegionStats;
use pilut_core::dist::exchange::tags;
use pilut_core::dist::{DistMatrix, Distribution, LocalView};
use pilut_core::options::{FactorError, IlutOptions};
use pilut_core::parallel::{par_ilut, RankFactors};
use pilut_core::precond::IluPreconditioner;
use pilut_core::serial::{ilut, ilut_with_stats};
use pilut_core::trisolve::{dist_solve_into, SolveScratch, TrisolvePlan};
use pilut_graph::{partition_kway, Graph, PartitionOptions};
use pilut_par::{Ctx, Machine, MachineModel, MachineStats, RunOutput};
use pilut_solver::{dist_solve_robust, gmres, GmresOptions};
use pilut_sparse::{gen, CsrMatrix};

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
/// (`urows`) on top of its dist-MIS frames: the batch's index and
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
/// machine rows: 2.6–2.9, against 16.0 (p = 4) / 18.6 (p = 8) for the two
/// exact-size copies per row-touch that preceded it; three growths per
/// buffer is the budget.
const SWEEP_GROWTHS_PER_ROW: u64 = 6;

/// Most bytes `distribute_p8` may hold at once, per byte of its matrix
/// ([`CsrMatrix::heap_bytes`], `4·(n + 1) + 12·nnz`). Resident at the peak
/// — the deepest coarsening level — are the matrix `DistMatrix` will keep
/// (1.0), the structure graph (0.31: 32-bit offsets and ids, no unit
/// weights) and the coarsening hierarchy (a geometric sum of graphs that
/// store their weights) with one level's 32-bit scratch (1.09): 2.398,
/// 8 810 696 live bytes. With `usize` offsets and a stored unit weight per
/// arc and per vertex the graph was 0.69 and the total 2.847 (10 463 916);
/// against the `usize` matrix it read 2.343. With `usize` graph ids and
/// `i64` weights the partitioner held 3.49 of a `usize` matrix, and with
/// the transpose and the symmetrised copy behind the graph, the
/// partitioner's clone of it and the symmetrised copy in `DistMatrix` 5.04
/// (EXPERIMENTS.md at 039f5b3).
const DISTRIBUTE_LIVE_PER_INPUT: f64 = 2.40;

/// Most heap bytes a row's matrix may hold per stored entry
/// ([`CsrMatrix::heap_bytes`] over `nnz`). A `usize` column id beside its
/// `f64` value is 16 B per entry before any row pointer is counted, so a
/// matrix above 16 carries a 64-bit index per entry. With `u32` row
/// pointers and column ids the rows read 12.80 to 12.82; with `usize` ones,
/// 17.61 to 17.64.
const MATRIX_BYTES_PER_ENTRY: f64 = 16.0;

/// Most heap bytes a machine row's factors may hold per stored entry
/// (`RankFactors::heap_bytes` over `nnz_l + nnz_u`, summed over ranks). A
/// `usize` slot beside its `f64` value is 16 B per strict entry before any
/// pivot, row pointer or node list is counted, so a store above 16 carries
/// a 64-bit index per entry. With `u32` slots and row pointers the rows
/// read 12.58 to 13.10; with `usize` ones, 16.77 to 17.32.
const FACTOR_BYTES_PER_ENTRY: f64 = 16.0;

/// Most bytes `par_ilut` may hold at once per heap byte of the factors it
/// returns, both summed over ranks (the facts pass's `par_ilut` under an
/// audit region, over `RankFactors::heap_bytes`): the arenas reserved for
/// the factors, and the working set of the level loop — the reduced rows,
/// the staged interface `L`s, the shipped `U` rows, the working row and
/// the dist-MIS slot arrays. With each interface row written into the
/// factor store as its level factors it and the dist-MIS map sized to the
/// interface, the rows read 1.05 (`dist_trisolve_p1`) to 1.789
/// (`par_ilut_p8`); with the interface rows staged whole and copied into
/// the store at the end, and the map keyed by global node, 1.05 to 1.953;
/// with a `(usize, f64)` entry per row in flight, `usize` working-row
/// slots and the initial reduced pattern as a `Vec` per row, 1.09 to
/// 2.233. The budget sits 2.3 % above the largest reading.
const FACTOR_LIVE_PER_KEPT: f64 = 1.83;

/// A serial scenario, built once: the operation to replay and what one
/// operation establishes without a clock.
struct Kernel<'a> {
    /// Entries processed per operation.
    nnz: usize,
    fill: Option<usize>,
    /// The factorization's own flop count.
    flops: Option<f64>,
    /// Peak live heap bytes of one operation per byte of its matrix.
    live_per_input: Option<f64>,
    op: Box<dyn FnMut() + 'a>,
}

impl<'a> Kernel<'a> {
    fn new(nnz: usize, fill: Option<usize>, flops: Option<f64>, op: impl FnMut() + 'a) -> Self {
        Kernel {
            nnz,
            fill,
            flops,
            live_per_input: None,
            op: Box::new(op),
        }
    }
}

/// One rank's share of a machine scenario.
struct RankOut {
    /// This rank's share of the entries processed per operation.
    nnz: usize,
    /// `(fill, heap_bytes)` of this rank's factor rows, when the body holds them.
    store: Option<(usize, usize)>,
    /// Peak live bytes of this rank's last `par_ilut`, when the body runs one.
    factor_live: Option<usize>,
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
    /// The grid side.
    dim: usize,
    /// `None`: a serial kernel, no machine. `Some(p)`: `p` simulated ranks.
    pub(crate) ranks: Option<usize>,
    /// The factorization's options, given the problem dimension.
    opts: fn(usize) -> IlutOptions,
    /// Back-to-back operations in the audit pass.
    inner: usize,
    body: Body,
}

const SERIAL_ILUT: Scenario = Scenario {
    name: "serial_ilut",
    matrix: |d| gen::convection_diffusion_2d(d, d, 4.0, -3.0),
    dim: 64,
    ranks: None,
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

const PAR_ILUT_P4: Scenario = Scenario {
    name: "par_ilut_p4",
    matrix: |d| gen::laplace_2d(d, d),
    dim: 48,
    ranks: Some(4),
    inner: 2,
    body: Body::Ranks(par_ilut_ranks),
    ..SERIAL_ILUT
};

/// Every scenario, in report order. Rows that read as a pair sit next to
/// each other: a scalar kernel and its one-rank counterpart.
pub(crate) const SCENARIOS: [Scenario; 13] = [
    SERIAL_ILUT,
    // ILUT(n, 0) on a Laplacian: exact LU, the hardest fill per unknown.
    Scenario {
        name: "serial_ilut_unbounded",
        matrix: |d| gen::laplace_2d(d, d),
        dim: 64,
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
    Scenario {
        name: "spmv",
        matrix: |d| gen::laplace_2d(d, d),
        dim: 200,
        inner: 50,
        body: Body::Serial(spmv_kernel),
        ..SERIAL_ILUT
    },
    // Set-up on the driver thread, for 8 ranks: structure graph, k-way
    // partition, `DistMatrix`, every rank's `LocalView`.
    Scenario {
        name: "distribute_p8",
        matrix: gen::g40,
        dim: 6,
        body: Body::Serial(distribute_kernel),
        ..SERIAL_ILUT
    },
    // Right-preconditioned GMRES(30) to 1e-8, ILUT preconditioner.
    Scenario {
        name: "gmres_ilut",
        matrix: |d| gen::convection_diffusion_2d(d, d, 8.0, 2.0),
        dim: 48,
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
    Scenario {
        name: "dist_solve_robust_p4",
        dim: 32,
        inner: 1,
        body: Body::Ranks(robust_solve_ranks),
        ..PAR_ILUT_P4
    },
];

// ---- Bodies ----------------------------------------------------------------

#[expect(clippy::expect_used, reason = "bench problems factor by construction")]
fn must<T>(r: Result<T, FactorError>) -> T {
    r.expect("factorization failed")
}

fn factor_kernel<'a>(a: &'a CsrMatrix, opts: &'a IlutOptions) -> Kernel<'a> {
    let (f, stats) = must(ilut_with_stats(a, opts));
    Kernel::new(a.nnz(), Some(f.nnz()), Some(stats.flops), move || {
        std::hint::black_box(must(ilut(a, opts)));
    })
}

fn trisolve_kernel<'a>(a: &'a CsrMatrix, opts: &'a IlutOptions) -> Kernel<'a> {
    let f = must(ilut(a, opts));
    let b: Vec<f64> = (0..a.n_rows()).map(|i| ((i % 13) as f64) - 6.0).collect();
    let mut x = vec![0.0; a.n_rows()];
    Kernel::new(f.nnz(), Some(f.nnz()), None, move || {
        f.solve_into(&b, &mut x);
        std::hint::black_box(&x);
    })
}

fn spmv_kernel<'a>(a: &'a CsrMatrix, _: &'a IlutOptions) -> Kernel<'a> {
    let x: Vec<f64> = (0..a.n_rows()).map(|i| (i as f64 * 0.37).sin()).collect();
    let mut y = vec![0.0; a.n_rows()];
    Kernel::new(a.nnz(), None, None, move || {
        a.spmv(&x, &mut y);
        std::hint::black_box(&y);
    })
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
    let input_bytes = a.heap_bytes();
    Kernel {
        live_per_input: Some(peak as f64 / input_bytes as f64),
        ..Kernel::new(a.nnz(), None, None, distribute)
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
    // The solver is deterministic: a converged cold solve applies A and
    // the preconditioner `matvecs` times each (the `krylov` tests count
    // them), which makes that the entry count.
    Kernel::new((a.nnz() + fill) * solve(), Some(fill), None, move || {
        std::hint::black_box(solve());
    })
}

/// `inner` back-to-back `op`s on this rank, from a barrier-aligned start
/// (the barrier is part of every pass's simulated time and `coll` traffic).
fn repeat(ctx: &mut Ctx, inner: usize, mut op: impl FnMut(&mut Ctx)) {
    ctx.barrier();
    for _ in 0..inner {
        op(ctx);
    }
}

/// `par_ilut` under an audit region: the factors, and the most bytes this
/// rank held at once while computing them, the factors included.
fn audited_par_ilut(
    ctx: &mut Ctx,
    dm: &DistMatrix,
    local: &LocalView,
    opts: &IlutOptions,
) -> (RankFactors, usize) {
    let audit = pilut_allocaudit::region("par_ilut");
    let rf = must(par_ilut(ctx, dm, local, opts));
    (rf, audit.peak_live_bytes() as usize)
}

fn par_ilut_ranks(ctx: &mut Ctx, dm: &DistMatrix, opts: &IlutOptions, inner: usize) -> RankOut {
    let local = dm.local_view(ctx.rank());
    let (mut store, mut factor_live) = (None, None);
    repeat(ctx, inner, |ctx| {
        let (rf, live) = audited_par_ilut(ctx, dm, &local, opts);
        store = Some((rf.stats.nnz_l + rf.stats.nnz_u, rf.heap_bytes()));
        factor_live = Some(live);
        std::hint::black_box(&rf);
    });
    RankOut {
        nnz: local.nnz(dm.matrix()),
        store,
        factor_live,
    }
}

fn dist_trisolve_ranks(
    ctx: &mut Ctx,
    dm: &DistMatrix,
    opts: &IlutOptions,
    inner: usize,
) -> RankOut {
    let local = dm.local_view(ctx.rank());
    let (rf, live) = audited_par_ilut(ctx, dm, &local, opts);
    let plan = TrisolvePlan::build(ctx, dm, &local, &rf);
    let b: Vec<f64> = local.nodes.iter().map(|&g| (g as f64).sin()).collect();
    let mut scratch = SolveScratch::build(&local, &plan);
    let mut x = vec![0.0; local.len()];
    repeat(ctx, inner, |ctx| {
        dist_solve_into(ctx, &local, &rf, &plan, &b, &mut scratch, &mut x);
        std::hint::black_box(&x);
    });
    let fill = rf.stats.nnz_l + rf.stats.nnz_u;
    RankOut {
        nnz: fill,
        store: Some((fill, rf.heap_bytes())),
        factor_live: Some(live),
    }
}

/// The degradation ladder's solve (`dist_solve_robust`: factor, plan,
/// GMRES(30) to 1e-8) on a known solution.
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
    repeat(ctx, inner, |ctx| {
        let rep = dist_solve_robust(ctx, a, &b, dm.dist(), opts, &gopts);
        assert!(rep.converged, "the bench problem must converge");
        std::hint::black_box(&rep);
    });
    RankOut {
        nnz,
        store: None,
        factor_live: None,
    }
}

// ---- Runners ---------------------------------------------------------------

/// One row's measurement: what one run of its body establishes without a
/// clock, and the scenario's audit-region traffic (audit pass and facts
/// pass together — zero per scenario implies zero per operation). `paper`'s
/// `kernels` experiment renders it; [`check`] asserts its self-consistency.
pub(crate) struct Measurement {
    pub(crate) row: Scenario,
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
    /// Simulated T3D seconds of the whole facts pass (machine rows).
    pub(crate) sim_time: Option<f64>,
    /// Peak live heap bytes of one operation per byte of its input matrix
    /// (`distribute_p8`).
    pub(crate) live_per_input: Option<f64>,
    /// Peak live heap bytes of `par_ilut` per heap byte of the factors it
    /// returned, both summed over ranks (the rows that run `par_ilut`).
    pub(crate) factor_live_per_kept: Option<f64>,
    /// Measured and planned traffic (all zero on a serial row).
    pub(crate) stats: MachineStats,
    /// `(heap bytes, stored entries)` of the row's matrix.
    matrix: (usize, usize),
    regions: Vec<RegionStats>,
}

impl Measurement {
    /// What a row of matrix `a` establishes before its body counts anything.
    fn of(row: Scenario, a: &CsrMatrix) -> Measurement {
        Measurement {
            row,
            n: a.n_rows(),
            nnz: 0,
            interface: 0,
            fill: None,
            heap_bytes: None,
            flops: None,
            sim_time: None,
            live_per_input: None,
            factor_live_per_kept: None,
            stats: MachineStats::default(),
            matrix: (a.heap_bytes(), a.nnz()),
            regions: Vec::new(),
        }
    }

    /// Runs of the operation the audit regions cover: the audit pass's
    /// `inner` and the facts pass's one.
    fn passes(&self) -> u64 {
        (self.row.inner + 1) as u64
    }
}

fn machine_run(s: &Scenario, dm: &DistMatrix, body: RankBody, inner: usize) -> RunOutput<RankOut> {
    let (opts, ranks) = ((s.opts)(dm.n()), dm.dist().n_ranks());
    Machine::run(ranks, MachineModel::cray_t3d(), |ctx| {
        body(ctx, dm, &opts, inner)
    })
}

/// Runs one row: the audit pass of `inner` operations, and the facts — for
/// a machine row from exactly one further pass of the same body.
fn run_row(s: &Scenario) -> Measurement {
    let a = (s.matrix)(s.dim);
    let uncounted = Measurement::of(*s, &a);
    match (s.body, s.ranks) {
        (Body::Serial(build), _) => {
            let opts = (s.opts)(a.n_rows());
            let mut k = build(&a, &opts);
            (0..s.inner).for_each(|_| (k.op)());
            Measurement {
                nnz: k.nnz,
                fill: k.fill,
                flops: k.flops,
                live_per_input: k.live_per_input,
                ..uncounted
            }
        }
        (Body::Ranks(body), ranks) => {
            #[expect(clippy::expect_used, reason = "every machine row names its ranks")]
            let dm = DistMatrix::from_matrix(a, ranks.expect("machine rows set ranks"), 17);
            machine_run(s, &dm, body, s.inner);
            let out = machine_run(s, &dm, body, 1);
            let stores = out.results.iter().map(|r| r.store);
            let store = stores.reduce(|x, y| Some((x?.0 + y?.0, x?.1 + y?.1)));
            let lives = out.results.iter().map(|r| r.factor_live);
            let live = lives.reduce(|x, y| Some(x? + y?)).flatten();
            let kept = store.flatten().map(|s| s.1 as f64);
            Measurement {
                nnz: out.results.iter().map(|r| r.nnz).sum(),
                interface: dm.total_interface(),
                fill: store.flatten().map(|s| s.0),
                heap_bytes: store.flatten().map(|s| s.1),
                flops: Some(out.stats.flops),
                sim_time: Some(out.sim_time),
                factor_live_per_kept: live.zip(kept).map(|(l, k)| l as f64 / k),
                stats: out.stats,
                ..uncounted
            }
        }
    }
}

/// The gate: every invariant a row must satisfy on its own, checked on the
/// typed measurement. The error names the scenario and the tag or region.
fn check(m: &Measurement) -> Result<(), String> {
    let stats = &m.stats;
    let fail = |what: String| Err(format!("scenario {}: {what}", m.row.name));
    if m.row.ranks.is_none() && stats.messages + stats.bytes != 0 {
        let (msgs, bytes) = (stats.messages, stats.bytes);
        return fail(format!(
            "a serial row must put nothing on the wire, measured {msgs} message(s) / {bytes} byte(s)"
        ));
    }
    match m.live_per_input {
        Some(live) if live > DISTRIBUTE_LIVE_PER_INPUT => {
            return fail(format!(
                "set-up held {live:.3} live byte(s) per byte of its matrix, budget \
                 {DISTRIBUTE_LIVE_PER_INPUT}: a second copy of the pattern, or a graph with \
                 64-bit offsets or stored unit weights, is resident"
            ));
        }
        _ => {}
    }
    match m.factor_live_per_kept {
        Some(live) if live > FACTOR_LIVE_PER_KEPT => {
            return fail(format!(
                "par_ilut held {live:.3} live byte(s) per byte of the factors it returned, \
                 budget {FACTOR_LIVE_PER_KEPT}: a second copy of the interface rows, a \
                 16-byte entry per row in flight, or scratch of global length"
            ));
        }
        _ => {}
    }
    let (bytes, nnz) = m.matrix;
    let per_entry = bytes as f64 / nnz.max(1) as f64;
    if per_entry > MATRIX_BYTES_PER_ENTRY {
        return fail(format!(
            "the matrix holds {bytes} byte(s) for {nnz} entries, {per_entry:.2} per entry, \
             budget {MATRIX_BYTES_PER_ENTRY}: a `usize` column id or row pointer per entry"
        ));
    }
    if let (Some(fill), Some(bytes)) = (m.fill, m.heap_bytes) {
        let per_entry = bytes as f64 / fill as f64;
        if per_entry > FACTOR_BYTES_PER_ENTRY {
            return fail(format!(
                "factors hold {bytes} byte(s) for {fill} entries, {per_entry:.2} per entry, \
                 budget {FACTOR_BYTES_PER_ENTRY}: a `usize` slot or row pointer per factor entry"
            ));
        }
    }
    for (&tag, &(messages, bytes)) in &stats.planned_by_tag {
        let (name, (mm, mb)) = (tags::tag_name(tag), stats.tag_totals(tag));
        if mm != messages {
            return fail(format!(
                "tag {name}: planned {messages} message(s), measured {mm}"
            ));
        }
        if mb != bytes {
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
    let urows = sent(&[tags::UROWS]);
    let rows = m.interface as u64;
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

/// Runs every row and [`check`]s it, then [`unrecorded_region`]: the gate
/// `paper`'s `kernels` experiment applies before it renders the
/// measurements.
pub(crate) fn gate() -> Result<Vec<Measurement>, String> {
    let mut results = Vec::new();
    for s in &SCENARIOS {
        pilut_allocaudit::reset_regions();
        let mut m = run_row(s);
        m.regions = pilut_allocaudit::region_stats();
        check(&m)?;
        results.push(m);
    }
    if let Some(name) = unrecorded_region(&results) {
        return Err(format!(
            "region {name} is gated but no scenario entered it: the gate passes vacuously"
        ));
    }
    Ok(results)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::{BTreeMap, BTreeSet};

    /// A healthy p = 4 row: 12 messages / 4096 bytes under `spmv`, planned
    /// exactly, nothing allocated in a steady region or (no dist-MIS
    /// message, so no frame) in `mis_rounds`.
    fn healthy() -> Measurement {
        let stats = MachineStats {
            messages: 12,
            bytes: 4096,
            by_tag: [(tags::SPMV, (12, 4096))].into(),
            planned_by_tag: [(tags::SPMV, (12, 4096))].into(),
            ..MachineStats::default()
        };
        Measurement {
            nnz: 460,
            stats,
            regions: vec![region("mis_rounds", 0), region("trisolve_replay", 0)],
            // `par_ilut_p4`'s matrix on a 16 × 16 grid.
            ..Measurement::of(PAR_ILUT_P4, &gen::laplace_2d(16, 16))
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
        m.stats = MachineStats {
            planned_by_tag: [(tags::FWD, (0, 0)), (tags::BWD, (0, 0))].into(),
            ..MachineStats::default()
        };
        check(&m).unwrap();
    }

    #[test]
    fn message_count_mismatch_fails() {
        let mut m = healthy();
        m.stats.planned_by_tag = [(tags::SPMV, (11, 0))].into();
        assert_fails(&m, "tag spmv: planned 11 message(s), measured 12");
        // A planned message that never shipped is a divergence too.
        m.stats.planned_by_tag = [(tags::SPMV, (12, 4096)), (tags::FWD, (1, 8))].into();
        assert_fails(&m, "tag fwd: planned 1 message(s), measured 0");
    }

    #[test]
    fn byte_mismatch_fails_on_every_tag() {
        let mut m = healthy();
        m.stats.planned_by_tag = [(tags::SPMV, (12, 4095))].into();
        assert_fails(&m, "tag spmv: planned 4095 byte(s), measured 4096");
        // The collectives plan their bytes like every other tag.
        let mut m = healthy();
        m.stats.by_tag.insert(u64::MAX, (7, 320));
        m.stats.planned_by_tag.insert(u64::MAX, (7, 312));
        assert_fails(&m, "tag coll: planned 312 byte(s), measured 320");
        m.stats.planned_by_tag.insert(u64::MAX, (7, 320));
        check(&m).unwrap();
    }

    #[test]
    fn unplanned_tag_fails() {
        let mut m = healthy();
        m.stats.by_tag.insert(tags::FWD, (3, 24));
        assert_fails(
            &m,
            "tag fwd: 3 measured message(s) bypassed the planned data plane",
        );
        // Collectives plan themselves like every other tag: no allowance.
        let mut m = healthy();
        m.stats.by_tag.insert(u64::MAX, (7, 320));
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
        m.regions.pop();
        check(&m).unwrap();
    }

    #[test]
    fn mis_rounds_acquisitions_beyond_the_frame_budget_fail() {
        // 5 dist-MIS messages per pass over 3 passes (the audit pass's 2
        // operations + the facts pass): 15 frames may allocate.
        let mut m = healthy();
        for (tag, traffic) in [(tags::MIS_KEYS, (3, 96)), (tags::MIS_CONF, (2, 64))] {
            m.stats.by_tag.insert(tag, traffic);
            m.stats.planned_by_tag.insert(tag, traffic);
        }
        m.regions[0] = region("mis_rounds", 15);
        check(&m).unwrap();
        m.regions[0] = region("mis_rounds", 16);
        assert_fails(
            &m,
            "region mis_rounds acquired 16 allocation(s) over 3 pass(es) of 5 dist-MIS message(s), budget 15",
        );
    }

    #[test]
    fn plan_replay_acquisitions_beyond_the_frame_budget_fail() {
        // Per pass 3 dist-MIS frames at one buffer and 4 U-row batches at
        // two, over 3 passes: (3 + 2 · 4) · 3 = 33 acquisitions.
        let mut m = healthy();
        for (tag, traffic) in [(tags::MIS_TENT, (3, 96)), (tags::UROWS, (4, 640))] {
            m.stats.by_tag.insert(tag, traffic);
            m.stats.planned_by_tag.insert(tag, traffic);
        }
        m.regions.push(region("plan_replay", 33));
        check(&m).unwrap();
        m.regions[2] = region("plan_replay", 34);
        assert_fails(
            &m,
            "region plan_replay acquired 34 allocation(s) over 3 pass(es) of 3 dist-MIS and 4 U-row message(s), budget 33",
        );
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
        // 10 interface rows over 3 passes: 6 · 10 · 3 growths, and no more
        // (one acquisition per row-touch would be hundreds per pass).
        let mut m = healthy();
        m.interface = 10;
        m.regions.push(region("alg42_sweep", 180));
        check(&m).unwrap();
        m.regions[2] = region("alg42_sweep", 181);
        assert_fails(
            &m,
            "region alg42_sweep acquired 181 allocation(s) over 3 pass(es) of 10 interface row(s), budget 180",
        );
    }

    #[test]
    fn factors_above_the_entry_budget_fail() {
        // `par_ilut_p4`'s counts on a 16 × 16 grid, with `u32` and then
        // `usize` slots.
        let mut m = healthy();
        (m.fill, m.heap_bytes) = (Some(3984), Some(55_464));
        check(&m).unwrap();
        m.heap_bytes = Some(16 * 3984);
        check(&m).unwrap();
        m.heap_bytes = Some(72_456);
        assert_fails(
            &m,
            "factors hold 72456 byte(s) for 3984 entries, 18.19 per entry, budget 16: \
             a `usize` slot or row pointer per factor entry",
        );
    }

    #[test]
    fn a_factorization_above_the_live_budget_fails() {
        // The largest reading with the interface rows written once, then
        // the largest with them staged and copied into the store at the end.
        let mut m = healthy();
        m.factor_live_per_kept = Some(1.789);
        check(&m).unwrap();
        m.factor_live_per_kept = Some(1.953);
        assert_fails(
            &m,
            "par_ilut held 1.953 live byte(s) per byte of the factors it returned, budget 1.83",
        );
    }

    #[test]
    fn a_matrix_above_the_entry_budget_fails() {
        // The 16 × 16 grid with a `u32` column id per entry passes, with a
        // `usize` one it does not.
        let mut m = healthy();
        check(&m).unwrap();
        m.matrix.0 = 4 * 257 + 16 * 1216;
        assert_fails(
            &m,
            "the matrix holds 20484 byte(s) for 1216 entries, 16.85 per entry, budget 16: \
             a `usize` column id or row pointer per entry",
        );
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
        }
    }

    #[test]
    fn exact_lu_holds_a_small_multiple_of_the_factor_it_returns() {
        // ILUT(n, 0) is every test's exact-LU configuration: `m` bounds
        // nothing there, and arenas reserved for `rows · m` entries would
        // hold O(n²) bytes for a factor of O(n log n). What a rank holds at
        // once — arenas in mid-growth, the live reduced rows, the working
        // row — stays within 1.81× the store it hands back (1.402× and
        // 1.373× here with arenas that grow by a quarter; 1.866× on rank 0
        // with doubling arenas that take the interface rows as their levels
        // factor them, 1.768× and 1.457× with doubling arenas that took
        // them at the end; 1.943× and 1.649× with a `(usize, f64)` entry
        // per row in flight and `usize` scratch; `rows · n` reserved up
        // front would be 23×).
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
                peak as f64 <= 1.81 * kept as f64,
                "rank {rank}: {peak} B live for {kept} B kept"
            );
        }
    }

    /// The stencil generators write their rows straight into CSR: G40 holds
    /// only the matrix it returns (1.0 live bytes per byte of it), TORSO
    /// that plus two `dim³` grid maps and the renumbering (1.72; 1.58 while
    /// the matrix had `usize` indices and the maps weighed less beside it).
    /// A triplet list, its counting-sort `order` and the row sort — the
    /// path both took through `CooMatrix` — cost 3.6 and 4.0, so a budget
    /// of 2 fails the moment either goes back to it.
    #[test]
    fn generators_hold_little_more_than_the_matrix_they_return() {
        const BUDGET: f64 = 2.0;
        let cases: [(&str, fn() -> CsrMatrix); 2] = [
            ("g40(6)", || gen::g40(6)),
            ("fem_torso(40, 17)", || gen::fem_torso(40, 17)),
        ];
        for (name, generate) in cases {
            let audit = pilut_allocaudit::region("test_generation");
            let a = generate();
            let peak = audit.peak_live_bytes() as f64;
            let bytes = a.heap_bytes() as f64;
            assert!(
                peak <= BUDGET * bytes,
                "{name}: {:.2} live bytes per byte of the matrix, budget {BUDGET}",
                peak / bytes
            );
        }
    }

    /// A Matrix Market size line is outside input. `4294967295 1 0` once
    /// made the reader ask for 24 B per claimed row (counts, their clone,
    /// the row pointers: 96 GiB) after reading no entry; the row pointers
    /// are now bounded by the bytes of input.
    #[test]
    fn a_hostile_size_line_allocates_nothing_per_claimed_row() {
        let text = format!(
            "%%MatrixMarket matrix coordinate real general\n{} 1 0\n",
            u32::MAX
        );
        let audit = pilut_allocaudit::region("test_hostile_size_line");
        let got = pilut_sparse::io::read_matrix_market(text.as_bytes());
        let peak = audit.peak_live_bytes();
        assert!(got.is_err(), "{got:?}");
        assert!(
            peak < 64 << 10,
            "{peak} B live to reject {} B of input",
            text.len()
        );
    }

    #[test]
    fn the_bench_subcommands_are_retired() {
        // The gate runs inside `xtask paper`'s `kernels` experiment.
        assert!(crate::task("bench").is_none());
        assert!(crate::task("bench-compare").is_none());
    }

    /// The region registry is process-wide, and the other tests of this
    /// binary enter the same regions: the tests that read it are ignored
    /// in a shared run and run here, one at a time, in a child process.
    #[test]
    fn registry_tests_pass_in_a_process_of_their_own() {
        let out = std::process::Command::new(std::env::current_exe().unwrap())
            .args(["--ignored", "--test-threads=1"])
            .output()
            .unwrap();
        let log = String::from_utf8_lossy(&out.stdout);
        assert!(out.status.success(), "{log}");
        assert!(log.contains(" 2 passed;"), "{log}");
    }

    /// The whole table under the gate, once: every row passes it, and the
    /// `kernels` experiment rendered from these rows is the committed
    /// `experiments/kernels.txt`, byte for byte.
    #[test]
    #[ignore = "reads the region registry: run by registry_tests_pass_in_a_process_of_their_own"]
    fn every_row_passes_the_gate_and_renders_the_committed_kernel_table() {
        let rows = gate().unwrap();
        assert_eq!(rows.len(), 13);
        assert_eq!(unrecorded_region(&rows), None);
        for m in &rows {
            let (name, planned) = (m.row.name, &m.stats.planned_by_tag);
            if m.row.ranks.is_some_and(|p| p >= 2) {
                assert!(
                    !planned.is_empty(),
                    "{name}: a machine row plans its traffic"
                );
                assert!(m.stats.messages > 0, "{name}");
            }
        }
        let row = |name| rows.iter().find(|m| m.row.name == name).unwrap();
        let m = row("par_ilut_p4");
        assert_eq!((m.n, m.passes()), (2304, 3));
        assert!(m.stats.planned_by_tag.contains_key(&tags::UROWS));
        assert!(m.regions.iter().any(|r| r.name == "plan_replay"));
        // The one-rank sweeps replay the serial row's factor, entry for entry.
        assert_eq!(row("dist_trisolve_p1").fill, row("trisolve_serial").fill);
        let label = "experiments/kernels.txt";
        let committed = std::fs::read_to_string(crate::workspace_root().join(label)).unwrap();
        crate::paper::diff(label, &committed, &crate::paper::kernel_table(&rows)).unwrap();
    }

    /// Entries of each gated region while `run` runs.
    fn gated_entries(run: impl FnOnce()) -> BTreeMap<&'static str, u64> {
        pilut_allocaudit::reset_regions();
        run();
        let gated = |name| STEADY_REGIONS.contains(&name) || BUDGETED_REGIONS.contains(&name);
        let stats = pilut_allocaudit::region_stats();
        let entered = stats.iter().filter(|r| gated(r.name));
        entered.map(|r| (r.name, r.entries)).collect()
    }

    #[test]
    #[ignore = "reads the region registry: run by registry_tests_pass_in_a_process_of_their_own"]
    fn the_audit_pass_replays_the_regions_a_row_enters() {
        // A row of several operations enters each gated region it touches
        // more often than its facts pass alone — a serial build, or one
        // machine pass of one operation — does: the audit pass replays
        // them, and the budgets count its passes.
        for s in SCENARIOS.iter().filter(|s| s.inner > 1) {
            let a = (s.matrix)(s.dim);
            let alone = match s.body {
                Body::Serial(build) => gated_entries(|| {
                    build(&a, &(s.opts)(a.n_rows()));
                }),
                Body::Ranks(body) => {
                    let dm = DistMatrix::from_matrix(a, s.ranks.unwrap(), 17);
                    gated_entries(|| {
                        machine_run(s, &dm, body, 1);
                    })
                }
            };
            let row = gated_entries(|| {
                run_row(s);
            });
            for (name, &entries) in &row {
                let once = alone.get(name).copied().unwrap_or(0);
                assert!(
                    entries > once,
                    "{}: region {name} entered {entries} time(s), by the facts pass alone {once}",
                    s.name
                );
            }
            let ops_enter = s.name != "spmv"; // a serial SpMV opens no region
            assert_eq!(!row.is_empty(), ops_enter, "{}: {row:?}", s.name);
        }
    }
}
