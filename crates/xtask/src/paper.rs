//! `xtask paper` — the one harness behind every table and figure of the
//! paper (DESIGN.md §5 is the index, EXPERIMENTS.md the discussion).
//!
//! [`EXPERIMENTS`] is the whole configuration: one row per experiment with
//! its matrix families, option grid, its size, the CI stand-in of a row too
//! slow to run at that size in CI, and the function that renders it. A row
//! runs at its size into `experiments/<name>.txt`; `xtask paper` runs a
//! row with a stand-in at the stand-in's size instead, into
//! `experiments/ci/<name>.txt`, and `--record` at its size. `--check`
//! compares instead of writing and fails on the first differing line. Every
//! number in those files is a count or **simulated Cray T3D seconds** from
//! the `pilut-par` logical clock, so the files are bit-reproducible and CI
//! gates what it runs exactly: the one-size rows and the stand-ins. Shapes
//! (speedups, algorithm ratios, crossovers) are the reproduction target,
//! not absolute values. Wall-clock progress (one line per experiment) goes
//! to stderr only.
//!
//! The last two entries are not from the paper. `levels` is the library's
//! own per-level attribution of a factorization (`ParStats::per_level`):
//! what every independent set cost and in which currency. `kernels` is the
//! kernel gate ([`bench::gate`]): it runs every scenario of
//! [`bench::SCENARIOS`], fails `paper` in every mode if one breaks an
//! invariant (planned = measured traffic, zero-acquisition steady regions,
//! the allocation and byte budgets, every gated region entered), and
//! renders the deterministic counts (flops, simulated seconds, per-tag
//! traffic, fill, factor bytes), held to the same exact diff.
//!
//! Figures 4–6 are ratios of Table 1's and Table 2's sweeps: they name the
//! same grid and sizes as their table (`..TABLE1`), so [`sweep`] hands them
//! the table's cached runs and they launch none of their own.
//!
//! The numbers README.md and EXPERIMENTS.md quote are those files, not
//! copies typed from them: a block between `<!-- experiments/<file>.txt -->`
//! (or `…txt#fragment`, the one `## ` section whose heading contains the
//! fragment) and `<!-- end -->` holds the committed text byte for byte.
//! `paper` and `--record` rewrite every block ([`splice`]) after writing
//! their tier; `--check` diffs every block and names the doc line.

use std::collections::BTreeMap;
use std::rc::Rc;
use std::time::Instant;

use pilut_core::dist::exchange::tags;
use pilut_core::dist::op::{DistCsr, DistOperator};
use pilut_core::dist::{DistMatrix, Distribution, LocalView};
use pilut_core::options::IlutOptions;
use pilut_core::parallel::{par_ilu0, par_ilut, LevelStats, RankFactors};
use pilut_par::{Ctx, Machine, MachineModel, RunOutput};
use pilut_solver::dist_gmres::{dist_gmres, DistDiagonal, DistIlu, DistPrecond};
use pilut_solver::gmres::GmresOptions;
use pilut_sparse::{gen, CsrMatrix};

use crate::bench;

/// One problem size: the matrix scale (1.0 = the paper's magnitude; the
/// fixed-size grid families ignore it) and the processor counts.
/// Experiments that run at a single `p` list exactly one.
#[derive(Clone, Copy, Debug)]
struct Size {
    scale: f64,
    procs: &'static [usize],
}

const fn at(scale: f64, procs: &'static [usize]) -> Size {
    Size { scale, procs }
}

/// Every CI stand-in of a scaled family is this small.
const fn ci(procs: &'static [usize]) -> Option<Size> {
    Some(at(0.02, procs))
}

/// The paper's processor counts, and the ones the CI stand-ins sweep instead.
const PAPER_PROCS: &[usize] = &[16, 32, 64, 128];
const CI_PROCS: &[usize] = &[2, 4, 8];

/// The matrices the experiments run on.
#[derive(Clone, Copy, Debug)]
enum Family {
    /// The paper's G40 stand-in (57 600 unknowns at scale 1.0).
    G40,
    /// The paper's TORSO stand-in (≈10⁵ unknowns at scale 1.0).
    Torso,
    /// 5-point Laplacian on an s×s grid (the illustrative figures).
    Grid2d(usize),
    /// 7-point Laplacian on an s×s×s grid.
    Grid3d(usize),
}

impl Family {
    fn name(self) -> String {
        match self {
            Family::G40 => "G40".into(),
            Family::Torso => "TORSO".into(),
            Family::Grid2d(s) => format!("{s}x{s} grid"),
            Family::Grid3d(s) => format!("{s}x{s}x{s} Laplacian"),
        }
    }

    fn matrix(self, scale: f64) -> CsrMatrix {
        match self {
            Family::G40 => {
                let side = ((240.0 * scale.sqrt()).round() as usize).max(20);
                gen::convection_diffusion_2d(side, side, 10.0, 20.0)
            }
            Family::Torso => gen::torso(((64.0 * scale.cbrt()).round() as usize).max(10)),
            Family::Grid2d(s) => gen::laplace_2d(s, s),
            Family::Grid3d(s) => gen::laplace_3d(s, s, s),
        }
    }
}

/// One row of the experiment table.
#[derive(Clone, Copy)]
struct Experiment {
    /// File stem under `experiments/` (and `experiments/ci/`).
    name: &'static str,
    title: &'static str,
    families: &'static [Family],
    grid: fn() -> Vec<IlutOptions>,
    /// The size `experiments/<name>.txt` holds.
    size: Size,
    /// The stand-in CI runs instead, into `experiments/ci/<name>.txt`: only
    /// a row too slow for CI at its size has one.
    ci: Option<Size>,
    render: fn(&Experiment, Size, &mut Runs) -> Rendered,
}

impl Experiment {
    /// Where this row is written and at which size: its stand-in's unless
    /// `record` or it has none.
    fn tier(&self, record: bool) -> (&'static str, Size) {
        match self.ci {
            Some(ci) if !record => ("experiments/ci", ci),
            _ => ("experiments", self.size),
        }
    }
}

/// An experiment's text, or why it could not be rendered: a violated
/// invariant of the kernel gate.
type Rendered = Result<String, String>;

/// The paper's parameter grid, m ∈ {5, 10, 20} × t ∈ {1e-2, 1e-4, 1e-6}:
/// the nine ILUT configurations, then the nine ILUT\* ones (k = 2).
fn config_grid() -> Vec<IlutOptions> {
    let mt = || {
        [1e-2, 1e-4, 1e-6]
            .into_iter()
            .flat_map(|t| [5, 10, 20].map(|m| (m, t)))
    };
    let ilut = mt().map(|(m, t)| IlutOptions::new(m, t));
    ilut.chain(mt().map(|(m, t)| IlutOptions::star(m, t, 2)))
        .collect()
}

const TABLE1: Experiment = Experiment {
    name: "table1",
    title: "Table 1 — factorization time",
    families: &[Family::G40, Family::Torso],
    grid: config_grid,
    size: at(0.5, PAPER_PROCS),
    ci: ci(CI_PROCS),
    render: table1,
};

const TABLE2: Experiment = Experiment {
    name: "table2",
    title: "Table 2 — forward+backward substitution time",
    families: &[Family::Torso],
    size: at(0.25, PAPER_PROCS),
    render: table2,
    ..TABLE1
};

/// Every table and figure of the paper, in the order they are generated.
const EXPERIMENTS: [Experiment; 14] = [
    TABLE1,
    TABLE2,
    Experiment {
        name: "table3",
        title: "Table 3 — GMRES performance",
        size: at(0.25, &[128]),
        ci: ci(&[8]),
        render: table3,
        ..TABLE1
    },
    Experiment {
        name: "fig1",
        title: "Figure 1 — ILU(0) colouring vs ILUT fill dependencies",
        families: &[Family::Grid2d(24)],
        grid: || vec![IlutOptions::new(10, 1e-6)],
        size: at(1.0, &[4]),
        ci: None,
        render: fig1,
    },
    Experiment {
        name: "fig2",
        title: "Figure 2 — repeated MIS factorization of the interface nodes",
        families: &[Family::Grid3d(12)],
        grid: || vec![IlutOptions::new(10, 1e-4), IlutOptions::star(10, 1e-4, 2)],
        size: at(1.0, &[8]),
        ci: None,
        render: fig2,
    },
    Experiment {
        name: "fig3",
        title: "Figure 3 — block structure of the permuted L and U factors",
        families: &[Family::Grid2d(16)],
        grid: || vec![IlutOptions::new(8, 1e-3)],
        size: at(1.0, &[4]),
        ci: None,
        render: fig3,
    },
    Experiment {
        name: "fig4",
        title: "Figure 4 — factorization speedup",
        families: &[Family::G40],
        render: factor_speedup,
        ..TABLE1
    },
    Experiment {
        name: "fig5",
        title: "Figure 5 — factorization speedup",
        families: &[Family::Torso],
        render: factor_speedup,
        ..TABLE1
    },
    Experiment {
        name: "fig6",
        title: "Figure 6 — forward/backward substitution speedup",
        render: trisolve_speedup,
        ..TABLE2
    },
    Experiment {
        name: "ablation_comm",
        title: "Ablation — communication cost vs the ILUT* advantage",
        families: &[Family::Torso],
        grid: || vec![IlutOptions::new(10, 1e-6), IlutOptions::star(10, 1e-6, 2)],
        size: at(0.15, &[128]),
        ci: ci(&[8]),
        render: ablation_comm,
    },
    Experiment {
        name: "ablation_partition",
        title: "Ablation — multilevel k-way partition vs naive block distribution",
        families: &[Family::Torso],
        grid: || vec![IlutOptions::star(10, 1e-4, 2)],
        size: at(0.15, &[32]),
        ci: None,
        render: ablation_partition,
    },
    Experiment {
        name: "baseline_ilu0",
        title: "Baseline — parallel ILU(0) vs ILUT vs ILUT*",
        families: &[Family::Torso],
        grid: || vec![IlutOptions::new(10, 1e-4), IlutOptions::star(10, 1e-4, 2)],
        size: at(0.15, &[32]),
        ci: None,
        render: baseline_ilu0,
    },
    Experiment {
        name: "levels",
        title: "Levels — what each independent set cost (ParStats::per_level)",
        families: &[Family::Torso],
        grid: || vec![IlutOptions::new(10, 1e-4), IlutOptions::star(10, 1e-4, 2)],
        size: at(0.15, &[32]),
        ci: None,
        render: levels,
    },
    KERNELS,
];

/// The kernel gate's table: its scenarios size themselves.
const KERNELS: Experiment = Experiment {
    name: "kernels",
    title: "Kernels — the deterministic counts of every kernel-gate scenario",
    families: &[],
    grid: Vec::new,
    size: at(1.0, &[]),
    ci: None,
    render: kernels,
};

/// `paper [--check] [--record]`.
pub fn run(args: &[String]) -> Result<(), String> {
    let (mut check, mut record) = (false, false);
    for arg in args {
        match arg.as_str() {
            "--check" => check = true,
            "--record" => record = true,
            other => {
                return Err(format!(
                    "unknown flag `{other}` (paper [--check] [--record])"
                ))
            }
        }
    }
    let root = crate::workspace_root();
    let mut runs = Runs::default();
    for e in &EXPERIMENTS {
        let t0 = Instant::now();
        let (dir, size) = e.tier(record);
        let label = format!("{dir}/{}.txt", e.name);
        let text = (e.render)(e, size, &mut runs)?;
        if check {
            let golden = std::fs::read_to_string(root.join(&label));
            diff(&label, &golden.map_err(|e| format!("{label}: {e}"))?, &text)?;
        } else {
            std::fs::write(root.join(&label), text).map_err(|e| format!("{label}: {e}"))?;
        }
        eprintln!("[paper] {label}: {:.1}s", t0.elapsed().as_secs_f64());
    }
    let read = |file: &str| std::fs::read_to_string(root.join(file)).map_err(|e| e.to_string());
    for doc in DOCS {
        let text = read(doc).map_err(|e| format!("{doc}: {e}"))?;
        let fresh = splice(&text, read).map_err(|e| format!("{doc}:{e}"))?;
        if check {
            diff(doc, &text, &fresh)?;
        } else if fresh != text {
            std::fs::write(root.join(doc), fresh).map_err(|e| format!("{doc}: {e}"))?;
        }
    }
    let verb = if check { "match" } else { "written to" };
    let dirs = if record { "" } else { " and experiments/ci/" };
    println!(
        "xtask paper: {} experiments {verb} experiments/{dirs}, quoted in {DOCS:?}",
        EXPERIMENTS.len()
    );
    Ok(())
}

/// The documents whose quoted blocks [`splice`] keeps equal to the files.
const DOCS: [&str; 2] = ["README.md", "EXPERIMENTS.md"];

/// `doc` with every quoted block rewritten from the file it names, read
/// through `read`; text outside the blocks is copied unchanged. An error
/// starts with the line number of the block's opening marker.
fn splice(doc: &str, read: impl Fn(&str) -> Result<String, String>) -> Result<String, String> {
    let mut out = String::with_capacity(doc.len());
    let mut lines = doc.split_inclusive('\n').zip(1..);
    while let Some((line, at)) = lines.next() {
        out += line;
        let marker = line.trim_end().strip_suffix(" -->");
        let marker = marker.and_then(|m| m.strip_prefix("<!-- "));
        let Some(source) = marker.filter(|s| s.starts_with("experiments/")) else {
            continue;
        };
        let (file, fragment) = source.split_once('#').unwrap_or((source, ""));
        let text = read(file).map_err(|e| format!("{at}: {file}: {e}"))?;
        out += section(&text, fragment).map_err(|e| format!("{at}: {file}: {e}"))?;
        // The block runs to the next comment line, which must close it: a
        // missing end never swallows the prose and blocks after it.
        let end = lines.find(|(l, _)| l.starts_with("<!-- "));
        let end = end.filter(|(l, _)| l.trim_end() == "<!-- end -->");
        out += end.ok_or(format!("{at}: no `<!-- end -->`"))?.0;
    }
    Ok(out)
}

/// All of `text` for an empty `fragment`, else its one `## ` section
/// (heading to the next heading) whose heading contains `fragment`.
fn section<'a>(text: &'a str, fragment: &str) -> Result<&'a str, String> {
    if fragment.is_empty() {
        return Ok(text);
    }
    let head = |&i: &usize| i == 0 || text.as_bytes()[i - 1] == b'\n';
    let starts = text.match_indices("## ").map(|(i, _)| i);
    let mut heads: Vec<usize> = starts.filter(head).collect();
    heads.push(text.len());
    let heading = |s: &&str| s.lines().next().is_some_and(|h| h.contains(fragment));
    let mut found = heads.windows(2).map(|w| &text[w[0]..w[1]]).filter(heading);
    match (found.next(), found.next()) {
        (Some(s), None) => Ok(s),
        (None, _) => Err(format!("no `## ` heading contains `{fragment}`")),
        (Some(_), Some(_)) => Err(format!("more than one `## ` heading contains `{fragment}`")),
    }
}

/// Exact comparison of a committed file with its regenerated text; the
/// error names the file, the first differing line, and both versions.
pub(crate) fn diff(label: &str, golden: &str, fresh: &str) -> Result<(), String> {
    let (mut want, mut got) = (golden.split('\n'), fresh.split('\n'));
    for line in 1.. {
        let show = |s: Option<&str>| s.map_or("<end of file>".into(), |s| format!("`{s}`"));
        match (want.next(), got.next()) {
            (None, None) => break,
            (w, g) if w == g => {}
            (w, g) => {
                let (w, g) = (show(w), show(g));
                return Err(format!("{label}:{line}: committed {w} != regenerated {g}"));
            }
        }
    }
    Ok(())
}

// ---- Runs -----------------------------------------------------------------

/// Partitions `a` over `p` ranks the way every experiment does.
fn partition(a: &CsrMatrix, p: usize) -> DistMatrix {
    DistMatrix::from_matrix(a.clone(), p, 17)
}

/// Runs `f` on every rank of `dm`'s distribution under `model`.
fn spmd<R: Send>(
    dm: &DistMatrix,
    model: MachineModel,
    f: impl Fn(&mut Ctx, &LocalView) -> R + Sync,
) -> RunOutput<R> {
    let on_rank = |ctx: &mut Ctx| f(ctx, &dm.local_view(ctx.rank()));
    Machine::run(dm.dist().n_ranks(), model, on_rank)
}

#[expect(clippy::expect_used, reason = "the paper's problems all factor")]
fn factor(ctx: &mut Ctx, dm: &DistMatrix, local: &LocalView, opts: &IlutOptions) -> RankFactors {
    par_ilut(ctx, dm, local, opts).expect("factorization failed")
}

/// One parallel factorization: simulated seconds and the level count q.
struct FactorRun {
    time: f64,
    levels: usize,
}

fn run_factorization(dm: &DistMatrix, opts: &IlutOptions) -> FactorRun {
    let out = spmd(dm, MachineModel::cray_t3d(), |ctx, local| {
        factor(ctx, dm, local, opts).stats.levels
    });
    FactorRun {
        time: out.sim_time,
        levels: out.results[0],
    }
}

/// Simulated seconds of one forward+backward substitution and of one
/// matrix–vector product (clock deltas between barriers, max over ranks).
struct SolveRun {
    trisolve: f64,
    matvec: f64,
}

fn run_trisolve(dm: &DistMatrix, opts: &IlutOptions) -> SolveRun {
    let out = spmd(dm, MachineModel::cray_t3d(), |ctx, local| {
        let rf = factor(ctx, dm, local, opts);
        let mut pre = DistIlu::new(ctx, dm, local, rf);
        let mut op = DistCsr::new(ctx, dm, local);
        let b: Vec<f64> = local.nodes.iter().map(|&g| 1.0 + (g % 5) as f64).collect();
        let mut x = vec![0.0; local.len()];
        // Align clocks so the timed section measures the kernel alone.
        ctx.barrier();
        let t0 = ctx.time();
        pre.apply_into(ctx, local, &b, &mut x);
        ctx.barrier();
        let t1 = ctx.time();
        op.apply_into(ctx, &b, &mut x);
        ctx.barrier();
        (t1 - t0, ctx.time() - t1)
    });
    SolveRun {
        trisolve: out.results.iter().map(|r| r.0).fold(0.0, f64::max),
        matvec: out.results.iter().map(|r| r.1).fold(0.0, f64::max),
    }
}

/// A sweep of the experiment's grid × the size's processor counts over one
/// matrix family: per configuration, one run per `p`.
type Sweep<R> = Rc<Vec<(IlutOptions, Vec<R>)>>;

/// The sweeps run so far, keyed by everything that determines them, so a
/// figure derived from a table's sweep reuses the table's runs.
#[derive(Default)]
struct Runs {
    factor: BTreeMap<String, Sweep<FactorRun>>,
    trisolve: BTreeMap<String, Sweep<SolveRun>>,
}

fn sweep<R>(
    cache: &mut BTreeMap<String, Sweep<R>>,
    e: &Experiment,
    family: Family,
    size: Size,
    run: fn(&DistMatrix, &IlutOptions) -> R,
) -> Sweep<R> {
    let grid = (e.grid)();
    let key = format!("{family:?} {size:?} {grid:?}");
    let rows = cache.entry(key).or_insert_with(|| {
        let a = family.matrix(size.scale);
        let dms: Vec<DistMatrix> = size.procs.iter().map(|&p| partition(&a, p)).collect();
        let per_p = |o| dms.iter().map(|dm| run(dm, o)).collect();
        let runs: Vec<Vec<R>> = grid.iter().map(per_p).collect();
        Rc::new(grid.into_iter().zip(runs).collect())
    });
    Rc::clone(rows)
}

/// The preconditioners of Table 3 and the ILU(0) baseline.
enum Precond {
    Diagonal,
    Ilu0,
    Ilut(IlutOptions),
}

impl Precond {
    fn name(&self) -> String {
        match self {
            Precond::Diagonal => "Diagonal".into(),
            Precond::Ilu0 => "ILU(0)".into(),
            Precond::Ilut(o) => o.name(),
        }
    }

    /// This rank's share of the factorization (none for the diagonal).
    #[expect(clippy::expect_used, reason = "the paper's problems all factor")]
    fn factor(&self, ctx: &mut Ctx, dm: &DistMatrix, local: &LocalView) -> Option<RankFactors> {
        let rf = match self {
            Precond::Diagonal => return None,
            Precond::Ilu0 => par_ilu0(ctx, dm, local),
            Precond::Ilut(o) => par_ilut(ctx, dm, local, o),
        };
        Some(rf.expect("factorization failed"))
    }
}

/// One preconditioned GMRES solve of `A x = A·1` from `x₀ = 0` (paper §6),
/// factorization and solve timed separately between barriers.
struct GmresRun {
    factor_time: f64,
    levels: usize,
    solve_time: f64,
    matvecs: usize,
    converged: bool,
}

#[expect(clippy::expect_used, reason = "Machine::run panics on p = 0")]
fn run_gmres(dm: &DistMatrix, pre: &Precond, restart: usize) -> GmresRun {
    let gopts = GmresOptions {
        restart,
        rtol: 1e-7,
        max_matvecs: 800,
    };
    let out = spmd(dm, MachineModel::cray_t3d(), |ctx, local| {
        let mut op = DistCsr::new(ctx, dm, local);
        ctx.barrier();
        let t0 = ctx.time();
        let rf = pre.factor(ctx, dm, local);
        ctx.barrier();
        let factor_time = ctx.time() - t0;
        let levels = rf.as_ref().map_or(0, |rf| rf.stats.levels);
        let mut b = vec![0.0; local.len()];
        op.apply_into(ctx, &vec![1.0; local.len()], &mut b);
        let mut pre: Box<dyn DistPrecond> = match rf {
            Some(rf) => Box::new(DistIlu::new(ctx, dm, local, rf)),
            None => Box::new(DistDiagonal::new(dm, local)),
        };
        // Time only the solve, as the paper does.
        ctx.barrier();
        let t1 = ctx.time();
        let r = dist_gmres(ctx, &mut op, local, pre.as_mut(), &b, &gopts);
        ctx.barrier();
        GmresRun {
            factor_time,
            levels,
            solve_time: ctx.time() - t1,
            matvecs: r.matvecs,
            converged: r.converged,
        }
    });
    out.results.into_iter().next().expect("rank 0 result")
}

// ---- Rendering ------------------------------------------------------------

/// Formats simulated seconds the way the paper's tables do.
fn fmt_time(t: f64) -> String {
    if t >= 100.0 {
        format!("{t:.1}")
    } else if t >= 1.0 {
        format!("{t:.3}")
    } else {
        format!("{t:.4}")
    }
}

/// A titled Markdown table, columns fitted to their widest cell: the first
/// left-aligned (labels), the rest right-aligned (numbers).
fn table<H: AsRef<str>>(title: &str, head: &[H], rows: &[Vec<String>]) -> String {
    let head: Vec<String> = head.iter().map(|h| h.as_ref().to_string()).collect();
    let width = |c: usize| {
        rows.iter()
            .chain([&head])
            .map(|r| r[c].chars().count())
            .max()
    };
    let widths: Vec<usize> = (0..head.len()).map(|c| width(c).unwrap_or(0)).collect();
    let line = |r: &Vec<String>| {
        let label = format!("{:<1$}", r[0], widths[0]);
        let cell = |c: usize| format!(" | {:>1$}", r[c], widths[c]);
        format!(
            "| {label}{} |\n",
            (1..r.len()).map(cell).collect::<String>()
        )
    };
    let dashes = |w: &usize| format!("{:-<1$}|", "", w + 2);
    let rule: String = widths.iter().map(dashes).collect();
    let body: String = rows.iter().map(line).collect();
    format!("## {title}\n\n{}|{rule}\n{body}", line(&head))
}

/// One table row: a label, then one cell per item.
fn row_of<T>(label: String, items: &[T], cell: impl Fn(&T) -> String) -> Vec<String> {
    [label].into_iter().chain(items.iter().map(cell)).collect()
}

/// A sweep as table rows: the configuration's name, then one cell per `p`
/// computed from that configuration's runs and the run at `p`.
fn sweep_rows<R>(sweep: &Sweep<R>, cell: impl Fn(&[R], &R) -> String) -> Vec<Vec<String>> {
    let config_row = |(o, rs): &(IlutOptions, Vec<R>)| row_of(o.name(), rs, |r| cell(rs, r));
    sweep.iter().map(config_row).collect()
}

fn joined<T>(items: &[T], cell: impl Fn(&T) -> String) -> String {
    items.iter().map(cell).collect::<Vec<_>>().join(", ")
}

fn table1(e: &Experiment, size: Size, runs: &mut Runs) -> Rendered {
    let section = |&family: &Family| {
        let sweep = sweep(&mut runs.factor, e, family, size, run_factorization);
        let head = row_of("Factorization".into(), size.procs, |p| format!("p = {p}"));
        let rows = sweep_rows(&sweep, |_, r| fmt_time(r.time));
        let mut out = table(&format!("{}, {}", e.title, family.name()), &head, &rows);
        out += "\nIndependent-set counts (paper §6 discussion):\n";
        for (opts, rs) in sweep.iter() {
            let qs = joined(rs, |r| r.levels.to_string());
            out += &format!("  {:<18} levels(q) by p: {qs}\n", opts.name());
        }
        out
    };
    Ok(e.families
        .iter()
        .map(section)
        .collect::<Vec<_>>()
        .join("\n"))
}

fn table2(e: &Experiment, size: Size, runs: &mut Runs) -> Rendered {
    let family = e.families[0];
    let sweep = sweep(&mut runs.trisolve, e, family, size, run_trisolve);
    let head = row_of("Factorization".into(), size.procs, |p| format!("p = {p}"));
    let mut rows = sweep_rows(&sweep, |_, r| fmt_time(r.trisolve));
    // The matvec does not depend on the factorization: print the first set.
    rows.push(row_of("Matrix-Vector".into(), &sweep[0].1, |r| {
        fmt_time(r.matvec)
    }));
    let mut out = table(&format!("{}, {}", e.title, family.name()), &head, &rows);
    out += "\nTrisolve/matvec cost ratios (paper §5: ≈1.3× for ILUT*):\n";
    for (opts, rs) in sweep.iter() {
        let ratios = joined(rs, |r| format!("{:.2}", r.trisolve / r.matvec));
        out += &format!("  {:<18} trisolve/matvec by p: {ratios}\n", opts.name());
    }
    Ok(out)
}

/// Figures 4–6 as data series: per configuration, `time(p₀) / time(p)`.
fn speedup<R>(e: &Experiment, size: Size, sweep: &Sweep<R>, time: fn(&R) -> f64) -> String {
    let (base_p, last_p) = (size.procs[0], size.procs[size.procs.len() - 1]);
    let family = e.families[0].name();
    let title = format!("{}, {family} (speedup relative to p = {base_p})", e.title);
    let head = row_of("Factorization".into(), size.procs, |p| format!("S(p={p})"));
    let rows = sweep_rows(sweep, |rs, r| format!("{:.2}", time(&rs[0]) / time(r)));
    let ideal = last_p as f64 / base_p as f64;
    let note = format!("(Ideal speedup at p = {last_p} is {ideal:.1}x.)");
    format!("{}\n{note}\n", table(&title, &head, &rows))
}

fn factor_speedup(e: &Experiment, size: Size, runs: &mut Runs) -> Rendered {
    let sweep = sweep(&mut runs.factor, e, e.families[0], size, run_factorization);
    Ok(speedup(e, size, &sweep, |r| r.time))
}

fn trisolve_speedup(e: &Experiment, size: Size, runs: &mut Runs) -> Rendered {
    let sweep = sweep(&mut runs.trisolve, e, e.families[0], size, run_trisolve);
    Ok(speedup(e, size, &sweep, |r| r.trisolve))
}

/// GMRES(10) and GMRES(50) at one `p`: solve time (excluding the
/// factorization, as in the paper) and matrix–vector products, for the 18
/// ILUT/ILUT\* preconditioners plus the diagonal baseline.
fn table3(e: &Experiment, size: Size, _: &mut Runs) -> Rendered {
    let p = size.procs[0];
    let mut pres: Vec<Precond> = (e.grid)().into_iter().map(Precond::Ilut).collect();
    pres.push(Precond::Diagonal);
    let head = [
        "Preconditioner",
        "GMRES(10) time",
        "GMRES(10) NMV",
        "GMRES(50) time",
        "GMRES(50) NMV",
    ];
    let section = |&family: &Family| {
        let dm = partition(&family.matrix(size.scale), p);
        let solve_row = |pre: &Precond| {
            let cells = [10, 50].into_iter().flat_map(|restart| {
                let r = run_gmres(&dm, pre, restart);
                if r.converged {
                    [fmt_time(r.solve_time), r.matvecs.to_string()]
                } else {
                    ["--".into(), format!("{}*", r.matvecs)]
                }
            });
            [pre.name()].into_iter().chain(cells).collect()
        };
        let rows: Vec<Vec<String>> = pres.iter().map(solve_row).collect();
        let title = format!("{}, {}, p = {p}", e.title, family.name());
        let note =
            "(`--`/`*` = not converged within the NMV budget, as for the paper's diagonal runs.)";
        format!("{}\n{note}\n", table(&title, &head, &rows))
    };
    Ok(e.families
        .iter()
        .map(section)
        .collect::<Vec<_>>()
        .join("\n"))
}

/// Why ILU(0)'s colouring schedule breaks down for ILUT: ILU(0) never fills,
/// so the levels `par_ilu0` runs — independent sets of the original
/// interface pattern, computable before any numeric work — colour the
/// interface nodes into valid concurrent elimination classes; ILUT's
/// interior fill adds dependencies among them, counted here as same-colour
/// pairs that `A_I⁰` now couples.
fn fig1(e: &Experiment, size: Size, _: &mut Runs) -> Rendered {
    let (p, family, opts) = (size.procs[0], e.families[0].name(), &(e.grid)()[0]);
    let a = e.families[0].matrix(size.scale);
    let dm = partition(&a, p);
    let run = spmd(&dm, MachineModel::cray_t3d(), |ctx, local| {
        let ilu0 = Precond::Ilu0.factor(ctx, &dm, local); // always `Some`
        let rf = factor(ctx, &dm, local, opts);
        let schedule = ilu0.map(|rf| rf.levels).unwrap_or_default();
        (schedule, rf.initial_reduced_cols, rf.stats.levels)
    });
    let (mut sizes, mut colour) = (vec![0; run.results[0].0.len()], BTreeMap::new());
    for (c, level) in run.results.iter().flat_map(|r| r.0.iter().enumerate()) {
        sizes[c] += level.len();
        colour.extend(level.iter().map(|&v| (v, c)));
    }
    let classes: String = (sizes.iter().enumerate())
        .map(|(c, nodes)| format!("    colour {c}: {nodes:3} nodes\n"))
        .collect();
    let (mut original, mut fill, mut same_colour) = (0usize, 0usize, 0usize);
    for (v, cols) in run.results.iter().flat_map(|(_, rows, _)| rows) {
        for &u in cols.iter().filter(|&u| u != v) {
            if a.get(*v, u).is_some() {
                original += 1;
            } else {
                fill += 1;
                same_colour += usize::from(colour[v] == colour[&u]);
            }
        }
    }
    let (title, n_iface, nc) = (e.title, colour.len(), sizes.len());
    let (name, q) = (opts.name(), run.results[0].2);
    Ok(format!(
        "## {title}

{family}, {p} domains, {n_iface} interface nodes.

(a) ILU(0): its levels, fixed by the pattern alone, colour the interface:
{classes}
(b) {name} after interior elimination:
    original interface couplings : {original}
    fill-added couplings         : {fill}
    …of which join SAME-colour pairs: {same_colour}

=> the static {nc}-colour schedule is invalid for ILUT;
   the parallel ILUT run instead needed q = {q} dynamically computed
   independent sets (paper Figure 1b / Section 3).
"
    ))
}

/// The interface nodes being factored by repeatedly taking a maximal
/// independent set of the successively reduced matrices: per level, how
/// many nodes the set captured and how many remain, for ILUT and ILUT\*.
fn fig2(e: &Experiment, size: Size, _: &mut Runs) -> Rendered {
    let (p, family) = (size.procs[0], e.families[0]);
    let dm = partition(&family.matrix(size.scale), p);
    let mut out = format!("## {}\n\n{}, {p} domains.\n\n", e.title, family.name());
    for opts in (e.grid)() {
        let run = spmd(&dm, MachineModel::cray_t3d(), |ctx, local| {
            let rf = factor(ctx, &dm, local, &opts);
            rf.levels.iter().map(Vec::len).collect::<Vec<usize>>()
        });
        let q = run.results[0].len();
        let level_size = |l| run.results.iter().map(|r| r[l]).sum();
        let sizes: Vec<usize> = (0..q).map(level_size).collect();
        let total: usize = sizes.iter().sum();
        let name = opts.name();
        out += &format!("{name} — {total} interface nodes, q = {q} independent sets:\n");
        let mut remaining = total;
        for (l, &s) in sizes.iter().enumerate() {
            remaining -= s;
            let bar = "#".repeat((s * 60 / total.max(1)).max(1));
            out += &format!("  level {l:>3}: |I_l| = {s:>5}  remaining = {remaining:>5}  {bar}\n");
        }
        out.push('\n');
    }
    out += "(The paper's Figure 2 illustrates the same process on a toy mesh: each\n \
            level factors an independent set and forms the next reduced matrix.)\n";
    Ok(out)
}

/// The block structure of the permuted triangular factors: unknowns ordered
/// the way the parallel factorization eliminates them (each rank's
/// interiors, then the interface levels), nonzeros counted per block pair.
fn fig3(e: &Experiment, size: Size, _: &mut Runs) -> Rendered {
    let (p, family, opts) = (size.procs[0], e.families[0], &(e.grid)()[0]);
    let dm = partition(&family.matrix(size.scale), p);
    let run = spmd(&dm, MachineModel::cray_t3d(), |ctx, local| {
        factor(ctx, &dm, local, opts)
    });
    let factors: Vec<RankFactors> = run.results;
    let q = factors[0].levels.len();

    // Block index per node: blocks 0..p are rank interiors, p + l is level l.
    let mut block_of: BTreeMap<usize, usize> = BTreeMap::new();
    for (r, f) in factors.iter().enumerate() {
        block_of.extend(f.interior.iter().map(|&v| (v, r)));
        for (l, level) in f.levels.iter().enumerate() {
            block_of.extend(level.iter().map(|&v| (v, p + l)));
        }
    }
    let interiors = (0..p).map(|r| format!("P{r} int"));
    let names: Vec<String> = interiors.chain((0..q).map(|l| format!("I_{l}"))).collect();
    let mut l_blocks = vec![vec![0usize; p + q]; p + q];
    let mut u_blocks = l_blocks.clone();
    for (v, row) in factors.iter().flat_map(RankFactors::rows) {
        let bv = block_of[&v];
        for (j, _) in row.l() {
            l_blocks[bv][block_of[&j]] += 1;
        }
        for (j, _) in row.u() {
            u_blocks[bv][block_of[&j]] += 1;
        }
        u_blocks[bv][bv] += 1; // diagonal
    }

    let line = |first: &str, rest: Vec<String>| {
        let rest: String = rest.iter().map(|c| format!("{c:>9}")).collect();
        format!("{first:>9}{rest}\n")
    };
    let cell = |c: &usize| if *c == 0 { ".".into() } else { c.to_string() };
    let map = |title, blocks: &Vec<Vec<usize>>| {
        let counts = names.iter().zip(blocks);
        let body: String = counts
            .map(|(n, row)| line(n, row.iter().map(cell).collect()))
            .collect();
        format!("{title}:\n{}{body}", line("", names.clone()))
    };
    let (title, family) = (e.title, family.name());
    let (l_map, u_map) = (map("L (lower)", &l_blocks), map("U (upper)", &u_blocks));
    Ok(format!(
        "## {title}

{family}, {p} processors, q = {q} independent sets.
Cell values are nonzero counts; '.' is an empty block.

{l_map}
{u_map}
Reading the map: interior blocks are block-diagonal (each processor's
own elimination); every interface level couples only to earlier blocks
in L and later blocks in U — the paper's colour-coded wedge structure.
"
    ))
}

/// How the machine's communication parameters change the ILUT-vs-ILUT\*
/// picture (the paper's conclusion: ILUT\* matters most on slow networks):
/// the same problem on a zero-communication ideal, the T3D model and a
/// workstation-cluster model (50× the latency, ~1/15 the bandwidth).
fn ablation_comm(e: &Experiment, size: Size, _: &mut Runs) -> Rendered {
    let (p, family, grid) = (size.procs[0], e.families[0], (e.grid)());
    let dm = partition(&family.matrix(size.scale), p);
    let machine_row = |(name, model): (&str, MachineModel)| {
        let time = |opts| {
            let run = spmd(&dm, model, |ctx, local| {
                factor(ctx, &dm, local, opts);
                ctx.barrier();
            });
            run.sim_time
        };
        let (ilut, star) = (time(&grid[0]), time(&grid[1]));
        let ratio = format!("{:.2}x", ilut / star);
        vec![name.to_string(), fmt_time(ilut), fmt_time(star), ratio]
    };
    let machines = [
        ("zero-comm ideal", MachineModel::zero_comm()),
        ("Cray T3D", MachineModel::cray_t3d()),
        ("workstation cluster", MachineModel::workstation_cluster()),
    ];
    let rows: Vec<_> = machines.into_iter().map(machine_row).collect();
    let title = format!("{} ({}, p = {p})", e.title, family.name());
    let head = ["Machine", "ILUT (s)", "ILUT* (s)", "ILUT/ILUT*"];
    Ok(format!(
        "{}
(The slower the network, the more seconds ILUT* saves — its smaller
 reduced matrices need fewer independent sets, i.e. fewer synchronisations —
 but the smaller the ILUT/ILUT* ratio: communication slows ILUT* by a larger
 factor than ILUT.)
",
        table(&title, &head, &rows)
    ))
}

/// How much the multilevel k-way partition matters (paper §1: "a good
/// domain decomposition … significantly decreases the amount of
/// communication"): the same factorization under it and under a naive
/// contiguous block distribution.
fn ablation_partition(e: &Experiment, size: Size, _: &mut Runs) -> Rendered {
    let (p, family, opts) = (size.procs[0], e.families[0], &(e.grid)()[0]);
    let a = family.matrix(size.scale);
    let n = a.n_rows();
    let dist_row = |(name, dist): (&str, Distribution)| {
        let dm = DistMatrix::new(a.clone(), dist);
        let iface = dm.total_interface();
        let run = spmd(&dm, MachineModel::cray_t3d(), |ctx, local| {
            let rf = factor(ctx, &dm, local, opts);
            ctx.barrier();
            rf.stats.levels
        });
        let share = format!("{:.1}%", 100.0 * iface as f64 / n as f64);
        let (time, q) = (fmt_time(run.sim_time), run.results[0].to_string());
        vec![name.to_string(), iface.to_string(), share, time, q]
    };
    let dists = [
        ("multilevel k-way", Distribution::from_matrix(&a, p, 17)),
        ("contiguous block", Distribution::block(n, p)),
    ];
    let rows: Vec<_> = dists.into_iter().map(dist_row).collect();
    let title = format!("{} ({}, p = {p}, {})", e.title, family.name(), opts.name());
    let head = ["Distribution", "interface", "(% n)", "factor (s)", "q"];
    Ok(format!(
        "{}
(A bad decomposition inflates the interface set, hence the reduced
 matrices, the independent-set count, and the factorization time.)
",
        table(&title, &head, &rows)
    ))
}

/// Parallel ILU(0) vs ILUT / ILUT\* end to end (the paper's §2–3
/// narrative): simulated factor time, schedule length q, and GMRES(50).
fn baseline_ilu0(e: &Experiment, size: Size, _: &mut Runs) -> Rendered {
    let (p, family) = (size.procs[0], e.families[0]);
    let dm = partition(&family.matrix(size.scale), p);
    let method_row = |pre: Precond| {
        let r = run_gmres(&dm, &pre, 50);
        let (factor, solve) = (fmt_time(r.factor_time), fmt_time(r.solve_time));
        let (q, nmv, conv) = (
            r.levels.to_string(),
            r.matvecs.to_string(),
            r.converged.to_string(),
        );
        vec![pre.name(), factor, q, solve, nmv, conv]
    };
    let ilut = (e.grid)().into_iter().map(Precond::Ilut);
    let rows: Vec<_> = [Precond::Ilu0]
        .into_iter()
        .chain(ilut)
        .map(method_row)
        .collect();
    let title = format!("{} ({}, p = {p}, GMRES(50))", e.title, family.name());
    let head = ["Method", "factor (s)", "q", "solve (s)", "NMV", "conv"];
    Ok(format!(
        "{}
(ILU(0): short static schedule, weak preconditioner; ILUT*: costlier
 factorization, far fewer iterations — the paper's §2 trade-off.)
",
        table(&title, &head, &rows)
    ))
}

/// The level table of ILU(0), ILUT and ILUT\* on one input: phase 1, then
/// one row per independent set. The count columns are sums over the ranks
/// (the global level); the cost columns — the flop split, the dist-MIS
/// units, the words copied and the clock — are the slowest rank's, whose
/// clock column therefore adds up to the factorization's simulated time.
fn levels(e: &Experiment, size: Size, _: &mut Runs) -> Rendered {
    let (p, family) = (size.procs[0], e.families[0]);
    let dm = partition(&family.matrix(size.scale), p);
    let head = [
        "level",
        "cand",
        "set",
        "rounds",
        "touched",
        "pivots",
        "drop1",
        "nnz in",
        "nnz out",
        "urows",
        "urow B",
        "elim flops",
        "select flops",
        "mis units",
        "copy words",
        "clock (ms)",
    ];
    let ilut = (e.grid)().into_iter().map(Precond::Ilut);
    let section = |pre: Precond| {
        #[expect(clippy::expect_used, reason = "every method of this table factors")]
        let run = spmd(&dm, MachineModel::cray_t3d(), |ctx, local| {
            pre.factor(ctx, &dm, local).expect("a factorization").stats
        });
        let slowest = (0..p).max_by(|&a, &b| {
            let (ta, tb) = (run.stats.rank_times[a], run.stats.rank_times[b]);
            ta.total_cmp(&tb).then(b.cmp(&a))
        });
        #[expect(clippy::expect_used, reason = "Machine::run panics on p = 0")]
        let slowest = slowest.expect("p > 0");
        let slow = &run.results[slowest];
        // One table row from one entry per rank.
        let row = |label: String, ranks: Vec<&LevelStats>| {
            let count = |f: fn(&LevelStats) -> usize| {
                let total: usize = ranks.iter().map(|l| f(l)).sum();
                total.to_string()
            };
            let rounds = ranks.iter().map(|l| l.luby_rounds).max();
            let l = ranks[slowest];
            vec![
                label,
                count(|l| l.candidates),
                count(|l| l.set_size),
                rounds.unwrap_or(0).to_string(),
                count(|l| l.rows_touched),
                count(|l| l.pivots_applied),
                count(|l| l.dropped_rule1),
                count(|l| l.reduced_nnz_before),
                count(|l| l.reduced_nnz_after),
                count(|l| l.urows_rows),
                count(|l| l.urows_bytes),
                l.elim_flops.to_string(),
                l.select_flops.to_string(),
                l.mis_units.to_string(),
                l.copy_words.to_string(),
                format!("{:.3}", 1e3 * l.clock_delta),
            ]
        };
        let ranks = || run.results.iter();
        let mut rows = vec![row("phase 1".into(), ranks().map(|s| &s.phase1).collect())];
        let level_row = |l: usize| row(l.to_string(), ranks().map(|s| &s.per_level[l]).collect());
        rows.extend((0..slow.levels).map(level_row));
        let title = format!("{}, {}, p = {p}: {}", e.title, family.name(), pre.name());
        let (q, time) = (slow.levels, fmt_time(run.sim_time));
        format!(
            "{}\nq = {q} levels, {time} s on the slowest rank (the clock column's sum); \
             flops {}, dist-MIS units {} on that rank.\n",
            table(&title, &head, &rows),
            slow.flops,
            slow.mis_work
        )
    };
    let sections: Vec<String> = [Precond::Ilu0]
        .into_iter()
        .chain(ilut)
        .map(section)
        .collect();
    Ok(format!(
        "{}
(`cand`…`urow B` are sums over the ranks, `rounds` the largest rank's count
 of Luby rounds that began with a candidate; the flop split, the dist-MIS
 units, the words copied and the clock are the slowest rank's. `drop1`
 multipliers cost one flop each in `elim flops` and nothing on the clock;
 `select flops` is where the third dropping rule is paid: in the level
 that factors the row, and in one where its `L` would pass 2m entries.)
",
        sections.join("\n")
    ))
}

/// The kernel gate's table: [`bench::gate`]'s measurements, so a violated
/// invariant fails the experiment before a line is rendered.
fn kernels(_: &Experiment, _: Size, _: &mut Runs) -> Rendered {
    Ok(kernel_table(&bench::gate()?))
}

/// One row per kernel-gate scenario: what a single run of its body
/// establishes without a wall clock, then the per-tag traffic of the machine
/// rows.
///
/// A cell is printed only if it reproduces bit for bit; which do was
/// measured, not assumed (EXPERIMENTS.md at 039f5b3: regenerations under
/// seeded stalls and host load). Under reliable delivery a receiver blocked for
/// 4 ms of *wall* time sends NACKs — real, exactly planned `ack` traffic —
/// so an armed row's `ack` count and totals follow the host's load. A
/// killed epoch goes further: how much each survivor did before a poll told
/// it of the loss is wall time too, and only the tags that first appear
/// after recovery (and the agreement ring itself) are fixed.
pub(crate) fn kernel_table(measured: &[bench::Measurement]) -> String {
    fn cell<T: ToString>(v: Option<T>) -> String {
        v.map_or_else(|| "-".into(), |v| v.to_string())
    }
    let head = [
        "scenario", "p", "n", "nnz/op", "fill", "factor B", "flops", "sim (s)", "msgs", "bytes",
        "live/A",
    ];
    let (mut rows, mut tags) = (Vec::new(), String::new());
    for f in measured {
        let s = &f.row;
        let (totals, clock, tag): (bool, bool, fn(&str) -> bool) = match s.net {
            bench::Net::Plain => (true, true, |_| true),
            bench::Net::Armed => (false, true, |t| t != "ack"),
            bench::Net::Killed => (false, false, |t| {
                ["spmv", "fwd", "bwd", "recover"].contains(&t)
            }),
        };
        rows.push(vec![
            s.name.to_string(),
            cell(s.ranks),
            f.n.to_string(),
            f.nnz.to_string(),
            cell(f.fill),
            cell(f.heap_bytes),
            cell(f.flops.filter(|_| clock)),
            cell(f.sim_time.filter(|_| clock)),
            cell(totals.then_some(f.stats.messages)),
            cell(totals.then_some(f.stats.bytes)),
            cell(f.live_per_input.map(|l| format!("{l:.3}"))),
        ]);
        if s.ranks.is_some_and(|p| p > 1) {
            let cells: Vec<String> = (f.stats.by_tag.iter())
                .map(|(&t, (m, b))| (tags::tag_name(t), m, b))
                .filter(|(name, ..)| tag(name))
                .map(|(name, m, b)| format!("{name}:{m}/{b}"))
                .collect();
            tags += &format!("  {:<21} {}\n", s.name, cells.join(" "));
        }
    }
    format!(
        "{}
Measured traffic by tag, messages/bytes (the kernel gate asserts it equals
the plans' prediction, tag for tag, on every fault-free row):
{tags}
(`live/A`: the most heap bytes the operation holds at once, per byte of its
 matrix. `-`: not defined for the row — a serial kernel has no simulated clock, a
 solve holds no factor of its own — or not reproducible. The last two rows
 run under reliable delivery, where a receiver blocked for 4 ms of wall time
 sends NACKs, so their `ack` traffic and totals follow the host's load.
 `recovery_p4` also loses a rank mid-factorization, and what each survivor
 did before a poll told it so is wall time too: it keeps only the tags that
 first appear after recovery, and the agreement ring.
 Every printed cell is bit-reproducible.)
",
        table(KERNELS.title, &head, &rows)
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn by_name(name: &str) -> Experiment {
        *EXPERIMENTS.iter().find(|e| e.name == name).unwrap()
    }

    #[test]
    fn experiment_names_are_unique() {
        let names: BTreeSet<&str> = EXPERIMENTS.iter().map(|e| e.name).collect();
        assert_eq!(names.len(), EXPERIMENTS.len());
    }

    #[test]
    fn committed_files_and_table_entries_correspond() {
        // `experiments/` holds every row, `experiments/ci/` the stand-ins.
        let files = |rows: &mut dyn Iterator<Item = &Experiment>| -> BTreeSet<String> {
            rows.map(|e| format!("{}.txt", e.name)).collect()
        };
        let every = files(&mut EXPERIMENTS.iter());
        let stand_ins = files(&mut EXPERIMENTS.iter().filter(|e| e.ci.is_some()));
        assert_eq!((every.len(), stand_ins.len()), (14, 7));
        for (dir, expect) in [("experiments", every), ("experiments/ci", stand_ins)] {
            let found: BTreeSet<String> = std::fs::read_dir(crate::workspace_root().join(dir))
                .unwrap_or_else(|e| panic!("{dir}: {e}"))
                .flatten()
                .map(|f| f.file_name().to_string_lossy().into_owned())
                .filter(|f| f.ends_with(".txt"))
                .collect();
            assert_eq!(found, expect, "{dir}: missing or orphan files");
        }
    }

    #[test]
    fn check_names_file_line_and_both_texts() {
        let e = by_name("fig1");
        let fresh = (e.render)(&e, e.size, &mut Runs::default()).unwrap();
        assert_eq!(diff("experiments/fig1.txt", &fresh, &fresh), Ok(()));

        let mut golden: Vec<&str> = fresh.split('\n').collect();
        let k = golden
            .iter()
            .position(|l| l.contains("fill-added"))
            .unwrap();
        let (original, perturbed) = (golden[k], golden[k].replace(": ", ": 1"));
        golden[k] = &perturbed;
        let err = diff("experiments/fig1.txt", &golden.join("\n"), &fresh).unwrap_err();
        assert!(
            err.starts_with(&format!("experiments/fig1.txt:{}: ", k + 1)),
            "{err}"
        );
        assert!(err.contains(&perturbed) && err.contains(original), "{err}");

        // Not even the final newline may go missing.
        assert!(diff("f", fresh.trim_end(), &fresh).is_err());
    }

    /// The committed files a splice test reads.
    fn files(path: &str) -> Result<String, String> {
        match path {
            "experiments/t.txt" => {
                Ok("## T — one, A\n\n| x | 1 |\n\n## T — two, B\n\n| y | 2 |\n".into())
            }
            "experiments/u.txt" => Ok("q = 3\n".into()),
            _ => Err("No such file or directory".into()),
        }
    }

    const DOC: &str = "# Doc\n\nprose 7, `<!-- experiments/u.txt -->`\n<!-- experiments/u.txt -->\nstale\n\
                       <!-- end -->\n<!-- note 8 -->\n<!-- experiments/t.txt#B -->\n<!-- end -->\ntail 9";

    #[test]
    fn splice_quotes_a_file_or_one_section_and_touches_nothing_else() {
        let once = splice(DOC, files).unwrap();
        let expect = "# Doc\n\nprose 7, `<!-- experiments/u.txt -->`\n<!-- experiments/u.txt -->\nq = 3\n\
                      <!-- end -->\n<!-- note 8 -->\n<!-- experiments/t.txt#B -->\n## T — two, B\n\n\
                      | y | 2 |\n<!-- end -->\ntail 9";
        assert_eq!(once, expect);
        assert_eq!(splice(&once, files).unwrap(), once, "not a fixed point");
        let plain = "# No blocks\n<!-- experiments -->\n<!-- end -->\n\n  x\r\n";
        assert_eq!(splice(plain, files).unwrap(), plain);
    }

    #[test]
    fn a_drifted_digit_in_a_block_fails_at_its_doc_line() {
        let once = splice(DOC, files).unwrap();
        let drifted = once.replace("| y | 2 |", "| y | 3 |");
        let fresh = splice(&drifted, files).unwrap();
        assert_eq!(fresh, once, "the splice restores the digit");
        let err = diff("D.md", &drifted, &fresh).unwrap_err();
        assert!(err.starts_with("D.md:11: committed `| y | 3 |`"), "{err}");
    }

    #[test]
    fn unknown_files_absent_or_ambiguous_fragments_and_open_blocks_are_errors() {
        for (doc, want) in [
            (
                "x\n<!-- experiments/v.txt -->\n<!-- end -->\n",
                "2: experiments/v.txt: No such",
            ),
            (
                "<!-- experiments/t.txt#C -->\n<!-- end -->\n",
                "1: experiments/t.txt: no `## `",
            ),
            (
                "<!-- experiments/t.txt#T — -->\n<!-- end -->\n",
                "1: experiments/t.txt: more than one",
            ),
            (
                "<!-- experiments/u.txt -->\nq = 3\n",
                "1: no `<!-- end -->`",
            ),
            (
                "<!-- experiments/u.txt -->\nprose\n<!-- experiments/u.txt -->\n<!-- end -->\n",
                "1: no `<!-- end -->`",
            ),
        ] {
            let err = splice(doc, files).unwrap_err();
            assert!(err.starts_with(want), "{err}");
        }
    }

    #[test]
    fn the_committed_docs_quote_the_committed_files() {
        let root = crate::workspace_root();
        let read = |f: &str| std::fs::read_to_string(root.join(f)).map_err(|e| e.to_string());
        for doc in DOCS {
            let text = read(doc).unwrap();
            diff(doc, &text, &splice(&text, read).unwrap()).unwrap();
        }
    }

    fn renders_twice_alike(name: &str) {
        let e = by_name(name);
        let size = e.tier(false).1;
        let first = (e.render)(&e, size, &mut Runs::default()).unwrap();
        let second = (e.render)(&e, size, &mut Runs::default()).unwrap();
        assert_eq!(first, second, "{name}");
    }

    #[test]
    fn regeneration_is_byte_identical() {
        renders_twice_alike("fig1");
        renders_twice_alike("fig3");
    }

    #[test]
    fn derived_figures_launch_no_runs_of_their_own() {
        // In the table, each figure names its table's families, grid and sizes…
        let sweep_key = |e: &Experiment| format!("{:?} {:?} {:?}", (e.grid)(), e.size, e.ci);
        for (fig, table) in [("fig4", "table1"), ("fig5", "table1"), ("fig6", "table2")] {
            let (fig, table) = (by_name(fig), by_name(table));
            assert_eq!(sweep_key(&fig), sweep_key(&table), "{}", fig.name);
            let of_table = |f: &Family| table.families.iter().any(|t| t.name() == f.name());
            assert!(fig.families.iter().all(of_table), "{}", fig.name);
        }
        // …so rendering them after the tables finds every sweep in the cache
        // (shown on a one-configuration grid at the smallest problem size).
        let size = Size {
            scale: 0.0,
            procs: &[1, 2],
        };
        let mut runs = Runs::default();
        for name in ["table1", "table2", "fig4", "fig5", "fig6"] {
            let e = Experiment {
                grid: || vec![IlutOptions::new(5, 1e-2)],
                ..by_name(name)
            };
            let lines = (e.render)(&e, size, &mut runs).unwrap();
            assert!(lines.lines().count() > 5, "{name}");
            assert_eq!(
                (runs.factor.len(), runs.trisolve.len()),
                (2, usize::from(name != "table1"))
            );
        }
    }
}
