//! Distributed restarted GMRES on the `pilut-par` virtual machine.
//!
//! Vectors are distributed in local-view order (interiors then interfaces of
//! each rank). Inner products are all-reduces, the matrix–vector product is
//! any [`DistOperator`] — canonically [`DistCsr`](pilut_core::dist::op::DistCsr)
//! with its planned boundary exchange — and the preconditioner action is
//! either a diagonal scaling or the parallel ILUT/ILUT\* triangular solves
//! of [`pilut_core::trisolve`]. The small Hessenberg least-squares
//! recurrence is replicated on every rank — the deterministic reduction
//! tree guarantees bit-identical replicas.
//!
//! [`dist_gmres`] solves from a zero start. The self-healing ladder
//! ([`crate::dist_robust`]) runs the same kernel over the same
//! `Distributed` space, warm-started from its checkpoint.

use pilut_core::dist::op::DistOperator;
use pilut_core::dist::{DistMatrix, LocalView};
use pilut_core::parallel::RankFactors;
use pilut_core::trisolve::{dist_solve_into, SolveScratch, TrisolvePlan};
use pilut_par::Ctx;

use crate::gmres::GmresOptions;
use crate::krylov::{self, Space};
use crate::report::Breakdown;

/// A distributed preconditioner: maps a local residual slice to a local
/// correction slice. Collective — every rank calls `apply_into` together.
pub trait DistPrecond {
    /// Writes the correction into a caller-owned buffer.
    fn apply_into(&mut self, ctx: &mut Ctx, local: &LocalView, r: &[f64], z: &mut [f64]);
}

/// No preconditioning.
pub struct DistIdentity;

impl DistPrecond for DistIdentity {
    fn apply_into(&mut self, _ctx: &mut Ctx, _local: &LocalView, r: &[f64], z: &mut [f64]) {
        z.copy_from_slice(r);
    }
}

/// Diagonal (Jacobi) preconditioning — the paper's baseline.
pub struct DistDiagonal {
    inv_diag: Vec<f64>,
}

impl DistDiagonal {
    /// Extracts the locally owned diagonal for Jacobi preconditioning.
    ///
    /// # Panics
    /// Panics on a zero or non-finite diagonal entry; use
    /// [`DistDiagonal::try_new`] for a typed error.
    #[expect(clippy::expect_used, reason = "documented panic on unusable diagonals")]
    pub fn new(dm: &DistMatrix, local: &LocalView) -> Self {
        Self::try_new(dm, local).expect("unusable diagonal")
    }

    /// Fallible construction: reports the first locally owned row with an
    /// unusable diagonal instead of panicking.
    pub fn try_new(
        dm: &DistMatrix,
        local: &LocalView,
    ) -> Result<Self, pilut_core::options::FactorError> {
        let mut inv_diag = Vec::with_capacity(local.nodes.len());
        for &g in &local.nodes {
            let d = dm.matrix().get(g, g).unwrap_or(0.0);
            if !d.is_finite() {
                return Err(pilut_core::options::FactorError::NonFinite { row: g });
            }
            // lint: allow(float-eq): exact zero-diagonal guard
            if d == 0.0 {
                return Err(pilut_core::options::FactorError::ZeroPivot { row: g });
            }
            inv_diag.push(1.0 / d);
        }
        Ok(DistDiagonal { inv_diag })
    }
}

impl DistPrecond for DistDiagonal {
    fn apply_into(&mut self, ctx: &mut Ctx, _local: &LocalView, r: &[f64], z: &mut [f64]) {
        ctx.work(r.len() as f64);
        for ((zi, x), d) in z.iter_mut().zip(r).zip(&self.inv_diag) {
            *zi = x * d;
        }
    }
}

/// Parallel incomplete-LU preconditioning: forward + backward substitution
/// through the distributed factors.
pub struct DistIlu {
    /// This rank's factors.
    pub rf: RankFactors,
    /// The sweeps' communication plan over those factors.
    pub plan: TrisolvePlan,
    /// Reusable sweep workspace: built with the plan so every steady-state
    /// apply runs the zero-allocation [`dist_solve_into`] path.
    scratch: SolveScratch,
}

impl DistIlu {
    /// Builds the triangular-solve plan (collective).
    pub fn new(ctx: &mut Ctx, dm: &DistMatrix, local: &LocalView, rf: RankFactors) -> Self {
        let plan = TrisolvePlan::build(ctx, dm, local, &rf);
        let scratch = SolveScratch::build(local, &plan);
        DistIlu { rf, plan, scratch }
    }
}

impl DistPrecond for DistIlu {
    fn apply_into(&mut self, ctx: &mut Ctx, local: &LocalView, r: &[f64], z: &mut [f64]) {
        dist_solve_into(ctx, local, &self.rf, &self.plan, r, &mut self.scratch, z);
    }
}

/// Outcome of a distributed solve (per rank; scalar fields identical on all
/// ranks).
#[derive(Clone, Debug)]
pub struct DistGmresResult {
    /// This rank's slice of the solution, in local-view order.
    pub x_local: Vec<f64>,
    /// Whether the relative residual reached the tolerance.
    pub converged: bool,
    /// Matrix–vector products performed.
    pub matvecs: usize,
    /// Final relative residual (true residual, recomputed).
    pub rel_residual: f64,
    /// Residual-norm history, `matvecs + 1` entries with `‖b‖` first —
    /// same semantics as
    /// [`GmresResult::history`](crate::gmres::GmresResult::history), and
    /// identical on every rank.
    pub history: Vec<f64>,
    /// Why the iteration stopped early (identical on every rank: the
    /// detection runs on all-reduced scalars, so every rank sees the same
    /// values and takes the same branch). `None` on clean convergence or a
    /// plain budget stop.
    pub breakdown: Option<Breakdown>,
}

/// The distributed [`Space`]: each rank holds its local-view slice,
/// reductions are all-reduces over the machine, and work is charged to the
/// rank's logical clock.
pub(crate) struct Distributed<'a> {
    pub(crate) ctx: &'a mut Ctx,
    pub(crate) op: &'a mut dyn DistOperator,
    pub(crate) local: &'a LocalView,
    pub(crate) precond: &'a mut dyn DistPrecond,
}

impl Space for Distributed<'_> {
    fn len(&self) -> usize {
        self.local.len()
    }
    fn apply_op(&mut self, x: &[f64], y: &mut [f64]) {
        self.op.apply_into(self.ctx, x, y);
    }
    fn apply_precond(&mut self, r: &[f64], z: &mut [f64]) {
        self.precond.apply_into(self.ctx, self.local, r, z);
    }
    fn reduce_sum(&mut self, local: f64) -> f64 {
        self.ctx.all_reduce_sum(local)
    }
    fn any(&mut self, local: bool) -> bool {
        self.ctx.all_reduce_sum_u64(u64::from(local)) != 0
    }
    fn work(&mut self, flops: f64) {
        self.ctx.work(flops);
    }
}

/// Right-preconditioned GMRES(restart) over a distributed operator, from a
/// zero start. Collective: every rank calls with its own slices.
pub fn dist_gmres(
    ctx: &mut Ctx,
    op: &mut dyn DistOperator,
    local: &LocalView,
    precond: &mut dyn DistPrecond,
    b: &[f64],
    opts: &GmresOptions,
) -> DistGmresResult {
    assert_eq!(op.local_len(), local.len());
    let mut space = Distributed {
        ctx,
        op,
        local,
        precond,
    };
    let r = krylov::solve(&mut space, b, opts, None, None);
    DistGmresResult {
        x_local: r.x,
        converged: r.converged,
        matvecs: r.matvecs,
        rel_residual: r.rel_residual,
        history: r.history,
        breakdown: r.breakdown,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pilut_core::dist::op::DistCsr;
    use pilut_core::options::IlutOptions;
    use pilut_core::parallel::par_ilut;
    use pilut_par::{Machine, MachineModel};
    use pilut_sparse::gen;

    /// Runs distributed GMRES and returns (global x, matvecs, converged).
    fn solve(
        a: pilut_sparse::CsrMatrix,
        p: usize,
        ilut_opts: Option<IlutOptions>,
        opts: GmresOptions,
    ) -> (Vec<f64>, usize, bool) {
        let n = a.n_rows();
        let x_true: Vec<f64> = (0..n).map(|i| 1.0 + (i % 3) as f64).collect();
        let b_global = a.spmv_owned(&x_true);
        let dm = DistMatrix::from_matrix(a, p, 23);
        let out = Machine::run_checked(p, MachineModel::cray_t3d(), |ctx| {
            let local = dm.local_view(ctx.rank());
            let mut op = DistCsr::new(ctx, &dm, &local);
            let b: Vec<f64> = local.nodes.iter().map(|&g| b_global[g]).collect();
            let mut pre: Box<dyn DistPrecond> = match &ilut_opts {
                Some(io) => {
                    let rf = par_ilut(ctx, &dm, &local, io).unwrap();
                    Box::new(DistIlu::new(ctx, &dm, &local, rf))
                }
                None => Box::new(DistDiagonal::new(&dm, &local)),
            };
            let r = dist_gmres(ctx, &mut op, &local, pre.as_mut(), &b, &opts);
            (local.nodes.clone(), r)
        });
        let mut x = vec![f64::NAN; n];
        let mut mv = 0;
        let mut conv = true;
        for (nodes, r) in out.results {
            for (g, v) in nodes.into_iter().zip(r.x_local) {
                x[g] = v;
            }
            mv = r.matvecs;
            conv = r.converged;
        }
        let err = x
            .iter()
            .zip(&x_true)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max);
        assert!(!conv || err < 1e-4, "converged but wrong: err={err}");
        (x, mv, conv)
    }

    #[test]
    fn diagonal_preconditioned_solve_converges() {
        let a = gen::laplace_2d(10, 10);
        let (_, mv, conv) = solve(a, 3, None, GmresOptions::default());
        assert!(conv, "did not converge in {mv} matvecs");
    }

    #[test]
    fn parallel_ilut_preconditioner_beats_diagonal() {
        let a = gen::convection_diffusion_2d(14, 14, 8.0, 4.0);
        let (_, mv_diag, c1) = solve(a.clone(), 4, None, GmresOptions::default());
        let (_, mv_ilut, c2) = solve(
            a,
            4,
            Some(IlutOptions::new(10, 1e-4)),
            GmresOptions::default(),
        );
        assert!(c1 && c2);
        assert!(
            mv_ilut * 2 < mv_diag,
            "parallel ILUT ({mv_ilut}) should need far fewer matvecs than diagonal ({mv_diag})"
        );
    }

    #[test]
    fn ilut_star_preconditioner_converges_comparably() {
        let a = gen::laplace_3d(6, 6, 6);
        let (_, mv_ilut, c1) = solve(
            a.clone(),
            3,
            Some(IlutOptions::new(10, 1e-4)),
            GmresOptions::default(),
        );
        let (_, mv_star, c2) = solve(
            a,
            3,
            Some(IlutOptions::star(10, 1e-4, 2)),
            GmresOptions::default(),
        );
        assert!(c1 && c2);
        // The paper finds the two comparable in quality; allow generous slack.
        assert!(
            mv_star <= 3 * mv_ilut.max(1),
            "ILUT* quality collapsed: {mv_star} vs {mv_ilut}"
        );
    }

    #[test]
    fn a_hostile_cold_start_breaks_down_on_every_rank() {
        // A NaN in A surfaces in the first Arnoldi column, a NaN in b in
        // `β = ‖b‖`, before any product: at p = 2 as serially.
        let a = gen::laplace_2d(8, 8);
        let b = a.spmv_owned(&vec![1.0; a.n_rows()]);
        let mut poisoned = a.clone();
        poisoned.values_mut()[5] = f64::NAN;
        let mut nan_b = b.clone();
        nan_b[3] = f64::NAN;
        for (a, b_global, at) in [(poisoned, &b, 1), (a, &nan_b, 0)] {
            let dm = DistMatrix::from_matrix(a, 2, 23);
            let out = Machine::run_checked(2, MachineModel::cray_t3d(), |ctx| {
                let local = dm.local_view(ctx.rank());
                let mut op = DistCsr::new(ctx, &dm, &local);
                let b: Vec<f64> = local.nodes.iter().map(|&g| b_global[g]).collect();
                let opts = GmresOptions::default();
                dist_gmres(ctx, &mut op, &local, &mut DistIdentity, &b, &opts)
            });
            for r in out.results {
                assert_eq!(r.breakdown, Some(Breakdown::NonFinite { at }));
                assert!(!r.converged && r.rel_residual == f64::INFINITY);
                assert!(r.x_local.iter().all(|x| x.is_finite()));
            }
        }
    }

    #[test]
    fn small_restart_matches_paper_setup() {
        let a = gen::laplace_2d(12, 12);
        let (_, _, conv) = solve(
            a,
            2,
            Some(IlutOptions::new(5, 1e-2)),
            GmresOptions {
                restart: 10,
                ..Default::default()
            },
        );
        assert!(conv);
    }
}
