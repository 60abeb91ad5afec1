//! Graceful degradation: the self-healing distributed solve, which
//! survives factorization breakdown, solver breakdown and rank loss.
//!
//! [`dist_solve_robust`] climbs one ladder, collectively, until a rung
//! converges:
//!
//! 1. **Primary**: par-ILUT with the caller's options (whatever breakdown
//!    policy they chose, `Abort` by default).
//! 2. **Boosted-shift refactorization**: the same ILUT but under
//!    [`BreakdownPolicy::Shift`] — repairs every unusable pivot with an
//!    escalating diagonal boost, trading preconditioner quality for
//!    existence. Skipped when the caller already runs that policy.
//! 3. **Jacobi**: diagonal scaling, skipped on every rank when any rank's
//!    diagonal is unusable.
//! 4. **Unpreconditioned** GMRES — always constructible.
//!
//! Every rung's availability and every convergence verdict is collective,
//! so all ranks climb in lockstep. The first rung to solve starts from
//! zero; every later one warm-starts from the current checkpoint (any
//! finite iterate is a legal warm start, so a later rung keeps what an
//! earlier one achieved). Every rung tried is recorded
//! in the returned report, which names the rung that produced the answer
//! and why the better ones were rejected.
//!
//! Around the ladder sits the lost-rank rung. Every attempt runs inside an
//! unwind catcher, so an injected `Kill` (surfaced by the VM's recovery
//! layer as a [`pilut_par::RankLost`] unwind on every survivor — requires
//! `MachineBuilder::recovery(true)`) is *handled* instead of fatal:
//!
//! 1. the victim itself observes `Ctx::killed()` and returns a tombstone
//!    report (the VM requires every rank to produce a result);
//! 2. each survivor scatters its latest iterate checkpoint into a global
//!    vector, adopts the new world (`Ctx::adopt_world`), runs the recovery
//!    agreement round (`Ctx::recover_sync`), and shrinks the row
//!    distribution ([`pilut_core::dist::recover::shrink`]) with the
//!    *cumulative* dead set;
//! 3. the ladder re-runs on the shrunk world: plans and factors are
//!    rebuilt from the replicated input matrix, and GMRES warm-starts from
//!    the checkpoint, which the kernel overwrites at the end of every
//!    restart cycle, so only the in-flight cycle's progress is lost.
//!
//! Every recovery is recorded as a [`RecoveryRecord`] (epoch, lost ranks,
//! time-to-recover) in the returned [`DistSolveReport`]. Invariants of this
//! protocol are catalogued in DESIGN §14.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};

use pilut_core::dist::op::DistCsr;
use pilut_core::dist::recover::shrink;
use pilut_core::dist::{DistMatrix, Distribution, LocalView};
use pilut_core::options::{BreakdownPolicy, FactorError, IlutOptions};
use pilut_core::parallel::par_ilut;
use pilut_par::collectives::ReduceOp;
use pilut_par::{Ctx, RankLost};
use pilut_sparse::CsrMatrix;

use crate::dist_gmres::{DistDiagonal, DistIdentity, DistIlu, DistPrecond, Distributed};
use crate::gmres::{GmresOptions, GmresResult};
use crate::krylov;
use crate::report::{AttemptOutcome, AttemptRecord, Breakdown, RecoveryRecord};

/// Per-rank outcome of [`dist_solve_robust`]. Scalar fields are identical
/// on every *surviving* rank; a killed rank returns a tombstone
/// (`dead == true`).
#[derive(Clone, Debug)]
pub struct DistSolveReport {
    /// This rank's slice of the solution, in the **final epoch's**
    /// local-view order.
    pub x_local: Vec<f64>,
    /// Global row ids of `x_local`'s entries (final epoch).
    pub nodes: Vec<usize>,
    /// Whether the chosen rung reached the tolerance.
    pub converged: bool,
    /// Final relative residual of the chosen rung.
    pub rel_residual: f64,
    /// Matrix–vector products of the chosen rung's solve.
    pub matvecs: usize,
    /// Why the chosen rung's iteration stopped early, if it did.
    pub breakdown: Option<Breakdown>,
    /// Preconditioner of the chosen rung (`attempts[chosen]`).
    pub preconditioner: String,
    /// Every ladder rung tried in the final epoch, in order. A
    /// `FactorFailed` entry carries the failing rank's view of the error:
    /// the rank that met the bad row names it, its peers name that rank.
    pub attempts: Vec<AttemptRecord>,
    /// Index into `attempts` of the rung that produced `x_local`.
    pub chosen: usize,
    /// Every rank loss survived, in order of adoption.
    pub recoveries: Vec<RecoveryRecord>,
    /// True when this rank was killed mid-solve: all other fields are
    /// tombstone values.
    pub dead: bool,
}

impl DistSolveReport {
    fn tombstone(recoveries: Vec<RecoveryRecord>) -> Self {
        DistSolveReport {
            x_local: Vec::new(),
            nodes: Vec::new(),
            converged: false,
            rel_residual: f64::INFINITY,
            matvecs: 0,
            breakdown: None,
            preconditioner: "(killed)".into(),
            attempts: Vec::new(),
            chosen: 0,
            recoveries,
            dead: true,
        }
    }

    /// One-line summary for logs: the verdict and the chosen rung with its
    /// figures, then ` after [rung: why; …]` for every rung tried before it
    /// and ` surviving [epoch …; …]` for every rank loss — each clause only
    /// when it has something to name. E.g. `converged via Jacobi (rel
    /// 3.1e-9, 24 matvecs) after [ILUT(10,1e-4): factor failed: zero pivot
    /// at row 7] surviving [epoch 1: lost rank(s) [2], recovered in
    /// 1.2e-4s]`.
    pub fn summary(&self) -> String {
        if self.dead {
            return "rank killed mid-solve (tombstone)".into();
        }
        let status = if self.converged {
            "converged"
        } else {
            "FAILED to converge"
        };
        let mut s = format!(
            "{status} via {} (rel {:.1e}, {} matvecs)",
            self.preconditioner, self.rel_residual, self.matvecs
        );
        let skipped: Vec<String> = self.attempts[..self.chosen]
            .iter()
            .map(|a| {
                let why = match &a.outcome {
                    AttemptOutcome::FactorFailed(e) => format!("factor failed: {e}"),
                    AttemptOutcome::SolveFailed {
                        breakdown: Some(b), ..
                    } => format!("{b}"),
                    AttemptOutcome::SolveFailed { rel_residual, .. } => {
                        format!("stalled at rel {rel_residual:.1e}")
                    }
                    AttemptOutcome::Converged { .. } => "converged".to_string(),
                };
                format!("{}: {why}", a.preconditioner)
            })
            .collect();
        if !skipped.is_empty() {
            s.push_str(&format!(" after [{}]", skipped.join("; ")));
        }
        if !self.recoveries.is_empty() {
            let named: Vec<String> = self.recoveries.iter().map(|r| r.to_string()).collect();
            s.push_str(&format!(" surviving [{}]", named.join("; ")));
        }
        s
    }
}

/// Jacobi for the distributed ladder. Viability is a per-rank fact, so the
/// ranks agree on it (collective): a rank with an unusable diagonal reports
/// the row, every other rank names the lowest such rank.
fn agreed_jacobi(
    ctx: &mut Ctx,
    dm: &DistMatrix,
    local: &LocalView,
) -> Result<DistDiagonal, FactorError> {
    let diag = DistDiagonal::try_new(dm, local);
    let mine = diag.as_ref().map_or(ctx.rank() as u64, |_| u64::MAX);
    let first = ctx.all_reduce_u64(vec![mine], ReduceOp::Min)[0];
    match diag {
        Ok(_) if first != u64::MAX => Err(FactorError::RankFailure {
            rank: first as usize,
        }),
        verdict => verdict,
    }
}

/// Distributed robust solve of `A x = b` with rank-loss recovery.
/// Collective: every rank of the machine calls it with the same replicated
/// `a`, `b_global` and `dist`. Requires `MachineBuilder::recovery(true)`
/// for actual kills to be survivable; without faults it is a plain
/// par-ILUT + GMRES solve with a checkpoint written once per restart cycle.
///
/// Inside each epoch the preconditioner degrades down the ladder of the
/// module docs (caller's ILUT → boosted-shift refactorization → Jacobi →
/// none) until a rung converges, keeping the best-residual fallback
/// otherwise. While the primary rung converges the traffic is exactly that
/// of a hand-written par-ILUT + GMRES solve.
pub fn dist_solve_robust(
    ctx: &mut Ctx,
    a: &CsrMatrix,
    b_global: &[f64],
    dist: &Distribution,
    ilut_opts: &IlutOptions,
    gmres_opts: &GmresOptions,
) -> DistSolveReport {
    let n = a.n_rows();
    assert_eq!(b_global.len(), n);
    assert_eq!(dist.n_rows(), n);

    // The ILUT rungs: the caller's options, then the same under the shift,
    // which survives the rows an abort could not — skipped when the caller
    // already runs it, as retrying it would be a no-op. Jacobi and the
    // unpreconditioned rung follow.
    let mut iluts = vec![(ilut_opts.name(), ilut_opts.clone())];
    if ilut_opts.breakdown == BreakdownPolicy::Abort {
        let name = format!("{}+shift(1e-4)", ilut_opts.name());
        iluts.push((
            name,
            ilut_opts.clone().with_breakdown(BreakdownPolicy::Shift),
        ));
    }

    // The iterate checkpoint lives in *global* index space so it survives
    // redistribution: after a loss, a row's last value is valid no matter
    // which survivor inherits it. Rows owned by a dead rank keep whatever
    // was last scattered for them (the initial guess 0.0 if never owned by
    // a survivor) — any warm start is a legal warm start.
    let mut ckpt_global = vec![0.0f64; n];
    // Set once a solve has returned or a rank was lost, at the same point
    // of the climb on every rank: until then the checkpoint is the zero
    // guess and the kernel's cold start skips the product `A·0`.
    let mut warm = false;
    let mut recoveries: Vec<RecoveryRecord> = Vec::new();
    let mut cur = dist.clone();

    loop {
        let dm = DistMatrix::new(a.clone(), cur.clone());
        let local = dm.local_view(ctx.rank());
        let nodes = local.nodes.clone();
        // Owned outside the catcher: on an unwind mid-cycle this still
        // holds the last *completed* cycle's iterate.
        let mut ckpt_local: Vec<f64> = nodes.iter().map(|&g| ckpt_global[g]).collect();

        let attempt = catch_unwind(AssertUnwindSafe(|| {
            let b: Vec<f64> = nodes.iter().map(|&g| b_global[g]).collect();
            // Planned on first use — after the primary rung's
            // factorization, where a hand-written par-ILUT + GMRES driver
            // plans it too.
            let mut op = None;
            let mut attempts: Vec<AttemptRecord> = Vec::new();
            // Best non-converged fallback so far: (attempt index, result).
            let mut best: Option<(usize, GmresResult)> = None;
            for idx in 0..iluts.len() + 2 {
                // An `Err` means the rung is unavailable and nothing is
                // solved; every verdict is agreed across ranks.
                let (name, built): (String, Result<Box<dyn DistPrecond>, FactorError>) =
                    match iluts.get(idx) {
                        // par_ilut's fault verdict is collective.
                        Some((name, opts)) => (
                            name.clone(),
                            par_ilut(ctx, &dm, &local, opts)
                                .map(|rf| Box::new(DistIlu::new(ctx, &dm, &local, rf)) as _),
                        ),
                        None if idx == iluts.len() => (
                            "Jacobi".into(),
                            agreed_jacobi(ctx, &dm, &local).map(|d| Box::new(d) as _),
                        ),
                        None => ("none".into(), Ok(Box::new(DistIdentity))),
                    };
                let solved = built.map(|mut precond| {
                    let mut space = Distributed {
                        op: op.get_or_insert_with(|| DistCsr::new(ctx, &dm, &local)),
                        ctx,
                        local: &local,
                        precond: precond.as_mut(),
                    };
                    // Any finite iterate is a legal warm start, so a later
                    // rung keeps what an earlier one achieved.
                    let x0 = warm.then(|| ckpt_local.clone());
                    let ckpt = Some(&mut ckpt_local);
                    krylov::solve(&mut space, &b, gmres_opts, x0, ckpt)
                });
                let outcome = match &solved {
                    Err(e) => AttemptOutcome::FactorFailed(e.clone()),
                    Ok(r) if r.converged => AttemptOutcome::Converged {
                        rel_residual: r.rel_residual,
                        matvecs: r.matvecs,
                    },
                    Ok(r) => AttemptOutcome::SolveFailed {
                        rel_residual: r.rel_residual,
                        matvecs: r.matvecs,
                        breakdown: r.breakdown,
                    },
                };
                attempts.push(AttemptRecord {
                    preconditioner: name,
                    outcome,
                });
                let Ok(r) = solved else { continue };
                warm = true;
                if r.converged {
                    return (r, attempts, idx);
                }
                // Keep the best residual; a non-finite one is displaced by
                // anything later, so with nothing finite the last rung stands.
                let better = best.as_ref().is_none_or(|(_, prev)| {
                    r.rel_residual < prev.rel_residual || !prev.rel_residual.is_finite()
                });
                if better {
                    best = Some((idx, r));
                }
            }
            // lint: allow(unwrap): the unpreconditioned rung needs no factorization
            let (chosen, best) = best.expect("no rung of the ladder was solved");
            (best, attempts, chosen)
        }));

        match attempt {
            Ok((best, attempts, chosen)) => {
                return DistSolveReport {
                    x_local: best.x,
                    nodes,
                    converged: best.converged,
                    rel_residual: best.rel_residual,
                    matvecs: best.matvecs,
                    breakdown: best.breakdown,
                    preconditioner: attempts[chosen].preconditioner.clone(),
                    attempts,
                    chosen,
                    recoveries,
                    dead: false,
                };
            }
            Err(payload) => {
                if ctx.killed() {
                    // This rank is the victim. The kill unwound the attempt;
                    // return the required per-rank result instead of
                    // re-raising (the driver contract of
                    // `MachineBuilder::recovery`).
                    return DistSolveReport::tombstone(recoveries);
                }
                // Rank loss is the one recoverable unwind; anything else
                // is re-raised.
                match payload.downcast::<RankLost>() {
                    Ok(_) => {
                        // Preserve progress before the world changes hands.
                        for (&g, &v) in nodes.iter().zip(&ckpt_local) {
                            ckpt_global[g] = v;
                        }
                        warm = true;
                        let t_lost = ctx.time();
                        let dead = ctx.adopt_world();
                        ctx.recover_sync();
                        // `dead` is cumulative, so shrinking the *original*
                        // distribution is correct across repeated losses —
                        // and bitwise-deterministic on every survivor.
                        cur = shrink(dist, &dead);
                        recoveries.push(RecoveryRecord {
                            epoch: ctx.epoch(),
                            lost: dead,
                            time_to_recover: ctx.time() - t_lost,
                        });
                        // Loop: rebuild plans and factors, resume from ckpt.
                    }
                    Err(other) => resume_unwind(other),
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pilut_par::{FaultAction, FaultPlan, FaultRule, Machine, MachineModel};
    use pilut_sparse::vec_ops::norm2;
    use pilut_sparse::{gen, CooMatrix};

    fn model() -> MachineModel {
        MachineModel::cray_t3d()
    }

    /// Assembles the global solution from surviving ranks' reports, checks
    /// it against `x_true` and returns it.
    fn assemble_and_check(reports: &[DistSolveReport], n: usize, x_true: &[f64]) -> Vec<f64> {
        let mut x = vec![f64::NAN; n];
        for r in reports.iter().filter(|r| !r.dead) {
            assert!(r.converged, "survivor failed: {}", r.summary());
            for (&g, &v) in r.nodes.iter().zip(&r.x_local) {
                x[g] = v;
            }
        }
        let err = x
            .iter()
            .zip(x_true)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max);
        assert!(err < 1e-4, "assembled solution wrong: err = {err}");
        x
    }

    #[test]
    fn fault_free_solve_reports_no_recoveries() {
        let a = gen::laplace_2d(10, 10);
        let n = a.n_rows();
        let x_true: Vec<f64> = (0..n).map(|i| 1.0 + (i % 3) as f64).collect();
        let b = a.spmv_owned(&x_true);
        // The primary rung alone carries the solve, on one rank as on four.
        for p in [1, 4] {
            let reports = solve_on(
                p,
                &a,
                &b,
                &IlutOptions::new(10, 1e-4),
                &GmresOptions::default(),
            );
            assemble_and_check(&reports, n, &x_true);
            for r in &reports {
                assert!(r.recoveries.is_empty());
                assert!(!r.dead);
                assert_eq!((r.chosen, r.attempts.len()), (0, 1), "{}", r.summary());
                assert_eq!(r.preconditioner, "ILUT(10,1e-4)");
            }
        }
    }

    #[test]
    fn kill_mid_solve_recovers_and_converges() {
        let a = gen::laplace_2d(10, 10);
        let n = a.n_rows();
        let x_true: Vec<f64> = (0..n).map(|i| 1.0 + (i % 3) as f64).collect();
        let b = a.spmv_owned(&x_true);
        let dist = Distribution::from_matrix(&a, 4, 23);
        // Kill rank 2 a little way into the solve (past plan construction).
        let plan = FaultPlan::new(61).with(FaultRule::new(FaultAction::Kill).rank(2).after_op(40));
        let out = Machine::builder(model())
            .recovery(true)
            .fault_plan(plan)
            .run(4, |ctx| {
                dist_solve_robust(
                    ctx,
                    &a,
                    &b,
                    &dist,
                    &IlutOptions::new(10, 1e-4),
                    &GmresOptions::default(),
                )
            });
        assert!(
            out.injected_faults.iter().any(|f| f.kind == "kill"),
            "the kill must actually fire for this test to mean anything"
        );
        assemble_and_check(&out.results, n, &x_true);
        assert!(out.results[2].dead, "the victim tombstones");
        for r in [0usize, 1, 3] {
            let rep = &out.results[r];
            assert_eq!(rep.recoveries.len(), 1, "rank {r}: {}", rep.summary());
            let rec = &rep.recoveries[0];
            assert_eq!((rec.epoch, rec.lost.clone()), (1, vec![2]));
            assert!(rec.time_to_recover >= 0.0);
            assert!(
                rep.summary().contains("epoch 1") && rep.summary().contains("[2]"),
                "summary must name the recovery: {}",
                rep.summary()
            );
            // Survivors cover every row, including the victim's.
            assert_eq!(
                rep.nodes.len(),
                rep.x_local.len(),
                "rank {r} report is internally consistent"
            );
        }
        let covered: usize = out.results.iter().map(|r| r.nodes.len()).sum();
        assert_eq!(covered, n, "the shrunk world owns every row exactly once");
    }

    /// A 6×6 Laplacian whose row 0 has its diagonal zeroed — first in
    /// elimination order, so no update can repair it — with the RHS of a
    /// known solution.
    fn zero_diag_problem() -> (CsrMatrix, Vec<f64>, Vec<f64>) {
        let mut a = gen::laplace_2d(6, 6);
        let k = a.row(0).0.iter().position(|&j| j == 0);
        let k = k.expect("the Laplacian has its diagonal");
        a.values_mut()[k] = 0.0;
        let x_true: Vec<f64> = (0..a.n_rows()).map(|i| 1.0 + (i % 2) as f64).collect();
        let b = a.spmv_owned(&x_true);
        (a, b, x_true)
    }

    fn solve_on(
        p: usize,
        a: &CsrMatrix,
        b: &[f64],
        ilut_opts: &IlutOptions,
        gmres_opts: &GmresOptions,
    ) -> Vec<DistSolveReport> {
        let dist = Distribution::from_matrix(a, p, 23);
        Machine::run_checked(p, model(), |ctx| {
            dist_solve_robust(ctx, a, b, &dist, ilut_opts, gmres_opts)
        })
        .results
    }

    #[test]
    fn aborted_factorization_recovers_through_the_boosted_shift() {
        // Under BreakdownPolicy::Abort the zero pivot makes par_ilut fail
        // collectively; the ladder's second rung refactors under the
        // boosted shift and carries the solve — on every rank alike.
        let (a, b, x_true) = zero_diag_problem();
        let opts = IlutOptions::new(10, 1e-4).with_breakdown(BreakdownPolicy::Abort);
        for p in [1, 2] {
            let reports = solve_on(p, &a, &b, &opts, &GmresOptions::default());
            for r in &reports {
                assert!(r.converged && r.recoveries.is_empty(), "{}", r.summary());
                assert_eq!(r.chosen, 1, "{}", r.summary());
                assert_eq!(r.preconditioner, "ILUT(10,1e-4)+shift(1e-4)");
                assert!(matches!(
                    r.attempts[0].outcome,
                    AttemptOutcome::FactorFailed(_)
                ));
                // The report names every rung it tried.
                let names: Vec<&str> = r
                    .attempts
                    .iter()
                    .map(|a| a.preconditioner.as_str())
                    .collect();
                assert_eq!(names, ["ILUT(10,1e-4)", "ILUT(10,1e-4)+shift(1e-4)"]);
                assert!(
                    r.summary()
                        .starts_with("converged via ILUT(10,1e-4)+shift(1e-4) (rel ")
                        && r.summary().contains("after [ILUT(10,1e-4): factor failed"),
                    "summary must name the chosen and the skipped rung: {}",
                    r.summary()
                );
            }
            // The answer must actually solve the system.
            let x = assemble_and_check(&reports, a.n_rows(), &x_true);
            let resid: Vec<f64> = a
                .spmv_owned(&x)
                .iter()
                .zip(&b)
                .map(|(y, bi)| y - bi)
                .collect();
            assert!(norm2(&resid) <= 1e-5 * norm2(&b).max(1.0), "p = {p}");
        }
    }

    #[test]
    fn ilut_failure_degrades_to_jacobi_identically_on_every_rank() {
        // m = 0 is rejected by option validation, so both ILUT rungs fail
        // (the same way on every rank) and Jacobi carries the solve.
        let a = gen::laplace_2d(9, 9);
        let x_true: Vec<f64> = (0..a.n_rows()).map(|i| 1.0 + (i % 3) as f64).collect();
        let b = a.spmv_owned(&x_true);
        let reports = solve_on(
            3,
            &a,
            &b,
            &IlutOptions::new(0, 1e-4),
            &GmresOptions::default(),
        );
        assemble_and_check(&reports, a.n_rows(), &x_true);
        for r in &reports {
            assert_eq!(
                r.attempts, reports[0].attempts,
                "ranks disagree on the climb"
            );
            assert_eq!((r.chosen, r.preconditioner.as_str()), (2, "Jacobi"));
            assert_eq!(r.attempts.len(), 3);
            for failed in &r.attempts[..2] {
                assert!(matches!(
                    failed.outcome,
                    AttemptOutcome::FactorFailed(FactorError::InvalidOptions { .. })
                ));
            }
        }
    }

    #[test]
    fn unusable_jacobi_is_agreed_and_the_ladder_lands_on_identity() {
        // Invalid ILUT options *and* a zero diagonal: Jacobi is unusable on
        // the one rank owning row 0, which names the row; its peers must
        // skip the rung too and name that rank.
        let (a, b, _) = zero_diag_problem();
        let reports = solve_on(
            3,
            &a,
            &b,
            &IlutOptions::new(0, 1e-4),
            &GmresOptions::default(),
        );
        let owner = reports
            .iter()
            .position(|r| r.nodes.contains(&0))
            .expect("some rank owns row 0");
        for (rank, r) in reports.iter().enumerate() {
            assert_eq!((r.chosen, r.preconditioner.as_str()), (3, "none"));
            let want = if rank == owner {
                FactorError::ZeroPivot { row: 0 }
            } else {
                FactorError::RankFailure { rank: owner }
            };
            assert_eq!(r.attempts[2].outcome, AttemptOutcome::FactorFailed(want));
        }
    }

    #[test]
    fn a_later_rung_warm_starts_from_the_checkpoint() {
        // No pivot breaks here, so the boosted-shift rung rebuilds exactly
        // the primary rung's factors. With a budget the primary exhausts
        // from a cold start, the second rung can only converge inside the
        // same budget because it resumes from the primary's checkpoint.
        let a = gen::convection_diffusion_2d(14, 14, 8.0, 4.0);
        let x_true: Vec<f64> = (0..a.n_rows()).map(|i| 1.0 + (i % 3) as f64).collect();
        let b = a.spmv_owned(&x_true);
        let gopts = GmresOptions {
            restart: 4,
            rtol: 1e-10,
            max_matvecs: 9,
        };
        let reports = solve_on(3, &a, &b, &IlutOptions::new(10, 1e-4), &gopts);
        assemble_and_check(&reports, a.n_rows(), &x_true);
        for r in &reports {
            assert_eq!(
                r.attempts, reports[0].attempts,
                "ranks disagree on the climb"
            );
            assert_eq!(r.chosen, 1, "{}", r.summary());
            assert!(
                matches!(
                    r.attempts[0].outcome,
                    AttemptOutcome::SolveFailed { matvecs: 9, .. }
                ),
                "{:?}",
                r.attempts[0]
            );
            assert!(r.matvecs <= 9);
        }
    }

    #[test]
    fn ilut_star_runs_are_reported_under_their_own_name() {
        let a = gen::laplace_2d(8, 8);
        let b = a.spmv_owned(&vec![1.0; a.n_rows()]);
        let opts = IlutOptions::star(10, 1e-4, 2);
        for r in solve_on(2, &a, &b, &opts, &GmresOptions::default()) {
            assert!(r.converged, "{}", r.summary());
            assert_eq!(r.preconditioner, "ILUT*(10,1e-4,2)");
        }
    }

    #[test]
    fn singular_system_fails_with_a_structured_report() {
        // Exactly singular (a zero row): nothing can converge, but the
        // report must say so without panicking, with every rung recorded.
        let mut coo = CooMatrix::new(4, 4);
        for i in 0..3 {
            coo.push(i, i, 1.0);
        }
        let gopts = GmresOptions {
            max_matvecs: 50,
            ..Default::default()
        };
        let r = solve_on(
            1,
            &coo.to_csr(),
            &[1.0; 4],
            &IlutOptions::new(4, 0.0),
            &gopts,
        )
        .remove(0);
        assert!(!r.converged);
        assert_eq!(r.attempts.len(), 4, "{:?}", r.attempts);
        assert!(r.rel_residual.is_finite());
        assert!(r.summary().contains("FAILED"), "{}", r.summary());
    }

    /// The breakdowns of the rungs before `chosen` that ran and then broke
    /// down, each checked to be named in `summary()` after its rung.
    fn named_breakdowns(r: &DistSolveReport) -> Vec<Breakdown> {
        let s = r.summary();
        let mut found = Vec::new();
        for a in &r.attempts[..r.chosen] {
            if let AttemptOutcome::SolveFailed {
                breakdown: Some(b), ..
            } = a.outcome
            {
                assert!(s.contains(&format!("{}: {b}", a.preconditioner)), "{s}");
                found.push(b);
            }
        }
        found
    }

    #[test]
    fn poisoned_matrix_falls_through_to_the_last_rung_with_a_finite_iterate() {
        // A NaN off-diagonal poisons every residual: no rung can report a
        // finite one, so the ladder stands on its last rung — with the
        // kernel's guarded (finite) iterate, not garbage.
        let mut coo = CooMatrix::new(3, 3);
        for i in 0..3 {
            coo.push(i, i, 2.0);
        }
        coo.push(0, 1, f64::NAN);
        let gopts = GmresOptions::default();
        let r = solve_on(
            1,
            &coo.to_csr(),
            &[1.0; 3],
            &IlutOptions::new(3, 0.0),
            &gopts,
        )
        .remove(0);
        assert!(!r.converged && r.rel_residual.is_infinite());
        assert_eq!(r.chosen, r.attempts.len() - 1, "{:?}", r.attempts);
        assert_eq!(r.preconditioner, "none");
        assert!(r.x_local.iter().all(|v| v.is_finite()));
        // The shift and Jacobi rungs ran and met the NaN in the iteration.
        assert!(
            matches!(
                named_breakdowns(&r)[..],
                [Breakdown::NonFinite { .. }, Breakdown::NonFinite { .. }]
            ),
            "{}",
            r.summary()
        );

        // A = [[1, 4], [-4, 2]], b = (1, 1): right-preconditioned by its
        // diagonal D, A·D⁻¹·b = (3, -3) is orthogonal to b, so GMRES(1)
        // cannot move from x = 0 and the Jacobi rung stagnates;
        // A itself has a positive definite symmetric part, so the
        // unpreconditioned rung solves. Invalid ILUT options skip both
        // ILUT rungs.
        let mut coo = CooMatrix::new(2, 2);
        for (i, j, v) in [(0, 0, 1.0), (0, 1, 4.0), (1, 0, -4.0), (1, 1, 2.0)] {
            coo.push(i, j, v);
        }
        let gopts = GmresOptions {
            restart: 1,
            rtol: 1e-10,
            max_matvecs: 1000,
        };
        let opts = IlutOptions::new(0, 0.0);
        let r = solve_on(1, &coo.to_csr(), &[1.0, 1.0], &opts, &gopts).remove(0);
        assert!(r.converged && r.preconditioner == "none", "{}", r.summary());
        assert!(
            matches!(named_breakdowns(&r)[..], [Breakdown::Stagnation { .. }]),
            "{}",
            r.summary()
        );
    }
}
