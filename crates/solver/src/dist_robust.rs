//! The self-healing distributed solve: survive rank loss mid-solve.
//!
//! [`dist_solve_robust`] is the lost-rank rung of the degradation ladder.
//! It drives par-ILUT + distributed GMRES exactly like a hand-rolled
//! workload would, but wraps every attempt in an unwind catcher so that an
//! injected `Kill` (surfaced by the VM's recovery layer as a
//! [`pilut_par::RankLost`] unwind on every survivor — requires
//! `MachineBuilder::recovery(true)`) is *handled* instead of fatal:
//!
//! 1. the victim itself observes `Ctx::killed()` and returns a tombstone
//!    report (the VM requires every rank to produce a result);
//! 2. each survivor scatters its latest iterate checkpoint into a global
//!    vector, adopts the new world (`Ctx::adopt_world`), runs the recovery
//!    agreement round (`Ctx::recover_sync`), and shrinks the row
//!    distribution ([`pilut_core::dist::recover::shrink`]) with the
//!    *cumulative* dead set;
//! 3. the attempt re-runs on the shrunk world: plans and factors are
//!    rebuilt from the replicated input matrix, and GMRES warm-starts from
//!    the checkpoint ([`crate::dist_gmres::dist_gmres_from`]), so only the
//!    in-flight restart cycle's progress is lost.
//!
//! Inside one epoch the preconditioner degrades down the same ladder as the
//! serial [`crate::robust::solve_robust`] — the shared `climb` of
//! [`crate::robust`] — in a distributed environment where every rung's
//! availability is a collective verdict and every solve warm-starts from
//! the current checkpoint (any finite iterate is a legal warm start, so a
//! later rung keeps what an earlier one achieved).
//!
//! Every recovery is recorded as a [`RecoveryRecord`] (epoch, lost ranks,
//! time-to-recover) in the returned [`DistSolveReport`]. Invariants of this
//! protocol are catalogued in DESIGN §14.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};

use pilut_core::dist::op::DistCsr;
use pilut_core::dist::recover::shrink;
use pilut_core::dist::{DistMatrix, Distribution, LocalView};
use pilut_core::options::{FactorError, IlutOptions};
use pilut_core::parallel::par_ilut;
use pilut_par::collectives::ReduceOp;
use pilut_par::{Ctx, RankLost};
use pilut_sparse::CsrMatrix;

use crate::dist_gmres::{DistDiagonal, DistIdentity, DistIlu, DistPrecond, Distributed};
use crate::gmres::GmresOptions;
use crate::krylov;
use crate::report::{summary_line, AttemptRecord, Breakdown, RecoveryRecord};
use crate::robust::{climb, Rung};

/// A typed, recoverable error surfaced between attempts of a distributed
/// solve. Today the only variant is rank loss; the VM raises it as a panic
/// payload ([`pilut_par::RankLost`]) and [`dist_solve_robust`] catches and
/// classifies it here.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SolveError {
    /// One or more ranks died mid-solve.
    RankLost {
        /// The epoch the survivors adopt.
        epoch: u64,
        /// All ranks dead at detection, ascending (cumulative).
        dead: Vec<usize>,
    },
}

/// Downcasts an unwind payload to the recoverable [`SolveError`] it
/// represents, or hands the payload back for re-raising.
fn classify(
    payload: Box<dyn std::any::Any + Send>,
) -> Result<SolveError, Box<dyn std::any::Any + Send>> {
    match payload.downcast::<RankLost>() {
        Ok(lost) => Ok(SolveError::RankLost {
            epoch: lost.epoch,
            dead: lost.dead,
        }),
        Err(other) => Err(other),
    }
}

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
    pub converged: bool,
    pub rel_residual: f64,
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

    /// One-line summary naming the rungs passed over and each recovery
    /// epoch, e.g. `converged via Jacobi (rel 3.1e-9, 24 matvecs) after
    /// [ILUT(10,1e-4): factor failed: zero pivot at row 7] surviving
    /// [epoch 1: lost rank(s) [2], recovered in 1.2e-4s]`.
    pub fn summary(&self) -> String {
        if self.dead {
            return "rank killed mid-solve (tombstone)".into();
        }
        let name = format!(
            "{} (rel {:.1e}, {} matvecs)",
            self.preconditioner, self.rel_residual, self.matvecs
        );
        summary_line(
            self.converged,
            &name,
            &self.attempts,
            self.chosen,
            &self.recoveries,
        )
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
/// Inside each epoch the preconditioner degrades down the shared ladder
/// (caller's ILUT → boosted-shift refactorization → Jacobi → none); every
/// rung's availability and every convergence verdict is collective, so all
/// ranks climb in lockstep. While the primary rung converges the traffic is
/// exactly that of a hand-written par-ILUT + GMRES solve.
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

    // The iterate checkpoint lives in *global* index space so it survives
    // redistribution: after a loss, a row's last value is valid no matter
    // which survivor inherits it. Rows owned by a dead rank keep whatever
    // was last scattered for them (the initial guess 0.0 if never owned by
    // a survivor) — any warm start is a legal warm start.
    let mut ckpt_global = vec![0.0f64; n];
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
            climb(ilut_opts, |rung, name| {
                let mut precond: Box<dyn DistPrecond> = match rung {
                    // par_ilut's fault verdict is collective: Ok/Err is agreed.
                    Rung::Ilut(opts) => {
                        let rf = par_ilut(ctx, &dm, &local, opts)?;
                        Box::new(DistIlu::new(ctx, &dm, &local, rf).with_label(name))
                    }
                    Rung::Jacobi => Box::new(agreed_jacobi(ctx, &dm, &local)?),
                    Rung::Plain => Box::new(DistIdentity),
                };
                let mut space = Distributed {
                    op: op.get_or_insert_with(|| DistCsr::new(ctx, &dm, &local)),
                    ctx,
                    local: &local,
                    precond: precond.as_mut(),
                };
                // Any finite iterate is a legal warm start, so a later rung
                // keeps what an earlier one achieved.
                let x0 = ckpt_local.clone();
                let ckpt = Some(&mut ckpt_local);
                Ok(krylov::solve(&mut space, &b, gmres_opts, Some(x0), ckpt))
            })
        }));

        match attempt {
            Ok(climbed) => {
                let best = climbed.best;
                return DistSolveReport {
                    x_local: best.x,
                    nodes,
                    converged: best.converged,
                    rel_residual: best.rel_residual,
                    matvecs: best.matvecs,
                    breakdown: best.breakdown,
                    preconditioner: climbed.attempts[climbed.chosen].preconditioner.clone(),
                    attempts: climbed.attempts,
                    chosen: climbed.chosen,
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
                match classify(payload) {
                    Ok(SolveError::RankLost { .. }) => {
                        // Preserve progress before the world changes hands.
                        for (&g, &v) in nodes.iter().zip(&ckpt_local) {
                            ckpt_global[g] = v;
                        }
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
    use crate::report::AttemptOutcome;
    use pilut_core::options::BreakdownPolicy;
    use pilut_par::{FaultAction, FaultPlan, FaultRule, Machine, MachineModel};
    use pilut_sparse::gen;

    fn model() -> MachineModel {
        MachineModel::cray_t3d()
    }

    /// Assembles the global solution from surviving ranks' reports and
    /// checks it against `x_true`.
    fn assemble_and_check(reports: &[DistSolveReport], n: usize, x_true: &[f64]) {
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
    }

    #[test]
    fn fault_free_solve_reports_no_recoveries() {
        let a = gen::laplace_2d(10, 10);
        let n = a.n_rows();
        let x_true: Vec<f64> = (0..n).map(|i| 1.0 + (i % 3) as f64).collect();
        let b = a.spmv_owned(&x_true);
        let dist = Distribution::from_matrix(&a, 4, 23);
        let out = Machine::run_checked(4, model(), |ctx| {
            dist_solve_robust(
                ctx,
                &a,
                &b,
                &dist,
                &IlutOptions::new(10, 1e-4),
                &GmresOptions::default(),
            )
        });
        assemble_and_check(&out.results, n, &x_true);
        for r in &out.results {
            assert!(r.recoveries.is_empty());
            assert!(!r.dead);
            assert!(
                r.preconditioner.starts_with("ILUT("),
                "{}",
                r.preconditioner
            );
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
    fn zero_diag_problem() -> (CsrMatrix, Vec<f64>) {
        let mut a = gen::laplace_2d(6, 6);
        let k = (a.row_ptr()[0]..a.row_ptr()[1])
            .find(|&k| a.col_idx()[k] == 0)
            .expect("the Laplacian has its diagonal");
        a.values_mut()[k] = 0.0;
        let x_true: Vec<f64> = (0..a.n_rows()).map(|i| 1.0 + (i % 2) as f64).collect();
        let b = a.spmv_owned(&x_true);
        (a, b)
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
        // collectively; the shared ladder's second rung refactors under the
        // boosted shift and carries the solve — on every rank alike.
        let (a, b) = zero_diag_problem();
        let opts = IlutOptions::new(10, 1e-4).with_breakdown(BreakdownPolicy::Abort);
        for r in solve_on(2, &a, &b, &opts, &GmresOptions::default()) {
            assert!(r.converged && r.recoveries.is_empty(), "{}", r.summary());
            assert_eq!(r.chosen, 1, "{}", r.summary());
            assert_eq!(r.preconditioner, "ILUT(10,1e-4)+shift(1e-4)");
            assert!(matches!(
                r.attempts[0].outcome,
                AttemptOutcome::FactorFailed(_)
            ));
            assert!(
                r.summary().contains("after [ILUT(10,1e-4): factor failed"),
                "summary must name the skipped rung: {}",
                r.summary()
            );
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
        let (a, b) = zero_diag_problem();
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
}
