//! Graceful degradation: the distributed solve that survives
//! factorization breakdown and solver breakdown.
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
//! zero; every later one warm-starts from the iterate the last solved rung
//! returned (any finite iterate is a legal warm start, so a later rung
//! keeps what an earlier one achieved). Every rung tried is recorded in the
//! returned report, which names the rung that produced the answer and why
//! the better ones were rejected.

use pilut_core::dist::op::DistCsr;
use pilut_core::dist::{DistMatrix, Distribution, LocalView};
use pilut_core::options::{BreakdownPolicy, FactorError, IlutOptions};
use pilut_core::parallel::par_ilut;
use pilut_par::collectives::ReduceOp;
use pilut_par::Ctx;
use pilut_sparse::CsrMatrix;

use crate::dist_gmres::{DistDiagonal, DistIdentity, DistIlu, DistPrecond, Distributed};
use crate::gmres::{GmresOptions, GmresResult};
use crate::krylov;
use crate::report::{AttemptOutcome, AttemptRecord, Breakdown};

/// Per-rank outcome of [`dist_solve_robust`]. Scalar fields are identical
/// on every rank.
#[derive(Clone, Debug)]
pub struct DistSolveReport {
    /// This rank's slice of the solution, in local-view order.
    pub x_local: Vec<f64>,
    /// Global row ids of `x_local`'s entries.
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
    /// Every ladder rung tried, in order. A `FactorFailed` entry carries
    /// the failing rank's view of the error: the rank that met the bad row
    /// names it, its peers name that rank.
    pub attempts: Vec<AttemptRecord>,
    /// Index into `attempts` of the rung that produced `x_local`.
    pub chosen: usize,
}

impl DistSolveReport {
    /// One-line summary for logs: the verdict and the chosen rung with its
    /// figures, then ` after [rung: why; …]` for every rung tried before it
    /// when there is one. E.g. `converged via Jacobi (rel 3.1e-9, 24
    /// matvecs) after [ILUT(10,1e-4): factor failed: zero pivot at row 7]`.
    pub fn summary(&self) -> String {
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

/// Distributed robust solve of `A x = b`. Collective: every rank of the
/// machine calls it with the same replicated `a`, `b_global` and `dist`.
///
/// The preconditioner degrades down the ladder of the module docs (caller's
/// ILUT → boosted-shift refactorization → Jacobi → none) until a rung
/// converges, keeping the best-residual fallback otherwise. While the
/// primary rung converges the traffic is exactly that of a hand-written
/// par-ILUT + GMRES solve.
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

    let dm = DistMatrix::new(a.clone(), dist.clone());
    let local = dm.local_view(ctx.rank());
    let b: Vec<f64> = local.nodes.iter().map(|&g| b_global[g]).collect();
    // Planned on first use — after the primary rung's factorization, where
    // a hand-written par-ILUT + GMRES driver plans it too.
    let mut op = None;
    let mut attempts: Vec<AttemptRecord> = Vec::new();
    // The iterate of the last rung that solved: the next rung's warm start.
    // Until a rung has solved, the kernel's cold start skips the product `A·0`.
    let mut last_x: Option<Vec<f64>> = None;
    // The converged rung, or else the best fallback so far: (attempt
    // index, result).
    let mut best: Option<(usize, GmresResult)> = None;
    for idx in 0..iluts.len() + 2 {
        // An `Err` means the rung is unavailable and nothing is solved;
        // every verdict is agreed across ranks.
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
            // Any finite iterate is a legal warm start, so a later rung
            // keeps what an earlier one achieved.
            krylov::solve(&mut space, &b, gmres_opts, last_x.take())
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
        if r.converged {
            best = Some((idx, r));
            break;
        }
        last_x = Some(r.x.clone());
        // Keep the best residual; a non-finite one is displaced by anything
        // later, so with nothing finite the last rung stands.
        let better = best.as_ref().is_none_or(|(_, prev)| {
            r.rel_residual < prev.rel_residual || !prev.rel_residual.is_finite()
        });
        if better {
            best = Some((idx, r));
        }
    }
    #[expect(clippy::expect_used, reason = "the unpreconditioned rung always runs")]
    let (chosen, best) = best.expect("no rung of the ladder was solved");
    DistSolveReport {
        x_local: best.x,
        nodes: local.nodes,
        converged: best.converged,
        rel_residual: best.rel_residual,
        matvecs: best.matvecs,
        breakdown: best.breakdown,
        preconditioner: attempts[chosen].preconditioner.clone(),
        attempts,
        chosen,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pilut_par::{Machine, MachineModel};
    use pilut_sparse::vec_ops::norm2;
    use pilut_sparse::{gen, CooMatrix};

    fn model() -> MachineModel {
        MachineModel::cray_t3d()
    }

    /// Assembles the global solution from the ranks' reports, checks it
    /// against `x_true` and returns it.
    fn assemble_and_check(reports: &[DistSolveReport], n: usize, x_true: &[f64]) -> Vec<f64> {
        let mut x = vec![f64::NAN; n];
        for r in reports {
            assert!(r.converged, "a rank failed: {}", r.summary());
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
                assert_eq!((r.chosen, r.attempts.len()), (0, 1), "{}", r.summary());
                assert_eq!(r.preconditioner, "ILUT(10,1e-4)");
            }
        }
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
                assert!(r.converged, "{}", r.summary());
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
