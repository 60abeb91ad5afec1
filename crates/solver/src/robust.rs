//! Graceful degradation: a solve that survives factorization breakdown.
//!
//! One ladder, climbed until something converges — by [`solve_robust`]
//! serially and by [`crate::dist_robust::dist_solve_robust`] on the machine,
//! both through the same `climb`:
//!
//! 1. **Primary**: ILUT with the caller's options (whatever breakdown
//!    policy they chose, `Abort` by default).
//! 2. **Boosted-shift refactorization**: the same ILUT but under an
//!    aggressive [`BreakdownPolicy::Shift`] — repairs every unusable pivot
//!    with an escalating diagonal boost, trading preconditioner quality for
//!    existence.
//! 3. **Jacobi**: plain diagonal scaling via
//!    [`DiagonalPreconditioner::try_new`] (skipped when the diagonal itself
//!    is unusable).
//! 4. **Unpreconditioned** GMRES — always constructible.
//!
//! Every rung is recorded in the returned report, so a caller (or an
//! operator reading logs) can see exactly which fallback produced the
//! answer and why the better ones were rejected.

use crate::gmres::{gmres, GmresOptions, GmresResult};
use crate::report::{AttemptOutcome, AttemptRecord, SolveReport};
use pilut_core::options::{BreakdownPolicy, FactorError, IlutOptions};
use pilut_core::precond::{
    DiagonalPreconditioner, IdentityPreconditioner, IluPreconditioner, Preconditioner,
};
use pilut_core::serial::ilut;
use pilut_sparse::CsrMatrix;

/// The shift policy rung 2 retries with: strong enough to survive rows the
/// caller's own policy could not, escalating fast on repeated breakdowns.
fn boosted_shift() -> BreakdownPolicy {
    BreakdownPolicy::Shift {
        initial: 1e-4,
        growth: 100.0,
    }
}

/// What a rung of the ladder preconditions with.
pub(crate) enum Rung {
    /// An ILUT / ILUT\* factorization under the given options.
    Ilut(IlutOptions),
    /// Diagonal scaling.
    Jacobi,
    /// No preconditioning — always constructible.
    Plain,
}

/// Outcome of [`climb`].
pub(crate) struct Climbed {
    /// The chosen rung's solve: the first that converged, else the
    /// best-residual fallback (the last rung's when no rung reached a
    /// finite residual — its iterate is still finite, the kernel guards
    /// every update).
    pub best: GmresResult,
    /// Every rung tried, in order.
    pub attempts: Vec<AttemptRecord>,
    /// Index into `attempts` of the rung behind `best`.
    pub chosen: usize,
}

/// Walks the ladder — caller's ILUT → boosted-shift refactorization →
/// Jacobi → unpreconditioned — until a rung converges, recording every
/// attempt and keeping the best non-converged fallback.
///
/// `attempt` is the environment the ladder runs in: given a rung and its
/// display name it builds the preconditioner (an `Err` means the rung is
/// unavailable and nothing was solved) and runs the GMRES kernel with it.
/// Two exist — serial ([`solve_robust`]) and distributed
/// ([`crate::dist_robust::dist_solve_robust`], where the call is collective
/// and the `Err` verdict is agreed across ranks).
pub(crate) fn climb(
    ilut_opts: &IlutOptions,
    mut attempt: impl FnMut(&Rung, &str) -> Result<GmresResult, FactorError>,
) -> Climbed {
    let mut rungs = vec![(ilut_opts.name(), Rung::Ilut(ilut_opts.clone()))];
    // Skip the refactorization when the caller was already running an
    // equivalent policy — retrying it would be a no-op.
    if ilut_opts.breakdown != boosted_shift() {
        rungs.push((
            format!("{}+shift(1e-4)", ilut_opts.name()),
            Rung::Ilut(ilut_opts.clone().with_breakdown(boosted_shift())),
        ));
    }
    rungs.push(("Jacobi".into(), Rung::Jacobi));
    rungs.push(("none".into(), Rung::Plain));

    let mut attempts: Vec<AttemptRecord> = Vec::new();
    // Best non-converged fallback seen so far: (attempt index, result).
    let mut best: Option<(usize, GmresResult)> = None;
    for (idx, (name, rung)) in rungs.into_iter().enumerate() {
        let solved = attempt(&rung, &name);
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
            return Climbed {
                best: r,
                attempts,
                chosen: idx,
            };
        }
        // Keep the best residual; a non-finite one is displaced by anything
        // later, so with nothing finite the last rung stands.
        let better = best.as_ref().map_or(true, |(_, prev)| {
            r.rel_residual < prev.rel_residual || !prev.rel_residual.is_finite()
        });
        if better {
            best = Some((idx, r));
        }
    }
    // lint: allow(unwrap): the unpreconditioned rung needs no factorization
    let (chosen, best) = best.expect("no rung of the ladder was solved");
    Climbed {
        best,
        attempts,
        chosen,
    }
}

/// Solves `A x = b` with ILUT-preconditioned GMRES, degrading gracefully on
/// factorization or solver breakdown instead of panicking or returning
/// garbage. See the module docs for the ladder; the report names the rung
/// that produced the solution.
pub fn solve_robust(
    a: &CsrMatrix,
    b: &[f64],
    ilut_opts: &IlutOptions,
    gmres_opts: &GmresOptions,
) -> SolveReport {
    // Every serial rung solves from a zero start.
    let climbed = climb(ilut_opts, |rung, name| {
        let precond: Box<dyn Preconditioner> = match rung {
            Rung::Ilut(opts) => Box::new(IluPreconditioner::with_label(ilut(a, opts)?, name)),
            Rung::Jacobi => Box::new(DiagonalPreconditioner::try_new(a)?),
            Rung::Plain => Box::new(IdentityPreconditioner),
        };
        Ok(gmres(a, b, precond.as_ref(), gmres_opts))
    });
    SolveReport {
        x: climbed.best.x,
        converged: climbed.best.converged,
        rel_residual: climbed.best.rel_residual,
        attempts: climbed.attempts,
        chosen: climbed.chosen,
        recoveries: Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pilut_sparse::gen;
    use pilut_sparse::vec_ops::norm2;
    use pilut_sparse::CooMatrix;

    /// Diagonally dominant except row 0, whose diagonal entry is removed:
    /// no earlier row can fill the pivot back in, so plain ILUT under
    /// `Abort` dies and the shift rung must carry the solve.
    fn zero_diag_problem() -> (CsrMatrix, Vec<f64>) {
        let lap = gen::laplace_2d(6, 6);
        let n = lap.n_rows();
        let mut coo = CooMatrix::new(n, n);
        for i in 0..n {
            let (cols, vals) = lap.row(i);
            for (&j, &v) in cols.iter().zip(vals) {
                if i == 0 && j == 0 {
                    continue;
                }
                coo.push(i, j, v);
            }
        }
        let a = coo.to_csr();
        let b = a.spmv_owned(&vec![1.0; n]);
        (a, b)
    }

    #[test]
    fn primary_path_reports_no_fallback() {
        let a = gen::laplace_2d(8, 8);
        let b = a.spmv_owned(&vec![1.0; 64]);
        let r = solve_robust(&a, &b, &IlutOptions::new(8, 1e-3), &GmresOptions::default());
        assert!(r.converged && r.primary_succeeded(), "{}", r.summary());
        assert_eq!(r.attempts.len(), 1);
    }

    #[test]
    fn zero_pivot_falls_back_to_boosted_shift() {
        let (a, b) = zero_diag_problem();
        let r = solve_robust(
            &a,
            &b,
            &IlutOptions::new(10, 1e-4),
            &GmresOptions::default(),
        );
        assert!(r.converged, "{}", r.summary());
        assert!(!r.primary_succeeded());
        assert!(
            matches!(r.attempts[0].outcome, AttemptOutcome::FactorFailed(_)),
            "{:?}",
            r.attempts[0]
        );
        assert!(r.fallback().contains("shift"), "{}", r.summary());
        // The answer must actually solve the system.
        let ax = a.spmv_owned(&r.x);
        let resid: Vec<f64> = ax.iter().zip(&b).map(|(y, bi)| y - bi).collect();
        assert!(norm2(&resid) <= 1e-5 * norm2(&b).max(1.0));
    }

    #[test]
    fn report_names_every_rung_tried() {
        let (a, b) = zero_diag_problem();
        let r = solve_robust(
            &a,
            &b,
            &IlutOptions::new(10, 1e-4),
            &GmresOptions::default(),
        );
        let names: Vec<&str> = r
            .attempts
            .iter()
            .map(|a| a.preconditioner.as_str())
            .collect();
        assert!(names[0].starts_with("ILUT("), "{names:?}");
        assert!(names.len() >= 2, "{names:?}");
        let s = r.summary();
        assert!(s.contains("converged via"), "{s}");
    }

    #[test]
    fn singular_system_fails_with_a_structured_report() {
        // Exactly singular (a zero row): nothing can converge, but the
        // report must say so without panicking, with every rung recorded.
        let n = 4;
        let mut coo = CooMatrix::new(n, n);
        coo.push(0, 0, 1.0);
        coo.push(1, 1, 1.0);
        coo.push(2, 2, 1.0);
        // Row 3 entirely zero.
        let a = coo.to_csr();
        let b = vec![1.0; n];
        let r = solve_robust(
            &a,
            &b,
            &IlutOptions::new(4, 0.0),
            &GmresOptions {
                max_matvecs: 50,
                ..Default::default()
            },
        );
        assert!(!r.converged);
        assert_eq!(r.attempts.len(), 4, "{:?}", r.attempts);
        assert!(r.rel_residual.is_finite());
        assert!(r.summary().contains("FAILED"), "{}", r.summary());
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
        let a = coo.to_csr();
        let r = solve_robust(
            &a,
            &[1.0; 3],
            &IlutOptions::new(3, 0.0),
            &GmresOptions::default(),
        );
        assert!(!r.converged && r.rel_residual.is_infinite());
        assert_eq!(r.chosen, r.attempts.len() - 1, "{:?}", r.attempts);
        assert_eq!(r.fallback(), "none");
        assert!(r.x.iter().all(|v| v.is_finite()));
    }
}
