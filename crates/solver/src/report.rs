//! Structured breakdown reporting for the GMRES solvers.
//!
//! A Krylov solve can fail *numerically* (NaN/Inf in the Arnoldi process)
//! or *practically* (stagnation across restart cycles). Both are detected
//! and reported as a typed [`Breakdown`] instead of silently returning
//! garbage; [`crate::dist_robust::dist_solve_robust`] consumes these to
//! drive its degradation ladder, records each rung as an [`AttemptRecord`],
//! and summarises what happened in its [`DistSolveReport`](crate::dist_robust::DistSolveReport).

use pilut_core::options::FactorError;

/// Why an iterative solve stopped making (trustworthy) progress.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Breakdown {
    /// A NaN or infinity entered the iteration (Arnoldi vector or
    /// Hessenberg entry) at the given matvec count.
    NonFinite {
        /// Matrix–vector products performed when the poison was detected.
        at: usize,
    },
    /// The restarted iteration stopped reducing the residual: two
    /// consecutive restart cycles ended with no measurable decrease.
    Stagnation {
        /// Matrix–vector products performed when stagnation was declared.
        at: usize,
    },
}

impl std::fmt::Display for Breakdown {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Breakdown::NonFinite { at } => {
                write!(f, "non-finite value in the iteration after {at} matvecs")
            }
            Breakdown::Stagnation { at } => {
                write!(f, "residual stagnated across restarts after {at} matvecs")
            }
        }
    }
}

/// What one rung of the [`crate::dist_robust::dist_solve_robust`] ladder did.
#[derive(Clone, Debug, PartialEq)]
pub enum AttemptOutcome {
    /// The preconditioner could not even be built.
    FactorFailed(FactorError),
    /// The solve ran but did not converge (breakdown and/or residual above
    /// target).
    SolveFailed {
        /// Relative residual when the solve stopped.
        rel_residual: f64,
        /// Matrix–vector products the solve performed.
        matvecs: usize,
        /// Why the iteration stopped early, if it did.
        breakdown: Option<Breakdown>,
    },
    /// The solve converged — this attempt produced the reported solution.
    Converged {
        /// Final relative residual.
        rel_residual: f64,
        /// Matrix–vector products the solve performed.
        matvecs: usize,
    },
}

/// One rung of the degradation ladder, as tried.
#[derive(Clone, Debug, PartialEq)]
pub struct AttemptRecord {
    /// Human-readable preconditioner description, e.g. `ILUT(10,1e-4)`,
    /// `ILUT+shift(1e-4)`, `Jacobi`, `none`.
    pub preconditioner: String,
    /// What the rung's factorization and solve did.
    pub outcome: AttemptOutcome,
}
