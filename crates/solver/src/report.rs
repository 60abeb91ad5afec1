//! Structured breakdown and recovery reporting for the GMRES solvers.
//!
//! A Krylov solve can fail *numerically* (NaN/Inf in the Arnoldi process)
//! or *practically* (stagnation across restart cycles). Both are detected
//! and reported as a typed [`Breakdown`] instead of silently returning
//! garbage; [`crate::dist_robust::dist_solve_robust`] consumes these to
//! drive its degradation ladder, records each rung as an [`AttemptRecord`]
//! and each survived rank loss as a [`RecoveryRecord`], and summarises what
//! happened in its [`DistSolveReport`](crate::dist_robust::DistSolveReport).

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
        rel_residual: f64,
        matvecs: usize,
        breakdown: Option<Breakdown>,
    },
    /// The solve converged — this attempt produced the reported solution.
    Converged { rel_residual: f64, matvecs: usize },
}

/// One rung of the degradation ladder, as tried.
#[derive(Clone, Debug, PartialEq)]
pub struct AttemptRecord {
    /// Human-readable preconditioner description, e.g. `ILUT(10,1e-4)`,
    /// `ILUT+shift(1e-4)`, `Jacobi`, `none`.
    pub preconditioner: String,
    pub outcome: AttemptOutcome,
}

/// One survived rank loss: when it happened, who died, and how long the
/// agreement round took. Recorded by the distributed self-healing driver
/// ([`crate::dist_robust::dist_solve_robust`]).
#[derive(Clone, Debug, PartialEq)]
pub struct RecoveryRecord {
    /// Recovery epoch entered (1 = first loss this solve adopted).
    pub epoch: u64,
    /// The *cumulative* dead set at adoption, ascending.
    pub lost: Vec<usize>,
    /// Simulated seconds from catching the loss to the agreed new world
    /// (world adoption + the recovery agreement round; re-planning and
    /// re-factorisation are charged to the resumed solve itself).
    pub time_to_recover: f64,
}

impl std::fmt::Display for RecoveryRecord {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "epoch {}: lost rank(s) {:?}, recovered in {:.3e}s",
            self.epoch, self.lost, self.time_to_recover
        )
    }
}
