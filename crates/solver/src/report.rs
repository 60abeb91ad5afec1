//! Structured breakdown and recovery reporting for the GMRES solvers.
//!
//! A Krylov solve can fail *numerically* (NaN/Inf in the Arnoldi process)
//! or *practically* (stagnation across restart cycles). Both are detected
//! and reported as a typed [`Breakdown`] instead of silently returning
//! garbage; [`crate::robust::solve_robust`] consumes these to drive its
//! degradation ladder and summarises what happened in a [`SolveReport`].

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

/// What one rung of the [`crate::robust::solve_robust`] ladder did.
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
/// ([`crate::dist_robust::dist_solve_robust`]); serial solves never populate
/// these.
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

/// The one-line summary both reports share: the verdict and `chosen` (the
/// rung that produced the answer, with its figures), then ` after [rung:
/// why; …]` for every rung tried before it and ` surviving [epoch …; …]`
/// for every rank loss — each clause only when it has something to name.
pub(crate) fn summary_line(
    converged: bool,
    chosen_rung: &str,
    attempts: &[AttemptRecord],
    chosen: usize,
    recoveries: &[RecoveryRecord],
) -> String {
    let skipped: Vec<String> = attempts
        .iter()
        .take(chosen)
        .map(|a| {
            let why = match &a.outcome {
                AttemptOutcome::FactorFailed(e) => format!("factor failed: {e}"),
                AttemptOutcome::SolveFailed {
                    rel_residual,
                    breakdown,
                    ..
                } => match breakdown {
                    Some(b) => format!("{b}"),
                    None => format!("stalled at rel {rel_residual:.1e}"),
                },
                AttemptOutcome::Converged { .. } => "converged".to_string(),
            };
            format!("{}: {}", a.preconditioner, why)
        })
        .collect();
    let status = if converged {
        "converged"
    } else {
        "FAILED to converge"
    };
    let mut s = format!("{status} via {chosen_rung}");
    if !skipped.is_empty() {
        s.push_str(&format!(" after [{}]", skipped.join("; ")));
    }
    if !recoveries.is_empty() {
        let named: Vec<String> = recoveries.iter().map(|r| r.to_string()).collect();
        s.push_str(&format!(" surviving [{}]", named.join("; ")));
    }
    s
}

/// The structured outcome of a robust solve: which rungs were tried, which
/// one produced the answer, and how good that answer is.
#[derive(Clone, Debug)]
pub struct SolveReport {
    /// The best solution found (from the converged attempt, or the
    /// best-residual attempt if nothing converged).
    pub x: Vec<f64>,
    pub converged: bool,
    /// True relative residual of `x`.
    pub rel_residual: f64,
    /// Every rung tried, in order.
    pub attempts: Vec<AttemptRecord>,
    /// Index into `attempts` of the rung that produced `x`.
    pub chosen: usize,
}

impl SolveReport {
    /// Name of the preconditioner that produced the reported solution.
    pub fn fallback(&self) -> &str {
        &self.attempts[self.chosen].preconditioner
    }

    /// True when the primary (first) attempt already converged — no
    /// degradation was needed.
    pub fn primary_succeeded(&self) -> bool {
        self.chosen == 0 && self.converged
    }

    /// One-line summary for logs: `converged via Jacobi (rel 3.1e-9) after
    /// [ILUT(10,1e-4): factor failed: zero pivot at row 7]`.
    pub fn summary(&self) -> String {
        let name = format!("{} (rel {:.1e})", self.fallback(), self.rel_residual);
        summary_line(self.converged, &name, &self.attempts, self.chosen, &[])
    }
}
