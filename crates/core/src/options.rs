//! Shared parameter and error types.

/// What an ILUT factorization does when it meets an unusable pivot
/// (exactly zero, structurally missing, or non-finite). ILU(0) always
/// aborts.
///
/// Robust ILU packages treat breakdown as a recoverable condition rather
/// than a crash: BILU perturbs pivots based on inverse-norm bounds, and
/// parGeMSLR falls back when a local factorization fails. Here the one
/// recovery is the shift, and `dist_solve_robust` reaches for it on its
/// own when the caller's factorization aborts.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub enum BreakdownPolicy {
    /// Return a [`FactorError`] at the first unusable pivot — the strict,
    /// paper-faithful behaviour, and the default.
    #[default]
    Abort,
    /// Replace the unusable pivot with a diagonal boost scaled by the
    /// row's magnitude, escalating geometrically on repeated breakdowns
    /// within one factorization: the `k`-th repaired pivot becomes
    /// `1e-4 · 100^k · ‖a_i‖₂` (or `1e-4 · 100^k` for an all-zero row),
    /// saturating at `f64::MAX`. Non-finite off-diagonal entries are
    /// discarded.
    Shift,
}

/// Parameters of the ILUT(m, t) / ILUT\*(m, t, k) factorizations.
#[derive(Clone, Debug)]
pub struct IlutOptions {
    /// Maximum number of retained off-diagonal entries per row in each of
    /// `L` and `U` (the paper's `m`).
    pub m: usize,
    /// Relative drop tolerance (the paper's `t`): entries below
    /// `t · ‖a_i‖₂` are dropped from row `i`.
    pub tau: f64,
    /// The ILUT\* reduced-matrix cap factor `k`: when `Some(k)`, each row of
    /// every interface reduced matrix keeps at most `k · m` entries (paper
    /// §4.2; the experiments use `k = 2`). `None` reproduces plain ILUT,
    /// whose reduced rows keep *every* entry above the threshold.
    pub reduced_cap_factor: Option<usize>,
    /// Luby augmentation rounds per independent-set computation (paper: 5).
    pub mis_rounds: usize,
    /// Seed for the randomised independent sets.
    pub seed: u64,
    /// What to do when a pivot is unusable (see [`BreakdownPolicy`]).
    pub breakdown: BreakdownPolicy,
}

impl IlutOptions {
    /// Plain ILUT(m, t).
    pub fn new(m: usize, tau: f64) -> Self {
        IlutOptions {
            m,
            tau,
            reduced_cap_factor: None,
            mis_rounds: 5,
            seed: 1,
            breakdown: BreakdownPolicy::Abort,
        }
    }

    /// The same options with a different breakdown policy.
    pub fn with_breakdown(mut self, policy: BreakdownPolicy) -> Self {
        self.breakdown = policy;
        self
    }

    /// Checks the options for values that cannot drive a factorization;
    /// called by every kernel entry point so bad user input surfaces as a
    /// typed error instead of a panic deep in the elimination.
    pub fn validate(&self) -> Result<(), FactorError> {
        if self.m == 0 {
            return Err(FactorError::InvalidOptions {
                what: "fill cap m must be at least 1".into(),
            });
        }
        if !self.tau.is_finite() || self.tau < 0.0 {
            return Err(FactorError::InvalidOptions {
                what: format!(
                    "drop tolerance tau must be finite and >= 0, got {}",
                    self.tau
                ),
            });
        }
        if self.reduced_cap_factor == Some(0) {
            return Err(FactorError::InvalidOptions {
                what: "reduced cap factor k must be at least 1".into(),
            });
        }
        if self.mis_rounds == 0 {
            return Err(FactorError::InvalidOptions {
                what: "mis_rounds must be at least 1".into(),
            });
        }
        Ok(())
    }

    /// ILUT\*(m, t, k).
    pub fn star(m: usize, tau: f64, k: usize) -> Self {
        IlutOptions {
            reduced_cap_factor: Some(k),
            ..Self::new(m, tau)
        }
    }

    /// The reduced-row capacity: `k·m` for ILUT\*, unbounded for ILUT.
    pub fn reduced_cap(&self) -> usize {
        self.reduced_cap_factor.map_or(usize::MAX, |k| k * self.m)
    }

    /// Display name, e.g. `ILUT(10,1e-4)` or `ILUT*(10,1e-4,2)`.
    pub fn name(&self) -> String {
        match self.reduced_cap_factor {
            None => format!("ILUT({},{:.0e})", self.m, self.tau),
            Some(k) => format!("ILUT*({},{:.0e},{})", self.m, self.tau, k),
        }
    }
}

/// Failure modes of the factorizations (and of preconditioner setup built
/// on them).
#[derive(Clone, Debug, PartialEq)]
pub enum FactorError {
    /// A numerically zero pivot was met at the given row (global index):
    /// the diagonal position exists (or filled in) but carries exactly 0.
    ZeroPivot {
        /// Global row index of the unusable pivot.
        row: usize,
    },
    /// A NaN or infinity appeared in the given row during elimination —
    /// usually the downstream echo of an earlier near-breakdown.
    NonFinite {
        /// Global row index where the non-finite value was found.
        row: usize,
    },
    /// The row has no diagonal entry and elimination created no fill on
    /// it: the pattern itself cannot support an LU factor.
    StructurallySingular {
        /// Global row index with the structurally missing diagonal.
        row: usize,
    },
    /// A distributed factorization failed on the given rank (the wrapped
    /// per-row error is reported by that rank; peers see the rank id).
    RankFailure {
        /// Rank whose local factorization failed.
        rank: usize,
    },
    /// The options themselves cannot drive a factorization.
    InvalidOptions {
        /// Human-readable description of the rejected value.
        what: String,
    },
    /// A framed wire message failed to decode: the payload violates the
    /// protocol's framing invariants (an out-of-range index or an unknown
    /// state code). Corrupted traffic — e.g. a chaos-injected duplicate
    /// consumed as a later round's frame — surfaces here as a structured
    /// error instead of an index panic inside the decoder.
    Protocol {
        /// Name of the protocol tag the malformed frame arrived under.
        tag: &'static str,
        /// What the decoder rejected.
        what: String,
    },
}

impl std::fmt::Display for FactorError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FactorError::ZeroPivot { row } => write!(f, "zero pivot at row {row}"),
            FactorError::NonFinite { row } => {
                write!(f, "non-finite value in row {row} during elimination")
            }
            FactorError::StructurallySingular { row } => {
                write!(f, "structurally singular: row {row} has no usable diagonal")
            }
            FactorError::RankFailure { rank } => {
                write!(f, "local factorization failed on rank {rank}")
            }
            FactorError::InvalidOptions { what } => write!(f, "invalid options: {what}"),
            FactorError::Protocol { tag, what } => {
                write!(f, "protocol error on {tag}: {what}")
            }
        }
    }
}

impl std::error::Error for FactorError {}

/// Operation counts accumulated during a factorization; these drive the
/// simulated-machine clock in the parallel formulation and give the serial
/// baselines comparable numbers.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct FactorStats {
    /// Floating-point operations (multiply-adds count as 2).
    pub flops: f64,
    /// Entries retained in `L` (strict lower part).
    pub nnz_l: usize,
    /// Entries retained in `U` (including the diagonal).
    pub nnz_u: usize,
    /// Rows whose pivot [`BreakdownPolicy::Shift`] repaired; always 0
    /// under [`BreakdownPolicy::Abort`].
    pub breakdowns_repaired: usize,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names() {
        assert_eq!(IlutOptions::new(5, 1e-2).name(), "ILUT(5,1e-2)");
        assert_eq!(IlutOptions::star(20, 1e-6, 2).name(), "ILUT*(20,1e-6,2)");
    }

    #[test]
    fn reduced_caps() {
        assert_eq!(IlutOptions::new(5, 1e-2).reduced_cap(), usize::MAX);
        assert_eq!(IlutOptions::star(5, 1e-2, 2).reduced_cap(), 10);
    }
}
