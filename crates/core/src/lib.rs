//! Serial and parallel threshold-based incomplete LU factorizations.
//!
//! This is the paper's primary contribution, implemented in layers:
//!
//! * [`serial`] — the classic row-wise algorithms: **ILUT(m, t)** (paper
//!   Algorithm 2.1, after Saad) — the one scalar row kernel, which the
//!   parallel formulation's interior phase runs too, so serial ILUT is its
//!   one-rank case — and the static-pattern baselines **ILU(0)** and
//!   **ILU(k)**; and [`serial::block_ilut()`], the same elimination at
//!   dense-tile granularity for multi-dof matrices, whose result is
//!   refined into the same scalar store;
//! * [`factors`] — the one scalar factor store (two CSR arenas for strict
//!   `L` and strict `U` plus a pivot vector, over a slot space) with its
//!   row sweeps: [`factors::LuFactors`] is the store with slot = row,
//!   [`parallel::RankFactors`] the same store over a rank's local slots;
//! * [`precond`] — the preconditioner interface consumed by the solver
//!   crate, with ILU and diagonal implementations;
//! * [`dist`] — the distributed matrix: a partition-driven row distribution
//!   with interior/interface node classification and a distributed SpMV;
//! * [`parallel`] — the paper's parallel **ILUT** / **ILUT\*** formulation
//!   (§4): local interior factorization, reduced interface matrices, and the
//!   iterative independent-set elimination, running on the [`pilut_par`]
//!   virtual machine;
//! * [`trisolve`] — the parallel forward/backward substitutions (§5) that
//!   make the factorization usable as a preconditioner;
//! * [`options`] — shared parameter types (`m`, `t`, the ILUT\* cap `k`),
//!   the [`options::BreakdownPolicy`] selecting what an unusable pivot does,
//!   and the typed [`options::FactorError`];
//! * [`breakdown`] — the [`breakdown::PivotDoctor`] that applies one
//!   breakdown policy identically across every kernel.

pub mod breakdown;
pub mod dist;
pub mod factors;
pub mod options;
pub mod parallel;
pub mod precond;
pub mod serial;
pub mod trisolve;

pub use breakdown::PivotDoctor;
pub use factors::LuFactors;
pub use options::{BreakdownPolicy, FactorError, IlutOptions};
pub use serial::{block_ilut, ilu0, iluk, ilut};

/// `n` as a 32-bit index, or a panic naming `what` overflowed: the one
/// narrowing behind every `u32` slot and row-pointer array in the crate.
pub(crate) fn to_u32(n: usize, what: &str) -> u32 {
    u32::try_from(n).unwrap_or_else(|_| panic!("{what} {n} does not fit in u32"))
}

#[cfg(test)]
mod tests {
    use super::to_u32;

    #[test]
    fn to_u32_keeps_the_largest_u32() {
        assert_eq!(to_u32(u32::MAX as usize, "factor slot"), u32::MAX);
        assert_eq!(to_u32(0, "factor slot"), 0);
    }

    #[test]
    #[should_panic(expected = "factor slot 4294967296 does not fit in u32")]
    fn to_u32_names_what_overflowed() {
        to_u32(u32::MAX as usize + 1, "factor slot");
    }
}
