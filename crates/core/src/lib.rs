//! Serial and parallel threshold-based incomplete LU factorizations.
//!
//! This is the paper's primary contribution, implemented in layers:
//!
//! * [`serial`] — the classic row-wise algorithms: **ILUT(m, t)** (paper
//!   Algorithm 2.1, after Saad) — the one scalar row kernel, which the
//!   parallel formulation's interior phase runs too, so serial ILUT is its
//!   one-rank case — and the static-pattern baselines **ILU(0)** and
//!   **ILU(k)**; and [`serial::block_ilut`], the same elimination at
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
