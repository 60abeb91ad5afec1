//! Restarted GMRES (Saad & Schultz 1986), serial and distributed.
//!
//! The paper evaluates its preconditioners inside GMRES(10)/GMRES(50)
//! (Table 3): right-preconditioned, modified Gram–Schmidt Arnoldi, Givens
//! rotations for the least-squares problem, restart after `restart` inner
//! steps, convergence when the residual norm drops by a fixed factor.
//!
//! That iteration exists **once**, in the crate-private `krylov` module,
//! written against a six-method `Space` (apply operator, apply
//! preconditioner, reduce a sum, reduce a flag, charge work, local length).
//! The two public entry points are its two spaces:
//!
//! * [`gmres()`] — serial, over [`pilut_core::precond::Preconditioner`]:
//!   reductions are the identity;
//! * [`dist_gmres()`] — on the `pilut-par` virtual machine, with distributed
//!   SpMV, all-reduce inner products and the parallel triangular solves as
//!   the preconditioner action.
//!
//! Sharing the kernel makes the serial solver the p = 1 distributed solver
//! bit for bit, and fixes one order of work charges and collectives for
//! every caller (DESIGN §2.6).
//!
//! Robustness layer: the kernel detects numerical breakdown (non-finite
//! Arnoldi values, stagnation across restarts) and reports it as a typed
//! [`Breakdown`] instead of looping on garbage. [`dist_solve_robust`] is
//! the one degradation ladder (caller's ILUT → boosted-shift
//! refactorization → Jacobi → unpreconditioned) and records every rung
//! tried in the returned [`DistSolveReport`]. Around it sits the lost-rank
//! rung: a kill mid-solve (under `MachineBuilder::recovery`) shrinks the
//! world, rebuilds plans and factors, warm-starts GMRES from a
//! per-restart-cycle checkpoint, and records the recovery in the report.

pub mod dist_gmres;
pub mod dist_robust;
pub mod gmres;
mod krylov;
pub mod report;

pub use dist_gmres::{
    dist_gmres, DistDiagonal, DistGmresResult, DistIdentity, DistIlu, DistPrecond,
};
pub use dist_robust::{dist_solve_robust, DistSolveReport, SolveError};
pub use gmres::{gmres, GmresOptions, GmresResult};
pub use report::{AttemptOutcome, AttemptRecord, Breakdown, RecoveryRecord};
