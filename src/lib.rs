//! # pilut — Parallel Threshold-based ILU Factorization
//!
//! A from-scratch Rust reproduction of *"Parallel Threshold-based ILU
//! Factorization"* (George Karypis and Vipin Kumar, Supercomputing 1997):
//! the dual-threshold incomplete factorization **ILUT(m, t)**, the paper's
//! bounded-fill variant **ILUT\*(m, t, k)**, their distributed-memory
//! parallel formulations built on multilevel k-way graph partitioning and
//! Luby-style maximal independent sets, the matching parallel triangular
//! solves, and a restarted GMRES solver that consumes them as
//! preconditioners.
//!
//! This facade crate re-exports the workspace layers:
//!
//! * [`sparse`] — CSR/COO matrices, the ILUT working row, generators, I/O;
//! * [`graph`] — multilevel k-way partitioning (the Luby
//!   MIS runs distributed, in `core::parallel::dist_mis`);
//! * [`par`] — the SPMD message-passing virtual machine with a Cray-T3D
//!   logical-clock cost model (the paper's testbed, simulated);
//! * [`core`] — serial and parallel ILUT / ILUT\* / ILU(0) and the
//!   parallel forward/backward substitutions;
//! * [`solver`] — GMRES(restart), serial and distributed.
//!
//! ## Quickstart
//!
//! ```
//! use pilut::sparse::gen;
//! use pilut::core::serial::{ilut, IlutOptions};
//! use pilut::solver::gmres::{gmres, GmresOptions};
//! use pilut::core::precond::IluPreconditioner;
//!
//! // A small convection–diffusion problem.
//! let a = gen::convection_diffusion_2d(20, 20, 10.0, 20.0);
//! let b = a.spmv_owned(&vec![1.0; a.n_rows()]);
//!
//! // Factor with ILUT(m = 10, t = 1e-4) and solve with GMRES(10).
//! let factors = ilut(&a, &IlutOptions::new(10, 1e-4)).unwrap();
//! let precond = IluPreconditioner::new(factors);
//! let out = gmres(&a, &b, &precond, &GmresOptions { restart: 10, ..Default::default() });
//! assert!(out.converged);
//! ```

pub use pilut_core as core;
pub use pilut_graph as graph;
pub use pilut_par as par;
pub use pilut_solver as solver;
pub use pilut_sparse as sparse;

/// Everything a typical application needs, in one import:
/// `use pilut::prelude::*;`
pub mod prelude {
    pub use pilut_core::dist::exchange::CommPlan;
    pub use pilut_core::dist::op::{DistCsr, DistOperator};
    pub use pilut_core::dist::{DistMatrix, Distribution, LocalView};
    pub use pilut_core::options::{FactorError, IlutOptions};
    pub use pilut_core::parallel::{par_ilu0, par_ilut, RankFactors};
    pub use pilut_core::precond::{
        DiagonalPreconditioner, IdentityPreconditioner, IluPreconditioner, Preconditioner,
    };
    pub use pilut_core::serial::{ilu0, ilut};
    pub use pilut_core::LuFactors;
    pub use pilut_graph::{partition_kway, Graph, PartitionOptions};
    pub use pilut_par::{Ctx, Machine, MachineModel, Payload};
    pub use pilut_solver::dist_gmres::{dist_gmres, DistDiagonal, DistIlu, DistPrecond};
    pub use pilut_solver::gmres::{gmres, GmresOptions};
    pub use pilut_sparse::{gen, io, CooMatrix, CsrMatrix, MatrixStats};
}
