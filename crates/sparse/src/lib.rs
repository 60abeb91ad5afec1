//! Sparse-matrix substrate for the `pilut` workspace.
//!
//! The SC'97 paper builds on SPARSKIT-style compressed sparse row kernels;
//! this crate provides that substrate from scratch:
//!
//! * [`CsrMatrix`] — compressed sparse row storage with the kernels the
//!   factorization and solver layers need (SpMV, transpose, row norms,
//!   pattern queries),
//! * [`CooMatrix`] — a coordinate-format builder,
//! * [`WorkRow`] — the full-length working row with a companion nonzero
//!   pointer list used by the ILUT elimination loop (paper §2.1),
//! * [`gen`] — synthetic problem generators standing in for the paper's
//!   G40 and TORSO matrices (see DESIGN.md §4),
//! * [`io`] — Matrix Market coordinate-format reader/writer,
//! * [`rng`] — a seeded SplitMix64 generator so the workspace carries no
//!   external `rand` dependency and builds fully offline.

pub mod coo;
pub mod csr;
pub mod gen;
pub mod io;
pub mod rng;
pub mod stats;
pub mod vec_ops;
pub mod workrow;

pub use coo::CooMatrix;
pub use csr::{CsrLayoutError, CsrMatrix};
pub use rng::SplitMix64;
pub use stats::MatrixStats;
pub use workrow::WorkRow;
