//! Graph substrate for the parallel ILUT factorization.
//!
//! The paper relies on two graph algorithms the Rust ecosystem does not
//! provide: the authors' multilevel k-way partitioner (METIS / ParMETIS
//! [Karypis & Kumar, SC'96]) used to decompose the matrix across processors,
//! and Luby's randomised maximal-independent-set algorithm used to extract
//! concurrency from the interface reduced matrices. Both are implemented
//! here from scratch:
//!
//! * [`Graph`] — undirected adjacency structure (CSR-style) with vertex and
//!   edge weights,
//! * [`partition`] — multilevel k-way partitioning: heavy-edge-matching
//!   coarsening, greedy-growing recursive bisection on the coarsest graph,
//!   boundary Kernighan–Lin/Fiduccia–Mattheyses-style refinement during
//!   uncoarsening,
//! * [`mis`] — Luby's maximal independent set with the paper's two
//!   modifications: the two-step insert/confirm round that stays correct on
//!   *structurally unsymmetric* dependency graphs (paper §4.1), and a cap on
//!   the number of augmentation rounds (the paper uses 5),
//! * [`coloring`] — greedy colouring (the ILU(0) concurrency mechanism the
//!   paper contrasts against, Figure 1).

pub mod adj;
pub mod coloring;
pub mod mis;
pub mod partition;
pub mod rcm;

pub use adj::Graph;
pub use mis::{luby_mis, MisOptions};
pub use partition::{partition_kway, PartitionOptions, PartitionResult};
pub use rcm::reverse_cuthill_mckee;
