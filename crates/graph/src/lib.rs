//! Graph substrate for the parallel ILUT factorization.
//!
//! The paper decomposes the matrix across processors with the authors'
//! multilevel k-way partitioner (METIS / ParMETIS [Karypis & Kumar,
//! SC'96]), which the Rust ecosystem does not provide; it is implemented
//! here from scratch, next to the greedy colouring the paper's ILU(0)
//! baseline schedules by. (The paper's other graph algorithm, the modified
//! Luby independent set of §4.1, lives where it runs: `pilut_core`'s
//! `parallel::dist_mis`, whose one-rank run is its serial form.)
//!
//! * [`Graph`] — undirected adjacency structure (CSR-style) with vertex and
//!   edge weights,
//! * [`partition`] — multilevel k-way partitioning: heavy-edge-matching
//!   coarsening, greedy-growing recursive bisection on the coarsest graph,
//!   boundary Kernighan–Lin/Fiduccia–Mattheyses-style refinement during
//!   uncoarsening,
//! * [`coloring`] — greedy colouring (the ILU(0) concurrency mechanism the
//!   paper contrasts against, Figure 1).

pub mod adj;
pub mod coloring;
pub mod partition;

pub use adj::Graph;
pub use partition::{partition_kway, PartitionOptions, PartitionResult};
