//! Time-to-solution benchmark of the paper's pipeline (partition → parallel
//! ILUT/ILUT\* → parallel triangular solves → GMRES(50)) on five G40/TORSO
//! workloads, driven through the public `pilut` facade only.
//!
//! `run` is the untraced run that yields the end-to-end metrics (simulated
//! times, counts, memory); `layers` is the traced run that yields the
//! per-layer metrics, the wall times among them, and a Chrome trace. See
//! `README.md` for the workloads, the metrics and how they interact.

pub mod inputs;
pub mod layers;
pub mod pipeline;
pub mod report;
pub mod run;
pub mod spec;
pub mod stats;
pub mod trace;
