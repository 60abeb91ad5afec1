//! Serial incomplete factorizations.

pub mod drop_rules;
pub mod ilu0;
pub mod ilut;
pub(crate) mod kernel;

pub use ilu0::ilu0;
pub use ilut::ilut;
pub use ilut::ilut_with_stats;

// Re-export the option type where users expect it.
pub use crate::options::IlutOptions;
