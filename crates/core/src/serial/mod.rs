//! Serial incomplete factorizations.

pub mod block_ilut;
pub mod drop_rules;
pub mod ilu0;
pub mod iluk;
pub mod ilut;
pub(crate) mod kernel;

pub use block_ilut::{block_ilut, block_ilut_with_stats};
pub use ilu0::{ilu0, ilu0_with};
pub use iluk::{iluk, iluk_with};
pub use ilut::ilut;
pub use ilut::ilut_with_stats;

// Re-export the option type where users expect it.
pub use crate::options::IlutOptions;
