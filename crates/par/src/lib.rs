//! An SPMD message-passing virtual machine with a logical-clock cost model.
//!
//! **What the paper used →** a 128-processor Cray T3D (150 MHz Alpha EV4
//! processors on a 3-D torus) programmed in a message-passing style.
//! **What this crate provides →** the closest synthetic equivalent that
//! exercises the same code paths: [`Machine::run`] launches `p` OS threads,
//! one per *rank*, each holding a [`Ctx`] with point-to-point `send`/`recv`
//! and the collectives the algorithms need (`barrier`, `all_reduce_sum`,
//! `all_reduce_u64`, `all_gather_u64`, `exchange`).
//!
//! Every rank carries a **logical clock**. Compute advances it through
//! [`Ctx::work`] (a flop-cost model) and [`Ctx::copy_words`] (a data-motion
//! model); receiving a message advances it to
//! `max(own, sender_stamp + latency + bytes · inv_bandwidth)`; collectives
//! synchronise clocks along binomial trees, charging one latency per hop.
//! The *simulated time* of a run — [`RunOutput::sim_time`] — is the maximum
//! clock over ranks, and is fully deterministic for a deterministic program,
//! no matter how the host schedules the threads or how many cores it has.
//! This is what lets a laptop reproduce the *shape* of 16–128 processor
//! T3D measurements (speedups, crossovers, algorithm ratios), which depend
//! only on per-rank operation counts, message counts/volumes, and
//! synchronisation depth — exactly the three quantities the model tracks.
//! Real wall-clock time can of course also be measured around `Machine::run`
//! for small `p`; the `benchmark/` package does that.
//!
//! # Checked mode (`commcheck`)
//!
//! [`Machine::run_checked`] runs the same program under the verification
//! layer in [`check`]: deadlocks abort with a wait-for graph instead of
//! hanging, leaked messages fail the run with `(from, to, tag, bytes)`
//! records, and collectives called in different orders on different ranks
//! are caught at the first mismatched envelope. All in-repo tests use the
//! checked entry point; [`Machine::run`] stays the zero-overhead
//! production path.

//!
//! # Fault injection
//!
//! [`Machine::builder`] can install a seeded [`fault::FaultPlan`] that
//! delays, reorders, duplicates, or drops messages and stalls or kills
//! ranks at their communication ops — with commcheck asserting the right
//! diagnosis for each (see [`fault`]).
//!
//! # Reliable delivery and rank-loss recovery
//!
//! Two opt-in robustness layers ride on the same machinery:
//!
//! * [`MachineBuilder::reliable`] puts every link on a sequence/ack/retry
//!   protocol (see [`rel`]): injected drops, duplicates, and reorders are
//!   absorbed transparently — the program sees exactly the fault-free
//!   delivery order and produces bitwise-identical results.
//! * [`MachineBuilder::recovery`] arms rank-loss detection: when a rank is
//!   killed, survivors observe a [`RankLost`] unwind instead of a watchdog
//!   abort, and a recovery driver (e.g. `pilut_solver::dist_solve_robust`)
//!   calls [`Ctx::adopt_world`] / [`Ctx::recover_sync`] to agree on the
//!   shrunk world and resume; collectives re-root themselves over the
//!   surviving ranks automatically.

#![deny(missing_docs)]
// The VM implements the threads, channels and raw messages that clippy.toml
// confines to it, and its checkers key maps by rank and tag.
#![allow(
    clippy::disallowed_types,
    clippy::disallowed_methods,
    reason = "pilut-par implements threads, channels and raw messages"
)]

pub mod check;
pub mod collectives;
pub mod ctx;
pub mod fault;
pub(crate) mod hb;
pub mod machine;
pub mod payload;
pub mod pool;
pub mod rel;
pub mod sched;

pub use check::{CollKind, LeakRecord, RankLost, RankStatus, RunFlags};
pub use ctx::Ctx;
pub use fault::{FaultAction, FaultPlan, FaultRule, InjectedFault, FAULT_KILL_PREFIX};
pub use machine::{Machine, MachineBuilder, MachineModel, MachineStats, RunOutput};
pub use payload::Payload;
pub use rel::{ACK_EVERY, ACK_TAG, RECOVER_TAG};
pub use sched::{MatchKind, SchedHandle, SchedulePlan, TraceEvent};
