//! An SPMD message-passing virtual machine with a logical-clock cost model.
//!
//! **What the paper used →** a 128-processor Cray T3D (150 MHz Alpha EV4
//! processors on a 3-D torus) programmed in a message-passing style.
//! **What this crate provides →** the closest synthetic equivalent that
//! exercises the same code paths: [`Machine::run`] launches `p` OS threads,
//! one per *rank*, each holding a [`Ctx`] with point-to-point `send`/`recv`
//! and the collectives the algorithms need (`barrier`, `all_reduce_sum`,
//! `all_reduce_u64`, `exchange`).
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
//! are caught at the first mismatched envelope. Checked mode only
//! observes: it sends nothing and charges nothing the production run does
//! not, so both modes report the same clock and counters bit for bit; its
//! cross-rank self-checks read each other's data through the board
//! ([`Ctx::board_gather`]), not the wire. All in-repo tests use the checked
//! entry point; [`Machine::run`] stays the zero-overhead production path.
//!
//! # Fault injection
//!
//! [`Machine::builder`] can install a seeded [`fault::FaultPlan`] that
//! delays, reorders, duplicates, or drops messages and stalls or kills
//! ranks at their communication ops — with commcheck asserting the right
//! diagnosis for each (see [`fault`]). The machine models the T3D's
//! message layer, which neither loses messages nor loses ranks: a drop,
//! duplicate or kill is a fault to be named, never one to be absorbed.

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
pub mod sched;

pub use check::{CollKind, LeakRecord, RankStatus};
pub use ctx::Ctx;
pub use fault::{FaultAction, FaultPlan, FaultRule, InjectedFault, FAULT_KILL_PREFIX};
pub use machine::{Machine, MachineBuilder, MachineModel, MachineStats, RunOutput};
pub use payload::Payload;
pub use sched::{MatchKind, SchedHandle, SchedulePlan, TraceEvent};
