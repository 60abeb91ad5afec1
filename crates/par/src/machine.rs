//! The virtual machine: model constants, thread launch, and run statistics.

use crate::check::{
    collective_divergence, CheckState, LeakRecord, RankLost, RunFlags, SECONDARY_ABORT,
};
use crate::ctx::{Ctx, Envelope, RankExit, CTRL_TAG, DEFAULT_CHECK_POLL};
use crate::fault::{FaultPlan, FaultSession, FaultShared, InjectedFault, FAULT_KILL_PREFIX};
use crate::sched::{SchedHandle, SchedSession};
use std::panic::AssertUnwindSafe;
use std::sync::mpsc;
use std::sync::Arc;
use std::time::Duration;

/// Cost-model constants of the simulated machine.
///
/// Times are in seconds. The defaults in [`MachineModel::cray_t3d`] are
/// calibrated from the paper's own reported figures: the matrix–vector
/// product achieves ≈6.7 MFLOP/s per processor (§6), and the T3D's
/// message-passing layer had ≈30 µs latency and ≈50 MB/s achieved
/// point-to-point bandwidth for medium messages.
#[derive(Clone, Copy, Debug)]
pub struct MachineModel {
    /// Seconds per floating-point operation.
    pub flop_time: f64,
    /// Per-message latency (seconds) — the "alpha" term.
    pub latency: f64,
    /// Seconds per byte on the wire — the "beta" term.
    pub inv_bandwidth: f64,
    /// Seconds per 8-byte word for local data motion (building/copying
    /// reduced matrices; the paper calls this "time spent essentially
    /// copying data", §4.2).
    pub word_copy_time: f64,
}

impl MachineModel {
    /// The paper's testbed. The T3D's interconnect had unusually low
    /// latency for its era (a few µs for shmem puts, ~10 µs through the
    /// message-passing layer) and ~120 MB/s achieved link bandwidth.
    pub fn cray_t3d() -> Self {
        MachineModel {
            flop_time: 1.0 / 6.7e6,
            latency: 10e-6,
            inv_bandwidth: 1.0 / 120e6,
            word_copy_time: 1.0 / 25e6,
        }
    }

    /// A machine with free communication — useful to isolate load balance
    /// from communication overhead in ablation benches.
    pub fn zero_comm() -> Self {
        MachineModel {
            latency: 0.0,
            inv_bandwidth: 0.0,
            ..Self::cray_t3d()
        }
    }

    /// A slow-network machine ("workstation cluster" in the paper's
    /// conclusions: ILUT* matters most there).
    pub fn workstation_cluster() -> Self {
        MachineModel {
            flop_time: 1.0 / 6.7e6,
            latency: 500e-6,
            inv_bandwidth: 1.0 / 8e6,
            word_copy_time: 1.0 / 25e6,
        }
    }
}

/// Aggregated run statistics.
#[derive(Clone, Debug, Default)]
pub struct MachineStats {
    /// Total messages sent across all ranks.
    pub messages: u64,
    /// Total bytes sent across all ranks.
    pub bytes: u64,
    /// Total floating-point operations performed (modelled).
    pub flops: f64,
    /// Total words moved by `copy_words`.
    pub words_copied: f64,
    /// Collective operations entered (each rank's participation counted
    /// once per rank, divided by `p` on aggregation; aggregation asserts
    /// the ranks agree on the count).
    pub collectives: u64,
    /// Per-tag `(messages, bytes)` totals across all ranks. User tags keep
    /// their literal value; all collective traffic is folded under
    /// [`crate::Ctx::RESERVED_TAG_BASE`] (see [`crate::ctx::Counters::by_tag`]).
    pub by_tag: std::collections::BTreeMap<u64, (u64, u64)>,
    /// Per-tag `(messages, bytes, exact)` totals *predicted* by the static
    /// plan analysis before the traffic was sent (see
    /// [`crate::Ctx::note_planned`]). The flag is true only when every
    /// rank's predictions under the tag were byte-exact.
    pub planned_by_tag: std::collections::BTreeMap<u64, (u64, u64, bool)>,
    /// Per-rank final logical clocks.
    pub rank_times: Vec<f64>,
}

impl MachineStats {
    /// `(messages, bytes)` recorded under a specific user tag, `(0, 0)`
    /// when no message ever used it.
    pub fn tag_totals(&self, tag: u64) -> (u64, u64) {
        self.by_tag.get(&tag).copied().unwrap_or((0, 0))
    }
}

/// The result of a [`Machine::run`] call.
#[derive(Clone, Debug)]
pub struct RunOutput<R> {
    /// Per-rank return values, indexed by rank.
    pub results: Vec<R>,
    /// Simulated parallel time: the maximum logical clock over ranks.
    pub sim_time: f64,
    /// Aggregate counters.
    pub stats: MachineStats,
    /// Faults that actually fired during the run (empty without a
    /// [`FaultPlan`]). Only populated for runs that complete; destructive
    /// faults end in a diagnosis panic instead.
    pub injected_faults: Vec<InjectedFault>,
}

/// Configures a machine run beyond the two standard entry points: checked
/// mode, the commcheck watchdog poll interval, and fault injection.
///
/// ```
/// use pilut_par::{Machine, MachineModel, Payload};
/// let out = Machine::builder(MachineModel::cray_t3d())
///     .checked(true)
///     .run(2, |ctx| ctx.rank());
/// assert_eq!(out.results, vec![0, 1]);
/// ```
pub struct MachineBuilder {
    model: MachineModel,
    checked: bool,
    watchdog_poll: Duration,
    fault_plan: Option<FaultPlan>,
    sched: Option<SchedHandle>,
    flags: RunFlags,
}

impl MachineBuilder {
    /// Enables or disables the commcheck verification layer
    /// (see [`Machine::run_checked`]). Installing a fault plan enables it
    /// implicitly: injection without diagnosis would just be a hang.
    pub fn checked(mut self, on: bool) -> Self {
        self.checked = on;
        self
    }

    /// Sets how often a blocked rank wakes to run the deadlock watchdog.
    ///
    /// The poll interval is pure detection latency/overhead tuning; it can
    /// never cause a false positive, because the watchdog predicate looks
    /// only at the status board (a stalled-but-running rank shows
    /// `Running`, and injected *simulated* delays do not consume wall-clock
    /// time at all). Raise it for long soak runs, lower it for fast failure
    /// in CI. Runs that do not call this poll every 1 ms.
    pub fn watchdog_poll(mut self, poll: Duration) -> Self {
        assert!(!poll.is_zero(), "watchdog poll must be non-zero");
        self.watchdog_poll = poll;
        self
    }

    /// Installs a fault plan (see [`crate::fault`]); implies `checked`.
    pub fn fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = Some(plan);
        self
    }

    /// Installs a schedule-forcing/tracing handle (see [`crate::sched`]);
    /// implies `checked` — forcing and tracing both need the vector
    /// clocks that only checked mode stamps on envelopes.
    pub fn schedule(mut self, handle: SchedHandle) -> Self {
        self.sched = Some(handle);
        self
    }

    /// Enables per-link reliable delivery (see [`crate::rel`]): frames are
    /// sequenced, deduplicated, and retransmitted on demand, so injected
    /// `drop`/`duplicate`/`reorder` faults are absorbed transparently
    /// instead of stranding a receiver until the watchdog fires. Implies
    /// `checked`. The protocol's own traffic is counted under the `ack`
    /// stats tag with exact planned pricing.
    pub fn reliable(mut self, on: bool) -> Self {
        self.flags.reliable = on;
        self
    }

    /// Enables rank-loss recovery: an injected `Kill` raises a typed
    /// [`RankLost`] unwind on every survivor instead of a terminal
    /// deadlock diagnosis. A recovery driver (see
    /// `pilut_solver::dist_solve_robust`) catches it, calls
    /// [`Ctx::adopt_world`] / [`Ctx::recover_sync`], and resumes on the
    /// shrunk world. Implies `checked`.
    pub fn recovery(mut self, on: bool) -> Self {
        self.flags.recovery = on;
        self
    }

    /// Runs `f` on `p` ranks with this configuration.
    ///
    /// # Panics
    /// As [`Machine::run_checked`] when checked (or a fault plan is
    /// installed); as [`Machine::run`] otherwise.
    pub fn run<R, F>(self, p: usize, f: F) -> RunOutput<R>
    where
        R: Send,
        F: Fn(&mut Ctx) -> R + Sync,
    {
        assert!(p > 0, "need at least one rank");
        let checked = self.checked
            || self.fault_plan.is_some()
            || self.sched.is_some()
            || self.flags.reliable
            || self.flags.recovery;
        let check = checked.then(|| Arc::new(CheckState::new(p, self.flags)));
        let fault = self.fault_plan.map(|plan| Arc::new(FaultShared::new(plan)));
        Machine::run_impl(
            p,
            self.model,
            check,
            fault,
            self.sched,
            self.watchdog_poll,
            self.flags,
            f,
        )
    }
}

/// The SPMD launcher.
pub struct Machine;

impl Machine {
    /// Runs `f` on `p` ranks (one OS thread each) and gathers the results.
    ///
    /// The closure receives each rank's [`Ctx`]; ranks communicate only via
    /// the `Ctx`, so `f` must be `Sync` (it is shared) and the per-rank
    /// return values are collected in rank order.
    ///
    /// This is the zero-overhead production path: no verification state is
    /// shared and receives block indefinitely. Use [`Machine::run_checked`]
    /// in tests and protocol bring-up.
    ///
    /// # Panics
    /// Panics if `p == 0` or if any rank panics (the panic of the
    /// lowest-numbered panicking rank is propagated).
    pub fn run<R, F>(p: usize, model: MachineModel, f: F) -> RunOutput<R>
    where
        R: Send,
        F: Fn(&mut Ctx) -> R + Sync,
    {
        Self::run_impl(
            p,
            model,
            None,
            None,
            None,
            DEFAULT_CHECK_POLL,
            RunFlags::default(),
            f,
        )
    }

    /// Starts a configurable run: checked mode, watchdog poll interval,
    /// fault injection. See [`MachineBuilder`].
    pub fn builder(model: MachineModel) -> MachineBuilder {
        MachineBuilder {
            model,
            checked: false,
            watchdog_poll: DEFAULT_CHECK_POLL,
            fault_plan: None,
            sched: None,
            flags: RunFlags::default(),
        }
    }

    /// Runs `f` on `p` ranks under the commcheck verification layer
    /// (see [`crate::check`]).
    ///
    /// Functionally identical to [`Machine::run`] for correct programs, with
    /// three extra guarantees for incorrect ones:
    ///
    /// * a deadlocked run **aborts with a wait-for graph and the deadlock
    ///   cycle** instead of hanging forever;
    /// * any envelope left unconsumed at rank exit is reported as a
    ///   **message leak** `(from, to, tag, bytes)` and fails the run;
    /// * collectives called in different orders on different ranks are
    ///   caught (**collective-order check**) and reported with both ranks'
    ///   call sequences.
    ///
    /// All tests run through this entry point; production callers keep the
    /// unchecked path.
    ///
    /// # Panics
    /// Panics on any detected protocol error, with the commcheck report as
    /// the panic message; rank panics propagate as in [`Machine::run`].
    pub fn run_checked<R, F>(p: usize, model: MachineModel, f: F) -> RunOutput<R>
    where
        R: Send,
        F: Fn(&mut Ctx) -> R + Sync,
    {
        assert!(p > 0, "need at least one rank");
        Self::run_impl(
            p,
            model,
            Some(Arc::new(CheckState::new(p, RunFlags::default()))),
            None,
            None,
            DEFAULT_CHECK_POLL,
            RunFlags::default(),
            f,
        )
    }

    #[allow(clippy::too_many_arguments)]
    fn run_impl<R, F>(
        p: usize,
        model: MachineModel,
        check: Option<Arc<CheckState>>,
        fault: Option<Arc<FaultShared>>,
        sched: Option<SchedHandle>,
        poll: Duration,
        flags: RunFlags,
        f: F,
    ) -> RunOutput<R>
    where
        R: Send,
        F: Fn(&mut Ctx) -> R + Sync,
    {
        assert!(p > 0, "need at least one rank");
        // Scalar collectives (GMRES dot products) draw single-element
        // buffers from the pool every inner iteration; fill that class
        // before any rank starts so the steady state never misses.
        crate::pool::warm_scalars();
        let mut senders = Vec::with_capacity(p);
        let mut receivers = Vec::with_capacity(p);
        for _ in 0..p {
            let (s, r) = mpsc::channel::<Envelope>();
            senders.push(s);
            receivers.push(r);
        }
        let mut result_slots: Vec<Option<R>> = (0..p).map(|_| None).collect();
        let mut exit_slots: Vec<Option<RankExit>> = (0..p).map(|_| None).collect();
        let mut panic_slots: Vec<Option<Box<dyn std::any::Any + Send>>> =
            (0..p).map(|_| None).collect();
        std::thread::scope(|scope| {
            let zipped = receivers
                .into_iter()
                .zip(result_slots.iter_mut())
                .zip(exit_slots.iter_mut())
                .zip(panic_slots.iter_mut());
            for (rank, (((rx, rslot), eslot), pslot)) in zipped.enumerate() {
                let senders = senders.clone();
                let fref = &f;
                let check = check.clone();
                let session = fault
                    .as_ref()
                    .map(|shared| FaultSession::new(Arc::clone(shared), rank));
                let ssched = sched.as_ref().map(|h| SchedSession::new(h, rank));
                scope.spawn(move || {
                    // The rank's outermost audit region: every region the
                    // body enters publishes when this one drops, which is
                    // before the scope can see the rank as finished.
                    let _audit = pilut_allocaudit::region("rank");
                    let mut ctx = Ctx::new(
                        rank, p, model, senders, rx, check, poll, session, ssched, flags,
                    );
                    match std::panic::catch_unwind(AssertUnwindSafe(|| fref(&mut ctx))) {
                        Ok(r) => {
                            *rslot = Some(r);
                            *eslot = Some(ctx.into_exit(false));
                        }
                        Err(payload) => {
                            // Publish the panic on the board (and drain the
                            // channel) so blocked peers can diagnose the
                            // run instead of waiting forever.
                            *eslot = Some(ctx.into_exit(true));
                            *pslot = Some(payload);
                        }
                    }
                });
            }
            // The scope joins every rank before returning, so all slots are
            // filled — no join-order dependence survives this point.
        });
        if let Some(check) = &check {
            let fired = fault.as_ref().map(|s| s.snapshot()).unwrap_or_default();
            Self::verdict(check, &mut panic_slots, &exit_slots, &fired);
        }
        // Deterministic propagation: the lowest-numbered panicking rank
        // wins, regardless of the order the threads actually died in.
        if let Some(payload) = panic_slots.iter_mut().find_map(Option::take) {
            std::panic::resume_unwind(payload);
        }
        let mut results = Vec::with_capacity(p);
        let mut stats = MachineStats::default();
        let mut per_rank_collectives = Vec::with_capacity(p);
        for (rank, (rslot, eslot)) in result_slots.into_iter().zip(exit_slots).enumerate() {
            let Some(r) = rslot else {
                // Only reachable when a panic slot was suppressed without a
                // result: under recovery the driver must catch the injected
                // kill on the victim itself and return a tombstone result.
                panic!(
                    "rank {rank} finished without a result — under MachineBuilder::recovery \
                     the workload driver must catch the kill panic on the victim (check \
                     Ctx::killed()) and return a tombstone value instead of re-raising"
                )
            };
            // lint: allow(unwrap): the thread scope joined every rank
            let exit = eslot.expect("rank exit not recorded");
            results.push(r);
            stats.messages += exit.counters.messages;
            stats.bytes += exit.counters.bytes;
            stats.flops += exit.counters.flops;
            stats.words_copied += exit.counters.words_copied;
            for (&tag, &(m, b)) in &exit.counters.by_tag {
                let slot = stats.by_tag.entry(tag).or_insert((0, 0));
                slot.0 += m;
                slot.1 += b;
            }
            for (&tag, &(m, b, exact)) in &exit.counters.planned_by_tag {
                let slot = stats.planned_by_tag.entry(tag).or_insert((0, 0, true));
                slot.0 += m;
                slot.1 += b;
                slot.2 &= exact;
            }
            per_rank_collectives.push(exit.counters.collectives);
            stats.rank_times.push(exit.time);
        }
        let ranks_lost = check
            .as_ref()
            .is_some_and(|c| flags.recovery && c.killed_count() > 0);
        if ranks_lost {
            // After a recovered rank loss the counts legitimately differ:
            // the victim stopped early and the survivors re-ran work on the
            // shrunk world. Report the survivors' count.
            stats.collectives = per_rank_collectives.iter().copied().max().unwrap_or(0);
        } else {
            let total_collectives: u64 = per_rank_collectives.iter().sum();
            assert!(
                total_collectives % p as u64 == 0,
                "ranks disagree on collective participation (per-rank counts: \
                 {per_rank_collectives:?}) — rerun under Machine::run_checked for a diagnosis"
            );
            stats.collectives = total_collectives / p as u64;
        }
        let sim_time = stats.rank_times.iter().copied().fold(0.0, f64::max);
        RunOutput {
            results,
            sim_time,
            stats,
            injected_faults: fault.map(|s| s.take_log()).unwrap_or_default(),
        }
    }

    /// Post-join commcheck verdict: sweep the channels for leaks, surface
    /// the primary diagnosis, and suppress secondary aborts.
    fn verdict(
        check: &Arc<CheckState>,
        panic_slots: &mut [Option<Box<dyn std::any::Any + Send>>],
        exit_slots: &[Option<RankExit>],
        fired: &[crate::fault::InjectedFault],
    ) {
        let flags = check.flags();
        let killed = check.killed_ranks();
        // Late leak sweep: envelopes that arrived after a rank's own exit
        // drain are still sitting in its (kept-alive) channel.
        let mut leaks: Vec<LeakRecord> = check.take_leaks();
        for (to, exit) in exit_slots.iter().enumerate() {
            let Some(exit) = exit else { continue };
            while let Ok(env) = exit.receiver.try_recv() {
                // Reliability control frames are bookkeeping, not data.
                if env.tag == CTRL_TAG {
                    continue;
                }
                // A frame from a world older than the receiver's exit
                // epoch was deliberately discarded, not lost.
                if env.epoch < exit.epoch {
                    continue;
                }
                // A retransmission of something already delivered (seq
                // below the receiver's expectation at exit) was absorbed.
                if let (Some(expected), Some(seq)) = (exit.rel_expected.as_ref(), env.seq) {
                    if seq < expected[env.from] {
                        continue;
                    }
                }
                leaks.push(LeakRecord {
                    from: env.from,
                    to,
                    tag: env.tag,
                    bytes: env.payload.bytes(),
                    injected: false,
                });
            }
        }
        // Envelopes the fault injector discarded join the leak sweep: a
        // run that completed despite a drop still lost a message. Under
        // reliable delivery the drop was absorbed by a retransmission, so
        // it is no longer a loss.
        let injected_drops = check.take_injected_drops();
        if !flags.reliable {
            leaks.extend(injected_drops);
        }
        // Under recovery, traffic stranded at (or buffered by) a killed
        // rank is the expected wreckage of the loss, not a protocol error.
        if flags.recovery {
            leaks.retain(|l| !killed.contains(&l.to));
        }
        let failure = check.take_failure();
        // Drop secondary aborts and the primary's own unwind payload: the
        // stored report carries the diagnosis. User panics stay.
        let is_commcheck_panic = |payload: &Box<dyn std::any::Any + Send>| {
            let msg = payload
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| payload.downcast_ref::<&'static str>().copied());
            msg.is_some_and(|m| m.starts_with(SECONDARY_ABORT) || m.starts_with("commcheck:"))
        };
        for slot in panic_slots.iter_mut() {
            if slot.as_ref().is_some_and(is_commcheck_panic) {
                *slot = None;
            }
        }
        if failure.is_some() {
            // An injected kill is the *cause* of the stored diagnosis (the
            // survivors deadlocked on the dead rank); the report, which
            // names the killed rank, is the better message. Without a
            // stored failure the kill panic itself propagates below. The
            // board's status — not the panic-message prefix — identifies
            // the kill: the prefix check is only a fallback for payloads
            // that never reached the board.
            for (r, slot) in panic_slots.iter_mut().enumerate() {
                if killed.contains(&r) {
                    *slot = None;
                    continue;
                }
                let is_fault_kill = slot.as_ref().is_some_and(|payload| {
                    payload
                        .downcast_ref::<String>()
                        .is_some_and(|m| m.starts_with(FAULT_KILL_PREFIX))
                });
                if is_fault_kill {
                    *slot = None;
                }
            }
        }
        // A RankLost unwind that nothing caught means recovery was enabled
        // but no recovery driver was wrapped around the workload; turn the
        // typed payload into an actionable message.
        for (r, slot) in panic_slots.iter_mut().enumerate() {
            let Some(payload) = slot.as_ref() else {
                continue;
            };
            if let Some(lost) = payload.downcast_ref::<RankLost>() {
                *slot = Some(Box::new(format!(
                    "rank {r} observed the loss of rank(s) {:?} (epoch {}) but no recovery \
                     driver caught the RankLost unwind — wrap the workload in a driver that \
                     calls Ctx::adopt_world / Ctx::recover_sync and re-plans",
                    lost.dead, lost.epoch
                )));
            }
        }
        let user_panicked = panic_slots.iter().any(Option::is_some);
        if user_panicked {
            // A genuine rank panic outranks the derived diagnosis (the
            // deadlock/abort was collateral damage of the panic). But when
            // the injector was active the panic may itself be the
            // downstream echo of a consumed fault — a duplicated envelope
            // read as fresh data, say — so annotate the payload with the
            // firing log to keep the root cause attributable.
            if !fired.is_empty() {
                for slot in panic_slots.iter_mut() {
                    let Some(payload) = slot.take() else { continue };
                    let msg = payload.downcast_ref::<String>().cloned().or_else(|| {
                        payload
                            .downcast_ref::<&'static str>()
                            .map(|s| s.to_string())
                    });
                    *slot = Some(match msg {
                        Some(m) => {
                            use std::fmt::Write;
                            let mut out = format!(
                                "{m}\nnote: fault injection fired {} fault(s) this run:\n",
                                fired.len()
                            );
                            for f in fired {
                                let _ = writeln!(
                                    out,
                                    "  rank {} op {}: {} {}",
                                    f.rank, f.op, f.kind, f.detail
                                );
                            }
                            Box::new(out)
                        }
                        None => payload,
                    });
                }
            }
            return;
        }
        if let Some(report) = failure {
            panic!("{report}");
        }
        if !leaks.is_empty() {
            let mut msg = String::from("commcheck: message leak — envelopes never received:\n");
            for l in &leaks {
                use std::fmt::Write;
                let note = if l.injected { " [injected drop]" } else { "" };
                let _ = writeln!(
                    msg,
                    "  from rank {} to rank {} tag {:#x} ({} bytes){note}",
                    l.from, l.to, l.tag, l.bytes
                );
            }
            panic!("{msg}");
        }
        // Backstop: collective sequences must agree even when traffic
        // happened to pair up (e.g. trailing collectives that never
        // exchanged a message at p == 1 cannot occur, but truncated
        // sequences at matching kinds can). Not applicable after a
        // recovered rank loss: the victim's log stops mid-sequence and
        // each survivor re-logs the collectives it aborted and re-ran, so
        // the logs legitimately differ per rank (epoch-tagged wire tags
        // already enforce agreement within each epoch).
        if !(flags.recovery && !killed.is_empty()) {
            if let Some(divergence) = collective_divergence(&check.coll_logs()) {
                panic!("commcheck: {divergence}");
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::payload::Payload;

    #[test]
    fn ranks_get_distinct_ids_and_results_in_order() {
        let out = Machine::run_checked(4, MachineModel::cray_t3d(), |ctx| ctx.rank() * 10);
        assert_eq!(out.results, vec![0, 10, 20, 30]);
    }

    #[test]
    fn work_advances_the_clock() {
        let model = MachineModel::cray_t3d();
        let out = Machine::run_checked(2, model, |ctx| {
            if ctx.rank() == 0 {
                ctx.work(6.7e6); // one simulated second of flops
            }
        });
        assert!(
            (out.sim_time - 1.0).abs() < 1e-9,
            "sim_time = {}",
            out.sim_time
        );
        assert_eq!(out.stats.flops, 6.7e6);
    }

    #[test]
    fn message_time_includes_latency_and_bandwidth() {
        let model = MachineModel {
            flop_time: 0.0,
            latency: 1.0,
            inv_bandwidth: 0.5,
            word_copy_time: 0.0,
        };
        let out = Machine::run_checked(2, model, |ctx| {
            if ctx.rank() == 0 {
                ctx.send(1, 7, Payload::f64s(vec![0.0; 2])); // 16 bytes
                0.0
            } else {
                ctx.recv(0, 7);
                ctx.time()
            }
        });
        // 1.0 latency + 16 * 0.5 bandwidth = 9.0
        assert!(
            (out.results[1] - 9.0).abs() < 1e-12,
            "got {}",
            out.results[1]
        );
        assert_eq!(out.stats.messages, 1);
        assert_eq!(out.stats.bytes, 16);
    }

    #[test]
    fn sim_time_is_deterministic() {
        let run = || {
            Machine::run_checked(8, MachineModel::cray_t3d(), |ctx| {
                ctx.work(1000.0 * (ctx.rank() + 1) as f64);
                ctx.barrier();
                ctx.work(500.0);
                ctx.time()
            })
        };
        let a = run();
        let b = run();
        assert_eq!(a.stats.rank_times, b.stats.rank_times);
        assert_eq!(a.sim_time, b.sim_time);
    }

    #[test]
    fn builder_checked_run_matches_run_checked() {
        let out = Machine::builder(MachineModel::cray_t3d())
            .checked(true)
            .watchdog_poll(Duration::from_millis(2))
            .run(3, |ctx| {
                if ctx.rank() == 0 {
                    ctx.send(1, 4, Payload::u64s(vec![9]));
                    0
                } else if ctx.rank() == 1 {
                    ctx.recv(0, 4).into_u64()[0]
                } else {
                    0
                }
            });
        assert_eq!(out.results, vec![0, 9, 0]);
        assert!(out.injected_faults.is_empty());
    }

    #[test]
    #[should_panic(expected = "at least one rank")]
    fn zero_ranks_rejected() {
        Machine::run(0, MachineModel::cray_t3d(), |_| ());
    }

    #[test]
    #[should_panic(expected = "at least one rank")]
    fn zero_ranks_rejected_checked() {
        Machine::run_checked(0, MachineModel::cray_t3d(), |_| ());
    }
}
