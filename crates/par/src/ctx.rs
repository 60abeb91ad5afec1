//! Per-rank execution context: point-to-point messaging and the logical
//! clock.

use crate::check::{CheckState, CollKind, LeakRecord, RankStatus};
use crate::fault::{FaultSession, MessageFate, RankFate, FAULT_KILL_PREFIX};
use crate::hb::{HbState, RecvMode};
use crate::machine::MachineModel;
use crate::payload::Payload;
use crate::pool::Pool;
use crate::sched::{match_kind, SchedSession, TraceEvent};
use std::collections::{BTreeMap, VecDeque};
use std::sync::mpsc::{Receiver, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::time::Duration;

/// Watchdog poll: how often a blocked rank in checked mode wakes to run the
/// watchdog predicate. It sets only how fast a deadlock is detected; it can
/// never cause a false positive, because the predicate looks only at the
/// status board (a stalled-but-running rank shows `Running`, and injected
/// *simulated* delays do not consume wall-clock time at all).
const CHECK_POLL: Duration = Duration::from_millis(1);

/// One message in flight.
#[derive(Clone, Debug)]
pub struct Envelope {
    /// Sending rank.
    pub from: usize,
    /// Destination rank.
    pub to: usize,
    /// Message tag (reserved range carries collectives).
    pub tag: u64,
    /// Sender's logical clock at send time.
    pub time: f64,
    /// Collective op piggybacked on reserved-tag traffic (order checking).
    pub coll_kind: Option<CollKind>,
    /// Sender's vector clock at send time — the happens-before stamp the
    /// match-order race detector compares (see `pilut_par::hb`). `None` on
    /// the zero-overhead production path.
    pub vclock: Option<Vec<u64>>,
    /// The data.
    pub payload: Payload,
}

/// Per-rank cost counters, aggregated by the machine after the run.
#[derive(Clone, Debug, Default)]
pub struct Counters {
    /// Messages sent.
    pub messages: u64,
    /// Bytes sent (simulated wire size).
    pub bytes: u64,
    /// Floating-point operations charged via [`Ctx::work`].
    pub flops: f64,
    /// Words moved via [`Ctx::copy_words`].
    pub words_copied: f64,
    /// Collective operations entered.
    pub collectives: u64,
    /// Per-tag `(messages, bytes)` breakdown of everything counted in
    /// `messages`/`bytes`. User tags are keyed by their literal value; all
    /// collective traffic (whose tags embed a per-call sequence number) is
    /// folded under a single key, and [`Ctx::is_reserved`] tells it apart.
    pub by_tag: BTreeMap<u64, (u64, u64)>,
    /// Per-tag `(messages, bytes, exact)` *predicted* by the static plan
    /// analysis ([`Ctx::note_planned`]) before the traffic was sent. The
    /// flag records whether every prediction under the tag was byte-exact;
    /// inexact tags (producer-defined payloads) predict message counts
    /// only. The bench harness gates measured counters against this.
    pub planned_by_tag: BTreeMap<u64, (u64, u64, bool)>,
}

impl Counters {
    /// Counts one `bytes`-sized message sent on `tag`: the aggregate
    /// `messages`/`bytes` fields and the per-tag breakdown.
    fn note_message(&mut self, tag: u64, bytes: u64) {
        self.messages += 1;
        self.bytes += bytes;
        let key = if Ctx::is_reserved(tag) {
            Ctx::RESERVED_TAG_BASE
        } else {
            tag
        };
        let slot = self.by_tag.entry(key).or_insert((0, 0));
        slot.0 += 1;
        slot.1 += bytes;
    }
}

/// What a rank hands back to the machine when it finishes: its counters,
/// plus everything needed for the commcheck leak sweep.
pub(crate) struct RankExit {
    pub counters: Counters,
    pub time: f64,
    /// The rank's channel, kept alive so the machine can sweep late
    /// arrivals after every rank has finished. Buffered-but-unmatched
    /// envelopes were already reported to the board by `into_exit`.
    pub receiver: Receiver<Envelope>,
}

/// A rank's handle onto the virtual machine.
///
/// All communication is matched by `(from, tag)`. Tags for which
/// [`Ctx::is_reserved`] does not hold are free for user protocols; the
/// collectives use the reserved ones, namespaced by an internal sequence
/// number, so user traffic can never be confused with collective traffic as
/// long as every rank calls the collectives in the same program order (the
/// usual SPMD contract). [`crate::Machine::run_checked`] verifies that
/// contract.
pub struct Ctx {
    rank: usize,
    nprocs: usize,
    model: MachineModel,
    senders: Vec<Sender<Envelope>>,
    receiver: Receiver<Envelope>,
    /// Received-but-unmatched messages.
    pending: VecDeque<Envelope>,
    time: f64,
    pub(crate) counters: Counters,
    /// Collective sequence number (same on every rank by SPMD order).
    pub(crate) coll_seq: u64,
    /// The collective currently executing on this rank, if any.
    pub(crate) current_coll: Option<CollKind>,
    /// Commcheck board; `None` on the zero-overhead production path.
    check: Option<Arc<CheckState>>,
    /// Vector-clock + match-order race state; allocated only in checked
    /// mode, so production runs carry no clocks (see [`crate::hb`]).
    hb: Option<HbState>,
    /// Fault-injection session; `None` unless a plan was installed via
    /// [`crate::MachineBuilder::fault_plan`].
    fault: Option<FaultSession>,
    /// Schedule-forcing session; `None` unless a plan was installed via
    /// [`crate::MachineBuilder::schedule`] (see [`crate::sched`]).
    sched: Option<SchedSession>,
    /// Envelopes held back by a `Reorder` fault, flushed at the next
    /// send/receive/exit so injection can never destroy liveness.
    held: Vec<Envelope>,
    /// Set when this rank was killed by injection, so exit reporting can
    /// publish `Killed` instead of a plain panic.
    killed: bool,
    /// The run's registered-buffer shelf, shared by every rank of the run
    /// like the commcheck board and dropped with it (see [`crate::pool`]).
    pub(crate) pool: Arc<Pool>,
}

impl Ctx {
    /// Tags at or above this value are reserved for collectives. Private to
    /// this crate: everywhere else a tag is classified by [`Ctx::is_reserved`]
    /// and never built in the reserved range.
    pub(crate) const RESERVED_TAG_BASE: u64 = 1 << 48;

    /// Whether `tag` lies in the range the collectives and protocol traffic
    /// own. `send`, `send_as`, `recv` and `recv_any` reject such a tag, and
    /// [`Counters::by_tag`] folds all of it under one key for which this
    /// holds.
    ///
    /// The range's base is private to this crate, so no other crate can
    /// build a tag inside it; the compiler refuses to let it read the base:
    ///
    /// ```compile_fail,E0624
    /// use pilut_par::Ctx;
    /// let coll = u64::MAX >= Ctx::RESERVED_TAG_BASE;
    /// assert!(coll);
    /// ```
    ///
    /// and the same check through this predicate compiles:
    ///
    /// ```
    /// use pilut_par::Ctx;
    /// let coll = Ctx::is_reserved(u64::MAX);
    /// assert!(coll);
    /// ```
    pub const fn is_reserved(tag: u64) -> bool {
        tag >= Self::RESERVED_TAG_BASE
    }

    #[expect(clippy::too_many_arguments, reason = "one argument per part of a run")]
    pub(crate) fn new(
        rank: usize,
        nprocs: usize,
        model: MachineModel,
        senders: Vec<Sender<Envelope>>,
        receiver: Receiver<Envelope>,
        check: Option<Arc<CheckState>>,
        fault: Option<FaultSession>,
        sched: Option<SchedSession>,
        pool: Arc<Pool>,
    ) -> Self {
        let hb = check.is_some().then(|| HbState::new(rank, nprocs));
        Ctx {
            rank,
            nprocs,
            model,
            senders,
            receiver,
            pending: VecDeque::new(),
            time: 0.0,
            counters: Counters::default(),
            coll_seq: 0,
            current_coll: None,
            check,
            hb,
            fault,
            sched,
            held: Vec::new(),
            killed: false,
            pool,
        }
    }

    /// This rank's id, in `0..nprocs`.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of ranks in the run.
    pub fn nprocs(&self) -> usize {
        self.nprocs
    }

    /// The machine's cost-model constants.
    pub fn model(&self) -> &MachineModel {
        &self.model
    }

    /// The rank's current logical clock, in simulated seconds.
    pub fn time(&self) -> f64 {
        self.time
    }

    pub(crate) fn check(&self) -> Option<&Arc<CheckState>> {
        self.check.as_ref()
    }

    /// Whether this run carries the commcheck verification layer. Protocol
    /// code uses it to gate expensive self-checks (like
    /// `CommPlan::verify`) to checked runs only.
    pub fn is_checked(&self) -> bool {
        self.check.is_some()
    }

    /// The run's registered-buffer pool: plans warm it at build time, and
    /// replay takes its buffers and recycles payloads into it.
    pub fn pool(&self) -> &Pool {
        &self.pool
    }

    /// Tears the context down at rank exit, reporting any leftover
    /// envelopes to the commcheck board. `panicked` records whether the
    /// rank closure unwound instead of returning.
    pub(crate) fn into_exit(mut self, panicked: bool) -> RankExit {
        // Release any reorder-held envelopes so the injector never turns a
        // benign reorder into a lost message.
        self.flush_held();
        // Drain the channel so late-but-already-sent envelopes are visible.
        while let Ok(env) = self.receiver.try_recv() {
            if let Some(check) = &self.check {
                check.note_drain(self.rank);
            }
            self.pending.push_back(env);
        }
        if let Some(check) = &self.check {
            check.record_leaks(self.pending.iter().map(|e| LeakRecord {
                from: e.from,
                to: e.to,
                tag: e.tag,
                bytes: e.payload.bytes(),
                injected: false,
            }));
            let exit_status = if self.killed {
                RankStatus::Killed
            } else if panicked {
                RankStatus::Panicked
            } else {
                RankStatus::Finished
            };
            check.set_status(self.rank, exit_status);
        }
        RankExit {
            counters: self.counters,
            time: self.time,
            receiver: self.receiver,
        }
    }

    /// Charges `flops` floating-point operations to the clock.
    pub fn work(&mut self, flops: f64) {
        debug_assert!(flops >= 0.0);
        self.time += flops * self.model.flop_time;
        self.counters.flops += flops;
    }

    /// Charges the motion of `words` 8-byte words (copying rows around while
    /// forming reduced matrices, permuting, etc.).
    pub fn copy_words(&mut self, words: f64) {
        debug_assert!(words >= 0.0);
        self.time += words * self.model.word_copy_time;
        self.counters.words_copied += words;
    }

    /// Advances the clock directly: the barrier's alignment to the slowest
    /// entry. Everything else charges through `work`/`copy_words` or a
    /// receive.
    pub(crate) fn elapse(&mut self, seconds: f64) {
        debug_assert!(seconds >= 0.0);
        self.time += seconds;
    }

    /// Records a *prediction* of upcoming traffic under `stats_tag`:
    /// `messages` sends totalling `bytes` bytes from this rank. `exact`
    /// marks the byte count authoritative (values-only rounds whose sizes
    /// the plan fixes); producer-defined rounds pass `exact = false` and
    /// zero bytes, predicting message counts only. The machine aggregates
    /// the ledger into `MachineStats::planned_by_tag`, where the bench
    /// harness cross-checks it against the measured per-tag counters —
    /// the runtime half of the static `CommPlan` analysis.
    pub fn note_planned(&mut self, stats_tag: u64, messages: u64, bytes: u64, exact: bool) {
        let slot = self
            .counters
            .planned_by_tag
            .entry(stats_tag)
            .or_insert((0, 0, true));
        slot.0 += messages;
        slot.1 += bytes;
        slot.2 &= exact;
    }

    /// Sends `payload` to rank `to` with a user `tag` (one for which
    /// [`Ctx::is_reserved`] does not hold).
    pub fn send(&mut self, to: usize, tag: u64, payload: Payload) {
        assert!(
            !Self::is_reserved(tag),
            "tag {tag} is reserved for collectives"
        );
        self.send_internal(to, tag, tag, payload);
    }

    /// Sends under `wire_tag` while attributing the traffic to `stats_tag`
    /// in the per-tag counters. Protocols that derive a fresh wire tag per
    /// round (so reordered rounds can never be confused — the same trick
    /// the collectives play with their sequence numbers) use this to keep
    /// the whole protocol's volume under one stable counter key.
    pub fn send_as(&mut self, to: usize, wire_tag: u64, stats_tag: u64, payload: Payload) {
        assert!(
            !Self::is_reserved(wire_tag),
            "tag {wire_tag} is reserved for collectives"
        );
        self.send_internal(to, wire_tag, stats_tag, payload);
    }

    pub(crate) fn send_internal(&mut self, to: usize, tag: u64, stats_tag: u64, payload: Payload) {
        // The whole transport op is harness-owned for the allocation
        // audit: channel nodes, duplicated frames, and counter maps
        // stand in for MPI/NIC-owned resources a real steady state never
        // allocates (DESIGN §16). Payload *data* buffers are built by the
        // caller, outside this scope, and stay fully audited.
        let _audit = pilut_allocaudit::harness();
        assert!(to < self.nprocs, "rank {to} out of range");
        self.fault_point();
        self.counters
            .note_message(stats_tag, payload.bytes() as u64);
        let coll_kind = if Self::is_reserved(tag) {
            self.current_coll
        } else {
            None
        };
        let mut env = Envelope {
            from: self.rank,
            to,
            tag,
            time: self.time,
            coll_kind,
            vclock: self.hb.as_mut().map(HbState::stamp_send),
            payload,
        };
        if to == self.rank {
            // Self-sends are local queue operations: no wire cost and no
            // injection (message faults model the wire).
            self.pending.push_back(env);
            return;
        }
        let fate = match self.fault.as_mut() {
            Some(f) => f.on_send(to, tag),
            None => MessageFate::Deliver,
        };
        match fate {
            MessageFate::Deliver => self.ship(env),
            MessageFate::DeliverDelayed(seconds) => {
                env.time += seconds;
                self.ship(env);
            }
            MessageFate::Drop => {
                // The envelope never reaches the wire; record it on the
                // board so the deadlock report / leak sweep can name it.
                if let Some(check) = &self.check {
                    check.record_injected_drop(LeakRecord {
                        from: self.rank,
                        to,
                        tag,
                        bytes: env.payload.bytes(),
                        injected: true,
                    });
                }
                return;
            }
            MessageFate::Duplicate => {
                let dup = env.clone();
                self.counters
                    .note_message(dup.tag, dup.payload.bytes() as u64);
                self.ship(env);
                self.ship(dup);
            }
            MessageFate::Hold => {
                self.held.push(env);
                return;
            }
        }
        // Anything held back by a Reorder fault departs *after* the
        // envelope just shipped — that is the reordering.
        self.flush_held();
    }

    /// Hands one envelope to the destination channel, keeping the board's
    /// in-flight count ahead of the wire.
    fn ship(&mut self, env: Envelope) {
        if let Some(check) = &self.check {
            // Count the envelope as in flight *before* it enters the
            // channel so the watchdog can never undercount.
            check.note_send(env.to);
        }
        #[expect(clippy::expect_used, reason = "receivers live until every rank joins")]
        self.senders[env.to].send(env).expect("receiver hung up");
    }

    /// Releases reorder-held envelopes. Called after every real send, when
    /// the rank is about to block in a receive, and at rank exit.
    fn flush_held(&mut self) {
        for env in std::mem::take(&mut self.held) {
            self.ship(env);
        }
    }

    /// Rank-level injection point (stall / kill), hit at the head of every
    /// communication op.
    fn fault_point(&mut self) {
        let Some(fate) = self.fault.as_mut().and_then(FaultSession::tick) else {
            return;
        };
        match fate {
            RankFate::Stall(millis) => {
                // The board still shows this rank Running, so a correct
                // watchdog never reports a stalled rank as deadlocked.
                std::thread::sleep(Duration::from_millis(millis));
            }
            RankFate::Kill => {
                self.killed = true;
                if let Some(check) = &self.check {
                    check.set_status(self.rank, RankStatus::Killed);
                }
                let op = self.fault.as_ref().map_or(0, FaultSession::ops);
                panic!(
                    "{FAULT_KILL_PREFIX} rank {} killed at comm op {op}",
                    self.rank
                );
            }
        }
    }

    /// Receives the message with the given `(from, tag)`, blocking until it
    /// arrives, and advances the clock by the modelled transfer time.
    ///
    /// A directed receive never reads a model-checker schedule script: its
    /// match is already forced by the program. Under checked mode (see
    /// [`crate::MachineBuilder::checked`]) a receive that can never be
    /// satisfied aborts the run with a deadlock report instead of blocking
    /// forever.
    pub fn recv(&mut self, from: usize, tag: u64) -> Payload {
        assert!(
            !Self::is_reserved(tag),
            "tag {tag} is reserved for collectives"
        );
        self.recv_internal(Some(from), tag, RecvMode::Directed).1
    }

    /// Receives the next message with the given `tag` from *any* rank,
    /// blocking until one arrives, and returns `(source, payload)`.
    ///
    /// The matched source depends on arrival order, so a program whose
    /// result depends on it is schedule-dependent. Under checked mode this
    /// receive is treated as **order-sensitive**: the happens-before race
    /// detector reports any pair of concurrent candidate messages for the
    /// same `(rank, tag)` as a match-order race (see `pilut_par::hb`). Callers
    /// that canonicalize the result afterwards (like the internal sparse
    /// all-to-all, which sorts by source) receive through the same loop
    /// declared order-insensitive instead. A model-checker schedule script
    /// (see [`crate::sched`]) can pin the source this receive matches.
    pub fn recv_any(&mut self, tag: u64) -> (usize, Payload) {
        assert!(
            !Self::is_reserved(tag),
            "tag {tag} is reserved for collectives"
        );
        self.recv_internal(None, tag, RecvMode::Wildcard)
    }

    /// The one receive loop behind [`Ctx::recv`], [`Ctx::recv_any`] and the
    /// collectives: matches the next envelope on
    /// `tag` from `from` — from any rank when `from` is `None` — blocking
    /// until one arrives, and returns `(source, payload)`. `mode` declares
    /// whether the caller is order-sensitive; the race detector flags
    /// concurrent cross-sender candidates only for [`RecvMode::Wildcard`]
    /// consumers (see [`crate::hb`]).
    pub(crate) fn recv_internal(
        &mut self,
        from: Option<usize>,
        tag: u64,
        mode: RecvMode,
    ) -> (usize, Payload) {
        // Harness-owned, like `send_internal`: pending-queue growth and
        // frame admission model runtime-owned receive machinery.
        let _audit = pilut_allocaudit::harness();
        self.fault_point();
        // About to (possibly) block: release reorder-held envelopes so the
        // injector cannot manufacture a deadlock of its own.
        self.flush_held();
        // A model-checker schedule script can pin which source a wildcard
        // receive must match next; while an entry is pending the receive
        // behaves as if directed at that source and every other candidate
        // stays buffered (see [`crate::sched`]). The race detector still
        // sees the receive's true `mode`, so forcing never hides a race.
        let from = from.or_else(|| self.sched.as_ref()?.forced_source(tag));
        if let Some(pos) = self.pending.iter().position(|e| wanted(e, from, tag)) {
            #[expect(clippy::expect_used, reason = "the position came from this deque")]
            let env = self.pending.remove(pos).expect("position came from iter");
            return self.accept(env, mode);
        }
        if self.check.is_some() {
            return self.recv_checked(from, tag, mode);
        }
        loop {
            #[expect(clippy::expect_used, reason = "every live rank holds a sender")]
            let env = self
                .receiver
                .recv()
                .expect("all senders hung up while waiting");
            if wanted(&env, from, tag) {
                return self.accept(env, mode);
            }
            self.pending.push_back(env);
        }
    }

    /// The checked receive loop: publish the blocked state, poll the
    /// channel with a timeout, and run the watchdog predicate on every
    /// timeout. Panics with the commcheck report when the run is stuck.
    fn recv_checked(&mut self, from: Option<usize>, tag: u64, mode: RecvMode) -> (usize, Payload) {
        #[expect(clippy::expect_used, reason = "only checked mode enters here")]
        let check = Arc::clone(self.check.as_ref().expect("checked mode"));
        check.set_status(self.rank, RankStatus::BlockedRecv { from, tag });
        loop {
            match self.receiver.recv_timeout(CHECK_POLL) {
                Ok(env) => {
                    if wanted(&env, from, tag) {
                        // One board transition: decrement in-flight and go
                        // back to Running atomically, or a watchdog polling
                        // between the two steps sees "blocked, nothing in
                        // flight" and reports a spurious deadlock.
                        check.note_drain_matched(self.rank);
                        return self.accept(env, mode);
                    }
                    self.pending.push_back(env);
                    check.note_drain(self.rank);
                }
                Err(RecvTimeoutError::Timeout) => {
                    if let Some(report) = check.check_stuck(self.rank) {
                        check.set_status(self.rank, RankStatus::Panicked);
                        panic!("{report}");
                    }
                }
                Err(RecvTimeoutError::Disconnected) => {
                    // Unreachable in practice: every live rank holds senders
                    // to every channel, including its own.
                    panic!("all senders hung up while waiting");
                }
            }
        }
    }

    /// Takes a matched envelope: the collective-order and race checks, the
    /// schedule script and trace, and the clock advance. Returns
    /// `(source, payload)`.
    fn accept(&mut self, env: Envelope, mode: RecvMode) -> (usize, Payload) {
        if Self::is_reserved(env.tag) {
            self.verify_collective_kind(&env);
        }
        if let Some(hb) = self.hb.as_mut() {
            let report = hb.note_accept(env.tag, env.from, env.vclock.as_deref(), mode);
            if let Some(report) = report {
                // A match-order race is a protocol failure like a collective
                // mismatch: store it as the primary diagnosis and abort.
                #[expect(clippy::expect_used, reason = "hb exists only when check does")]
                let check = self.check.as_ref().expect("hb implies checked mode");
                let msg = check.fail(report);
                check.set_status(self.rank, RankStatus::Panicked);
                panic!("{msg}");
            }
        }
        if let Some(sched) = self.sched.as_mut() {
            // Only wildcard accepts are scripted/traced: a directed match
            // is already forced by the program and cannot branch.
            if let Some(kind) = match_kind(mode) {
                sched.on_wildcard_accept(TraceEvent {
                    rank: self.rank,
                    tag: env.tag,
                    from: env.from,
                    mode: kind,
                    send_vc: env.vclock.clone().unwrap_or_default(),
                    accept_event: self.hb.as_ref().map_or(0, HbState::local_event),
                });
            }
        }
        let wire = if env.from == self.rank {
            0.0
        } else {
            self.model.latency + env.payload.bytes() as f64 * self.model.inv_bandwidth
        };
        self.time = self.time.max(env.time + wire);
        (env.from, env.payload)
    }

    /// Collective-order check: the kind piggybacked by the sender must
    /// match the collective this rank is currently executing.
    fn verify_collective_kind(&mut self, env: &Envelope) {
        let Some(check) = &self.check else { return };
        if env.coll_kind == self.current_coll {
            return;
        }
        let logs = check.coll_logs();
        let divergence = crate::check::collective_divergence(&logs)
            .unwrap_or_else(|| "  (call logs still agree — the mismatch is in flight)\n".into());
        let name = |k: &Option<crate::check::CollKind>| match k {
            Some(k) => format!("{k:?}"),
            None => "no collective".to_string(),
        };
        let report = format!(
            "commcheck: collective order mismatch — rank {} is executing {} but received {} traffic from rank {} (tag {:#x})\n{}",
            self.rank,
            name(&self.current_coll),
            name(&env.coll_kind),
            env.from,
            env.tag,
            divergence
        );
        let msg = check.fail(report);
        check.set_status(self.rank, RankStatus::Panicked);
        panic!("{msg}");
    }
}

/// Whether `env` is the envelope a receive on `tag` from `from` (any rank
/// when `None`) is waiting for.
fn wanted(env: &Envelope, from: Option<usize>, tag: u64) -> bool {
    env.tag == tag && from.is_none_or(|f| env.from == f)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::{Machine, MachineModel};
    use crate::sched::{SchedHandle, SchedulePlan};

    #[test]
    fn out_of_order_tags_are_buffered() {
        let out = Machine::run_checked(2, MachineModel::cray_t3d(), |ctx| {
            if ctx.rank() == 0 {
                ctx.send(1, 1, Payload::u64s(vec![1]));
                ctx.send(1, 2, Payload::u64s(vec![2]));
                vec![]
            } else {
                // Receive in reverse order.
                let b = ctx.recv(0, 2).into_u64();
                let a = ctx.recv(0, 1).into_u64();
                vec![a[0], b[0]]
            }
        });
        assert_eq!(out.results[1], vec![1, 2]);
    }

    #[test]
    fn clock_takes_max_of_sender_and_receiver() {
        let model = MachineModel {
            flop_time: 1.0,
            latency: 0.1,
            inv_bandwidth: 0.0,
            word_copy_time: 0.0,
        };
        let out = Machine::run_checked(2, model, |ctx| {
            if ctx.rank() == 0 {
                ctx.work(5.0); // clock = 5
                ctx.send(1, 0, Payload::Empty);
                ctx.time()
            } else {
                ctx.work(1.0); // clock = 1
                ctx.recv(0, 0);
                ctx.time() // max(1, 5 + 0.1) = 5.1
            }
        });
        assert!((out.results[1] - 5.1).abs() < 1e-12);
    }

    #[test]
    fn self_send_is_free_and_works() {
        let out = Machine::run_checked(1, MachineModel::cray_t3d(), |ctx| {
            ctx.send(0, 3, Payload::f64s(vec![2.5]));
            let v = ctx.recv(0, 3).into_f64();
            (v[0], ctx.time())
        });
        assert_eq!(out.results[0].0, 2.5);
        assert_eq!(out.results[0].1, 0.0);
    }

    #[test]
    fn copy_words_charges_time() {
        let model = MachineModel {
            flop_time: 0.0,
            latency: 0.0,
            inv_bandwidth: 0.0,
            word_copy_time: 2.0,
        };
        let out = Machine::run_checked(1, model, |ctx| {
            ctx.copy_words(3.0);
            ctx.time()
        });
        assert_eq!(out.results[0], 6.0);
        assert_eq!(out.stats.words_copied, 3.0);
    }

    #[test]
    fn a_directed_receive_leaves_a_forced_wildcard_entry_on_its_tag() {
        // Rank 0's wildcard receives on tag T are scripted to match rank 2.
        // Its directed receive on T from rank 1 must match rank 1 — reading
        // no script entry — and leave both the entry and rank 2's envelope
        // to the wildcard receive after it. Rank 2's envelope reaches rank
        // 0's channel first: rank 1 sends only after rank 2's go on tag G.
        const T: u64 = 5;
        const G: u64 = 6;
        let handle = SchedHandle::new(SchedulePlan::new().force(0, T, 2).record(true));
        let out = Machine::builder(MachineModel::cray_t3d())
            .schedule(handle.clone())
            .run(3, |ctx| match ctx.rank() {
                0 => {
                    let a = ctx.recv(1, T).into_u64()[0];
                    let (src, b) = ctx.recv_internal(None, T, RecvMode::WildcardUnordered);
                    vec![a, src as u64, b.into_u64()[0]]
                }
                1 => {
                    ctx.recv(2, G);
                    ctx.send(0, T, Payload::u64s(vec![10]));
                    Vec::new()
                }
                _ => {
                    ctx.send(0, T, Payload::u64s(vec![20]));
                    ctx.send(1, G, Payload::Empty);
                    Vec::new()
                }
            });
        assert_eq!(out.results[0], vec![10, 2, 20]);
        let trace = handle.take_trace();
        assert_eq!(trace.len(), 1, "only the wildcard accept is traced");
        assert_eq!((trace[0].rank, trace[0].tag, trace[0].from), (0, T, 2));
    }

    #[test]
    #[should_panic(expected = "reserved")]
    fn reserved_tags_rejected() {
        Machine::run(1, MachineModel::cray_t3d(), |ctx| {
            ctx.send(0, Ctx::RESERVED_TAG_BASE, Payload::Empty);
        });
    }
}
