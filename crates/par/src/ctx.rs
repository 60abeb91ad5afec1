//! Per-rank execution context: point-to-point messaging and the logical
//! clock.

use crate::check::{CheckState, CollKind, LeakRecord, RankStatus};
use crate::fault::{FaultSession, MessageFate, RankFate, FAULT_KILL_PREFIX};
use crate::hb::HbState;
use crate::machine::MachineModel;
use crate::payload::Payload;
use crate::pool::Pool;
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
    /// Per-tag `(messages, bytes)` *predicted* before the traffic was sent
    /// ([`Ctx::note_planned`]): every data-plane round and every collective
    /// plans its messages and bytes exactly, and the kernel gate holds the
    /// measured counters to this.
    pub planned_by_tag: BTreeMap<u64, (u64, u64)>,
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
    /// own. `send`, `send_as` and `recv` reject such a tag, and
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

    /// Checked mode's rendezvous: posts `words` as this rank's next entry
    /// on the commcheck board, waits until every rank has posted its entry
    /// of the same ordinal, and returns them all, indexed by rank — what a
    /// self-check (like `CommPlan::verify`) reads to compare ranks. Every
    /// rank must call it together, in the same program order, like a
    /// collective; a rank that never arrives ends the run in a commcheck
    /// deadlock report naming the gather.
    ///
    /// The gather is an observer: it sends no envelope, moves no clock and
    /// touches no counter, so a checked run prices exactly what a
    /// production run does. On a production machine, which has no board,
    /// it returns `None` at once.
    pub fn board_gather(&mut self, words: &[u64]) -> Option<Vec<Vec<u64>>> {
        // About to block: a reorder-held envelope must not wait behind it.
        self.flush_held();
        let all = self.check.as_ref()?.gather(self.rank, words, CHECK_POLL);
        Some(all.unwrap_or_else(|report| panic!("{report}")))
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
    /// `messages` sends totalling `bytes` bytes from this rank, known
    /// before the first of them ships. The machine aggregates the ledger
    /// into `MachineStats::planned_by_tag`, where the kernel gate holds it
    /// to the measured per-tag counters, messages and bytes alike.
    pub fn note_planned(&mut self, stats_tag: u64, messages: u64, bytes: u64) {
        let slot = self.counters.planned_by_tag.entry(stats_tag).or_default();
        slot.0 += messages;
        slot.1 += bytes;
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
    /// Under checked mode (see [`crate::MachineBuilder::checked`]) a
    /// receive that can never be satisfied aborts the run with a deadlock
    /// report instead of blocking forever.
    pub fn recv(&mut self, from: usize, tag: u64) -> Payload {
        assert!(
            !Self::is_reserved(tag),
            "tag {tag} is reserved for collectives"
        );
        self.recv_internal(Some(from), tag).1
    }

    /// The one receive loop behind [`Ctx::recv`] and the collectives:
    /// matches the next envelope on `tag` from `from`, blocking until one
    /// arrives, and returns `(source, payload)`. Every receive names its
    /// source except `Ctx::exchange`'s gather (`from = None`), which takes
    /// a count it learned by all-reduce under a fresh collective tag and
    /// sorts what it gets by source, so no caller observes which of two
    /// senders' envelopes matched first (DESIGN §11.1). The race detector
    /// checks the one order the wire can still swap, two envelopes of one
    /// sender on one tag (see [`crate::hb`]).
    pub(crate) fn recv_internal(&mut self, from: Option<usize>, tag: u64) -> (usize, Payload) {
        // Harness-owned, like `send_internal`: pending-queue growth and
        // frame admission model runtime-owned receive machinery.
        let _audit = pilut_allocaudit::harness();
        self.fault_point();
        // About to (possibly) block: release reorder-held envelopes so the
        // injector cannot manufacture a deadlock of its own.
        self.flush_held();
        if let Some(pos) = self.pending.iter().position(|e| wanted(e, from, tag)) {
            #[expect(clippy::expect_used, reason = "the position came from this deque")]
            let env = self.pending.remove(pos).expect("position came from iter");
            return self.accept(env);
        }
        if self.check.is_some() {
            return self.recv_checked(from, tag);
        }
        loop {
            #[expect(clippy::expect_used, reason = "every live rank holds a sender")]
            let env = self
                .receiver
                .recv()
                .expect("all senders hung up while waiting");
            if wanted(&env, from, tag) {
                return self.accept(env);
            }
            self.pending.push_back(env);
        }
    }

    /// The checked receive loop: publish the blocked state, poll the
    /// channel with a timeout, and run the watchdog predicate on every
    /// timeout. Panics with the commcheck report when the run is stuck.
    fn recv_checked(&mut self, from: Option<usize>, tag: u64) -> (usize, Payload) {
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
                        return self.accept(env);
                    }
                    self.pending.push_back(env);
                    check.note_drain(self.rank);
                }
                Err(RecvTimeoutError::Timeout) => {
                    if let Some(report) = check.check_stuck() {
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

    /// Takes a matched envelope: the collective-order and race checks, and
    /// the clock advance. Returns `(source, payload)`.
    fn accept(&mut self, env: Envelope) -> (usize, Payload) {
        if Self::is_reserved(env.tag) {
            self.verify_collective_kind(&env);
        }
        if let Some(hb) = self.hb.as_mut() {
            let report = hb.note_accept(env.tag, env.from, env.vclock.as_deref());
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
    fn a_board_gather_reads_every_rank_and_leaves_no_trace() {
        let body = |ctx: &mut Ctx| {
            let local: Vec<u64> = (0..ctx.rank() as u64).collect();
            let first = ctx.board_gather(&local);
            let second = ctx.board_gather(&[10 * ctx.rank() as u64]);
            (first, second, ctx.time())
        };
        let checked = Machine::run_checked(4, MachineModel::cray_t3d(), body);
        for (first, second, time) in &checked.results {
            let first = first.as_ref().expect("a checked machine has a board");
            for (r, words) in first.iter().enumerate() {
                assert_eq!(words, &(0..r as u64).collect::<Vec<_>>(), "rank {r}");
            }
            assert_eq!(second, &Some(vec![vec![0], vec![10], vec![20], vec![30]]));
            assert_eq!(*time, 0.0);
        }
        let stats = &checked.stats;
        assert_eq!((stats.messages, stats.bytes, stats.collectives), (0, 0, 0));
        let production = Machine::run(4, MachineModel::cray_t3d(), body);
        let no_board = |r: &(Option<_>, Option<_>, f64)| r.0.is_none() && r.1.is_none();
        assert!(production.results.iter().all(no_board));
    }

    #[test]
    #[should_panic(expected = "rank 0 -> rank(s) 2  (board gather #1)")]
    fn a_rank_missing_from_a_board_gather_is_diagnosed() {
        Machine::run_checked(3, MachineModel::cray_t3d(), |ctx| {
            ctx.board_gather(&[]);
            if ctx.rank() != 2 {
                ctx.board_gather(&[]);
            }
        });
    }

    #[test]
    #[should_panic(expected = "reserved")]
    fn reserved_tags_rejected() {
        Machine::run(1, MachineModel::cray_t3d(), |ctx| {
            ctx.send(0, Ctx::RESERVED_TAG_BASE, Payload::Empty);
        });
    }
}
