//! Per-rank execution context: point-to-point messaging and the logical
//! clock.

use crate::check::{CheckState, CollKind, LeakRecord, RankLost, RankStatus, RunFlags};
use crate::fault::{FaultSession, MessageFate, RankFate, FAULT_KILL_PREFIX};
use crate::hb::{HbState, RecvMode};
use crate::machine::MachineModel;
use crate::payload::Payload;
use crate::pool::Pool;
use crate::rel::{Ingress, RelState, ACK_TAG, RECOVER_TAG};
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

/// Idle watchdog polls before a blocked reliable receiver sends its first
/// NACK round asking senders to re-ship what it is missing.
const NACK_START_POLLS: u32 = 4;

/// NACK rounds per blocked-receive episode, with exponential backoff
/// between rounds. Once the budget is exhausted the episode is marked on
/// the board and the deadlock watchdog is allowed to fire: a sender that
/// is alive answers a NACK within about one poll, so an exhausted budget
/// means the frame was never sent — a genuine protocol deadlock.
const MAX_NACKS: u32 = 5;

/// Control-frame kinds for the reliable-delivery protocol: a cumulative
/// acknowledgement ("everything up to seq arrived") and a resend request
/// ("re-ship from seq").
const CTRL_ACK: u64 = 0;
const CTRL_NACK: u64 = 1;

/// Wire tag of reliability control frames (ACK/NACK). Lives in the
/// reserved range so user tags can never collide; bit 47 keeps it clear of
/// the collective sequence-number namespace (which stays far below 2^47
/// even with the recovery epoch folded in).
pub(crate) const CTRL_TAG: u64 = Ctx::RESERVED_TAG_BASE | (1 << 47);

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
    /// match-order race detector compares (see [`crate::hb`]). `None` on
    /// the zero-overhead production path.
    pub vclock: Option<Vec<u64>>,
    /// Per-link sequence number under reliable delivery (see
    /// [`crate::rel`]); `None` for self-sends, control frames, and
    /// unreliable runs.
    pub seq: Option<u64>,
    /// Sender's recovery epoch at send time. Receivers discard frames from
    /// older epochs (a world that no longer exists) and park frames from
    /// newer ones until they adopt the loss themselves.
    pub epoch: u64,
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
    /// Under reliable delivery, the next expected sequence number per
    /// source at exit — lets the machine's late leak sweep tell an
    /// absorbed retransmission (seq below expected) from a genuinely
    /// undelivered frame.
    pub rel_expected: Option<Vec<u64>>,
    /// The rank's recovery epoch at exit; late frames from older epochs
    /// are not leaks.
    pub epoch: u64,
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
    /// Static run configuration: reliable delivery and rank-loss recovery.
    flags: RunFlags,
    /// Per-link sequence/stash/retention state; `Some` iff reliable
    /// delivery is enabled (see [`crate::rel`]).
    rel: Option<RelState>,
    /// Liveness per rank in the current epoch. All-true until a rank loss
    /// is adopted in recovery mode.
    pub(crate) alive: Vec<bool>,
    /// Recovery epoch, equal to the number of adopted rank losses. Stamped
    /// on every envelope so frames from a dead world are discarded at
    /// ingress.
    epoch: u64,
    /// The ranks this rank has adopted as dead.
    dead: Vec<usize>,
    /// Cached slot map for collectives: the sorted alive ranks as of
    /// [`Ctx::slot_cache_epoch`]. A scalar all-reduce runs every GMRES
    /// inner iteration; indexing this cache instead of collecting a fresh
    /// map keeps it off the heap. Rebuilt (under the audit harness — a
    /// topology table, DESIGN §16) whenever the recovery epoch moves.
    pub(crate) slot_cache: Vec<usize>,
    /// Epoch [`Ctx::slot_cache`] was built for; `u64::MAX` = never built.
    pub(crate) slot_cache_epoch: u64,
    /// Frames that arrived stamped with a *future* epoch (their sender
    /// adopted a loss this rank has not yet detected); replayed through
    /// ingress once `adopt_world` resets to the new epoch.
    future_frames: Vec<Envelope>,
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

    pub(crate) fn new(
        rank: usize,
        nprocs: usize,
        model: MachineModel,
        senders: Vec<Sender<Envelope>>,
        receiver: Receiver<Envelope>,
        check: Option<Arc<CheckState>>,
        fault: Option<FaultSession>,
        sched: Option<SchedSession>,
        flags: RunFlags,
        pool: Arc<Pool>,
    ) -> Self {
        assert!(
            (!flags.reliable && !flags.recovery) || check.is_some(),
            "reliable delivery and rank-loss recovery require checked mode"
        );
        let mut hb = check.is_some().then(|| HbState::new(rank, nprocs));
        if let (Some(hb), true) = (hb.as_mut(), flags.reliable) {
            // Reliable links are FIFO per (sender, receiver): same-sender
            // match order is fixed, so it is no longer a race.
            hb.set_fifo(true);
        }
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
            flags,
            rel: flags.reliable.then(|| RelState::new(nprocs)),
            alive: vec![true; nprocs],
            epoch: 0,
            dead: Vec::new(),
            slot_cache: Vec::new(),
            slot_cache_epoch: u64::MAX,
            future_frames: Vec::new(),
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

    /// True when per-link reliable delivery is armed (see [`crate::rel`]).
    /// Plan builders use this to size registered-buffer warm-up: a
    /// reliable sender retains every frame until the cumulative ACK
    /// passes it, so up to [`ACK_EVERY`](crate::ACK_EVERY) pooled buffers
    /// per link are in flight beyond the plain send/recv skew.
    pub fn is_reliable(&self) -> bool {
        self.rel.is_some()
    }

    /// The run's registered-buffer pool: plans warm it at build time, and
    /// replay takes its buffers and recycles payloads into it.
    pub fn pool(&self) -> &Pool {
        &self.pool
    }

    /// True when this rank was killed by fault injection. A recovery
    /// driver that catches the kill unwind uses this to tell "I am the
    /// victim" from "a peer died".
    pub fn killed(&self) -> bool {
        self.killed
    }

    /// The current recovery epoch: the number of rank losses this rank has
    /// adopted.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Whether rank `r` is alive in the current epoch.
    pub fn is_alive(&self, r: usize) -> bool {
        self.alive[r]
    }

    /// Number of ranks alive in the current epoch.
    pub fn n_alive(&self) -> usize {
        self.alive.iter().filter(|&&a| a).count()
    }

    /// Tears the context down at rank exit, reporting any leftover
    /// envelopes to the commcheck board. `panicked` records whether the
    /// rank closure unwound instead of returning.
    pub(crate) fn into_exit(mut self, panicked: bool) -> RankExit {
        // Release any reorder-held envelopes so the injector never turns a
        // benign reorder into a lost message.
        self.flush_held();
        // Exit flush: when faults are being injected, a frame may have been
        // dropped after the receiver's last NACK window — and once this
        // rank's thread is gone, no resend can ever happen. Re-ship the
        // whole unacknowledged tail (receivers dedup what they already
        // delivered). Skipped on fault-free runs, where nothing is ever
        // lost, so the steady-state overhead stays zero.
        if !panicked && !self.killed && self.fault.is_some() {
            if let Some(rel) = &self.rel {
                for env in rel.unacked() {
                    self.ship_protocol(env);
                }
            }
        }
        // Drain the channel so late-but-already-sent envelopes are visible,
        // admitting each frame like a receive does: late control frames
        // are honoured (a peer's NACK can still trigger a resend here) and
        // late retransmissions deduplicated.
        while let Ok(env) = self.receiver.try_recv() {
            if let Some(check) = &self.check {
                check.note_drain(self.rank);
            }
            let (ready, _) = self.ingress_frame(env);
            self.pending.extend(ready);
        }
        // Frames still parked behind a sequence gap were never delivered:
        // surface them to the leak sweep.
        if let Some(rel) = self.rel.as_mut() {
            let parked = rel.drain_stash();
            self.pending.extend(parked);
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
            rel_expected: self.rel.as_ref().map(RelState::expected_snapshot),
            epoch: self.epoch,
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

    /// Advances the clock directly (rarely needed; prefer `work`/`copy_words`).
    pub fn elapse(&mut self, seconds: f64) {
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
        // audit: channel nodes, retained-frame clones, and counter maps
        // stand in for MPI/NIC-owned resources a real steady state never
        // allocates (DESIGN §16). Payload *data* buffers are built by the
        // caller, outside this scope, and stay fully audited.
        let _audit = pilut_allocaudit::harness();
        assert!(to < self.nprocs, "rank {to} out of range");
        self.check_rank_loss();
        self.fault_point();
        assert!(
            self.alive[to],
            "send to rank {to}, which was lost in a previous epoch"
        );
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
            seq: None,
            epoch: self.epoch,
            payload,
        };
        if to == self.rank {
            // Self-sends are local queue operations: no wire cost and no
            // injection (message faults model the wire).
            self.pending.push_back(env);
            return;
        }
        if let Some(rel) = self.rel.as_mut() {
            // Sequence the frame and retain a clone until the link's
            // cumulative ACK passes it — even a Drop fate consumes the
            // sequence number, so the receiver sees a gap and NACKs.
            env.seq = Some(rel.assign(to));
            rel.retain(env.clone());
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
                // The duplicate carries the same sequence number, so a
                // reliable receiver discards it at ingress.
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
        // lint: allow(unwrap): the machine keeps every receiver alive until all ranks join
        self.senders[env.to].send(env).expect("receiver hung up");
    }

    /// Releases reorder-held envelopes. Called after every real send, when
    /// the rank is about to block in a receive, and at rank exit.
    fn flush_held(&mut self) {
        for env in std::mem::take(&mut self.held) {
            self.ship(env);
        }
    }

    /// Sends one reliability control frame (ACK or NACK) through
    /// [`Ctx::ship_protocol`].
    fn send_ctrl(&mut self, to: usize, kind: u64, val: u64) {
        self.ship_protocol(Envelope {
            from: self.rank,
            to,
            tag: CTRL_TAG,
            time: self.time,
            coll_kind: None,
            vclock: None,
            seq: None,
            epoch: self.epoch,
            payload: Payload::u64s(vec![kind, val]),
        });
    }

    /// Ships one reliability-protocol frame: a control frame, or a
    /// retained frame re-shipped in answer to a NACK (or in the exit
    /// flush). Protocol frames bypass fault injection — they are the
    /// mechanism that absorbs injected faults, so injecting into them
    /// would only lengthen recovery, never change the outcome — and are
    /// counted and exactly priced under [`ACK_TAG`] (a resend's original
    /// send already paid under its own tag).
    fn ship_protocol(&mut self, env: Envelope) {
        let bytes = env.payload.bytes() as u64;
        self.counters.note_message(ACK_TAG, bytes);
        self.note_planned(ACK_TAG, 1, bytes, true);
        self.ship(env);
    }

    /// One NACK round from a blocked receive: ask the most suspicious
    /// senders to re-ship from the first missing sequence number. Sources
    /// with a parked gap are asked first (the gap names the exact missing
    /// frame); a directed receive falls back to its source, a wildcard to
    /// every live peer. A spurious NACK (the frame is merely slow) is
    /// harmless: the sender retains nothing at or past the requested
    /// sequence and resends nothing, or resends frames the receiver then
    /// discards as duplicates.
    fn send_nacks(&mut self, from: Option<usize>) {
        let Some(rel) = self.rel.as_ref() else { return };
        let gapped = rel.gapped_sources();
        let targets: Vec<usize> = if gapped.is_empty() {
            match from {
                Some(f) if f != self.rank => vec![f],
                Some(_) => Vec::new(),
                None => (0..self.nprocs).filter(|&r| r != self.rank).collect(),
            }
        } else {
            gapped
        };
        let wants: Vec<(usize, u64)> = targets
            .iter()
            .filter(|&&t| self.alive[t])
            .map(|&t| (t, rel.delivered_upto(t) + 1))
            .collect();
        for (t, want) in wants {
            self.send_ctrl(t, CTRL_NACK, want);
        }
    }

    /// The one admission step for every frame read off the channel — by a
    /// receive, unchecked or checked, and by the exit drain: classifies it
    /// against the reliability and recovery layers. Returns the frames now
    /// deliverable, in link order, plus a progress flag: `true` when the
    /// frame carried new data (delivered or parked a gap), `false` for
    /// control frames, absorbed duplicates, and stale-epoch traffic. With
    /// neither layer on, a frame is handed back unchanged as
    /// `(vec![env], true)`. A blocked receive uses the flag to decide
    /// whether its idle clock resets — control chatter between two
    /// deadlocked ranks must not suppress the watchdog forever.
    fn ingress_frame(&mut self, env: Envelope) -> (Vec<Envelope>, bool) {
        if env.tag == CTRL_TAG {
            if env.epoch == self.epoch {
                self.handle_ctrl(&env);
            }
            return (Vec::new(), false);
        }
        if env.epoch < self.epoch {
            // A frame from a world that no longer exists.
            return (Vec::new(), false);
        }
        if env.epoch > self.epoch {
            // The sender already adopted a rank loss this rank has not
            // detected yet; park the frame until `adopt_world` catches up.
            self.future_frames.push(env);
            return (Vec::new(), false);
        }
        let verdict = match self.rel.as_mut() {
            None => return (vec![env], true),
            Some(rel) => rel.ingress(&env),
        };
        match verdict {
            Ingress::Deliver => {
                let from = env.from;
                let mut out = vec![env];
                let ack = {
                    // lint: allow(unwrap): verdict came from the same Some(rel)
                    let rel = self.rel.as_mut().expect("rel present");
                    out.extend(rel.release(from));
                    rel.ack_due(from).then(|| rel.delivered_upto(from))
                };
                if let Some(upto) = ack {
                    self.send_ctrl(from, CTRL_ACK, upto);
                }
                (out, true)
            }
            Ingress::Duplicate => (Vec::new(), false),
            Ingress::Stashed => {
                // lint: allow(unwrap): verdict came from the same Some(rel)
                self.rel.as_mut().expect("rel present").park(env);
                (Vec::new(), true)
            }
        }
    }

    /// Processes one ACK/NACK control frame.
    fn handle_ctrl(&mut self, env: &Envelope) {
        let body = match &env.payload {
            Payload::U64(v) => v.as_slice(),
            other => panic!("malformed reliability control frame: {other:?}"),
        };
        let (kind, val) = (body[0], body[1]);
        match kind {
            CTRL_ACK => {
                if let Some(rel) = self.rel.as_mut() {
                    rel.on_ack(env.from, val, &self.pool);
                }
            }
            CTRL_NACK => {
                let frames = self
                    .rel
                    .as_ref()
                    .map(|rel| rel.resend_from(env.from, val))
                    .unwrap_or_default();
                for f in frames {
                    self.ship_protocol(f);
                }
            }
            other => panic!("unknown reliability control kind {other}"),
        }
    }

    /// Rank-loss detection point, hit at the head of every communication
    /// op and on every blocked-receive timeout. When the board shows more
    /// kills than this rank has adopted, unwinds with a typed
    /// [`RankLost`] so a recovery driver can catch it, call
    /// [`Ctx::adopt_world`], and re-plan on the shrunk world.
    fn check_rank_loss(&mut self) {
        if !self.flags.recovery {
            return;
        }
        let Some(check) = &self.check else { return };
        if check.killed_count() as usize <= self.dead.len() {
            return;
        }
        let dead = check.killed_ranks();
        // Go back to Running while unwinding: the survivors' registration
        // barrier must see this rank as live-and-recovering, and the
        // watchdog must not treat the unwind window as a blocked state.
        check.set_status(self.rank, RankStatus::Running);
        std::panic::panic_any(RankLost {
            epoch: dead.len() as u64,
            dead,
        });
    }

    /// Adopts the current set of killed ranks and re-synchronizes with the
    /// other survivors: resets every piece of in-flight state (pending
    /// frames, reliability links, vector clocks, collective sequence) to
    /// the new epoch, then waits on a registration barrier until every
    /// other live rank has adopted the same epoch. Returns the dead set.
    ///
    /// Called by a recovery driver after catching a [`RankLost`] unwind.
    /// If another rank dies while waiting, the adoption restarts with the
    /// larger dead set, so sequential losses fold into one barrier.
    pub fn adopt_world(&mut self) -> Vec<usize> {
        assert!(self.flags.recovery, "adopt_world requires recovery mode");
        // lint: allow(unwrap): recovery mode implies checked mode (asserted at construction)
        let check = Arc::clone(self.check.as_ref().expect("recovery implies checked"));
        check.set_status(self.rank, RankStatus::Running);
        loop {
            let dead = check.killed_ranks();
            self.reset_for_epoch(&dead);
            check.register_epoch(self.rank, self.epoch);
            loop {
                if check.killed_count() as usize > dead.len() {
                    break; // another rank died: restart with the larger set
                }
                if check.all_registered(self.epoch) {
                    return dead;
                }
                std::thread::sleep(CHECK_POLL);
            }
        }
    }

    /// Confirmation ring after [`Ctx::adopt_world`]: every survivor passes
    /// `(epoch, hash(dead set))` to its successor on the ring of live
    /// ranks and checks the value it receives from its predecessor. All
    /// ranks compute the dead set from the same shared board, so a
    /// neighbour check suffices; the ring's real job is to be a
    /// synchronization point proving every survivor has re-entered normal
    /// messaging in the new epoch. Traffic is counted and exactly priced
    /// under the `recover` stats tag.
    pub fn recover_sync(&mut self) {
        assert!(self.flags.recovery, "recover_sync requires recovery mode");
        let alive: Vec<usize> = (0..self.nprocs).filter(|&r| self.alive[r]).collect();
        if alive.len() <= 1 {
            return;
        }
        let slot = alive
            .iter()
            .position(|&r| r == self.rank)
            // lint: allow(unwrap): a dead rank cannot call recover_sync
            .expect("caller is alive");
        let succ = alive[(slot + 1) % alive.len()];
        let pred = alive[(slot + alive.len() - 1) % alive.len()];
        let wire = RECOVER_TAG + self.epoch;
        let mut h = 0xcbf2_9ce4_8422_2325_u64 ^ self.epoch;
        for &d in &self.dead {
            h = h.wrapping_mul(0x1_0000_0001_b3).wrapping_add(d as u64 + 1);
        }
        let payload = Payload::u64s(vec![self.epoch, h]);
        self.note_planned(RECOVER_TAG, 1, payload.bytes() as u64, true);
        self.send_internal(succ, wire, RECOVER_TAG, payload);
        let (_, got) = self.recv_internal(Some(pred), wire, RecvMode::Directed);
        if got.into_u64() != [self.epoch, h] {
            // lint: allow(unwrap): recovery mode implies checked mode
            let check = Arc::clone(self.check.as_ref().expect("recovery implies checked"));
            let msg = check.fail(format!(
                "recovery agreement mismatch at epoch {}: rank {} disagrees with rank {} about the dead set {:?}",
                self.epoch, self.rank, pred, self.dead
            ));
            check.set_status(self.rank, RankStatus::Panicked);
            panic!("{msg}");
        }
    }

    /// Resets all in-flight state to a new epoch with the given dead set.
    fn reset_for_epoch(&mut self, dead: &[usize]) {
        self.epoch = dead.len() as u64;
        self.dead = dead.to_vec();
        for a in &mut self.alive {
            *a = true;
        }
        for &r in dead {
            self.alive[r] = false;
        }
        // Everything buffered belongs to the old world. Pending frames
        // were already drained off the board; held frames never reached
        // the wire (no in-flight count to repair).
        self.pending.clear();
        self.held.clear();
        if let Some(rel) = self.rel.as_mut() {
            rel.reset();
        }
        if let Some(hb) = self.hb.as_mut() {
            hb.reset();
        }
        // Namespace the collective sequence by epoch so a straggling
        // old-epoch collective frame can never alias a new one (the epoch
        // filter at ingress already discards them; this is belt and
        // braces), and resync the sequence across survivors that had
        // executed different numbers of collectives when the kill hit.
        self.coll_seq = self.epoch << 32;
        self.current_coll = None;
        // Frames from senders that reached this epoch first were parked;
        // replay them now that the link state is reset.
        let future = std::mem::take(&mut self.future_frames);
        for env in future {
            let (ready, _) = self.ingress_frame(env);
            self.pending.extend(ready);
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
    /// same `(rank, tag)` as a match-order race (see [`crate::hb`]). Callers
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

    /// The one receive loop behind [`Ctx::recv`], [`Ctx::recv_any`], the
    /// collectives and [`Ctx::recover_sync`]: matches the next envelope on
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
        self.check_rank_loss();
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
            // lint: allow(unwrap): the position came from a search of the same deque
            let env = self.pending.remove(pos).expect("position came from iter");
            return self.accept(env, mode);
        }
        if self.check.is_some() {
            return self.recv_checked(from, tag, mode);
        }
        loop {
            let env = self
                .receiver
                .recv()
                // lint: allow(unwrap): every live rank holds a sender to this channel
                .expect("all senders hung up while waiting");
            if let (Some(env), _) = self.admit(env, from, tag) {
                return self.accept(env, mode);
            }
        }
    }

    /// Admits one frame read off the channel through
    /// [`Ctx::ingress_frame`], buffers every deliverable frame but the
    /// first one matching `(from, tag)`, and returns that one (if any)
    /// with ingress's progress flag.
    fn admit(&mut self, env: Envelope, from: Option<usize>, tag: u64) -> (Option<Envelope>, bool) {
        let (ready, progress) = self.ingress_frame(env);
        let mut hit = None;
        for e in ready {
            if hit.is_none() && wanted(&e, from, tag) {
                hit = Some(e);
            } else {
                self.pending.push_back(e);
            }
        }
        (hit, progress)
    }

    /// The checked receive loop: publish the blocked state, poll the
    /// channel with a timeout, and run the watchdog predicate on every
    /// timeout. Panics with the commcheck report when the run is stuck.
    ///
    /// Under reliable delivery a timeout also drives the NACK schedule: a
    /// receiver idle for [`NACK_START_POLLS`] polls asks the likely
    /// senders to re-ship, backing off exponentially for up to
    /// [`MAX_NACKS`] rounds before conceding the episode to the watchdog.
    fn recv_checked(&mut self, from: Option<usize>, tag: u64, mode: RecvMode) -> (usize, Payload) {
        // lint: allow(unwrap): recv_checked is only entered in checked mode
        let check = Arc::clone(self.check.as_ref().expect("checked mode"));
        let reliable = self.rel.is_some();
        if reliable {
            // A fresh blocked episode gets a fresh NACK budget; the board
            // suppresses deadlock verdicts until the budget is spent.
            check.nack_reset(self.rank);
        }
        check.set_status(self.rank, RankStatus::BlockedRecv { from, tag });
        let mut idle_polls: u32 = 0;
        let mut nacks_left: u32 = if reliable { MAX_NACKS } else { 0 };
        let mut backoff: u32 = NACK_START_POLLS;
        let mut next_nack: u32 = NACK_START_POLLS;
        loop {
            match self.receiver.recv_timeout(CHECK_POLL) {
                Ok(env) => {
                    let (hit, progress) = self.admit(env, from, tag);
                    if progress {
                        idle_polls = 0;
                    }
                    if let Some(env) = hit {
                        // One board transition: decrement in-flight and go
                        // back to Running atomically, or a watchdog polling
                        // between the two steps sees "blocked, nothing in
                        // flight" and reports a spurious deadlock.
                        check.note_drain_matched(self.rank);
                        return self.accept(env, mode);
                    }
                    check.note_drain(self.rank);
                }
                Err(RecvTimeoutError::Timeout) => {
                    self.check_rank_loss();
                    idle_polls = idle_polls.saturating_add(1);
                    if nacks_left > 0 && idle_polls >= next_nack {
                        self.send_nacks(from);
                        nacks_left -= 1;
                        backoff *= 2;
                        next_nack = idle_polls + backoff;
                        if nacks_left == 0 {
                            check.nack_exhausted(self.rank);
                        }
                        continue;
                    }
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
                // lint: allow(unwrap): hb exists only when check does
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
