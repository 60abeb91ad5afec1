//! Reliable delivery: per-link sequencing, receiver-side dedup, and
//! retransmission state.
//!
//! Opt-in via [`crate::MachineBuilder::reliable`]. Every cross-rank data
//! envelope is stamped with a per-`(sender, receiver)` sequence number at
//! send time and retained by the sender until cumulatively acknowledged.
//! The receiver linearizes each link at ingress: duplicates (seq below the
//! next expected) are discarded, out-of-order frames (a gap below them) are
//! parked in a stash, and in-order frames are released together with any
//! consecutive stashed successors. A receiver that waits too long sends a
//! **NACK** naming the sequence number it is missing; the sender re-ships
//! the retained tail. The protocol's own traffic (ACK/NACK control frames
//! and retransmissions) is attributed to the dedicated [`ACK_TAG`] counter
//! and priced exactly in the planned-traffic ledger, so the kernel gate's
//! planned = measured check (`xtask paper`'s `kernels` experiment) gates it
//! like any data-plane tag.
//!
//! The state machine here is deliberately free of `Ctx` plumbing: it owns
//! the sequence/stash/retention bookkeeping and nothing else, so it can be
//! unit-tested without a machine. The driving logic (when to NACK, how the
//! control frames travel) lives in [`crate::ctx`]; the protocol invariants
//! are documented in DESIGN §14.

use crate::ctx::Envelope;
use crate::pool::Pool;
use std::collections::{BTreeMap, VecDeque};

/// Stats tag for all reliable-delivery traffic: acks, nacks, and resends.
/// Numerically `9 * pilut_core::dist::exchange::tags::STRIDE` — the core
/// crate names it `"ack"`; `par` cannot depend on core, so the value is
/// duplicated here (the tag-namespace test in core pins the two together).
pub const ACK_TAG: u64 = 9 << 40;

/// Stats tag (and wire-tag base — the epoch is added) of the rank-loss
/// recovery agreement ring. Core names it `"recover"`.
pub const RECOVER_TAG: u64 = 10 << 40;

/// How a raw data frame read off the wire relates to its link's sequence.
pub(crate) enum Ingress {
    /// In order: deliver this frame (and any consecutive stashed
    /// successors, returned separately).
    Deliver,
    /// Seq below expected: an absorbed duplicate or retransmission.
    Duplicate,
    /// Seq above expected: parked until the gap below it fills.
    Stashed,
}

/// Per-link sequencing state for one rank. Indexed by peer rank on both
/// the send side (retention) and the receive side (expected/stash).
pub(crate) struct RelState {
    /// Next sequence number to assign per destination (sequences start at 1).
    next_seq: Vec<u64>,
    /// Next expected sequence number per source.
    expected: Vec<u64>,
    /// Out-of-order frames parked per source until the gap below them fills.
    stash: Vec<BTreeMap<u64, Envelope>>,
    /// Sent-and-unacknowledged frames per destination, ascending seq.
    retained: Vec<VecDeque<Envelope>>,
    /// In-order deliveries per source since the last cumulative ACK.
    since_ack: Vec<u64>,
}

/// Cumulative-ACK cadence: one ACK per this many in-order deliveries on a
/// link. Bounds sender retention at roughly this many frames per link —
/// which is also why it is public: the registered-buffer pool must warm
/// each link deep enough to cover the retention window, or the steady
/// state allocates every frame the window holds hostage.
pub const ACK_EVERY: u64 = 64;

impl RelState {
    pub(crate) fn new(p: usize) -> Self {
        RelState {
            next_seq: vec![1; p],
            expected: vec![1; p],
            stash: (0..p).map(|_| BTreeMap::new()).collect(),
            retained: (0..p).map(|_| VecDeque::new()).collect(),
            since_ack: vec![0; p],
        }
    }

    /// Assigns the next sequence number on the link to `to`.
    pub(crate) fn assign(&mut self, to: usize) -> u64 {
        let s = self.next_seq[to];
        self.next_seq[to] += 1;
        s
    }

    /// Retains a sent frame until its link's cumulative ACK passes it.
    pub(crate) fn retain(&mut self, env: Envelope) {
        self.retained[env.to].push_back(env);
    }

    /// Applies a cumulative ACK: everything on the link to `from` with
    /// `seq <= upto` is delivered and can be forgotten. Released frames
    /// are [`recycle`](crate::payload::Payload::recycle)d, not just
    /// dropped: by ACK time the receiver has long read and released its
    /// handle, so retention holds the *last* reference to the payload —
    /// for pooled replay buffers this is the moment the buffer returns to
    /// the registered pool instead of dying with the frame.
    pub(crate) fn on_ack(&mut self, from: usize, upto: u64, pool: &Pool) {
        let q = &mut self.retained[from];
        while q.front().is_some_and(|e| e.seq.is_some_and(|s| s <= upto)) {
            if let Some(env) = q.pop_front() {
                env.payload.recycle(pool);
            }
        }
    }

    /// Clones of the retained frames on the link to `peer` with
    /// `seq >= from_seq`, in sequence order — the NACK response.
    pub(crate) fn resend_from(&self, peer: usize, from_seq: u64) -> Vec<Envelope> {
        self.retained[peer]
            .iter()
            .filter(|e| e.seq.is_some_and(|s| s >= from_seq))
            .cloned()
            .collect()
    }

    /// All retained (never-acknowledged) frames, for the exit flush: a rank
    /// leaving the machine re-ships its unacknowledged tail so a frame
    /// dropped after the receiver's last NACK window cannot strand it.
    /// Receivers discard the re-shipped frames they already delivered.
    pub(crate) fn unacked(&self) -> Vec<Envelope> {
        self.retained.iter().flatten().cloned().collect()
    }

    /// Classifies a raw data frame against its link sequence and updates
    /// the link state. On [`Ingress::Deliver`] the caller must also drain
    /// [`RelState::release`] for the consecutive stashed successors.
    pub(crate) fn ingress(&mut self, env: &Envelope) -> Ingress {
        let Some(seq) = env.seq else {
            return Ingress::Deliver; // unsequenced (control/self) — pass through
        };
        let from = env.from;
        if seq < self.expected[from] {
            return Ingress::Duplicate;
        }
        if seq > self.expected[from] {
            return Ingress::Stashed;
        }
        self.expected[from] += 1;
        self.since_ack[from] += 1;
        Ingress::Deliver
    }

    /// Parks an out-of-order frame (idempotent for duplicate stashes).
    pub(crate) fn park(&mut self, env: Envelope) {
        #[expect(clippy::expect_used, reason = "a stashed frame carries its sequence")]
        let seq = env.seq.expect("stashed frames carry a sequence number");
        self.stash[env.from].entry(seq).or_insert(env);
    }

    /// Releases the consecutive run of stashed frames now deliverable on
    /// the link from `from`, advancing the expectation past each.
    pub(crate) fn release(&mut self, from: usize) -> Vec<Envelope> {
        let mut out = Vec::new();
        while let Some(env) = self.stash[from].remove(&self.expected[from]) {
            self.expected[from] += 1;
            self.since_ack[from] += 1;
            out.push(env);
        }
        out
    }

    /// True when the ACK cadence says the link from `from` deserves a
    /// cumulative ACK now; resets the cadence counter.
    pub(crate) fn ack_due(&mut self, from: usize) -> bool {
        if self.since_ack[from] >= ACK_EVERY {
            self.since_ack[from] = 0;
            true
        } else {
            false
        }
    }

    /// Highest delivered sequence number on the link from `from` — the
    /// cumulative-ACK value.
    pub(crate) fn delivered_upto(&self, from: usize) -> u64 {
        self.expected[from] - 1
    }

    /// Next expected sequence per source — published at rank exit so the
    /// machine's late leak sweep can tell an absorbed retransmission
    /// (seq below expected) from a genuinely undelivered frame.
    pub(crate) fn expected_snapshot(&self) -> Vec<u64> {
        self.expected.clone()
    }

    /// Sources with a parked gap right now.
    pub(crate) fn gapped_sources(&self) -> Vec<usize> {
        (0..self.stash.len())
            .filter(|&s| !self.stash[s].is_empty())
            .collect()
    }

    /// Frames still parked behind a gap — genuine leaks if present at exit.
    pub(crate) fn drain_stash(&mut self) -> Vec<Envelope> {
        let mut out = Vec::new();
        for s in &mut self.stash {
            out.extend(std::mem::take(s).into_values());
        }
        out
    }

    /// Forgets everything: sequences, stashes, retention, cadence. Used by
    /// rank-loss recovery when a new epoch begins — the whole in-flight
    /// state of the old world is garbage by construction.
    pub(crate) fn reset(&mut self) {
        let p = self.next_seq.len();
        *self = RelState::new(p);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::payload::Payload;

    fn env(from: usize, to: usize, seq: u64) -> Envelope {
        Envelope {
            from,
            to,
            tag: 7,
            time: 0.0,
            coll_kind: None,
            vclock: None,
            seq: Some(seq),
            epoch: 0,
            payload: Payload::u64s(vec![seq]),
        }
    }

    #[test]
    fn in_order_frames_deliver_and_advance() {
        let mut rel = RelState::new(2);
        assert!(matches!(rel.ingress(&env(1, 0, 1)), Ingress::Deliver));
        assert!(matches!(rel.ingress(&env(1, 0, 2)), Ingress::Deliver));
        assert_eq!(rel.delivered_upto(1), 2);
    }

    #[test]
    fn duplicates_are_discarded_and_gaps_parked() {
        let mut rel = RelState::new(2);
        assert!(matches!(rel.ingress(&env(1, 0, 1)), Ingress::Deliver));
        // Replay of seq 1: duplicate.
        assert!(matches!(rel.ingress(&env(1, 0, 1)), Ingress::Duplicate));
        // Seq 3 with 2 missing: parked; nothing released yet.
        let e3 = env(1, 0, 3);
        assert!(matches!(rel.ingress(&e3), Ingress::Stashed));
        rel.park(e3);
        assert_eq!(rel.gapped_sources(), vec![1]);
        assert!(rel.release(1).is_empty());
        // Seq 2 fills the gap: it delivers and 3 is released behind it.
        assert!(matches!(rel.ingress(&env(1, 0, 2)), Ingress::Deliver));
        let released = rel.release(1);
        assert_eq!(released.len(), 1);
        assert_eq!(released[0].seq, Some(3));
        assert!(rel.gapped_sources().is_empty());
        assert_eq!(rel.delivered_upto(1), 3);
    }

    #[test]
    fn retention_serves_nacks_until_acked() {
        let mut rel = RelState::new(3);
        for s in 1..=4 {
            let mut e = env(0, 2, 0);
            e.seq = Some(rel.assign(2));
            assert_eq!(e.seq, Some(s));
            rel.retain(e);
        }
        assert_eq!(rel.resend_from(2, 3).len(), 2);
        rel.on_ack(2, 3, &Pool::default());
        assert_eq!(rel.resend_from(2, 1).len(), 1);
        assert_eq!(rel.unacked().len(), 1);
        rel.on_ack(2, 4, &Pool::default());
        assert!(rel.unacked().is_empty());
    }

    #[test]
    fn ack_cadence_fires_every_window() {
        let mut rel = RelState::new(2);
        for s in 1..=ACK_EVERY {
            assert!(matches!(rel.ingress(&env(1, 0, s)), Ingress::Deliver));
        }
        assert!(rel.ack_due(1));
        assert!(!rel.ack_due(1), "cadence counter reset after the ack");
    }

    #[test]
    fn reset_forgets_everything() {
        let mut rel = RelState::new(2);
        let mut e = env(0, 1, 0);
        e.seq = Some(rel.assign(1));
        rel.retain(e);
        let g = env(1, 0, 5);
        assert!(matches!(rel.ingress(&g), Ingress::Stashed));
        rel.park(g);
        rel.reset();
        assert!(rel.unacked().is_empty());
        assert!(rel.gapped_sources().is_empty());
        assert_eq!(rel.assign(1), 1, "sequences restart at 1");
    }
}
