//! Happens-before instrumentation for checked mode: per-rank vector clocks
//! and the match-order race detector.
//!
//! Every envelope sent under [`crate::Machine::run_checked`] is stamped with
//! the sender's **vector clock** (one counter per rank, counting that rank's
//! communication events). Receiving joins the stamp into the receiver's
//! clock, so clock dominance is exactly the happens-before relation of the
//! run: event `a` happened-before event `b` iff `VC(a) ≤ VC(b)` component-wise.
//!
//! The property being checked is **match-order determinism**: which envelope
//! a receive matches must be forced by the program, not by the scheduler or
//! the wire. Every receive names its source except `Ctx::exchange`'s
//! gather, which sorts what it gathers by source, so the order in which two
//! *different* senders' envelopes arrive is never observable (DESIGN
//! §11.1). What the wire can still swap is two envelopes of **one** sender:
//! the VM's wire contract (DESIGN §2.7/§10) leaves the delivery order of
//! two in-flight messages with the same `(sender, receiver, tag)` undefined
//! — the `reorder` fault exploits it — so two receives on that triple can
//! bind the payloads the wrong way round. Such a pair is a *match-order
//! race* when the earlier envelope's **match** does not happen-before the
//! later one's **send**: under some legal schedule both are in flight at
//! once. The bytes each receive returns then depend on scheduling — exactly
//! the nondeterminism that breaks the paper's "parallel factor is exactly
//! the serial one" claim and the bitwise-reproducibility contract
//! (DESIGN §11). The detector reports the first such pair with both
//! envelopes, their source ops, and the clock evidence, then aborts the run
//! through the commcheck board like any other protocol violation.
//!
//! Detection is *receiver-local* and exact: each rank keeps one record per
//! `(tag, sender)`, the latest accept. Accept events grow along the
//! receiver's local order, so a send that follows the latest earlier match
//! from its sender follows every earlier one, and a send that races with
//! any earlier match races with the latest. The table resets when it holds
//! [`MAX_PAIRS`] pairs (per-round wire tags retire as rounds advance, and
//! collective calls each take a fresh tag). No cross-thread state is
//! involved beyond the stamps already riding the envelopes, so the checked
//! machine gains no new lock traffic. Production [`crate::Machine::run`]
//! never allocates a clock — tracking is confined to checked mode.

use std::collections::HashMap;

/// Distinct `(tag, sender)` pairs tracked before the history resets.
/// Per-round wire tags retire as rounds advance, so stale entries are dead
/// weight; resetting forgets them wholesale rather than growing without
/// bound.
const MAX_PAIRS: usize = 8192;

/// The latest accepted envelope of one `(tag, sender)` pair, as remembered
/// for the next accept's concurrency check.
struct AcceptRecord {
    /// The sender's vector clock stamped on the envelope.
    send_vc: Vec<u64>,
    /// The receiver's own clock component right after this accept — the
    /// accept event's index in the receiver's local event order.
    accept_event: u64,
}

/// Per-rank happens-before state. Owned by the rank's `Ctx`; allocated only
/// in checked mode.
pub(crate) struct HbState {
    me: usize,
    /// This rank's vector clock. `clock[me]` counts local communication
    /// events (sends and accepts); other components are the latest known
    /// event counts of the other ranks, learned through received stamps.
    clock: Vec<u64>,
    /// The latest accept per `(tag, sender)`.
    history: HashMap<(u64, usize), AcceptRecord>,
}

impl HbState {
    pub(crate) fn new(me: usize, nprocs: usize) -> Self {
        HbState {
            me,
            clock: vec![0; nprocs],
            history: HashMap::new(),
        }
    }

    /// Registers a send event and returns the stamp to ride the envelope.
    pub(crate) fn stamp_send(&mut self) -> Vec<u64> {
        self.clock[self.me] += 1;
        self.clock.clone()
    }

    /// Registers the accept of an envelope `(from, tag, send_vc)`: joins the
    /// stamp into this rank's clock, checks it against the latest earlier
    /// accept from the same sender on the same tag, and records it as the
    /// pair's latest. Returns the race report, if any.
    pub(crate) fn note_accept(
        &mut self,
        tag: u64,
        from: usize,
        send_vc: Option<&[u64]>,
    ) -> Option<String> {
        let Some(send_vc) = send_vc else {
            // Unstamped envelope: nothing to join or compare (cannot happen
            // for envelopes sent inside one checked run).
            return None;
        };
        for (slot, &got) in self.clock.iter_mut().zip(send_vc) {
            *slot = (*slot).max(got);
        }
        self.clock[self.me] += 1;
        let accept_event = self.clock[self.me];
        let key = (tag, from);
        // Self-sends bypass the wire and stay FIFO. Otherwise the pair is
        // ordered iff the earlier match happens-before the new send: the
        // new stamp carries at least the earlier accept's event of this
        // rank (the accept bumped this rank's component, and only a causal
        // path through this rank can teach the sender that value).
        let report = self
            .history
            .get(&key)
            .filter(|h| from != self.me && send_vc[self.me] < h.accept_event)
            .map(|h| self.report(tag, h, from, send_vc, accept_event));
        if self.history.len() >= MAX_PAIRS && !self.history.contains_key(&key) {
            self.history.clear();
        }
        self.history.insert(
            key,
            AcceptRecord {
                send_vc: send_vc.to_vec(),
                accept_event,
            },
        );
        report
    }

    /// Formats the minimized race report: the two envelopes, their source
    /// ops (the send's index in the sender's local event order), and the
    /// clock evidence that nothing orders the later send after the earlier
    /// match.
    fn report(
        &self,
        tag: u64,
        earlier: &AcceptRecord,
        from: usize,
        send_vc: &[u64],
        accept_event: u64,
    ) -> String {
        let me = self.me;
        format!(
            "commcheck: match-order race on tag {tag:#x} at rank {me} —\n\
             \x20 envelope A: rank {from} -> rank {me}, send op #{} on rank {from}, matched as rank-{me} event #{}\n\
             \x20 envelope B: rank {from} -> rank {me}, send op #{} on rank {from}, matched as rank-{me} event #{}\n\
             \x20 happens-before evidence: B's send clock knows only {} of rank {me}'s events,\n\
             \x20   but A was matched at rank-{me} event #{} — neither match happens-before the\n\
             \x20   other's send, so a legal schedule swaps which receive gets which payload; \
             same-sender envelopes may be delivered in either order (the wire contract leaves \
             same-(sender, tag) ordering undefined).\n\
             \x20 A send clock: {:?}\n\
             \x20 B send clock: {:?}\n",
            earlier.send_vc[from],
            earlier.accept_event,
            send_vc[from],
            accept_event,
            send_vc[me],
            earlier.accept_event,
            earlier.send_vc,
            send_vc,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl HbState {
        /// This rank's own clock component: the local index of its most
        /// recent communication event.
        fn local_event(&self) -> u64 {
            self.clock[self.me]
        }
    }

    #[test]
    fn same_sender_concurrent_pair_races() {
        let mut hb = HbState::new(1, 2);
        // Rank 0 sends twice back-to-back: stamps [1,0] then [2,0].
        assert!(hb.note_accept(7, 0, Some(&[1, 0])).is_none());
        let report = hb.note_accept(7, 0, Some(&[2, 0]));
        let report = report.expect("second concurrent same-sender envelope must race");
        assert!(report.contains("match-order race"), "{report}");
        assert!(report.contains("tag 0x7"), "{report}");
    }

    #[test]
    fn acknowledged_resend_is_ordered() {
        let mut hb = HbState::new(1, 2);
        assert!(hb.note_accept(7, 0, Some(&[1, 0])).is_none());
        // The accept above was rank 1's event #1; a stamp carrying it proves
        // the sender learned of the match before sending again.
        let ack_vc = hb.stamp_send(); // rank 1 replies (event #2)
        assert!(ack_vc[1] >= 1);
        assert!(hb.note_accept(7, 0, Some(&[2, 2])).is_none());
    }

    #[test]
    fn cross_sender_directed_pair_is_fine() {
        let mut hb = HbState::new(0, 3);
        assert!(hb.note_accept(9, 1, Some(&[0, 1, 0])).is_none());
        assert!(hb.note_accept(9, 2, Some(&[0, 0, 1])).is_none());
    }

    #[test]
    fn self_sends_never_race() {
        let mut hb = HbState::new(0, 2);
        assert!(hb.note_accept(3, 0, Some(&[1, 0])).is_none());
        assert!(hb.note_accept(3, 0, Some(&[2, 0])).is_none());
    }

    #[test]
    fn tag_table_resets_wholesale_at_max_tags() {
        let mut hb = HbState::new(1, 2);
        for tag in 0..MAX_PAIRS as u64 {
            assert!(hb.note_accept(tag, 0, Some(&[tag + 1, 0])).is_none());
        }
        assert_eq!(hb.history.len(), MAX_PAIRS);
        // An accept on a pair already tracked does not trigger the reset.
        let revisit = MAX_PAIRS as u64 / 2;
        let after_all = [0, hb.local_event()]; // ordered after every accept so far
        assert!(hb.note_accept(revisit, 0, Some(&after_all)).is_none());
        assert_eq!(hb.history.len(), MAX_PAIRS, "existing pair keeps the table");
        // A genuinely new pair past the cap drops the whole table: stale
        // per-round tags are dead weight, and forgetting them wholesale is
        // the documented trade against unbounded growth.
        let fresh = MAX_PAIRS as u64 + 7;
        assert!(hb.note_accept(fresh, 0, Some(&[1, 0])).is_none());
        assert_eq!(hb.history.len(), 1, "table reset to just the new pair");
        assert!(hb.history.contains_key(&(fresh, 0)));
        // The reset also forgets would-be race partners on old tags.
        assert!(hb.note_accept(0, 0, Some(&[1, 0])).is_none());
    }

    #[test]
    fn unstamped_envelopes_are_ignored() {
        // Envelopes without a clock (not sent inside this checked run) carry
        // no evidence: nothing joins, nothing is recorded, nothing races.
        let mut hb = HbState::new(1, 2);
        assert!(hb.note_accept(7, 0, None).is_none());
        assert!(hb.history.is_empty());
        assert_eq!(hb.local_event(), 0, "no event was charged");
        // A later stamped pair still gets a clean first-accept baseline.
        assert!(hb.note_accept(7, 0, Some(&[1, 0])).is_none());
    }
}
