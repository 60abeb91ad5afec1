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
//! the wire. Two envelopes addressed to the same `(receiver, tag)` are a
//! *match-order race* when neither one's **match** happens-before the
//! other's **send** — under some legal schedule both are in flight at once,
//! and then:
//!
//! * if they come from the **same sender**, the VM's wire contract (DESIGN
//!   §2.7/§10: delivery order between two in-flight messages with the same
//!   `(sender, tag)` is undefined — the `reorder` fault exploits it) lets
//!   them swap, so even a directed `recv(from, tag)` can bind the payloads
//!   to the wrong receives;
//! * if they come from **different senders** and at least one was matched by
//!   an order-*sensitive* any-source receive, the wildcard can match either
//!   one first.
//!
//! Either way the bytes each receive returns depend on scheduling — exactly
//! the nondeterminism that breaks the paper's "parallel factor is exactly
//! the serial one" claim and the bitwise-reproducibility contract
//! (DESIGN §11). The detector reports the first such pair with both
//! envelopes, their source ops, and the clock evidence, then aborts the run
//! through the commcheck board like any other protocol violation.
//!
//! Detection is *receiver-local*: each rank compares every accepted envelope
//! against a bounded per-tag history of earlier accepts ([`MAX_PER_TAG`] per
//! tag, [`MAX_TAGS`] tags — far above what any protocol in this repository
//! keeps concurrently in one namespace, since data-plane rounds and
//! collective calls each take a fresh tag). No cross-thread state is
//! involved beyond the stamps already riding the envelopes, so the checked
//! machine gains no new lock traffic. Production [`crate::Machine::run`]
//! never allocates a clock — tracking is confined to checked mode.

use std::collections::{HashMap, VecDeque};

/// Accepted-envelope history kept per tag. Protocols here put at most one
/// message per peer in one namespace round, so 64 covers p ≤ 64 with room;
/// a race separated by more than 64 matched messages on one tag is missed
/// (documented sanitizer bound, not a soundness claim).
const MAX_PER_TAG: usize = 64;

/// Distinct tags tracked before the history resets. Per-round wire tags
/// retire as rounds advance, so stale entries are dead weight; resetting
/// forgets them wholesale rather than growing without bound.
const MAX_TAGS: usize = 8192;

/// How a receive selected the envelope it matched — which concurrent pairs
/// constitute a race depends on it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum RecvMode {
    /// `recv(from, tag)`: matching filters by source; only same-sender
    /// overtaking can change what this receive returns.
    Directed,
    /// Any-source receive whose consumer is order-sensitive: a concurrent
    /// envelope from any other sender could have matched instead.
    Wildcard,
    /// Any-source receive whose consumer canonicalizes the batch (the
    /// sparse all-to-all sorts by source before returning), so cross-sender
    /// arrival order is immaterial. Same-sender overtaking still races.
    WildcardUnordered,
}

impl RecvMode {
    fn describe(self, from: usize) -> String {
        match self {
            RecvMode::Directed => format!("recv(from={from})"),
            RecvMode::Wildcard => "any-source recv".to_string(),
            RecvMode::WildcardUnordered => "any-source recv (order-insensitive)".to_string(),
        }
    }
}

/// One accepted envelope, as remembered for later concurrency checks.
struct AcceptRecord {
    from: usize,
    /// The sender's vector clock stamped on the envelope.
    send_vc: Vec<u64>,
    /// The receiver's own clock component right after this accept — the
    /// accept event's index in the receiver's local event order.
    accept_event: u64,
    mode: RecvMode,
}

/// Per-rank happens-before state. Owned by the rank's `Ctx`; allocated only
/// in checked mode.
pub(crate) struct HbState {
    me: usize,
    /// This rank's vector clock. `clock[me]` counts local communication
    /// events (sends and accepts); other components are the latest known
    /// event counts of the other ranks, learned through received stamps.
    clock: Vec<u64>,
    history: HashMap<u64, VecDeque<AcceptRecord>>,
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

    /// This rank's own clock component — the local index of the most
    /// recent communication event. Read right after [`HbState::note_accept`]
    /// it is that accept's event index (the trace recorder's use).
    pub(crate) fn local_event(&self) -> u64 {
        self.clock[self.me]
    }

    /// Registers the accept of an envelope `(from, tag, send_vc)` matched
    /// under `mode`: joins the stamp into this rank's clock, checks the
    /// tag's accept history for a happens-before-concurrent sibling, and
    /// records the accept. Returns the race report, if any.
    pub(crate) fn note_accept(
        &mut self,
        tag: u64,
        from: usize,
        send_vc: Option<&[u64]>,
        mode: RecvMode,
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
        let report = self
            .history
            .get(&tag)
            .and_then(|h| h.iter().find(|h| races(h, from, send_vc, mode, self.me)))
            .map(|h| self.report(tag, h, from, send_vc, mode, accept_event));
        if self.history.len() >= MAX_TAGS && !self.history.contains_key(&tag) {
            self.history.clear();
        }
        let entry = self.history.entry(tag).or_default();
        if entry.len() >= MAX_PER_TAG {
            entry.pop_front();
        }
        entry.push_back(AcceptRecord {
            from,
            send_vc: send_vc.to_vec(),
            accept_event,
            mode,
        });
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
        mode: RecvMode,
        accept_event: u64,
    ) -> String {
        let me = self.me;
        let cause = if earlier.from == from {
            "same-sender envelopes may be delivered in either order (the wire \
             contract leaves same-(sender, tag) ordering undefined)"
        } else {
            "an order-sensitive any-source receive may match either envelope \
             first"
        };
        format!(
            "commcheck: match-order race on tag {tag:#x} at rank {me} —\n\
             \x20 envelope A: rank {} -> rank {me}, send op #{} on rank {}, matched as rank-{me} event #{} via {}\n\
             \x20 envelope B: rank {} -> rank {me}, send op #{} on rank {}, matched as rank-{me} event #{} via {}\n\
             \x20 happens-before evidence: B's send clock knows only {} of rank {me}'s events,\n\
             \x20   but A was matched at rank-{me} event #{} — neither match happens-before the\n\
             \x20   other's send, so a legal schedule swaps which receive gets which payload; {cause}.\n\
             \x20 A send clock: {:?}\n\
             \x20 B send clock: {:?}\n",
            earlier.from,
            earlier.send_vc.get(earlier.from).copied().unwrap_or(0),
            earlier.from,
            earlier.accept_event,
            earlier.mode.describe(earlier.from),
            from,
            send_vc.get(from).copied().unwrap_or(0),
            from,
            accept_event,
            mode.describe(from),
            send_vc.get(me).copied().unwrap_or(0),
            earlier.accept_event,
            earlier.send_vc,
            send_vc,
        )
    }
}

/// Is the new accept `(from, send_vc, mode)` a match-order race against the
/// earlier accept `h` on the same `(receiver, tag)`?
///
/// Ordered iff the earlier **match** happens-before the new **send**: the
/// new envelope's stamp carries at least `h.accept_event` of the receiver's
/// own events (the accept bumped the receiver's component, and only a
/// causal path through the receiver can teach the sender that value).
/// Otherwise the two envelopes are concurrent, and the pair races when the
/// modes make the match assignment scheduling-dependent.
fn races(h: &AcceptRecord, from: usize, send_vc: &[u64], mode: RecvMode, me: usize) -> bool {
    if send_vc.get(me).copied().unwrap_or(0) >= h.accept_event {
        return false; // h's match happens-before the new send: forced order.
    }
    if h.from == from {
        // Same-sender overtaking — racy on the wire unless it is a local
        // self-send (self-sends bypass the wire and stay FIFO).
        return from != me;
    }
    // Cross-sender: only an order-sensitive wildcard consumer can bind the
    // wrong payload; directed receives filter by source, and the
    // order-insensitive all-to-all canonicalizes its batch.
    matches!(h.mode, RecvMode::Wildcard) || matches!(mode, RecvMode::Wildcard)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_sender_concurrent_pair_races() {
        let mut hb = HbState::new(1, 2);
        // Rank 0 sends twice back-to-back: stamps [1,0] then [2,0].
        assert!(hb
            .note_accept(7, 0, Some(&[1, 0]), RecvMode::Directed)
            .is_none());
        let report = hb.note_accept(7, 0, Some(&[2, 0]), RecvMode::Directed);
        let report = report.expect("second concurrent same-sender envelope must race");
        assert!(report.contains("match-order race"), "{report}");
        assert!(report.contains("tag 0x7"), "{report}");
    }

    #[test]
    fn acknowledged_resend_is_ordered() {
        let mut hb = HbState::new(1, 2);
        assert!(hb
            .note_accept(7, 0, Some(&[1, 0]), RecvMode::Directed)
            .is_none());
        // The accept above was rank 1's event #1; a stamp carrying it proves
        // the sender learned of the match before sending again.
        let ack_vc = hb.stamp_send(); // rank 1 replies (event #2)
        assert!(ack_vc[1] >= 1);
        assert!(hb
            .note_accept(7, 0, Some(&[2, 2]), RecvMode::Directed)
            .is_none());
    }

    #[test]
    fn cross_sender_directed_pair_is_fine() {
        let mut hb = HbState::new(0, 3);
        assert!(hb
            .note_accept(9, 1, Some(&[0, 1, 0]), RecvMode::Directed)
            .is_none());
        assert!(hb
            .note_accept(9, 2, Some(&[0, 0, 1]), RecvMode::Directed)
            .is_none());
    }

    #[test]
    fn cross_sender_sensitive_wildcard_races() {
        let mut hb = HbState::new(0, 3);
        assert!(hb
            .note_accept(9, 1, Some(&[0, 1, 0]), RecvMode::Wildcard)
            .is_none());
        let report = hb.note_accept(9, 2, Some(&[0, 0, 1]), RecvMode::Wildcard);
        assert!(report.is_some());
    }

    #[test]
    fn cross_sender_unordered_wildcard_is_suppressed() {
        let mut hb = HbState::new(0, 3);
        assert!(hb
            .note_accept(9, 1, Some(&[0, 1, 0]), RecvMode::WildcardUnordered)
            .is_none());
        assert!(hb
            .note_accept(9, 2, Some(&[0, 0, 1]), RecvMode::WildcardUnordered)
            .is_none());
    }

    #[test]
    fn self_sends_never_race() {
        let mut hb = HbState::new(0, 2);
        assert!(hb
            .note_accept(3, 0, Some(&[1, 0]), RecvMode::Directed)
            .is_none());
        assert!(hb
            .note_accept(3, 0, Some(&[2, 0]), RecvMode::Directed)
            .is_none());
    }

    #[test]
    fn per_tag_eviction_forgets_the_oldest_accept() {
        // Documented sanitizer bound: a race separated by more than
        // MAX_PER_TAG matched messages on one tag is missed. Set up a pair
        // that races when adjacent, then push the earlier record out of the
        // window and confirm the detector (by design) stays quiet.
        let racy_a = [0u64, 1, 0, 0]; // rank 1's first send, Wildcard-matched
        let racy_b = [0u64, 0, 1, 0]; // rank 2's first send, concurrent with A's match

        let mut control = HbState::new(0, 4);
        assert!(control
            .note_accept(11, 1, Some(&racy_a), RecvMode::Wildcard)
            .is_none());
        assert!(
            control
                .note_accept(11, 2, Some(&racy_b), RecvMode::Directed)
                .is_some(),
            "adjacent in the window, the pair must be reported"
        );

        let mut hb = HbState::new(0, 4);
        assert!(hb
            .note_accept(11, 1, Some(&racy_a), RecvMode::Wildcard)
            .is_none());
        // MAX_PER_TAG order-insensitive accepts from rank 3, each stamped
        // with the latest of rank 0's accept events so none of them races
        // with anything still in the window.
        for i in 0..MAX_PER_TAG as u64 {
            let vc = [i + 1, 0, 0, i + 1];
            assert!(hb
                .note_accept(11, 3, Some(&vc), RecvMode::WildcardUnordered)
                .is_none());
        }
        assert_eq!(hb.history[&11].len(), MAX_PER_TAG, "window stays full");
        assert_eq!(hb.history[&11].front().unwrap().from, 3, "A was evicted");
        assert!(
            hb.note_accept(11, 2, Some(&racy_b), RecvMode::Directed)
                .is_none(),
            "the race partner left the window: missed, per the documented bound"
        );
    }

    #[test]
    fn tag_table_resets_wholesale_at_max_tags() {
        let mut hb = HbState::new(1, 2);
        for tag in 0..MAX_TAGS as u64 {
            assert!(hb
                .note_accept(tag, 0, Some(&[tag + 1, 0]), RecvMode::Directed)
                .is_none());
        }
        assert_eq!(hb.history.len(), MAX_TAGS);
        // An accept on a tag already tracked does not trigger the reset.
        let revisit = MAX_TAGS as u64 / 2;
        let after_all = [0, hb.local_event()]; // ordered after every accept so far
        assert!(hb
            .note_accept(revisit, 0, Some(&after_all), RecvMode::Directed)
            .is_none());
        assert_eq!(hb.history.len(), MAX_TAGS, "existing tag keeps the table");
        // A genuinely new tag past the cap drops the whole table: stale
        // per-round tags are dead weight, and forgetting them wholesale is
        // the documented trade against unbounded growth.
        assert!(hb
            .note_accept(MAX_TAGS as u64 + 7, 0, Some(&[1, 0]), RecvMode::Directed)
            .is_none());
        assert_eq!(hb.history.len(), 1, "table reset to just the new tag");
        assert!(hb.history.contains_key(&(MAX_TAGS as u64 + 7)));
        // The reset also forgets would-be race partners on old tags — the
        // same documented miss as the per-tag window.
        assert!(hb
            .note_accept(0, 0, Some(&[1, 0]), RecvMode::Directed)
            .is_none());
    }

    #[test]
    fn mixed_mode_cross_sender_edges() {
        // A concurrent cross-sender pair races iff at least one side was an
        // order-*sensitive* any-source match — whichever side it is.
        let a = [0u64, 1, 0];
        let b = [0u64, 0, 1];
        let cases = [
            (RecvMode::Wildcard, RecvMode::Directed, true),
            (RecvMode::Directed, RecvMode::Wildcard, true),
            (RecvMode::Wildcard, RecvMode::WildcardUnordered, true),
            (RecvMode::WildcardUnordered, RecvMode::Wildcard, true),
            (RecvMode::Directed, RecvMode::WildcardUnordered, false),
            (RecvMode::WildcardUnordered, RecvMode::Directed, false),
        ];
        for (first, second, expect_race) in cases {
            let mut hb = HbState::new(0, 3);
            assert!(hb.note_accept(9, 1, Some(&a), first).is_none());
            let report = hb.note_accept(9, 2, Some(&b), second);
            assert_eq!(
                report.is_some(),
                expect_race,
                "first={first:?} second={second:?}"
            );
        }
    }

    #[test]
    fn unstamped_envelopes_are_ignored() {
        // Envelopes without a clock (not sent inside this checked run) carry
        // no evidence: nothing joins, nothing is recorded, nothing races.
        let mut hb = HbState::new(1, 2);
        assert!(hb.note_accept(7, 0, None, RecvMode::Wildcard).is_none());
        assert!(hb.history.is_empty());
        assert_eq!(hb.local_event(), 0, "no event was charged");
        // A later stamped pair still gets a clean first-accept baseline.
        assert!(hb
            .note_accept(7, 0, Some(&[1, 0]), RecvMode::Directed)
            .is_none());
    }

    #[test]
    fn history_is_bounded_per_tag() {
        let mut hb = HbState::new(1, 2);
        // Fill the tag history with ordered accepts (each send knows the
        // previous accept), then confirm the deque never exceeds the cap.
        for i in 0..(MAX_PER_TAG as u64 + 10) {
            let vc = vec![i + 1, 2 * i];
            assert!(hb
                .note_accept(5, 0, Some(&vc), RecvMode::Directed)
                .is_none());
        }
        assert!(hb.history[&5].len() <= MAX_PER_TAG);
    }
}
