//! Deterministic schedule control for the model checker: forced wildcard
//! match order, plus a trace of every wildcard accept.
//!
//! `xtask modelcheck` proves schedule-independence by *replaying* the SPMD
//! program under every inequivalent delivery order (see DESIGN §12). The
//! mechanism is receiver-side: a [`SchedulePlan`] carries, per
//! `(rank, tag)`, a script of source ranks that the rank's any-source
//! receives must match in order. While a script entry is pending, the
//! receive behaves as if directed at the scripted source — every other
//! candidate envelope stays buffered exactly as a non-matching tag would,
//! the same envelope-hold idea the fault layer's `Reorder` action uses on
//! the send side. Once a tag's script drains, matching is unconstrained
//! again. Directed receives are never affected: their match is already
//! forced by the program.
//!
//! Forcing composes with checked mode rather than replacing it: the
//! happens-before detector still sees the receive's true wildcard mode, so
//! a forced schedule that exposes a match-order race is diagnosed exactly
//! like an organically scheduled one, and the deadlock watchdog treats a
//! forced-but-never-sent source as an ordinary blocked receive.
//!
//! With `record` enabled the machine also logs a [`TraceEvent`] for every
//! wildcard accept, in one global accept order across ranks, carrying the
//! sender's vector clock and the receiver's local event index. Those two
//! stamps are what the model checker's branching oracle consumes: two
//! accepts on the same `(rank, tag)` from different sources commute unless
//! they are causally concurrent, and concurrency is decidable from the
//! recorded clocks alone.

use crate::hb::RecvMode;
use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Mutex};

/// How a traced receive selected its envelope — the public mirror of the
/// crate-private `RecvMode`, minus `Directed` (directed accepts are never
/// traced: their match is program-forced, so they cannot branch).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MatchKind {
    /// Order-sensitive any-source receive (`Ctx::recv_any`).
    AnySource,
    /// Any-source receive whose consumer canonicalizes the batch (the
    /// sparse all-to-all sorts by source), so cross-sender order is
    /// immaterial — but same-sender delivery order still matters.
    AnySourceUnordered,
}

/// Maps an accept's `RecvMode` to its traced [`MatchKind`]; `None` for
/// directed receives, which are not traced.
pub(crate) fn match_kind(mode: RecvMode) -> Option<MatchKind> {
    match mode {
        RecvMode::Directed => None,
        RecvMode::Wildcard => Some(MatchKind::AnySource),
        RecvMode::WildcardUnordered => Some(MatchKind::AnySourceUnordered),
    }
}

/// One recorded wildcard accept. Events are pushed in one global order
/// across all ranks (their index in [`SchedHandle::take_trace`]'s vector
/// is the order the accepts actually happened in this run).
#[derive(Clone, Debug)]
pub struct TraceEvent {
    /// The accepting rank.
    pub rank: usize,
    /// The matched tag (collective tags appear verbatim, sequence number
    /// and all — a replayed schedule must script them under the same tag).
    pub tag: u64,
    /// The matched envelope's source rank.
    pub from: usize,
    /// How the receive selected the envelope.
    pub mode: MatchKind,
    /// The sender's vector clock stamped on the envelope.
    pub send_vc: Vec<u64>,
    /// The receiver's own clock component right after the accept — its
    /// index in the receiver's local event order. Together with a later
    /// event's `send_vc`, this decides happens-before: the accept precedes
    /// a send iff `send_vc[rank] >= accept_event`.
    pub accept_event: u64,
}

/// A schedule-forcing script plus the trace-recording switch. Built by the
/// model checker, installed via [`crate::MachineBuilder::schedule`]
/// (which implies checked mode — forcing and tracing need vector clocks).
#[derive(Clone, Debug, Default)]
pub struct SchedulePlan {
    /// Per `(rank, tag)`: the sources this rank's wildcard receives on
    /// `tag` must match, in order. Drained scripts impose nothing.
    forced: HashMap<(usize, u64), VecDeque<usize>>,
    record: bool,
}

impl SchedulePlan {
    /// An empty plan: no forcing, no recording.
    pub fn new() -> Self {
        Self::default()
    }

    /// Enables or disables wildcard-accept tracing.
    pub fn record(mut self, on: bool) -> Self {
        self.record = on;
        self
    }

    /// Appends `src` to the script for `rank`'s wildcard receives on `tag`.
    pub fn force(mut self, rank: usize, tag: u64, src: usize) -> Self {
        self.forced.entry((rank, tag)).or_default().push_back(src);
        self
    }
}

/// Shared run state: the plan (read-only after install) and the global
/// accept trace.
struct SchedShared {
    plan: SchedulePlan,
    trace: Mutex<Vec<TraceEvent>>,
}

/// Handle onto one scheduled run: install a clone via
/// [`crate::MachineBuilder::schedule`], keep one to read the trace back
/// after the run with [`SchedHandle::take_trace`].
pub struct SchedHandle(Arc<SchedShared>);

impl Clone for SchedHandle {
    fn clone(&self) -> Self {
        SchedHandle(Arc::clone(&self.0))
    }
}

impl SchedHandle {
    /// Wraps a plan for installation into a machine run.
    pub fn new(plan: SchedulePlan) -> Self {
        SchedHandle(Arc::new(SchedShared {
            plan,
            trace: Mutex::new(Vec::new()),
        }))
    }

    /// Drains the recorded wildcard-accept trace, in global accept order.
    /// Empty when the plan did not enable recording (or nothing wildcard
    /// was accepted).
    pub fn take_trace(&self) -> Vec<TraceEvent> {
        // lint: allow(unwrap): trace pushes never panic while holding the lock
        std::mem::take(&mut *self.0.trace.lock().expect("trace lock poisoned"))
    }
}

/// Per-rank view of the schedule, owned by the rank's `Ctx`. The rank's
/// own forced scripts are extracted at construction so the hot forcing
/// path (`forced_source`) touches no shared state; only trace recording
/// takes the (low-traffic) global lock.
pub(crate) struct SchedSession {
    forced: HashMap<u64, VecDeque<usize>>,
    shared: Arc<SchedShared>,
}

impl SchedSession {
    pub(crate) fn new(handle: &SchedHandle, rank: usize) -> Self {
        let forced = handle
            .0
            .plan
            .forced
            .iter()
            .filter(|((r, _), _)| *r == rank)
            .map(|(&(_, tag), script)| (tag, script.clone()))
            .collect();
        SchedSession {
            forced,
            shared: Arc::clone(&handle.0),
        }
    }

    /// The source this rank's next wildcard receive on `tag` must match,
    /// if a script entry is pending.
    pub(crate) fn forced_source(&self, tag: u64) -> Option<usize> {
        self.forced.get(&tag).and_then(|q| q.front().copied())
    }

    /// Registers a wildcard accept: consumes the pending script entry for
    /// the tag (asserting the forced source was in fact matched) and
    /// appends to the global trace when recording.
    pub(crate) fn on_wildcard_accept(&mut self, ev: TraceEvent) {
        if let Some(script) = self.forced.get_mut(&ev.tag) {
            if let Some(forced) = script.pop_front() {
                assert_eq!(
                    forced, ev.from,
                    "schedule forcing violated: rank {} tag {:#x} matched source {} \
                     while the script demanded {}",
                    ev.rank, ev.tag, ev.from, forced
                );
                if script.is_empty() {
                    self.forced.remove(&ev.tag);
                }
            }
        }
        if self.shared.plan.record {
            let mut trace = self.shared.trace.lock();
            // lint: allow(unwrap): trace pushes never panic while holding the lock
            trace.as_mut().expect("trace lock poisoned").push(ev);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_scripts_are_per_rank_and_ordered() {
        let plan = SchedulePlan::new()
            .force(1, 7, 0)
            .force(1, 7, 2)
            .force(0, 7, 3);
        let handle = SchedHandle::new(plan);
        let mut s1 = SchedSession::new(&handle, 1);
        let s0 = SchedSession::new(&handle, 0);
        assert_eq!(s1.forced_source(7), Some(0));
        assert_eq!(s0.forced_source(7), Some(3));
        assert_eq!(s1.forced_source(9), None);
        s1.on_wildcard_accept(TraceEvent {
            rank: 1,
            tag: 7,
            from: 0,
            mode: MatchKind::AnySource,
            send_vc: vec![1, 0],
            accept_event: 1,
        });
        assert_eq!(s1.forced_source(7), Some(2));
    }

    #[test]
    #[should_panic(expected = "schedule forcing violated")]
    fn mismatched_forced_source_panics() {
        let handle = SchedHandle::new(SchedulePlan::new().force(1, 7, 0));
        let mut s1 = SchedSession::new(&handle, 1);
        s1.on_wildcard_accept(TraceEvent {
            rank: 1,
            tag: 7,
            from: 2,
            mode: MatchKind::AnySource,
            send_vc: vec![0, 0, 1],
            accept_event: 1,
        });
    }

    #[test]
    fn recording_collects_events_in_push_order() {
        let handle = SchedHandle::new(SchedulePlan::new().record(true));
        let mut s0 = SchedSession::new(&handle, 0);
        let mut s1 = SchedSession::new(&handle, 1);
        let ev = |rank: usize, from: usize| TraceEvent {
            rank,
            tag: 5,
            from,
            mode: MatchKind::AnySourceUnordered,
            send_vc: vec![0, 0],
            accept_event: 1,
        };
        s0.on_wildcard_accept(ev(0, 1));
        s1.on_wildcard_accept(ev(1, 0));
        let trace = handle.take_trace();
        assert_eq!(trace.len(), 2);
        assert_eq!((trace[0].rank, trace[0].from), (0, 1));
        assert_eq!((trace[1].rank, trace[1].from), (1, 0));
        assert!(handle.take_trace().is_empty(), "take drains");
    }

    #[test]
    fn unrecorded_plan_traces_nothing() {
        let handle = SchedHandle::new(SchedulePlan::new());
        let mut s0 = SchedSession::new(&handle, 0);
        s0.on_wildcard_accept(TraceEvent {
            rank: 0,
            tag: 5,
            from: 1,
            mode: MatchKind::AnySource,
            send_vc: vec![0, 1],
            accept_event: 1,
        });
        assert!(handle.take_trace().is_empty());
    }
}
