//! `commcheck` — the verification layer of the virtual machine.
//!
//! Message-passing bugs in the parallel ILUT protocols (a mismatched
//! `(from, tag)` pair, collectives called in different orders on different
//! ranks, a message sent and never received) all have the same production
//! symptom: [`crate::Ctx::recv`] blocks forever and the run hangs with no
//! diagnostic. In checked mode ([`crate::Machine::run_checked`]) every rank
//! publishes its scheduling state to a shared **status board**, and blocked
//! ranks poll a **watchdog predicate**: when every unfinished rank is
//! blocked and no envelope is in flight, no future progress is possible, so
//! the run aborts with the wait-for graph and the deadlock cycle instead of
//! hanging. Two more checks ride on the same machinery:
//!
//! * **message-leak detection** — any envelope still buffered (or still in
//!   a rank's channel) when that rank returns is reported as
//!   `(from, to, tag, bytes)`; a leaked message is a protocol error even
//!   when the run otherwise completes;
//! * **collective-order checking** — every collective piggybacks its
//!   operation kind on the reserved-tag traffic, so a barrier matched
//!   against an all-reduce (or any out-of-order collective pair) panics
//!   with both ranks' collective call sequences.
//!
//! The board also carries the **board gather** ([`crate::Ctx::board_gather`]):
//! a rendezvous in which every rank posts its `n`-th word vector and reads
//! everyone's, the way self-checks such as `CommPlan::verify` compare plan
//! summaries across ranks. It sends no envelope, moves no clock and touches
//! no counter, so a checked run prices exactly what a production run does;
//! a rank that never arrives shows in the wait-for graph like a blocked
//! receive.
//!
//! The production path ([`crate::Machine::run`]) carries none of this: no
//! shared board, no timeouts, no checks.

use std::sync::{Condvar, Mutex};
use std::time::Duration;

/// What a rank is doing right now, as published on the commcheck board.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RankStatus {
    /// Computing or sending; may still make progress on its own.
    Running,
    /// Blocked in a receive. `from == None` means "any source"
    /// (the sparse all-to-all's completion loop).
    BlockedRecv {
        /// Source rank the receive is matching, if specific.
        from: Option<usize>,
        /// Tag the receive is matching.
        tag: u64,
    },
    /// Waiting at its `round`-th board gather (0-based) for the ranks that
    /// have not posted theirs yet.
    BlockedGather {
        /// Which of the rank's board gathers it waits at.
        round: usize,
    },
    /// Returned from the rank closure.
    Finished,
    /// Unwound with a panic; it will never send again.
    Panicked,
    /// Killed by fault injection (see [`crate::fault`]); it will never send
    /// again, and the wait-for graph names it as the cause.
    Killed,
}

/// The collective operations the machine offers, piggybacked on
/// reserved-tag envelopes for order checking.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CollKind {
    /// [`crate::Ctx::barrier`]
    Barrier,
    /// [`crate::Ctx::all_reduce_sum`], the scalar `f64` all-reduce.
    AllReduceF64,
    /// [`crate::Ctx::all_reduce_u64`] and its scalar conveniences.
    AllReduceU64,
    /// The data phase of [`crate::Ctx::exchange`].
    Exchange,
}

/// One leaked envelope, reported at rank exit.
#[derive(Clone, Debug)]
pub struct LeakRecord {
    /// Sending rank.
    pub from: usize,
    /// Receiving rank (whose buffer held the leak).
    pub to: usize,
    /// Message tag.
    pub tag: u64,
    /// Payload size on the simulated wire.
    pub bytes: usize,
    /// True when the envelope never reached the wire because the fault
    /// injector dropped it (rather than the program failing to receive it).
    pub injected: bool,
}

/// Mutable board contents, guarded by one mutex: scheduling states, the
/// in-flight envelope count, per-rank collective logs, and the first
/// failure diagnosis.
struct Board {
    status: Vec<RankStatus>,
    /// Envelopes handed to each rank's channel and not yet drained by that
    /// rank. Incremented *before* the channel send and decremented *after*
    /// the channel receive, so it never undercounts: a spurious deadlock can
    /// never be declared while a message could still arrive. Tracked per
    /// destination so traffic stranded at a finished or panicked rank (a
    /// leak, swept separately) cannot mask a deadlock among the live ranks.
    in_flight_to: Vec<u64>,
    coll_logs: Vec<Vec<CollKind>>,
    failure: Option<String>,
    leaks: Vec<LeakRecord>,
    /// Envelopes discarded by the fault injector; folded into deadlock
    /// reports (a drop usually strands the receiver) and the leak sweep.
    injected_drops: Vec<LeakRecord>,
    /// Per rank, the word vectors of its board gathers in posting order —
    /// like the collective logs, evidence kept for the whole run.
    gathers: Vec<Vec<Vec<u64>>>,
}

/// Whether every rank has posted its `round`-th board gather.
fn gathered(gathers: &[Vec<Vec<u64>>], round: usize) -> bool {
    gathers.iter().all(|posted| posted.len() > round)
}

/// Shared state of one checked run. One instance per
/// [`crate::Machine::run_checked`] call, shared by all rank threads.
pub struct CheckState {
    board: Mutex<Board>,
    /// Signalled whenever a rank posts a board gather.
    posted: Condvar,
}

/// Marker prefix for secondary abort panics (ranks killed because another
/// rank already produced the primary diagnosis). `run_checked` suppresses
/// these in favour of the stored failure.
pub(crate) const SECONDARY_ABORT: &str = "commcheck-secondary-abort";

impl CheckState {
    pub(crate) fn new(p: usize) -> Self {
        CheckState {
            board: Mutex::new(Board {
                status: vec![RankStatus::Running; p],
                in_flight_to: vec![0; p],
                coll_logs: vec![Vec::new(); p],
                failure: None,
                leaks: Vec::new(),
                injected_drops: Vec::new(),
                gathers: vec![Vec::new(); p],
            }),
            posted: Condvar::new(),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Board> {
        // A poisoned board means some rank panicked mid-update; the data is
        // plain-old-data and still the best diagnostic we have.
        self.board.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Called by a sender immediately before handing an envelope to rank
    /// `to`'s channel.
    pub(crate) fn note_send(&self, to: usize) {
        self.lock().in_flight_to[to] += 1;
    }

    /// Called by rank `rank` immediately after draining an envelope from
    /// its channel (whether or not it matches the pending receive).
    pub(crate) fn note_drain(&self, rank: usize) {
        let mut b = self.lock();
        debug_assert!(
            b.in_flight_to[rank] > 0,
            "drained more envelopes than were sent"
        );
        b.in_flight_to[rank] = b.in_flight_to[rank].saturating_sub(1);
    }

    /// Called when a drained envelope matched the blocked receive: the
    /// in-flight decrement and the return to `Running` must be one board
    /// transition. Done as two separate locks there is a window in which
    /// the board shows the rank still blocked with nothing in flight, and
    /// a concurrently polling watchdog declares a spurious deadlock.
    pub(crate) fn note_drain_matched(&self, rank: usize) {
        let mut b = self.lock();
        debug_assert!(
            b.in_flight_to[rank] > 0,
            "drained more envelopes than were sent"
        );
        b.in_flight_to[rank] = b.in_flight_to[rank].saturating_sub(1);
        b.status[rank] = RankStatus::Running;
    }

    pub(crate) fn set_status(&self, rank: usize, status: RankStatus) {
        self.lock().status[rank] = status;
    }

    /// The killed ranks, ascending.
    pub(crate) fn killed_ranks(&self) -> Vec<usize> {
        let b = self.lock();
        b.status
            .iter()
            .enumerate()
            .filter(|(_, s)| matches!(s, RankStatus::Killed))
            .map(|(r, _)| r)
            .collect()
    }

    /// Appends to the per-rank collective order log. The log is commcheck's
    /// evidence table — pure verification-layer state with no production
    /// counterpart (DESIGN §16) — so its growth is harness-owned and never
    /// charged to an audited steady region.
    pub(crate) fn log_collective(&self, rank: usize, kind: CollKind) {
        let _h = pilut_allocaudit::harness();
        self.lock().coll_logs[rank].push(kind);
    }

    pub(crate) fn record_leaks(&self, leaks: impl IntoIterator<Item = LeakRecord>) {
        self.lock().leaks.extend(leaks);
    }

    /// Records an envelope the fault injector discarded before delivery.
    pub(crate) fn record_injected_drop(&self, drop: LeakRecord) {
        self.lock().injected_drops.push(drop);
    }

    pub(crate) fn take_injected_drops(&self) -> Vec<LeakRecord> {
        std::mem::take(&mut self.lock().injected_drops)
    }

    /// Records the primary failure if none is stored yet and returns the
    /// message the calling rank should panic with.
    pub(crate) fn fail(&self, report: String) -> String {
        let mut b = self.lock();
        if b.failure.is_none() {
            b.failure = Some(report.clone());
            report
        } else {
            format!("{SECONDARY_ABORT}: see primary failure")
        }
    }

    pub(crate) fn take_failure(&self) -> Option<String> {
        self.lock().failure.take()
    }

    pub(crate) fn take_leaks(&self) -> Vec<LeakRecord> {
        std::mem::take(&mut self.lock().leaks)
    }

    pub(crate) fn coll_logs(&self) -> Vec<Vec<CollKind>> {
        self.lock().coll_logs.clone()
    }

    /// Rank `rank`'s next board gather: posts `words`, waits until every
    /// rank has posted as many, and returns the same-numbered posts of all
    /// ranks, indexed by rank. While it waits the rank shows
    /// [`RankStatus::BlockedGather`] and polls the watchdog every `poll`,
    /// so a rank that never arrives ends the run in a deadlock report;
    /// `Err` carries the message the calling rank must panic with. The
    /// board's bookkeeping is harness-owned, like the collective log.
    pub(crate) fn gather(
        &self,
        rank: usize,
        words: &[u64],
        poll: Duration,
    ) -> Result<Vec<Vec<u64>>, String> {
        let _h = pilut_allocaudit::harness();
        let mut b = self.lock();
        b.gathers[rank].push(words.to_vec());
        let round = b.gathers[rank].len() - 1;
        b.status[rank] = RankStatus::BlockedGather { round };
        self.posted.notify_all();
        loop {
            if gathered(&b.gathers, round) {
                b.status[rank] = RankStatus::Running;
                return Ok(b
                    .gathers
                    .iter()
                    .map(|posted| posted[round].clone())
                    .collect());
            }
            let waited = self.posted.wait_timeout(b, poll);
            let (guard, wait) = waited.unwrap_or_else(|e| e.into_inner());
            b = guard;
            if let Some(report) = wait.timed_out().then(|| stuck(&mut b)).flatten() {
                b.status[rank] = RankStatus::Panicked;
                return Err(report);
            }
        }
    }

    /// The watchdog predicate, polled by blocked ranks (see [`stuck`]).
    /// Returns the message the calling rank must panic with, if any.
    pub(crate) fn check_stuck(&self) -> Option<String> {
        stuck(&mut self.lock())
    }
}

/// Declares a deadlock when every unfinished rank is blocked, no envelope
/// is in flight to a rank blocked in a receive, and no board gather a rank
/// waits at is complete. Stores the report as the run's failure and
/// returns it; a run already diagnosed returns the quiet secondary abort.
fn stuck(b: &mut Board) -> Option<String> {
    if b.failure.is_some() {
        // Another rank already diagnosed the run; die quietly.
        return Some(format!("{SECONDARY_ABORT}: see primary failure"));
    }
    let any_running = b.status.iter().any(|s| matches!(s, RankStatus::Running));
    if any_running {
        return None;
    }
    let mut any_blocked = false;
    for (r, s) in b.status.iter().enumerate() {
        match s {
            // A blocked rank still has traffic to drain; it will wake and
            // either match it or buffer it.
            RankStatus::BlockedRecv { .. } if b.in_flight_to[r] > 0 => return None,
            // Its gather is complete; it will wake and read it.
            RankStatus::BlockedGather { round } if gathered(&b.gathers, *round) => return None,
            RankStatus::BlockedRecv { .. } | RankStatus::BlockedGather { .. } => {
                any_blocked = true;
            }
            _ => {}
        }
    }
    if !any_blocked {
        return None;
    }
    let report = deadlock_report(&b.status, &b.coll_logs, &b.injected_drops, &b.gathers);
    b.failure = Some(report.clone());
    Some(report)
}

/// Formats the wait-for graph, the deadlock cycle (if one exists), any
/// envelopes the fault injector dropped, and any collective-sequence
/// divergence between ranks.
fn deadlock_report(
    status: &[RankStatus],
    coll_logs: &[Vec<CollKind>],
    injected_drops: &[LeakRecord],
    gathers: &[Vec<Vec<u64>>],
) -> String {
    use std::fmt::Write;
    let killed: Vec<String> = (status.iter().enumerate())
        .filter(|(_, s)| matches!(s, RankStatus::Killed))
        .map(|(r, _)| r.to_string())
        .collect();
    let mut out = if killed.is_empty() {
        String::from(
            "commcheck: deadlock — every unfinished rank is blocked and no message is in flight\n",
        )
    } else {
        // The root cause is the kill, not the waits that followed it.
        format!(
            "commcheck: root cause: rank(s) {} killed by fault injection — the survivors are stranded\n",
            killed.join(", ")
        )
    };
    out.push_str("wait-for graph:\n");
    for (r, s) in status.iter().enumerate() {
        match s {
            RankStatus::Running => {
                let _ = writeln!(out, "  rank {r}: running (!?)");
            }
            RankStatus::BlockedRecv { from: Some(f), tag } => {
                let _ = writeln!(out, "  rank {r} -> rank {f}  (recv from={f} tag={tag})");
            }
            RankStatus::BlockedRecv { from: None, tag } => {
                let _ = writeln!(out, "  rank {r} -> any rank  (recv from=any tag={tag})");
            }
            RankStatus::BlockedGather { round } => {
                let absent = gathers
                    .iter()
                    .enumerate()
                    .filter(|(_, g)| g.len() <= *round);
                let missing: Vec<String> = absent.map(|(q, _)| q.to_string()).collect();
                let _ = writeln!(
                    out,
                    "  rank {r} -> rank(s) {}  (board gather #{round})",
                    missing.join(", ")
                );
            }
            RankStatus::Finished => {
                let _ = writeln!(out, "  rank {r}: finished");
            }
            RankStatus::Panicked => {
                let _ = writeln!(out, "  rank {r}: panicked");
            }
            RankStatus::Killed => {
                let _ = writeln!(out, "  rank {r}: killed by fault injection");
            }
        }
    }
    if let Some(cycle) = find_cycle(status) {
        let path: Vec<String> = cycle.iter().map(|r| format!("rank {r}")).collect();
        let _ = writeln!(out, "deadlock cycle: {} -> {}", path.join(" -> "), path[0]);
    } else {
        // No cycle: some rank waits on a rank that can never send again.
        for (r, s) in status.iter().enumerate() {
            if let RankStatus::BlockedRecv { from: Some(f), .. } = s {
                match status[*f] {
                    RankStatus::Finished => {
                        let _ = writeln!(
                            out,
                            "rank {r} waits on rank {f}, which already finished without sending"
                        );
                    }
                    RankStatus::Panicked => {
                        let _ = writeln!(out, "rank {r} waits on rank {f}, which panicked");
                    }
                    RankStatus::Killed => {
                        let _ = writeln!(
                            out,
                            "rank {r} waits on rank {f}, which was killed by fault injection"
                        );
                    }
                    _ => {}
                }
            }
        }
    }
    if !injected_drops.is_empty() {
        let _ = writeln!(
            out,
            "fault injection dropped {} envelope(s) before delivery:",
            injected_drops.len()
        );
        for d in injected_drops {
            let _ = writeln!(
                out,
                "  from rank {} to rank {} tag {:#x} ({} bytes) [injected drop]",
                d.from, d.to, d.tag, d.bytes
            );
        }
    }
    if let Some(divergence) = collective_divergence(coll_logs) {
        let _ = write!(out, "{divergence}");
    }
    out
}

/// Follows single-source wait-for edges looking for a cycle; returns the
/// ranks along it.
fn find_cycle(status: &[RankStatus]) -> Option<Vec<usize>> {
    let next = |r: usize| -> Option<usize> {
        match status[r] {
            RankStatus::BlockedRecv { from: Some(f), .. } => Some(f),
            _ => None,
        }
    };
    let n = status.len();
    let mut mark = vec![0u8; n]; // 0 = unvisited, 1 = on current walk, 2 = done
    for start in 0..n {
        if mark[start] != 0 {
            continue;
        }
        let mut walk = Vec::new();
        let mut cur = start;
        loop {
            if mark[cur] == 1 {
                // Found a cycle: trim the walk's tail leading into it.
                #[expect(clippy::expect_used, reason = "`cur` is marked as on this walk")]
                let pos = walk
                    .iter()
                    .position(|&x| x == cur)
                    .expect("on current walk");
                for &w in &walk {
                    mark[w] = 2;
                }
                return Some(walk[pos..].to_vec());
            }
            if mark[cur] == 2 {
                break;
            }
            mark[cur] = 1;
            walk.push(cur);
            match next(cur) {
                Some(f) => cur = f,
                None => break,
            }
        }
        for &w in &walk {
            mark[w] = 2;
        }
    }
    None
}

/// Describes the first point where two ranks' collective call sequences
/// differ, if they do.
pub(crate) fn collective_divergence(coll_logs: &[Vec<CollKind>]) -> Option<String> {
    use std::fmt::Write;
    let (r0, rest) = (0usize, 1..coll_logs.len());
    for r in rest {
        let a = &coll_logs[r0];
        let b = &coll_logs[r];
        if a == b {
            continue;
        }
        let at = a
            .iter()
            .zip(b.iter())
            .position(|(x, y)| x != y)
            .unwrap_or(a.len().min(b.len()));
        let mut out = String::new();
        let _ = writeln!(
            out,
            "collective call sequences diverge between rank {r0} and rank {r} at call #{at}:"
        );
        let _ = writeln!(out, "  rank {r0}: {}", fmt_log(a, at));
        let _ = writeln!(out, "  rank {r}: {}", fmt_log(b, at));
        return Some(out);
    }
    None
}

/// Renders a collective log with a marker at the divergence point.
fn fmt_log(log: &[CollKind], at: usize) -> String {
    let mut parts: Vec<String> = Vec::with_capacity(log.len());
    for (i, k) in log.iter().enumerate() {
        if i == at {
            parts.push(format!(">>{k:?}<<"));
        } else {
            parts.push(format!("{k:?}"));
        }
    }
    if at >= log.len() {
        parts.push(">>(end of sequence)<<".to_string());
    }
    parts.join(", ")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn blocked(from: usize, tag: u64) -> RankStatus {
        RankStatus::BlockedRecv {
            from: Some(from),
            tag,
        }
    }

    #[test]
    fn cycle_found_in_simple_ring() {
        let status = vec![blocked(1, 0), blocked(2, 0), blocked(0, 0)];
        let cycle = find_cycle(&status).expect("ring deadlock has a cycle");
        assert_eq!(cycle.len(), 3);
    }

    #[test]
    fn self_wait_is_a_cycle() {
        let status = vec![blocked(0, 7)];
        assert_eq!(find_cycle(&status), Some(vec![0]));
    }

    #[test]
    fn waiting_on_finished_rank_has_no_cycle() {
        let status = vec![blocked(1, 0), RankStatus::Finished];
        assert!(find_cycle(&status).is_none());
        let report = deadlock_report(&status, &[Vec::new(), Vec::new()], &[], &[]);
        assert!(report.contains("already finished"), "{report}");
    }

    #[test]
    fn killed_rank_named_in_report() {
        let status = vec![blocked(1, 0), RankStatus::Killed];
        let report = deadlock_report(&status, &[Vec::new(), Vec::new()], &[], &[]);
        assert!(
            report.contains("rank 1: killed by fault injection"),
            "{report}"
        );
        assert!(
            report.contains("waits on rank 1, which was killed by fault injection"),
            "{report}"
        );
        // With a kill as root cause, the headline names the killed rank
        // instead of a generic deadlock.
        assert!(
            report.starts_with(
                "commcheck: root cause: rank(s) 1 killed by fault injection — \
                 the survivors are stranded\nwait-for graph:\n"
            ),
            "{report}"
        );
    }

    #[test]
    fn injected_drops_listed_in_report() {
        let status = vec![blocked(1, 3), RankStatus::Finished];
        let drops = vec![LeakRecord {
            from: 1,
            to: 0,
            tag: 3,
            bytes: 16,
            injected: true,
        }];
        let report = deadlock_report(&status, &[Vec::new(), Vec::new()], &drops, &[]);
        assert!(report.contains("[injected drop]"), "{report}");
        assert!(report.contains("dropped 1 envelope(s)"), "{report}");
    }

    #[test]
    fn divergence_pinpoints_first_difference() {
        let logs = vec![
            vec![CollKind::Barrier, CollKind::AllReduceF64],
            vec![CollKind::Barrier, CollKind::Barrier],
        ];
        let d = collective_divergence(&logs).expect("logs differ");
        assert!(d.contains("call #1"), "{d}");
        assert!(d.contains(">>AllReduceF64<<"), "{d}");
        assert!(d.contains(">>Barrier<<"), "{d}");
    }

    #[test]
    fn equal_logs_have_no_divergence() {
        let logs = vec![vec![CollKind::Barrier]; 4];
        assert!(collective_divergence(&logs).is_none());
    }
}
