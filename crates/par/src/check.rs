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
//! The production path ([`crate::Machine::run`]) carries none of this: no
//! shared board, no timeouts, no checks.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Static per-run configuration of the self-healing layers, chosen on the
/// [`crate::MachineBuilder`] and shared by the board and every context.
#[derive(Clone, Copy, Debug, Default)]
pub struct RunFlags {
    /// Per-link sequence/ack/retry delivery (see [`crate::rel`]): injected
    /// drop/duplicate/reorder faults are absorbed transparently.
    pub reliable: bool,
    /// Rank-loss recovery: an injected kill raises a typed [`RankLost`]
    /// unwind on the survivors instead of stranding them until the
    /// watchdog fires.
    pub recovery: bool,
}

/// The typed panic payload raised on survivors when a rank loss is
/// detected in recovery mode. A recovery driver catches the unwind,
/// downcasts to this, calls [`crate::Ctx::adopt_world`] /
/// [`crate::Ctx::recover_sync`], and re-plans on the shrunk world.
#[derive(Clone, Debug)]
pub struct RankLost {
    /// The epoch the survivors will adopt (the total number of kills
    /// observed when this unwind was raised).
    pub epoch: u64,
    /// All ranks dead at detection time, ascending.
    pub dead: Vec<usize>,
}

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
    /// [`crate::Ctx::all_gather_u64`]
    AllGatherU64,
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
    /// Under reliable delivery: whether each rank's *current* blocked
    /// episode has exhausted its NACK budget. The watchdog may not declare
    /// a deadlock while a blocked rank still has resend requests left — a
    /// dropped frame looks exactly like a deadlock until the NACKs have
    /// had their chance to repair it.
    nack_done: Vec<bool>,
    /// Recovery epoch each rank has registered via
    /// [`CheckState::register_epoch`] — the survivors' adoption barrier.
    reg_epoch: Vec<u64>,
}

/// Shared state of one checked run. One instance per
/// [`crate::Machine::run_checked`] call, shared by all rank threads.
pub struct CheckState {
    board: Mutex<Board>,
    /// Run configuration; the watchdog predicate needs it to know which
    /// progress mechanisms (NACKs, rank-loss adoption) must be exhausted
    /// before a deadlock verdict is sound.
    flags: RunFlags,
    /// Number of ranks killed by fault injection, outside the mutex so the
    /// rank-loss detection poll at every comm op is a plain atomic load.
    killed: AtomicU64,
}

/// Marker prefix for secondary abort panics (ranks killed because another
/// rank already produced the primary diagnosis). `run_checked` suppresses
/// these in favour of the stored failure.
pub(crate) const SECONDARY_ABORT: &str = "commcheck-secondary-abort";

impl CheckState {
    pub(crate) fn new(p: usize, flags: RunFlags) -> Self {
        CheckState {
            board: Mutex::new(Board {
                status: vec![RankStatus::Running; p],
                in_flight_to: vec![0; p],
                coll_logs: vec![Vec::new(); p],
                failure: None,
                leaks: Vec::new(),
                injected_drops: Vec::new(),
                nack_done: vec![false; p],
                reg_epoch: vec![0; p],
            }),
            flags,
            killed: AtomicU64::new(0),
        }
    }

    pub(crate) fn flags(&self) -> RunFlags {
        self.flags
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
        let mut b = self.lock();
        // Count each killed rank exactly once (the kill path sets Killed
        // both at the fault point and again at rank exit).
        if status == RankStatus::Killed && b.status[rank] != RankStatus::Killed {
            self.killed.fetch_add(1, Ordering::SeqCst);
        }
        b.status[rank] = status;
    }

    /// Number of ranks killed by fault injection so far. Lock-free: polled
    /// at the head of every communication op in recovery mode.
    pub(crate) fn killed_count(&self) -> u64 {
        self.killed.load(Ordering::SeqCst)
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

    /// Publishes that `rank` has adopted recovery `epoch` (reset its
    /// in-flight state to the post-loss world).
    pub(crate) fn register_epoch(&self, rank: usize, epoch: u64) {
        self.lock().reg_epoch[rank] = epoch;
    }

    /// The survivors' adoption barrier: true when every rank that can
    /// still participate (Running or blocked — not Killed, not Finished,
    /// not Panicked) has registered at least `epoch`.
    pub(crate) fn all_registered(&self, epoch: u64) -> bool {
        let b = self.lock();
        b.status.iter().enumerate().all(|(r, s)| match s {
            RankStatus::Running | RankStatus::BlockedRecv { .. } => b.reg_epoch[r] >= epoch,
            RankStatus::Finished | RankStatus::Panicked | RankStatus::Killed => true,
        })
    }

    /// Opens a fresh blocked-receive episode for `rank` under reliable
    /// delivery: the NACK budget is intact, so the watchdog must wait.
    pub(crate) fn nack_reset(&self, rank: usize) {
        self.lock().nack_done[rank] = false;
    }

    /// Marks `rank`'s current blocked episode as having spent its NACK
    /// budget; the watchdog may now weigh it for a deadlock verdict.
    pub(crate) fn nack_exhausted(&self, rank: usize) {
        self.lock().nack_done[rank] = true;
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

    /// The watchdog predicate, polled by blocked ranks: declares a deadlock
    /// when every unfinished rank is blocked and no envelope is in flight.
    /// Returns the message the calling rank must panic with, if any.
    pub(crate) fn check_stuck(&self, _rank: usize) -> Option<String> {
        let mut b = self.lock();
        if b.failure.is_some() {
            // Another rank already diagnosed the run; die quietly.
            return Some(format!("{SECONDARY_ABORT}: see primary failure"));
        }
        let any_running = b.status.iter().any(|s| matches!(s, RankStatus::Running));
        if any_running {
            return None;
        }
        let killed = self.killed.load(Ordering::SeqCst);
        let mut any_blocked = false;
        for (r, s) in b.status.iter().enumerate() {
            if matches!(s, RankStatus::BlockedRecv { .. }) {
                any_blocked = true;
                if b.in_flight_to[r] > 0 {
                    // A blocked rank still has traffic to drain; it will
                    // wake and either match it or buffer it.
                    return None;
                }
                if self.flags.reliable && !b.nack_done[r] {
                    // The blocked rank still has NACK rounds left: a
                    // dropped frame is indistinguishable from a deadlock
                    // until the resend protocol has had its chance.
                    return None;
                }
                if self.flags.recovery && killed > 0 && b.reg_epoch[r] < killed {
                    // The blocked rank has not yet adopted the latest rank
                    // loss; its own detection poll will wake it into
                    // recovery momentarily.
                    return None;
                }
            }
        }
        if !any_blocked {
            return None;
        }
        let report = deadlock_report(&b.status, &b.coll_logs, &b.injected_drops, self.flags);
        b.failure = Some(report.clone());
        Some(report)
    }
}

/// Formats the wait-for graph, the deadlock cycle (if one exists), any
/// envelopes the fault injector dropped, and any collective-sequence
/// divergence between ranks.
fn deadlock_report(
    status: &[RankStatus],
    coll_logs: &[Vec<CollKind>],
    injected_drops: &[LeakRecord],
    flags: RunFlags,
) -> String {
    use std::fmt::Write;
    let any_killed = status.iter().any(|s| matches!(s, RankStatus::Killed));
    let mut out = if any_killed && !flags.recovery {
        // The root cause is the kill, not the waits that followed it: the
        // survivors were recoverable, recovery just was not switched on.
        String::from(
            "commcheck: rank(s) killed by fault injection and recovery not enabled — \
             survivors are stranded (enable with MachineBuilder::recovery(true) \
             to shrink the world and resume)\nwait-for graph:\n",
        )
    } else {
        String::from(
            "commcheck: deadlock — every unfinished rank is blocked and no message is in flight\nwait-for graph:\n",
        )
    };
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
        let report = deadlock_report(&status, &[Vec::new(), Vec::new()], &[], RunFlags::default());
        assert!(report.contains("already finished"), "{report}");
    }

    #[test]
    fn killed_rank_named_in_report() {
        let status = vec![blocked(1, 0), RankStatus::Killed];
        let report = deadlock_report(&status, &[Vec::new(), Vec::new()], &[], RunFlags::default());
        assert!(
            report.contains("rank 1: killed by fault injection"),
            "{report}"
        );
        assert!(
            report.contains("waits on rank 1, which was killed by fault injection"),
            "{report}"
        );
        // With a kill as root cause and recovery off, the headline names
        // the missed recovery instead of a generic deadlock.
        assert!(report.contains("recovery not enabled"), "{report}");
        assert!(
            report.contains("MachineBuilder::recovery(true)"),
            "{report}"
        );
        // With recovery on, a post-recovery deadlock is a real deadlock.
        let flags = RunFlags {
            reliable: false,
            recovery: true,
        };
        let report = deadlock_report(&status, &[Vec::new(), Vec::new()], &[], flags);
        assert!(report.contains("commcheck: deadlock"), "{report}");
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
        let report = deadlock_report(
            &status,
            &[Vec::new(), Vec::new()],
            &drops,
            RunFlags::default(),
        );
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
