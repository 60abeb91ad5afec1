//! Fault-injection acceptance tests: every fault class the injector knows
//! (delay, reorder, duplicate, drop, rank-kill, rank-stall) must drive the
//! commcheck layer to the *expected* diagnosis — benign faults complete
//! with correct results, destructive faults abort with a report that names
//! what was injected — instead of hanging or mis-reporting.

#![expect(
    clippy::disallowed_methods,
    reason = "exercises the raw send/recv layer that par confines"
)]

use pilut_par::{FaultAction, FaultPlan, FaultRule, Machine, MachineModel, Payload};
use std::panic::AssertUnwindSafe;

/// Runs `f` at `p` ranks under `plan`, expecting a panic, and returns the
/// panic message for inspection.
#[expect(
    clippy::expect_used,
    reason = "a run that is not diagnosed fails the test"
)]
fn fault_panic_message<R, F>(p: usize, plan: FaultPlan, f: F) -> String
where
    R: Send,
    F: Fn(&mut pilut_par::Ctx) -> R + Sync,
{
    let payload = std::panic::catch_unwind(AssertUnwindSafe(|| {
        Machine::builder(MachineModel::cray_t3d())
            .fault_plan(plan)
            .run(p, f);
    }))
    .expect_err("faulted run was expected to be diagnosed");
    payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| {
            payload
                .downcast_ref::<&'static str>()
                .map(|s| s.to_string())
        })
        .expect("panic payload should be a message")
}

/// A delayed message still arrives (matching is by `(from, tag)`), so the
/// run completes with correct data — but the receiver's logical clock
/// reflects the injected latency.
#[test]
fn delay_is_benign_and_inflates_the_clock() {
    let run = |delay: Option<f64>| {
        let mut builder = Machine::builder(MachineModel::cray_t3d()).checked(true);
        if let Some(seconds) = delay {
            builder = builder.fault_plan(
                FaultPlan::new(7).with(
                    FaultRule::new(FaultAction::Delay { seconds })
                        .rank(0)
                        .tag(3),
                ),
            );
        }
        builder.run(2, |ctx| {
            if ctx.rank() == 0 {
                ctx.send(1, 3, Payload::f64s(vec![2.5]));
                0.0
            } else {
                let v = ctx.recv(0, 3).into_f64();
                assert_eq!(v, vec![2.5]);
                ctx.time()
            }
        })
    };
    let clean = run(None);
    let delayed = run(Some(4.0));
    assert_eq!(delayed.injected_faults.len(), 1);
    assert_eq!(delayed.injected_faults[0].kind, "delay");
    let dt = delayed.results[1] - clean.results[1];
    assert!(
        (dt - 4.0).abs() < 1e-9,
        "expected the receive clock to absorb the 4 s injected delay, got +{dt}"
    );
}

/// Reordered envelopes are benign for programs that match on `(from, tag)`:
/// the held-back message departs after a later one, but both are received
/// correctly and nothing leaks.
#[test]
fn reorder_is_benign_for_tag_matched_receives() {
    let plan = FaultPlan::new(11).with(
        FaultRule::new(FaultAction::Reorder)
            .rank(0)
            .tag(1)
            .max_fires(1),
    );
    let out = Machine::builder(MachineModel::cray_t3d())
        .fault_plan(plan)
        .run(2, |ctx| {
            if ctx.rank() == 0 {
                ctx.send(1, 1, Payload::u64s(vec![10]));
                ctx.send(1, 2, Payload::u64s(vec![20]));
                vec![]
            } else {
                // Receive in program order; the wire order is swapped.
                let a = ctx.recv(0, 1).into_u64();
                let b = ctx.recv(0, 2).into_u64();
                vec![a[0], b[0]]
            }
        });
    assert_eq!(out.results[1], vec![10, 20]);
    assert_eq!(out.injected_faults.len(), 1);
    assert_eq!(out.injected_faults[0].kind, "reorder");
}

/// A duplicated envelope is never consumed by a correct program; the
/// message-leak sweep must report it.
#[test]
fn duplicate_is_caught_by_the_leak_sweep() {
    let plan = FaultPlan::new(3).with(
        FaultRule::new(FaultAction::Duplicate)
            .rank(0)
            .to(1)
            .tag(5)
            .max_fires(1),
    );
    let msg = fault_panic_message(2, plan, |ctx| {
        if ctx.rank() == 0 {
            ctx.send(1, 5, Payload::u64s(vec![1]));
        } else {
            ctx.recv(0, 5);
        }
    });
    assert!(msg.contains("message leak"), "{msg}");
    assert!(msg.contains("from rank 0 to rank 1 tag 0x5"), "{msg}");
}

/// A dropped envelope strands the receiver; the watchdog must terminate
/// the run with a deadlock report that names the injected drop.
#[test]
fn drop_deadlock_names_the_dropped_envelope() {
    let plan = FaultPlan::new(5).with(FaultRule::new(FaultAction::Drop).rank(0).to(1).tag(9));
    let msg = fault_panic_message(2, plan, |ctx| {
        if ctx.rank() == 0 {
            ctx.send(1, 9, Payload::f64s(vec![1.0]));
        } else {
            ctx.recv(0, 9);
        }
    });
    assert!(msg.contains("deadlock"), "{msg}");
    assert!(msg.contains("rank 1 -> rank 0"), "{msg}");
    assert!(msg.contains("[injected drop]"), "{msg}");
    assert!(msg.contains("from rank 0 to rank 1 tag 0x9"), "{msg}");
}

/// When the receiver does not block on the dropped message (it exits
/// early), the run completes — and the leak sweep still reports the drop.
#[test]
fn drop_without_a_blocked_receiver_is_caught_at_exit() {
    let plan = FaultPlan::new(6).with(FaultRule::new(FaultAction::Drop).rank(0).to(1).tag(2));
    let msg = fault_panic_message(2, plan, |ctx| {
        if ctx.rank() == 0 {
            ctx.send(1, 2, Payload::Empty);
        }
        // Rank 1 never receives; without the injector this would be an
        // ordinary message leak, with it the channel is empty and only the
        // injected-drop record can tell the story.
    });
    assert!(msg.contains("message leak"), "{msg}");
    assert!(msg.contains("[injected drop]"), "{msg}");
}

/// Killing a rank that others wait on must produce a wait-for graph that
/// names the killed rank as the root cause.
#[test]
fn kill_is_named_in_the_wait_for_graph() {
    let plan = FaultPlan::new(1).with(FaultRule::new(FaultAction::Kill).rank(1).after_op(2));
    let msg = fault_panic_message(3, plan, |ctx| {
        match ctx.rank() {
            0 => {
                ctx.recv(1, 4);
            }
            1 => {
                // Op 1 sends to rank 2; op 2 (the send to rank 0) is the
                // kill point, so rank 2 finishes and rank 0 starves.
                ctx.send(2, 4, Payload::Empty);
                ctx.send(0, 4, Payload::Empty);
            }
            _ => {
                ctx.recv(1, 4);
            }
        }
    });
    assert!(
        msg.starts_with(
            "commcheck: root cause: rank(s) 1 killed by fault injection — \
             the survivors are stranded\nwait-for graph:\n"
        ),
        "the headline must name the killed rank as the root cause: {msg}"
    );
    assert!(msg.contains("rank 1: killed by fault injection"), "{msg}");
    assert!(
        msg.contains("rank 0 waits on rank 1, which was killed by fault injection"),
        "{msg}"
    );
    // Only rank 0 is stranded: rank 2 got its message and finished.
    assert!(msg.contains("rank 2: finished"), "{msg}");
    assert!(!msg.contains("rank 2 waits on"), "{msg}");
}

/// A kill nobody waits on cannot deadlock anyone; the induced panic itself
/// must propagate, clearly marked as injected.
#[test]
fn kill_with_no_waiters_propagates_the_fault_panic() {
    let plan = FaultPlan::new(2).with(FaultRule::new(FaultAction::Kill).rank(1).after_op(2));
    let msg = fault_panic_message(2, plan, |ctx| {
        if ctx.rank() == 1 {
            // Op 1 satisfies rank 0's only receive; op 2 is the kill point,
            // so the extra send never leaves and nobody is left waiting.
            ctx.send(0, 8, Payload::Empty);
            ctx.send(0, 9, Payload::Empty);
        } else {
            ctx.recv(1, 8);
        }
    });
    assert!(msg.starts_with("fault-inject:"), "{msg}");
    assert!(msg.contains("rank 1 killed"), "{msg}");
}

/// A stalled rank is slow, not dead: the watchdog must not report a
/// deadlock while it sleeps, and the run must complete correctly.
#[test]
fn stall_does_not_trip_the_watchdog() {
    let plan = FaultPlan::new(4).with(
        FaultRule::new(FaultAction::Stall { millis: 30 })
            .rank(0)
            .max_fires(1),
    );
    let out = Machine::builder(MachineModel::cray_t3d())
        // The watchdog polls every 1 ms, much faster than the stall, so a
        // false positive would fire.
        .fault_plan(plan)
        .run(2, |ctx| {
            if ctx.rank() == 0 {
                ctx.send(1, 6, Payload::u64s(vec![77]));
                0
            } else {
                ctx.recv(0, 6).into_u64()[0]
            }
        });
    assert_eq!(out.results[1], 77);
    assert_eq!(out.injected_faults.len(), 1);
    assert_eq!(out.injected_faults[0].kind, "stall");
}

/// Faults also hit collective traffic: dropping one tree-reduce envelope
/// must end in a diagnosis, not a hang.
#[test]
fn drop_inside_a_collective_is_diagnosed() {
    let plan = FaultPlan::new(8).with(FaultRule::new(FaultAction::Drop).rank(1).max_fires(1));
    let msg = fault_panic_message(4, plan, |ctx| ctx.all_reduce_sum(1.0));
    assert!(
        msg.contains("deadlock") || msg.contains("message leak"),
        "{msg}"
    );
    assert!(msg.contains("[injected drop]"), "{msg}");
}

/// A user panic in a faulted run may be the downstream echo of a consumed
/// fault (e.g. a duplicated envelope read as fresh data); the propagated
/// payload must carry the firing log so the root cause stays attributable.
#[test]
fn user_panic_is_annotated_with_the_firing_log() {
    let plan = FaultPlan::new(13).with(
        FaultRule::new(FaultAction::Delay { seconds: 1.0 })
            .rank(0)
            .tag(4)
            .max_fires(1),
    );
    let msg = fault_panic_message(2, plan, |ctx| {
        if ctx.rank() == 0 {
            ctx.send(1, 4, Payload::u64s(vec![1]));
        } else {
            ctx.recv(0, 4);
            panic!("algorithm rejected the data");
        }
    });
    assert!(msg.contains("algorithm rejected the data"), "{msg}");
    assert!(
        msg.contains("note: fault injection fired 1 fault(s)"),
        "{msg}"
    );
    assert!(msg.contains("rank 0 op 1: delay"), "{msg}");
}

/// The same seed injects the same faults; a different seed diverges. This
/// is what makes chaos failures replayable.
#[test]
fn injection_is_deterministic_per_seed() {
    let run = |seed: u64| {
        let plan = FaultPlan::new(seed)
            .with(FaultRule::new(FaultAction::Delay { seconds: 1.0 }).probability(0.5));
        let out = Machine::builder(MachineModel::cray_t3d())
            .fault_plan(plan)
            .run(4, |ctx| {
                let left = (ctx.rank() + ctx.nprocs() - 1) % ctx.nprocs();
                let right = (ctx.rank() + 1) % ctx.nprocs();
                for round in 0..8u64 {
                    ctx.send(right, round, Payload::u64s(vec![round]));
                    ctx.recv(left, round);
                }
                ctx.time()
            });
        let mut fired: Vec<(usize, u64)> =
            out.injected_faults.iter().map(|f| (f.rank, f.op)).collect();
        fired.sort_unstable();
        (fired, out.sim_time)
    };
    let a = run(12345);
    let b = run(12345);
    assert_eq!(a, b, "same seed must replay identically");
    assert!(!a.0.is_empty(), "plan at p=0.5 over 32 sends should fire");
}

/// Rank 0 runs on the caller's thread and every other rank on a thread of
/// its own: a kill must be diagnosed the same wherever it lands, with and
/// without a survivor waiting on the killed rank.
#[test]
fn a_kill_of_rank_0_reads_as_a_kill_of_any_other_rank() {
    for victim in 0..3 {
        let (fed, starved) = ((victim + 1) % 3, (victim + 2) % 3);
        // Op 1 feeds one peer, op 2 is the kill point: the other starves.
        let plan =
            FaultPlan::new(1).with(FaultRule::new(FaultAction::Kill).rank(victim).after_op(2));
        let msg = fault_panic_message(3, plan, |ctx| {
            if ctx.rank() == victim {
                ctx.send(fed, 4, Payload::Empty);
                ctx.send(starved, 4, Payload::Empty);
            } else {
                ctx.recv(victim, 4);
            }
        });
        let graph: String = (0..3)
            .map(|r| match r {
                _ if r == victim => format!("  rank {r}: killed by fault injection\n"),
                _ if r == fed => format!("  rank {r}: finished\n"),
                _ => format!("  rank {r} -> rank {victim}  (recv from={victim} tag=4)\n"),
            })
            .collect();
        let expected = format!(
            "commcheck: root cause: rank(s) {victim} killed by fault injection — the \
             survivors are stranded\nwait-for graph:\n{graph}rank {starved} waits on rank \
             {victim}, which was killed by fault injection\n"
        );
        assert_eq!(msg, expected, "kill of rank {victim}");
    }
    for victim in 0..2 {
        let plan =
            FaultPlan::new(2).with(FaultRule::new(FaultAction::Kill).rank(victim).after_op(2));
        let msg = fault_panic_message(2, plan, |ctx| {
            let peer = 1 - ctx.rank();
            if ctx.rank() == victim {
                ctx.send(peer, 8, Payload::Empty);
                ctx.send(peer, 9, Payload::Empty);
            } else {
                ctx.recv(peer, 8);
            }
        });
        let expected = format!(
            "fault-inject: rank {victim} killed at comm op 2\nnote: fault injection fired 1 \
             fault(s) this run:\n  rank {victim} op 2: kill \n"
        );
        assert_eq!(msg, expected, "kill of rank {victim}");
    }
}
