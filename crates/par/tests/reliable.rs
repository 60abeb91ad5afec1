//! Acceptance tests for the two opt-in robustness layers: reliable
//! delivery (`MachineBuilder::reliable`) and rank-loss recovery
//! (`MachineBuilder::recovery`).
//!
//! The reliability contract is differential: a run under injected
//! drop/duplicate/reorder faults must produce **bitwise-identical** results
//! to the fault-free run — the protocol absorbs the faults instead of
//! letting the watchdog diagnose them. The recovery contract is the
//! driver-loop shape every robust workload uses: catch the [`RankLost`]
//! unwind, adopt the shrunk world, agree on it, and re-run.

use pilut_par::{
    Ctx, FaultAction, FaultPlan, FaultRule, Machine, MachineModel, Payload, RankLost, ACK_TAG,
};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};

fn model() -> MachineModel {
    MachineModel::cray_t3d()
}

/// A ring workload with enough traffic for every fault class to bite:
/// directed sends, a wildcard-matched exchange, and a collective.
fn ring_workload(ctx: &mut Ctx) -> Vec<u64> {
    let (me, p) = (ctx.rank(), ctx.nprocs());
    let mut acc = Vec::new();
    for round in 0..12u64 {
        ctx.send(
            (me + 1) % p,
            7,
            Payload::u64s(vec![me as u64 * 1000 + round]),
        );
        acc.push(ctx.recv((me + p - 1) % p, 7).into_u64()[0]);
    }
    let sends = vec![((me + 2) % p, Payload::u64s(vec![me as u64]))];
    for (src, payload) in ctx.exchange(sends) {
        acc.push(src as u64 * 100 + payload.into_u64()[0]);
    }
    acc.push(ctx.all_reduce_sum_u64(me as u64 + 1));
    acc
}

fn faulty_links_plan() -> FaultPlan {
    FaultPlan::new(23)
        .with(
            FaultRule::new(FaultAction::Drop)
                .sender(0)
                .tag(7)
                .max_fires(3),
        )
        .with(
            FaultRule::new(FaultAction::Duplicate)
                .sender(1)
                .receiver(2)
                .tag(7)
                .max_fires(4),
        )
        .with(
            FaultRule::new(FaultAction::Reorder)
                .sender(2)
                .tag(7)
                .max_fires(2),
        )
}

#[test]
fn reliable_delivery_absorbs_drop_duplicate_reorder() {
    let clean = Machine::builder(model())
        .reliable(true)
        .run(4, ring_workload);
    let faulted = Machine::builder(model())
        .reliable(true)
        .fault_plan(faulty_links_plan())
        .run(4, ring_workload);
    assert!(
        !faulted.injected_faults.is_empty(),
        "the plan must actually fire for the test to mean anything"
    );
    assert_eq!(
        clean.results, faulted.results,
        "reliable delivery must make faulted runs bitwise-identical"
    );
}

#[test]
fn reliable_protocol_traffic_is_priced_exactly() {
    let out = Machine::builder(model())
        .reliable(true)
        .fault_plan(faulty_links_plan())
        .run(4, ring_workload);
    let (measured_msgs, measured_bytes) = out.stats.tag_totals(ACK_TAG);
    assert!(measured_msgs > 0, "drops must have provoked nacks/resends");
    let &(planned_msgs, planned_bytes, exact) = out
        .stats
        .planned_by_tag
        .get(&ACK_TAG)
        .expect("reliability traffic must appear in the planned ledger");
    assert!(exact, "ack pricing is byte-exact by construction");
    assert_eq!(planned_msgs, measured_msgs);
    assert_eq!(planned_bytes, measured_bytes);
}

#[test]
fn reliable_no_fault_run_sends_no_cumulative_ack_below_the_cadence() {
    // No link of this workload delivers `ACK_EVERY` frames, so a fault-free
    // run owes no cumulative ACK, and with no fault plan there is no exit
    // flush. What else `ACK_TAG` may carry is a NACK round and its answers,
    // which a receive blocked for 4 ms of *wall* time sends (harmless, and
    // priced); a slow host provokes one now and then. Cumulative ACKs follow
    // the links' delivery counts, which the program fixes, so an ACK sent
    // below the cadence would show in every run: some run must be silent,
    // and every run's protocol traffic must be priced exactly.
    let silent = (0..20).any(|_| {
        let out = Machine::builder(model())
            .reliable(true)
            .run(4, ring_workload);
        let (msgs, bytes) = out.stats.tag_totals(ACK_TAG);
        let planned = out.stats.planned_by_tag.get(&ACK_TAG);
        assert_eq!(
            planned.map(|&(m, b, _)| (m, b)).unwrap_or((0, 0)),
            (msgs, bytes)
        );
        (msgs, bytes) == (0, 0)
    });
    assert!(
        silent,
        "every run sent reliability traffic: a cumulative ACK below the cadence"
    );
}

/// The canonical recovery driver loop, used by the solver's
/// `dist_solve_robust` and spelled out here at the `par` level: re-run the
/// (idempotent) workload until it completes, adopting the shrunk world on
/// every [`RankLost`] unwind. The victim catches its own kill panic and
/// returns the tombstone.
fn recovery_driver<R: Clone>(
    ctx: &mut Ctx,
    tombstone: R,
    workload: impl Fn(&mut Ctx) -> R,
) -> (R, Vec<(u64, Vec<usize>)>) {
    let mut recoveries = Vec::new();
    loop {
        match catch_unwind(AssertUnwindSafe(|| workload(ctx))) {
            Ok(r) => return (r, recoveries),
            Err(payload) => {
                if ctx.killed() {
                    return (tombstone, recoveries);
                }
                if let Some(lost) = payload.downcast_ref::<RankLost>() {
                    let epoch = lost.epoch;
                    let dead = ctx.adopt_world();
                    ctx.recover_sync();
                    recoveries.push((epoch, dead));
                    continue;
                }
                resume_unwind(payload);
            }
        }
    }
}

#[test]
fn kill_mid_collective_recovers_and_survivors_converge() {
    let plan = FaultPlan::new(41).with(FaultRule::new(FaultAction::Kill).rank(2).after_op(3));
    let out = Machine::builder(model())
        .recovery(true)
        .fault_plan(plan)
        .run(4, |ctx| {
            recovery_driver(ctx, (u64::MAX, u64::MAX), |ctx| {
                let n = ctx.all_reduce_sum_u64(1);
                let s = ctx.all_reduce_sum(ctx.rank() as f64 + 1.0);
                ctx.barrier();
                (n, s.round() as u64)
            })
        });
    assert!(out.injected_faults.iter().any(|f| f.kind == "kill"));
    let expect = (3u64, 1 + 2 + 4); // survivors 0, 1, 3
    for r in [0usize, 1, 3] {
        let ((n, s), recoveries) = out.results[r].clone();
        assert_eq!((n, s), expect, "rank {r} must converge on the shrunk world");
        assert_eq!(recoveries.len(), 1, "rank {r} records exactly one recovery");
        assert_eq!(
            recoveries[0],
            (1, vec![2]),
            "rank {r} names epoch and victim"
        );
    }
    assert_eq!(
        out.results[2].0,
        (u64::MAX, u64::MAX),
        "the victim tombstones"
    );
}

#[test]
fn kill_plus_lossy_links_recover_together() {
    // The full gauntlet: a killed rank *and* dropped/duplicated frames on
    // the surviving links, with both robustness layers on.
    let plan = FaultPlan::new(77)
        .with(FaultRule::new(FaultAction::Kill).rank(1).after_op(4))
        .with(
            FaultRule::new(FaultAction::Drop)
                .sender(0)
                .tag(7)
                .max_fires(2),
        )
        .with(
            FaultRule::new(FaultAction::Duplicate)
                .sender(3)
                .tag(7)
                .max_fires(2),
        );
    let out = Machine::builder(model())
        .reliable(true)
        .recovery(true)
        .fault_plan(plan)
        .run(4, |ctx| {
            recovery_driver(ctx, u64::MAX, |ctx| {
                let (me, p) = (ctx.rank(), ctx.nprocs());
                // Ring over whoever is alive this epoch.
                let alive: Vec<usize> = (0..p).filter(|&r| ctx.is_alive(r)).collect();
                let slot = alive.iter().position(|&r| r == me).unwrap();
                let next = alive[(slot + 1) % alive.len()];
                let prev = alive[(slot + alive.len() - 1) % alive.len()];
                for _ in 0..6u64 {
                    ctx.send(next, 7, Payload::u64s(vec![me as u64]));
                    ctx.recv(prev, 7);
                }
                ctx.all_reduce_sum_u64(1)
            })
        });
    for r in [0usize, 2, 3] {
        let (n, ref recoveries) = out.results[r];
        assert_eq!(n, 3, "rank {r} finishes on the 3-rank world");
        assert_eq!(recoveries.len(), 1, "rank {r}");
    }
    assert_eq!(out.results[1].0, u64::MAX);
}

#[test]
fn unrecovered_rank_lost_is_actionable() {
    // recovery(true) but no driver: the RankLost unwind must surface as a
    // message telling the author what to wrap the workload in.
    let plan = FaultPlan::new(9).with(FaultRule::new(FaultAction::Kill).rank(1).after_op(1));
    let payload = catch_unwind(AssertUnwindSafe(|| {
        Machine::builder(model())
            .recovery(true)
            .fault_plan(plan)
            .run(2, |ctx| {
                if ctx.rank() == 0 {
                    ctx.recv(1, 3);
                } else {
                    ctx.send(0, 3, Payload::Empty);
                }
            });
    }))
    .expect_err("an uncaught RankLost must fail the run");
    let msg = payload
        .downcast_ref::<String>()
        .cloned()
        .expect("typed payload converted to an actionable message");
    assert!(
        msg.contains("no recovery driver caught the RankLost unwind"),
        "{msg}"
    );
    assert!(msg.contains("Ctx::adopt_world"), "{msg}");
}
