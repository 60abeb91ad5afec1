//! Integration tests for the happens-before match-order race detector.
//!
//! The wire contract (DESIGN §2.7) leaves the delivery order of in-flight
//! envelopes on the same `(sender, receiver, tag)` undefined. Checked mode
//! stamps every envelope with a vector clock and reports any two envelopes
//! of one sender on one tag whose order is not fixed by happens-before.
//! These tests pin down both sides: genuinely concurrent pairs must be
//! reported, causally ordered pairs must not, and the production
//! (unchecked) path must carry no clocks at all. Envelopes of different
//! senders may arrive in any order, and the one receive that does not name
//! its source, the exchange gather, must not let that order show.

#![expect(
    clippy::disallowed_methods,
    reason = "exercises the raw send/recv layer that par confines"
)]

use pilut_par::{FaultAction, FaultPlan, FaultRule, Machine, MachineModel, Payload};
use std::panic::AssertUnwindSafe;

/// Runs `f` under `run_checked`, expecting a panic, and returns the message.
#[expect(
    clippy::expect_used,
    reason = "a run that is not diagnosed fails the test"
)]
fn panic_message<R, F>(p: usize, f: F) -> String
where
    R: Send,
    F: Fn(&mut pilut_par::Ctx) -> R + Sync,
{
    let payload = std::panic::catch_unwind(AssertUnwindSafe(|| {
        Machine::run_checked(p, MachineModel::cray_t3d(), f);
    }))
    .expect_err("run was expected to be diagnosed as racy");
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

#[test]
fn same_sender_overtaking_race_is_reported() {
    // Two back-to-back sends on one (sender, tag): nothing orders their
    // delivery, so a receiver that assumes program order is racing. The
    // report must name both envelopes and the rank that matched them.
    let msg = panic_message(2, |ctx| {
        if ctx.rank() == 0 {
            ctx.send(1, 4, Payload::u64s(vec![1]));
            ctx.send(1, 4, Payload::u64s(vec![2]));
        } else {
            ctx.recv(0, 4);
            ctx.recv(0, 4);
        }
    });
    assert!(msg.contains("match-order race"), "{msg}");
    assert!(msg.contains("tag 0x4"), "{msg}");
    assert!(msg.contains("rank 0 -> rank 1"), "{msg}");
    assert!(msg.contains("send clock"), "{msg}");
}

#[test]
fn ack_separated_resend_is_clean() {
    // Same (sender, tag) reused, but an acknowledgement round trip creates
    // the happens-before edge recv(m1) -> send(m2): no legal schedule can
    // swap them, so the detector must stay quiet.
    let out = Machine::run_checked(2, MachineModel::cray_t3d(), |ctx| {
        if ctx.rank() == 0 {
            ctx.send(1, 4, Payload::u64s(vec![1]));
            ctx.recv(1, 5); // ack
            ctx.send(1, 4, Payload::u64s(vec![2]));
            vec![]
        } else {
            let a = ctx.recv(0, 4).into_u64();
            ctx.send(0, 5, Payload::Empty);
            let b = ctx.recv(0, 4).into_u64();
            vec![a[0], b[0]]
        }
    });
    assert_eq!(out.results[1], vec![1, 2]);
}

#[test]
fn barrier_separated_resend_is_clean() {
    // Collectives propagate clocks too: a barrier between the two sends
    // orders them through the reserved-tag traffic.
    let out = Machine::run_checked(2, MachineModel::cray_t3d(), |ctx| {
        if ctx.rank() == 0 {
            ctx.send(1, 4, Payload::u64s(vec![1]));
            ctx.barrier();
            ctx.send(1, 4, Payload::u64s(vec![2]));
            vec![]
        } else {
            let a = ctx.recv(0, 4).into_u64();
            ctx.barrier();
            let b = ctx.recv(0, 4).into_u64();
            vec![a[0], b[0]]
        }
    });
    assert_eq!(out.results[1], vec![1, 2]);
}

#[test]
fn exchange_order_survives_reorder_faults() {
    // Regression for the race the detector found in the seed: `exchange`
    // used to ship each payload as its own envelope, so a reorder fault
    // could swap same-source payloads. Packing makes the per-source order
    // structural; under an aggressive reorder plan the order must hold and
    // the detector must stay quiet.
    let plan = FaultPlan::new(23).with(FaultRule::new(FaultAction::Reorder).rank(0));
    let out = Machine::builder(MachineModel::cray_t3d())
        .checked(true)
        .fault_plan(plan)
        .run(2, |ctx| {
            if ctx.rank() == 0 {
                ctx.exchange(vec![
                    (1, Payload::u64s(vec![1])),
                    (1, Payload::u64s(vec![2])),
                    (1, Payload::u64s(vec![3])),
                ]);
                vec![]
            } else {
                ctx.exchange(vec![])
                    .into_iter()
                    .map(|(_, p)| p.into_u64()[0])
                    .collect()
            }
        });
    assert_eq!(out.results[1], vec![1, 2, 3]);
}

#[test]
fn exchange_is_blind_to_arrival_order() {
    // Every rank sends one payload to rank 0 and one to its ring neighbour,
    // so rank 0 gathers from all four ranks (rank 3's two payloads share a
    // frame). A stall of sender k at its data-phase send makes k's envelope
    // reach rank 0 last; a stall is wall-clock only, so no clock moves and
    // the gather's source sort must hide the arrival order entirely.
    let p = 4;
    // Rank k's comm op that ships its first data frame, after the
    // count-learning all-reduce's binomial reduce and broadcast at p = 4.
    const DATA_OP: [u64; 4] = [0, 3, 5, 3];
    let body = |ctx: &mut pilut_par::Ctx| {
        let r = ctx.rank();
        ctx.work(1000.0 * (r + 1) as f64);
        let sends = vec![
            (0, Payload::u64s(vec![10 * r as u64])),
            ((r + 1) % p, Payload::u64s(vec![10 * r as u64 + 1])),
        ];
        (ctx.exchange(sends).into_iter())
            .map(|(src, payload)| (src, payload.into_u64()))
            .collect::<Vec<_>>()
    };
    let fingerprint = |plan: Option<FaultPlan>| {
        let builder = Machine::builder(MachineModel::cray_t3d()).checked(true);
        let out = match plan {
            Some(plan) => builder.fault_plan(plan).run(p, body),
            None => builder.run(p, body),
        };
        let times: Vec<u64> = out.stats.rank_times.iter().map(|t| t.to_bits()).collect();
        let faults: Vec<(usize, u64, &str)> = (out.injected_faults.iter())
            .map(|f| (f.rank, f.op, f.kind))
            .collect();
        let s = out.stats;
        ((out.results, times, s.by_tag, s.planned_by_tag), faults)
    };
    let (base, none) = fingerprint(None);
    assert!(none.is_empty());
    let sources: Vec<usize> = base.0[0].iter().map(|&(src, _)| src).collect();
    assert_eq!(sources, [0, 1, 2, 3, 3], "rank 0 gathers in source order");
    for (k, &op) in DATA_OP.iter().enumerate().skip(1) {
        let stall = FaultRule::new(FaultAction::Stall { millis: 20 })
            .rank(k)
            .after_op(op)
            .max_fires(1);
        let (run, fired) = fingerprint(Some(FaultPlan::new(k as u64).with(stall)));
        assert_eq!(fired, [(k, op, "stall")], "sender {k}");
        assert_eq!(run, base, "stalling sender {k} changed the run");
    }
}

#[test]
fn unchecked_mode_carries_no_clocks_and_reports_nothing() {
    // The same overtaking pattern that is diagnosed under checked mode runs
    // to completion on the production path: vector clocks exist only when a
    // checker is installed, so `Machine::run` stays zero-overhead and
    // never panics on behalf of the detector.
    let out = Machine::run(2, MachineModel::cray_t3d(), |ctx| {
        if ctx.rank() == 0 {
            ctx.send(1, 4, Payload::u64s(vec![1]));
            ctx.send(1, 4, Payload::u64s(vec![2]));
            0
        } else {
            let a = ctx.recv(0, 4).into_u64()[0];
            let b = ctx.recv(0, 4).into_u64()[0];
            a + b
        }
    });
    assert_eq!(out.results[1], 3);
}
