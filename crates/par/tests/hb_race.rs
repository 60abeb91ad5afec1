//! Integration tests for the happens-before match-order race detector.
//!
//! The wire contract (DESIGN §2.7) leaves the delivery order of in-flight
//! envelopes on the same `(sender, receiver, tag)` undefined, and wildcard
//! receives match whatever arrives first. Checked mode stamps every envelope
//! with a vector clock and reports any pair of candidate messages whose
//! order is not fixed by happens-before. These tests pin down both sides:
//! genuinely concurrent pairs must be reported, causally ordered pairs must
//! not, and the production (unchecked) path must carry no clocks at all.

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
fn wildcard_recv_with_concurrent_senders_is_reported() {
    // Two ranks race to a wildcard receiver: whichever arrives first wins
    // the first match, so the program's result is schedule-dependent.
    let msg = panic_message(3, |ctx| match ctx.rank() {
        0 => {
            ctx.recv_any(6);
            ctx.recv_any(6);
        }
        _ => ctx.send(0, 6, Payload::u64s(vec![ctx.rank() as u64])),
    });
    assert!(msg.contains("match-order race"), "{msg}");
    assert!(msg.contains("tag 0x6"), "{msg}");
    assert!(msg.contains("any-source recv"), "{msg}");
}

#[test]
fn wildcard_recv_with_causal_chain_is_clean() {
    // The receiver itself relays a go-ahead between the two senders, so
    // accept(m1) happens-before send(m2) and the wildcard matches are
    // fully determined.
    let out = Machine::run_checked(3, MachineModel::cray_t3d(), |ctx| match ctx.rank() {
        0 => {
            let (s1, _) = ctx.recv_any(6);
            ctx.send(2, 7, Payload::Empty); // go-ahead, after the first match
            let (s2, _) = ctx.recv_any(6);
            vec![s1, s2]
        }
        1 => {
            ctx.send(0, 6, Payload::Empty);
            vec![]
        }
        _ => {
            ctx.recv(0, 7);
            ctx.send(0, 6, Payload::Empty);
            vec![]
        }
    });
    assert_eq!(out.results[0], vec![1, 2]);
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
