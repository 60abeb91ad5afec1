//! Regression tests for the commcheck verification layer: every classic
//! message-passing bug must *terminate* with a precise diagnostic instead
//! of hanging the suite.

#![expect(
    clippy::disallowed_methods,
    reason = "exercises the raw send/recv layer that par confines"
)]

use pilut_par::collectives::ReduceOp;
use pilut_par::{Machine, MachineModel, Payload};
use std::panic::AssertUnwindSafe;

/// Runs `f` under `run_checked`, expecting a panic, and returns the panic
/// message for inspection.
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
    .expect_err("run was expected to be diagnosed as faulty");
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
fn deadlock_cycle_is_reported() {
    // Classic head-to-head: each rank receives from the other first.
    let msg = panic_message(2, |ctx| {
        if ctx.rank() == 0 {
            ctx.recv(1, 5);
        } else {
            ctx.recv(0, 6);
        }
    });
    assert!(msg.contains("deadlock"), "{msg}");
    assert!(msg.contains("wait-for graph"), "{msg}");
    assert!(msg.contains("rank 0 -> rank 1"), "{msg}");
    assert!(msg.contains("rank 1 -> rank 0"), "{msg}");
    assert!(msg.contains("deadlock cycle"), "{msg}");
}

#[test]
fn recv_with_no_sender_is_reported() {
    // Rank 1 waits for a message rank 0 never sends; rank 0 just exits.
    let msg = panic_message(2, |ctx| {
        if ctx.rank() == 1 {
            ctx.recv(0, 9);
        }
    });
    assert!(msg.contains("deadlock"), "{msg}");
    assert!(msg.contains("finished without sending"), "{msg}");
}

#[test]
fn leaked_message_is_reported() {
    // Rank 0 sends a message nobody ever receives; the run still
    // completes, but the leak must fail it.
    let msg = panic_message(2, |ctx| {
        if ctx.rank() == 0 {
            ctx.send(1, 7, Payload::u64s(vec![1, 2, 3]));
        }
    });
    assert!(msg.contains("message leak"), "{msg}");
    assert!(msg.contains("from rank 0 to rank 1"), "{msg}");
    assert!(msg.contains("tag 0x7"), "{msg}");
}

#[test]
fn collective_order_mismatch_is_reported() {
    // Rank 0 enters a barrier while rank 1 enters an all-reduce: the
    // reserved-tag traffic pairs up, so only the piggybacked op kind can
    // expose the divergence.
    let msg = panic_message(2, |ctx| {
        if ctx.rank() == 0 {
            ctx.barrier();
        } else {
            ctx.all_reduce_sum(1.0);
        }
    });
    assert!(msg.contains("collective order mismatch"), "{msg}");
    assert!(msg.contains("Barrier"), "{msg}");
    assert!(msg.contains("AllReduceF64"), "{msg}");
}

#[test]
fn collective_count_mismatch_is_reported() {
    // Rank 0 runs one barrier more than rank 1: its second barrier can
    // never complete, and the report must show both call sequences.
    let msg = panic_message(2, |ctx| {
        ctx.barrier();
        if ctx.rank() == 0 {
            ctx.barrier();
        }
    });
    assert!(msg.contains("deadlock"), "{msg}");
    assert!(msg.contains("collective call sequences diverge"), "{msg}");
    assert!(msg.contains(">>Barrier<<"), "{msg}");
    assert!(msg.contains(">>(end of sequence)<<"), "{msg}");
}

#[test]
fn rank_panic_propagation_is_deterministic() {
    // Several ranks panic; the lowest-numbered one must win every time,
    // no matter how the host schedules the threads.
    for _ in 0..8 {
        let msg = panic_message(4, |ctx| {
            if ctx.rank() >= 1 {
                panic!("boom rank {}", ctx.rank());
            }
        });
        assert_eq!(msg, "boom rank 1");
    }
}

#[test]
fn rank_panic_outranks_derived_deadlock() {
    // Rank 1 panics; rank 0 then blocks forever waiting for it. The user
    // panic is the root cause and must be what propagates, not the
    // watchdog's secondary diagnosis.
    let msg = panic_message(2, |ctx| {
        if ctx.rank() == 1 {
            panic!("root cause");
        }
        ctx.recv(1, 3);
    });
    assert_eq!(msg, "root cause");
}

#[test]
fn clean_runs_pass_all_checks() {
    // A correct protocol with point-to-point traffic and collectives runs
    // through checked mode without any diagnostic, and collective calls
    // aggregate to the per-program count.
    let out = Machine::run_checked(4, MachineModel::cray_t3d(), |ctx| {
        let r = ctx.rank();
        let p = ctx.nprocs();
        ctx.send((r + 1) % p, 1, Payload::u64s(vec![r as u64]));
        let got = ctx.recv((r + p - 1) % p, 1).into_u64();
        ctx.barrier();
        let s = ctx.all_reduce_sum(got[0] as f64);
        ctx.barrier();
        s
    });
    assert_eq!(out.stats.collectives, 3);
    for s in out.results {
        assert_eq!(s, 6.0); // 0 + 1 + 2 + 3
    }
}

#[test]
fn dense_collective_traffic_never_trips_the_watchdog() {
    // Regression: the watchdog once read "blocked, nothing in flight" in
    // the window between an envelope being drained and the receiver's
    // status flipping back to Running, declaring a spurious deadlock on
    // perfectly correct runs. Many short collectives back to back keep
    // every rank cycling through that window; under checked mode this
    // must always complete cleanly.
    for round in 0..40 {
        let out = Machine::run_checked(4, MachineModel::cray_t3d(), |ctx| {
            let mut acc = ctx.rank() as u64;
            for _ in 0..25 {
                acc = ctx.all_reduce_u64(vec![acc], ReduceOp::Max)[0] + 1;
            }
            acc
        });
        for r in out.results {
            assert_eq!(r, 28, "round {round}");
        }
    }
}
