//! Behavioural tests of the virtual machine: failure propagation, counter
//! bookkeeping, and the alternative machine models.

#![expect(
    clippy::disallowed_methods,
    reason = "exercises the raw send/recv layer that par confines"
)]

use pilut_par::{Machine, MachineModel, Payload};

#[test]
fn rank_panic_propagates_to_the_caller() {
    let result = std::panic::catch_unwind(|| {
        Machine::run_checked(3, MachineModel::cray_t3d(), |ctx| {
            if ctx.rank() == 1 {
                panic!("deliberate failure on rank 1");
            }
            // Other ranks finish without waiting on rank 1.
        })
    });
    assert!(result.is_err(), "a rank panic must surface");
}

#[test]
fn counters_add_up() {
    let out = Machine::run_checked(4, MachineModel::cray_t3d(), |ctx| {
        let me = ctx.rank();
        // Ring: everyone sends 16 bytes to the right.
        ctx.send((me + 1) % 4, 1, Payload::f64s(vec![1.0, 2.0]));
        ctx.recv((me + 3) % 4, 1);
        ctx.work(100.0);
        ctx.copy_words(5.0);
    });
    assert_eq!(out.stats.messages, 4);
    assert_eq!(out.stats.bytes, 4 * 16);
    assert_eq!(out.stats.flops, 400.0);
    assert_eq!(out.stats.words_copied, 20.0);
    assert_eq!(out.stats.rank_times.len(), 4);
}

#[test]
fn zero_comm_machine_makes_messages_free() {
    let time_with = |model: MachineModel| {
        Machine::run_checked(2, model, |ctx| {
            if ctx.rank() == 0 {
                ctx.send(1, 0, Payload::f64s(vec![0.0; 1000]));
            } else {
                ctx.recv(0, 0);
            }
            ctx.barrier();
            ctx.time()
        })
        .sim_time
    };
    let free = time_with(MachineModel::zero_comm());
    let t3d = time_with(MachineModel::cray_t3d());
    let cluster = time_with(MachineModel::workstation_cluster());
    assert!(free < t3d, "zero-comm {free} !< t3d {t3d}");
    assert!(t3d < cluster, "t3d {t3d} !< cluster {cluster}");
}

#[test]
fn sim_time_scales_with_modelled_work_not_wall_time() {
    // Two runs doing identical modelled work must report identical simulated
    // time even though wall time fluctuates.
    let run = || {
        Machine::run_checked(5, MachineModel::cray_t3d(), |ctx| {
            ctx.work(12345.0 * (ctx.rank() as f64 + 1.0));
            let s = ctx.all_reduce_sum(1.0);
            assert_eq!(s, 5.0);
            ctx.time()
        })
    };
    assert_eq!(run().sim_time, run().sim_time);
}

#[test]
fn exchange_with_nobody_sending_is_fine() {
    let out = Machine::run_checked(3, MachineModel::cray_t3d(), |ctx| {
        ctx.exchange(vec![]).len()
    });
    assert_eq!(out.results, vec![0, 0, 0]);
}

#[test]
fn large_fanout_exchange_delivers_everything() {
    // Every rank sends one message to every other rank.
    let p = 6;
    let out = Machine::run_checked(p, MachineModel::cray_t3d(), |ctx| {
        let me = ctx.rank();
        let sends: Vec<(usize, Payload)> = (0..p)
            .filter(|&d| d != me)
            .map(|d| (d, Payload::u64s(vec![me as u64 * 100 + d as u64])))
            .collect();
        let got = ctx.exchange(sends);
        got.into_iter()
            .map(|(src, payload)| (src, payload.into_u64()[0]))
            .collect::<Vec<_>>()
    });
    for (me, got) in out.results.iter().enumerate() {
        assert_eq!(got.len(), p - 1);
        for &(src, v) in got {
            assert_eq!(v, src as u64 * 100 + me as u64);
        }
    }
}
