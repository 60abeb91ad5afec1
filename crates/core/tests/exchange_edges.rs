//! Edge cases of the plan-once/replay-many data plane, each pinned down by
//! the machine's per-tag traffic counters: a rank owning nothing, a halo
//! that never leaves the rank, zero-length payload rounds, and the
//! stats-vs-wire tag split of a rebased plan.

use pilut_core::dist::exchange::{tags, CommPlan};
use pilut_core::dist::{DistMatrix, Distribution};
use pilut_par::{Machine, MachineModel, Payload};
use pilut_sparse::gen;

#[test]
fn empty_owned_region_rank_counts_no_traffic() {
    // 8 ranks over a 5-row chain: ranks 5..8 own zero rows. They must build
    // idle plans, replay as no-ops, and contribute nothing to the per-tag
    // counters — the owning ranks' chain traffic is all there is.
    let dm = DistMatrix::new(gen::laplace_2d(5, 1), Distribution::block(5, 8));
    let out = Machine::run_checked(8, MachineModel::cray_t3d(), |ctx| {
        let local = dm.local_view(ctx.rank());
        let needed = local.remote_cols(dm.matrix());
        let plan = CommPlan::build(ctx, tags::SPMV, needed, |j| dm.dist().owner(j));
        plan.send_values(ctx, |g| g as f64);
        plan.recv_values(ctx, |g, val| assert_eq!(val, g as f64));
        (plan.is_idle(), plan.sent_values())
    });
    assert!(out.results[5..].iter().all(|&(idle, _)| idle));
    // The 5-row chain has 4 ownership boundaries, each crossed once per
    // direction: 8 messages of one f64 each.
    let (msgs, bytes) = out.stats.tag_totals(tags::SPMV);
    assert_eq!(msgs, 8);
    assert_eq!(bytes, 8 * 8);
}

#[test]
fn fully_self_owned_halo_is_silent() {
    // Every rank declares no remote needs: the plan must be idle on every
    // rank and the protocol tag must record zero traffic — a "halo
    // exchange" whose halo is entirely self-owned costs nothing.
    let dm = DistMatrix::new(gen::laplace_2d(4, 4), Distribution::block(16, 4));
    let out = Machine::run_checked(4, MachineModel::cray_t3d(), |ctx| {
        let plan = CommPlan::build(ctx, tags::SPMV, std::iter::empty(), |j| dm.dist().owner(j));
        plan.send_values(ctx, |_| unreachable!("nothing is scheduled"));
        plan.recv_values(ctx, |_, _| unreachable!("nothing is scheduled"));
        plan.is_idle()
    });
    assert!(out.results.iter().all(|&idle| idle));
    assert_eq!(out.stats.tag_totals(tags::SPMV), (0, 0));
}

#[test]
fn zero_length_payloads_replay_as_counted_messages() {
    // A replay round whose producer ships empty payloads still sends one
    // message per scheduled peer — the round structure is the contract, not
    // the byte count. Counters must show the messages with zero bytes.
    let dist = Distribution::block(4, 4);
    let out = Machine::run_checked(4, MachineModel::cray_t3d(), |ctx| {
        let me = ctx.rank();
        // Ring: rank r needs the node owned by rank r+1.
        let needed = vec![(me + 1) % 4];
        let plan = CommPlan::build(ctx, tags::MIS_TENT, needed, |j| dist.owner(j));
        let mut rounds = 0u64;
        for _ in 0..3 {
            plan.replay(
                ctx,
                |_, _| Payload::Empty,
                |_, _, payload| {
                    assert_eq!(payload, Payload::Empty);
                    rounds += 1;
                },
            );
        }
        rounds
    });
    // Each rank heard its one send-side peer three times.
    assert!(out.results.iter().all(|&r| r == 3));
    // 4 directed edges × 3 rounds, all empty.
    assert_eq!(out.stats.tag_totals(tags::MIS_TENT), (12, 0));
}

#[test]
fn rebased_plan_attributes_stats_to_protocol_tag() {
    // Regression: `replay()` on a rebased plan used to record its traffic
    // under the private wire base instead of the protocol tag, so per-level
    // sub-plans silently vanished from the per-tag breakdown.
    let dist = Distribution::block(4, 4);
    let out = Machine::run_checked(4, MachineModel::cray_t3d(), |ctx| {
        let me = ctx.rank();
        let needed = vec![(me + 1) % 4];
        let plan = CommPlan::build(ctx, tags::FWD, needed, |j| dist.owner(j))
            .rebase(tags::FWD + (3 << 20));
        plan.replay(
            ctx,
            |_, nodes| Payload::u64s(nodes.iter().map(|&g| g as u64).collect()),
            |peer, nodes, payload| {
                assert_eq!(
                    payload.into_u64(),
                    nodes.iter().map(|&g| g as u64).collect::<Vec<_>>(),
                    "from rank {peer}"
                );
            },
        );
    });
    let (msgs, bytes) = out.stats.tag_totals(tags::FWD);
    assert_eq!(msgs, 4);
    assert_eq!(bytes, 4 * 8);
    // Nothing may leak into the counter map under the wire base.
    assert_eq!(out.stats.tag_totals(tags::FWD + (3 << 20)), (0, 0));
}

#[test]
fn plan_rebuilt_after_rebase_starts_fresh_rounds() {
    // A rebase keeps the plan's schedule but its round counters are
    // per-base: replays before and after a restrict+rebase must stay
    // matched on both sides even when interleaved with the parent plan's
    // own rounds.
    let dist = Distribution::block(4, 4);
    let out = Machine::run_checked(4, MachineModel::cray_t3d(), |ctx| {
        let me = ctx.rank();
        let needed = vec![(me + 1) % 4];
        let parent = CommPlan::build(ctx, tags::BWD, needed, |j| dist.owner(j));
        let child = parent
            .restrict(|_| true, |_| true)
            .rebase(tags::BWD + (1 << 20));
        let mut heard = 0u64;
        for _ in 0..2 {
            parent.replay(ctx, |_, _| Payload::Empty, |_, _, _| heard += 1);
            child.replay(ctx, |_, _| Payload::Empty, |_, _, _| heard += 1);
        }
        heard
    });
    assert!(out.results.iter().all(|&h| h == 4));
    // Parent and child rounds both attribute to the protocol tag.
    let (msgs, _) = out.stats.tag_totals(tags::BWD);
    assert_eq!(msgs, 16);
}
