//! Edge cases of the two-plane data plane, each pinned down by the
//! machine's per-tag traffic counters: a rank owning nothing, a halo that
//! never leaves the rank, rounds of empty frames, and the wire-vs-stats tag
//! split of a levelled halo.

use pilut_core::dist::exchange::{tags, AllPeers, CommPlan, Halo};
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
        let halo = Halo::new(ctx, &plan, 1, |g| (0, g));
        halo.send_values(ctx, 0, |g| g as f64);
        halo.recv_values(ctx, 0, |g, val| assert_eq!(val, g as f64));
        (plan.is_idle(), halo.sent_values())
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
        let halo = Halo::new(ctx, &plan, 1, |_| unreachable!("nothing is scheduled"));
        halo.send_values(ctx, 0, |_| unreachable!("nothing is scheduled"));
        halo.recv_values(ctx, 0, |_, _| unreachable!("nothing is scheduled"));
        plan.is_idle()
    });
    assert!(out.results.iter().all(|&idle| idle));
    assert_eq!(out.stats.tag_totals(tags::SPMV), (0, 0));
}

/// The ring plan of the tests below: rank `r` of 4 needs the node owned by
/// rank `r + 1`.
fn ring_plan(ctx: &mut pilut_par::Ctx, tag: u64) -> CommPlan {
    let dist = Distribution::block(4, 4);
    let needed = vec![(ctx.rank() + 1) % 4];
    CommPlan::build(ctx, tag, needed, |j| dist.owner(j))
}

#[test]
fn rounds_of_empty_frames_count_one_message_per_live_link() {
    // A round whose producer ships empty frames still sends one message per
    // live scheduled peer — the round structure is the contract, not the
    // byte count. Counters and ledger must show the messages with zero
    // bytes, exactly.
    let out = Machine::run_checked(4, MachineModel::cray_t3d(), |ctx| {
        let plan = ring_plan(ctx, tags::MIS_TENT);
        let mut rounds = 0u64;
        for _ in 0..3 {
            plan.exact_round(
                ctx,
                tags::MIS_TENT,
                &AllPeers,
                &AllPeers,
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
    assert_eq!(out.stats.planned_by_tag[&tags::MIS_TENT], (12, 0));
}

#[test]
fn levelled_halo_ships_each_level_alone_under_the_protocol_tag() {
    // A three-level halo on the ring: rank r's node (node r) sits at level
    // r % 3, so levels 0, 1, 2 hold nodes {0, 3}, {1}, {2}. The level-l
    // round must deliver exactly that level's values, a peer whose range
    // at a level is empty gets no message, and every byte is attributed to
    // the protocol tag — nothing under the per-level wire bases. Two sweeps
    // interleaved with the plan's own label round stay matched: the halo
    // counts its sweeps per level, apart from the plan's rounds, and ships
    // them under wire tags no round of the plan uses.
    let out = Machine::run_checked(4, MachineModel::cray_t3d(), |ctx| {
        let plan = ring_plan(ctx, tags::FWD);
        let halo = Halo::new(ctx, &plan, 3, |g| (g % 3, g));
        let mut heard = Vec::new();
        for sweep in 0..2 {
            for level in 0..3 {
                halo.send_values(ctx, level, |g| (10 * sweep + g) as f64);
                halo.recv_values(ctx, level, |g, val| {
                    assert_eq!(val, (10 * sweep + g) as f64);
                    heard.push((level, g));
                });
            }
            plan.exchange_labels(ctx, |g| g as u64, |g, l| assert_eq!(l, g as u64));
        }
        heard
    });
    for (r, heard) in out.results.iter().enumerate() {
        // Rank r receives node r + 1, at that node's level and no other.
        let g = (r + 1) % 4;
        assert_eq!(heard, &[(g % 3, g), (g % 3, g)], "rank {r}");
    }
    // Per sweep: 4 values (one per ring link, each at exactly one level)
    // plus 4 labels — 8 messages of 8 bytes, twice.
    assert_eq!(out.stats.tag_totals(tags::FWD), (16, 16 * 8));
    assert_eq!(out.stats.planned_by_tag[&tags::FWD], (16, 16 * 8));
    for level in 1..3 {
        assert_eq!(out.stats.tag_totals(tags::FWD + (level << 20)), (0, 0));
    }
}
