//! The replay half of [`CommPlan`]: the steady-state data plane.
//!
//! Everything in this file runs *after* a plan is built, inside the
//! plan-once/replay-many steady state, and is therefore on the
//! `no-alloc-in-hot` lint list and under the zero-alloc bench gate. The
//! discipline:
//!
//! * values-only rounds ship pooled buffers ([`pilut_par::pool`]); the
//!   receiver reads them through a borrow and both sides `recycle` their
//!   payload handles, so whichever reference drops last (the receiver,
//!   or the sender's reliable-delivery retention on cumulative ACK)
//!   shelves the buffer back — no per-round heap traffic on either side;
//! * exact-framed rounds stage their frames in a plan-owned scratch
//!   vector whose capacity is reserved at build time;
//! * every replay entry point is wrapped in an `alloc_audit` region, so
//!   the bench harness can attribute (and gate to zero) whatever heap
//!   traffic still slips through.
//!
//! The allocation sites that remain are annotated `allow(alloc-in-hot)`
//! with the setup-vs-steady reasoning inline.

use super::CommPlan;
use pilut_par::{pool, Ctx, Payload};
use std::collections::HashSet;

/// The live subset of a plan's peers for one sparse replay round.
pub trait PeerSet {
    /// Whether the link to rank `peer` carries a message this round.
    fn has(&self, peer: usize) -> bool;
}

impl PeerSet for HashSet<usize> {
    fn has(&self, peer: usize) -> bool {
        self.contains(&peer)
    }
}

/// Liveness flags indexed by peer rank — what the dist-MIS rounds keep.
impl PeerSet for [bool] {
    fn has(&self, peer: usize) -> bool {
        self[peer]
    }
}

impl CommPlan {
    /// The round's wire tag for the send half under `base`, advancing the
    /// send counter. Computed once per round — every peer of one round must
    /// ship under the same tag.
    pub(super) fn send_round_tag(&self, base: u64) -> u64 {
        let mut rounds = self.rounds.borrow_mut();
        // lint: allow(alloc-in-hot): first round under a base tag inserts one map node (setup)
        let entry = rounds.entry(base).or_insert((0, 0));
        let tag = base + entry.0;
        entry.0 += 1;
        tag
    }

    /// The round's wire tag for the receive half under `base`, advancing
    /// the receive counter.
    pub(super) fn recv_round_tag(&self, base: u64) -> u64 {
        let mut rounds = self.rounds.borrow_mut();
        // lint: allow(alloc-in-hot): first round under a base tag inserts one map node (setup)
        let entry = rounds.entry(base).or_insert((0, 0));
        let tag = base + entry.1;
        entry.1 += 1;
        tag
    }

    /// One directed replay round under the plan's own tag: see
    /// [`CommPlan::replay_tagged`]. On a [`CommPlan::rebase`]d plan the
    /// wire tags come from the private base while the traffic counters
    /// stay attributed to the original protocol tag.
    pub fn replay(
        &self,
        ctx: &mut Ctx,
        make: impl FnMut(usize, &[usize]) -> Payload,
        take: impl FnMut(usize, &[usize], Payload),
    ) {
        self.replay_dir(ctx, self.tag, self.stats_tag, make, take);
    }

    /// One directed replay round under an explicit tag (for protocols that
    /// multiplex several message kinds over one plan, like the MIS steps):
    /// sends `make(peer, nodes)` to every send-side peer, then hands each
    /// receive-side peer's payload to `take(peer, nodes, payload)`, both in
    /// ascending peer order. Exactly one message per peer per round. The
    /// explicit tag names both the wire namespace and the counter key.
    pub fn replay_tagged(
        &self,
        ctx: &mut Ctx,
        tag: u64,
        make: impl FnMut(usize, &[usize]) -> Payload,
        take: impl FnMut(usize, &[usize], Payload),
    ) {
        self.replay_dir(ctx, tag, tag, make, take);
    }

    /// The shared directed round: wire tags under `wire_base`, counters
    /// under `stats_tag`. Every public replay entry funnels through here so
    /// the wire-vs-stats split cannot drift between them.
    fn replay_dir(
        &self,
        ctx: &mut Ctx,
        wire_base: u64,
        stats_tag: u64,
        mut make: impl FnMut(usize, &[usize]) -> Payload,
        mut take: impl FnMut(usize, &[usize], Payload),
    ) {
        let _audit = pilut_allocaudit::region("plan_replay");
        // Producer-defined payloads: predict the message count, not bytes.
        ctx.note_planned(stats_tag, self.predicted_cost().directed_messages, 0, false);
        let send_tag = self.send_round_tag(wire_base);
        for (peer, nodes) in &self.send {
            let payload = make(*peer, nodes);
            ctx.send_as(*peer, send_tag, stats_tag, payload);
        }
        let recv_tag = self.recv_round_tag(wire_base);
        for (peer, nodes) in &self.recv {
            let payload = ctx.recv(*peer, recv_tag);
            take(*peer, nodes, payload);
        }
    }

    /// One directed replay round with an **exact** byte prediction over a
    /// round-dependent **live subset** of the plan's links: every live
    /// send-side frame is built *before* any byte ships, the frame sizes
    /// are summed, and the ledger records `(messages, bytes)` with the
    /// exact flag set — `xtask bench`'s in-process planned = measured check
    /// then gates the tag byte-for-byte. This is the replay the delta-MIS
    /// rounds run on; producer-defined rounds whose sizes the caller cannot
    /// commit to up front keep using [`CommPlan::replay_tagged`]. Frames are
    /// staged in the plan-owned scratch (reserved at build) so the round
    /// itself stays allocation-free. Peers absent from `live_send` get no
    /// frame this round, peers absent from `live_recv` are not received
    /// from, and the ledger records the surviving traffic exactly. The two
    /// sets must be mirror-consistent across ranks (`q ∈ live_send` on rank
    /// `r` iff `r ∈ live_recv` on rank `q`); callers derive them from state
    /// both endpoints provably share — the delta-MIS rounds use the
    /// shipped-state view, which owner and referencer update in lockstep —
    /// otherwise the replay deadlocks, which checked runs diagnose. Round
    /// tags advance whether or not any link is live, so rounds stay aligned
    /// across ranks.
    pub fn replay_exact_sparse_tagged(
        &self,
        ctx: &mut Ctx,
        tag: u64,
        live_send: &(impl PeerSet + ?Sized),
        live_recv: &(impl PeerSet + ?Sized),
        mut make: impl FnMut(usize, &[usize]) -> Payload,
        mut take: impl FnMut(usize, &[usize], Payload),
    ) {
        let _audit = pilut_allocaudit::region("plan_replay");
        let mut frames = self.frame_scratch.borrow_mut();
        frames.clear();
        for (peer, nodes) in &self.send {
            if live_send.has(*peer) {
                frames.push(make(*peer, nodes));
            }
        }
        let bytes: u64 = frames.iter().map(|f| f.bytes() as u64).sum();
        ctx.note_planned(tag, frames.len() as u64, bytes, true);
        let send_tag = self.send_round_tag(tag);
        let mut staged = frames.drain(..);
        for (peer, _) in &self.send {
            if live_send.has(*peer) {
                // lint: allow(unwrap): one frame was staged per live send peer just above
                let frame = staged.next().expect("frame staged per live peer");
                ctx.send_as(*peer, send_tag, tag, frame);
            }
        }
        drop(staged);
        drop(frames);
        let recv_tag = self.recv_round_tag(tag);
        for (peer, nodes) in &self.recv {
            if !live_recv.has(*peer) {
                continue;
            }
            let payload = ctx.recv(*peer, recv_tag);
            take(*peer, nodes, payload);
        }
    }

    /// The symmetric counterpart of
    /// [`CommPlan::replay_exact_sparse_tagged`]: one exactly-predicted
    /// message to every union peer in `live`, which must be agreed by both
    /// endpoints of each pair (`q ∈ live` on rank `r` iff `r ∈ live` on
    /// rank `q`).
    pub fn replay_symmetric_exact_sparse_tagged(
        &self,
        ctx: &mut Ctx,
        tag: u64,
        live: &(impl PeerSet + ?Sized),
        mut make: impl FnMut(usize) -> Payload,
        mut take: impl FnMut(usize, Payload),
    ) {
        let _audit = pilut_allocaudit::region("plan_replay");
        let mut frames = self.frame_scratch.borrow_mut();
        frames.clear();
        for &peer in &self.union_peers {
            if live.has(peer) {
                frames.push(make(peer));
            }
        }
        let bytes: u64 = frames.iter().map(|f| f.bytes() as u64).sum();
        ctx.note_planned(tag, frames.len() as u64, bytes, true);
        let send_tag = self.send_round_tag(tag);
        let mut staged = frames.drain(..);
        for &peer in &self.union_peers {
            if live.has(peer) {
                // lint: allow(unwrap): one frame was staged per live union peer just above
                let frame = staged.next().expect("frame staged per live peer");
                ctx.send_as(peer, send_tag, tag, frame);
            }
        }
        drop(staged);
        drop(frames);
        let recv_tag = self.recv_round_tag(tag);
        for &peer in &self.union_peers {
            if !live.has(peer) {
                continue;
            }
            let payload = ctx.recv(peer, recv_tag);
            take(peer, payload);
        }
    }

    /// One symmetric replay round: every rank pair in the *union* of the two
    /// plan directions exchanges exactly one message (used by MIS step 3,
    /// where confirmations flow owner→referencer but kills flow the other
    /// way).
    pub fn replay_symmetric_tagged(
        &self,
        ctx: &mut Ctx,
        tag: u64,
        mut make: impl FnMut(usize) -> Payload,
        mut take: impl FnMut(usize, Payload),
    ) {
        let _audit = pilut_allocaudit::region("plan_replay");
        ctx.note_planned(tag, self.predicted_cost().symmetric_messages, 0, false);
        let send_tag = self.send_round_tag(tag);
        for &peer in &self.union_peers {
            let payload = make(peer);
            ctx.send_as(peer, send_tag, tag, payload);
        }
        let recv_tag = self.recv_round_tag(tag);
        for &peer in &self.union_peers {
            let payload = ctx.recv(peer, recv_tag);
            take(peer, payload);
        }
    }

    /// The send half of a values-only round: one `f64` batch per send-side
    /// peer, values in the agreed node order (no node ids on the wire),
    /// staged in pooled buffers warmed at build time. Pairs with a matching
    /// [`CommPlan::recv_values`] on the other side — SpMV calls the halves
    /// back to back, the triangular sweeps at different loop iterations,
    /// which is why they are split.
    pub fn send_values(&self, ctx: &mut Ctx, value_of: impl Fn(usize) -> f64) {
        let _audit = pilut_allocaudit::region("send_values");
        let cost = self.predicted_cost();
        ctx.note_planned(
            self.stats_tag,
            cost.directed_messages,
            cost.value_bytes,
            true,
        );
        let send_tag = self.send_round_tag(self.tag);
        for (peer, nodes) in &self.send {
            let mut vals = pool::take_f64(nodes.len());
            vals.extend(nodes.iter().map(|&g| value_of(g)));
            ctx.copy_words(vals.len() as f64);
            ctx.send_as(*peer, send_tag, self.stats_tag, Payload::f64s(vals));
        }
    }

    /// The receive half of a values-only round: drains one `f64` batch per
    /// recv-side peer, hands each `(node, value)` to `take`, and recycles
    /// the batch toward the registered-buffer pool.
    pub fn recv_values(&self, ctx: &mut Ctx, mut take: impl FnMut(usize, f64)) {
        let _audit = pilut_allocaudit::region("recv_values");
        let recv_tag = self.recv_round_tag(self.tag);
        for (peer, nodes) in &self.recv {
            // Borrow the values in place, then recycle the handle: under
            // reliable delivery the sender still retains the frame, and
            // `into_f64` here would deep-copy every round while the pooled
            // buffer died with the retained clone. Whichever side drops
            // the last reference (us now, or the sender's cumulative-ACK
            // release) shelves the buffer back into the pool.
            let payload = ctx.recv(*peer, recv_tag);
            let vals = payload.as_f64();
            assert_eq!(vals.len(), nodes.len(), "plan mismatch from rank {peer}");
            for (&g, &val) in nodes.iter().zip(vals) {
                take(g, val);
            }
            ctx.copy_words(nodes.len() as f64);
            payload.recycle();
        }
    }
}
