//! The unified data plane: plan once, then run rounds along the plan.
//!
//! The paper's three kernels (factorization, triangular solve, SpMV — §1,
//! §3) all ride the same structural fact: the neighbour communication
//! pattern is fixed by the matrix distribution, so a "communication setup
//! phase" can teach every rank which peers reference which of its nodes,
//! once, and every later exchange is one packed message per peer. The
//! module keeps that fact in **two planes, one job each**:
//!
//! * **Frames** — [`CommPlan`], the neighbour schedule: the send and
//!   receive node lists of every linked peer, and two rounds that put
//!   producer-built frames on the wire along them — directed
//!   ([`CommPlan::exact_round`]) and symmetric
//!   ([`CommPlan::exact_round_symmetric`]), both over a live subset of the
//!   links and both *exact*: every frame is built before the first byte
//!   ships, so the round is priced from the frames' sizes. The level loop
//!   of the factorizations builds one plan per level and ships dist-MIS
//!   frames and `U` rows over it.
//! * **Values** — [`Halo`], built *from* a plan at plan-build time: per
//!   peer one slot list cut into levels, and values-only rounds
//!   ([`Halo::send_values`] / [`Halo::recv_values`]) that ship `f64`s in the
//!   node order both sides agreed on, no ids on the wire. SpMV holds a
//!   one-level halo, the triangular solve one per sweep direction; the halo
//!   is the only thing that warms the registered `f64` buffer pool.
//!
//! Clippy's `disallowed_methods` (the `no-raw-comm` rule of `clippy.toml`)
//! keeps every distributed kernel on these two planes: this module, its
//! `halo` child and the `pilut-par` VM itself are the only places allowed to
//! touch `ctx.send` / `ctx.recv` directly.
//!
//! Round contract, both planes:
//!
//! * a round sends **exactly one message per live scheduled peer** and
//!   receives exactly one from each live peer on the opposite side, in
//!   ascending peer order — deterministic, deadlock-free, and observable
//!   (each protocol runs under its own tag from [`tags`], so the per-tag
//!   counters in `MachineStats::by_tag` break comm volume down by kernel);
//! * every round ships under a fresh wire tag — `tag + round` for frames,
//!   `tag + ((level + 1) << 20) + sweep` for values, so no sweep shares a
//!   wire tag with a frame round of its plan — while the traffic counters
//!   stay under `tag` (`Ctx::send_as`), so two in-flight rounds of one
//!   protocol can never be confused even if same-pair delivery order is
//!   inverted — the chaos suite's `reorder` fault exercises exactly this;
//! * every round records its messages and bytes in the planned-traffic
//!   ledger (`Ctx::note_planned`) before it ships, and the kernel gate of
//!   `xtask paper` fails when the measured per-tag counters diverge;
//! * a plan built from empty need-lists runs its rounds as no-ops, so ranks
//!   that own zero rows participate safely.

#![expect(clippy::disallowed_methods, reason = "planned rounds send raw frames")]

use pilut_par::{Ctx, Payload};
use std::cell::RefCell;

mod halo;
pub use halo::Halo;

/// The user-tag namespace of every planned protocol in the repository.
///
/// One constant per kernel keeps repeated rounds unambiguous (matching is
/// FIFO per `(sender, tag)`) and makes the per-tag counters in
/// `MachineStats::by_tag` legible. Values are stable across releases — the
/// bench JSON reports them by [`tags::tag_name`].
pub mod tags {
    /// Uniform stride between protocol namespaces. Each protocol owns
    /// `[base, base + STRIDE)`: room for a 20-bit level shift
    /// (`base + ((level + 1) << 20)`) times a 20-bit round counter within
    /// every level's private base, with no way for one protocol's derived
    /// wire tags to drift into its neighbour's namespace. The `tag_name`
    /// *strings* are the stable interface reported in bench JSON; the
    /// numeric values may restride between releases.
    pub const STRIDE: u64 = 1 << 40;
    /// Namespaces below, the unnamed `[0, STRIDE)` included: a plan keeps
    /// one round counter per namespace, indexed by `tag / STRIDE`.
    pub const NAMESPACES: usize = 8;
    /// Boundary `x` values of the distributed SpMV.
    pub const SPMV: u64 = STRIDE;
    /// U-row shipping of the interface levels (`par_ilut` and `par_ilu0`).
    pub const UROWS: u64 = 2 * STRIDE;
    /// Forward-sweep values of the distributed triangular solve.
    pub const FWD: u64 = 3 * STRIDE;
    /// Backward-sweep values of the distributed triangular solve.
    pub const BWD: u64 = 4 * STRIDE;
    /// Distributed-MIS step 1: key/state push.
    pub const MIS_KEYS: u64 = 5 * STRIDE;
    /// Distributed-MIS step 2: tentative-winner push.
    pub const MIS_TENT: u64 = 6 * STRIDE;
    /// Distributed-MIS step 3: confirmation + kill push.
    pub const MIS_CONF: u64 = 7 * STRIDE;

    /// Human-readable name of a counter tag (the collectives' reserved
    /// namespace reports as `"coll"`, unknown user tags as `"user"`).
    pub fn tag_name(tag: u64) -> &'static str {
        match tag {
            SPMV => "spmv",
            UROWS => "urows",
            FWD => "fwd",
            BWD => "bwd",
            MIS_KEYS => "mis_keys",
            MIS_TENT => "mis_tent",
            MIS_CONF => "mis_conf",
            t if pilut_par::Ctx::is_reserved(t) => "coll",
            _ => "user",
        }
    }
}

/// The live subset of a plan's peers for one round.
pub trait PeerSet {
    /// Whether the link to rank `peer` carries a message this round.
    fn has(&self, peer: usize) -> bool;
}

/// Every link is live: the round ships one frame per scheduled peer.
pub struct AllPeers;

impl PeerSet for AllPeers {
    fn has(&self, _: usize) -> bool {
        true
    }
}

/// Liveness flags indexed by peer rank — what the dist-MIS rounds keep.
impl PeerSet for [bool] {
    fn has(&self, peer: usize) -> bool {
        self[peer]
    }
}

/// A per-rank neighbour schedule, built collectively from "which remote
/// nodes do I need, and who owns them".
///
/// `recv` lists the nodes this rank declared a need for, grouped by owning
/// peer and sorted; `send` lists the nodes each peer declared a need for,
/// in the exact order that peer's receive side expects. Both sides of every
/// pair hold mirror-image lists, which is what lets frames address nodes by
/// index and a [`Halo`] ship values without node ids on the wire.
pub struct CommPlan {
    tag: u64,
    /// `(peer, my nodes to send)` — in the order `peer` expects them.
    send: Vec<(usize, Vec<usize>)>,
    /// `(peer, peer's nodes I need)` — sorted ascending.
    recv: Vec<(usize, Vec<usize>)>,
    /// Sorted union of send and recv peers (the symmetric-round pairs).
    union_peers: Vec<usize>,
    /// Rounds run so far in each protocol namespace, by `tag / STRIDE`.
    /// Round `r` under `tag` ships under the fresh wire tag `tag + r`, so
    /// two in-flight rounds can never be confused, even if the network
    /// inverts same-pair delivery order (the same trick the VM's
    /// collectives play with their sequence numbers). Interior-mutable
    /// because rounds take `&self`; the counters advance in lockstep across
    /// ranks because every round is collective over the plan's participants.
    rounds: RefCell<[u64; tags::NAMESPACES]>,
    /// Frame staging area of a round, `(peer, frame)`: capacity reserved at
    /// construction (one slot per possible peer), cleared and refilled each
    /// round, so staging never allocates.
    staged: RefCell<Vec<(usize, Payload)>>,
}

/// Sorted union of the peers of two schedules.
fn union_of(send: &[(usize, Vec<usize>)], recv: &[(usize, Vec<usize>)]) -> Vec<usize> {
    let mut union: Vec<usize> = send.iter().chain(recv).map(|&(q, _)| q).collect();
    union.sort_unstable();
    union.dedup();
    union
}

impl CommPlan {
    /// Collectively builds the plan (every rank must call this together).
    ///
    /// `needed` enumerates the distinct remote nodes this rank references,
    /// each once; `owner_of` maps each to its owning rank.
    /// One sparse all-to-all teaches every owner which peers need which of
    /// its nodes. `tag` names the plan's own protocol namespace (the label
    /// round's, and a derived [`Halo`]'s).
    pub fn build(
        ctx: &mut Ctx,
        tag: u64,
        needed: impl IntoIterator<Item = usize>,
        owner_of: impl Fn(usize) -> usize,
    ) -> CommPlan {
        let me = ctx.rank();
        let p = ctx.nprocs();
        let mut by_owner: Vec<Vec<usize>> = vec![Vec::new(); p];
        for node in needed {
            let owner = owner_of(node);
            debug_assert_ne!(owner, me, "own nodes are never remote");
            by_owner[owner].push(node);
        }
        let mut sends = Vec::new();
        let mut recv = Vec::new();
        for (owner, list) in by_owner.iter_mut().enumerate() {
            if list.is_empty() {
                continue;
            }
            list.sort_unstable();
            debug_assert!(
                list.windows(2).all(|w| w[0] < w[1]),
                "a needed node is listed twice"
            );
            list.shrink_to_fit();
            sends.push((
                owner,
                Payload::u64s(list.iter().map(|&x| x as u64).collect()),
            ));
            recv.push((owner, std::mem::take(list)));
        }
        let mut send = Vec::new();
        for (peer, payload) in ctx.exchange(sends) {
            let nodes: Vec<usize> = payload.into_u64().into_iter().map(|x| x as usize).collect();
            send.push((peer, nodes));
        }
        let plan = CommPlan::from_lists(tag, send, recv);
        // Every freshly-built plan is proved consistent *before* any round
        // can ship a byte under it — peer symmetry, packing sizes, tag
        // discipline, round counters (see `verify`; the cross-rank half
        // runs on checked machines).
        if let Err(e) = plan.verify(ctx) {
            panic!("commplan verify[{}]: {e}", tags::tag_name(tag));
        }
        plan
    }

    fn from_lists(
        tag: u64,
        send: Vec<(usize, Vec<usize>)>,
        recv: Vec<(usize, Vec<usize>)>,
    ) -> CommPlan {
        let union_peers = union_of(&send, &recv);
        CommPlan {
            tag,
            staged: RefCell::new(Vec::with_capacity(union_peers.len())),
            send,
            recv,
            union_peers,
            rounds: RefCell::new([0; tags::NAMESPACES]),
        }
    }

    /// Structural self-checks that need no communication: schedules sorted
    /// by peer with no duplicates or empty lists, peers in range and never
    /// `me`, receive-side node lists strictly ascending (the order both
    /// sides agreed on), and the union-peer list consistent with the two
    /// directions. Every violation is a plan-construction bug, reported
    /// before any round can act on it.
    pub fn verify_local(&self, me: usize, p: usize) -> Result<(), String> {
        let check_side = |side: &str, lists: &[(usize, Vec<usize>)]| -> Result<(), String> {
            let mut prev: Option<usize> = None;
            for (peer, nodes) in lists {
                if *peer >= p {
                    return Err(format!("{side} peer {peer} out of range (p = {p})"));
                }
                if *peer == me {
                    return Err(format!("{side} schedule loops back to rank {me}"));
                }
                if nodes.is_empty() {
                    return Err(format!("{side} list for peer {peer} is empty"));
                }
                if prev.is_some_and(|q| q >= *peer) {
                    return Err(format!("{side} peers not strictly ascending at {peer}"));
                }
                prev = Some(*peer);
            }
            Ok(())
        };
        check_side("send", &self.send)?;
        check_side("recv", &self.recv)?;
        for (peer, nodes) in &self.recv {
            if !nodes.windows(2).all(|w| w[0] < w[1]) {
                return Err(format!(
                    "recv nodes from peer {peer} not strictly ascending — \
                     the values-only wire order is ambiguous"
                ));
            }
        }
        let union = union_of(&self.send, &self.recv);
        if union != self.union_peers {
            return Err(format!(
                "union peers {:?} inconsistent with schedules {union:?}",
                self.union_peers
            ));
        }
        Ok(())
    }

    /// The cross-check (every plan participant must call this together):
    /// after the local checks, each rank posts a summary of its schedules
    /// on the commcheck board ([`Ctx::board_gather`]) and every rank
    /// verifies the global invariants —
    ///
    /// * **tag discipline** — the plan runs under a named `tags::`
    ///   protocol namespace and all ranks agree on it;
    /// * **mirror symmetry** — rank `r` sends to `q` exactly when `q`
    ///   receives from `r`;
    /// * **packing-size agreement** — both sides of every pair schedule
    ///   the same node count, so index-addressed frames and values-only
    ///   rounds can never misalign;
    /// * **round-count agreement** — all ranks have run the same number of
    ///   rounds (plans fresh from [`CommPlan::build`] agree trivially at
    ///   zero).
    ///
    /// Runs from every `build`; long-lived callers may re-verify later
    /// (e.g. after rounds) at will. On a production machine, which has no
    /// board, only the local checks and the tag discipline run; on either
    /// the check sends nothing and charges nothing.
    pub fn verify(&self, ctx: &mut Ctx) -> Result<(), String> {
        let me = ctx.rank();
        self.verify_local(me, ctx.nprocs())?;
        if !self.tag.is_multiple_of(tags::STRIDE) || tags::tag_name(self.tag) == "user" {
            return Err(format!(
                "tag {:#x} is not a named protocol namespace",
                self.tag
            ));
        }
        // Summary: [tag, rounds, rounds weighted by namespace, n_send,
        // n_recv, (peer, len)...]. Rounds advance in lockstep, so the sums
        // agree; the weighted one tells namespaces apart.
        let rounds = self.rounds.borrow();
        let weighted = rounds.iter().zip(1..).map(|(&r, k)| k * r).sum::<u64>();
        let rounds = [rounds.iter().sum::<u64>(), weighted];
        let sides = [self.send.len(), self.recv.len()].map(|n| n as u64);
        let mut summary = vec![self.tag, rounds[0], rounds[1], sides[0], sides[1]];
        for (peer, nodes) in self.send.iter().chain(&self.recv) {
            summary.push(*peer as u64);
            summary.push(nodes.len() as u64);
        }
        let Some(all) = ctx.board_gather(&summary) else {
            return Ok(());
        };
        // Decode every rank's two sides once, as `(peer, len)` lists in the
        // ascending peer order `verify_local` enforces, then check the
        // global mirror property on all pairs in ascending `(rank, peer)`
        // order — every rank reports the same first violation.
        type Side = Vec<(usize, u64)>;
        let find = |side: &Side, q: usize| {
            let at = side.binary_search_by_key(&q, |&(peer, _)| peer);
            at.ok().map(|i| side[i].1)
        };
        let mut sides: Vec<(Side, Side)> = Vec::with_capacity(all.len());
        for (r, enc) in all.iter().enumerate() {
            if enc[0] != self.tag {
                return Err(format!(
                    "rank {r} runs tag {:#x} but rank {me} runs {:#x}",
                    enc[0], self.tag
                ));
            }
            if enc[1..3] != rounds {
                return Err(format!(
                    "round counters disagree: rank {r} at {:?}, rank {me} at {rounds:?}",
                    &enc[1..3]
                ));
            }
            let pairs = |from: usize, k: usize| {
                let words = enc[from..from + 2 * k].chunks_exact(2);
                words.map(|w| (w[0] as usize, w[1])).collect::<Side>()
            };
            let (n_send, n_recv) = (enc[3] as usize, enc[4] as usize);
            sides.push((pairs(5, n_send), pairs(5 + 2 * n_send, n_recv)));
        }
        for (r, (send, _)) in sides.iter().enumerate() {
            for &(q, len) in send {
                match find(&sides[q].1, r) {
                    None => {
                        return Err(format!(
                            "peer asymmetry: rank {r} sends to {q} but {q} schedules \
                             no receive from {r}"
                        ));
                    }
                    Some(expect) if expect != len => {
                        return Err(format!(
                            "packing-size disagreement: rank {r} sends {len} node(s) \
                             to {q} but {q} expects {expect}"
                        ));
                    }
                    Some(_) => {}
                }
            }
        }
        for (r, (_, recv)) in sides.iter().enumerate() {
            for &(q, _) in recv {
                if find(&sides[q].0, r).is_none() {
                    return Err(format!(
                        "peer asymmetry: rank {r} expects values from {q} but {q} \
                         schedules no send to {r}"
                    ));
                }
            }
        }
        Ok(())
    }

    /// The protocol namespace the plan was built under.
    pub fn tag(&self) -> u64 {
        self.tag
    }

    /// `(peer, nodes)` send schedule: nodes of mine each peer needs, in the
    /// order that peer expects them.
    pub fn send_lists(&self) -> &[(usize, Vec<usize>)] {
        &self.send
    }

    /// `(peer, nodes)` receive schedule: remote nodes I need, by owner,
    /// sorted ascending.
    pub fn recv_lists(&self) -> &[(usize, Vec<usize>)] {
        &self.recv
    }

    /// True when this rank neither sends nor receives under this plan.
    pub fn is_idle(&self) -> bool {
        self.union_peers.is_empty()
    }

    /// The wire tag of the next round under `tag`, advancing its counter.
    /// Both halves of a round ship and match under this one tag.
    fn next_round(&self, tag: u64) -> u64 {
        let round = &mut self.rounds.borrow_mut()[(tag / tags::STRIDE) as usize];
        *round += 1;
        tag + *round - 1
    }

    /// The send half of every round: stages one frame per destination
    /// *before* any byte ships, records the round in the planned-traffic
    /// ledger from the staged sizes — messages and bytes — and sends the
    /// frames in the order given.
    fn ship(
        &self,
        ctx: &mut Ctx,
        tag: u64,
        wire: u64,
        frames: impl Iterator<Item = (usize, Payload)>,
    ) {
        let mut staged = self.staged.borrow_mut();
        staged.clear();
        staged.extend(frames);
        let bytes: u64 = staged.iter().map(|(_, f)| f.bytes() as u64).sum();
        ctx.note_planned(tag, staged.len() as u64, bytes);
        for (peer, frame) in staged.drain(..) {
            ctx.send_as(peer, wire, tag, frame);
        }
    }

    /// One directed round under `tag` over a round-dependent **live subset**
    /// of the plan's links: sends `make(peer, nodes)` to every live
    /// send-side peer, then hands each live receive-side peer's frame to
    /// `take(peer, nodes, frame)`, both in ascending peer order. The tag
    /// names the counter key and the wire namespace, so one plan multiplexes
    /// several protocols (the three dist-MIS steps, the `U`-row shipment).
    /// Peers absent from `live_send` get no frame this round, peers absent
    /// from `live_recv` are not received from, and the ledger records the
    /// surviving traffic exactly. The two sets must be mirror-consistent
    /// across ranks (`q ∈ live_send` on rank `r` iff `r ∈ live_recv` on rank
    /// `q`); callers derive them from state both endpoints provably share —
    /// the delta-MIS rounds use the shipped-state view, which owner and
    /// referencer update in lockstep; [`AllPeers`] is trivially consistent —
    /// otherwise the round deadlocks, which checked runs diagnose. The round
    /// counter advances whether or not any link is live, so rounds stay
    /// aligned across ranks.
    pub fn exact_round(
        &self,
        ctx: &mut Ctx,
        tag: u64,
        live_send: &(impl PeerSet + ?Sized),
        live_recv: &(impl PeerSet + ?Sized),
        mut make: impl FnMut(usize, &[usize]) -> Payload,
        mut take: impl FnMut(usize, &[usize], Payload),
    ) {
        let _audit = pilut_allocaudit::region("plan_replay");
        let wire = self.next_round(tag);
        let live = self.send.iter().filter(|(q, _)| live_send.has(*q));
        self.ship(ctx, tag, wire, live.map(|(q, nodes)| (*q, make(*q, nodes))));
        for (peer, nodes) in self.recv.iter().filter(|(q, _)| live_recv.has(*q)) {
            let frame = ctx.recv(*peer, wire);
            take(*peer, nodes, frame);
        }
    }

    /// The symmetric counterpart of [`CommPlan::exact_round`]: one frame to
    /// and from every union peer in `live` (used by MIS step 3, where
    /// confirmations flow owner → referencer but kills flow the other way).
    /// `live` must be agreed by both endpoints of each pair (`q ∈ live` on
    /// rank `r` iff `r ∈ live` on rank `q`).
    pub fn exact_round_symmetric(
        &self,
        ctx: &mut Ctx,
        tag: u64,
        live: &(impl PeerSet + ?Sized),
        mut make: impl FnMut(usize) -> Payload,
        mut take: impl FnMut(usize, Payload),
    ) {
        let _audit = pilut_allocaudit::region("plan_replay");
        let wire = self.next_round(tag);
        let peers = || self.union_peers.iter().copied().filter(|&q| live.has(q));
        self.ship(ctx, tag, wire, peers().map(|q| (q, make(q))));
        for peer in peers() {
            let frame = ctx.recv(peer, wire);
            take(peer, frame);
        }
    }

    /// One label round under the plan's own tag: every owner answers
    /// `label_of(node)` for each node in its send schedule, and `take(node,
    /// label)` sees the answer for each of this rank's needed remote nodes.
    /// Used at plan-build time (the triangular solves exchange level indices
    /// so both sides derive the identical levelled [`Halo`]).
    pub fn exchange_labels(
        &self,
        ctx: &mut Ctx,
        label_of: impl Fn(usize) -> u64,
        mut take: impl FnMut(usize, u64),
    ) {
        let wire = self.next_round(self.tag);
        let labels = |nodes: &[usize]| Payload::u64s(nodes.iter().map(|&g| label_of(g)).collect());
        let frames = self.send.iter().map(|(q, nodes)| (*q, labels(nodes)));
        self.ship(ctx, self.tag, wire, frames);
        for (peer, nodes) in &self.recv {
            let labels = ctx.recv(*peer, wire).into_u64();
            assert_eq!(labels.len(), nodes.len(), "plan mismatch from rank {peer}");
            for (&g, l) in nodes.iter().zip(labels) {
                take(g, l);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::{DistMatrix, Distribution};
    use pilut_par::{Machine, MachineModel};
    use pilut_sparse::gen;

    /// A plan indexes its round counters by `tag / STRIDE`: the last
    /// protocol namespace is the last counter.
    #[test]
    fn the_last_protocol_tag_closes_the_namespace() {
        assert_eq!(tags::MIS_CONF / tags::STRIDE + 1, tags::NAMESPACES as u64);
    }

    /// The SpMV plan of this rank's rows of `dm`, and its one-level halo
    /// over node ids (slot = node).
    fn halo_of(ctx: &mut Ctx, dm: &DistMatrix) -> (CommPlan, Halo) {
        let local = dm.local_view(ctx.rank());
        let needed = local.remote_cols(dm.matrix());
        let plan = CommPlan::build(ctx, tags::SPMV, needed, |j| dm.dist().owner(j));
        let halo = Halo::new(ctx, &plan, 1, |g| (0, g));
        (plan, halo)
    }

    /// Builds a plan over a block-distributed grid where every rank needs
    /// the off-rank columns of its rows.
    fn plan_workload(p: usize, nx: usize) -> Vec<(usize, usize)> {
        let a = gen::laplace_2d(nx, nx);
        let n = a.n_rows();
        let dm = DistMatrix::new(a, Distribution::block(n, p));
        let out = Machine::run_checked(p, MachineModel::cray_t3d(), |ctx| {
            let (plan, halo) = halo_of(ctx, &dm);
            // Halo roundtrip: owned value of node g is g as f64, and every
            // needed node arrives once, in receive-list order.
            halo.send_values(ctx, 0, |g| g as f64);
            let mut got = Vec::new();
            halo.recv_values(ctx, 0, |g, val| got.push((g, val)));
            let needed = plan.recv_lists().iter().flat_map(|(_, nodes)| nodes);
            assert!(needed.copied().eq(got.iter().map(|&(g, _)| g)));
            for (g, val) in got {
                assert_eq!(val, g as f64);
            }
            // Labels: owners answer node id + 7.
            let mut labels = 0;
            plan.exchange_labels(
                ctx,
                |g| g as u64 + 7,
                |g, l| {
                    assert_eq!(l, g as u64 + 7);
                    labels += 1;
                },
            );
            (halo.sent_values(), labels)
        });
        out.results
    }

    #[test]
    fn halo_and_labels_roundtrip() {
        for p in [1, 2, 3, 4] {
            let results = plan_workload(p, 6);
            if p == 1 {
                assert_eq!(results[0], (0, 0));
            } else {
                assert!(results.iter().any(|&(s, _)| s > 0));
            }
        }
    }

    #[test]
    fn empty_ranks_replay_as_noops() {
        // p = 8 ranks over a 5-row chain: ranks 5..8 own nothing.
        let a = gen::laplace_2d(5, 1);
        let dm = DistMatrix::new(a, Distribution::block(5, 8));
        let out = Machine::run_checked(8, MachineModel::cray_t3d(), |ctx| {
            let (plan, halo) = halo_of(ctx, &dm);
            halo.send_values(ctx, 0, |g| 1.0 + g as f64);
            halo.recv_values(ctx, 0, |g, val| assert_eq!(val, 1.0 + g as f64));
            plan.is_idle()
        });
        // The empty trailing ranks have nothing scheduled.
        assert!(out.results[5..].iter().all(|&idle| idle));
        assert!(!out.results[0]);
    }

    #[test]
    fn a_plan_holds_each_needed_node_once_at_exact_capacity() {
        // The needs list as given, and the same set with every node
        // repeated, reversed and deduplicated by the caller: one plan.
        let a = gen::laplace_2d(6, 6);
        let n = a.n_rows();
        let dm = DistMatrix::new(a, Distribution::block(n, 3));
        let out = Machine::run_checked(3, MachineModel::cray_t3d(), |ctx| {
            let owner = |j| dm.dist().owner(j);
            let needed: Vec<usize> = dm.local_view(ctx.rank()).remote_cols(dm.matrix()).collect();
            let mut repeated: Vec<usize> = needed.iter().rev().chain(&needed).copied().collect();
            repeated.sort_unstable();
            repeated.dedup();
            let given = CommPlan::build(ctx, tags::SPMV, needed, owner);
            let deduped = CommPlan::build(ctx, tags::SPMV, repeated, owner);
            for plan in [&given, &deduped] {
                let lists = plan.send_lists().iter().chain(plan.recv_lists());
                for (peer, nodes) in lists {
                    assert_eq!(nodes.capacity(), nodes.len(), "peer {peer}");
                }
            }
            assert_eq!(given.send_lists(), deduped.send_lists());
            assert_eq!(given.recv_lists(), deduped.recv_lists());
            given.recv_lists().len()
        });
        assert!(out.results.iter().all(|&peers| peers > 0));
    }

    /// A hand-built plan for white-box verification tests.
    fn raw_plan(send: Vec<(usize, Vec<usize>)>, recv: Vec<(usize, Vec<usize>)>) -> CommPlan {
        CommPlan::from_lists(tags::SPMV, send, recv)
    }

    #[test]
    fn verify_local_rejects_corrupt_schedules() {
        let ok = raw_plan(vec![(1, vec![0])], vec![(2, vec![7, 9])]);
        assert_eq!(ok.verify_local(0, 4), Ok(()));
        // Each corruption is named precisely.
        let err = |p: CommPlan, me: usize, np: usize| p.verify_local(me, np).unwrap_err();
        assert!(err(raw_plan(vec![(1, vec![0])], vec![]), 1, 4).contains("loops back"));
        assert!(err(raw_plan(vec![(5, vec![0])], vec![]), 0, 4).contains("out of range"));
        assert!(err(raw_plan(vec![(1, vec![])], vec![]), 0, 4).contains("is empty"));
        assert!(
            err(raw_plan(vec![(2, vec![0]), (1, vec![1])], vec![]), 0, 4)
                .contains("not strictly ascending")
        );
        assert!(
            err(raw_plan(vec![], vec![(1, vec![9, 7])]), 0, 4).contains("wire order is ambiguous")
        );
        let mut bad_union = raw_plan(vec![(1, vec![0])], vec![]);
        bad_union.union_peers = vec![1, 2];
        assert!(err(bad_union, 0, 4).contains("union peers"));
    }

    #[test]
    fn collective_verify_rejects_packing_disagreement() {
        // Rank 0 schedules two values toward rank 1; rank 1 expects one.
        // Every rank sees the same global verdict.
        let out = Machine::run_checked(2, MachineModel::cray_t3d(), |ctx| {
            let plan = if ctx.rank() == 0 {
                raw_plan(vec![(1, vec![0, 1])], vec![])
            } else {
                raw_plan(vec![], vec![(0, vec![0])])
            };
            plan.verify(ctx).unwrap_err()
        });
        for msg in &out.results {
            assert!(msg.contains("packing-size disagreement"), "{msg}");
        }
    }

    #[test]
    fn collective_verify_rejects_peer_asymmetry_and_unnamed_tags() {
        let out = Machine::run_checked(2, MachineModel::cray_t3d(), |ctx| {
            // A send with no matching receive anywhere.
            let plan = if ctx.rank() == 0 {
                raw_plan(vec![(1, vec![0])], vec![])
            } else {
                raw_plan(vec![], vec![])
            };
            let asym = plan.verify(ctx).unwrap_err();
            // A tag outside every named protocol namespace.
            let mut untagged = raw_plan(vec![], vec![]);
            untagged.tag = 42;
            let undisciplined = untagged.verify(ctx).unwrap_err();
            (asym, undisciplined)
        });
        for (asym, undisciplined) in &out.results {
            assert!(asym.contains("peer asymmetry"), "{asym}");
            assert!(
                undisciplined.contains("named protocol namespace"),
                "{undisciplined}"
            );
        }
    }

    #[test]
    fn collective_verify_reports_the_lowest_offending_pair() {
        // Two violations, (0, 1) and (0, 2): every rank names the lower one,
        // the same on every run.
        for _ in 0..20 {
            let out = Machine::run_checked(3, MachineModel::cray_t3d(), |ctx| {
                let plan = if ctx.rank() == 0 {
                    raw_plan(vec![(1, vec![0]), (2, vec![1])], vec![])
                } else {
                    raw_plan(vec![], vec![])
                };
                plan.verify(ctx).unwrap_err()
            });
            for msg in &out.results {
                assert_eq!(
                    msg,
                    "peer asymmetry: rank 0 sends to 1 but 1 schedules no receive from 0"
                );
            }
        }
    }

    #[test]
    fn planned_counters_match_measured_value_rounds() {
        // Two halo rounds plus a label round: all values-only, so the
        // static prediction must agree with the measured per-tag counters
        // to the byte.
        let a = gen::laplace_2d(6, 6);
        let n = a.n_rows();
        let dm = DistMatrix::new(a, Distribution::block(n, 3));
        let out = Machine::run_checked(3, MachineModel::cray_t3d(), |ctx| {
            let (plan, halo) = halo_of(ctx, &dm);
            for _ in 0..2 {
                halo.send_values(ctx, 0, |_| 0.0);
                halo.recv_values(ctx, 0, |_, _| {});
            }
            plan.exchange_labels(ctx, |g| g as u64, |_, _| {});
        });
        let (m, b) = out.stats.tag_totals(tags::SPMV);
        assert!(m > 0, "workload must ship halo traffic");
        let &(pm, pb) = out
            .stats
            .planned_by_tag
            .get(&tags::SPMV)
            .expect("plan predictions recorded");
        assert_eq!((m, b), (pm, pb), "prediction must match measurement");
    }

    #[test]
    fn exact_replays_predict_measured_bytes_exactly() {
        // Directed and symmetric rounds with data-dependent frame sizes:
        // the ledger must match the measured counters to the byte.
        let dist = Distribution::block(4, 4);
        let out = Machine::run_checked(4, MachineModel::cray_t3d(), |ctx| {
            let me = ctx.rank();
            // Ring of directed needs: rank r references rank r+1's node.
            let needed = vec![(me + 1) % 4];
            let plan = CommPlan::build(ctx, tags::MIS_KEYS, needed, |j| dist.owner(j));
            // Frame sizes vary by rank (me words) — nothing values-only
            // could have predicted statically. Every link is live.
            plan.exact_round(
                ctx,
                tags::MIS_KEYS,
                &AllPeers,
                &AllPeers,
                |_, _| Payload::u64s(vec![7; me]),
                |peer, _, payload| assert_eq!(payload.into_u64(), vec![7; peer]),
            );
            plan.exact_round_symmetric(
                ctx,
                tags::MIS_CONF,
                &AllPeers,
                |_| Payload::u64s(vec![9; me + 1]),
                |peer, payload| assert_eq!(payload.into_u64(), vec![9; peer + 1]),
            );
        });
        for tag in [tags::MIS_KEYS, tags::MIS_CONF] {
            let (m, b) = out.stats.tag_totals(tag);
            let &(pm, pb) = out
                .stats
                .planned_by_tag
                .get(&tag)
                .expect("exact rounds record predictions");
            assert_eq!((m, b), (pm, pb), "tag {}", tags::tag_name(tag));
        }
    }

    #[test]
    fn symmetric_round_pairs_every_linked_peer() {
        let dist = Distribution::block(4, 4);
        let out = Machine::run_checked(4, MachineModel::cray_t3d(), |ctx| {
            let me = ctx.rank();
            // Ring of directed needs: rank r references node of rank r+1.
            let needed = vec![(me + 1) % 4];
            let plan = CommPlan::build(ctx, tags::MIS_KEYS, needed, |j| dist.owner(j));
            let mut heard: Vec<usize> = Vec::new();
            plan.exact_round_symmetric(
                ctx,
                tags::MIS_CONF,
                &AllPeers,
                |_| Payload::u64s(vec![me as u64]),
                |peer, payload| {
                    assert_eq!(payload.into_u64(), vec![peer as u64]);
                    heard.push(peer);
                },
            );
            heard
        });
        for (r, heard) in out.results.iter().enumerate() {
            let expect = {
                let mut v = vec![(r + 1) % 4, (r + 3) % 4];
                v.sort_unstable();
                v
            };
            assert_eq!(heard, &expect, "rank {r}");
        }
    }
}
