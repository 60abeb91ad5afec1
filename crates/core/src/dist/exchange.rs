//! The unified data plane: plan-once / replay-many neighbour exchange.
//!
//! The paper's three kernels (factorization, triangular solve, SpMV — §1,
//! §3) all ride the same structural fact: the neighbour communication
//! pattern is fixed by the matrix distribution, so it can be **planned
//! once** (a collective that teaches every rank which peers reference which
//! of its nodes) and **replayed** many times with one packed message per
//! peer per round. [`CommPlan`] is that plan; every distributed kernel in
//! the repository ([`crate::dist::spmv`], [`crate::trisolve`],
//! [`crate::parallel`], the distributed GMRES in the solver crate) is built
//! on its replay primitives, and the `no-raw-comm` lint keeps it that way:
//! this module and the `pilut-par` VM itself are the only places allowed to
//! touch `ctx.send` / `ctx.recv` directly.
//!
//! Replay contract:
//!
//! * every replay sends **exactly one message per scheduled peer** and
//!   receives exactly one from each peer on the opposite side, in ascending
//!   peer order — deterministic, deadlock-free, and observable (each
//!   protocol runs under its own tag from [`tags`], so the per-tag counters
//!   in `MachineStats::by_tag` break comm volume down by kernel);
//! * every round ships under a fresh wire tag `base + round` (stats still
//!   attribute to the base tag via `Ctx::send_as`), so two in-flight rounds
//!   of one protocol can never be confused even if same-pair delivery order
//!   is inverted — the chaos suite's `reorder` fault exercises exactly this;
//! * payload contents are producer-defined ([`CommPlan::replay`]) or
//!   values-only ([`CommPlan::send_values`] / [`CommPlan::recv_values`] —
//!   the one halo mechanism of SpMV and both triangular sweeps — which ship
//!   `f64`s in the node order both sides agreed on at plan time, no ids on
//!   the wire);
//! * a plan built from empty need-lists replays as a no-op, so ranks that
//!   own zero rows participate safely.

use pilut_par::{pool, Ctx, Payload};
use std::cell::RefCell;
use std::collections::HashMap;

mod replay;
pub use replay::PeerSet;

/// Registered buffers warmed per send link at plan build. Deep enough that
/// a plan's full send fan-out plus the in-flight buffers the receivers have
/// not yet returned never miss the pool in the steady state. Under
/// reliable delivery the sender additionally retains every frame until the
/// link's cumulative ACK passes it, so plan build adds
/// [`pilut_par::ACK_EVERY`] on top of this skew allowance (see
/// [`CommPlan::build`]).
const WARM_BUFFERS_PER_LINK: usize = 8;

/// The user-tag namespace of every planned protocol in the repository.
///
/// One constant per kernel keeps repeated replays unambiguous (matching is
/// FIFO per `(sender, tag)`) and makes the per-tag counters in
/// `MachineStats::by_tag` legible. Values are stable across releases — the
/// bench JSON reports them by [`tag_name`].
pub mod tags {
    /// Uniform stride between protocol namespaces. Each protocol owns
    /// `[base, base + STRIDE)`: room for a 20-bit per-level rebase shift
    /// (`base + (level << 20)`) times a 20-bit round counter within every
    /// level's private base, with no way for one protocol's derived wire
    /// tags to drift into its neighbour's namespace. The `tag_name`
    /// *strings* are the stable interface reported in bench JSON; the
    /// numeric values may restride between releases.
    pub const STRIDE: u64 = 1 << 40;
    /// Boundary `x` values of the distributed SpMV.
    pub const SPMV: u64 = STRIDE;
    /// U-row shipping of the parallel ILUT interface factorization.
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
    /// U-row shipping of the parallel ILU(0) numeric levels.
    pub const U0: u64 = 8 * STRIDE;
    /// Reliable-delivery protocol traffic (acks, nacks, resends) of the
    /// `pilut-par` VM. The numeric value is pinned to `pilut_par::ACK_TAG`
    /// by a test: `par` cannot depend on this crate, so the constant is
    /// duplicated there.
    pub const ACK: u64 = 9 * STRIDE;
    /// Rank-loss recovery agreement ring (`Ctx::recover_sync`), pinned to
    /// `pilut_par::RECOVER_TAG` the same way.
    pub const RECOVER: u64 = 10 * STRIDE;

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
            U0 => "u0",
            ACK => "ack",
            RECOVER => "recover",
            t if t >= pilut_par::Ctx::RESERVED_TAG_BASE => "coll",
            _ => "user",
        }
    }
}

/// The statically-predicted per-round communication cost of a plan, read
/// off its schedules alone — no replay needed. Message counts are exact
/// for every round kind; byte counts are exact for values-only rounds
/// (value halves, label rounds: 8 bytes per scheduled node) and for
/// exact-framed rounds
/// ([`CommPlan::replay_exact_sparse_tagged`], whose byte totals are computed
/// from the frames about to ship). Only the
/// generic producer-defined rounds predict message counts alone. The
/// replay helpers feed these predictions to
/// [`pilut_par::Ctx::note_planned`] as they run, and `xtask bench` fails
/// in-process when the measured per-tag counters diverge from the
/// accumulated predictions.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PlanCost {
    /// Messages this rank ships per directed replay round (one per
    /// send-side peer).
    pub directed_messages: u64,
    /// Messages this rank ships per symmetric round (one per union peer).
    pub symmetric_messages: u64,
    /// Bytes this rank ships per values-only round: 8 per node in the send
    /// schedule.
    pub value_bytes: u64,
}

/// A reusable per-rank communication schedule, built collectively from
/// "which remote nodes do I need, and who owns them".
///
/// `recv` lists the nodes this rank declared a need for, grouped by owning
/// peer and sorted; `send` lists the nodes each peer declared a need for,
/// in the exact order that peer's receive side expects. Both sides of every
/// pair hold mirror-image lists, which is what lets replays ship values
/// without node ids on the wire.
pub struct CommPlan {
    tag: u64,
    /// Counter key for the per-tag traffic stats. Equal to `tag` unless the
    /// plan was [`CommPlan::rebase`]d into a private wire-tag namespace —
    /// derived sub-plans keep reporting under their protocol's tag.
    stats_tag: u64,
    /// `(peer, my nodes to send)` — in the order `peer` expects them.
    send: Vec<(usize, Vec<usize>)>,
    /// `(peer, peer's nodes I need)` — sorted ascending.
    recv: Vec<(usize, Vec<usize>)>,
    /// Sorted union of send and recv peers (the symmetric-round pairs).
    union_peers: Vec<usize>,
    /// Per-base-tag `(send, recv)` round counters. Every replay round ships
    /// under the fresh wire tag `base + round` so two in-flight rounds can
    /// never be confused, even if the network inverts same-pair delivery
    /// order (the same trick the VM's collectives play with their sequence
    /// numbers). Interior-mutable because replays take `&self` — plans are
    /// shared immutably by long-lived solvers. Both halves of a round
    /// advance in lockstep across ranks because every replay call is
    /// collective over the plan's participants.
    rounds: RefCell<HashMap<u64, (u64, u64)>>,
    /// Frame staging area for the exact-framed replays: capacity reserved
    /// at construction (one slot per possible peer), cleared and refilled
    /// each round, so staging never allocates in the steady state.
    frame_scratch: RefCell<Vec<Payload>>,
    /// Pool buffers to warm per send link: the plain skew allowance, plus
    /// the reliable-delivery retention window when the machine has it
    /// armed. Captured at build so derived sub-plans ([`CommPlan::restrict`],
    /// which has no `Ctx`) warm to the same depth.
    warm_depth: usize,
}

impl CommPlan {
    /// Collectively builds the plan (every rank must call this together).
    ///
    /// `needed` enumerates the remote nodes this rank references (duplicates
    /// welcome — the plan dedups); `owner_of` maps each to its owning rank.
    /// One sparse all-to-all teaches every owner which peers need which of
    /// its nodes. `tag` names the user-tag namespace later replays use.
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
            list.dedup();
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
        let mut union_peers: Vec<usize> = send
            .iter()
            .map(|&(q, _)| q)
            .chain(recv.iter().map(|&(q, _)| q))
            .collect();
        union_peers.sort_unstable();
        union_peers.dedup();
        let scratch = Vec::with_capacity(union_peers.len());
        // A reliable sender holds every frame until the cumulative ACK
        // passes it — up to ACK_EVERY pooled buffers per link beyond the
        // plain in-flight skew — so the warm depth must cover the window.
        let warm_depth = WARM_BUFFERS_PER_LINK
            + if ctx.is_reliable() {
                pilut_par::ACK_EVERY as usize
            } else {
                0
            };
        // Seed the round counters for the plan's own tag now: the first
        // replay's map insert is otherwise charged to its steady region.
        // Multiplexed bases (explicit `*_tagged` tags) still insert lazily.
        let plan = CommPlan {
            tag,
            stats_tag: tag,
            send,
            recv,
            union_peers,
            rounds: RefCell::new(HashMap::from([(tag, (0, 0))])),
            frame_scratch: RefCell::new(scratch),
            warm_depth,
        };
        // Registered-buffer warm-up: provision the pool classes every
        // values-only replay round will draw from, so the steady state
        // never allocates a send buffer (receivers recycle them back).
        plan.warm_buffers();
        // In checked mode every freshly-built plan is proved consistent
        // *before* any replay can ship a byte under it — peer symmetry,
        // packing sizes, tag discipline, round counters (see `verify`).
        if ctx.is_checked() {
            if let Err(e) = plan.verify(ctx) {
                panic!("commplan verify[{}]: {e}", tags::tag_name(tag));
            }
        }
        plan
    }

    /// Structural self-checks that need no communication: schedules sorted
    /// by peer with no duplicates or empty lists, peers in range and never
    /// `me`, receive-side node lists strictly ascending (the order both
    /// sides agreed on), and the union-peer list consistent with the two
    /// directions. Every violation is a plan-construction bug, reported
    /// before any replay can act on it.
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
        let mut union: Vec<usize> = self
            .send
            .iter()
            .map(|&(q, _)| q)
            .chain(self.recv.iter().map(|&(q, _)| q))
            .collect();
        union.sort_unstable();
        union.dedup();
        if union != self.union_peers {
            return Err(format!(
                "union peers {:?} inconsistent with schedules {union:?}",
                self.union_peers
            ));
        }
        Ok(())
    }

    /// The collective cross-check (every plan participant must call this
    /// together): after the local checks, each rank publishes a summary of
    /// its schedules and every rank verifies the global invariants —
    ///
    /// * **tag discipline** — the plan runs under a named `tags::`
    ///   protocol namespace and all ranks agree on it (wire and stats);
    /// * **mirror symmetry** — rank `r` sends to `q` exactly when `q`
    ///   receives from `r`;
    /// * **packing-size agreement** — both sides of every pair schedule
    ///   the same node count, so values-only rounds can never misalign;
    /// * **round-count agreement** — all ranks have advanced every wire
    ///   namespace by the same number of send and receive rounds (plans
    ///   fresh from [`CommPlan::build`] agree trivially at zero).
    ///
    /// Runs automatically from `build` in checked mode; long-lived callers
    /// may re-verify later (e.g. after replay rounds) at will.
    pub fn verify(&self, ctx: &mut Ctx) -> Result<(), String> {
        let me = ctx.rank();
        let p = ctx.nprocs();
        self.verify_local(me, p)?;
        if self.stats_tag % tags::STRIDE != 0 || tags::tag_name(self.stats_tag) == "user" {
            return Err(format!(
                "stats tag {:#x} is not a named protocol namespace",
                self.stats_tag
            ));
        }
        // Summary: [tag, stats_tag, send rounds, recv rounds, n_send,
        // n_recv, (peer, len)...]. Round counters are summed over wire
        // namespaces — replays advance them in lockstep, so totals agree.
        let (srounds, rrounds) = self
            .rounds
            .borrow()
            .values()
            .fold((0u64, 0u64), |(s, r), &(a, b)| (s + a, r + b));
        let mut summary = vec![
            self.tag,
            self.stats_tag,
            srounds,
            rrounds,
            self.send.len() as u64,
            self.recv.len() as u64,
        ];
        for (peer, nodes) in self.send.iter().chain(&self.recv) {
            summary.push(*peer as u64);
            summary.push(nodes.len() as u64);
        }
        let all = ctx.all_gather_u64(&summary);
        // Decode every rank's two sides once, then check the global mirror
        // property on all pairs — every rank sees the same verdict.
        let mut sides: Vec<(HashMap<usize, u64>, HashMap<usize, u64>)> = Vec::with_capacity(p);
        for (r, enc) in all.iter().enumerate() {
            if enc.is_empty() {
                // A rank lost in an earlier epoch contributes nothing to the
                // gather and owns no plan side to mirror — a shrunk-world
                // plan must never pair a live side with it, which the empty
                // maps below enforce.
                sides.push((HashMap::new(), HashMap::new()));
                continue;
            }
            if enc[0] != self.tag || enc[1] != self.stats_tag {
                return Err(format!(
                    "rank {r} runs tag ({:#x}, {:#x}) but rank {me} runs ({:#x}, {:#x})",
                    enc[0], enc[1], self.tag, self.stats_tag
                ));
            }
            if (enc[2], enc[3]) != (srounds, rrounds) {
                return Err(format!(
                    "round counters disagree: rank {r} at ({}, {}), rank {me} at \
                     ({srounds}, {rrounds})",
                    enc[2], enc[3]
                ));
            }
            let n_send = enc[4] as usize;
            let n_recv = enc[5] as usize;
            let mut at = 6;
            let mut decode = |k: usize| {
                let mut m = HashMap::with_capacity(k);
                for _ in 0..k {
                    m.insert(enc[at] as usize, enc[at + 1]);
                    at += 2;
                }
                m
            };
            let send = decode(n_send);
            let recv = decode(n_recv);
            sides.push((send, recv));
        }
        for (r, (send, _)) in sides.iter().enumerate() {
            for (&q, &len) in send {
                match sides[q].1.get(&r) {
                    None => {
                        return Err(format!(
                            "peer asymmetry: rank {r} sends to {q} but {q} schedules \
                             no receive from {r}"
                        ));
                    }
                    Some(&expect) if expect != len => {
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
            for &q in recv.keys() {
                if !sides[q].0.contains_key(&r) {
                    return Err(format!(
                        "peer asymmetry: rank {r} expects values from {q} but {q} \
                         schedules no send to {r}"
                    ));
                }
            }
        }
        Ok(())
    }

    /// The per-round cost this plan predicts from structure alone — see
    /// [`PlanCost`].
    pub fn predicted_cost(&self) -> PlanCost {
        PlanCost {
            directed_messages: self.send.len() as u64,
            symmetric_messages: self.union_peers.len() as u64,
            value_bytes: 8 * self.sent_values() as u64,
        }
    }

    /// Moves the plan into its own wire-tag namespace while keeping traffic
    /// attributed to the original tag. Derived sub-plans that replay side by
    /// side in one logical round (e.g. the per-level triangular-sweep plans)
    /// must not share a wire namespace: with a common base, level `l` and
    /// level `l+1` values shipped in the same sweep would carry the same
    /// `(sender, tag)` and a reordered network could swap them.
    pub fn rebase(mut self, wire_base: u64) -> CommPlan {
        self.tag = wire_base;
        // The new wire base gets its round counters seeded here, at
        // setup time, like `build` does for the original tag.
        self.rounds.get_mut().entry(wire_base).or_insert((0, 0));
        self
    }

    /// Renames the scheduled nodes (`send` over my nodes, `recv` over
    /// remote nodes; `recv` must preserve their order). Nothing on the wire
    /// carries an id, so replays are unaffected; the callbacks of
    /// [`CommPlan::send_values`] / [`CommPlan::recv_values`] see the new
    /// names — SpMV and the triangular sweeps rename to vector slots.
    pub fn relabel(
        mut self,
        send: impl Fn(usize) -> usize,
        recv: impl Fn(usize) -> usize,
    ) -> CommPlan {
        for g in self.send.iter_mut().flat_map(|(_, ns)| ns) {
            *g = send(*g);
        }
        for g in self.recv.iter_mut().flat_map(|(_, ns)| ns) {
            *g = recv(*g);
        }
        self
    }

    /// Pre-provisions the registered-buffer pool for this plan's
    /// values-only rounds: one class entry per send list, sized to the
    /// list. Build-time setup by definition — this is the allocation the
    /// zero-alloc replay gate pushes out of the steady state.
    fn warm_buffers(&self) {
        for (_, nodes) in &self.send {
            pool::warm_f64(nodes.len(), self.warm_depth);
        }
    }

    /// The user tag this plan's replays run under.
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

    /// Total values this rank ships per values-only round.
    pub fn sent_values(&self) -> usize {
        self.send.iter().map(|(_, v)| v.len()).sum()
    }

    /// True when this rank neither sends nor receives under this plan.
    pub fn is_idle(&self) -> bool {
        self.union_peers.is_empty()
    }

    /// The owning peer of a remote node this plan receives, if any (every
    /// needed node appears in exactly one peer's receive list).
    pub fn owner_of(&self, node: usize) -> Option<usize> {
        self.recv
            .iter()
            .find_map(|(peer, nodes)| nodes.binary_search(&node).ok().map(|_| *peer))
    }

    /// A sub-plan keeping only the scheduled nodes that pass the filters
    /// (`keep_send` over my nodes, `keep_recv` over remote nodes). Peers
    /// left with empty lists drop out entirely. Both sides of a pair must
    /// restrict by the same criterion for replays to stay matched — the
    /// triangular solves guarantee this by exchanging level labels first
    /// ([`CommPlan::exchange_labels`]) and restricting per level.
    pub fn restrict(
        &self,
        keep_send: impl Fn(usize) -> bool,
        keep_recv: impl Fn(usize) -> bool,
    ) -> CommPlan {
        let filter = |lists: &[(usize, Vec<usize>)], keep: &dyn Fn(usize) -> bool| {
            lists
                .iter()
                .filter_map(|(peer, nodes)| {
                    let kept: Vec<usize> = nodes.iter().copied().filter(|&g| keep(g)).collect();
                    if kept.is_empty() {
                        None
                    } else {
                        Some((*peer, kept))
                    }
                })
                .collect::<Vec<_>>()
        };
        let send = filter(&self.send, &keep_send);
        let recv = filter(&self.recv, &keep_recv);
        let mut union_peers: Vec<usize> = send
            .iter()
            .map(|&(q, _)| q)
            .chain(recv.iter().map(|&(q, _)| q))
            .collect();
        union_peers.sort_unstable();
        union_peers.dedup();
        let scratch = Vec::with_capacity(union_peers.len());
        let sub = CommPlan {
            tag: self.tag,
            stats_tag: self.stats_tag,
            send,
            recv,
            union_peers,
            rounds: RefCell::new(HashMap::from([(self.tag, (0, 0))])),
            frame_scratch: RefCell::new(scratch),
            warm_depth: self.warm_depth,
        };
        // Per-level sub-plans replay values rounds too; warm their classes
        // so the first sweep is already steady.
        sub.warm_buffers();
        sub
    }

    /// One label round: every owner answers `label_of(node)` for each node
    /// in its send schedule; the result maps each of this rank's needed
    /// remote nodes to its owner's label. Used at plan-build time (e.g. the
    /// triangular solves exchange level indices so both sides can derive
    /// the identical per-level batch schedule).
    pub fn exchange_labels(
        &self,
        ctx: &mut Ctx,
        label_of: impl Fn(usize) -> u64,
    ) -> HashMap<usize, u64> {
        let cost = self.predicted_cost();
        ctx.note_planned(
            self.stats_tag,
            cost.directed_messages,
            cost.value_bytes,
            true,
        );
        let send_tag = self.send_round_tag(self.tag);
        for (peer, nodes) in &self.send {
            let labels: Vec<u64> = nodes.iter().map(|&g| label_of(g)).collect();
            ctx.send_as(*peer, send_tag, self.stats_tag, Payload::u64s(labels));
        }
        let mut out = HashMap::new();
        let recv_tag = self.recv_round_tag(self.tag);
        for (peer, nodes) in &self.recv {
            let labels = ctx.recv(*peer, recv_tag).into_u64();
            assert_eq!(labels.len(), nodes.len(), "plan mismatch from rank {peer}");
            for (&g, l) in nodes.iter().zip(labels) {
                out.insert(g, l);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::{DistMatrix, Distribution};
    use pilut_par::{Machine, MachineModel};
    use pilut_sparse::gen;
    use std::collections::HashSet;

    /// `pilut-par` cannot depend on this crate, so the reliability and
    /// recovery stats tags are defined in both places; this is the pin
    /// that keeps the duplicated constants (and their names) in sync.
    #[test]
    fn par_protocol_tags_are_pinned_to_the_namespace() {
        assert_eq!(tags::ACK, pilut_par::ACK_TAG);
        assert_eq!(tags::RECOVER, pilut_par::RECOVER_TAG);
        assert_eq!(tags::tag_name(tags::ACK), "ack");
        assert_eq!(tags::tag_name(tags::RECOVER), "recover");
    }

    /// Builds a plan over a block-distributed grid where every rank needs
    /// the off-rank columns of its rows.
    fn plan_workload(p: usize, nx: usize) -> Vec<(usize, usize)> {
        let a = gen::laplace_2d(nx, nx);
        let n = a.n_rows();
        let dm = DistMatrix::new(a, Distribution::block(n, p));
        let out = Machine::run_checked(p, MachineModel::cray_t3d(), |ctx| {
            let local = dm.local_view(ctx.rank());
            let needed = local.remote_cols(dm.matrix());
            let plan = CommPlan::build(ctx, tags::SPMV, needed, |j| dm.dist().owner(j));
            // Halo roundtrip: owned value of node g is g as f64, and every
            // needed node arrives once, in receive-list order.
            plan.send_values(ctx, |g| g as f64);
            let mut halo = Vec::new();
            plan.recv_values(ctx, |g, val| halo.push((g, val)));
            let needed = plan.recv_lists().iter().flat_map(|(_, nodes)| nodes);
            assert!(needed.copied().eq(halo.iter().map(|&(g, _)| g)));
            for (g, val) in halo {
                assert_eq!(val, g as f64);
                assert_eq!(plan.owner_of(g), Some(dm.dist().owner(g)));
            }
            // Labels: owners answer node id + 7.
            let labels = plan.exchange_labels(ctx, |g| g as u64 + 7);
            for (&g, &l) in &labels {
                assert_eq!(l, g as u64 + 7);
            }
            (plan.sent_values(), labels.len())
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
            let local = dm.local_view(ctx.rank());
            let needed = local.remote_cols(dm.matrix());
            let plan = CommPlan::build(ctx, tags::SPMV, needed, |j| dm.dist().owner(j));
            plan.send_values(ctx, |g| 1.0 + g as f64);
            plan.recv_values(ctx, |g, val| assert_eq!(val, 1.0 + g as f64));
            plan.is_idle()
        });
        // The empty trailing ranks have nothing scheduled.
        assert!(out.results[5..].iter().all(|&idle| idle));
        assert!(!out.results[0]);
    }

    /// A hand-built plan for white-box verification tests.
    fn raw_plan(send: Vec<(usize, Vec<usize>)>, recv: Vec<(usize, Vec<usize>)>) -> CommPlan {
        let mut union_peers: Vec<usize> = send
            .iter()
            .map(|&(q, _)| q)
            .chain(recv.iter().map(|&(q, _)| q))
            .collect();
        union_peers.sort_unstable();
        union_peers.dedup();
        CommPlan {
            tag: tags::SPMV,
            stats_tag: tags::SPMV,
            send,
            recv,
            union_peers,
            rounds: RefCell::new(HashMap::new()),
            frame_scratch: RefCell::new(Vec::new()),
            warm_depth: WARM_BUFFERS_PER_LINK,
        }
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
            untagged.stats_tag = 42;
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
    fn planned_counters_match_measured_value_rounds() {
        // Two halo rounds plus a label round: all values-only, so the
        // static prediction must agree with the measured per-tag counters
        // to the byte, and the exact flag must survive aggregation.
        let a = gen::laplace_2d(6, 6);
        let n = a.n_rows();
        let dm = DistMatrix::new(a, Distribution::block(n, 3));
        let out = Machine::run_checked(3, MachineModel::cray_t3d(), |ctx| {
            let local = dm.local_view(ctx.rank());
            let needed = local.remote_cols(dm.matrix());
            let plan = CommPlan::build(ctx, tags::SPMV, needed, |j| dm.dist().owner(j));
            for _ in 0..2 {
                plan.send_values(ctx, |_| 0.0);
                plan.recv_values(ctx, |_, _| {});
            }
            plan.exchange_labels(ctx, |g| g as u64);
            let cost = plan.predicted_cost();
            assert_eq!(cost.value_bytes, 8 * plan.sent_values() as u64);
        });
        let (m, b) = out.stats.tag_totals(tags::SPMV);
        assert!(m > 0, "workload must ship halo traffic");
        let &(pm, pb, exact) = out
            .stats
            .planned_by_tag
            .get(&tags::SPMV)
            .expect("plan predictions recorded");
        assert_eq!((m, b), (pm, pb), "prediction must match measurement");
        assert!(exact, "values-only rounds predict exact bytes");
    }

    #[test]
    fn exact_replays_predict_measured_bytes_exactly() {
        // Directed and symmetric exact-framed rounds with data-dependent
        // frame sizes: the ledger must match the measured counters to the
        // byte and keep the exact flag through aggregation.
        let dist = Distribution::block(4, 4);
        let out = Machine::run_checked(4, MachineModel::cray_t3d(), |ctx| {
            let me = ctx.rank();
            // Ring of directed needs: rank r references rank r+1's node.
            let needed = vec![(me + 1) % 4];
            let plan = CommPlan::build(ctx, tags::MIS_KEYS, needed, |j| dist.owner(j));
            // Frame sizes vary by rank (me words) — nothing values-only
            // could have predicted statically. Every link is live.
            let all: HashSet<usize> = (0..4).collect();
            plan.replay_exact_sparse_tagged(
                ctx,
                tags::MIS_KEYS,
                &all,
                &all,
                |_, _| Payload::u64s(vec![7; me]),
                |peer, _, payload| assert_eq!(payload.into_u64(), vec![7; peer]),
            );
            plan.replay_symmetric_exact_sparse_tagged(
                ctx,
                tags::MIS_CONF,
                &all,
                |_| Payload::u64s(vec![9; me + 1]),
                |peer, payload| assert_eq!(payload.into_u64(), vec![9; peer + 1]),
            );
        });
        for tag in [tags::MIS_KEYS, tags::MIS_CONF] {
            let (m, b) = out.stats.tag_totals(tag);
            let &(pm, pb, exact) = out
                .stats
                .planned_by_tag
                .get(&tag)
                .expect("exact replays record predictions");
            assert_eq!((m, b), (pm, pb), "tag {}", tags::tag_name(tag));
            assert!(exact, "exact-framed rounds keep the exact flag");
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
            plan.replay_symmetric_tagged(
                ctx,
                tags::MIS_CONF,
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
