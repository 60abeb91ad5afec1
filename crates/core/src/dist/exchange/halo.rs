//! The values plane: one levelled halo for SpMV and both triangular sweeps.
//!
//! A [`Halo`] is what a [`CommPlan`] becomes once its nodes are renamed to
//! vector slots and sorted by level: per peer one slot list with `cut[l]`
//! offsets, level `l`'s share being the contiguous range
//! `cut[l]..cut[l + 1]`. A round at level `l` ships that range — one
//! values-only message per peer whose range is non-empty — straight between
//! the wire and a slot-indexed vector. SpMV is the one-level case.
//!
//! The two round halves run in the steady state of a solve and are on the
//! `no-alloc-in-hot` lint list and under the kernel gate's zero-alloc
//! steady regions: a batch is staged in a buffer of the run's registered pool ([`Ctx::pool`])
//! warmed at construction, the receiver reads it through a borrow and
//! `recycle`s its payload handle, which puts the buffer back on the shelf —
//! no per-round heap traffic on either side.

use super::CommPlan;
use pilut_par::{Ctx, Payload};
use std::cell::RefCell;

/// Registered buffers warmed per (send link, level) at construction. Deep
/// enough that a halo's full send fan-out plus the in-flight buffers the
/// receivers have not yet returned never miss the pool in the steady state.
const WARM_BUFFERS_PER_LINK: usize = 8;

/// One peer's share of a halo direction: its scheduled slots sorted by
/// `(level, node)`, level `l`'s being `slots[cut[l]..cut[l + 1]]`.
struct Link {
    peer: usize,
    slots: Vec<usize>,
    cut: Vec<usize>,
}

impl Link {
    fn at(&self, level: usize) -> &[usize] {
        &self.slots[self.cut[level]..self.cut[level + 1]]
    }
}

/// The levelled values-only exchange of a plan. Send links list my slots in
/// the order the peer's receive link lists its ghosts of them — both sides
/// sort the plan's agreed node order by the same levels — so a batch carries
/// values alone.
pub struct Halo {
    tag: u64,
    send: Vec<Link>,
    recv: Vec<Link>,
    /// `[send, recv]` sweeps run so far at each level. Sweep `s` of level
    /// `l` ships under the wire tag `tag + ((l + 1) << 20) + s`: values of
    /// two adjacent levels can be in flight from one sender at once, and
    /// sharing a wire tag would let a reordered network swap them; the
    /// `+ 1` keeps level 0 clear of the plan's own rounds (`tag + round`).
    /// The halves count separately because the sweeps call them at
    /// different loop iterations.
    sweeps: RefCell<Vec<[u64; 2]>>,
}

impl Halo {
    /// Cuts `plan` into `n_levels` levels over slots: `key(node)` is the
    /// `(level, slot)` of a scheduled node, mine or remote. Both endpoints
    /// of a link must level its nodes alike — the triangular solves exchange
    /// level labels first ([`CommPlan::exchange_labels`]). Warms the run's
    /// `f64` pool for every non-empty (send link, level) batch.
    ///
    /// # Panics
    /// If a scheduled node's level is not below `n_levels`.
    pub fn new(
        ctx: &Ctx,
        plan: &CommPlan,
        n_levels: usize,
        key: impl Fn(usize) -> (usize, usize),
    ) -> Halo {
        let link = |(peer, nodes): &(usize, Vec<usize>)| {
            let mut keyed: Vec<(usize, usize)> = nodes.iter().map(|&g| key(g)).collect();
            // Stable: within a level the plan's agreed node order survives.
            keyed.sort_by_key(|&(level, _)| level);
            let below = |l: usize| keyed.partition_point(|&(level, _)| level < l);
            let cut: Vec<usize> = (0..=n_levels).map(below).collect();
            assert_eq!(cut[n_levels], keyed.len(), "scheduled node without a level");
            Link {
                peer: *peer,
                slots: keyed.iter().map(|&(_, slot)| slot).collect(),
                cut,
            }
        };
        let halo = Halo {
            tag: plan.tag(),
            send: plan.send_lists().iter().map(link).collect(),
            recv: plan.recv_lists().iter().map(link).collect(),
            sweeps: RefCell::new(vec![[0; 2]; n_levels]),
        };
        for batch in halo.send.iter().flat_map(|k| k.cut.windows(2)) {
            if batch[1] > batch[0] {
                ctx.pool().warm(batch[1] - batch[0], WARM_BUFFERS_PER_LINK);
            }
        }
        halo
    }

    /// Total values this rank ships over one sweep of every level.
    pub fn sent_values(&self) -> usize {
        self.send.iter().map(|link| link.slots.len()).sum()
    }

    /// The wire tag of the next sweep at `level`, advancing the counter of
    /// its send (0) or receive (1) `half`.
    fn wire_tag(&self, level: usize, half: usize) -> u64 {
        let sweep = &mut self.sweeps.borrow_mut()[level][half];
        *sweep += 1;
        self.tag + ((level as u64 + 1) << 20) + *sweep - 1
    }

    /// The send half of a level's round: one `f64` batch to every peer that
    /// needs a value of `level`, `value_of(slot)` in the agreed order, staged
    /// in pooled buffers. Pairs with a matching [`Halo::recv_values`] on the
    /// other side — SpMV calls the halves back to back, the triangular
    /// sweeps at different loop iterations, which is why they are split.
    pub fn send_values(&self, ctx: &mut Ctx, level: usize, value_of: impl Fn(usize) -> f64) {
        let _audit = pilut_allocaudit::region("send_values");
        let wire = self.wire_tag(level, 0);
        let live = || {
            let batches = self.send.iter().map(|k| (k.peer, k.at(level)));
            batches.filter(|(_, slots)| !slots.is_empty())
        };
        let values: usize = live().map(|(_, slots)| slots.len()).sum();
        ctx.note_planned(self.tag, live().count() as u64, 8 * values as u64);
        for (peer, slots) in live() {
            let mut vals = ctx.pool().take(slots.len());
            vals.extend(slots.iter().map(|&s| value_of(s)));
            ctx.copy_words(vals.len() as f64);
            ctx.send_as(peer, wire, self.tag, Payload::f64s(vals));
        }
    }

    /// The receive half of a level's round: drains one `f64` batch per peer
    /// that owns a ghost of `level`, hands each `(slot, value)` to `take`,
    /// and recycles the batch toward the registered-buffer pool.
    pub fn recv_values(&self, ctx: &mut Ctx, level: usize, mut take: impl FnMut(usize, f64)) {
        let _audit = pilut_allocaudit::region("recv_values");
        let wire = self.wire_tag(level, 1);
        for link in &self.recv {
            let slots = link.at(level);
            if slots.is_empty() {
                continue;
            }
            // Borrow the values in place, then recycle the handle, which
            // shelves the buffer back into the pool.
            let payload = ctx.recv(link.peer, wire);
            let vals = payload.as_f64();
            let peer = link.peer;
            assert_eq!(vals.len(), slots.len(), "halo mismatch from rank {peer}");
            for (&s, &val) in slots.iter().zip(vals) {
                take(s, val);
            }
            ctx.copy_words(slots.len() as f64);
            payload.recycle(ctx.pool());
        }
    }
}
