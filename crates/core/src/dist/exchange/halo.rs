//! The values plane: one levelled halo for SpMV and both triangular sweeps.
//!
//! A [`Halo`] is what a [`CommPlan`] becomes once its nodes are renamed to
//! vector slots and sorted by level: per peer one slot list with `cut[l]`
//! offsets, level `l`'s share being the contiguous range
//! `cut[l]..cut[l + 1]`. That range is one *batch*: one values-only message
//! straight between the wire and a slot-indexed vector, shipped by
//! `Halo::send_batch` and drained by `Halo::recv_batch` one link at a
//! time, so a triangular sweep can ship a peer's batch as soon as its rows
//! are solved and drain one right before a row reads it. SpMV is the
//! one-level case and moves every link at once ([`Halo::send_values`] /
//! [`Halo::recv_values`]).
//!
//! The two batch halves run in the steady state of a solve and are on the
//! `no-alloc-in-hot` lint list and under the kernel gate's zero-alloc
//! steady regions (`send_values`, `recv_values`): a batch is staged in a
//! buffer of the run's registered pool ([`Ctx::pool`]) warmed at
//! construction, the receiver reads it through a borrow and `recycle`s its
//! payload handle, which puts the buffer back on the shelf — no per-round
//! heap traffic on either side.

use super::CommPlan;
use pilut_par::{Ctx, Payload};
use std::cell::Cell;

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
    /// `sweeps[l]`: batches of level `l` moved over this link so far. Sweep
    /// `s` of level `l` travels under the wire tag `tag + ((l + 1) << 20) +
    /// s`: batches of two levels can be in flight from one sender at once,
    /// and sharing a wire tag would let a reordered network swap them; the
    /// `+ 1` keeps level 0 clear of the plan's own rounds (`tag + round`).
    /// Both ends count only the non-empty batches they move, once per
    /// sweep, so they agree on `s`.
    sweeps: Vec<Cell<u64>>,
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
                sweeps: (0..n_levels).map(|_| Cell::new(0)).collect(),
            }
        };
        let halo = Halo {
            tag: plan.tag(),
            send: plan.send_lists().iter().map(link).collect(),
            recv: plan.recv_lists().iter().map(link).collect(),
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

    /// Send links, in ascending peer order.
    pub(crate) fn send_links(&self) -> usize {
        self.send.len()
    }

    /// Receive links, in ascending peer order.
    pub(crate) fn recv_links(&self) -> usize {
        self.recv.len()
    }

    /// The slots send link `link` ships at `level`, in wire order.
    pub(crate) fn send_slots(&self, link: usize, level: usize) -> &[usize] {
        self.send[link].at(level)
    }

    /// The ghost slots receive link `link` fills at `level`, in wire order.
    pub(crate) fn recv_slots(&self, link: usize, level: usize) -> &[usize] {
        self.recv[link].at(level)
    }

    /// The wire tag of the next batch of `link` at `level`, advancing its
    /// sweep counter.
    fn wire_tag(&self, link: &Link, level: usize) -> u64 {
        let sweep = link.sweeps[level].replace(link.sweeps[level].get() + 1);
        self.tag + ((level as u64 + 1) << 20) + sweep
    }

    /// Ships send link `link`'s batch of `level`, `value_of(slot)` in the
    /// agreed order, staged in a pooled buffer; an empty batch sends
    /// nothing. Pairs with `Halo::recv_batch` of the same `(link, level)`
    /// on the peer.
    pub(crate) fn send_batch(
        &self,
        ctx: &mut Ctx,
        link: usize,
        level: usize,
        value_of: impl Fn(usize) -> f64,
    ) {
        let _audit = pilut_allocaudit::region("send_values");
        let link = &self.send[link];
        let slots = link.at(level);
        if slots.is_empty() {
            return;
        }
        let wire = self.wire_tag(link, level);
        ctx.note_planned(self.tag, 1, 8 * slots.len() as u64);
        let mut vals = ctx.pool().take(slots.len());
        vals.extend(slots.iter().map(|&s| value_of(s)));
        ctx.copy_words(vals.len() as f64);
        ctx.send_as(link.peer, wire, self.tag, Payload::f64s(vals));
    }

    /// Drains receive link `link`'s batch of `level`, hands each
    /// `(slot, value)` to `take`, and recycles the batch toward the
    /// registered-buffer pool; an empty batch receives nothing.
    pub(crate) fn recv_batch(
        &self,
        ctx: &mut Ctx,
        link: usize,
        level: usize,
        mut take: impl FnMut(usize, f64),
    ) {
        let _audit = pilut_allocaudit::region("recv_values");
        let link = &self.recv[link];
        let slots = link.at(level);
        if slots.is_empty() {
            return;
        }
        let wire = self.wire_tag(link, level);
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

    /// The send half of a whole level: `Halo::send_batch` over every send
    /// link in ascending peer order.
    pub fn send_values(&self, ctx: &mut Ctx, level: usize, value_of: impl Fn(usize) -> f64) {
        for link in 0..self.send.len() {
            self.send_batch(ctx, link, level, &value_of);
        }
    }

    /// The receive half of a whole level: `Halo::recv_batch` over every
    /// receive link in ascending peer order.
    pub fn recv_values(&self, ctx: &mut Ctx, level: usize, mut take: impl FnMut(usize, f64)) {
        for link in 0..self.recv.len() {
            self.recv_batch(ctx, link, level, &mut take);
        }
    }
}
