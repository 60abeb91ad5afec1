//! Collective operations over all ranks.
//!
//! Everything is built from point-to-point messages along binomial trees,
//! so the logical-clock cost model charges the realistic `O(log p)` latency
//! depth automatically. The SPMD contract applies: every rank must call each
//! collective in the same program order.
//!
//! Trees run over the ranks `0..p`, rooted at rank 0.
//!
//! There is one stack: [`Ctx::barrier`], [`Ctx::all_reduce_sum`] and
//! [`Ctx::all_reduce_u64`] are each one `tree_reduce` followed by one
//! `tree_bcast`, and differ only in the payload codec they pass it — `u64`
//! vectors by value up and as one shared payload down, a single `f64` in a
//! pooled one-element buffer per hop. The combine order is therefore the
//! same for every collective by construction. [`Ctx::exchange`] adds a data
//! phase of direct sends behind a count-learning all-reduce; its gather is
//! the machine's one receive that names no source, and it sorts what it
//! gathers by source, so no collective returns anything that depends on
//! arrival order (DESIGN §11.1).
//!
//! Every collective plans its traffic exactly before its first send, like
//! a data-plane round: a tree collective ships its payload's fixed width
//! once per tree send, and the exchange packs every frame before any
//! ships.

use crate::check::CollKind;
use crate::ctx::Ctx;
use crate::payload::Payload;
use crate::pool::Pool;

/// Element-wise reduction operators.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReduceOp {
    /// Element-wise sum.
    Sum,
    /// Element-wise maximum.
    Max,
    /// Element-wise minimum.
    Min,
}

impl Ctx {
    /// Opens a collective: allocates its reserved tag, marks the op as the
    /// one currently executing (piggybacked on every reserved-tag envelope
    /// for commcheck's order verification), logs it on the board, and
    /// records the exact point-to-point messages and bytes this rank is
    /// about to send for it in the planned-traffic ledger, under the shared
    /// reserved key.
    fn begin_collective(&mut self, kind: CollKind, (sends, bytes): (u64, u64)) -> u64 {
        self.note_planned(Self::RESERVED_TAG_BASE, sends, bytes);
        let tag = Self::RESERVED_TAG_BASE | self.coll_seq;
        self.coll_seq += 1;
        self.counters.collectives += 1;
        self.current_coll = Some(kind);
        if let Some(check) = self.check() {
            check.log_collective(self.rank(), kind);
        }
        tag
    }

    /// `(messages, bytes)` this rank sends during one reduce + broadcast
    /// pair (every tree collective is exactly that) of `words`-word
    /// payloads: each non-root rank forwards one combined payload up, then
    /// every rank feeds its broadcast children.
    fn tree_collective_traffic(&self, words: usize) -> (u64, u64) {
        let (s, p) = (self.rank(), self.nprocs());
        let sends = u64::from(s != 0) + Self::bcast_children(s, p).count() as u64;
        (sends, 8 * words as u64 * sends)
    }

    /// Closes the collective opened by [`Ctx::begin_collective`].
    fn end_collective(&mut self) {
        self.current_coll = None;
    }

    /// Lowest set bit of `s` (its parent distance in the binomial tree).
    fn lowbit(s: usize) -> usize {
        s & s.wrapping_neg()
    }

    /// Children of rank `s` in the binomial broadcast tree over `p` ranks,
    /// farthest first so the far half of the tree starts as early as
    /// possible. Purely arithmetic (no allocation); the single source of
    /// truth for the send loop and the planned `coll` message counts —
    /// they cannot drift.
    fn bcast_children(s: usize, p: usize) -> impl Iterator<Item = usize> {
        // Children: s + 2^j for j below the parent-bit.
        let t = if s == 0 {
            usize::BITS as usize
        } else {
            Self::lowbit(s).trailing_zeros() as usize
        };
        (0..t)
            .rev()
            .map(move |j| (1usize << j, s + (1usize << j)))
            .filter(move |&(step, child)| child < p && (s != 0 || step < p))
            .map(|(_, child)| child)
    }

    /// Reduce-to-root along the binomial tree over the ranks, combining
    /// with `combine` — the one combine order every collective shares, so
    /// a result's bits cannot depend on which collective carried it.
    /// `to_payload` consumes the accumulator (a rank sends exactly once,
    /// right before leaving the reduction), so no copy is taken. Returns
    /// `Some` only at rank 0.
    fn tree_reduce<T, C>(
        &mut self,
        tag: u64,
        mut acc: T,
        to_payload: impl Fn(T) -> Payload,
        from_payload: impl Fn(Payload) -> T,
        combine: C,
    ) -> Option<T>
    where
        C: Fn(&mut T, T),
    {
        let (s, p) = (self.rank(), self.nprocs());
        let mut bit = 1usize;
        while bit < p {
            if s & bit != 0 {
                self.send_internal(s - bit, tag, tag, to_payload(acc));
                return None;
            }
            if s + bit < p {
                let (_, got) = self.recv_internal(Some(s + bit), tag);
                combine(&mut acc, from_payload(got));
            }
            bit <<= 1;
        }
        Some(acc)
    }

    /// Broadcast from rank 0 along the binomial tree: a non-root rank reads
    /// its value off the wire with `from_payload`, then every rank ships
    /// `to_payload(&value)` to each of its children.
    fn tree_bcast<T>(
        &mut self,
        tag: u64,
        val: Option<T>,
        to_payload: impl Fn(&T) -> Payload,
        from_payload: impl Fn(Payload) -> T,
    ) -> T {
        let (s, p) = (self.rank(), self.nprocs());
        #[expect(clippy::expect_used, reason = "the root always passes Some")]
        let val = if s == 0 {
            val.expect("root must provide the broadcast value")
        } else {
            let parent = s - Self::lowbit(s);
            from_payload(self.recv_internal(Some(parent), tag).1)
        };
        for child in Self::bcast_children(s, p) {
            self.send_internal(child, tag, tag, to_payload(&val));
        }
        val
    }

    /// One reduce + broadcast pair over `u64` vectors: the accumulator
    /// moves up by value, the result fans out as one shared payload.
    fn all_reduce_vec<C>(&mut self, kind: CollKind, data: Vec<u64>, combine: C) -> Vec<u64>
    where
        C: Fn(&mut Vec<u64>, Vec<u64>),
    {
        let planned = self.tree_collective_traffic(data.len());
        let tag = self.begin_collective(kind, planned);
        let root = self.tree_reduce(tag, data, Payload::u64s, Payload::into_u64, combine);
        let out = self.tree_bcast(tag, root.map(Payload::u64s), Payload::clone, |p| p);
        self.end_collective();
        out.into_u64()
    }

    /// One reduce + broadcast pair over a single `f64` — the hot form
    /// (GMRES calls it every inner iteration, twice per orthogonalisation
    /// column), so it stays off the heap: every hop ships a pooled
    /// one-element buffer ([`scalar_payload`]) which the receiver reads
    /// and recycles ([`scalar_value`]). Each broadcast child gets its own
    /// buffer — no `Arc` fan-out sharing — which is also how a real
    /// message-passing runtime ships a scalar to each subtree.
    fn all_reduce_scalar(&mut self, kind: CollKind, x: f64, combine: fn(&mut f64, f64)) -> f64 {
        let planned = self.tree_collective_traffic(1);
        let tag = self.begin_collective(kind, planned);
        // The codecs hold the run's pool while the tree borrows the rank.
        let pool = self.pool.clone();
        let (to, from) = (|x| scalar_payload(&pool, x), |p| scalar_value(&pool, p));
        let root = self.tree_reduce(tag, x, to, from, combine);
        let out = self.tree_bcast(tag, root, |&v| to(v), from);
        self.end_collective();
        out
    }

    /// Synchronises all ranks; every rank leaves with the same logical clock:
    /// the maximum entry clock plus the barrier's modelled cost
    /// (`2·⌈log2 p⌉` message latencies — an up-sweep and a down-sweep).
    pub fn barrier(&mut self) {
        let max_entry = self.all_reduce_scalar(CollKind::Barrier, self.time(), |acc, got| {
            *acc = acc.max(got)
        });
        let levels = self.nprocs().next_power_of_two().trailing_zeros() as f64;
        // Each sweep hop moves one 8-byte clock stamp.
        let hop = self.model().latency + 8.0 * self.model().inv_bandwidth;
        let aligned = max_entry + 2.0 * levels * hop;
        let t = self.time().max(aligned);
        self.elapse(t - self.time());
    }

    /// Element-wise all-reduce over `u64` vectors (same length on all ranks).
    pub fn all_reduce_u64(&mut self, data: Vec<u64>, op: ReduceOp) -> Vec<u64> {
        self.all_reduce_vec(CollKind::AllReduceU64, data, move |acc, got| {
            assert_eq!(acc.len(), got.len(), "all_reduce length mismatch");
            for (a, g) in acc.iter_mut().zip(got) {
                match op {
                    ReduceOp::Sum => *a += g,
                    ReduceOp::Max => *a = (*a).max(g),
                    ReduceOp::Min => *a = (*a).min(g),
                }
            }
        })
    }

    /// Scalar sum all-reduce over `f64`.
    pub fn all_reduce_sum(&mut self, x: f64) -> f64 {
        self.all_reduce_scalar(CollKind::AllReduceF64, x, |acc, got| *acc += got)
    }

    /// Scalar sum all-reduce over `u64`.
    pub fn all_reduce_sum_u64(&mut self, x: u64) -> u64 {
        self.all_reduce_u64(vec![x], ReduceOp::Sum)[0]
    }

    /// Sparse all-to-all: each rank supplies `(destination, payload)` pairs
    /// and receives the pairs addressed to it as `(source, payload)`,
    /// ordered by source (and send order within a source).
    ///
    /// Cost: one `O(p)`-payload all-reduce to learn the incoming count,
    /// then **one packed message per destination** — all payloads bound for
    /// one rank travel in a single envelope, and every envelope is packed
    /// before the first ships, so the phase plans its bytes. Packing is
    /// what makes the per-source order promise structural: the wire
    /// contract leaves same-`(sender, tag)` delivery order undefined, so
    /// shipping each payload separately was a match-order race (found by the
    /// happens-before detector; EXPERIMENTS.md at 039f5b3 has the triage).
    /// Cross-source arrival order remains free and unobservable: the gather
    /// is the machine's one receive that names no source, it takes exactly
    /// the count the all-reduce learned under this call's fresh tag, and the
    /// source sort fixes the result's order.
    pub fn exchange(&mut self, sends: Vec<(usize, Payload)>) -> Vec<(usize, Payload)> {
        let p = self.nprocs();
        let mut by_dest: Vec<Vec<Payload>> = (0..p).map(|_| Vec::new()).collect();
        for (dest, payload) in sends {
            assert!(dest < p, "exchange destination {dest} out of range");
            by_dest[dest].push(payload);
        }
        let counts: Vec<u64> = by_dest.iter().map(|l| u64::from(!l.is_empty())).collect();
        // After the sum-reduce, slot `me` holds how many messages I receive.
        let totals = self.all_reduce_u64(counts, ReduceOp::Sum);
        let incoming = totals[self.rank()] as usize;
        // One packed envelope per non-empty destination, all packed before
        // any ships (the count-learning all-reduce planned itself).
        let frames: Vec<(usize, Payload)> = (by_dest.into_iter().enumerate())
            .filter(|(_, parts)| !parts.is_empty())
            .map(|(dest, parts)| (dest, pack_exchange(parts)))
            .collect();
        let bytes = frames.iter().map(|(_, f)| f.bytes() as u64).sum();
        let tag = self.begin_collective(CollKind::Exchange, (frames.len() as u64, bytes));
        for (dest, frame) in frames {
            self.send_internal(dest, tag, tag, frame);
        }
        let mut out = Vec::new();
        for _ in 0..incoming {
            let (src, packed) = self.recv_internal(None, tag);
            for payload in unpack_exchange(packed) {
                out.push((src, payload));
            }
        }
        self.end_collective();
        // Deterministic order regardless of arrival interleaving: sort by
        // source; per-source order is already structural (one message per
        // source), and the stable sort keeps it.
        out.sort_by_key(|&(src, _)| src);
        out
    }
}

/// One `f64` in a pooled one-element buffer, ready to ship.
fn scalar_payload(pool: &Pool, x: f64) -> Payload {
    let mut buf = pool.take(1);
    buf.push(x);
    Payload::f64s(buf)
}

/// Reads the `f64` of a [`scalar_payload`] and hands its buffer back to
/// the pool.
fn scalar_value(pool: &Pool, payload: Payload) -> f64 {
    let x = payload.as_f64()[0];
    payload.recycle(pool);
    x
}

/// Packs one exchange's payload sequence for a single destination into one
/// wire message. Frame (all in the `u64` half of a [`Payload::Mixed`]):
/// `[n, (variant, u64_len, f64_len) × n, u64 bodies…]`; the `f64` bodies are
/// concatenated in the `f64` half. Variants: 0 = Empty, 1 = U64, 2 = F64,
/// 3 = Mixed.
fn pack_exchange(parts: Vec<Payload>) -> Payload {
    let mut header: Vec<u64> = Vec::with_capacity(1 + 3 * parts.len());
    header.push(parts.len() as u64);
    let mut us: Vec<u64> = Vec::new();
    let mut fs: Vec<f64> = Vec::new();
    for part in parts {
        let (variant, u, f): (u64, Vec<u64>, Vec<f64>) = match part {
            Payload::Empty => (0, Vec::new(), Vec::new()),
            p @ Payload::U64(_) => (1, p.into_u64(), Vec::new()),
            p @ Payload::F64(_) => (2, Vec::new(), p.into_f64()),
            p @ Payload::Mixed(..) => {
                let (u, f) = p.into_mixed();
                (3, u, f)
            }
        };
        header.push(variant);
        header.push(u.len() as u64);
        header.push(f.len() as u64);
        us.extend_from_slice(&u);
        fs.extend_from_slice(&f);
    }
    header.append(&mut us);
    Payload::mixed(header, fs)
}

/// Inverse of [`pack_exchange`]: splits one packed envelope back into the
/// sender's payload sequence, in send order.
fn unpack_exchange(packed: Payload) -> Vec<Payload> {
    let (frame, fs) = packed.into_mixed();
    let n = frame[0] as usize;
    let mut out = Vec::with_capacity(n);
    let mut ucur = 1 + 3 * n;
    let mut fcur = 0usize;
    for k in 0..n {
        let variant = frame[1 + 3 * k];
        let ulen = frame[2 + 3 * k] as usize;
        let flen = frame[3 + 3 * k] as usize;
        let u = frame[ucur..ucur + ulen].to_vec();
        let f = fs[fcur..fcur + flen].to_vec();
        ucur += ulen;
        fcur += flen;
        out.push(match variant {
            0 => Payload::Empty,
            1 => Payload::u64s(u),
            2 => Payload::f64s(f),
            _ => Payload::mixed(u, f),
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::splitmix64;
    use crate::machine::{Machine, MachineModel};

    fn model() -> MachineModel {
        MachineModel::cray_t3d()
    }

    #[test]
    fn barrier_aligns_clocks() {
        for p in [1, 2, 3, 5, 8] {
            let out = Machine::run_checked(p, model(), |ctx| {
                ctx.work(1e6 * (ctx.rank() as f64 + 1.0));
                ctx.barrier();
                ctx.time()
            });
            let t0 = out.results[0];
            for (r, &t) in out.results.iter().enumerate() {
                assert!(
                    (t - t0).abs() < 1e-12,
                    "rank {r} clock {t} != {t0} at p={p}"
                );
            }
            // The barrier cannot finish before the slowest rank's work.
            assert!(t0 >= 1e6 * p as f64 * model().flop_time);
        }
    }

    /// Serial reference for every tree collective: round `bit` folds slot
    /// `s + bit` into slot `s` for every `s` that is a multiple of
    /// `2·bit`; slot 0 ends up holding the result.
    fn binomial_fold<T: Clone>(vals: &[T], combine: impl Fn(&mut T, T)) -> T {
        let mut vals = vals.to_vec();
        let mut bit = 1;
        while bit < vals.len() {
            for s in (0..vals.len() - bit).step_by(2 * bit) {
                let got = vals[s + bit].clone();
                combine(&mut vals[s], got);
            }
            bit <<= 1;
        }
        vals[0].clone()
    }

    #[test]
    fn all_reduce_combines_in_binomial_tree_order_to_the_bit() {
        let mut discriminating = false;
        for p in [1usize, 2, 3, 4, 5, 7, 8] {
            // Signed magnitudes spread over 1e-8…1e8: the sum depends on
            // the order it is taken in.
            let mut seed = 0x5eed_0000 + p as u64;
            let xs: Vec<f64> = (0..p)
                .map(|_| {
                    let u = splitmix64(&mut seed) as f64 / u64::MAX as f64;
                    let sign = if splitmix64(&mut seed) & 1 == 0 {
                        1.0
                    } else {
                        -1.0
                    };
                    sign * 10f64.powf(16.0 * u - 8.0)
                })
                .collect();
            let us: Vec<Vec<u64>> = (0..p)
                .map(|_| (0..3).map(|_| splitmix64(&mut seed) >> 24).collect())
                .collect();
            let (xs_in, us_in) = (xs.clone(), us.clone());
            let out = Machine::run_checked(p, model(), move |ctx| {
                let me = ctx.rank();
                let sum = ctx.all_reduce_sum(xs_in[me]).to_bits();
                let ops = [ReduceOp::Sum, ReduceOp::Max, ReduceOp::Min];
                (sum, ops.map(|op| ctx.all_reduce_u64(us_in[me].clone(), op)))
            });
            let sum = binomial_fold(&xs, |a, g| *a += g);
            discriminating |= sum.to_bits() != xs.iter().sum::<f64>().to_bits();
            let elementwise = |f: fn(u64, u64) -> u64| {
                binomial_fold(&us, |a: &mut Vec<u64>, g: Vec<u64>| {
                    for (a, g) in a.iter_mut().zip(g) {
                        *a = f(*a, g);
                    }
                })
            };
            let expect = (
                sum.to_bits(),
                [
                    elementwise(|a, g| a + g),
                    elementwise(u64::max),
                    elementwise(u64::min),
                ],
            );
            for (r, got) in out.results.iter().enumerate() {
                assert_eq!(got, &expect, "rank {r} of {p}");
            }
        }
        assert!(
            discriminating,
            "no input set told tree order from left-to-right order"
        );
    }

    #[test]
    fn all_reduce_vectors_u64() {
        let out = Machine::run_checked(5, model(), |ctx| {
            let v = vec![ctx.rank() as u64, 10 + ctx.rank() as u64];
            ctx.all_reduce_u64(v, ReduceOp::Min)
        });
        for r in &out.results {
            assert_eq!(r, &vec![0, 10]);
        }
    }

    #[test]
    fn exchange_routes_messages() {
        // Ring: each rank sends its rank to the next, two copies to rank 0.
        let out = Machine::run_checked(4, model(), |ctx| {
            let me = ctx.rank();
            let mut sends = vec![((me + 1) % 4, Payload::u64s(vec![me as u64]))];
            if me == 2 {
                sends.push((0, Payload::u64s(vec![100])));
            }
            ctx.exchange(sends)
        });
        // Rank 1 receives exactly one message, from 0.
        assert_eq!(out.results[1], vec![(0, Payload::u64s(vec![0]))]);
        // Rank 0 receives from 2 (the extra) and 3 (the ring), ordered by src.
        assert_eq!(
            out.results[0],
            vec![(2, Payload::u64s(vec![100])), (3, Payload::u64s(vec![3]))]
        );
    }

    #[test]
    fn exchange_preserves_per_source_order() {
        let out = Machine::run_checked(2, model(), |ctx| {
            if ctx.rank() == 0 {
                ctx.exchange(vec![
                    (1, Payload::u64s(vec![1])),
                    (1, Payload::u64s(vec![2])),
                    (1, Payload::u64s(vec![3])),
                ])
            } else {
                ctx.exchange(vec![])
            }
        });
        let got: Vec<u64> = out.results[1]
            .iter()
            .map(|(_, p)| p.clone().into_u64()[0])
            .collect();
        assert_eq!(got, vec![1, 2, 3]);
    }

    #[test]
    fn exchange_pack_roundtrip_all_variants() {
        let parts = vec![
            Payload::Empty,
            Payload::u64s(vec![1, 2, 3]),
            Payload::f64s(vec![0.5, -1.5]),
            Payload::mixed(vec![9], vec![2.25]),
            Payload::u64s(vec![]),
            Payload::f64s(vec![]),
        ];
        assert_eq!(unpack_exchange(pack_exchange(parts.clone())), parts);
        // A lone payload survives too (the common single-send case).
        let one = vec![Payload::mixed(vec![7, 8], vec![])];
        assert_eq!(unpack_exchange(pack_exchange(one.clone())), one);
    }

    #[test]
    fn exchange_mixed_payload_kinds_one_destination() {
        // Regression for the packing frame: heterogeneous payload kinds from
        // one source must arrive intact and in send order.
        let out = Machine::run_checked(2, model(), |ctx| {
            if ctx.rank() == 0 {
                ctx.exchange(vec![
                    (1, Payload::f64s(vec![1.25])),
                    (1, Payload::Empty),
                    (1, Payload::mixed(vec![4], vec![0.5])),
                ])
            } else {
                ctx.exchange(vec![])
            }
        });
        assert_eq!(
            out.results[1],
            vec![
                (0, Payload::f64s(vec![1.25])),
                (0, Payload::Empty),
                (0, Payload::mixed(vec![4], vec![0.5])),
            ]
        );
    }

    /// `coll` `(messages, bytes)` one rank has sent.
    type Sent = (u64, u64);

    /// Per rank, cumulative `coll` `(messages, bytes)` after each of
    /// barrier, scalar all-reduce, vector all-reduce and exchange —
    /// recorded at the commit before the scalar and vector stacks were
    /// folded into one, with an all-gather between the last two, whose
    /// share the exchange column no longer holds since the all-gather
    /// retired.
    #[rustfmt::skip]
    const WIRE_BEFORE_FOLD: [(usize, &[[Sent; 4]]); 5] = [
        (1, &[
            [(0, 0), (0, 0), (0, 0), (1, 64)],
        ]),
        (2, &[
            [(1, 8), (2, 16), (3, 40), (5, 120)],
            [(1, 8), (2, 16), (3, 40), (5, 96)],
        ]),
        (3, &[
            [(2, 16), (4, 32), (6, 80), (10, 200)],
            [(1, 8), (2, 16), (3, 40), (5, 104)],
            [(1, 8), (2, 16), (3, 40), (5, 104)],
        ]),
        (5, &[
            [(3, 24), (6, 48), (9, 120), (14, 312)],
            [(1, 8), (2, 16), (3, 40), (5, 120)],
            [(2, 16), (4, 32), (6, 80), (9, 200)],
            [(1, 8), (2, 16), (3, 40), (5, 120)],
            [(1, 8), (2, 16), (3, 40), (5, 120)],
        ]),
        (8, &[
            [(3, 24), (6, 48), (9, 120), (14, 384)],
            [(1, 8), (2, 16), (3, 40), (5, 144)],
            [(2, 16), (4, 32), (6, 80), (9, 248)],
            [(1, 8), (2, 16), (3, 40), (5, 144)],
            [(3, 24), (6, 48), (9, 120), (13, 352)],
            [(1, 8), (2, 16), (3, 40), (5, 144)],
            [(2, 16), (4, 32), (6, 80), (9, 248)],
            [(1, 8), (2, 16), (3, 40), (5, 144)],
        ]),
    ];

    /// This rank's `coll` `(messages, bytes)` so far.
    fn coll_sent(ctx: &Ctx) -> Sent {
        let sent = ctx.counters.by_tag.get(&Ctx::RESERVED_TAG_BASE);
        sent.copied().unwrap_or((0, 0))
    }

    #[test]
    fn planned_collective_messages_match_measured() {
        // Every collective predicts its exact point-to-point messages and
        // bytes before sending; the reserved-tag bucket must agree with the
        // measured counters at every rank count. What each rank puts on the
        // wire per collective is pinned to the byte.
        for (p, wire) in WIRE_BEFORE_FOLD {
            let out = Machine::run_checked(p, model(), |ctx| {
                let me = ctx.rank();
                ctx.barrier();
                let barrier = coll_sent(ctx);
                ctx.all_reduce_sum(me as f64);
                let scalar = coll_sent(ctx);
                ctx.all_reduce_u64(vec![me as u64, 3, 7], ReduceOp::Sum);
                let vector = coll_sent(ctx);
                let mut sends = vec![((me + 1) % p, Payload::u64s(vec![me as u64]))];
                if me == 0 {
                    sends.push((p - 1, Payload::Empty));
                }
                ctx.exchange(sends);
                [barrier, scalar, vector, coll_sent(ctx)]
            });
            assert_eq!(out.results, wire, "p={p}");
            let measured = out.stats.tag_totals(Ctx::RESERVED_TAG_BASE);
            let planned = out.stats.planned_by_tag.get(&Ctx::RESERVED_TAG_BASE);
            assert_eq!(planned, Some(&measured), "p={p}");
        }
    }

    #[test]
    fn collectives_compose_in_sequence() {
        let out = Machine::run_checked(6, model(), |ctx| {
            let a = ctx.all_reduce_sum(1.0);
            ctx.barrier();
            let b = ctx.all_reduce_sum_u64(2);
            let g = ctx.all_reduce_u64(vec![ctx.rank() as u64; 2], ReduceOp::Max);
            (a, b, g)
        });
        for (a, b, g) in &out.results {
            assert_eq!(*a, 6.0);
            assert_eq!(*b, 12);
            assert_eq!(g, &[5, 5]);
        }
    }
}
