//! Registered communication buffers: one run's pool of reusable message
//! payloads.
//!
//! MPI codes register their halo buffers once and reuse them for every
//! exchange; nothing on the steady path touches the heap. The VM's
//! equivalent is this pool: a shelf of power-of-two size classes holding
//! `Vec<f64>` payload buffers (index buffers are not pooled: no
//! steady-state region ships one). The shelf belongs to one
//! [`Machine::run`](crate::Machine::run): the machine creates it, every
//! rank reaches it through its [`Ctx`](crate::Ctx), and it is dropped when
//! the run returns — as MPI frees registered buffers with their
//! communicator — so a run never sees the buffers of the run before it or
//! of one running beside it. A plan warms the classes it needs at build
//! time ([`Pool::warm`]); replay then [`take`](Pool::take)s an empty
//! buffer, fills and ships it, and the *receiver* — a different rank
//! thread — [`recycle`](crate::Payload::recycle)s it after reading, closing
//! the producer/consumer cycle without a single steady-state allocation.
//! The kernel gate's zero-alloc steady regions are what keep everyone
//! honest: a pool sized too small shows up as a counted allocation inside a
//! steady region, not as silent churn.
//!
//! Misses are deliberate, not hidden: an empty class allocates a fresh
//! buffer (fine during setup/warm-up, a gate failure inside a steady
//! region), and a full class drops the returned buffer (deallocation is
//! not churn — acquiring memory is).

use std::sync::Mutex;

/// Largest class exponent kept: buffers above `2^MAX_CLASS` elements
/// bypass the pool entirely (allocate on take, drop on give).
const MAX_CLASS: usize = 26;

/// Buffers retained per class; beyond this, returned buffers are dropped
/// and warm requests are clamped. The cap must absorb *every* link of a
/// class across all ranks and level sub-plans at full warm depth — under
/// reliable delivery that is `ACK_EVERY + skew` buffers per link, since
/// senders retain each frame until the cumulative ACK passes it. The cap
/// is a count, not a byte bound: it relies on large classes having few
/// links, which holds for halo/sweep schedules (link length scales with
/// the partition interface, link count with the neighbor degree). It stays
/// although the shelf is per run: a warm is a per-link allowance rather
/// than an exact count, the scalar class has no plan to size it, and a run
/// that re-plans (a recovery epoch, a second operator) warms again.
pub(crate) const PER_CLASS: usize = 1024;

/// One run's shelf of empty `f64` buffers, reached through
/// [`Ctx::pool`](crate::Ctx::pool).
#[derive(Debug, Default)]
pub struct Pool {
    /// `classes[c]` holds empty buffers with `capacity ≥ 2^c`. The spine
    /// and each class vector are pre-reserved at warm time so steady-state
    /// `give`/`take` never grow them.
    classes: Mutex<Vec<Vec<Vec<f64>>>>,
}

impl Pool {
    /// Class exponent serving a request of `len` elements.
    fn class_for_len(len: usize) -> usize {
        len.max(1).next_power_of_two().trailing_zeros() as usize
    }

    /// Class exponent a buffer of `cap` elements belongs to (its capacity
    /// covers every request in that class).
    fn class_for_cap(cap: usize) -> usize {
        (usize::BITS - 1 - cap.leading_zeros()) as usize
    }

    /// Warming is **additive**: each call adds `count` buffers to the
    /// class (up to the `PER_CLASS` shelf cap) rather than topping the
    /// shelf up to `count`. Plans warm once per send link, and links are
    /// fire-and-forget — a shipped buffer stays in flight until the
    /// *receiving* rank thread drains it — so the inventory a class needs
    /// is proportional to the number of links (across every rank, level
    /// sub-plan, and concurrent solve) that drew from it, not a fixed
    /// per-class constant. A top-up policy here left exactly `count`
    /// buffers for *all* links of a class and drained under cross-rank
    /// skew, which the kernel gate's zero-alloc regions caught as
    /// steady-state `take` misses.
    pub fn warm(&self, len: usize, count: usize) {
        let c = Self::class_for_len(len);
        if c > MAX_CLASS {
            return;
        }
        #[expect(clippy::unwrap_used, reason = "nothing panics under the pool lock")]
        let mut classes = self.classes.lock().unwrap();
        if classes.len() <= c {
            classes.resize_with(c + 1, || Vec::with_capacity(PER_CLASS));
        }
        let shelf = &mut classes[c];
        let target = (shelf.len() + count).min(PER_CLASS);
        while shelf.len() < target {
            shelf.push(Vec::with_capacity(1 << c));
        }
    }

    /// An empty buffer with capacity ≥ `len`, allocated fresh on a miss
    /// (setup-only by contract).
    pub fn take(&self, len: usize) -> Vec<f64> {
        let c = Self::class_for_len(len);
        if c <= MAX_CLASS {
            #[expect(clippy::unwrap_used, reason = "nothing panics under the pool lock")]
            let mut classes = self.classes.lock().unwrap();
            if let Some(buf) = classes.get_mut(c).and_then(Vec::pop) {
                return buf;
            }
        }
        Vec::with_capacity(len.max(1).next_power_of_two())
    }

    /// Shelves a consumed buffer for the next replay round.
    pub(crate) fn give(&self, mut buf: Vec<f64>) {
        if buf.capacity() == 0 {
            return;
        }
        let c = Self::class_for_cap(buf.capacity());
        if c > MAX_CLASS {
            return; // oversized: drop
        }
        buf.clear();
        #[expect(clippy::unwrap_used, reason = "nothing panics under the pool lock")]
        let mut classes = self.classes.lock().unwrap();
        if let Some(shelf) = classes.get_mut(c) {
            if shelf.len() < shelf.capacity() {
                shelf.push(buf);
            }
            // Full shelf (or unwarmed class below): drop the buffer. A
            // drop is a dealloc, which the zero-alloc gate permits.
        }
    }

    /// Buffers shelved in the class serving `len` — a test and diagnostic
    /// hook, not part of any protocol.
    #[doc(hidden)]
    pub fn available(&self, len: usize) -> usize {
        let c = Self::class_for_len(len);
        #[expect(clippy::unwrap_used, reason = "nothing panics under the pool lock")]
        let classes = self.classes.lock().unwrap();
        classes.get(c).map_or(0, Vec::len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::{Machine, MachineModel};
    use crate::payload::Payload;
    use std::sync::{Arc, Barrier};

    #[test]
    fn take_give_roundtrip_reuses_the_buffer() {
        let pool = Pool::default();
        pool.warm(100, 1);
        let mut a = pool.take(100);
        let ptr = a.as_ptr();
        a.extend((0..100).map(|i| i as f64));
        pool.give(a);
        let b = pool.take(80); // same class (2^7): must get the same buffer
        assert_eq!(b.as_ptr(), ptr, "pool did not recycle the buffer");
        assert!(b.is_empty(), "recycled buffer not cleared");
        pool.give(b);
    }

    #[test]
    fn warmed_classes_serve_steadily_without_allocating() {
        let pool = Pool::default();
        pool.warm(1000, 2);
        let guard = pilut_allocaudit::zero_alloc("pool_steady");
        for _ in 0..4 {
            let mut f = pool.take(1000);
            f.extend(std::iter::repeat(1.5).take(1000));
            pool.give(f);
        }
        drop(guard);
    }

    #[test]
    fn oversized_and_unwarmed_requests_still_work() {
        let pool = Pool::default();
        let big = pool.take((1 << MAX_CLASS) + 1);
        assert!(big.capacity() > 1 << MAX_CLASS);
        pool.give(big); // dropped, not shelved
        let odd = pool.take(3);
        assert!(odd.capacity() >= 3);
        pool.give(odd);
        assert_eq!(pool.available(3), 0, "an unwarmed class shelves nothing");
    }

    #[test]
    fn warming_is_additive_and_capped() {
        let pool = Pool::default();
        pool.warm(10, 3);
        pool.warm(16, 4); // same class (2^4)
        assert_eq!(pool.available(9), 7);
        pool.warm(10, PER_CLASS);
        assert_eq!(pool.available(10), PER_CLASS);
    }

    /// The shelf a run sees at a given point is what *that run* warmed:
    /// two back-to-back runs with the same warms count the same buffers,
    /// where a process-wide shelf showed the second run the first one's.
    #[test]
    fn back_to_back_runs_see_the_same_shelf() {
        let run = || {
            Machine::run_checked(2, MachineModel::cray_t3d(), |ctx| {
                ctx.pool().warm(300, 5);
                ctx.barrier(); // both ranks have warmed; nobody takes 300s
                ctx.pool().available(300)
            })
            .results
        };
        let first = run();
        assert_eq!(first, vec![10, 10], "both ranks warm one shared shelf");
        assert_eq!(run(), first, "the second run saw the first run's buffers");
    }

    /// Two runs on two threads at once: each sees its own warms only and
    /// never takes a buffer the other one registered.
    #[test]
    fn concurrent_runs_never_share_buffers() {
        let meet = Barrier::new(2);
        let run = |warm: usize| {
            Machine::run(1, MachineModel::cray_t3d(), |ctx| {
                ctx.pool().warm(700, warm);
                meet.wait(); // both shelves are warm before either is read
                let count = ctx.pool().available(700);
                let bufs: Vec<Vec<f64>> = (0..count).map(|_| ctx.pool().take(700)).collect();
                let ptrs: Vec<usize> = bufs.iter().map(|b| b.as_ptr() as usize).collect();
                meet.wait(); // both runs hold all their buffers at once
                (count, ptrs)
            })
            .results
            .remove(0)
        };
        let (a, b) = std::thread::scope(|s| {
            let a = s.spawn(|| run(3));
            let b = s.spawn(|| run(4));
            (a.join().unwrap(), b.join().unwrap())
        });
        assert_eq!((a.0, b.0), (3, 4), "a run counted the other run's warms");
        assert!(a.1.iter().all(|p| !b.1.contains(p)), "runs shared a buffer");
    }

    /// The shelf is dropped with its run: nothing keeps the registered
    /// buffers alive once `Machine::run` has returned.
    #[test]
    fn a_runs_shelf_is_gone_once_it_returns() {
        let out = Machine::run(2, MachineModel::cray_t3d(), |ctx| {
            ctx.pool().warm(5000, 2);
            Arc::downgrade(&ctx.pool)
        });
        for shelf in out.results {
            assert!(shelf.upgrade().is_none(), "a run's shelf outlived the run");
        }
    }

    /// Differential test for the production path: an *unchecked*
    /// `Machine::run` — the zero-overhead entry point — must leave no
    /// trace in the audit layer. The transport (channel nodes, payload
    /// refcounts, pending queues) is harness-owned by the DESIGN §16
    /// taxonomy, so even with the audit allocator compiled in, a
    /// production exchange inside a `ZeroAllocScope` is silent and no
    /// region is recorded but the span the machine puts around every rank
    /// body (through which a rank's regions reach the registry before the
    /// rank is joined).
    #[test]
    fn production_run_records_no_audit_regions() {
        pilut_allocaudit::reset_regions();
        let out = Machine::run(2, MachineModel::cray_t3d(), |ctx| {
            let payload = Payload::f64s(vec![ctx.rank() as f64; 64]);
            let peer = 1 - ctx.rank();
            let guard = pilut_allocaudit::zero_alloc("production_exchange");
            if ctx.rank() == 0 {
                ctx.send(peer, 7, payload);
                let got = ctx.recv(peer, 8);
                drop(guard);
                got.into_f64()[0]
            } else {
                let got = ctx.recv(peer, 7);
                ctx.send(peer, 8, payload);
                drop(guard);
                got.into_f64()[0]
            }
        });
        assert_eq!(out.results, vec![1.0, 0.0]);
        let regions = pilut_allocaudit::region_stats();
        assert!(
            regions.iter().all(|r| r.name == "rank"),
            "production Machine::run recorded audit regions: {regions:?}"
        );
    }
}
