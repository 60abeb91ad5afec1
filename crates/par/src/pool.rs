//! Registered communication buffers: a cross-rank pool of reusable
//! message payloads.
//!
//! MPI codes register their halo buffers once and reuse them for every
//! exchange; nothing on the steady path touches the heap. The VM's
//! equivalent is this pool: a process-wide shelf of power-of-two size
//! classes holding `Vec<f64>` payload buffers (index buffers are not
//! pooled: no steady-state region ships one). A plan warms
//! the classes it needs at build time ([`warm_f64`]); replay then
//! [`take`](take_f64)s an empty buffer, fills and ships it, and the
//! *receiver* — a different rank thread — [`give`](give_f64)s it back
//! after unwrapping, closing the producer/consumer cycle without a
//! single steady-state allocation. The zero-alloc bench gate is what
//! keeps everyone honest: a pool sized too small shows up as a counted
//! allocation inside a steady region, not as silent churn.
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
/// the partition interface, link count with the neighbor degree).
const PER_CLASS: usize = 1024;

struct Pool {
    /// `classes[c]` holds empty buffers with `capacity ≥ 2^c`. The spine
    /// and each class vector are pre-reserved at warm time so steady-state
    /// `give`/`take` never grow them.
    classes: Mutex<Vec<Vec<Vec<f64>>>>,
}

impl Pool {
    const fn new() -> Self {
        Pool {
            classes: Mutex::new(Vec::new()),
        }
    }

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
    /// skew, which the zero-alloc bench gate caught as steady-state
    /// `take` misses.
    fn warm(&self, len: usize, count: usize) {
        let c = Self::class_for_len(len);
        if c > MAX_CLASS {
            return;
        }
        // lint: allow(unwrap): pool lock is never poisoned (no panics under it)
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

    fn take(&self, len: usize) -> Vec<f64> {
        let c = Self::class_for_len(len);
        if c <= MAX_CLASS {
            // lint: allow(unwrap): pool lock is never poisoned (no panics under it)
            let mut classes = self.classes.lock().unwrap();
            if let Some(buf) = classes.get_mut(c).and_then(Vec::pop) {
                return buf;
            }
        }
        Vec::with_capacity(len.max(1).next_power_of_two())
    }

    fn give(&self, mut buf: Vec<f64>) {
        if buf.capacity() == 0 {
            return;
        }
        let c = Self::class_for_cap(buf.capacity());
        if c > MAX_CLASS {
            return; // oversized: drop
        }
        buf.clear();
        // lint: allow(unwrap): pool lock is never poisoned (no panics under it)
        let mut classes = self.classes.lock().unwrap();
        if let Some(shelf) = classes.get_mut(c) {
            if shelf.len() < shelf.capacity() {
                shelf.push(buf);
            }
            // Full shelf (or unwarmed class below): drop the buffer. A
            // drop is a dealloc, which the zero-alloc gate permits.
        }
    }

    fn available(&self, len: usize) -> usize {
        let c = Self::class_for_len(len);
        // lint: allow(unwrap): pool lock is never poisoned (no panics under it)
        let classes = self.classes.lock().unwrap();
        classes.get(c).map_or(0, Vec::len)
    }
}

static F64_POOL: Pool = Pool::new();

/// Adds `count` empty `f64` buffers able to hold `len` values (additive
/// per call, capped at the per-class shelf size — see [`Pool::warm`]).
/// Called at plan-build time, once per send link; replay then runs
/// allocation-free.
pub fn warm_f64(len: usize, count: usize) {
    F64_POOL.warm(len, count);
}

/// Takes an empty `f64` buffer with capacity ≥ `len` from the pool
/// (allocating a fresh one on a miss — setup-only by contract).
pub fn take_f64(len: usize) -> Vec<f64> {
    F64_POOL.take(len)
}

/// Returns a consumed `f64` buffer to the pool for the next replay round.
pub fn give_f64(buf: Vec<f64>) {
    F64_POOL.give(buf);
}

/// Tops the scalar class (single-element `f64` buffers) up to its shelf
/// cap. Called once per machine launch: scalar collectives draw from this
/// class on every GMRES inner iteration, and under reliable delivery each
/// link's retention window holds up to [`crate::ACK_EVERY`] of them
/// hostage — far more than any plan-driven warm would request. Warming is
/// additive and capped, so repeated launches are idempotent.
pub fn warm_scalars() {
    F64_POOL.warm(1, PER_CLASS);
}

/// Buffers currently shelved in the class serving `len` (test/diagnostic
/// hook).
pub fn pooled_f64(len: usize) -> usize {
    F64_POOL.available(len)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::{Machine, MachineModel};
    use crate::payload::Payload;

    #[test]
    fn take_give_roundtrip_reuses_the_buffer() {
        warm_f64(100, 1);
        let mut a = take_f64(100);
        let ptr = a.as_ptr();
        a.extend((0..100).map(|i| i as f64));
        give_f64(a);
        let b = take_f64(80); // same class (2^7): must get the same buffer
        assert_eq!(b.as_ptr(), ptr, "pool did not recycle the buffer");
        assert!(b.is_empty(), "recycled buffer not cleared");
        give_f64(b);
    }

    #[test]
    fn warmed_classes_serve_steadily_without_allocating() {
        warm_f64(1000, 2);
        let guard = pilut_allocaudit::zero_alloc("pool_steady");
        for _ in 0..4 {
            let mut f = take_f64(1000);
            f.extend(std::iter::repeat(1.5).take(1000));
            give_f64(f);
        }
        drop(guard);
    }

    #[test]
    fn oversized_and_unwarmed_requests_still_work() {
        let big = take_f64((1 << MAX_CLASS) + 1);
        assert!(big.capacity() > 1 << MAX_CLASS);
        give_f64(big); // dropped, not shelved
        let odd = take_f64(3);
        assert!(odd.capacity() >= 3);
        give_f64(odd);
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
