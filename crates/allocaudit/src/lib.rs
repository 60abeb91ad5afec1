//! Allocation audit layer: the memory-plane half of the proof surface.
//!
//! The comm plane is gated by commcheck and the planned-traffic ledger;
//! this crate gives the heap the same treatment. Under the `audit`
//! feature a counting `#[global_allocator]` wraps the system allocator
//! and attributes every allocation, reallocation, and deallocation to
//! the current thread. On top of the raw counters sit three scopes:
//!
//! * [`region`] — a named accounting span. Entry snapshots the thread's
//!   counters; drop folds the delta into a process-wide registry keyed
//!   by region name, which the bench harness reads out per scenario,
//!   together with the most the thread held at once inside the region
//!   beyond what it held on entry (`peak_live_bytes`).
//!   Nested regions each see their own delta; an outer region's delta
//!   includes everything its inner regions saw (the outer snapshot is
//!   older), which is the natural reading for "allocations inside the
//!   replay sweep".
//! * [`zero_alloc`] — a hard gate. Any alloc or realloc on the thread
//!   while the scope is armed records the region name plus a captured
//!   backtrace, and the guard panics at drop naming both. The panic is
//!   deferred to drop because unwinding out of `GlobalAlloc::alloc`
//!   itself is undefined behaviour — the allocator records, the guard
//!   accuses.
//! * [`harness`] — a suppression span for harness-owned allocations.
//!   The message-passing VM stands in for an MPI runtime: its channel
//!   nodes and refcount blocks model NIC/runtime-owned resources that a
//!   real steady state would not touch, so the transport wraps itself
//!   in this scope (see DESIGN §16 for the taxonomy). Audit internals
//!   use the same scope so bookkeeping never counts itself.
//!
//! Without the `audit` feature every type here is a zero-sized no-op
//! and no global allocator is installed: a production build of the
//! `pilut` facade carries no audit code and `Machine::run` pays
//! nothing. The differential test in `crates/par` pins that down.

#[cfg(feature = "audit")]
mod imp {
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::cell::{Cell, RefCell};
    use std::collections::BTreeMap;
    use std::sync::Mutex;

    /// Snapshot of one thread's allocator traffic.
    #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
    pub struct Counts {
        /// Calls to `alloc` / `alloc_zeroed`.
        pub allocs: u64,
        /// Calls to `realloc`.
        pub reallocs: u64,
        /// Calls to `dealloc`.
        pub deallocs: u64,
        /// Bytes requested by `alloc` / `alloc_zeroed`.
        pub alloc_bytes: u64,
        /// Bytes requested by `realloc` (new size).
        pub realloc_bytes: u64,
        /// Bytes this thread holds: what it acquired minus what it
        /// released, by requested size. Negative once it has freed more of
        /// other threads' memory than it holds of its own.
        pub live_bytes: i64,
        /// The highest `live_bytes` since the thread started or, inside a
        /// [`region`], since the innermost open one began.
        pub live_high_water: i64,
    }

    impl Counts {
        /// Heap acquisitions: allocs plus reallocs. This is the number the
        /// zero-steady-state gate is about — deallocations are free to
        /// happen (dropping a pooled buffer is not churn, acquiring one
        /// is).
        pub fn acquisitions(&self) -> u64 {
            self.allocs + self.reallocs
        }

        /// Bytes acquired: alloc bytes plus realloc bytes.
        pub fn acquired_bytes(&self) -> u64 {
            self.alloc_bytes + self.realloc_bytes
        }
    }

    /// One region's accumulated traffic in the process-wide registry.
    #[derive(Clone, Debug, Default)]
    pub struct RegionStats {
        /// Region name as passed to [`region`].
        pub name: &'static str,
        /// Heap acquisitions (allocs + reallocs) inside the region.
        pub allocs: u64,
        /// Bytes acquired inside the region.
        pub bytes: u64,
        /// Deallocations inside the region.
        pub deallocs: u64,
        /// Times the region was entered.
        pub entries: u64,
        /// Over all entries, the most a thread's `live_bytes` rose above
        /// its value at entry while inside the region.
        pub peak_live_bytes: u64,
    }

    struct Tls {
        counts: Cell<Counts>,
        /// Suppression depth: when positive, the allocator hooks are inert
        /// on this thread (harness-owned traffic, audit bookkeeping).
        suppress: Cell<u32>,
        /// Zero-alloc arming depth and the innermost armed region name.
        forbid: Cell<u32>,
        forbid_name: Cell<&'static str>,
        /// First violation while armed: count and formatted backtrace.
        violation: Cell<u64>,
        violation_trace: Cell<Option<Box<str>>>,
        /// Per-thread region accumulator. Region drops fold here — an
        /// uncontended thread-local update — instead of taking the
        /// process-wide registry lock; replay paths enter regions every
        /// level-sweep on every rank thread, and a shared lock at that
        /// frequency was measurable contention inside the timed loops the
        /// regions exist to audit. Flushed to [`REGIONS`] when the
        /// thread's outermost region drops — the machine wraps every rank
        /// body in one, so a rank publishes once, before its result does —
        /// and by [`region_stats`] for the calling thread. Not at thread
        /// exit: a scope's join does not wait for thread-local
        /// destructors, so a flush from there could land after the
        /// harness's [`reset_regions`] and be read as the next scenario's.
        regions: RefCell<BTreeMap<&'static str, RegionStats>>,
        /// Open regions on this thread.
        depth: Cell<u32>,
    }

    /// Folds a thread's local region accumulator into the process-wide
    /// registry and empties it.
    fn flush_regions(local: &mut BTreeMap<&'static str, RegionStats>) {
        if local.is_empty() {
            return;
        }
        // lint: allow(unwrap): audit registry lock is never poisoned (no panics under it)
        let mut reg = REGIONS.lock().unwrap();
        for (name, s) in std::mem::take(local) {
            let slot = reg.entry(name).or_default();
            slot.name = name;
            slot.allocs += s.allocs;
            slot.bytes += s.bytes;
            slot.deallocs += s.deallocs;
            slot.entries += s.entries;
            slot.peak_live_bytes = slot.peak_live_bytes.max(s.peak_live_bytes);
        }
    }

    thread_local! {
        static TLS: Tls = const {
            Tls {
                counts: Cell::new(Counts {
                    allocs: 0,
                    reallocs: 0,
                    deallocs: 0,
                    alloc_bytes: 0,
                    realloc_bytes: 0,
                    live_bytes: 0,
                    live_high_water: 0,
                }),
                suppress: Cell::new(0),
                forbid: Cell::new(0),
                forbid_name: Cell::new(""),
                violation: Cell::new(0),
                violation_trace: Cell::new(None),
                regions: RefCell::new(BTreeMap::new()),
                depth: Cell::new(0),
            }
        };
    }

    /// Process-wide region registry. Guarded writes happen at region drop
    /// under suppression, so the registry's own nodes are never counted.
    static REGIONS: Mutex<BTreeMap<&'static str, RegionStats>> = Mutex::new(BTreeMap::new());

    enum Kind {
        Alloc,
        /// Carries the size of the block being resized.
        Realloc(usize),
        Dealloc,
    }

    /// The counting wrapper around the system allocator.
    pub struct CountingAlloc;

    #[global_allocator]
    static AUDIT_ALLOC: CountingAlloc = CountingAlloc;

    fn note(kind: &Kind, size: usize) {
        // `try_with` because allocation can happen while thread-locals are
        // being torn down; those late frees are simply not attributed.
        let _ = TLS.try_with(|t| {
            if t.suppress.get() > 0 {
                return;
            }
            let mut c = t.counts.get();
            match kind {
                Kind::Alloc => {
                    c.allocs += 1;
                    c.alloc_bytes += size as u64;
                    c.live_bytes += size as i64;
                }
                Kind::Realloc(old) => {
                    c.reallocs += 1;
                    c.realloc_bytes += size as u64;
                    c.live_bytes += size as i64 - *old as i64;
                }
                Kind::Dealloc => {
                    c.deallocs += 1;
                    c.live_bytes -= size as i64;
                }
            }
            c.live_high_water = c.live_high_water.max(c.live_bytes);
            t.counts.set(c);
            if t.forbid.get() > 0 && !matches!(kind, Kind::Dealloc) {
                t.violation.set(t.violation.get() + 1);
                match t.violation_trace.take() {
                    Some(first) => t.violation_trace.set(Some(first)),
                    None => {
                        // Capture the accusing backtrace under suppression —
                        // formatting it allocates, and unwinding from here
                        // would be UB, so the guard panics later at drop.
                        t.suppress.set(t.suppress.get() + 1);
                        let bt = std::backtrace::Backtrace::force_capture();
                        t.violation_trace
                            .set(Some(format!("{bt}").into_boxed_str()));
                        t.suppress.set(t.suppress.get() - 1);
                    }
                }
            }
        });
    }

    // SAFETY: every path defers to the system allocator unchanged; the
    // bookkeeping never unwinds (violations are recorded, not thrown).
    unsafe impl GlobalAlloc for CountingAlloc {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            note(&Kind::Alloc, layout.size());
            System.alloc(layout)
        }

        unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
            note(&Kind::Alloc, layout.size());
            System.alloc_zeroed(layout)
        }

        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            note(&Kind::Realloc(layout.size()), new_size);
            System.realloc(ptr, layout, new_size)
        }

        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            note(&Kind::Dealloc, layout.size());
            System.dealloc(ptr, layout)
        }
    }

    /// Whether the audit layer is compiled in (the `audit` feature).
    pub fn audit_enabled() -> bool {
        true
    }

    /// This thread's allocator counters since thread start (suppressed
    /// spans excluded).
    pub fn thread_counts() -> Counts {
        TLS.with(|t| t.counts.get())
    }

    /// Named accounting span; see the crate docs. Drop folds the counter
    /// delta into the thread's local accumulator (published to the
    /// process-wide registry when the thread's outermost region drops, or
    /// at its first read).
    #[must_use = "a region accounts between construction and drop"]
    pub fn region(name: &'static str) -> Region {
        let entry = TLS.with(|t| {
            t.depth.set(t.depth.get() + 1);
            let entry = t.counts.get();
            // The region's own high-water starts where the thread stands;
            // the enclosing one is restored, raised if need be, at drop.
            t.counts.set(Counts {
                live_high_water: entry.live_bytes,
                ..entry
            });
            entry
        });
        Region { name, entry }
    }

    /// Guard returned by [`region`].
    pub struct Region {
        name: &'static str,
        entry: Counts,
    }

    impl Region {
        /// The most this thread's `live_bytes` has risen above its value at
        /// entry since the region opened.
        pub fn peak_live_bytes(&self) -> u64 {
            (thread_counts().live_high_water - self.entry.live_bytes) as u64
        }
    }

    impl Drop for Region {
        fn drop(&mut self) {
            let peak = self.peak_live_bytes();
            let now = thread_counts();
            let _s = harness(); // registry bookkeeping must not count itself
            TLS.with(|t| {
                t.counts.set(Counts {
                    live_high_water: now.live_high_water.max(self.entry.live_high_water),
                    ..now
                });
                let mut local = t.regions.borrow_mut();
                let slot = local.entry(self.name).or_default();
                slot.name = self.name;
                slot.allocs += now.acquisitions() - self.entry.acquisitions();
                slot.bytes += now.acquired_bytes() - self.entry.acquired_bytes();
                slot.deallocs += now.deallocs - self.entry.deallocs;
                slot.entries += 1;
                slot.peak_live_bytes = slot.peak_live_bytes.max(peak);
                t.depth.set(t.depth.get() - 1);
                if t.depth.get() == 0 {
                    flush_regions(&mut local);
                }
            });
        }
    }

    /// Hard zero-allocation gate; see the crate docs. Any alloc/realloc on
    /// this thread while the guard lives records a backtrace, and the
    /// guard panics at drop naming the region and the callsite.
    #[must_use = "a zero-alloc scope gates between construction and drop"]
    pub fn zero_alloc(name: &'static str) -> ZeroAllocScope {
        TLS.with(|t| {
            t.forbid.set(t.forbid.get() + 1);
            t.forbid_name.set(name);
        });
        ZeroAllocScope { name }
    }

    /// Guard returned by [`zero_alloc`].
    pub struct ZeroAllocScope {
        name: &'static str,
    }

    impl Drop for ZeroAllocScope {
        fn drop(&mut self) {
            let (hits, trace) = TLS.with(|t| {
                t.forbid.set(t.forbid.get() - 1);
                if t.forbid.get() == 0 {
                    (t.violation.replace(0), t.violation_trace.take())
                } else {
                    (0, None)
                }
            });
            // lint: allow(thread): panic-in-drop reentrancy guard, no threads spawned
            if hits > 0 && !std::thread::panicking() {
                panic!(
                    "alloc_audit: {hits} allocation(s) inside zero-alloc region `{}`; first callsite:\n{}",
                    self.name,
                    trace.as_deref().unwrap_or("<backtrace unavailable>")
                );
            }
        }
    }

    /// Suppression span for harness-owned allocations; see the crate docs.
    #[must_use = "suppression lasts between construction and drop"]
    pub fn harness() -> Suppress {
        TLS.with(|t| t.suppress.set(t.suppress.get() + 1));
        Suppress { _priv: () }
    }

    /// Guard returned by [`harness`].
    pub struct Suppress {
        _priv: (),
    }

    impl Drop for Suppress {
        fn drop(&mut self) {
            TLS.with(|t| t.suppress.set(t.suppress.get() - 1));
        }
    }

    /// Every region accumulated since the last [`reset_regions`], sorted
    /// by name (BTreeMap order): the bench harness's per-scenario readout.
    /// Flushes the calling thread's local accumulator first; another
    /// thread's regions are visible once its outermost region has dropped
    /// (a machine rank's does before the rank hands back its result).
    pub fn region_stats() -> Vec<RegionStats> {
        let _s = harness();
        TLS.with(|t| flush_regions(&mut t.regions.borrow_mut()));
        // lint: allow(unwrap): audit registry lock is never poisoned (no panics under it)
        REGIONS.lock().unwrap().values().cloned().collect()
    }

    /// Clears the region registry and the calling thread's accumulator
    /// (between bench scenarios, when no rank threads are live).
    pub fn reset_regions() {
        let _s = harness();
        TLS.with(|t| t.regions.borrow_mut().clear());
        // lint: allow(unwrap): audit registry lock is never poisoned (no panics under it)
        REGIONS.lock().unwrap().clear();
    }
}

#[cfg(feature = "audit")]
pub use imp::{
    audit_enabled, harness, region, region_stats, reset_regions, thread_counts, zero_alloc, Counts,
    Region, RegionStats, Suppress, ZeroAllocScope,
};

#[cfg(not(feature = "audit"))]
mod noop {
    /// Snapshot of one thread's allocator traffic (inert without `audit`).
    #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
    pub struct Counts {
        /// Calls to `alloc` / `alloc_zeroed`.
        pub allocs: u64,
        /// Calls to `realloc`.
        pub reallocs: u64,
        /// Calls to `dealloc`.
        pub deallocs: u64,
        /// Bytes requested by `alloc` / `alloc_zeroed`.
        pub alloc_bytes: u64,
        /// Bytes requested by `realloc` (new size).
        pub realloc_bytes: u64,
        /// Bytes this thread holds.
        pub live_bytes: i64,
        /// The highest `live_bytes` seen.
        pub live_high_water: i64,
    }

    impl Counts {
        /// Heap acquisitions: allocs plus reallocs.
        pub fn acquisitions(&self) -> u64 {
            0
        }

        /// Bytes acquired: alloc bytes plus realloc bytes.
        pub fn acquired_bytes(&self) -> u64 {
            0
        }
    }

    /// One region's accumulated traffic (inert without `audit`).
    #[derive(Clone, Debug, Default)]
    pub struct RegionStats {
        /// Region name as passed to [`region`].
        pub name: &'static str,
        /// Heap acquisitions inside the region.
        pub allocs: u64,
        /// Bytes acquired inside the region.
        pub bytes: u64,
        /// Deallocations inside the region.
        pub deallocs: u64,
        /// Times the region was entered.
        pub entries: u64,
        /// Most bytes held at once inside the region beyond those at entry.
        pub peak_live_bytes: u64,
    }

    /// Whether the audit layer is compiled in (here: it is not).
    pub fn audit_enabled() -> bool {
        false
    }

    /// This thread's allocator counters (always zero without `audit`).
    pub fn thread_counts() -> Counts {
        Counts::default()
    }

    /// Named accounting span (no-op without `audit`).
    #[must_use = "a region accounts between construction and drop"]
    pub fn region(_name: &'static str) -> Region {
        Region { _priv: () }
    }

    /// Guard returned by [`region`] (zero-sized no-op).
    pub struct Region {
        _priv: (),
    }

    impl Region {
        /// Peak live bytes inside the region (always zero without `audit`).
        pub fn peak_live_bytes(&self) -> u64 {
            0
        }
    }

    /// Hard zero-allocation gate (no-op without `audit`).
    #[must_use = "a zero-alloc scope gates between construction and drop"]
    pub fn zero_alloc(_name: &'static str) -> ZeroAllocScope {
        ZeroAllocScope { _priv: () }
    }

    /// Guard returned by [`zero_alloc`] (zero-sized no-op).
    pub struct ZeroAllocScope {
        _priv: (),
    }

    /// Suppression span (no-op without `audit`).
    #[must_use = "suppression lasts between construction and drop"]
    pub fn harness() -> Suppress {
        Suppress { _priv: () }
    }

    /// Guard returned by [`harness`] (zero-sized no-op).
    pub struct Suppress {
        _priv: (),
    }

    /// Region registry readout (always empty without `audit`).
    pub fn region_stats() -> Vec<RegionStats> {
        Vec::new()
    }

    /// Clears the region registry (no-op without `audit`).
    pub fn reset_regions() {}
}

#[cfg(not(feature = "audit"))]
pub use noop::{
    audit_enabled, harness, region, region_stats, reset_regions, thread_counts, zero_alloc, Counts,
    Region, RegionStats, Suppress, ZeroAllocScope,
};

#[cfg(all(test, feature = "audit"))]
mod tests {
    use super::*;

    // The counters are thread-local and the registry is global, so tests
    // that read the registry filter by their own region names; names are
    // unique per test to stay independent of sibling tests and threads.
    // `reset_regions` clears every name, so a test that calls it or reads
    // the registry holds this lock for as long as its regions matter.
    static REGISTRY: std::sync::Mutex<()> = std::sync::Mutex::new(());

    fn registry() -> std::sync::MutexGuard<'static, ()> {
        // A sibling that failed under the lock has already been reported.
        REGISTRY.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn counts_advance_and_suppression_hides() {
        let before = thread_counts();
        let v = vec![1u8; 4096];
        drop(v);
        let mid = thread_counts();
        assert!(mid.allocs > before.allocs, "allocation not counted");
        assert!(mid.alloc_bytes >= before.alloc_bytes + 4096);
        assert!(mid.deallocs > before.deallocs, "deallocation not counted");
        let s = harness();
        let v = vec![1u8; 4096];
        drop(v);
        drop(s);
        let after = thread_counts();
        assert_eq!(
            after.allocs, mid.allocs,
            "suppressed allocation was counted"
        );
    }

    #[test]
    fn nested_regions_attribute_to_both() {
        let _registry = registry();
        reset_regions();
        {
            let _outer = region("test_nested_outer");
            let _x = vec![0u8; 100];
            {
                let _inner = region("test_nested_inner");
                let _y = vec![0u8; 200];
            }
        }
        let stats = region_stats();
        let get = |n: &str| {
            stats
                .iter()
                .find(|r| r.name == n)
                .cloned()
                .unwrap_or_default()
        };
        let outer = get("test_nested_outer");
        let inner = get("test_nested_inner");
        assert_eq!(inner.allocs, 1, "inner sees exactly its own vec");
        assert!(inner.bytes >= 200);
        assert!(
            outer.allocs >= 2,
            "outer includes the inner region's traffic"
        );
        assert!(outer.bytes >= 300);
        assert_eq!(outer.entries, 1);
    }

    #[test]
    fn live_bytes_follow_alloc_realloc_and_free() {
        let at = |c: Counts| (c.live_bytes, c.live_high_water);
        let (live0, _) = at(thread_counts());
        let mut v: Vec<u8> = Vec::with_capacity(1000);
        assert_eq!(thread_counts().live_bytes, live0 + 1000);
        v.reserve_exact(4000); // realloc: the old block's size comes off
        assert_eq!(thread_counts().live_bytes, live0 + 4000);
        drop(v);
        let (live, high) = at(thread_counts());
        assert_eq!(live, live0);
        assert!(high >= live0 + 4000, "high-water must keep the peak");
    }

    #[test]
    fn region_peak_is_its_own_high_water_above_entry() {
        let _registry = registry();
        reset_regions();
        let _held = vec![0u8; 10_000]; // live before entry: not the region's
        {
            let _outer = region("test_peak_outer");
            let a = vec![0u8; 3000];
            {
                let _inner = region("test_peak_inner");
                drop(vec![0u8; 500]);
            }
            drop(a);
            drop(vec![0u8; 2000]); // below the earlier 3500: no new peak
        }
        {
            let _again = region("test_peak_inner"); // max over entries
            drop(vec![0u8; 800]);
        }
        let stats = region_stats();
        let peak = |n: &str| {
            stats
                .iter()
                .find(|r| r.name == n)
                .map(|r| r.peak_live_bytes)
        };
        assert_eq!(peak("test_peak_inner"), Some(800));
        assert_eq!(peak("test_peak_outer"), Some(3500));
    }

    #[test]
    fn a_thread_publishes_when_its_outermost_region_drops() {
        let _registry = registry();
        // Two scenarios back to back, as the bench harness runs them: the
        // first's worker has dropped its regions but not yet exited when
        // the harness reads and resets. Its counts must be there for that
        // read, and nothing of it may arrive afterwards.
        use std::sync::mpsc::channel;
        let stats_of = |name: &str| region_stats().into_iter().find(|r| r.name == name);
        let (done, seen) = (channel::<()>(), channel::<()>());
        let (done_tx, seen_rx) = (done.0, seen.1);
        std::thread::scope(|s| {
            s.spawn(move || {
                {
                    let _outer = region("test_publish_outer");
                    let _inner = region("test_publish_inner");
                    drop(vec![0u8; 64]);
                }
                done_tx.send(()).expect("harness is waiting");
                seen_rx.recv().expect("harness releases the worker");
            });
            done.1.recv().expect("worker reports its regions closed");
            let first = stats_of("test_publish_inner").expect("published before thread exit");
            assert_eq!((first.allocs, first.entries), (1, 1));
            assert!(stats_of("test_publish_outer").is_some());
            reset_regions();
            seen.0.send(()).expect("worker is waiting");
        });
        {
            let _second = region("test_publish_second");
            drop(vec![0u8; 32]);
        }
        assert!(
            stats_of("test_publish_inner").is_none(),
            "moved a scenario down"
        );
        assert_eq!(stats_of("test_publish_second").map(|r| r.allocs), Some(1));
    }

    #[test]
    fn realloc_is_attributed_to_the_region() {
        let _registry = registry();
        reset_regions();
        let mut v: Vec<u64> = Vec::with_capacity(4);
        {
            let _r = region("test_realloc");
            for i in 0..64 {
                v.push(i); // grows past the initial capacity → realloc
            }
        }
        let stats = region_stats();
        let r = stats
            .iter()
            .find(|r| r.name == "test_realloc")
            .cloned()
            .unwrap_or_default();
        assert!(r.allocs >= 1, "growth inside the region not attributed");
        let c = thread_counts();
        assert!(c.reallocs >= 1, "vec growth did not register as realloc");
    }

    #[test]
    fn zero_alloc_scope_panics_with_region_and_backtrace() {
        let err = std::panic::catch_unwind(|| {
            let _guard = zero_alloc("test_forbidden_region");
            let _v = vec![0u8; 32];
        })
        // lint: allow(unwrap): the scope must panic; a clean return is the test failing
        .unwrap_err();
        let msg = err
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_else(|| "<non-string panic>".into());
        assert!(
            msg.contains("zero-alloc region `test_forbidden_region`"),
            "panic must name the region: {msg}"
        );
        assert!(
            msg.contains("1 allocation(s)"),
            "panic must count the hits: {msg}"
        );
        assert!(
            msg.contains("first callsite:"),
            "panic must carry the backtrace header: {msg}"
        );
    }

    #[test]
    fn zero_alloc_scope_is_silent_when_clean() {
        let buf = [0u64; 16];
        let guard = zero_alloc("test_clean_region");
        let s: u64 = buf.iter().sum();
        drop(guard);
        assert_eq!(s, 0);
    }

    #[test]
    fn suppressed_allocs_do_not_trip_the_gate() {
        let guard = zero_alloc("test_suppressed_region");
        let s = harness();
        let _v = vec![0u8; 32];
        drop(s);
        drop(guard); // must not panic
    }
}
