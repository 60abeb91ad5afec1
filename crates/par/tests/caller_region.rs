//! Rank 0 runs on the caller's thread, inside whatever allocaudit regions
//! the caller holds open; its regions must reach the registry as they would
//! from a thread of its own. A file of its own: the registry is
//! process-wide, and the test resets it.

use pilut_allocaudit::{audit_enabled, region, region_stats, reset_regions, RegionStats};
use pilut_par::{Machine, MachineModel};

/// Three ranks, each allocating a rank-dependent block inside a region of
/// its own, then the registry as the caller reads it.
fn run_and_read() -> Vec<RegionStats> {
    Machine::run(3, MachineModel::cray_t3d(), |ctx| {
        let _body = region("body");
        drop(std::hint::black_box(vec![0u8; 1000 * (ctx.rank() + 1)]));
    });
    region_stats()
}

#[test]
fn rank_0_regions_reach_the_registry_under_a_region_the_caller_holds_open() {
    reset_regions();
    let alone = run_and_read();
    reset_regions();
    let held = {
        let _caller = region("caller");
        run_and_read()
    };
    if !audit_enabled() {
        // Without the `audit` feature (a workspace build turns it on) every
        // region is a no-op.
        assert!(alone.is_empty() && held.is_empty());
        return;
    }
    let of = |stats: &[RegionStats], name| {
        let r = stats.iter().find(|r| r.name == name)?;
        Some((r.allocs, r.bytes, r.deallocs, r.entries, r.peak_live_bytes))
    };
    for name in ["rank", "body"] {
        assert_eq!(of(&held, name), of(&alone, name), "region {name}");
    }
    assert_eq!(
        of(&alone, "rank").map(|r| r.3),
        Some(3),
        "one entry per rank"
    );
    assert_eq!(
        of(&alone, "body").map(|r| r.4),
        Some(3000),
        "rank 2's block"
    );
    assert_eq!(
        of(&held, "caller"),
        None,
        "the caller's region is still open"
    );
}
