//! The per-level table `ParStats::{phase1, per_level}` against everything
//! else the factorization reports: the table is only worth reading if its
//! columns add up to the totals the rest of the system is gated on — the
//! level sets, `ParStats::flops` / `mis_work`, the machine's own flop and
//! copy counters, the `U`-row traffic under `urows` (wire,
//! planned-traffic ledger and table alike), and the rank's logical clock
//! across the call.

use pilut_core::dist::exchange::tags;
use pilut_core::dist::DistMatrix;
use pilut_core::options::IlutOptions;
use pilut_core::parallel::{par_ilu0, par_ilut, LevelStats, RankFactors};
use pilut_par::{Ctx, Machine, MachineModel};
use pilut_sparse::{gen, CsrMatrix};

/// Runs `factor` on `p` ranks and checks every invariant of the table.
/// Returns the per-rank factors for method-specific checks.
fn check(
    what: &str,
    a: &CsrMatrix,
    p: usize,
    factor: impl Fn(&mut Ctx, &DistMatrix) -> RankFactors + Sync,
) -> Vec<RankFactors> {
    let dm = DistMatrix::from_matrix(a.clone(), p, 17);
    let out = Machine::run_checked(p, MachineModel::cray_t3d(), |ctx| {
        ctx.barrier(); // a clock that does not start at zero
        let t0 = ctx.time();
        let rf = factor(ctx, &dm);
        (rf, t0, ctx.time())
    });
    let q = out.results[0].0.stats.levels;
    let (mut charged, mut copied) = (0.0, 0.0);
    for (rf, t0, t1) in &out.results {
        let (what, s) = (format!("{what} p={p} rank {}", rf.rank), &rf.stats);
        let entries = || [&s.phase1].into_iter().chain(&s.per_level);
        let sum = |f: fn(&LevelStats) -> f64| entries().map(f).sum::<f64>();

        // One entry per level on every rank, and the sets are the levels.
        assert_eq!((s.levels, s.per_level.len()), (q, q), "{what}: levels");
        let sizes: Vec<usize> = s.per_level.iter().map(|l| l.set_size).collect();
        let level_sizes: Vec<usize> = rf.levels.iter().map(Vec::len).collect();
        assert_eq!(sizes, level_sizes, "{what}: set sizes");
        assert_eq!(sizes.iter().sum::<usize>(), rf.interface.len(), "{what}");
        assert_eq!(s.phase1.set_size, rf.interior.len(), "{what}");
        assert_eq!(s.phase1.rows_touched, rf.interface.len(), "{what}");

        // Candidates and the reduced matrix chain from entry to entry.
        let mut live = (rf.interface.len(), s.reduced_nnz_initial);
        assert_eq!(s.phase1.reduced_nnz_after, live.1, "{what}");
        for (l, lvl) in s.per_level.iter().enumerate() {
            let entering = (lvl.candidates, lvl.reduced_nnz_before);
            assert_eq!(entering, live, "{what}: level {l} entry");
            assert!(lvl.rows_touched <= lvl.candidates - lvl.set_size);
            assert!(lvl.luby_rounds >= usize::from(lvl.candidates > 0));
            live = (lvl.candidates - lvl.set_size, lvl.reduced_nnz_after);
        }
        assert_eq!(live, (0, 0), "{what}: nothing left after the last level");
        let peak = entries().map(|l| l.reduced_nnz_after).max();
        assert_eq!(peak, Some(s.reduced_nnz_peak), "{what}: peak");

        // The flop split and the MIS units are the totals, exactly (every
        // term is an integer-valued f64).
        assert_eq!(sum(LevelStats::flops), s.flops, "{what}: flops");
        assert_eq!(sum(|l| l.mis_units), s.mis_work, "{what}: mis units");

        // The deltas cover the call's clock interval with no gap: they
        // are differences of consecutive readings, so only f64 rounding of
        // the sum separates the two sides.
        let interval = t1 - t0;
        let covered = sum(|l| l.clock_delta);
        assert!(entries().all(|l| l.clock_delta >= 0.0), "{what}");
        assert!(
            (covered - interval).abs() <= 1e-12 * t1,
            "{what}: levels cover {covered} s of a {interval} s call"
        );

        // What the clock was charged: every flop counted, the division of
        // a multiplier the first rule then dropped included, plus the MIS
        // units. Counted = charged, exactly.
        charged += sum(|l| l.flops() + l.mis_units);
        copied += sum(|l| l.copy_words);
    }
    assert_eq!(charged, out.stats.flops, "{what} p={p}: machine flops");
    assert_eq!(copied, out.stats.words_copied, "{what} p={p}: words copied");
    // U rows are planned to the byte: the batches are priced before the
    // first ships, so ledger = wire, exactly, and the table tallied the same.
    let (messages, bytes) = out.stats.tag_totals(tags::UROWS);
    // (One rank has no interface, no level and no round to record.)
    let planned = out.stats.planned_by_tag.get(&tags::UROWS).copied();
    let planned = planned.unwrap_or((0, 0));
    assert_eq!(planned, (messages, bytes), "{what} p={p}");
    let levels = out.results.iter().flat_map(|r| &r.0.stats.per_level);
    let tallied: usize = levels.map(|l| l.urows_bytes).sum();
    assert_eq!(tallied as u64, bytes, "{what} p={p}: U-row bytes");
    assert_eq!(messages > 0, p > 1, "{what} p={p}: U-row messages");
    out.results.into_iter().map(|r| r.0).collect()
}

#[test]
fn par_ilut_levels_add_up_to_the_totals() {
    let a = gen::fem_torso(12, 1);
    for opts in [IlutOptions::new(20, 1e-6), IlutOptions::star(8, 1e-4, 2)] {
        for p in [1, 2, 4, 8] {
            let factors = check(&opts.name(), &a, p, |ctx, dm| {
                let local = dm.local_view(ctx.rank());
                par_ilut(ctx, dm, &local, &opts).expect("factorization failed")
            });
            // Rule 1 drops on this input, in both phases, so the divisions
            // it discards are on both sides of the machine-flops equality.
            let dropped = |f: fn(&RankFactors) -> usize| factors.iter().map(f).sum::<usize>();
            assert!(dropped(|rf| rf.stats.phase1.dropped_rule1) > 0);
            if p > 1 {
                let in_levels = |rf: &RankFactors| {
                    let levels = rf.stats.per_level.iter();
                    levels.map(|l| l.dropped_rule1).sum::<usize>()
                };
                assert!(dropped(in_levels) > 0, "{} p={p}", opts.name());
            }
        }
    }
}

#[test]
fn par_ilu0_fills_the_same_table() {
    let a = gen::fem_torso(12, 1);
    for p in [1, 2, 4, 8] {
        let factors = check("ILU(0)", &a, p, |ctx, dm| {
            let local = dm.local_view(ctx.rank());
            par_ilu0(ctx, dm, &local).expect("factorization failed")
        });
        // No dropping rule: nothing selected, nothing dropped.
        for rf in &factors {
            let s = &rf.stats;
            let unused = |l: &LevelStats| (l.select_flops, l.dropped_rule1);
            let mut entries = [&s.phase1].into_iter().chain(&s.per_level);
            assert!(entries.all(|l| unused(l) == (0.0, 0)), "p={p}");
        }
    }
}
