//! Parallel ILU(0) — the static-pattern contrast case of paper §3.
//!
//! Because ILU(0) admits no fill, the sparsity structure of every interface
//! reduced matrix is known *before* any numeric work: it is simply the
//! original interface–interface coupling pattern. The elimination schedule
//! can therefore be computed up front — the paper's Figure 1(a) colouring —
//! and the reduced matrices never need to be formed explicitly. Here the
//! schedule is obtained by repeatedly peeling a distributed independent set
//! off the *static* pattern (Jones–Plassmann-style, reusing the same
//! modified-Luby machinery as the ILUT path), after which the numeric
//! factorization replays the schedule level by level with pattern-restricted
//! updates.
//!
//! The output is a [`RankFactors`] like the ILUT path's, so the parallel
//! triangular solves and the distributed GMRES preconditioner wrapper work
//! unchanged.

use crate::breakdown::{PivotDoctor, PivotFault};
use crate::dist::exchange::{tags, AllPeers};
use crate::dist::{DistMatrix, LocalView};
use crate::options::{BreakdownPolicy, FactorError};
use crate::parallel::dist_mis::{link_plan, note_err, LevelMis};
use crate::parallel::store::{FactorBuilder, InitialPattern, RemoteURows};
use crate::parallel::{
    collective_fault_verdict, lap, phase1_entry, seal_levels, split_diag, LevelStats, ParStats,
    RankFactors, ReducedRows,
};
use pilut_par::Ctx;
use pilut_sparse::{Entry, WorkRow};

/// Runs the parallel zero-fill factorization. Collective. Aborts on the
/// first unusable pivot ([`BreakdownPolicy::Abort`]).
pub fn par_ilu0(
    ctx: &mut Ctx,
    dm: &DistMatrix,
    local: &LocalView,
) -> Result<RankFactors, FactorError> {
    let mut doctor = PivotDoctor::new(BreakdownPolicy::Abort);
    let a = dm.matrix();
    // Zero fill: neither triangle outgrows the rank's rows of `A`.
    let mut fb = FactorBuilder::new(local, local.nnz(a));
    let mut stats = ParStats::default();
    // The level table of `par_ilut`, filled the same way: `meter` collects
    // the flops and pivots of the entry being measured from `mark`. ILU(0)
    // has no dropping rule, so the selection and rule-1 columns stay zero.
    let mut meter = LevelStats::default();
    let mut mark = ctx.time();
    // The working row spans the rank's column space, as in `par_ilut`.
    let mut w = WorkRow::new(local.n_slots());
    // Scratch reused across rows; stored rows are exact-size copies.
    let mut entries: Vec<Entry> = Vec::new();
    let mut lower: Vec<Entry> = Vec::new();
    let mut upper: Vec<Entry> = Vec::new();
    let mut my_err: Option<(usize, PivotFault)> = None;
    // The first malformed `U`-row batch I received, for the final check.
    let mut protocol: Option<FactorError> = None;

    // ---- Phase 1: my rows in local-view order, pattern-restricted. An
    // interior row eliminates the interiors preceding it; an interface row
    // eliminates all my interiors, and its surviving interface-column
    // values are the rank's slice of A_I, whose pattern equals the original.
    let n_int = local.interior.len();
    let mut reduced: ReducedRows = Vec::with_capacity(local.interface.len());
    for (p, &i) in local.nodes.iter().enumerate() {
        let is_interior = p < n_int;
        let (cols, vals) = a.row(i);
        for (&j, &v) in cols.iter().zip(vals) {
            w.set(local.slot(j as usize), v);
        }
        // Pivots come from the original pattern only: no fill can extend
        // the pivot set, and updates land only on occupied positions.
        lower.clear();
        for k in cols
            .iter()
            .map(|&k| k as usize)
            .filter(|&k| local.is_interior(k) && (!is_interior || k < i))
        {
            let wk = w.get(local.slot(k));
            w.drop_pos(local.slot(k));
            let (udiag, urow) = fb.interior_pivot(k);
            let mult = wk / udiag;
            lower.push(Entry::new(k, mult));
            let cost = 2.0 * urow.len() as f64 + 1.0;
            for (j, uv) in urow {
                if w.contains(local.slot(j)) {
                    w.add(local.slot(j), -mult * uv);
                }
            }
            meter.pivots_applied += 1;
            meter.elim_flops += cost;
            ctx.work(cost);
        }
        w.drain_sorted_by_into(&mut entries, |s| local.col(s));
        if !is_interior {
            fb.staged[p - n_int].l = lower.to_vec();
            stats.reduced_nnz_initial += entries.len();
            reduced.push(Some(entries.to_vec()));
            continue;
        }
        let (mut diag, has_diag) = split_diag(&entries, i, &mut upper);
        doctor.repair_or_defer(
            i,
            a.row_norm2(i),
            has_diag,
            &mut diag,
            &mut lower,
            &mut upper,
            &mut my_err,
            1.0,
        );
        fb.push_interior(&lower, diag, &upper);
    }
    stats.reduced_nnz_peak = stats.reduced_nnz_initial;
    let initial = InitialPattern::of(&reduced);
    let phase1 = phase1_entry(local, stats.reduced_nnz_initial, lap(ctx, &mut mark), meter);

    // ---- Symbolic schedule: peel independent sets off the static pattern.
    // (This is the "colouring" of Figure 1a: it depends only on structure.)
    // `remaining[q]`: my interface row `q` is not scheduled yet (`left` of
    // them); `scheduled_remote[s]`: the remote node at column-space slot `s`
    // is, as far as the levels' outcomes have told me.
    let mut remaining = vec![true; local.interface.len()];
    let mut left = remaining.len();
    let mut scheduled_remote = vec![false; local.n_slots()];
    let mut schedule: Vec<Vec<usize>> = Vec::new();
    let mut per_level: Vec<LevelStats> = Vec::new();
    let mut mis = LevelMis::default();
    let mut level_idx = 0u64;
    loop {
        if ctx.all_reduce_sum_u64(left as u64) == 0 {
            break;
        }
        // Pattern restricted to the still-unscheduled nodes (local ones we
        // know directly; remote ones from the previous levels' outcomes).
        // A reduced row's columns are interface nodes, mine or remote.
        let keep = |v: usize, c: usize| {
            c == v
                || match local.pos_of(c) {
                    Some(p) => remaining[p - n_int],
                    None => !scheduled_remote[local.slot(c)],
                }
        };
        let unscheduled = || {
            let rows = local.interface.iter().zip(&reduced).zip(&remaining);
            rows.filter_map(|(row, &unscheduled)| unscheduled.then_some(row))
        };
        // An upper bound on the kept entries: exact room, no regrowth.
        mis.begin(
            unscheduled()
                .map(|(_, row)| row.iter().flatten().count())
                .sum(),
        );
        for (&v, row) in unscheduled() {
            let cols = row.iter().flatten().map(|e| e.col());
            mis.push_row(v, cols.filter(|&c| keep(v, c)));
        }
        let plan = mis.link(ctx, dm.dist());
        mis.run(ctx, &plan, 0xC0105, level_idx, 5)?;
        let my_in: Vec<usize> = mis.my_in().collect();
        for &v in &my_in {
            remaining[fb.interface_index(v)] = false;
        }
        left -= my_in.len();
        for c in mis.remote_in() {
            scheduled_remote[local.slot(c)] = true;
        }
        per_level.push(LevelStats {
            candidates: left + my_in.len(),
            set_size: my_in.len(),
            luby_rounds: mis.live_rounds(),
            mis_units: mis.work(),
            clock_delta: lap(ctx, &mut mark),
            ..LevelStats::default()
        });
        schedule.push(my_in);
        level_idx += 1;
    }
    // What the clock did since `mark` — the all-reduce that found nothing
    // left to schedule — lands in the first numeric level below.

    // ---- Numeric interface factorization, level by level.
    let mut remote_u = RemoteURows::new(local);
    let mut pivots: Vec<usize> = Vec::new();
    let mut live_nnz = stats.reduced_nnz_initial;
    for (level, lvl) in schedule.iter().zip(&mut per_level) {
        lvl.reduced_nnz_before = live_nnz;
        // Finish the rows of this level: their remaining couplings to
        // *unfactored* nodes form U; couplings to already-factored interface
        // nodes were eliminated in earlier sweeps below.
        for &v in level {
            let q = fb.interface_index(v);
            // lint: allow(unwrap): scheduling inserts every reduced row before it is scheduled
            let rr = reduced[q].take().expect("scheduled row missing");
            live_nnz -= rr.len();
            let (mut diag, has_diag) = split_diag(&rr, v, &mut upper);
            let row = &mut fb.staged[q];
            doctor.repair_or_defer(
                v,
                a.row_norm2(v),
                has_diag,
                &mut diag,
                &mut row.l,
                &mut upper,
                &mut my_err,
                1.0,
            );
            row.diag = diag;
            row.u = upper.to_vec();
        }

        // Ship the new U rows along the current level's plan, then eliminate
        // this level's unknowns from the remaining rows (pattern-restricted).
        let live = reduced.iter().flatten();
        let plan = link_plan(ctx, dm.dist(), live.flatten().map(|e| e.col()));
        let in_mine = |v: usize| level.binary_search(&v).is_ok();
        remote_u.clear();
        plan.exact_round(
            ctx,
            tags::U0,
            &AllPeers,
            &AllPeers,
            |_, nodes| fb.encode_urows(nodes, in_mine, lvl),
            |peer, nodes, payload| {
                if let Err(what) = remote_u.decode(nodes, &payload) {
                    note_err(&mut protocol, "u0", peer, what);
                }
            },
        );
        // Remote members of this level are detectable from the shipped
        // rows. Ascending interface position keeps the clock reproducible.
        for (q, &i) in local.interface.iter().enumerate() {
            let Some(rr) = reduced[q].as_ref() else {
                continue;
            };
            pivots.clear();
            let cols = rr.iter().map(|e| e.col());
            pivots.extend(cols.filter(|&c| c != i && (in_mine(c) || remote_u.get(c).is_some())));
            if pivots.is_empty() {
                continue;
            }
            lvl.rows_touched += 1;
            for e in rr {
                w.set(local.slot(e.col()), e.val());
            }
            lower.clear();
            lower.extend_from_slice(&fb.staged[q].l);
            for &k in &pivots {
                // Every pivot was chosen for having a row here.
                let Some((udiag, urow)) = fb.level_pivot(k, &remote_u) else {
                    continue;
                };
                let wk = w.get(local.slot(k));
                w.drop_pos(local.slot(k));
                // As in phase 1, a multiplier that cancelled to exactly zero
                // keeps its position: ILU(0) is defined by structure alone.
                let mult = wk / udiag;
                for e in urow {
                    if w.contains(local.slot(e.col())) {
                        w.add(local.slot(e.col()), -mult * e.val());
                    }
                }
                lvl.pivots_applied += 1;
                lvl.elim_flops += 2.0 * urow.len() as f64 + 1.0;
                ctx.work(2.0 * urow.len() as f64 + 1.0);
                lower.push(Entry::new(k, mult));
            }
            lower.sort_unstable_by_key(|e| e.col());
            fb.staged[q].l = lower.to_vec();
            w.drain_sorted_by_into(&mut entries, |s| local.col(s));
            live_nnz = live_nnz - rr.len() + entries.len();
            reduced[q] = Some(entries.to_vec());
        }
        lvl.reduced_nnz_after = live_nnz;
        lvl.clock_delta += lap(ctx, &mut mark);
    }

    // Global error check once at the end (the schedule loop above already
    // synchronised every rank the same number of times).
    let err_flag = ctx.all_reduce_sum_u64(u64::from(my_err.is_some() || protocol.is_some()));
    if err_flag > 0 {
        return Err(collective_fault_verdict(ctx, &my_err, protocol));
    }
    seal_levels(ctx, mark, phase1, per_level, &mut stats);
    Ok(fb.finish(schedule, initial, stats))
}
