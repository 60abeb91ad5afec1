//! The parallel ILUT / ILUT\* factorization (paper §4).
//!
//! Two phases per rank:
//!
//! 1. **Interior factorization** (zero communication): the rank's interior
//!    rows are ILUT-factored against each other; then each interface row is
//!    partially eliminated against the rank's own interior `U` rows
//!    (interface rows never couple to *remote* interiors), yielding the
//!    rank's slice of the global reduced matrix `A_I⁰` plus the initial
//!    interface `L` rows.
//! 2. **Interface factorization**: iteratively compute a distributed
//!    independent set `I_l` of the current reduced matrix, factor its rows
//!    (pure dropping — independence means no elimination is needed), ship
//!    the new `U` rows to the ranks whose remaining rows reference them, and
//!    apply Algorithm 4.2 to form `A_I^{l+1}`. ILUT keeps every
//!    above-threshold entry in the reduced rows; ILUT\* caps each row at
//!    `k·m` entries, which is the paper's key scalability modification.

pub mod assemble;
pub mod dist_mis;
pub mod ilu0;
pub(crate) mod store;

pub use assemble::assemble_factors;
pub use ilu0::{par_ilu0, par_ilu0_with};
pub use store::{RankFactors, RowRef};

use crate::breakdown::PivotFault;
use crate::dist::exchange::{tags, AllPeers};
use crate::dist::{DistMatrix, LocalView};
use crate::factors::triangle_reserve;
use crate::options::{FactorError, IlutOptions};
use crate::serial::drop_rules::{
    keep_largest_multipliers, selection_cost, threshold_and_cap_in_place,
};
use crate::serial::kernel::IlutRow;
use dist_mis::LevelMis;
use pilut_par::Ctx;
use store::{FactorBuilder, RemoteURows};

/// Counters describing one rank's factorization.
#[derive(Clone, Debug, Default)]
pub struct ParStats {
    /// Global number of interface levels (independent sets) — the paper's `q`.
    pub levels: usize,
    /// Modelled floating-point operations on this rank.
    pub flops: f64,
    /// Modelled dist-MIS units charged to this rank's clock (5 per key
    /// hashed, 1 per pattern entry read); not part of `flops`.
    pub mis_work: f64,
    /// Retained entries in L (strict) / U (incl. diagonal) on this rank.
    pub nnz_l: usize,
    pub nnz_u: usize,
    /// Entries in this rank's slice of the initial reduced matrix.
    pub reduced_nnz_initial: usize,
    /// Largest reduced-matrix slice seen across levels.
    pub reduced_nnz_peak: usize,
    /// Rows on this rank whose pivot the
    /// [`BreakdownPolicy`](crate::options::BreakdownPolicy) repaired;
    /// always 0 under `Abort`.
    pub breakdowns_repaired: usize,
    /// Phase 1 (interior factorization and the initial reduced rows) in
    /// the shape of a level: `candidates` = my rows, `set_size` = the
    /// interiors it finished, `rows_touched` = the interface rows it
    /// reduced and left live.
    pub phase1: LevelStats,
    /// One entry per interface level, `levels` of them on every rank.
    pub per_level: Vec<LevelStats>,
}

/// What one interface level did on this rank, read off counters the loop
/// keeps anyway (no wall clock). Flops are modelled operations as in
/// [`ParStats::flops`], which is `Σ (elim_flops + select_flops)` over
/// `phase1` and `per_level`; [`ParStats::mis_work`] is `Σ mis_units`.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct LevelStats {
    /// My live reduced rows entering the level — the MIS candidates.
    pub candidates: usize,
    /// My rows the level factored (`|I_l|` on this rank).
    pub set_size: usize,
    /// Luby rounds that began with a candidate of mine still undecided.
    pub luby_rounds: usize,
    /// My live rows Algorithm 4.2 eliminated at least one pivot from.
    pub rows_touched: usize,
    /// Multipliers that survived the first dropping rule and were applied.
    pub pivots_applied: usize,
    /// Multipliers computed and then dropped by the first rule: each is one
    /// flop in `elim_flops` that the logical clock is *not* charged for
    /// (DESIGN §13.2).
    pub dropped_rule1: usize,
    /// Entries in my slice of the reduced matrix entering / leaving the level.
    pub reduced_nnz_before: usize,
    pub reduced_nnz_after: usize,
    /// `U` rows I shipped to referencing peers, and their bytes on the wire.
    pub urows_rows: usize,
    pub urows_bytes: usize,
    /// Flops of elimination (divisions and row updates) and of the
    /// dropping rules' selections.
    pub elim_flops: f64,
    pub select_flops: f64,
    /// Dist-MIS units charged to the clock (not flops).
    pub mis_units: f64,
    /// Words of reduced rows copied (`Ctx::copy_words`).
    pub copy_words: f64,
    /// Simulated seconds this rank's logical clock advanced: work, copies,
    /// messages and the waits at the level's collectives. The terminating
    /// all-reduce is charged to the last entry.
    pub clock_delta: f64,
}

impl LevelStats {
    /// Modelled floating-point operations of the entry.
    pub fn flops(&self) -> f64 {
        self.elim_flops + self.select_flops
    }
}

/// Agrees on a factorization error once at least one rank flagged a fault
/// (collective). Every rank min-reduces its first deferred fault encoded as
/// `row << 2 | kind`, then the id of the rank holding the winner. The
/// owning rank reports the detailed per-row error; its peers report
/// [`FactorError::RankFailure`] naming it.
pub(crate) fn collective_fault_verdict(
    ctx: &mut Ctx,
    my_err: &Option<(usize, PivotFault)>,
) -> FactorError {
    let me = ctx.rank() as u64;
    let mine = my_err.map_or(u64::MAX, |(row, fault)| ((row as u64) << 2) | fault.code());
    let winner = ctx.all_reduce_u64(vec![mine], pilut_par::collectives::ReduceOp::Min)[0];
    let owner = ctx.all_reduce_u64(
        vec![if mine == winner { me } else { u64::MAX }],
        pilut_par::collectives::ReduceOp::Min,
    )[0];
    if mine == winner {
        PivotFault::from_code(winner & 3).error_at((winner >> 2) as usize)
    } else {
        FactorError::RankFailure {
            rank: owner as usize,
        }
    }
}

/// Role of every global node on this rank: 0 = remote, 1 = my interior,
/// 2 = my interface.
pub(crate) fn role_map(local: &LocalView, n: usize) -> Vec<u8> {
    let mut role = vec![0u8; n];
    for (p, &v) in local.nodes.iter().enumerate() {
        role[v] = if p < local.interior.len() { 1 } else { 2 };
    }
    role
}

/// My slice of a reduced matrix, indexed by interface position; a row is
/// `None` once its level has factored it.
pub(crate) type ReducedRows = Vec<Option<Vec<(usize, f64)>>>;

/// `(node, column pattern)` of every live reduced row, ascending node id.
pub(crate) fn reduced_patterns<'a>(
    local: &'a LocalView,
    reduced: &'a ReducedRows,
) -> impl Iterator<Item = (usize, Vec<usize>)> + 'a {
    let rows = local.interface.iter().zip(reduced);
    rows.filter_map(|(&v, row)| Some((v, row.as_ref()?.iter().map(|&(c, _)| c).collect())))
}

/// Seconds the clock advanced since `mark`, which moves to now: the
/// `clock_delta` of the table entry being closed.
pub(crate) fn lap(ctx: &Ctx, mark: &mut f64) -> f64 {
    let since = ctx.time() - *mark;
    *mark = ctx.time();
    since
}

/// Closes phase 1 as the table's first entry; `meter` holds its flops,
/// pivots and copies.
pub(crate) fn phase1_entry(
    local: &LocalView,
    reduced_nnz: usize,
    clock_delta: f64,
    meter: LevelStats,
) -> LevelStats {
    LevelStats {
        candidates: local.len(),
        set_size: local.interior.len(),
        rows_touched: local.interface.len(),
        reduced_nnz_after: reduced_nnz,
        clock_delta,
        ..meter
    }
}

/// Seals the level table: what the clock did since `mark` (the terminating
/// collective) goes to the last entry, and the totals are its column sums.
pub(crate) fn seal_levels(
    ctx: &Ctx,
    mut mark: f64,
    mut phase1: LevelStats,
    mut per_level: Vec<LevelStats>,
    stats: &mut ParStats,
) {
    per_level.last_mut().unwrap_or(&mut phase1).clock_delta += lap(ctx, &mut mark);
    let entries = || [&phase1].into_iter().chain(&per_level);
    stats.flops = entries().map(LevelStats::flops).sum();
    stats.mis_work = entries().map(|l| l.mis_units).sum();
    stats.phase1 = phase1;
    stats.per_level = per_level;
}

/// Runs the parallel ILUT / ILUT\* factorization. Collective: every rank of
/// the machine must call it with the same `dm` and `opts`.
pub fn par_ilut(
    ctx: &mut Ctx,
    dm: &DistMatrix,
    local: &LocalView,
    opts: &IlutOptions,
) -> Result<RankFactors, FactorError> {
    opts.validate()?; // deterministic: every rank rejects the same way
    let a = dm.matrix();
    let n = dm.n();
    let role = role_map(local, n);
    let mut fb = FactorBuilder::new(
        local,
        triangle_reserve(local.len(), n, opts.m, local.nnz(a)),
    );
    let mut stats = ParStats::default();
    // The row kernel carries the working row, the scratch parts, the
    // breakdown state (its first unusable pivot is deferred to the
    // collective error check) and, as its work meter, the open entry of
    // the level table, whose clock is measured from `mark`.
    let mut kern = IlutRow::new(n, opts);
    let mut mark = ctx.time();

    // ---- Phase 1: my rows in local-view order, through the serial row
    // kernel. Interior rows (ascending global id = elimination order)
    // eliminate the interiors preceding them and go straight into the
    // store. Interface rows eliminate *all* my interiors (interface nodes
    // factor after every interior regardless of global id), which leaves
    // their initial `L` part and their row of the reduced matrix `A_I⁰`
    // (`tau_of` is indexed like `reduced`).
    let n_int = local.interior.len();
    let mut reduced: ReducedRows = Vec::with_capacity(local.interface.len());
    let mut tau_of: Vec<f64> = Vec::with_capacity(local.interface.len());
    // lint: allow(unwrap): phase 1 pivots are this rank's interiors, whose rows hold local columns only
    let slot_of = |j| local.pos_of(j).expect("interior column must be local");
    let col_of = |s: usize| local.nodes[s];
    for (p, &i) in local.nodes.iter().enumerate() {
        let mut work = |cost| ctx.work(cost);
        if p < n_int {
            let before = |j: usize| role[j] == 1 && j < i;
            kern.factor_row(
                a,
                i,
                opts,
                before,
                &mut fb.store,
                slot_of,
                col_of,
                &mut work,
            );
            continue;
        }
        let tau_i = opts.tau * a.row_norm2(i);
        let mine = |j: usize| role[j] == 1;
        // lower = the multipliers; upper = the interface columns (mine or
        // remote) including the diagonal.
        kern.reduce(
            a.row(i),
            tau_i,
            None,
            mine,
            &fb.store,
            slot_of,
            col_of,
            &mut work,
        );
        // The first cut of the third rule; the levels append to the staged
        // `L` and the rule runs again when the row is factored.
        keep_largest_multipliers(&mut kern.lower, tau_i, opts.m);
        fb.staged[p - n_int].l = kern.lower.to_vec();
        // Reduced row: threshold always applies; ILUT* additionally caps.
        threshold_and_cap_in_place(&mut kern.upper, tau_i, opts.reduced_cap(), Some(i));
        ctx.copy_words(kern.upper.len() as f64);
        kern.meter.copy_words += kern.upper.len() as f64;
        stats.reduced_nnz_initial += kern.upper.len();
        reduced.push(Some(kern.upper.to_vec()));
        tau_of.push(tau_i);
    }
    stats.reduced_nnz_peak = stats.reduced_nnz_initial;
    let initial_reduced_cols: Vec<(usize, Vec<usize>)> =
        reduced_patterns(local, &reduced).collect();
    let phase1 = phase1_entry(
        local,
        stats.reduced_nnz_initial,
        lap(ctx, &mut mark),
        std::mem::take(&mut kern.meter),
    );

    // ---- Phase 2: iterative interface factorization.
    let mut levels: Vec<Vec<usize>> = Vec::new();
    let mut per_level: Vec<LevelStats> = Vec::new();
    let mut mis = LevelMis::default();
    let mut remote_u = RemoteURows::new(n);
    let mut pivots: Vec<usize> = Vec::new();
    let mut remaining = reduced.len();
    // Entries in my live reduced rows, kept current by every row hand-over.
    let mut live_nnz = stats.reduced_nnz_initial;
    loop {
        // Collective loop head: termination and error detection.
        let flags = ctx.all_reduce_u64(
            vec![remaining as u64, kern.fault.map_or(0, |_| 1)],
            pilut_par::collectives::ReduceOp::Sum,
        );
        if flags[1] > 0 {
            return Err(collective_fault_verdict(ctx, &kern.fault));
        }
        if flags[0] == 0 {
            break;
        }
        stats.reduced_nnz_peak = stats.reduced_nnz_peak.max(live_nnz);
        kern.meter.candidates = remaining;
        kern.meter.reduced_nnz_before = live_nnz;

        // The level's pattern over slots, its links, and the MIS.
        mis.begin(live_nnz);
        for (&i, rr) in local.interface.iter().zip(&reduced) {
            if let Some(rr) = rr {
                mis.push_row(i, rr.iter().map(|&(c, _)| c));
            }
        }
        let plan = mis.link(ctx, dm.dist());
        mis.run(ctx, &plan, opts.seed, levels.len() as u64, opts.mis_rounds)?;
        let mut my_in: Vec<usize> = mis.my_in().collect();
        my_in.shrink_to_fit(); // kept in `levels`: part of the factor's heap footprint
        kern.meter.set_size = my_in.len();
        kern.meter.luby_rounds = mis.live_rounds();
        kern.meter.mis_units = mis.work();

        // Factor my I_l rows. The third dropping rule runs here, over what
        // the row's `L` holds of phase 1 and of every multiplier the levels
        // appended since: multipliers never change once computed and the
        // rule's order is total, so this keeps exactly the entries a
        // per-level application would (DESIGN §2.2). Independence means
        // the `U` part needs only rule-2 dropping.
        for &v in &my_in {
            let q = fb.interface_index(v);
            // lint: allow(unwrap): set members always carry a reduced row
            let rr = reduced[q].take().expect("member without a reduced row");
            remaining -= 1;
            live_nnz -= rr.len();
            let tau_v = tau_of[q];
            let (mut diag, has_diag) = split_diag(&rr, v, &mut kern.upper);
            let row = &mut fb.staged[q];
            rule3(ctx, &mut kern.meter, &mut row.l, tau_v, opts.m);
            row.l.shrink_to_fit(); // final: give back the room the appends took
            let fallback = if tau_v > 0.0 { tau_v } else { 1.0 };
            kern.doctor.repair_or_defer(
                v,
                a.row_norm2(v),
                has_diag,
                &mut diag,
                &mut row.l,
                &mut kern.upper,
                &mut kern.fault,
                fallback,
            );
            threshold_and_cap_in_place(&mut kern.upper, tau_v, opts.m, None);
            let cost = selection_cost(kern.upper.len());
            kern.meter.select_flops += cost;
            ctx.work(cost);
            row.diag = diag;
            row.u = kern.upper.to_vec();
        }

        // Ship the new U rows directly along the level plan: each rank
        // sends one (possibly empty) batch to every peer that references its
        // nodes and receives one from every peer whose nodes it references.
        // Encoding charges nothing to the clock, so building every batch
        // before the first ships — which prices the round — moves no number.
        remote_u.clear();
        plan.exact_round(
            ctx,
            tags::UROWS,
            &AllPeers,
            &AllPeers,
            |_, nodes| fb.encode_urows(nodes, |v| mis.is_in(v), &mut kern.meter),
            |_, _, payload| remote_u.decode(payload),
        );

        // Algorithm 4.2: eliminate the I_l unknowns from my remaining rows,
        // in ascending interface position — the logical clock accumulates
        // the per-row charges in one fixed order on every run. A touched
        // row costs its pivots, not its length: the new multipliers are
        // appended to its staged `L` (re-selected only when that would
        // pass `2m` entries), the rewritten row is copied back into its own
        // buffer, and neither buffer is acquired again once it has reached
        // size (`xtask bench` budgets the growths).
        let audit = pilut_allocaudit::region("alg42_sweep");
        for (q, &i) in local.interface.iter().enumerate() {
            let Some(rr) = reduced[q].as_mut() else {
                continue;
            };
            let tau_i = tau_of[q];
            // Pivot columns of this row that belong to I_l (no new ones can
            // appear during the sweep: U rows of independent nodes contain no
            // I_l columns).
            pivots.clear();
            let cols = rr.iter().map(|&(c, _)| c);
            pivots.extend(cols.filter(|&c| c != i && mis.is_in(c)));
            if pivots.is_empty() {
                continue;
            }
            kern.meter.rows_touched += 1;
            for &(c, v) in rr.iter() {
                kern.w.set(c, v);
            }
            kern.lower.clear();
            for &k in &pivots {
                let (udiag, urow) = fb.level_pivot(k, &remote_u);
                let wk = kern.w.get(k);
                kern.w.drop_pos(k);
                // lint: allow(float-eq): skips exactly cancelled multipliers
                if wk == 0.0 {
                    continue;
                }
                let mult = wk / udiag;
                kern.meter.elim_flops += 1.0;
                if mult.abs() < tau_i {
                    kern.meter.dropped_rule1 += 1;
                    continue; // first dropping rule
                }
                for &(j, uv) in urow {
                    kern.w.add(j, -mult * uv);
                }
                let cost = 2.0 * urow.len() as f64;
                kern.meter.pivots_applied += 1;
                kern.meter.elim_flops += cost;
                ctx.work(cost + 1.0);
                kern.lower.push((k, mult));
            }
            let l = &mut fb.staged[q].l;
            if l.len() + kern.lower.len() > opts.m.saturating_mul(2) {
                rule3(ctx, &mut kern.meter, l, tau_i, opts.m);
            }
            make_room(l, kern.lower.len());
            l.extend_from_slice(&kern.lower);
            // The surviving working row becomes the next-level reduced row.
            kern.w.drain_sorted_into(&mut kern.entries);
            threshold_and_cap_in_place(&mut kern.entries, tau_i, opts.reduced_cap(), Some(i));
            ctx.copy_words(kern.entries.len() as f64);
            kern.meter.copy_words += kern.entries.len() as f64;
            live_nnz = live_nnz - rr.len() + kern.entries.len();
            rr.clear();
            make_room(rr, kern.entries.len());
            rr.extend_from_slice(&kern.entries);
        }
        drop(audit);
        kern.meter.reduced_nnz_after = live_nnz;
        kern.meter.clock_delta = lap(ctx, &mut mark);
        per_level.push(std::mem::take(&mut kern.meter));
        levels.push(my_in);
    }

    seal_levels(ctx, mark, phase1, per_level, &mut stats);
    drop(mis); // slot arrays and pattern: free before `finish` copies the staged rows
    stats.breakdowns_repaired = kern.doctor.repairs();
    Ok(fb.finish(levels, initial_reduced_cols, stats))
}

/// The third dropping rule on a staged `L`, with its charge. Exact whenever
/// it runs (DESIGN §2.2), so when is a matter of cost: once per row at the
/// latest, and before that only to keep `L` within `2m` entries.
fn rule3(ctx: &mut Ctx, meter: &mut LevelStats, l: &mut Vec<(usize, f64)>, tau: f64, m: usize) {
    let cost = selection_cost(l.len());
    meter.select_flops += cost;
    ctx.work(cost);
    keep_largest_multipliers(l, tau, m);
}

/// Room for `extra` more entries in a live row's buffer. A buffer that must
/// grow takes a quarter more than it needs: enough that a row's `L` and its
/// reduced row grow a few times per factorization instead of once per
/// touch, and little enough that a row never reserves more than 5/4 of
/// what it has needed (amortized doubling held 2.3× the live entries on
/// TORSO ILUT(20,1e-6), `peak_rss_mib` +5 %).
fn make_room(row: &mut Vec<(usize, f64)>, extra: usize) {
    let need = row.len() + extra;
    if need > row.capacity() {
        row.reserve_exact(need + need / 4 - row.len());
    }
}

/// Moves a row's off-diagonal entries into `off` (cleared first) and
/// returns `(diagonal value, whether it is stored)`.
pub(crate) fn split_diag(
    row: &[(usize, f64)],
    i: usize,
    off: &mut Vec<(usize, f64)>,
) -> (f64, bool) {
    off.clear();
    let mut diag = (0.0, false);
    for &(c, v) in row {
        if c == i {
            diag = (v, true);
        } else {
            off.push((c, v));
        }
    }
    diag
}
