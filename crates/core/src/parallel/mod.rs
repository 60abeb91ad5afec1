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
//!
//! Both phases are shared with [`par_ilu0`], which runs them under the
//! fixed-pattern rule (`Rule::Pattern`: no fill, no dropping): phase 1's
//! rows go through the same row kernel, and phase 2 is one function,
//! `interface_levels`. ILU(0) never fills, so its reduced matrix at every
//! level is the original interface pattern restricted to the nodes not yet
//! factored: the sets the loop computes level by level are exactly those
//! of a schedule computed up front from structure alone (the paper's
//! Figure 1a colouring), and need no loop of their own.
//!
//! The result stays distributed, as in the paper's §5: each rank keeps the
//! [`RankFactors`] of its own rows, and the triangular solves
//! ([`crate::trisolve`]) apply them where they live. No global copy of the
//! factors is ever built; [`RankFactors::rows`] reads a rank's rows back
//! with global column ids.

pub mod dist_mis;
pub mod ilu0;
pub(crate) mod store;

pub use ilu0::par_ilu0;
pub use store::{RankFactors, RowRef};

use crate::breakdown::PivotFault;
use crate::dist::exchange::{tags, AllPeers};
use crate::dist::{DistMatrix, LocalView};
use crate::factors::{make_room, triangle_reserve};
use crate::options::{FactorError, IlutOptions};
use crate::serial::drop_rules::{
    keep_largest_multipliers, selection_cost, threshold_and_cap_in_place,
};
use crate::serial::kernel::{IlutRow, Rule};
use dist_mis::{note_err, LevelMis};
use pilut_par::Ctx;
use pilut_sparse::Entry;
use store::{FactorBuilder, InitialPattern, RemoteURows};

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
    /// Retained entries in `L` (strict) on this rank.
    pub nnz_l: usize,
    /// Retained entries in `U` (diagonal included) on this rank.
    pub nnz_u: usize,
    /// Entries in this rank's slice of the initial reduced matrix.
    pub reduced_nnz_initial: usize,
    /// Largest reduced-matrix slice seen across levels.
    pub reduced_nnz_peak: usize,
    /// Rows on this rank whose pivot
    /// [`BreakdownPolicy::Shift`](crate::options::BreakdownPolicy::Shift)
    /// repaired; always 0 under `Abort` and in [`par_ilu0`].
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
    /// flop in `elim_flops` (the division), paid like every other.
    pub dropped_rule1: usize,
    /// Entries in my slice of the reduced matrix entering the level.
    pub reduced_nnz_before: usize,
    /// Entries in my slice of the reduced matrix leaving the level.
    pub reduced_nnz_after: usize,
    /// `U` rows I shipped to referencing peers.
    pub urows_rows: usize,
    /// Bytes on the wire of those `U` rows.
    pub urows_bytes: usize,
    /// Flops of elimination (divisions and row updates).
    pub elim_flops: f64,
    /// Flops of the dropping rules' selections.
    pub select_flops: f64,
    /// Dist-MIS units charged to the clock (not flops).
    pub mis_units: f64,
    /// Words of reduced rows copied, paid with `Ctx::copy_words`.
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
/// `row << 2 | kind` — a malformed message it received as kind 3 at row 0
/// — then the id of the rank holding the winner. The owning rank reports
/// the detailed error; its peers report [`FactorError::RankFailure`]
/// naming it.
pub(crate) fn collective_fault_verdict(
    ctx: &mut Ctx,
    my_err: &Option<(usize, PivotFault)>,
    protocol: Option<FactorError>,
) -> FactorError {
    let me = ctx.rank() as u64;
    let fault = my_err.map_or(u64::MAX, |(row, fault)| ((row as u64) << 2) | fault.code());
    let mine = if protocol.is_some() { 3 } else { fault };
    let winner = ctx.all_reduce_u64(vec![mine], pilut_par::collectives::ReduceOp::Min)[0];
    let owner = ctx.all_reduce_u64(
        vec![if mine == winner { me } else { u64::MAX }],
        pilut_par::collectives::ReduceOp::Min,
    )[0];
    if mine == winner {
        protocol
            .unwrap_or_else(|| PivotFault::from_code(winner & 3).error_at((winner >> 2) as usize))
    } else {
        FactorError::RankFailure {
            rank: owner as usize,
        }
    }
}

/// My slice of a reduced matrix, indexed by interface position: a row of
/// [`Entry`]s of global columns (12 bytes each), ascending, `None` once its
/// level has factored it.
pub(crate) type ReducedRows = Vec<Option<Vec<Entry>>>;

/// Seconds the clock advanced since `mark`, which moves to now: the
/// `clock_delta` of the table entry being closed.
fn lap(ctx: &Ctx, mark: &mut f64) -> f64 {
    let since = ctx.time() - *mark;
    *mark = ctx.time();
    since
}

/// Ends a communication-free span: pays the clock, one charge each, the
/// flops and copied words `meter` counted since `paid`, which moves to its
/// totals. Every count is an integer-valued `f64`, so the charges add up to
/// the meter's totals exactly.
fn pay(ctx: &mut Ctx, meter: &LevelStats, paid: &mut (f64, f64)) {
    ctx.work(meter.flops() - paid.0);
    ctx.copy_words(meter.copy_words - paid.1);
    *paid = (meter.flops(), meter.copy_words);
}

/// Runs the parallel ILUT / ILUT\* factorization. Collective: every rank of
/// the machine must call it with the same `dm` and `opts`.
pub fn par_ilut(
    ctx: &mut Ctx,
    dm: &DistMatrix,
    local: &LocalView,
    opts: &IlutOptions,
) -> Result<RankFactors, FactorError> {
    let reserve = triangle_reserve(local.len(), dm.n(), opts.m, local.nnz(dm.matrix()));
    factor(ctx, dm, local, Rule::Ilut(opts), reserve)
}

/// Both parallel factorizations on my rows, under `rule`, into a store
/// with room for `reserve` entries per triangle: phase 1 through the row
/// kernel, then the level loop ([`interface_levels`]).
pub(crate) fn factor(
    ctx: &mut Ctx,
    dm: &DistMatrix,
    local: &LocalView,
    rule: Rule<'_>,
    reserve: usize,
) -> Result<RankFactors, FactorError> {
    rule.validate()?; // deterministic: every rank rejects the same way
    let a = dm.matrix();
    let mut fb = FactorBuilder::new(local, reserve);
    // The row kernel carries the rule, the working row, the scratch parts,
    // the breakdown state (its first unusable pivot is deferred to the
    // collective error check) and, as its work meter, the open entry of
    // the level table, whose clock is measured from `mark` and paid from
    // the meter at the end of each communication-free span ([`pay`]). Its
    // working row spans the rank's column space, not the global one.
    let mut kern = IlutRow::new(dm.n(), Some(local), rule);
    let mark = ctx.time();

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
    #[expect(clippy::expect_used, reason = "interior rows hold local columns only")]
    let slot_of = |j| local.pos_of(j).expect("interior column must be local");
    let col_of = |s: usize| local.nodes[s];
    for (p, &i) in local.nodes.iter().enumerate() {
        if p < n_int {
            let before = |j: usize| local.is_interior(j) && j < i;
            kern.factor_row(a, i, before, &mut fb.store, slot_of, col_of);
            continue;
        }
        let tau_i = rule.tau(a.row_norm2(i));
        let mine = |j: usize| local.is_interior(j);
        // lower = the multipliers; upper = the interface columns (mine or
        // remote) including the diagonal.
        kern.reduce(a.row(i), tau_i, None, mine, &fb.store, slot_of, col_of);
        if let Rule::Ilut(opts) = rule {
            // The first cut of the third rule; the levels append to the
            // staged `L` and the rule runs again when the row is factored.
            keep_largest_multipliers(&mut kern.lower, tau_i, opts.m);
            // Reduced row: threshold always applies; ILUT* additionally caps.
            threshold_and_cap_in_place(&mut kern.upper, tau_i, opts.reduced_cap(), Some(i));
        }
        fb.staged[p - n_int] = kern.lower.to_vec();
        kern.meter.copy_words += kern.upper.len() as f64;
        reduced.push(Some(kern.upper.to_vec()));
        tau_of.push(tau_i);
    }
    interface_levels(ctx, dm, local, kern, fb, reduced, tau_of, mark)
}

/// Phase 2 of both factorizations: pays and closes phase 1 (its work is on
/// `kern`'s meter, its clock runs from `mark`), then factors the interface one
/// level at a time — a distributed independent set `I_l` of the current
/// reduced rows, its rows factored, its `U` rows shipped, and Algorithm 4.2
/// over the rows left — until no rank has a reduced row left. Faults are
/// agreed at every level head. `reduced` holds my interface rows of `A_I⁰`,
/// `fb` their staged `L` parts, `tau_of` their dropping thresholds.
#[allow(clippy::too_many_arguments)]
fn interface_levels(
    ctx: &mut Ctx,
    dm: &DistMatrix,
    local: &LocalView,
    mut kern: IlutRow<'_>,
    mut fb: FactorBuilder<'_>,
    mut reduced: ReducedRows,
    tau_of: Vec<f64>,
    mut mark: f64,
) -> Result<RankFactors, FactorError> {
    let a = dm.matrix();
    let rule = kern.rule;
    let (m, seed, mis_rounds) = match rule {
        Rule::Ilut(opts) => (opts.m, opts.seed, opts.mis_rounds),
        Rule::Pattern => (usize::MAX, ilu0::MIS_SEED, ilu0::MIS_ROUNDS),
    };
    let initial_nnz = reduced.iter().flatten().map(Vec::len).sum();
    let mut stats = ParStats {
        reduced_nnz_initial: initial_nnz,
        reduced_nnz_peak: initial_nnz,
        ..ParStats::default()
    };
    let initial = InitialPattern::of(&reduced);
    pay(ctx, &kern.meter, &mut (0.0, 0.0));
    let mut phase1 = LevelStats {
        candidates: local.len(),
        set_size: local.interior.len(),
        rows_touched: local.interface.len(),
        reduced_nnz_after: stats.reduced_nnz_initial,
        clock_delta: lap(ctx, &mut mark),
        ..std::mem::take(&mut kern.meter)
    };

    let mut paid = (0.0, 0.0); // of the open level's meter
    let mut levels: Vec<Vec<usize>> = Vec::new();
    let mut per_level: Vec<LevelStats> = Vec::new();
    let mut mis = LevelMis::over(local);
    let mut remote_u = RemoteURows::new(local);
    // The first malformed `U`-row batch (or missing member row) I met; it
    // goes to the next level head's error check, like a pivot fault.
    let mut protocol: Option<FactorError> = None;
    let mut pivots: Vec<usize> = Vec::new();
    let mut remaining = reduced.len();
    // Entries in my live reduced rows, kept current by every row hand-over.
    let mut live_nnz = stats.reduced_nnz_initial;
    loop {
        // Collective loop head: termination and error detection.
        let failed = kern.fault.is_some() || protocol.is_some();
        let flags = ctx.all_reduce_u64(
            vec![remaining as u64, u64::from(failed)],
            pilut_par::collectives::ReduceOp::Sum,
        );
        if flags[1] > 0 {
            return Err(collective_fault_verdict(ctx, &kern.fault, protocol));
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
                mis.push_row(i, rr.iter().map(|e| e.col()));
            }
        }
        let plan = mis.link(ctx, dm.dist());
        mis.run(ctx, &plan, seed, levels.len() as u64, mis_rounds)?;
        let mut my_in: Vec<usize> = mis.my_in().collect();
        my_in.shrink_to_fit(); // kept in `levels`: part of the factor's heap footprint
        kern.meter.set_size = my_in.len();
        kern.meter.luby_rounds = mis.live_rounds();
        kern.meter.mis_units = mis.work();

        // Factor my I_l rows. Under ILUT the third dropping rule runs here,
        // over what the row's `L` holds of phase 1 and of every multiplier
        // the levels appended since: multipliers never change once computed
        // and the rule's order is total, so this keeps exactly the entries a
        // per-level application would (DESIGN §2.2). Independence means
        // the `U` part needs only rule-2 dropping. Each row goes into the
        // store as it is factored, so the level's rows are contiguous there.
        for &v in &my_in {
            let q = fb.interface_index(v);
            #[expect(clippy::expect_used, reason = "set members always carry a reduced row")]
            let rr = reduced[q].take().expect("member without a reduced row");
            remaining -= 1;
            live_nnz -= rr.len();
            let tau_v = tau_of[q];
            let (mut diag, has_diag) = split_diag(&rr, v, &mut kern.upper);
            let l = &mut fb.staged[q];
            match rule {
                Rule::Ilut(_) => rule3(&mut kern.meter, l, tau_v, m),
                Rule::Pattern => l.sort_unstable_by_key(|e| e.col()),
            }
            let fallback = if tau_v > 0.0 { tau_v } else { 1.0 };
            kern.doctor.repair_or_defer(
                v,
                a.row_norm2(v),
                has_diag,
                &mut diag,
                l,
                &mut kern.upper,
                &mut kern.fault,
                fallback,
            );
            if let Rule::Ilut(_) = rule {
                threshold_and_cap_in_place(&mut kern.upper, tau_v, m, None);
                kern.meter.select_flops += selection_cost(kern.upper.len());
            }
            fb.push_interface(q, diag, &kern.upper);
        }
        pay(ctx, &kern.meter, &mut paid);

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
            |peer, nodes, payload| {
                if let Err(what) = remote_u.decode(nodes, &payload) {
                    note_err(&mut protocol, "urows", peer, what);
                }
            },
        );

        // Algorithm 4.2: eliminate the I_l unknowns from my remaining rows,
        // in ascending interface position, metering as it goes; the sweep
        // is paid once, before the next loop head. A touched row costs its
        // pivots, not its length: the new multipliers are appended to its
        // staged `L` (re-selected only when that would pass `2m` entries),
        // the rewritten row is copied back into its own buffer, and neither
        // buffer is acquired again once it has reached size (the kernel
        // gate of `xtask paper` budgets the growths).
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
            let cols = rr.iter().map(|e| e.col());
            pivots.extend(cols.filter(|&c| c != i && mis.is_in(c)));
            if pivots.is_empty() {
                continue;
            }
            kern.meter.rows_touched += 1;
            for e in rr.iter() {
                kern.w.set(local.slot(e.col()), e.val());
            }
            kern.lower.clear();
            for &k in &pivots {
                let wk = kern.w.get(local.slot(k));
                kern.w.drop_pos(local.slot(k));
                let Some((udiag, ucols, uvals)) = fb.level_pivot(k, &remote_u) else {
                    let what = format!("no U row arrived for level member {k}");
                    note_err(&mut protocol, "urows", dm.dist().owner(k), what);
                    continue;
                };
                // ILUT skips an exactly cancelled multiplier; ILU(0) keeps
                // its position, being defined by structure alone.
                // lint: allow(float-eq): skips exactly cancelled multipliers
                if wk == 0.0 && rule.fills() {
                    continue;
                }
                let mult = wk / udiag;
                kern.meter.elim_flops += 1.0;
                if mult.abs() < tau_i {
                    kern.meter.dropped_rule1 += 1;
                    continue; // first dropping rule
                }
                let u = ucols.iter().zip(uvals);
                rule.update(&mut kern.w, local, mult, u.map(|(&c, &v)| (c as usize, v)));
                kern.meter.pivots_applied += 1;
                kern.meter.elim_flops += 2.0 * ucols.len() as f64;
                kern.lower.push(Entry::new(k, mult));
            }
            let l = &mut fb.staged[q];
            if l.len() + kern.lower.len() > m.saturating_mul(2) {
                rule3(&mut kern.meter, l, tau_i, m);
            }
            make_room(l, kern.lower.len());
            l.extend_from_slice(&kern.lower);
            // The surviving working row becomes the next-level reduced row.
            kern.w
                .drain_sorted_by_into(&mut kern.entries, |s| local.col(s));
            if let Rule::Ilut(opts) = rule {
                let cap = opts.reduced_cap();
                threshold_and_cap_in_place(&mut kern.entries, tau_i, cap, Some(i));
            }
            kern.meter.copy_words += kern.entries.len() as f64;
            live_nnz = live_nnz - rr.len() + kern.entries.len();
            rr.clear();
            make_room(rr, kern.entries.len());
            rr.extend_from_slice(&kern.entries);
        }
        drop(audit);
        pay(ctx, &kern.meter, &mut paid);
        kern.meter.reduced_nnz_after = live_nnz;
        kern.meter.clock_delta = lap(ctx, &mut mark);
        per_level.push(std::mem::take(&mut kern.meter));
        paid = (0.0, 0.0);
        levels.push(my_in);
    }

    // Seal the table: the terminating collective goes to the last entry,
    // and the totals are its column sums.
    per_level.last_mut().unwrap_or(&mut phase1).clock_delta += lap(ctx, &mut mark);
    let entries = || [&phase1].into_iter().chain(&per_level);
    stats.flops = entries().map(LevelStats::flops).sum();
    stats.mis_work = entries().map(|l| l.mis_units).sum();
    stats.phase1 = phase1;
    stats.per_level = per_level;
    stats.breakdowns_repaired = kern.doctor.repairs();
    // Free before `finish` lists the ghosts: the slot arrays and pattern,
    // the reduced rows' husks, the thresholds, the shipped rows, the
    // working row. The level state was keyed by the rank's column space.
    debug_assert!(mis.map_len() <= local.n_slots());
    drop((mis, reduced, tau_of, remote_u, kern));
    Ok(fb.finish(levels, initial, stats))
}

/// The third dropping rule on a staged `L`, metered. Exact whenever it
/// runs (DESIGN §2.2), so when is a matter of cost: once per row at the
/// latest, and before that only to keep `L` within `2m` entries.
fn rule3(meter: &mut LevelStats, l: &mut Vec<Entry>, tau: f64, m: usize) {
    meter.select_flops += selection_cost(l.len());
    keep_largest_multipliers(l, tau, m);
}

/// Moves a row's off-diagonal entries into `off` (cleared first) and
/// returns `(diagonal value, whether it is stored)`.
pub(crate) fn split_diag(row: &[Entry], i: usize, off: &mut Vec<Entry>) -> (f64, bool) {
    off.clear();
    let mut diag = (0.0, false);
    for &e in row {
        if e.col() == i {
            diag = (e.val(), true);
        } else {
            off.push(e);
        }
    }
    diag
}
