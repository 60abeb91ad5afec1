//! Parallel ILU(0) — the static-pattern contrast case of paper §3.
//!
//! ILU(0) admits no fill, so the reduced matrix of every interface level
//! has the original interface–interface pattern restricted to the nodes not
//! yet factored. Its schedule could therefore be computed up front, from
//! structure alone — the paper's Figure 1(a) colouring. It is not computed
//! separately here: phase 1 eliminates each row against my interiors over
//! `A`'s pattern, and then `par_ilut`'s level loop runs under the fixed
//! pattern rule (`Rule::Pattern`). Each level's independent set is drawn
//! from exactly the pattern an up-front schedule would peel it from, with
//! the same seed and round count, so the sets *are* that schedule; the
//! numeric work of a level follows its set within the same pass.
//!
//! The output is a [`RankFactors`] like the ILUT path's, so the parallel
//! triangular solves and the distributed GMRES preconditioner wrapper work
//! unchanged.

use crate::dist::{DistMatrix, LocalView};
use crate::options::{BreakdownPolicy, FactorError};
use crate::parallel::store::FactorBuilder;
use crate::parallel::{interface_levels, split_diag, RankFactors, ReducedRows, Rule};
use crate::serial::kernel::IlutRow;
use pilut_par::Ctx;
use pilut_sparse::Entry;

/// Runs the parallel zero-fill factorization. Collective. Aborts on the
/// first unusable pivot ([`BreakdownPolicy::Abort`]).
pub fn par_ilu0(
    ctx: &mut Ctx,
    dm: &DistMatrix,
    local: &LocalView,
) -> Result<RankFactors, FactorError> {
    let a = dm.matrix();
    // Zero fill: neither triangle outgrows the rank's rows of `A`.
    let mut fb = FactorBuilder::new(local, local.nnz(a));
    // The row kernel's scratch, breakdown state and work meter; its
    // working row spans the rank's column space, as in `par_ilut`.
    let mut kern = IlutRow::new(dm.n(), Some(local), BreakdownPolicy::Abort);
    let mark = ctx.time();

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
            kern.w.set(local.slot(j as usize), v);
        }
        // Pivots come from the original pattern only: no fill can extend
        // the pivot set, and updates land only on occupied positions.
        kern.lower.clear();
        for k in cols
            .iter()
            .map(|&k| k as usize)
            .filter(|&k| local.is_interior(k) && (!is_interior || k < i))
        {
            let wk = kern.w.get(local.slot(k));
            kern.w.drop_pos(local.slot(k));
            let (udiag, urow) = fb.interior_pivot(k);
            let mult = wk / udiag;
            kern.lower.push(Entry::new(k, mult));
            let cost = 2.0 * urow.len() as f64 + 1.0;
            Rule::Pattern.update(&mut kern.w, local, mult, urow);
            kern.meter.pivots_applied += 1;
            kern.meter.elim_flops += cost;
            ctx.work(cost);
        }
        kern.w
            .drain_sorted_by_into(&mut kern.entries, |s| local.col(s));
        if !is_interior {
            fb.staged[p - n_int].l = kern.lower.to_vec();
            ctx.copy_words(kern.entries.len() as f64);
            kern.meter.copy_words += kern.entries.len() as f64;
            reduced.push(Some(kern.entries.to_vec()));
            continue;
        }
        let (mut diag, has_diag) = split_diag(&kern.entries, i, &mut kern.upper);
        kern.doctor.repair_or_defer(
            i,
            a.row_norm2(i),
            has_diag,
            &mut diag,
            &mut kern.lower,
            &mut kern.upper,
            &mut kern.fault,
            1.0,
        );
        fb.push_interior(&kern.lower, diag, &kern.upper);
    }
    interface_levels(ctx, dm, local, Rule::Pattern, kern, fb, reduced, mark)
}
