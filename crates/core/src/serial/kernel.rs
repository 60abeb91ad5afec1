//! The scalar ILUT row kernel — the one elimination loop behind both
//! [`crate::serial::ilut`] and phase 1 of [`crate::parallel::par_ilut`].
//!
//! A row is loaded into the working row, eliminated against the already
//! factored rows of a [`FactorStore`] in ascending pivot order (heap-driven,
//! dropping rule 1 on every multiplier), drained, split into multipliers /
//! pivot / rest, repaired by the [`PivotDoctor`], capped (dropping rule 2)
//! and pushed. The store's slot numbering is the caller's: `slot_of` maps a
//! column to the slot of its factored row and `col_of` maps back, both the
//! identity for the serial factorization. The working row has a slot per
//! column for the serial factorization and a slot per column of the rank's
//! column space ([`LocalView::slot`]) for the distributed one. Modelled work
//! is reported to a caller-supplied `work` sink in the order it is spent, so
//! the distributed caller can charge its logical clock and the serial one
//! can ignore it.

use crate::breakdown::{PivotDoctor, PivotFault};
use crate::dist::LocalView;
use crate::factors::FactorStore;
use crate::options::{BreakdownPolicy, IlutOptions};
use crate::parallel::LevelStats;
use crate::serial::drop_rules::{selection_cost, threshold_and_cap_in_place};
use pilut_sparse::{CsrMatrix, Entry, WorkRow};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Per-factorization state of the row kernel: the scratch reused across
/// rows (everything that outlives a row is copied out at exact size), the
/// breakdown state and the work meter. `par_ilu0` and the interface level
/// loop use them without the elimination loop.
pub(crate) struct IlutRow<'a> {
    /// The working row: a slot per column, or per column of `space`.
    pub(crate) w: WorkRow,
    space: Option<&'a LocalView>,
    /// Min-heap of pivot columns still to eliminate in the current row. A
    /// column is pushed as it enters the working row and leaves the row
    /// only once popped, so row membership is the heap's marker.
    heap: BinaryHeap<Reverse<usize>>,
    /// The drained working row and its two parts.
    pub(crate) entries: Vec<Entry>,
    pub(crate) lower: Vec<Entry>,
    pub(crate) upper: Vec<Entry>,
    pub(crate) doctor: PivotDoctor,
    /// First fault met (only set under `BreakdownPolicy::Abort`):
    /// the serial driver returns it at once, a rank defers it to the next
    /// collective error check.
    pub(crate) fault: Option<(usize, PivotFault)>,
    /// Modelled work since the meter was last taken: the flop split and
    /// the pivot counts of a [`LevelStats`] entry (the serial driver never
    /// takes it and reads its total; a rank takes it once per level).
    pub(crate) meter: LevelStats,
}

impl<'a> IlutRow<'a> {
    /// A kernel for rows of `n` columns, or for the rows of the rank
    /// `space` views, whose working row then spans its column space; an
    /// unusable pivot is handled under `policy`.
    pub(crate) fn new(n: usize, space: Option<&'a LocalView>, policy: BreakdownPolicy) -> Self {
        IlutRow {
            w: WorkRow::new(space.map_or(n, LocalView::n_slots)),
            space,
            heap: BinaryHeap::new(),
            entries: Vec::new(),
            lower: Vec::new(),
            upper: Vec::new(),
            doctor: PivotDoctor::new(policy),
            fault: None,
            meter: LevelStats::default(),
        }
    }

    /// Loads row `(cols, vals)`, eliminates its `eligible` columns against
    /// their rows in `store` — ascending, fill landing on an eligible
    /// column joins in — and splits what is left: the surviving multipliers
    /// into `lower`, column `pivot` (if any) into the returned
    /// `(value, stored)`, everything else into `upper`, each ascending.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn reduce(
        &mut self,
        (cols, vals): (&[u32], &[f64]),
        tau_i: f64,
        pivot: Option<usize>,
        eligible: impl Fn(usize) -> bool,
        store: &FactorStore,
        slot_of: impl Fn(usize) -> usize,
        col_of: impl Fn(usize) -> usize,
        work: &mut impl FnMut(f64),
    ) -> (f64, bool) {
        debug_assert!(self.heap.is_empty(), "heap drained by the previous row");
        let space = self.space;
        let slot = |j| space.map_or(j, |space| space.slot(j));
        for (&j, &v) in cols.iter().zip(vals) {
            let j = j as usize;
            let c = slot(j);
            if !self.w.contains(c) && eligible(j) {
                self.heap.push(Reverse(j));
            }
            self.w.set(c, v);
        }
        while let Some(Reverse(k)) = self.heap.pop() {
            let ck = slot(k);
            let wk = self.w.get(ck);
            // lint: allow(float-eq): skips exactly cancelled multipliers
            if wk == 0.0 {
                self.w.drop_pos(ck);
                continue;
            }
            let p = slot_of(k);
            let mult = wk / store.diag[p];
            self.meter.elim_flops += 1.0;
            // First dropping rule.
            if mult.abs() < tau_i {
                self.meter.dropped_rule1 += 1;
                self.w.drop_pos(ck);
                continue;
            }
            self.w.set(ck, mult);
            // w -= mult * u_k (strict upper part of the pivot row).
            let urow = store.u.entries(p);
            let cost = 2.0 * urow.len() as f64;
            for (s, uv) in urow {
                let j = col_of(s);
                // The store slot is the working-row slot of every serial
                // column and of a rank's interiors: only interface columns
                // read the numbering.
                let c = space.map_or(s, |space| space.slot_at(s, j));
                let newly = !self.w.contains(c);
                self.w.add(c, -mult * uv);
                if newly && eligible(j) {
                    self.heap.push(Reverse(j));
                }
            }
            self.meter.pivots_applied += 1;
            self.meter.elim_flops += cost;
            work(cost + 1.0);
        }
        let col = |s| space.map_or(s, |space| space.col(s));
        self.w.drain_sorted_by_into(&mut self.entries, col);
        self.meter.select_flops += selection_cost(self.entries.len());
        work(selection_cost(self.entries.len()));
        self.lower.clear();
        self.upper.clear();
        let (mut diag, mut has_diag) = (0.0, false);
        for &e in &self.entries {
            if Some(e.col()) == pivot {
                (diag, has_diag) = (e.val(), true);
            } else if eligible(e.col()) {
                self.lower.push(e);
            } else {
                self.upper.push(e);
            }
        }
        (diag, has_diag)
    }

    /// Factors row `i` of `a` against the rows already in `store` and
    /// appends it: [`reduce`](Self::reduce), pivot repair, then the second
    /// dropping rule — the `opts.m` largest magnitudes of each of `lower`
    /// and `upper`, the pivot already split out, so the cap sees its input
    /// in ascending column order (that order is its tie rule).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn factor_row(
        &mut self,
        a: &CsrMatrix,
        i: usize,
        opts: &IlutOptions,
        eligible: impl Fn(usize) -> bool,
        store: &mut FactorStore,
        slot_of: impl Fn(usize) -> usize,
        col_of: impl Fn(usize) -> usize,
        work: &mut impl FnMut(f64),
    ) {
        let norm_i = a.row_norm2(i);
        let tau_i = opts.tau * norm_i;
        let (mut diag, has_diag) = self.reduce(
            a.row(i),
            tau_i,
            Some(i),
            eligible,
            store,
            &slot_of,
            col_of,
            work,
        );
        let fallback = if tau_i > 0.0 { tau_i } else { 1.0 };
        self.doctor.repair_or_defer(
            i,
            norm_i,
            has_diag,
            &mut diag,
            &mut self.lower,
            &mut self.upper,
            &mut self.fault,
            fallback,
        );
        threshold_and_cap_in_place(&mut self.lower, tau_i, opts.m, None);
        threshold_and_cap_in_place(&mut self.upper, tau_i, opts.m, None);
        store.push_row(&self.lower, diag, &self.upper, slot_of);
    }
}
