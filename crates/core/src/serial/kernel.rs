//! The scalar ILUT row kernel — the one elimination loop behind both
//! [`crate::serial::ilut`] and phase 1 of [`crate::parallel::par_ilut`].
//!
//! A row is loaded into the working row, eliminated against the already
//! factored rows of a [`FactorStore`] in ascending pivot order (heap-driven,
//! dropping rule 1 on every multiplier), drained, split into multipliers /
//! pivot / rest, repaired by the [`PivotDoctor`], capped (dropping rule 2)
//! and pushed. The store's slot numbering is the caller's: `slot_of` maps a
//! column to the slot of its factored row and `col_of` maps back, both the
//! identity for the serial factorization. Modelled work is reported to a
//! caller-supplied `work` sink in the order it is spent, so the distributed
//! caller can charge its logical clock and the serial one can ignore it.

use crate::breakdown::{PivotDoctor, PivotFault};
use crate::factors::FactorStore;
use crate::options::IlutOptions;
use crate::parallel::LevelStats;
use crate::serial::drop_rules::{selection_cost, threshold_and_cap_in_place};
use pilut_sparse::{CsrMatrix, WorkRow};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Per-factorization state of the row kernel: the scratch reused across
/// rows (everything that outlives a row is copied out at exact size), the
/// breakdown state and the work meter.
pub(crate) struct IlutRow {
    pub(crate) w: WorkRow,
    /// Min-heap of pivot columns still to eliminate in the current row,
    /// with a membership marker so each is pushed at most once.
    heap: BinaryHeap<Reverse<usize>>,
    in_heap: Vec<bool>,
    /// The drained working row and its two parts.
    pub(crate) entries: Vec<(usize, f64)>,
    pub(crate) lower: Vec<(usize, f64)>,
    pub(crate) upper: Vec<(usize, f64)>,
    pub(crate) doctor: PivotDoctor,
    /// First unusable pivot met (only set under `BreakdownPolicy::Abort`):
    /// the serial driver returns it at once, a rank defers it to the next
    /// collective error check.
    pub(crate) fault: Option<(usize, PivotFault)>,
    /// Modelled work since the meter was last taken: the flop split and
    /// the pivot counts of a [`LevelStats`] entry (the serial driver never
    /// takes it and reads its total; a rank takes it once per level).
    pub(crate) meter: LevelStats,
}

impl IlutRow {
    pub(crate) fn new(n: usize, opts: &IlutOptions) -> Self {
        IlutRow {
            w: WorkRow::new(n),
            heap: BinaryHeap::new(),
            in_heap: vec![false; n],
            entries: Vec::new(),
            lower: Vec::new(),
            upper: Vec::new(),
            doctor: PivotDoctor::new(opts.breakdown),
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
        (cols, vals): (&[usize], &[f64]),
        tau_i: f64,
        pivot: Option<usize>,
        eligible: impl Fn(usize) -> bool,
        store: &FactorStore,
        slot_of: impl Fn(usize) -> usize,
        col_of: impl Fn(usize) -> usize,
        work: &mut impl FnMut(f64),
    ) -> (f64, bool) {
        debug_assert!(self.heap.is_empty(), "heap drained by the previous row");
        for (&j, &v) in cols.iter().zip(vals) {
            self.w.set(j, v);
            if eligible(j) && !self.in_heap[j] {
                self.in_heap[j] = true;
                self.heap.push(Reverse(j));
            }
        }
        while let Some(Reverse(k)) = self.heap.pop() {
            self.in_heap[k] = false;
            let wk = self.w.get(k);
            // lint: allow(float-eq): skips exactly cancelled multipliers
            if wk == 0.0 {
                self.w.drop_pos(k);
                continue;
            }
            let p = slot_of(k);
            let mult = wk / store.diag[p];
            self.meter.elim_flops += 1.0;
            // First dropping rule.
            if mult.abs() < tau_i {
                self.meter.dropped_rule1 += 1;
                self.w.drop_pos(k);
                continue;
            }
            self.w.set(k, mult);
            // w -= mult * u_k (strict upper part of the pivot row).
            let urow = store.u.entries(p);
            let cost = 2.0 * urow.len() as f64;
            for (s, uv) in urow {
                let j = col_of(s);
                let newly = !self.w.contains(j);
                self.w.add(j, -mult * uv);
                if newly && eligible(j) && !self.in_heap[j] {
                    self.in_heap[j] = true;
                    self.heap.push(Reverse(j));
                }
            }
            self.meter.pivots_applied += 1;
            self.meter.elim_flops += cost;
            work(cost + 1.0);
        }
        self.w.drain_sorted_into(&mut self.entries);
        self.meter.select_flops += selection_cost(self.entries.len());
        work(selection_cost(self.entries.len()));
        self.lower.clear();
        self.upper.clear();
        let (mut diag, mut has_diag) = (0.0, false);
        for &(j, v) in &self.entries {
            if Some(j) == pivot {
                (diag, has_diag) = (v, true);
            } else if eligible(j) {
                self.lower.push((j, v));
            } else {
                self.upper.push((j, v));
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
