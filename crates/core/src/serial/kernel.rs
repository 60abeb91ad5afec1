//! The scalar row kernel — the one loop that eliminates a row against
//! factored pivots. It runs every row of serial [`crate::serial::ilut`]
//! and [`crate::serial::ilu0()`] and phase 1 of
//! [`crate::parallel::par_ilut`] and [`crate::parallel::par_ilu0`]; the
//! interface level loop borrows its scratch, breakdown state and meter.
//!
//! A row is loaded into the working row, eliminated against the already
//! factored rows of a [`FactorStore`] in ascending pivot order (heap-driven,
//! dropping rule 1 on every multiplier), drained, split into multipliers /
//! pivot / rest, repaired by the [`PivotDoctor`], capped (dropping rule 2)
//! and pushed. The [`Rule`] the kernel was built with says what a row may
//! hold: ILUT's fill and dropping rules, or ILU(0)'s pattern of `A`. The
//! store's slot numbering is the caller's: `slot_of` maps a column to the
//! slot of its factored row and `col_of` maps back, both the identity for
//! the serial factorizations. The working row has a slot per column for
//! the serial factorizations and a slot per column of the rank's column
//! space ([`LocalView::slot`]) for the distributed ones. The kernel only
//! meters its modelled work; the distributed caller pays its logical clock
//! from the meter once per communication-free span, and the serial one
//! reads the total.

use crate::breakdown::{PivotDoctor, PivotFault};
use crate::dist::LocalView;
use crate::factors::FactorStore;
use crate::options::{BreakdownPolicy, FactorError, IlutOptions};
use crate::parallel::LevelStats;
use crate::serial::drop_rules::{selection_cost, threshold_and_cap_in_place};
use pilut_sparse::{CsrMatrix, Entry, WorkRow};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// What a factored row may hold — the one difference between the
/// factorizations that share the row kernel and the interface level loop;
/// the match arms on it are the whole of that difference.
#[derive(Clone, Copy)]
pub(crate) enum Rule<'o> {
    /// ILUT / ILUT\*: fill is kept where the dropping rules of `opts` let
    /// it; an unusable pivot is handled under `opts.breakdown`.
    Ilut(&'o IlutOptions),
    /// ILU(0): the pattern of `A` and nothing else. A multiplier that
    /// cancelled to exactly zero keeps its position, an update lands only
    /// where the working row already holds one, no dropping rule runs and
    /// no selection is charged, and an unusable pivot aborts. With a zero
    /// threshold and no cap, rule 1 and the `2m` re-selection never fire.
    Pattern,
}

impl Rule<'_> {
    /// Rejects options no rank or row could run with.
    pub(crate) fn validate(self) -> Result<(), FactorError> {
        match self {
            Rule::Ilut(opts) => opts.validate(),
            Rule::Pattern => Ok(()),
        }
    }

    /// The dropping threshold of a row of 2-norm `norm`.
    pub(crate) fn tau(self, norm: f64) -> f64 {
        match self {
            Rule::Ilut(opts) => opts.tau * norm,
            Rule::Pattern => 0.0,
        }
    }

    /// Whether a row may gain positions outside the pattern of `A`.
    pub(crate) fn fills(self) -> bool {
        matches!(self, Rule::Ilut(_))
    }

    /// `w -= mult · u` over the columns of `u` (global ids), or, under the
    /// fixed pattern, over those `w` already holds.
    pub(crate) fn update(
        self,
        w: &mut WorkRow,
        local: &LocalView,
        mult: f64,
        u: impl IntoIterator<Item = (usize, f64)>,
    ) {
        for (j, uv) in u {
            let s = local.slot(j);
            if self.fills() || w.contains(s) {
                w.add(s, -mult * uv);
            }
        }
    }
}

/// Per-factorization state of the row kernel: the rule, the scratch reused
/// across rows (everything that outlives a row is copied out at exact
/// size), the breakdown state and the work meter. The interface level loop
/// uses them without the elimination loop.
pub(crate) struct IlutRow<'a> {
    pub(crate) rule: Rule<'a>,
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
    /// A kernel under `rule` for rows of `n` columns, or for the rows of
    /// the rank `space` views, whose working row then spans its column
    /// space.
    pub(crate) fn new(n: usize, space: Option<&'a LocalView>, rule: Rule<'a>) -> Self {
        let policy = match rule {
            Rule::Ilut(opts) => opts.breakdown,
            Rule::Pattern => BreakdownPolicy::Abort,
        };
        IlutRow {
            rule,
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
    /// column joins in where the rule lets fill in — and splits what is
    /// left: the multipliers into `lower`, column `pivot` (if any) into the
    /// returned `(value, stored)`, everything else into `upper`, each
    /// ascending.
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
    ) -> (f64, bool) {
        debug_assert!(self.heap.is_empty(), "heap drained by the previous row");
        let (space, fills) = (self.space, self.rule.fills());
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
            // ILUT skips an exactly cancelled multiplier; ILU(0) keeps its
            // position, being defined by structure alone.
            // lint: allow(float-eq): skips exactly cancelled multipliers
            if wk == 0.0 && fills {
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
                if newly && !fills {
                    continue;
                }
                self.w.add(c, -mult * uv);
                if newly && eligible(j) {
                    self.heap.push(Reverse(j));
                }
            }
            self.meter.pivots_applied += 1;
            self.meter.elim_flops += cost;
        }
        let col = |s| space.map_or(s, |space| space.col(s));
        self.w.drain_sorted_by_into(&mut self.entries, col);
        if fills {
            self.meter.select_flops += selection_cost(self.entries.len());
        }
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
    /// appends it: [`reduce`](Self::reduce), pivot repair, then, under
    /// ILUT, the second dropping rule — the `opts.m` largest magnitudes of
    /// each of `lower` and `upper`, the pivot already split out, so the cap
    /// sees its input in ascending column order (that order is its tie
    /// rule). ILU(0) skips it: it would drop the pattern's stored zeros.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn factor_row(
        &mut self,
        a: &CsrMatrix,
        i: usize,
        eligible: impl Fn(usize) -> bool,
        store: &mut FactorStore,
        slot_of: impl Fn(usize) -> usize,
        col_of: impl Fn(usize) -> usize,
    ) {
        let norm_i = a.row_norm2(i);
        let tau_i = self.rule.tau(norm_i);
        let (mut diag, has_diag) =
            self.reduce(a.row(i), tau_i, Some(i), eligible, store, &slot_of, col_of);
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
        if let Rule::Ilut(opts) = self.rule {
            threshold_and_cap_in_place(&mut self.lower, tau_i, opts.m, None);
            threshold_and_cap_in_place(&mut self.upper, tau_i, opts.m, None);
        }
        store.push_row(&self.lower, diag, &self.upper, slot_of);
    }
}
