//! Shared breakdown handling for every factorization kernel.
//!
//! All kernels (serial ILUT/ILU(0) and the parallel ILUT and ILU(0)
//! formulations) route every factored row through one repair step,
//! [`PivotDoctor::repair_or_defer`], so a given [`BreakdownPolicy`] means
//! exactly the same thing everywhere: serial and parallel factors of the
//! same matrix stay comparable, and the tests for one kernel's recovery
//! carry over to the others.

use crate::options::{BreakdownPolicy, FactorError};
use pilut_sparse::Entry;

/// First pivot boost of [`BreakdownPolicy::Shift`], relative to the row's
/// 2-norm.
const SHIFT_INITIAL: f64 = 1e-4;
/// Escalation of the boost per repaired pivot within one factorization.
const SHIFT_GROWTH: f64 = 100.0;

/// Why a pivot is unusable.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum PivotFault {
    /// The diagonal position exists but carries exactly 0.
    Zero,
    /// The row has no diagonal position at all and elimination created no
    /// fill on it.
    StructurallyMissing,
    /// The computed pivot is NaN or infinite.
    NonFinite,
}

impl PivotFault {
    /// Two-bit wire code used when the distributed kernels min-reduce the
    /// globally first fault as `row << 2 | code`.
    pub fn code(self) -> u64 {
        match self {
            PivotFault::Zero => 0,
            PivotFault::StructurallyMissing => 1,
            PivotFault::NonFinite => 2,
        }
    }

    /// Inverse of [`PivotFault::code`]; unknown codes decode as `Zero`.
    pub fn from_code(code: u64) -> Self {
        match code {
            1 => PivotFault::StructurallyMissing,
            2 => PivotFault::NonFinite,
            _ => PivotFault::Zero,
        }
    }

    /// The matching [`FactorError`] at a given global row.
    pub fn error_at(self, row: usize) -> FactorError {
        match self {
            PivotFault::Zero => FactorError::ZeroPivot { row },
            PivotFault::StructurallyMissing => FactorError::StructurallySingular { row },
            PivotFault::NonFinite => FactorError::NonFinite { row },
        }
    }
}

/// Per-factorization breakdown state: applies the policy, escalates the
/// shift geometrically, and counts repairs.
#[derive(Clone, Debug)]
pub struct PivotDoctor {
    policy: BreakdownPolicy,
    /// Rows repaired so far (drives geometric escalation under `Shift`).
    repairs: usize,
}

impl PivotDoctor {
    /// A doctor applying `policy` for one factorization.
    pub fn new(policy: BreakdownPolicy) -> Self {
        PivotDoctor { policy, repairs: 0 }
    }

    /// Rows repaired so far — goes into
    /// [`crate::options::FactorStats::breakdowns_repaired`].
    pub fn repairs(&self) -> usize {
        self.repairs
    }

    /// The one repair step of every kernel, for row `row` split into its
    /// pivot (`diag`, `has_diag` when the position exists), multipliers
    /// `lower` and strict-upper part `upper`; `norm` is the original row's
    /// 2-norm.
    ///
    /// Under [`BreakdownPolicy::Abort`] nothing is repaired: the first
    /// fault (an unusable pivot, or else a non-finite entry) is recorded
    /// in `pending`, and an unusable pivot is patched with `fallback`. A
    /// serial kernel returns the fault at once; a rank cannot — its peers
    /// would strand inside the next collective — so it keeps marching on
    /// the patched pivot to the collective error check.
    ///
    /// Under [`BreakdownPolicy::Shift`] non-finite entries are discarded
    /// and an unusable pivot becomes `1e-4 · 100^k · ‖a_row‖₂` for the
    /// `k`-th repair (`‖a_row‖₂` read as 1 when zero or non-finite),
    /// saturating at `f64::MAX`; `pending` is left untouched.
    #[allow(clippy::too_many_arguments)]
    pub fn repair_or_defer(
        &mut self,
        row: usize,
        norm: f64,
        has_diag: bool,
        diag: &mut f64,
        lower: &mut Vec<Entry>,
        upper: &mut Vec<Entry>,
        pending: &mut Option<(usize, PivotFault)>,
        fallback: f64,
    ) {
        let off_poisoned = lower
            .iter()
            .chain(upper.iter())
            .any(|e| !e.val().is_finite());
        let pivot_fault = if !has_diag {
            Some(PivotFault::StructurallyMissing)
        } else if !diag.is_finite() {
            Some(PivotFault::NonFinite)
        // lint: allow(float-eq): exact zero-pivot test
        } else if *diag == 0.0 {
            Some(PivotFault::Zero)
        } else {
            None
        };
        match self.policy {
            BreakdownPolicy::Abort => {
                let fault = if off_poisoned && pivot_fault.is_none() {
                    Some(PivotFault::NonFinite)
                } else {
                    pivot_fault
                };
                if let Some(fault) = fault {
                    if pending.is_none() {
                        *pending = Some((row, fault));
                    }
                    if pivot_fault.is_some() {
                        *diag = fallback; // keep marching to the collective abort
                    }
                }
            }
            BreakdownPolicy::Shift => {
                if off_poisoned {
                    lower.retain(|e| e.val().is_finite());
                    upper.retain(|e| e.val().is_finite());
                }
                if pivot_fault.is_some() {
                    let boost = SHIFT_INITIAL * SHIFT_GROWTH.powi(self.repairs as i32);
                    *diag = (boost * usable_scale(norm)).min(f64::MAX);
                    self.repairs += 1;
                }
            }
        }
    }
}

/// A positive, finite magnitude reference from a row norm that may be zero
/// or polluted.
fn usable_scale(norm: f64) -> f64 {
    if norm.is_finite() && norm > 0.0 {
        norm
    } else {
        1.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Runs one repair on a row with pivot `(has_diag, diag)`, multipliers
    /// `lower` and norm `norm`; returns the pivot and what was deferred.
    fn repair(
        d: &mut PivotDoctor,
        row: usize,
        norm: f64,
        (has_diag, mut diag): (bool, f64),
        lower: &mut Vec<Entry>,
    ) -> (f64, Option<(usize, PivotFault)>) {
        let mut pending = None;
        let mut upper = vec![Entry::new(row + 1, 1.0)];
        d.repair_or_defer(
            row,
            norm,
            has_diag,
            &mut diag,
            lower,
            &mut upper,
            &mut pending,
            0.5,
        );
        (diag, pending)
    }

    #[test]
    fn abort_defers_every_fault_kind_and_repairs_nothing() {
        let mut d = PivotDoctor::new(BreakdownPolicy::Abort);
        for (pivot, fault) in [
            ((true, 0.0), PivotFault::Zero),
            ((false, 0.0), PivotFault::StructurallyMissing),
            ((true, f64::NAN), PivotFault::NonFinite),
        ] {
            let (diag, pending) = repair(&mut d, 3, 1.0, pivot, &mut vec![]);
            assert_eq!(pending, Some((3, fault)));
            assert_eq!(diag, 0.5, "the placeholder keeps the rank marching");
        }
        // A poisoned multiplier is fatal too, but leaves a good pivot alone.
        let mut lower = vec![Entry::new(0, f64::INFINITY)];
        let (diag, pending) = repair(&mut d, 4, 1.0, (true, 2.0), &mut lower);
        assert_eq!((diag, pending), (2.0, Some((4, PivotFault::NonFinite))));
        assert_eq!(lower.len(), 1, "Abort scrubs nothing");
        assert_eq!(d.repairs(), 0);
    }

    #[test]
    fn abort_keeps_the_first_fault() {
        let mut d = PivotDoctor::new(BreakdownPolicy::Abort);
        let mut pending = None;
        let (mut lo, mut up) = (vec![], vec![]);
        for (row, mut diag) in [(4, 0.0), (9, f64::NAN)] {
            d.repair_or_defer(
                row,
                1.0,
                true,
                &mut diag,
                &mut lo,
                &mut up,
                &mut pending,
                0.5,
            );
        }
        assert_eq!(pending, Some((4, PivotFault::Zero)));
    }

    #[test]
    fn shift_escalates_geometrically() {
        let mut d = PivotDoctor::new(BreakdownPolicy::Shift);
        let (b0, p0) = repair(&mut d, 0, 2.0, (true, 0.0), &mut vec![]);
        let (b1, p1) = repair(&mut d, 1, 2.0, (false, 0.0), &mut vec![]);
        assert_eq!((p0, p1), (None, None), "Shift never flags the abort");
        assert!((b0 - 2e-4).abs() < 1e-18);
        assert!((b1 - 2e-2).abs() < 1e-16, "second repair escalates ×100");
        assert_eq!(d.repairs(), 2);
        // An all-zero row repairs against a unit scale.
        let (b2, _) = repair(&mut d, 2, 0.0, (true, f64::NAN), &mut vec![]);
        assert!((b2 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn shift_saturates_instead_of_overflowing() {
        let mut d = PivotDoctor::new(BreakdownPolicy::Shift);
        for row in 0..400 {
            let (b, _) = repair(&mut d, row, 3.0, (true, 0.0), &mut vec![]);
            assert!(b > 0.0 && b.is_finite(), "repair {row}: boost {b}");
        }
    }

    #[test]
    fn shift_scrubs_non_finite_entries_and_keeps_a_good_pivot() {
        let mut d = PivotDoctor::new(BreakdownPolicy::Shift);
        let mut lower = vec![Entry::new(0, f64::NAN), Entry::new(1, 1.0)];
        let (diag, pending) = repair(&mut d, 2, 4.0, (true, 3.0), &mut lower);
        assert_eq!((diag, pending), (3.0, None));
        assert_eq!(
            lower,
            vec![Entry::new(1, 1.0)],
            "non-finite multiplier scrubbed"
        );
        assert_eq!(d.repairs(), 0, "a scrub alone is no repair");
    }

    #[test]
    fn usable_scale_guards_zero_and_nan() {
        assert_eq!(usable_scale(2.0), 2.0);
        assert_eq!(usable_scale(0.0), 1.0);
        assert_eq!(usable_scale(f64::NAN), 1.0);
    }

    #[test]
    fn fault_codes_round_trip() {
        for fault in [
            PivotFault::Zero,
            PivotFault::StructurallyMissing,
            PivotFault::NonFinite,
        ] {
            assert_eq!(PivotFault::from_code(fault.code()), fault);
        }
        assert_eq!(
            PivotFault::NonFinite.error_at(5),
            FactorError::NonFinite { row: 5 }
        );
    }
}
