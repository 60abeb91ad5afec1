//! Shared breakdown handling for every factorization kernel.
//!
//! All kernels (serial ILUT/ILU(0)/ILU(k) and the parallel ILUT
//! formulations) route unusable pivots through one [`PivotDoctor`] so a
//! given [`BreakdownPolicy`] means exactly the same thing everywhere:
//! serial and parallel factors of the same matrix stay comparable, and the
//! tests for one kernel's recovery carry over to the others.

use crate::options::{BreakdownPolicy, FactorError};

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

/// What the caller must do about an unusable pivot.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum PivotFix {
    /// Use this value as the pivot (diagonal boost); the rest of the row
    /// stands.
    Shift(f64),
    /// Replace the entire factor row with a scaled identity row: no `L`
    /// entries, no strict-`U` entries, this diagonal.
    ReplaceRow(f64),
}

/// Per-factorization breakdown state: applies the policy, escalates the
/// shift geometrically, and counts repairs.
#[derive(Clone, Debug)]
pub struct PivotDoctor {
    policy: BreakdownPolicy,
    /// Rows repaired so far (drives geometric escalation under `Shift`).
    repairs: usize,
    /// Non-finite off-diagonal entries discarded so far.
    scrubbed: usize,
}

impl PivotDoctor {
    /// A doctor applying `policy` for one factorization.
    pub fn new(policy: BreakdownPolicy) -> Self {
        PivotDoctor {
            policy,
            repairs: 0,
            scrubbed: 0,
        }
    }

    /// Rows repaired so far — goes into
    /// [`crate::options::FactorStats::breakdowns_repaired`].
    pub fn repairs(&self) -> usize {
        self.repairs
    }

    /// Resolves an unusable pivot at `row`. `scale` is a positive magnitude
    /// reference for the row (usually `‖a_row‖₂`); callers pass 1 when the
    /// row is entirely zero. Under [`BreakdownPolicy::Abort`] this returns
    /// the typed error; under the recovery policies it says how to repair
    /// the row and counts the repair.
    pub fn resolve(
        &mut self,
        row: usize,
        fault: PivotFault,
        scale: f64,
    ) -> Result<PivotFix, FactorError> {
        debug_assert!(scale > 0.0 && scale.is_finite(), "scale must be usable");
        match self.policy {
            BreakdownPolicy::Abort => Err(match fault {
                PivotFault::Zero => FactorError::ZeroPivot { row },
                PivotFault::StructurallyMissing => FactorError::StructurallySingular { row },
                PivotFault::NonFinite => FactorError::NonFinite { row },
            }),
            BreakdownPolicy::Shift { initial, growth } => {
                let boost = initial * growth.powi(self.repairs as i32) * scale;
                self.repairs += 1;
                Ok(PivotFix::Shift(boost))
            }
            BreakdownPolicy::ReplaceRow => {
                self.repairs += 1;
                Ok(PivotFix::ReplaceRow(scale))
            }
        }
    }

    /// Scrubs non-finite values from a row's retained entries. Under
    /// [`BreakdownPolicy::Abort`] a non-finite entry is fatal; the recovery
    /// policies discard such entries (counting them) and let the pivot
    /// check deal with the diagonal.
    pub fn scrub_row(
        &mut self,
        row: usize,
        entries: &mut Vec<(usize, f64)>,
    ) -> Result<(), FactorError> {
        if entries.iter().all(|&(_, v)| v.is_finite()) {
            return Ok(());
        }
        if self.policy == BreakdownPolicy::Abort {
            return Err(FactorError::NonFinite { row });
        }
        let before = entries.len();
        entries.retain(|&(_, v)| v.is_finite());
        self.scrubbed += before - entries.len();
        Ok(())
    }

    /// A positive, finite magnitude reference from a row norm that may be
    /// zero or polluted.
    pub fn usable_scale(norm: f64) -> f64 {
        if norm.is_finite() && norm > 0.0 {
            norm
        } else {
            1.0
        }
    }

    /// The complete per-row repair step shared by the serial kernels:
    /// scrub non-finite entries from the retained `lower`/`upper` parts,
    /// classify the pivot (`upper` is diagonal-first when the diagonal
    /// exists), and apply the policy. `norm` is the original row's 2-norm.
    /// After `Ok(())`, `upper` is non-empty and starts with a finite,
    /// non-zero diagonal.
    pub fn repair_row(
        &mut self,
        row: usize,
        norm: f64,
        lower: &mut Vec<(usize, f64)>,
        upper: &mut Vec<(usize, f64)>,
    ) -> Result<(), FactorError> {
        self.scrub_row(row, lower)?;
        self.scrub_row(row, upper)?;
        let diag_present = upper.first().map(|&(c, _)| c) == Some(row);
        let fault = if !diag_present {
            Some(PivotFault::StructurallyMissing)
        } else if !upper[0].1.is_finite() {
            Some(PivotFault::NonFinite)
        // lint: allow(float-eq): exact zero-pivot test
        } else if upper[0].1 == 0.0 {
            Some(PivotFault::Zero)
        } else {
            None
        };
        let Some(fault) = fault else { return Ok(()) };
        match self.resolve(row, fault, Self::usable_scale(norm))? {
            PivotFix::Shift(boost) => {
                if diag_present {
                    upper[0].1 = boost;
                } else {
                    upper.insert(0, (row, boost));
                }
            }
            PivotFix::ReplaceRow(diag) => {
                lower.clear();
                upper.clear();
                upper.push((row, diag));
            }
        }
        Ok(())
    }

    /// Collective-safe variant of [`repair_row`](Self::repair_row) for the
    /// distributed kernels. A rank meeting a fault there cannot return
    /// early — its peers would strand inside the next collective — so under
    /// [`BreakdownPolicy::Abort`] the first fault is recorded in `pending`
    /// and the pivot patched with `fallback` so the rank keeps marching to
    /// the collective error check. The recovery policies repair in place
    /// exactly like `repair_row` and leave `pending` untouched.
    #[allow(clippy::too_many_arguments)]
    pub fn repair_or_defer(
        &mut self,
        row: usize,
        norm: f64,
        has_diag: bool,
        diag: &mut f64,
        lower: &mut Vec<(usize, f64)>,
        upper: &mut Vec<(usize, f64)>,
        pending: &mut Option<(usize, PivotFault)>,
        fallback: f64,
    ) {
        let off_poisoned = lower
            .iter()
            .chain(upper.iter())
            .any(|&(_, v)| !v.is_finite());
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
        if self.policy == BreakdownPolicy::Abort {
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
            return;
        }
        if off_poisoned {
            let before = lower.len() + upper.len();
            lower.retain(|&(_, v)| v.is_finite());
            upper.retain(|&(_, v)| v.is_finite());
            self.scrubbed += before - (lower.len() + upper.len());
        }
        let Some(fault) = pivot_fault else { return };
        match self.resolve(row, fault, Self::usable_scale(norm)) {
            Ok(PivotFix::Shift(boost)) => *diag = boost,
            Ok(PivotFix::ReplaceRow(d)) => {
                lower.clear();
                upper.clear();
                *diag = d;
            }
            Err(_) => unreachable!("recovery policies never abort"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn abort_maps_faults_to_typed_errors() {
        let mut d = PivotDoctor::new(BreakdownPolicy::Abort);
        assert_eq!(
            d.resolve(3, PivotFault::Zero, 1.0),
            Err(FactorError::ZeroPivot { row: 3 })
        );
        assert_eq!(
            d.resolve(4, PivotFault::StructurallyMissing, 1.0),
            Err(FactorError::StructurallySingular { row: 4 })
        );
        assert_eq!(
            d.resolve(5, PivotFault::NonFinite, 1.0),
            Err(FactorError::NonFinite { row: 5 })
        );
        assert_eq!(d.repairs(), 0);
    }

    #[test]
    fn shift_escalates_geometrically() {
        let mut d = PivotDoctor::new(BreakdownPolicy::Shift {
            initial: 1e-4,
            growth: 10.0,
        });
        let b0 = match d.resolve(0, PivotFault::Zero, 2.0) {
            Ok(PivotFix::Shift(b)) => b,
            other => panic!("unexpected {other:?}"),
        };
        let b1 = match d.resolve(1, PivotFault::Zero, 2.0) {
            Ok(PivotFix::Shift(b)) => b,
            other => panic!("unexpected {other:?}"),
        };
        assert!((b0 - 2e-4).abs() < 1e-18);
        assert!((b1 - 2e-3).abs() < 1e-17, "second repair escalates ×10");
        assert_eq!(d.repairs(), 2);
    }

    #[test]
    fn replace_row_uses_the_scale_as_pivot() {
        let mut d = PivotDoctor::new(BreakdownPolicy::ReplaceRow);
        assert_eq!(
            d.resolve(7, PivotFault::NonFinite, 3.5),
            Ok(PivotFix::ReplaceRow(3.5))
        );
    }

    #[test]
    fn scrub_removes_nonfinite_under_recovery_only() {
        let mut strict = PivotDoctor::new(BreakdownPolicy::Abort);
        let mut row = vec![(0, 1.0), (1, f64::NAN)];
        assert_eq!(
            strict.scrub_row(9, &mut row),
            Err(FactorError::NonFinite { row: 9 })
        );
        let mut lenient = PivotDoctor::new(BreakdownPolicy::shift());
        let mut row = vec![(0, 1.0), (1, f64::NAN), (2, f64::INFINITY)];
        lenient.scrub_row(9, &mut row).unwrap();
        assert_eq!(row, vec![(0, 1.0)]);
    }

    #[test]
    fn usable_scale_guards_zero_and_nan() {
        assert_eq!(PivotDoctor::usable_scale(2.0), 2.0);
        assert_eq!(PivotDoctor::usable_scale(0.0), 1.0);
        assert_eq!(PivotDoctor::usable_scale(f64::NAN), 1.0);
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

    #[test]
    fn defer_records_the_first_fault_and_patches_the_pivot() {
        let mut d = PivotDoctor::new(BreakdownPolicy::Abort);
        let mut pending = None;
        let mut diag = 0.0;
        let (mut lo, mut up) = (vec![], vec![]);
        d.repair_or_defer(4, 1.0, true, &mut diag, &mut lo, &mut up, &mut pending, 0.5);
        assert_eq!(pending, Some((4, PivotFault::Zero)));
        assert_eq!(diag, 0.5, "placeholder keeps the rank marching");
        // A later fault must not overwrite the first.
        let mut diag2 = f64::NAN;
        d.repair_or_defer(
            9,
            1.0,
            true,
            &mut diag2,
            &mut lo,
            &mut up,
            &mut pending,
            0.5,
        );
        assert_eq!(pending, Some((4, PivotFault::Zero)));
    }

    #[test]
    fn defer_repairs_in_place_under_recovery() {
        let mut d = PivotDoctor::new(BreakdownPolicy::shift());
        let mut pending = None;
        let mut diag = 0.0;
        let mut lo = vec![(0, f64::NAN)];
        let mut up = vec![(3, 1.0)];
        d.repair_or_defer(2, 4.0, true, &mut diag, &mut lo, &mut up, &mut pending, 1.0);
        assert_eq!(pending, None, "recovery never flags the collective abort");
        assert!(diag > 0.0 && diag.is_finite());
        assert!(lo.is_empty(), "non-finite multiplier scrubbed");
        assert_eq!(d.repairs(), 1);
    }
}
