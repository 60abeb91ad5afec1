//! Dense tile micro-kernels for the blocked (BCSR) storage and the blocked
//! factorization built on it.
//!
//! A *tile* is a small `b × b` dense matrix stored row-major in a `&[f64]`
//! of length `b²`, with `b ≤ 4` ([`MAX_BLOCK`]). Every kernel here is a
//! straight-line dense loop — no index arrays in the inner loop — so the
//! compiler can keep the tile in registers and vectorize; [`gemm_sub`],
//! the one kernel the elimination calls per stored tile, dispatches on `b`
//! to a monomorphized const-generic body for the supported block sizes.
//!
//! Invariants shared by all kernels (the "micro-kernel contract"):
//!
//! * tiles are row-major, entry `(r, c)` at `t[r*b + c]`;
//! * kernels never allocate and never branch on values (except the pivot
//!   checks in [`lu_factor`]), so their flop count is a function of `b`
//!   alone — the cost-model hooks can price them exactly;
//! * for `b = 1` every kernel degenerates to the scalar operation with the
//!   *same floating-point expression tree* (e.g. [`lu_right_solve`] is one
//!   division), which is what makes the blocked ILUT bitwise-identical to
//!   the scalar one at block size 1.

/// Largest supported tile dimension (the occupancy masks in
/// [`crate::bcsr::BcsrMatrix`] are `u16`, one bit per tile slot).
pub const MAX_BLOCK: usize = 4;

#[inline(always)]
fn gemm_sub_fixed<const B: usize>(c: &mut [f64], a: &[f64], x: &[f64]) {
    for i in 0..B {
        for k in 0..B {
            let aik = a[i * B + k];
            for j in 0..B {
                c[i * B + j] -= aik * x[k * B + j];
            }
        }
    }
}

/// Rank-`b` tile update `C -= A · X` on `b × b` row-major tiles.
///
/// This is the inner kernel of the blocked ILUT elimination: the working
/// row's tile at column `j` absorbs `-M · U_kj`.
#[inline]
pub fn gemm_sub(b: usize, c: &mut [f64], a: &[f64], x: &[f64]) {
    match b {
        1 => c[0] -= a[0] * x[0],
        2 => gemm_sub_fixed::<2>(c, a, x),
        3 => gemm_sub_fixed::<3>(c, a, x),
        4 => gemm_sub_fixed::<4>(c, a, x),
        _ => {
            for i in 0..b {
                for k in 0..b {
                    let aik = a[i * b + k];
                    for j in 0..b {
                        c[i * b + j] -= aik * x[k * b + j];
                    }
                }
            }
        }
    }
}

/// Factors a `b × b` tile in place into `L\U` (Doolittle, no pivoting: unit
/// lower multipliers below the diagonal, `U` on and above).
///
/// No pivoting is deliberate: the scalar ILUT divides by the diagonal as-is,
/// and the blocked factorization must reduce to it bitwise at `b = 1`;
/// unusable pivots are a *breakdown*, resolved by the caller's
/// `PivotDoctor` policy, not silently permuted away. On an exactly-zero or
/// non-finite pivot, returns `Err(lane)` with the offending lane index; the
/// tile is left partially factored and must be rebuilt before retrying.
pub fn lu_factor(b: usize, t: &mut [f64]) -> Result<(), usize> {
    for k in 0..b {
        let piv = t[k * b + k];
        // lint: allow(float-eq): exact zero-pivot test, as in the scalar kernels
        if !piv.is_finite() || piv == 0.0 {
            return Err(k);
        }
        for i in k + 1..b {
            let m = t[i * b + k] / piv;
            t[i * b + k] = m;
            for j in k + 1..b {
                t[i * b + j] -= m * t[k * b + j];
            }
        }
    }
    Ok(())
}

/// Solves `M · A = B` in place (`m` holds `B` on entry, `M = B · A⁻¹` on
/// exit) given `lu = ` [`lu_factor`]`(A)` — the tile-inverse application
/// computing the blocked ILUT multiplier `M = W_k · U_kk⁻¹`.
///
/// For `b = 1` this is exactly one division `m[0] / lu[0]`, matching the
/// scalar ILUT's `w_k / u_kk` bitwise.
#[inline]
pub fn lu_right_solve(b: usize, lu: &[f64], m: &mut [f64]) {
    for r in 0..b {
        let row = &mut m[r * b..(r + 1) * b];
        // Z = B · U⁻¹ (columns left to right).
        for j in 0..b {
            let mut s = row[j];
            for t in 0..j {
                s -= row[t] * lu[t * b + j];
            }
            row[j] = s / lu[j * b + j];
        }
        // M = Z · L⁻¹ (unit lower; columns right to left).
        for j in (0..b).rev() {
            let mut s = row[j];
            for t in j + 1..b {
                s -= row[t] * lu[t * b + j];
            }
            row[j] = s;
        }
    }
}

/// Sum of squares of a tile's entries (the squared Frobenius norm).
#[inline]
pub fn frob_sq(t: &[f64]) -> f64 {
    t.iter().map(|v| v * v).sum()
}

/// The magnitude a blocked dropping rule compares against: `|t₀₀|` for
/// `b = 1` (so the rule is bitwise the scalar one — `sqrt(x·x)` is not
/// guaranteed to round back to `|x|`), the Frobenius norm otherwise.
#[inline]
pub fn tile_mag(b: usize, t: &[f64]) -> f64 {
    if b == 1 {
        t[0].abs()
    } else {
        frob_sq(t).sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn approx(a: &[f64], b: &[f64], tol: f64) {
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b) {
            assert!((x - y).abs() < tol, "{a:?} != {b:?}");
        }
    }

    #[test]
    fn gemm_sub_matches_reference() {
        for b in 1..=4usize {
            let a: Vec<f64> = (0..b * b).map(|i| (i as f64) * 0.5 - 1.0).collect();
            let x: Vec<f64> = (0..b * b).map(|i| (i as f64) * 0.25 + 0.5).collect();
            let mut c = vec![1.0; b * b];
            let mut want = c.clone();
            for i in 0..b {
                for j in 0..b {
                    for k in 0..b {
                        want[i * b + j] -= a[i * b + k] * x[k * b + j];
                    }
                }
            }
            gemm_sub(b, &mut c, &a, &x);
            approx(&c, &want, 1e-14);
        }
    }

    #[test]
    fn lu_factor_reconstructs_the_tile() {
        // A diagonally dominant 4x4 tile.
        let a = [
            5.0, 1.0, 0.5, 0.0, //
            1.0, 6.0, 1.0, 0.5, //
            0.0, 1.0, 7.0, 1.0, //
            0.5, 0.0, 1.0, 8.0,
        ];
        let mut lu = a;
        lu_factor(4, &mut lu).expect("nonsingular");
        // (L·U)_ij with unit-lower L below the packed diagonal, U on and above.
        let mut back = [0.0; 16];
        for i in 0..4 {
            for j in 0..4 {
                for k in 0..=i.min(j) {
                    let l = if k == i { 1.0 } else { lu[i * 4 + k] };
                    back[i * 4 + j] += l * lu[k * 4 + j];
                }
            }
        }
        approx(&back, &a, 1e-12);
    }

    #[test]
    fn right_solve_is_right_division() {
        let a = [4.0, 1.0, -1.0, 3.0];
        let mut lu = a;
        lu_factor(2, &mut lu).expect("nonsingular");
        let m_true = [2.0, -1.0, 0.5, 1.5];
        // B = M_true * A.
        let mut bmat = [0.0; 4];
        for i in 0..2 {
            for j in 0..2 {
                for k in 0..2 {
                    bmat[i * 2 + j] += m_true[i * 2 + k] * a[k * 2 + j];
                }
            }
        }
        lu_right_solve(2, &lu, &mut bmat);
        approx(&bmat, &m_true, 1e-12);
    }

    #[test]
    fn right_solve_b1_is_one_division() {
        let mut m = [0.3];
        lu_right_solve(1, &[7.0], &mut m);
        assert_eq!(m[0], 0.3 / 7.0);
    }

    #[test]
    fn zero_pivot_reports_lane() {
        // Lane 1 pivot becomes exactly zero after eliminating lane 0.
        let mut t = [2.0, 1.0, 4.0, 2.0];
        assert_eq!(lu_factor(2, &mut t), Err(1));
        let mut nf = [f64::NAN, 0.0, 0.0, 1.0];
        assert_eq!(lu_factor(2, &mut nf), Err(0));
    }

    #[test]
    fn tile_mag_b1_is_abs() {
        assert_eq!(tile_mag(1, &[-3.5]), 3.5);
        assert!((tile_mag(2, &[3.0, 0.0, 4.0, 0.0]) - 5.0).abs() < 1e-15);
    }
}
