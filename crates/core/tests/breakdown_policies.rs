//! Breakdown-policy property tests: pathological matrices — zero
//! diagonals, exactly singular systems, symmetric indefinite systems —
//! driven through ILUT under both [`BreakdownPolicy`] values and through
//! ILU(0), which always aborts. The contract:
//!
//! * **No kernel ever panics** on these inputs. Under `Abort` the result
//!   may be a typed [`FactorError`]; under `Shift` the factorization must
//!   complete.
//! * **Whatever factors come back are finite** — the shift must not
//!   launder a breakdown into NaN/Inf factors, and the triangular solves
//!   on them must produce finite vectors.
//!
//! Matrices are generated from the in-tree seeded [`SplitMix64`], so every
//! failing case replays from its printed seed.

use pilut_core::options::{BreakdownPolicy, FactorError, IlutOptions};
use pilut_core::serial::{ilu0, ilut};
use pilut_sparse::{CooMatrix, CsrMatrix, SplitMix64};

/// The two policies under test.
const POLICIES: [BreakdownPolicy; 2] = [BreakdownPolicy::Abort, BreakdownPolicy::Shift];

/// Random sparse matrix whose diagonal is sabotaged: roughly a third of
/// the rows get an exactly-zero pivot, a third get no stored diagonal at
/// all, and the rest stay healthy and dominant.
fn zero_diag_matrix(rng: &mut SplitMix64) -> CsrMatrix {
    let n = 4 + rng.next_usize(12);
    let mut coo = CooMatrix::new(n, n);
    for i in 0..n {
        for _ in 0..1 + rng.next_usize(3) {
            let j = rng.next_usize(n);
            if j != i {
                let v = (rng.next_usize(40) as i32 - 20) as f64 / 10.0;
                if v != 0.0 {
                    coo.push(i, j, v);
                }
            }
        }
        match i % 3 {
            0 => coo.push(i, i, 0.0),
            1 => {} // structurally missing diagonal
            _ => coo.push(i, i, 8.0 + i as f64),
        }
    }
    coo.to_csr()
}

/// Exactly singular matrix: healthy dominant rows except one row copied
/// verbatim onto another (rank deficiency) and one row left entirely zero.
fn singular_matrix(rng: &mut SplitMix64) -> CsrMatrix {
    let n = 5 + rng.next_usize(10);
    let zero_row = rng.next_usize(n);
    let dup_src = (zero_row + 1) % n;
    let dup_dst = (zero_row + 2) % n;
    let mut rows: Vec<Vec<(usize, f64)>> = Vec::with_capacity(n);
    for i in 0..n {
        let mut r = vec![(i, 6.0 + (i % 4) as f64)];
        for _ in 0..2 {
            let j = rng.next_usize(n);
            if j != i {
                r.push((j, 1.0 + (rng.next_usize(20) as f64) / 10.0));
            }
        }
        rows.push(r);
    }
    rows[zero_row].clear();
    rows[dup_dst] = rows[dup_src].clone();
    let mut coo = CooMatrix::new(n, n);
    for (i, r) in rows.iter().enumerate() {
        let mut seen: Vec<usize> = Vec::new();
        for &(j, v) in r {
            if !seen.contains(&j) {
                seen.push(j);
                coo.push(i, j, v);
            }
        }
    }
    coo.to_csr()
}

/// Symmetric indefinite matrix: symmetric off-diagonal pattern, diagonal
/// entries of alternating sign — the LU kernels see sign flips and small
/// pivots.
fn indefinite_matrix(rng: &mut SplitMix64) -> CsrMatrix {
    let n = 4 + rng.next_usize(10);
    let mut coo = CooMatrix::new(n, n);
    for i in 0..n {
        let sign = if i % 2 == 0 { 1.0 } else { -1.0 };
        coo.push(i, i, sign * (2.0 + (i % 3) as f64));
    }
    for _ in 0..n {
        let i = rng.next_usize(n);
        let j = rng.next_usize(n);
        if i < j {
            let v = 1.0 + (rng.next_usize(10) as f64) / 5.0;
            coo.push(i, j, v);
            coo.push(j, i, v);
        }
    }
    coo.to_csr()
}

/// Asserts every stored LU value is finite, then drives a solve and
/// asserts the result is finite too.
fn assert_lu_finite(f: &pilut_core::factors::LuFactors, label: &str) {
    for i in 0..f.n {
        for (_, v) in f.l_row(i).chain(f.u_row(i)).chain([(i, f.diag(i))]) {
            assert!(v.is_finite(), "{label}: non-finite factor entry in row {i}");
        }
    }
    let b = vec![1.0; f.n];
    let x = f.solve(&b);
    assert!(
        x.iter().all(|v| v.is_finite()),
        "{label}: triangular solve produced non-finite values"
    );
}

/// An `Abort`-policy error must be one of the numerical/structural
/// variants — never `InvalidOptions` (the options here are valid) and
/// never `RankFailure` (these are serial kernels).
fn assert_expected_error(e: &FactorError, label: &str) {
    assert!(
        matches!(
            e,
            FactorError::ZeroPivot { .. }
                | FactorError::NonFinite { .. }
                | FactorError::StructurallySingular { .. }
        ),
        "{label}: unexpected error variant {e:?}"
    );
}

/// Checks one factorization's outcome against the contract: finite factors,
/// or — only where `may_abort` — one of the expected typed errors.
fn check(out: Result<pilut_core::factors::LuFactors, FactorError>, may_abort: bool, label: &str) {
    match out {
        Ok(f) => assert_lu_finite(&f, label),
        Err(e) => {
            assert!(may_abort, "{label}: failed under the shift: {e}");
            assert_expected_error(&e, label);
        }
    }
}

/// Runs one matrix through ILUT under both policies and through ILU(0),
/// and checks the contract.
fn exercise(a: &CsrMatrix, label: &str) {
    for policy in POLICIES {
        let opts = IlutOptions::new(4, 1e-3).with_breakdown(policy);
        let aborts = policy == BreakdownPolicy::Abort;
        check(ilut(a, &opts), aborts, &format!("{label} ilut {policy:?}"));
    }
    check(ilu0(a), true, &format!("{label} ilu0"));
}

#[test]
fn zero_diagonal_matrices_never_panic() {
    for seed in 0..32u64 {
        let mut rng = SplitMix64::new(seed);
        exercise(
            &zero_diag_matrix(&mut rng),
            &format!("zero-diag seed {seed}"),
        );
    }
}

#[test]
fn singular_matrices_never_panic() {
    for seed in 0..32u64 {
        let mut rng = SplitMix64::new(seed);
        exercise(&singular_matrix(&mut rng), &format!("singular seed {seed}"));
    }
}

#[test]
fn indefinite_matrices_never_panic() {
    for seed in 0..32u64 {
        let mut rng = SplitMix64::new(seed);
        exercise(
            &indefinite_matrix(&mut rng),
            &format!("indefinite seed {seed}"),
        );
    }
}

/// The all-zero-rows extreme: every pivot needs repair, and the shift
/// escalation must still produce finite, solvable factors — also past the
/// point where `100^k` overflows (k ≥ 155), where the boost saturates.
#[test]
fn fully_zero_matrix_factors_under_the_shift() {
    for n in [6, 200] {
        let mut coo = CooMatrix::new(n, n);
        for i in 0..n {
            coo.push(i, i, 0.0);
        }
        let a = coo.to_csr();
        exercise(&a, &format!("all-zero n = {n}"));
        let err = ilu0(&a).expect_err("all-zero matrix must abort");
        assert_expected_error(&err, "all-zero ilu0");
    }
}
