//! Randomized property test: `CsrMatrix → BcsrMatrix → CsrMatrix` is the
//! identity — bit for bit — for every block size, including dimensions the
//! block size does not divide and patterns containing explicit zeros.

use pilut_sparse::{BcsrMatrix, CooMatrix, CsrMatrix, SplitMix64};

/// A random sparse matrix with ~`density` fill, a sprinkling of explicit
/// zeros, and sign-of-zero landmines (`-0.0` must survive the round trip).
fn random_csr(rng: &mut SplitMix64, n_rows: usize, n_cols: usize, density: f64) -> CsrMatrix {
    let mut coo = CooMatrix::new(n_rows, n_cols);
    for i in 0..n_rows {
        for j in 0..n_cols {
            if rng.next_f64() >= density {
                continue;
            }
            let v = match rng.next_usize(8) {
                0 => 0.0,
                1 => -0.0,
                _ => rng.range_f64(-10.0, 10.0),
            };
            coo.push(i, j, v);
        }
    }
    coo.to_csr()
}

fn assert_bit_identical(a: &CsrMatrix, b: &CsrMatrix, ctx: &str) {
    // Triplet equality with f64 bit comparison: PartialEq would call
    // -0.0 == 0.0, which is exactly the confusion this test exists to catch.
    let triplets = |m: &CsrMatrix| -> Vec<(usize, usize, f64)> {
        let row = |i| {
            let (cols, vals) = m.row(i);
            cols.iter().zip(vals).map(move |(&j, &v)| (i, j, v))
        };
        (0..m.n_rows()).flat_map(row).collect()
    };
    let (ta, tb) = (triplets(a), triplets(b));
    assert_eq!(ta.len(), tb.len(), "{ctx}: nnz changed");
    for (&(ri, ci, vi), &(rj, cj, vj)) in ta.iter().zip(&tb) {
        assert_eq!((ri, ci), (rj, cj), "{ctx}: structure changed");
        assert_eq!(
            vi.to_bits(),
            vj.to_bits(),
            "{ctx}: value at ({ri},{ci}) changed: {vi} -> {vj}"
        );
    }
}

#[test]
fn random_round_trips_are_bit_identical() {
    let mut rng = SplitMix64::new(0x9e3779b97f4a7c15);
    for trial in 0..40 {
        // Dimensions deliberately not multiples of the block size most of
        // the time; occasionally rectangular.
        let n_rows = 1 + rng.next_usize(37);
        let n_cols = if trial % 4 == 0 {
            1 + rng.next_usize(37)
        } else {
            n_rows
        };
        let density = 0.02 + 0.3 * rng.next_f64();
        let a = random_csr(&mut rng, n_rows, n_cols, density);
        for b in 1..=4usize {
            let blocked = BcsrMatrix::from_csr(&a, b);
            assert_eq!(blocked.nnz(), a.nnz(), "trial {trial} b={b}");
            let back = blocked.to_csr();
            assert_bit_identical(&a, &back, &format!("trial {trial} b={b}"));
        }
    }
}

#[test]
fn empty_and_degenerate_shapes_round_trip() {
    for (n_rows, n_cols) in [(0, 0), (1, 1), (3, 1), (1, 5), (7, 7)] {
        let a = CsrMatrix::from_raw(n_rows, n_cols, vec![0; n_rows + 1], Vec::new(), Vec::new());
        for b in 1..=4usize {
            let back = BcsrMatrix::from_csr(&a, b).to_csr();
            assert_eq!(back.n_rows(), n_rows);
            assert_eq!(back.n_cols(), n_cols);
            assert_eq!(back.nnz(), 0);
        }
    }
}

#[test]
fn padding_never_materialises_entries() {
    // 5×5 with b=4: the ragged last block row/col must not invent entries.
    let mut rng = SplitMix64::new(42);
    let a = random_csr(&mut rng, 5, 5, 0.6);
    let blocked = BcsrMatrix::from_csr(&a, 4);
    assert!(blocked.stored_len() >= blocked.nnz());
    for i in 0..5 {
        for j in 0..5 {
            assert_eq!(a.get(i, j), blocked.get(i, j), "({i},{j})");
        }
    }
    assert_bit_identical(&a, &blocked.to_csr(), "ragged 5x5 b=4");
}
