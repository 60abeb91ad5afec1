//! Serial `ilu0` pinned bit for bit: `(row, column, value.to_bits())` of
//! every `L` entry, pivot and `U` entry, hashed, on the pinned matrices,
//! and the `Debug` text of the error on the planted cancellation.
//! Recorded while `ilu0` still ran a loop of its own (level-of-fill at
//! level 0), before it moved onto the row kernel; a mismatch prints what
//! was observed.

mod support;

use pilut_core::serial::ilu0;
use pilut_core::LuFactors;
use support::{pinned_factoring, planted_cancellation};

/// `(entries, FNV-1a 64 over the entry words)` of each pinned matrix, in
/// `pinned_factoring` order.
const ILU0_SERIAL_GOLDEN: [(usize, u64); 2] =
    [(217, 0x1583_f830_2fe2_e33f), (200, 0xef53_6e7b_832f_c6a3)];

/// Entries in row order (`L` ascending, the pivot, `U` ascending) and the
/// FNV-1a 64 hash of their `(row, column, value bits)` words.
fn fingerprint(f: &LuFactors) -> (usize, u64) {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let mut entries = 0;
    for i in 0..f.n {
        let row = f.l_row(i).chain([(i, f.diag(i))]).chain(f.u_row(i));
        for (j, v) in row {
            for word in [i as u64, j as u64, v.to_bits()] {
                for byte in word.to_le_bytes() {
                    hash = (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
                }
            }
            entries += 1;
        }
    }
    (entries, hash)
}

#[test]
fn serial_ilu0_factor_bits_are_pinned() {
    let observed: Vec<(usize, u64)> = pinned_factoring()
        .iter()
        .map(|(_, a)| fingerprint(&ilu0(a).expect("pinned matrices factor")))
        .collect();
    assert_eq!(observed, ILU0_SERIAL_GOLDEN, "observed {observed:#x?}");
}

#[test]
fn serial_ilu0_aborts_on_the_planted_cancellation() {
    let err = ilu0(&planted_cancellation()).expect_err("row 6's pivot is exactly zero");
    assert_eq!(format!("{err:?}"), "ZeroPivot { row: 6 }");
}
