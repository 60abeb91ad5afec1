//! Shared by the ILU(0) tests: the matrices its serial factorization is
//! pinned on, and an ILU(0) written from its definition that shares no
//! loop with the library's row kernel.
#![allow(dead_code)] // each test crate uses its own part

use pilut_sparse::{gen, CooMatrix, CsrMatrix};

/// A factor row of the reference: strict `L`, pivot, strict `U`, each in
/// ascending global column.
#[derive(Clone, Debug, PartialEq)]
pub struct RefRow {
    pub l: Vec<(usize, f64)>,
    pub diag: f64,
    pub u: Vec<(usize, f64)>,
}

/// ILU(0) over a dense pattern: row `i` lives in a dense array of
/// `Option<f64>` (`None` = outside `A`'s pattern). For each held `k < i`
/// in ascending order, `a_ik ← a_ik / u_kk` — kept even when it is zero —
/// and `a_ij ← a_ij − a_ik · u_kj` for every `j` that `U`'s row `k` holds
/// and row `i` holds too. No breakdown handling: a zero pivot is returned
/// as it is, and the rows after it are meaningless.
pub fn reference_ilu0(a: &CsrMatrix) -> Vec<RefRow> {
    let n = a.n_rows();
    let mut rows: Vec<RefRow> = Vec::with_capacity(n);
    let mut w: Vec<Option<f64>> = vec![None; n];
    for i in 0..n {
        let (cols, vals) = a.row(i);
        for (&j, &v) in cols.iter().zip(vals) {
            w[j as usize] = Some(v);
        }
        for k in 0..i {
            let Some(wk) = w[k] else { continue };
            let mult = wk / rows[k].diag;
            w[k] = Some(mult);
            for &(j, uv) in &rows[k].u {
                if let Some(wj) = w[j].as_mut() {
                    *wj -= mult * uv;
                }
            }
        }
        let mut row = RefRow {
            l: Vec::new(),
            diag: 0.0,
            u: Vec::new(),
        };
        for (j, wj) in w.iter_mut().enumerate() {
            let Some(v) = wj.take() else { continue };
            match j.cmp(&i) {
                std::cmp::Ordering::Less => row.l.push((j, v)),
                std::cmp::Ordering::Equal => row.diag = v,
                std::cmp::Ordering::Greater => row.u.push((j, v)),
            }
        }
        rows.push(row);
    }
    rows
}

/// The 12 × 12 1-D Laplacian (`−1, 2, −1`) with an exact cancellation
/// planted: rows 5 and 6 are both `(1, 1)` on columns 5–6 (row 5 holds
/// nothing else, row 6 keeps its `−1` on column 7), so row 6's pivot is
/// `1 − (1 / 1) · 1 = 0` exactly.
pub fn planted_cancellation() -> CsrMatrix {
    let n = 12;
    let mut coo = CooMatrix::new(n, n);
    for i in 0..n {
        match i {
            5 => [(5, 1.0), (6, 1.0)]
                .iter()
                .for_each(|&(j, v)| coo.push(i, j, v)),
            6 => [(5, 1.0), (6, 1.0), (7, -1.0)]
                .iter()
                .for_each(|&(j, v)| coo.push(i, j, v)),
            _ => {
                if i > 0 {
                    coo.push(i, i - 1, -1.0);
                }
                coo.push(i, i, 2.0);
                if i + 1 < n {
                    coo.push(i, i + 1, -1.0);
                }
            }
        }
    }
    coo.to_csr()
}

/// The two pinned matrices that factor cleanly, with their labels.
pub fn pinned_factoring() -> [(&'static str, CsrMatrix); 2] {
    [
        (
            "convection_diffusion_2d(7, 7, 4, -1)",
            gen::convection_diffusion_2d(7, 7, 4.0, -1.0),
        ),
        ("fem_torso(6, 3)", gen::fem_torso(6, 3)),
    ]
}
