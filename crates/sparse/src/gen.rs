//! Synthetic test-problem generators.
//!
//! The paper evaluates on two matrices we cannot obtain: **G40** (a PDE
//! discretised with centred differences on a regular 2-D grid) and **TORSO**
//! (a 3-D finite-element Laplace discretisation of the human thorax from an
//! ECG study, Klepfer et al. 1995). The generators here are the documented
//! substitutes (DESIGN.md §4): [`convection_diffusion_2d`] reproduces the
//! G40 family (regular 2-D grid, centred differences, mildly nonsymmetric),
//! and [`fem_torso`] builds an irregular 3-D problem on an ellipsoidal shell
//! domain with inhomogeneous "tissue" conductivities, which exercises the
//! same qualitative structure: an unstructured 3-D pattern with coefficient
//! jumps and a large interface/interior ratio under partitioning.
//!
//! The stencil generators ([`convection_diffusion_2d`], [`laplace_3d`],
//! [`fem_torso`]) know each row in full when they visit it, so they write
//! CSR rows directly, in row order, with no triplet list and no sort.
//! [`CooMatrix`] is the assembly path only where that does not hold:
//! [`random_diag_dominant`] can draw a column twice and needs its entries
//! summed.

use crate::coo::CooMatrix;
use crate::csr::{narrow, CsrMatrix};
use crate::rng::SplitMix64;

/// A CSR matrix written one row at a time, in row order, with each row's
/// columns pushed in ascending order — a stencil generator's rows are known
/// in full when they are visited, so they need no triplet list and no sort.
/// `CsrMatrix::from_raw` checks the result.
struct RowWriter {
    row_ptr: Vec<u32>,
    col_idx: Vec<u32>,
    values: Vec<f64>,
}

impl RowWriter {
    /// A writer for `n` rows and at most `nnz` entries, both checked into
    /// the 32-bit range here, so every column (below `n`) and row pointer
    /// (at most `nnz`) narrows losslessly.
    fn with_capacity(n: usize, nnz: usize) -> Self {
        for (count, what) in [(n, "n"), (nnz, "nnz")] {
            #[expect(clippy::expect_used, reason = "past 32 bits is a caller bug")]
            narrow(count, what).expect("generated matrix too large");
        }
        let mut row_ptr = Vec::with_capacity(n + 1);
        row_ptr.push(0);
        RowWriter {
            row_ptr,
            col_idx: Vec::with_capacity(nnz),
            values: Vec::with_capacity(nnz),
        }
    }

    fn push(&mut self, col: usize, value: f64) {
        self.col_idx.push(col as u32);
        self.values.push(value);
    }

    fn end_row(&mut self) {
        self.row_ptr.push(self.col_idx.len() as u32);
    }

    fn finish(self) -> CsrMatrix {
        let n = self.row_ptr.len() - 1;
        CsrMatrix::from_raw(n, n, self.row_ptr, self.col_idx, self.values)
    }
}

/// 5-point Laplacian on an `nx × ny` grid (Dirichlet boundary folded in).
///
/// Symmetric positive definite; row sums are positive on the boundary.
pub fn laplace_2d(nx: usize, ny: usize) -> CsrMatrix {
    convection_diffusion_2d(nx, ny, 0.0, 0.0)
}

/// Centred-difference discretisation of
/// `-Δu + cx ∂u/∂x + cy ∂u/∂y = f` on the unit square with an `nx × ny`
/// interior grid, in **unit-stencil scaling** (the equation multiplied
/// through by `h²`, as the paper-era test matrices are assembled): the
/// diagonal is `4`, off-diagonals `-1 ± cx·h/2` — so entry magnitudes are
/// `O(1)` and the relative ILUT threshold behaves as in the paper. Nonzero
/// convection makes the matrix nonsymmetric, which is what GMRES is for.
pub fn convection_diffusion_2d(nx: usize, ny: usize, cx: f64, cy: f64) -> CsrMatrix {
    assert!(nx >= 1 && ny >= 1);
    let n = nx * ny;
    let hx = 1.0 / (nx as f64 + 1.0);
    let hy = 1.0 / (ny as f64 + 1.0);
    let mut a = RowWriter::with_capacity(n, 5 * n - 2 * nx - 2 * ny);
    let (ax, ay) = (1.0, 1.0);
    // Centred first-derivative contributions (half the cell Péclet number).
    let bx = cx * hx / 2.0;
    let by = cy * hy / 2.0;
    // Row r = j·nx + i: south, west, centre, east, north is column order.
    for j in 0..ny {
        for i in 0..nx {
            let r = j * nx + i;
            if j > 0 {
                a.push(r - nx, -ay - by);
            }
            if i > 0 {
                a.push(r - 1, -ax - bx);
            }
            a.push(r, 2.0 * ax + 2.0 * ay);
            if i + 1 < nx {
                a.push(r + 1, -ax + bx);
            }
            if j + 1 < ny {
                a.push(r + nx, -ay + by);
            }
            a.end_row();
        }
    }
    a.finish()
}

/// 7-point Laplacian on an `nx × ny × nz` grid.
pub fn laplace_3d(nx: usize, ny: usize, nz: usize) -> CsrMatrix {
    assert!(nx >= 1 && ny >= 1 && nz >= 1);
    let n = nx * ny * nz;
    let (sx, sy) = (1, nx);
    let sz = nx * ny;
    let mut a = RowWriter::with_capacity(n, 7 * n - 2 * (ny * nz + nx * nz + nx * ny));
    // Row r = (k·ny + j)·nx + i: the −z, −y, −x neighbours, the centre, then
    // +x, +y, +z is column order.
    for k in 0..nz {
        for j in 0..ny {
            for i in 0..nx {
                let r = (k * ny + j) * nx + i;
                for (below, stride) in [(k > 0, sz), (j > 0, sy), (i > 0, sx)] {
                    if below {
                        a.push(r - stride, -1.0);
                    }
                }
                a.push(r, 6.0);
                for (above, stride) in [(i + 1 < nx, sx), (j + 1 < ny, sy), (k + 1 < nz, sz)] {
                    if above {
                        a.push(r + stride, -1.0);
                    }
                }
                a.end_row();
            }
        }
    }
    a.finish()
}

/// Irregular 3-D "torso" problem: Laplace's equation with inhomogeneous
/// conductivities on an ellipsoidal shell domain, discretised on the subset
/// of a `dim³` grid lying inside the outer ellipsoid, with harmonic
/// averaging of the per-region conductivity across faces. Node numbering is
/// randomised (seeded) to mimic an unstructured finite-element mesh ordering.
///
/// Regions (nested ellipsoids scaled by the given fractions of the domain):
/// "skin/muscle" (outer, σ=1), "lungs" (σ=0.04 — low conductivity), and a
/// "heart" core (σ=5). These ratios follow the ECG modelling literature the
/// paper's TORSO matrix comes from.
pub fn fem_torso(dim: usize, seed: u64) -> CsrMatrix {
    assert!(dim >= 3);
    let inside = |i: usize, j: usize, k: usize, sx: f64, sy: f64, sz: f64| -> bool {
        let c = (dim as f64 - 1.0) / 2.0;
        let x = (i as f64 - c) / (c * sx);
        let y = (j as f64 - c) / (c * sy);
        let z = (k as f64 - c) / (c * sz);
        x * x + y * y + z * z <= 1.0
    };
    // Conductivity by region; outermost ellipsoid defines the domain.
    let sigma = |i: usize, j: usize, k: usize| -> Option<f64> {
        if !inside(i, j, k, 1.0, 0.75, 1.0) {
            return None; // outside the torso
        }
        if inside(i, j, k, 0.25, 0.2, 0.25) {
            Some(5.0) // heart
        } else if inside(i, j, k, 0.6, 0.45, 0.7) {
            Some(0.04) // lungs
        } else {
            Some(1.0) // muscle/skin shell
        }
    };
    let lin = |i: usize, j: usize, k: usize| (k * dim + j) * dim + i;
    // Collect domain nodes (as grid cells) and cache their conductivities.
    let mut cond = vec![0.0; dim * dim * dim];
    let mut nodes: Vec<usize> = Vec::new();
    for k in 0..dim {
        for j in 0..dim {
            for i in 0..dim {
                if let Some(s) = sigma(i, j, k) {
                    cond[lin(i, j, k)] = s;
                    nodes.push(lin(i, j, k));
                }
            }
        }
    }
    let n = nodes.len();
    assert!(n > 0, "torso domain is empty at dim={dim}");
    // Random renumbering (unstructured-mesh surrogate): row r is node
    // order[r].
    let mut rng = SplitMix64::new(seed);
    let mut order: Vec<usize> = (0..n).collect();
    rng.shuffle(&mut order);
    let mut row_of = vec![usize::MAX; dim * dim * dim];
    for (r, &old) in order.iter().enumerate() {
        row_of[nodes[old]] = r;
    }
    let neighbours: [(isize, isize, isize); 6] = [
        (-1, 0, 0),
        (1, 0, 0),
        (0, -1, 0),
        (0, 1, 0),
        (0, 0, -1),
        (0, 0, 1),
    ];
    let mut a = RowWriter::with_capacity(n, 7 * n);
    let mut row: Vec<(usize, f64)> = Vec::with_capacity(7);
    for (r, &old) in order.iter().enumerate() {
        let cell = nodes[old];
        let (i, j, k) = (cell % dim, cell / dim % dim, cell / (dim * dim));
        let si = cond[cell];
        let mut diag = 0.0;
        row.clear();
        for &(di, dj, dk) in &neighbours {
            // A step off the box wraps to a coordinate >= dim.
            let ni = i.wrapping_add_signed(di);
            let (nj, nk) = (j.wrapping_add_signed(dj), k.wrapping_add_signed(dk));
            if ni >= dim || nj >= dim || nk >= dim || row_of[lin(ni, nj, nk)] == usize::MAX {
                // Wall of the box or of the domain: Dirichlet, own sigma
                // folded into the diagonal.
                diag += si;
                continue;
            }
            let nb = lin(ni, nj, nk);
            // Harmonic mean across the interface face.
            let sj = cond[nb];
            let w = 2.0 * si * sj / (si + sj);
            diag += w;
            row.push((row_of[nb], -w));
        }
        row.push((r, diag));
        row.sort_unstable_by_key(|&(c, _)| c);
        for &(c, v) in &row {
            a.push(c, v);
        }
        a.end_row();
    }
    a.finish()
}

/// A random strictly diagonally dominant matrix with roughly `nnz_per_row`
/// off-diagonal entries per row; handy for property tests (ILUT never breaks
/// down on these).
pub fn random_diag_dominant(n: usize, nnz_per_row: usize, seed: u64) -> CsrMatrix {
    let mut rng = SplitMix64::new(seed);
    let mut coo = CooMatrix::with_capacity(n, n, n * (nnz_per_row + 1));
    for i in 0..n {
        let mut row_sum = 0.0;
        for _ in 0..nnz_per_row {
            let j = rng.next_usize(n);
            if j == i {
                continue;
            }
            let v = rng.range_f64(-1.0, 1.0);
            row_sum += v.abs();
            coo.push(i, j, v);
        }
        coo.push(i, i, row_sum + 1.0 + rng.next_f64());
    }
    coo.to_csr()
}

/// The paper's G40 stand-in at a given linear scale: a
/// `(40·scale) × (40·scale)` convection–diffusion grid. `scale = 6` gives
/// 57 600 unknowns, matching the magnitude of the paper's G40.
pub fn g40(scale: usize) -> CsrMatrix {
    let s = 40 * scale.max(1);
    convection_diffusion_2d(s, s, 10.0, 20.0)
}

/// The paper's TORSO stand-in at a given grid dimension. `dim = 64` yields
/// roughly 10⁵ unknowns (the ellipsoid fills ~40 % of the box).
pub fn torso(dim: usize) -> CsrMatrix {
    fem_torso(dim, 0x70_72_73_6f)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn laplace_2d_shape() {
        let a = laplace_2d(4, 3);
        assert_eq!(a.n_rows(), 12);
        assert!(a.is_structurally_symmetric());
        // Interior row has 5 entries.
        assert_eq!(a.row_nnz(5), 5);
        // Corner row has 3 entries.
        assert_eq!(a.row_nnz(0), 3);
    }

    #[test]
    fn laplace_2d_is_diagonally_dominant() {
        let a = laplace_2d(5, 5);
        for i in 0..a.n_rows() {
            let (cols, vals) = a.row(i);
            let mut off = 0.0;
            let mut diag = 0.0;
            for (&j, &v) in cols.iter().zip(vals) {
                if j as usize == i {
                    diag = v.abs();
                } else {
                    off += v.abs();
                }
            }
            assert!(diag >= off, "row {i} not diagonally dominant");
        }
    }

    #[test]
    fn convection_makes_nonsymmetric_values() {
        let a = convection_diffusion_2d(4, 4, 30.0, 0.0);
        // Pattern stays symmetric, values do not.
        assert!(a.is_structurally_symmetric());
        let up = a.get(0, 1).unwrap();
        let down = a.get(1, 0).unwrap();
        assert!(
            (up - down).abs() > 1e-10,
            "convection should split couplings"
        );
    }

    #[test]
    fn laplace_3d_shape() {
        let a = laplace_3d(3, 3, 3);
        assert_eq!(a.n_rows(), 27);
        assert_eq!(a.row_nnz(13), 7); // centre node
        assert!(a.is_structurally_symmetric());
    }

    #[test]
    fn torso_has_regions_and_is_symmetric() {
        let a = fem_torso(16, 7);
        assert!(a.n_rows() > 500, "domain too small: {}", a.n_rows());
        assert!(a.n_rows() < 16 * 16 * 16, "ellipsoid should clip the box");
        assert!(a.is_structurally_symmetric());
        // Harmonic averaging keeps the matrix an M-matrix: off-diagonals <= 0.
        for i in 0..a.n_rows() {
            let (cols, vals) = a.row(i);
            for (&j, &v) in cols.iter().zip(vals) {
                if j as usize != i {
                    assert!(v <= 0.0);
                } else {
                    assert!(v > 0.0);
                }
            }
        }
    }

    #[test]
    fn torso_deterministic_for_seed() {
        assert_eq!(fem_torso(12, 3), fem_torso(12, 3));
    }

    #[test]
    fn random_matrix_dominant() {
        let a = random_diag_dominant(50, 4, 42);
        for i in 0..50 {
            let (cols, vals) = a.row(i);
            let mut off = 0.0;
            let mut diag = 0.0;
            for (&j, &v) in cols.iter().zip(vals) {
                if j as usize == i {
                    diag = v;
                } else {
                    off += v.abs();
                }
            }
            assert!(diag > off, "row {i} not strictly dominant");
        }
    }

    /// Asserts equal `row_ptr`, `col_idx` and value bits.
    fn assert_bit_identical(a: &CsrMatrix, b: &CsrMatrix, what: &str) {
        assert_eq!(a.n_rows(), b.n_rows(), "{what}: rows");
        assert_eq!(a.row_ptr(), b.row_ptr(), "{what}: row_ptr");
        assert_eq!(a.col_idx(), b.col_idx(), "{what}: col_idx");
        let bits = |m: &CsrMatrix| m.values().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(a), bits(b), "{what}: value bits");
    }

    /// The triplet-list assembly of [`convection_diffusion_2d`]: entries
    /// pushed centre first, ordered by `CooMatrix::to_csr`'s row sort.
    fn coo_convection_diffusion_2d(nx: usize, ny: usize, cx: f64, cy: f64) -> CsrMatrix {
        let idx = |i: usize, j: usize| j * nx + i;
        let mut coo = CooMatrix::new(nx * ny, nx * ny);
        let (hx, hy) = (1.0 / (nx as f64 + 1.0), 1.0 / (ny as f64 + 1.0));
        let (bx, by) = (cx * hx / 2.0, cy * hy / 2.0);
        for j in 0..ny {
            for i in 0..nx {
                let r = idx(i, j);
                coo.push(r, r, 4.0);
                if i > 0 {
                    coo.push(r, idx(i - 1, j), -1.0 - bx);
                }
                if i + 1 < nx {
                    coo.push(r, idx(i + 1, j), -1.0 + bx);
                }
                if j > 0 {
                    coo.push(r, idx(i, j - 1), -1.0 - by);
                }
                if j + 1 < ny {
                    coo.push(r, idx(i, j + 1), -1.0 + by);
                }
            }
        }
        coo.to_csr()
    }

    /// The triplet-list assembly of [`laplace_3d`].
    fn coo_laplace_3d(nx: usize, ny: usize, nz: usize) -> CsrMatrix {
        let n = nx * ny * nz;
        let idx = |c: [usize; 3]| (c[2] * ny + c[1]) * nx + c[0];
        let dims = [nx, ny, nz];
        let mut coo = CooMatrix::new(n, n);
        for r in 0..n {
            let c = [r % nx, r / nx % ny, r / (nx * ny)];
            coo.push(r, r, 6.0);
            for d in 0..3 {
                let mut nb = c;
                if c[d] > 0 {
                    nb[d] = c[d] - 1;
                    coo.push(r, idx(nb), -1.0);
                }
                if c[d] + 1 < dims[d] {
                    nb[d] = c[d] + 1;
                    coo.push(r, idx(nb), -1.0);
                }
            }
        }
        coo.to_csr()
    }

    /// The triplet-list assembly of [`fem_torso`]: nodes visited in grid
    /// order, `sigma` re-evaluated per node and per neighbour, rows sorted
    /// by `CooMatrix::to_csr`.
    fn coo_fem_torso(dim: usize, seed: u64) -> CsrMatrix {
        let c = (dim as f64 - 1.0) / 2.0;
        let inside = |p: [isize; 3], s: [f64; 3]| {
            let q = |d: usize| (p[d] as f64 - c) / (c * s[d]);
            q(0) * q(0) + q(1) * q(1) + q(2) * q(2) <= 1.0
        };
        let sigma = |p: [isize; 3]| {
            if p.iter().any(|&x| x < 0 || x >= dim as isize) || !inside(p, [1.0, 0.75, 1.0]) {
                None
            } else if inside(p, [0.25, 0.2, 0.25]) {
                Some(5.0)
            } else if inside(p, [0.6, 0.45, 0.7]) {
                Some(0.04)
            } else {
                Some(1.0)
            }
        };
        let d = dim as isize;
        let cells = (0..d * d * d).map(|l| [l % d, l / d % d, l / (d * d)]);
        let nodes: Vec<[isize; 3]> = cells.filter(|&p| sigma(p).is_some()).collect();
        let mut order: Vec<usize> = (0..nodes.len()).collect();
        SplitMix64::new(seed).shuffle(&mut order);
        let mut renum = vec![0; nodes.len()];
        for (new, &old) in order.iter().enumerate() {
            renum[old] = new;
        }
        let node_of =
            |p: [isize; 3]| nodes.binary_search_by_key(&[p[2], p[1], p[0]], |q| [q[2], q[1], q[0]]);
        let mut coo = CooMatrix::new(nodes.len(), nodes.len());
        for (old, &p) in nodes.iter().enumerate() {
            let si = sigma(p).unwrap();
            let mut diag = 0.0;
            for (axis, step) in [(0, -1), (0, 1), (1, -1), (1, 1), (2, -1), (2, 1)] {
                let mut q = p;
                q[axis] += step;
                match sigma(q) {
                    Some(sj) => {
                        let w = 2.0 * si * sj / (si + sj);
                        diag += w;
                        coo.push(renum[old], renum[node_of(q).unwrap()], -w);
                    }
                    None => diag += si,
                }
            }
            coo.push(renum[old], renum[old], diag);
        }
        coo.to_csr()
    }

    #[test]
    fn stencils_match_the_triplet_path_bit_for_bit() {
        let grids = [(1, 1), (1, 7), (7, 1), (2, 2), (7, 5), (5, 7), (13, 9)];
        for (nx, ny) in grids {
            for (cx, cy) in [(0.0, 0.0), (10.0, 20.0), (-3.0, 0.5)] {
                let what = format!("convection_diffusion_2d({nx}, {ny}, {cx}, {cy})");
                let a = convection_diffusion_2d(nx, ny, cx, cy);
                assert_bit_identical(&a, &coo_convection_diffusion_2d(nx, ny, cx, cy), &what);
            }
            let what = format!("laplace_2d({nx}, {ny})");
            assert_bit_identical(
                &laplace_2d(nx, ny),
                &coo_convection_diffusion_2d(nx, ny, 0.0, 0.0),
                &what,
            );
        }
        let g = coo_convection_diffusion_2d(40, 40, 10.0, 20.0);
        assert_bit_identical(&g40(1), &g, "g40(1)");
        let boxes = [
            (1, 1, 1),
            (1, 1, 6),
            (1, 6, 1),
            (6, 1, 1),
            (3, 4, 5),
            (5, 3, 2),
        ];
        for (nx, ny, nz) in boxes {
            let what = format!("laplace_3d({nx}, {ny}, {nz})");
            assert_bit_identical(&laplace_3d(nx, ny, nz), &coo_laplace_3d(nx, ny, nz), &what);
        }
    }

    #[test]
    fn torso_matches_the_triplet_path_bit_for_bit() {
        for dim in [3, 12, 40] {
            for seed in [1, 17, 99, 0x1234_5678_9abc] {
                let what = format!("fem_torso({dim}, {seed})");
                assert_bit_identical(&fem_torso(dim, seed), &coo_fem_torso(dim, seed), &what);
            }
        }
    }

    #[test]
    fn named_generators() {
        assert_eq!(g40(1).n_rows(), 1600);
        let t = torso(12);
        assert!(t.n_rows() > 100);
    }
}
