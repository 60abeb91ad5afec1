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

use crate::coo::CooMatrix;
use crate::csr::CsrMatrix;
use crate::rng::SplitMix64;

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
    let idx = |i: usize, j: usize| j * nx + i;
    let mut coo = CooMatrix::with_capacity(n, n, 5 * n);
    let (ax, ay) = (1.0, 1.0);
    // Centred first-derivative contributions (half the cell Péclet number).
    let bx = cx * hx / 2.0;
    let by = cy * hy / 2.0;
    for j in 0..ny {
        for i in 0..nx {
            let r = idx(i, j);
            coo.push(r, r, 2.0 * ax + 2.0 * ay);
            if i > 0 {
                coo.push(r, idx(i - 1, j), -ax - bx);
            }
            if i + 1 < nx {
                coo.push(r, idx(i + 1, j), -ax + bx);
            }
            if j > 0 {
                coo.push(r, idx(i, j - 1), -ay - by);
            }
            if j + 1 < ny {
                coo.push(r, idx(i, j + 1), -ay + by);
            }
        }
    }
    coo.to_csr()
}

/// 7-point Laplacian on an `nx × ny × nz` grid.
pub fn laplace_3d(nx: usize, ny: usize, nz: usize) -> CsrMatrix {
    assert!(nx >= 1 && ny >= 1 && nz >= 1);
    let n = nx * ny * nz;
    let idx = |i: usize, j: usize, k: usize| (k * ny + j) * nx + i;
    let mut coo = CooMatrix::with_capacity(n, n, 7 * n);
    for k in 0..nz {
        for j in 0..ny {
            for i in 0..nx {
                let r = idx(i, j, k);
                coo.push(r, r, 6.0);
                if i > 0 {
                    coo.push(r, idx(i - 1, j, k), -1.0);
                }
                if i + 1 < nx {
                    coo.push(r, idx(i + 1, j, k), -1.0);
                }
                if j > 0 {
                    coo.push(r, idx(i, j - 1, k), -1.0);
                }
                if j + 1 < ny {
                    coo.push(r, idx(i, j + 1, k), -1.0);
                }
                if k > 0 {
                    coo.push(r, idx(i, j, k - 1), -1.0);
                }
                if k + 1 < nz {
                    coo.push(r, idx(i, j, k + 1), -1.0);
                }
            }
        }
    }
    coo.to_csr()
}

/// Elasticity-like problem with **3 dofs per node** on an `nx × ny × nz`
/// grid: a 7-point node stencil whose couplings are dense, nonsymmetric
/// 3×3 blocks (stiffer along the coupling direction, sign-alternating shear
/// terms), dof-interleaved so node `v` owns rows `3v..3v + 3`. Every row is
/// strictly diagonally dominant, so ILUT never breaks down, and a
/// `b = 3` blocking stores no padding — the multiple-dofs-per-node case the
/// blocked factorization exists for.
pub fn elasticity_3d(nx: usize, ny: usize, nz: usize) -> CsrMatrix {
    assert!(nx >= 1 && ny >= 1 && nz >= 1);
    let dims = [nx, ny, nz];
    let nodes = nx * ny * nz;
    let row_of = |c: [usize; 3]| 3 * ((c[2] * ny + c[1]) * nx + c[0]);
    // Off-diagonal dof couplings differ for (a, b) and (b, a).
    let skew = |a: usize, b: usize| 0.05 * ((3 + a - b) % 3) as f64;
    let dof_pairs = || (0..3).flat_map(|a| (0..3).map(move |b| (a, b)));
    let mut coo = CooMatrix::with_capacity(3 * nodes, 3 * nodes, 63 * nodes);
    for k in 0..nz {
        for j in 0..ny {
            for i in 0..nx {
                let c = [i, j, k];
                let r = row_of(c);
                for (a, b) in dof_pairs() {
                    let v = if a == b { 12.0 } else { 0.5 - 7.5 * skew(a, b) };
                    coo.push(r + a, r + b, v);
                }
                for d in 0..3 {
                    for (s, inside) in [(-1.0, c[d] > 0), (1.0, c[d] + 1 < dims[d])] {
                        if !inside {
                            continue;
                        }
                        let mut nb = c;
                        nb[d] = if s < 0.0 { c[d] - 1 } else { c[d] + 1 };
                        let q = row_of(nb);
                        for (a, b) in dof_pairs() {
                            let v = match (a == b, a == d) {
                                (true, true) => -2.0,
                                (true, false) => -1.0,
                                _ => s * (0.1 + skew(a, b)),
                            };
                            coo.push(r + a, q + b, v);
                        }
                    }
                }
            }
        }
    }
    coo.to_csr()
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
    // Collect domain nodes.
    let mut grid_to_node = vec![usize::MAX; dim * dim * dim];
    let mut nodes: Vec<(usize, usize, usize)> = Vec::new();
    for k in 0..dim {
        for j in 0..dim {
            for i in 0..dim {
                if sigma(i, j, k).is_some() {
                    grid_to_node[lin(i, j, k)] = nodes.len();
                    nodes.push((i, j, k));
                }
            }
        }
    }
    let n = nodes.len();
    assert!(n > 0, "torso domain is empty at dim={dim}");
    // Random renumbering (unstructured-mesh surrogate).
    let mut rng = SplitMix64::new(seed);
    let mut order: Vec<usize> = (0..n).collect();
    rng.shuffle(&mut order);
    let mut renum = vec![0usize; n];
    for (new, &old) in order.iter().enumerate() {
        renum[old] = new;
    }
    let mut coo = CooMatrix::with_capacity(n, n, 7 * n);
    let neighbours: [(isize, isize, isize); 6] = [
        (-1, 0, 0),
        (1, 0, 0),
        (0, -1, 0),
        (0, 1, 0),
        (0, 0, -1),
        (0, 0, 1),
    ];
    for (old, &(i, j, k)) in nodes.iter().enumerate() {
        let r = renum[old];
        // lint: allow(unwrap): (i, j, k) ranges over the grid interior
        let si = sigma(i, j, k).unwrap();
        let mut diag = 0.0;
        for &(di, dj, dk) in &neighbours {
            let (ni, nj, nk) = (i as isize + di, j as isize + dj, k as isize + dk);
            if ni < 0 || nj < 0 || nk < 0 {
                // Dirichlet wall of the bounding box: contributes own sigma.
                diag += si;
                continue;
            }
            let (ni, nj, nk) = (ni as usize, nj as usize, nk as usize);
            if ni >= dim || nj >= dim || nk >= dim {
                diag += si;
                continue;
            }
            match sigma(ni, nj, nk) {
                Some(sj) => {
                    // Harmonic mean across the interface face.
                    let w = 2.0 * si * sj / (si + sj);
                    diag += w;
                    let c = renum[grid_to_node[lin(ni, nj, nk)]];
                    coo.push(r, c, -w);
                }
                None => {
                    // Domain boundary: Dirichlet, folded into the diagonal.
                    diag += si;
                }
            }
        }
        coo.push(r, r, diag);
    }
    coo.to_csr()
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
                if j == i {
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
    fn elasticity_3d_is_blocked_dominant_and_nonsymmetric() {
        let a = elasticity_3d(4, 3, 3);
        assert_eq!(a.n_rows(), 3 * 36);
        assert_eq!(a.row_nnz(3 * 17 + 1), 21, "centre node: 7 dense 3x3 blocks");
        assert!(a.is_structurally_symmetric());
        // A b = 3 blocking stores exactly the nonzeros and round-trips.
        let blocked = crate::BcsrMatrix::from_csr(&a, 3);
        assert_eq!(blocked.stored_len(), a.nnz());
        assert_eq!(blocked.to_csr(), a);
        for i in 0..a.n_rows() {
            let (cols, vals) = a.row(i);
            let off: f64 = cols
                .iter()
                .zip(vals)
                .filter(|e| *e.0 != i)
                .map(|e| e.1.abs())
                .sum();
            assert!(a.get(i, i).unwrap() > off, "row {i} not strictly dominant");
        }
        assert_ne!(a.get(0, 1), a.get(1, 0), "dof couplings are nonsymmetric");
        assert_ne!(a.get(0, 4), a.get(4, 0), "node couplings are nonsymmetric");
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
                if j != i {
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
                if j == i {
                    diag = v;
                } else {
                    off += v.abs();
                }
            }
            assert!(diag > off, "row {i} not strictly dominant");
        }
    }

    #[test]
    fn named_generators() {
        assert_eq!(g40(1).n_rows(), 1600);
        let t = torso(12);
        assert!(t.n_rows() > 100);
    }
}
