//! Blocked ILUT(m, t): the serial ILUT elimination at dense-tile
//! granularity over BCSR storage.
//!
//! Structurally this is `serial::ilut` with every scalar operation replaced
//! by its `b × b` tile micro-kernel (`pilut_sparse::tile`):
//!
//! * the working row becomes a [`LanedRow`] whose lanes hold tiles,
//! * the multiplier `w_k / u_kk` becomes the tile-inverse application
//!   `M = W_k · U_kk⁻¹` ([`tile::lu_right_solve`] against the pivot block
//!   row's factored diagonal),
//! * the `w -= mult · u_k` axpy becomes a rank-`b` update per upper tile
//!   ([`tile::gemm_sub`]),
//! * the dropping rules act on tile Frobenius magnitudes at tile
//!   granularity (a tile survives or drops whole), with the diagonal tile
//!   always kept,
//! * breakdown handling routes through the same [`PivotDoctor`]: non-finite
//!   slots are scrubbed (fatal under `Abort`), and the no-pivot tile LU of
//!   the diagonal reports the failing *lane*, which the policy repairs as
//!   the matching scalar row — geometric shift escalation and replace-row
//!   semantics carry over unchanged.
//!
//! The tile rows are working state of the elimination only. The result is
//! an ordinary [`LuFactors`]: once every block row is factored, `refine`
//! writes the exact scalar refinement of the tiles into the one factor
//! store, so a blocked factorization is applied through
//! `LuFactors::solve_into` / `IluPreconditioner` like every other serial
//! factor.
//!
//! At `b = 1` every one of those reductions is bitwise the scalar
//! operation (see the `tile` module contract) and the refinement is a copy,
//! so `block_ilut` on a 1-blocked matrix returns factors bitwise-identical
//! to `ilut`'s — the differential test this kernel is anchored to. The one
//! deliberate divergence inside the elimination: scrubbed non-finite slots
//! are *zeroed* in place rather than structurally removed (a tile cannot
//! lose a single slot). The refinement skips exact zeros, so the returned
//! factor stores no entry there, as the scalar kernel does not; a zeroed
//! slot can still have fed a later row's update as a zero.

use crate::breakdown::{PivotDoctor, PivotFault, PivotFix};
use crate::factors::{FactorStore, LuFactors};
use crate::options::{FactorError, FactorStats, IlutOptions};
use crate::serial::drop_rules::selection_cost;
use pilut_sparse::tile;
use pilut_sparse::{BcsrMatrix, LanedRow};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// One block row of working tiles: ascending block-column indices with the
/// matching concatenated row-major `b²`-slot tiles.
#[derive(Default)]
struct TileRow {
    cols: Vec<usize>,
    /// Tile `t` occupies `tiles[t·b² .. (t+1)·b²]`.
    tiles: Vec<f64>,
}

/// A retained tile candidate during the second dropping rule: block column,
/// tile index into the drained lane buffer, and dropping magnitude.
#[derive(Clone, Copy, Debug)]
struct TileRef {
    col: usize,
    idx: usize,
    mag: f64,
}

/// Rule 2 selection at tile granularity — the exact sequence of
/// `drop_rules::threshold_and_cap_in_place` on a part whose pivot is already
/// split out (retain, `select_nth` on descending magnitude over the
/// ascending-column input, column sort), so the surviving population at
/// `b = 1` is identical entry for entry, including `select_nth`'s
/// tie-breaking.
fn threshold_and_cap_tiles(refs: &mut Vec<TileRef>, tau_i: f64, cap: usize) {
    // lint: allow(float-eq): drops exactly-zero tiles only
    refs.retain(|r| r.mag >= tau_i && r.mag != 0.0);
    if refs.len() > cap {
        refs.select_nth_unstable_by(cap, |a, b| {
            b.mag
                .partial_cmp(&a.mag)
                // lint: allow(unwrap): magnitudes are non-NaN by the retain above
                .expect("NaN in factorization")
        });
        refs.truncate(cap);
    }
    refs.sort_unstable_by_key(|r| r.col);
}

/// Scrubs non-finite slots from a run of tiles: fatal under `Abort`
/// (reported at the scalar row of the first poisoned slot), zeroed and
/// counted under the recovery policies — the blocked analog of
/// `PivotDoctor::scrub_row`.
fn scrub_tiles(
    doctor: &mut PivotDoctor,
    row0: usize,
    b: usize,
    tiles: &mut [f64],
) -> Result<(), FactorError> {
    let bb = b * b;
    let bad: Vec<usize> = tiles
        .iter()
        .enumerate()
        .filter(|(_, v)| !v.is_finite())
        .map(|(s, _)| s)
        .collect();
    if bad.is_empty() {
        return Ok(());
    }
    let row = row0 + (bad[0] % bb) / b;
    // Funnel through the doctor so Abort/recovery and the scrub count mean
    // exactly what they do in the scalar kernels.
    let mut entries: Vec<(usize, f64)> = bad.iter().map(|&s| (s, tiles[s])).collect();
    doctor.scrub_row(row, &mut entries)?;
    for s in bad {
        tiles[s] = 0.0;
    }
    Ok(())
}

/// Flop count of one no-pivot `b × b` tile LU (0 at `b = 1`, matching the
/// scalar kernel which never factors its 1×1 diagonal).
fn tile_lu_cost(b: usize) -> f64 {
    (0..b)
        .map(|k| {
            let r = b - 1 - k;
            (r * (1 + 2 * r)) as f64
        })
        .sum()
}

/// Diagonal-repair attempts per block row before giving up. Each failed
/// lane costs one `PivotDoctor::resolve`, whose shift escalates
/// geometrically, so a tile that is repairable at all converges in a few
/// rounds; the cap only guards pathological policies.
const MAX_DIAG_REPAIRS: usize = 64;

/// Computes blocked ILUT(m, t) of a square BCSR matrix, returned as scalar
/// factors.
///
/// `m` caps the number of *tiles* kept per strict block-lower and
/// block-upper part of each block row; `tau` scales the per-block-row
/// Frobenius norm into the drop threshold. See the module docs for the
/// scalar correspondence.
pub fn block_ilut(a: &BcsrMatrix, opts: &IlutOptions) -> Result<LuFactors, FactorError> {
    block_ilut_with_stats(a, opts).map(|(f, _)| f)
}

/// Like [`block_ilut`], additionally returning operation counts.
/// `nnz_l`/`nnz_u` count dense tile slots (`tiles · b²`) so they reduce to
/// the scalar entry counts at `b = 1`.
pub fn block_ilut_with_stats(
    a: &BcsrMatrix,
    opts: &IlutOptions,
) -> Result<(LuFactors, FactorStats), FactorError> {
    assert_eq!(a.n_rows(), a.n_cols(), "blocked ILUT needs a square matrix");
    opts.validate()?;
    let n = a.n_rows();
    let b = a.block_size();
    let bb = b * b;
    let nb = a.n_brows();
    let mut doctor = PivotDoctor::new(opts.breakdown);
    let mut l_rows: Vec<TileRow> = Vec::with_capacity(nb);
    let mut u_rows: Vec<TileRow> = Vec::with_capacity(nb);
    let mut diag_lus: Vec<f64> = Vec::with_capacity(nb * bb);
    let mut w = LanedRow::new(nb, bb);
    let mut stats = FactorStats::default();
    let mut heap: BinaryHeap<Reverse<usize>> = BinaryHeap::new();
    let mut in_heap = vec![false; nb];
    // Scratch reused across block rows.
    let mut cols_buf: Vec<usize> = Vec::new();
    let mut lanes_buf: Vec<f64> = Vec::new();
    let mut lower: Vec<TileRef> = Vec::new();
    let mut upper: Vec<TileRef> = Vec::new();
    let mut mbuf = [0.0f64; tile::MAX_BLOCK * tile::MAX_BLOCK];

    for bi in 0..nb {
        let rows = (n - bi * b).min(b);
        let norm_i = a.block_row_norm(bi);
        let tau_i = opts.tau * norm_i;
        debug_assert!(heap.is_empty(), "heap drained by the previous block row");
        let (bcols, tiles) = a.block_row(bi);
        for (t, &bj) in bcols.iter().enumerate() {
            w.set_lane(bj, &tiles[t * bb..(t + 1) * bb]);
            if bj < bi && !in_heap[bj] {
                in_heap[bj] = true;
                heap.push(Reverse(bj));
            }
        }
        // Elimination sweep: ascending pivot block order, fills pushed
        // lazily — the scalar loop with tiles in place of scalars.
        while let Some(Reverse(k)) = heap.pop() {
            in_heap[k] = false;
            // lint: allow(float-eq): skips exactly cancelled tiles
            if w.lane(k).iter().all(|&v| v == 0.0) {
                w.drop_pos(k);
                continue;
            }
            // M = W_k · U_kk⁻¹ against block row k's factored diagonal.
            mbuf[..bb].copy_from_slice(w.lane(k));
            tile::lu_right_solve(b, &diag_lus[k * bb..(k + 1) * bb], &mut mbuf[..bb]);
            stats.flops += (bb * b) as f64;
            // First dropping rule, on the multiplier tile's magnitude.
            if tile::tile_mag(b, &mbuf[..bb]) < tau_i {
                w.drop_pos(k);
                continue;
            }
            w.set_lane(k, &mbuf[..bb]);
            // W -= M · U_k over the pivot's strict block-upper tiles.
            let urow = &u_rows[k];
            for (t, &j) in urow.cols.iter().enumerate() {
                let newly = !w.contains(j);
                tile::gemm_sub(
                    b,
                    w.occupy(j),
                    &mbuf[..bb],
                    &urow.tiles[t * bb..(t + 1) * bb],
                );
                if newly && j < bi && !in_heap[j] {
                    in_heap[j] = true;
                    heap.push(Reverse(j));
                }
            }
            stats.flops += 2.0 * (bb * b) as f64 * urow.cols.len() as f64;
        }
        // Second dropping rule at tile granularity.
        w.drain_sorted_lanes_into(&mut cols_buf, &mut lanes_buf);
        stats.flops += selection_cost(cols_buf.len());
        // The diagonal tile is split out first (always kept), exactly as
        // the scalar kernel splits its pivot out before the cap.
        lower.clear();
        upper.clear();
        let mut diag: Option<[f64; tile::MAX_BLOCK * tile::MAX_BLOCK]> = None;
        for (idx, &c) in cols_buf.iter().enumerate() {
            let lane = &lanes_buf[idx * bb..(idx + 1) * bb];
            let r = TileRef {
                col: c,
                idx,
                mag: tile::tile_mag(b, lane),
            };
            if c < bi {
                lower.push(r);
            } else if c > bi {
                upper.push(r);
            } else {
                let mut d = [0.0f64; tile::MAX_BLOCK * tile::MAX_BLOCK];
                d[..bb].copy_from_slice(lane);
                diag = Some(d);
            }
        }
        threshold_and_cap_tiles(&mut lower, tau_i, opts.m);
        threshold_and_cap_tiles(&mut upper, tau_i, opts.m);
        // Materialise the survivors.
        let materialise = |refs: &[TileRef]| {
            let mut row = TileRow::default();
            for r in refs {
                row.cols.push(r.col);
                row.tiles
                    .extend_from_slice(&lanes_buf[r.idx * bb..(r.idx + 1) * bb]);
            }
            row
        };
        let (mut lrow, mut urow) = (materialise(&lower), materialise(&upper));
        // Breakdown handling: scrub, classify the diagonal, factor it with
        // lane-level repair.
        scrub_tiles(&mut doctor, bi * b, b, &mut lrow.tiles)?;
        scrub_tiles(&mut doctor, bi * b, b, &mut urow.tiles)?;
        if let Some(d) = diag.as_mut() {
            scrub_tiles(&mut doctor, bi * b, b, &mut d[..bb])?;
        }
        let mut diag = match diag {
            Some(d) => d,
            None => {
                // No diagonal tile survived and no fill reached it.
                let mut d = [0.0f64; tile::MAX_BLOCK * tile::MAX_BLOCK];
                match doctor.resolve(
                    bi * b,
                    PivotFault::StructurallyMissing,
                    PivotDoctor::usable_scale(norm_i),
                )? {
                    PivotFix::Shift(boost) => {
                        for r in 0..rows {
                            d[r * b + r] = boost;
                        }
                    }
                    PivotFix::ReplaceRow(dv) => {
                        lrow = TileRow::default();
                        urow = TileRow::default();
                        for r in 0..rows {
                            d[r * b + r] = dv;
                        }
                    }
                }
                d
            }
        };
        // Padding lanes (last block row when b ∤ n) carry identity.
        for r in rows..b {
            diag[r * b + r] = 1.0;
        }
        let mut attempts = 0usize;
        let dlu = loop {
            let mut t = diag;
            match tile::lu_factor(b, &mut t[..bb]) {
                Ok(()) => break t,
                Err(lane) => {
                    let piv = t[lane * b + lane];
                    let fault = if !piv.is_finite() {
                        PivotFault::NonFinite
                    } else {
                        PivotFault::Zero
                    };
                    attempts += 1;
                    if attempts > MAX_DIAG_REPAIRS {
                        return Err(fault.error_at(bi * b + lane));
                    }
                    match doctor.resolve(bi * b + lane, fault, PivotDoctor::usable_scale(norm_i))? {
                        PivotFix::Shift(boost) => diag[lane * b + lane] = boost,
                        PivotFix::ReplaceRow(dv) => {
                            lrow = TileRow::default();
                            urow = TileRow::default();
                            diag = [0.0; tile::MAX_BLOCK * tile::MAX_BLOCK];
                            for r in 0..rows {
                                diag[r * b + r] = dv;
                            }
                            for r in rows..b {
                                diag[r * b + r] = 1.0;
                            }
                        }
                    }
                }
            }
        };
        stats.flops += tile_lu_cost(b);
        stats.nnz_l += lrow.cols.len() * bb;
        stats.nnz_u += (urow.cols.len() + 1) * bb;
        l_rows.push(lrow);
        u_rows.push(urow);
        diag_lus.extend_from_slice(&dlu[..bb]);
    }
    stats.breakdowns_repaired = doctor.repairs();
    Ok((refine(n, b, &l_rows, &u_rows, &diag_lus), stats))
}

/// The scalar refinement of the finished tile rows: a [`LuFactors`] whose
/// product equals the blocked `L·U` exactly.
///
/// With each diagonal tile `D = L_d U_d` (unit-lower/upper, `L\U`-packed in
/// `diag_lu`), the scalar factors are `L_s = (I + M)·diag(L_d)` and
/// `U_s = diag(U_d) + diag(L_d)⁻¹·V` — so off-diagonal `L` tiles become
/// `M·L_d` and off-diagonal `U` tiles `L_d⁻¹·V`, while the in-block
/// entries come straight from the packed tile LU. At `b = 1` both
/// corrections are identities and the refinement is a bitwise copy.
/// Exact zeros (tile padding, scrubbed slots) are skipped, as are the
/// padding lanes of a ragged last block row.
fn refine(n: usize, b: usize, l: &[TileRow], u: &[TileRow], diag_lu: &[f64]) -> LuFactors {
    let bb = b * b;
    let mut store = FactorStore::with_capacity(n);
    let mut mod_tile = [0.0f64; tile::MAX_BLOCK * tile::MAX_BLOCK];
    // Per-lane assembly buffers of the block row being refined.
    let mut lrows: [Vec<(usize, f64)>; tile::MAX_BLOCK] = Default::default();
    let mut urows: [Vec<(usize, f64)>; tile::MAX_BLOCK] = Default::default();
    // Appends the rows of a corrected off-diagonal tile at block column
    // `bj`, skipping padding columns and exact zeros.
    let push_tile = |out: &mut [Vec<(usize, f64)>], bj: usize, tile: &[f64]| {
        for (r, row) in out.iter_mut().enumerate() {
            for (c, &v) in tile[r * b..(r + 1) * b].iter().enumerate() {
                // lint: allow(float-eq): padding slots are exact zeros
                if bj * b + c < n && v != 0.0 {
                    row.push((bj * b + c, v));
                }
            }
        }
    };
    for (bi, (lrow, urow)) in l.iter().zip(u).enumerate() {
        let rows = (n - bi * b).min(b);
        let dlu_i = &diag_lu[bi * bb..(bi + 1) * bb];
        let (lrows, urows) = (&mut lrows[..rows], &mut urows[..rows]);
        lrows
            .iter_mut()
            .chain(urows.iter_mut())
            .for_each(Vec::clear);
        // Strict block-lower tiles, corrected to M·L_d(J): unit-lower L_d
        // is packed below the diagonal of block row J's tile.
        for (m, &bj) in lrow.tiles.chunks_exact(bb).zip(&lrow.cols) {
            let dlu_j = &diag_lu[bj * bb..(bj + 1) * bb];
            for r in 0..b {
                for c in 0..b {
                    let mut s = m[r * b + c];
                    for q in c + 1..b {
                        s += m[r * b + q] * dlu_j[q * b + c];
                    }
                    mod_tile[r * b + c] = s;
                }
            }
            push_tile(lrows, bj, &mod_tile[..bb]);
        }
        // In-block entries from the packed diagonal LU (the pivot
        // `dlu_i[r, r]` goes to the store's `diag`).
        for r in 0..rows {
            for c in (0..rows).filter(|&c| c != r) {
                let v = dlu_i[r * b + c];
                // lint: allow(float-eq): skip exact zeros
                if v != 0.0 {
                    let part = if c < r { &mut *lrows } else { &mut *urows };
                    part[r].push((bi * b + c, v));
                }
            }
        }
        // Strict block-upper tiles, corrected to L_d(I)⁻¹·V, column by
        // column (forward substitution).
        for (v, &bj) in urow.tiles.chunks_exact(bb).zip(&urow.cols) {
            for c in 0..b {
                for r in 0..b {
                    let mut s = v[r * b + c];
                    for q in 0..r {
                        s -= dlu_i[r * b + q] * mod_tile[q * b + c];
                    }
                    mod_tile[r * b + c] = s;
                }
            }
            push_tile(urows, bj, &mod_tile[..bb]);
        }
        for r in 0..rows {
            store.push_row(&lrows[r], dlu_i[r * b + r], &urows[r], |j| j);
        }
    }
    LuFactors::from_store(store)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::options::BreakdownPolicy;
    use crate::serial::ilut::ilut_with_stats;
    use pilut_sparse::gen;
    use pilut_sparse::vec_ops::max_abs_diff;
    use pilut_sparse::CsrMatrix;

    /// At block size 1 the blocked kernel IS the scalar kernel: factors,
    /// stats, and solves are bitwise-identical.
    #[test]
    fn b1_is_bitwise_the_scalar_ilut() {
        for (m, tau) in [(5usize, 0.0f64), (3, 1e-2), (8, 1e-4)] {
            let a = gen::convection_diffusion_2d(9, 7, 2.0, -1.5);
            let opts = IlutOptions::new(m, tau);
            let (sf, ss) = ilut_with_stats(&a, &opts).unwrap();
            let ab = BcsrMatrix::from_csr(&a, 1);
            let (bf, bs) = block_ilut_with_stats(&ab, &opts).unwrap();
            assert_eq!(ss.flops, bs.flops, "m={m} tau={tau}");
            assert_eq!(ss.nnz_l, bs.nnz_l);
            assert_eq!(ss.nnz_u, bs.nnz_u);
            for i in 0..a.n_rows() {
                assert!(sf.l_row(i).eq(bf.l_row(i)), "L row {i}");
                assert_eq!(sf.diag(i), bf.diag(i), "diag {i}");
                assert!(sf.u_row(i).eq(bf.u_row(i)), "U row {i}");
            }
            let r: Vec<f64> = (0..a.n_rows()).map(|i| (i % 11) as f64 - 5.0).collect();
            assert_eq!(sf.solve(&r), bf.solve(&r), "trisolve diverged");
        }
    }

    /// With nothing dropped, blocked ILUT at any block size is an exact LU.
    #[test]
    fn exact_lu_when_nothing_drops() {
        let a = gen::laplace_2d(6, 6);
        let n = a.n_rows();
        let x_true: Vec<f64> = (0..n).map(|i| (i % 7) as f64 - 3.0).collect();
        let rhs = a.spmv_owned(&x_true);
        for b in [2usize, 3, 4] {
            let ab = BcsrMatrix::from_csr(&a, b);
            let f = block_ilut(&ab, &IlutOptions::new(n, 0.0)).unwrap();
            f.check_structure().unwrap();
            let x = f.solve(&rhs);
            assert!(
                max_abs_diff(&x, &x_true) < 1e-9,
                "b={b}: not an exact solve"
            );
        }
    }

    /// Ragged dimension (n not divisible by b): padding must not leak.
    #[test]
    fn ragged_blocks_solve_exactly() {
        let a = gen::convection_diffusion_2d(5, 7, 1.0, 1.0); // n = 35
        let n = a.n_rows();
        let x_true: Vec<f64> = (0..n).map(|i| 1.0 + (i % 3) as f64).collect();
        let rhs = a.spmv_owned(&x_true);
        for b in [2usize, 4] {
            assert_ne!(n % b, 0);
            let ab = BcsrMatrix::from_csr(&a, b);
            let f = block_ilut(&ab, &IlutOptions::new(n, 0.0)).unwrap();
            let x = f.solve(&rhs);
            assert!(max_abs_diff(&x, &x_true) < 1e-9, "b={b}");
        }
    }

    /// Padding never reaches the scalar store: with n % b != 0 the returned
    /// factor has exactly n rows, is structurally valid, and stores no
    /// column past n and no exact zero — with dropping on, so tiles carry
    /// genuine zero slots next to their padding.
    #[test]
    fn ragged_blocks_refine_to_exactly_n_clean_rows() {
        let a = gen::convection_diffusion_2d(5, 7, 1.0, 1.0); // n = 35
        let n = a.n_rows();
        for b in [2usize, 3, 4] {
            assert_ne!(n % b, 0);
            let ab = BcsrMatrix::from_csr(&a, b);
            let f = block_ilut(&ab, &IlutOptions::new(3, 1e-3)).unwrap();
            assert_eq!(f.n, n, "b={b}");
            f.check_structure().unwrap();
            for i in 0..n {
                for (c, v) in f.l_row(i).chain(f.u_row(i)) {
                    assert!(c < n, "b={b}: row {i} stores padding column {c}");
                    assert_ne!(v, 0.0, "b={b}: row {i} stores a zero at {c}");
                }
            }
        }
    }

    /// Structurally missing block pivot: Abort errors, Shift recovers.
    #[test]
    fn breakdown_policies_apply_at_block_granularity() {
        // [[0, 1], [1, 0]] blocked at b=2 has its diagonal tile present but
        // the tile LU hits a zero pivot in lane 0.
        let a = CsrMatrix::from_raw(2, 2, vec![0, 1, 2], vec![1, 0], vec![1.0, 1.0]);
        let ab = BcsrMatrix::from_csr(&a, 2);
        let err = block_ilut(&ab, &IlutOptions::new(2, 0.0)).unwrap_err();
        assert_eq!(err, FactorError::ZeroPivot { row: 0 });
        let opts = IlutOptions::new(2, 0.0).with_breakdown(BreakdownPolicy::shift());
        let (f, s) = block_ilut_with_stats(&ab, &opts).unwrap();
        f.check_structure().unwrap();
        assert!(s.breakdowns_repaired >= 1);
    }

    /// Tile fill cap honoured: at most m tiles per strict part.
    #[test]
    fn respects_tile_cap() {
        let a = gen::laplace_2d(12, 12);
        let ab = BcsrMatrix::from_csr(&a, 2);
        let m = 2;
        let f = block_ilut(&ab, &IlutOptions::new(m, 0.0)).unwrap();
        // Off-diagonal block columns a scalar row's entries fall into.
        fn tiles_of(i: usize, row: impl Iterator<Item = (usize, f64)>) -> usize {
            let mut bcols: Vec<usize> = row.map(|(c, _)| c / 2).collect();
            bcols.dedup();
            bcols.iter().filter(|&&bc| bc != i / 2).count()
        }
        for i in 0..a.n_rows() {
            assert!(tiles_of(i, f.l_row(i)) <= m, "L row {i}");
            assert!(tiles_of(i, f.u_row(i)) <= m, "U row {i}");
        }
    }

    /// Preconditioner quality: blocked ILUT at b=4 beats doing nothing and
    /// is in the scalar ILUT's quality neighbourhood.
    #[test]
    fn blocked_preconditioner_reduces_residual() {
        let a = gen::convection_diffusion_2d(10, 10, 5.0, 5.0);
        let n = a.n_rows();
        let x_true = vec![1.0; n];
        let rhs = a.spmv_owned(&x_true);
        let ab = BcsrMatrix::from_csr(&a, 4);
        let f = block_ilut(&ab, &IlutOptions::new(8, 1e-8)).unwrap();
        let x = f.solve(&rhs);
        let err_precond = max_abs_diff(&x, &x_true);
        let err_nothing = max_abs_diff(&rhs, &x_true);
        assert!(
            err_precond < 0.5 * err_nothing,
            "blocked solve {err_precond} vs identity {err_nothing}"
        );
    }
}
