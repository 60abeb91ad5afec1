//! Storage and level-scheduled triangular sweeps for blocked (BCSR-style)
//! incomplete LU factors.
//!
//! The blocked analog of [`crate::factors::LuFactors`]: factors are stored
//! as block rows of dense `b × b` tiles. Conventions:
//!
//! * `l[I]` holds the **strict** block-lower tiles of block row `I` — the
//!   multiplier tiles `M = W_K · U_KK⁻¹`; the identity diagonal tile of
//!   `L` is implicit;
//! * `u[I]` holds the **strict** block-upper tiles;
//! * the diagonal tile of block row `I` is kept factored (Doolittle `L\U`
//!   packed, no pivoting — see `pilut_sparse::tile::lu_factor`) so both
//!   the elimination's tile-inverse application and the backward sweep
//!   reuse it directly.
//!
//! Rows past `n` in the last block row (when `n % b != 0`) are padding:
//! their diagonal-tile lanes carry 1.0 and nothing couples them, so they
//! solve to whatever the padded right-hand side holds (zeros) and never
//! perturb real lanes.
//!
//! The sweeps are *level-scheduled*: block rows are grouped into dependency
//! levels (a row's level is one past the deepest level it reads), and each
//! sweep walks the levels in order. Rows inside one level are independent,
//! which is what lets the tile sweep take an `n × k` right-hand-side panel
//! through the same schedule — and what a parallel backend would exploit.
//! Because each block row's own update order is unchanged, the sweep result
//! is bitwise-identical to the plain sequential order.

use crate::factors::{FactorStore, LuFactors};
use pilut_sparse::tile;

/// One block row of tiles: ascending block-column indices with the matching
/// concatenated row-major `b²`-slot tiles.
#[derive(Clone, Debug, Default)]
pub struct BlockTileRow {
    /// Block-column indices, strictly ascending.
    pub cols: Vec<usize>,
    /// Tile `t` occupies `tiles[t·b² .. (t+1)·b²]`.
    pub tiles: Vec<f64>,
}

impl BlockTileRow {
    /// Number of stored tiles.
    pub fn len(&self) -> usize {
        self.cols.len()
    }

    /// True when the block row stores no tiles.
    pub fn is_empty(&self) -> bool {
        self.cols.is_empty()
    }
}

/// A blocked incomplete LU factorization with dense `b × b` tiles and
/// level-scheduled triangular sweeps.
///
/// `L` and `U` are stored as single contiguous arenas (CSR-style row
/// pointers over flat column/tile arrays) rather than per-row `Vec`s: the
/// triangular sweeps stream every stored tile exactly once, and one arena
/// keeps that stream prefetcher-friendly instead of hopping between
/// per-row heap allocations. Builders still assemble [`BlockTileRow`]s;
/// [`BlockLuFactors::from_parts`] flattens them.
#[derive(Clone, Debug)]
pub struct BlockLuFactors {
    n: usize,
    b: usize,
    n_brows: usize,
    /// Row pointer into `l_cols` (`n_brows + 1` entries).
    l_ptr: Vec<usize>,
    /// Strict block-lower block-column indices, ascending per row.
    l_cols: Vec<usize>,
    /// Tile `t` of the arena occupies `l_tiles[t·b² .. (t+1)·b²]`.
    l_tiles: Vec<f64>,
    /// Row pointer into `u_cols` (`n_brows + 1` entries).
    u_ptr: Vec<usize>,
    /// Strict block-upper block-column indices, ascending per row.
    u_cols: Vec<usize>,
    /// Concatenated strict-upper tiles, parallel to `u_cols`.
    u_tiles: Vec<f64>,
    /// Factored diagonal tiles, `L\U`-packed, `n_brows · b²` slots.
    diag_lu: Vec<f64>,
    /// Forward-sweep schedule: block rows grouped by dependency level.
    lower_levels: Vec<Vec<usize>>,
    /// Backward-sweep schedule.
    upper_levels: Vec<Vec<usize>>,
}

fn levels_of<F: Fn(usize) -> Vec<usize>>(n: usize, reversed: bool, deps: F) -> Vec<Vec<usize>> {
    let mut lev = vec![0usize; n];
    let order: Box<dyn Iterator<Item = usize>> = if reversed {
        Box::new((0..n).rev())
    } else {
        Box::new(0..n)
    };
    let mut max_lev = 0usize;
    for i in order {
        let li = deps(i).into_iter().map(|j| lev[j] + 1).max().unwrap_or(0);
        lev[i] = li;
        max_lev = max_lev.max(li);
    }
    let mut groups = vec![Vec::new(); max_lev + 1];
    for i in 0..n {
        groups[lev[i]].push(i);
    }
    groups
}

impl BlockLuFactors {
    /// Assembles factors from parts and computes the level schedules.
    ///
    /// `diag_lu` must hold `⌈n/b⌉` already-factored (`L\U`-packed) diagonal
    /// tiles with padding lanes set to 1.0.
    pub fn from_parts(
        n: usize,
        b: usize,
        l: Vec<BlockTileRow>,
        u: Vec<BlockTileRow>,
        diag_lu: Vec<f64>,
    ) -> Self {
        let n_brows = n.div_ceil(b);
        assert_eq!(l.len(), n_brows);
        assert_eq!(u.len(), n_brows);
        assert_eq!(diag_lu.len(), n_brows * b * b);
        let lower_levels = levels_of(n_brows, false, |i| l[i].cols.clone());
        let upper_levels = levels_of(n_brows, true, |i| u[i].cols.clone());
        let flatten = |rows: Vec<BlockTileRow>| {
            let mut ptr = Vec::with_capacity(n_brows + 1);
            let mut cols = Vec::new();
            let mut tiles = Vec::new();
            ptr.push(0);
            for row in rows {
                assert_eq!(row.tiles.len(), row.cols.len() * b * b);
                cols.extend_from_slice(&row.cols);
                tiles.extend_from_slice(&row.tiles);
                ptr.push(cols.len());
            }
            (ptr, cols, tiles)
        };
        let (l_ptr, l_cols, l_tiles) = flatten(l);
        let (u_ptr, u_cols, u_tiles) = flatten(u);
        BlockLuFactors {
            n,
            b,
            n_brows,
            l_ptr,
            l_cols,
            l_tiles,
            u_ptr,
            u_cols,
            u_tiles,
            diag_lu,
            lower_levels,
            upper_levels,
        }
    }

    /// Block row `bi` of `L`: `(block columns, concatenated tiles)`.
    pub fn l_row(&self, bi: usize) -> (&[usize], &[f64]) {
        let bb = self.b * self.b;
        let (s, e) = (self.l_ptr[bi], self.l_ptr[bi + 1]);
        (&self.l_cols[s..e], &self.l_tiles[s * bb..e * bb])
    }

    /// Block row `bi` of `U`: `(block columns, concatenated tiles)`.
    pub fn u_row(&self, bi: usize) -> (&[usize], &[f64]) {
        let bb = self.b * self.b;
        let (s, e) = (self.u_ptr[bi], self.u_ptr[bi + 1]);
        (&self.u_cols[s..e], &self.u_tiles[s * bb..e * bb])
    }

    /// Scalar dimension of the factored matrix.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Tile dimension `b`.
    pub fn block_size(&self) -> usize {
        self.b
    }

    /// Number of block rows (`⌈n/b⌉`).
    pub fn n_brows(&self) -> usize {
        self.n_brows
    }

    /// The factored (`L\U`-packed) diagonal tile of block row `bi`.
    pub fn diag_lu_tile(&self, bi: usize) -> &[f64] {
        let bb = self.b * self.b;
        &self.diag_lu[bi * bb..(bi + 1) * bb]
    }

    /// Stored tiles across `L`, `U`, and the diagonal.
    pub fn nnz_tiles(&self) -> usize {
        self.l_cols.len() + self.u_cols.len() + self.n_brows
    }

    /// Dense slots the tile sweeps actually process (`nnz_tiles · b²`) —
    /// the blocked counterpart of `LuFactors::nnz` for throughput
    /// accounting.
    pub fn stored_entries(&self) -> usize {
        self.nnz_tiles() * self.b * self.b
    }

    /// Number of dependency levels in the (forward, backward) schedules.
    pub fn level_counts(&self) -> (usize, usize) {
        (self.lower_levels.len(), self.upper_levels.len())
    }

    /// Validates the structural conventions; used by tests.
    pub fn check_structure(&self) -> Result<(), String> {
        let b = self.b;
        for bi in 0..self.n_brows {
            let (lcols, _) = self.l_row(bi);
            for &c in lcols {
                if c >= bi {
                    return Err(format!("L block row {bi} has block col {c} >= diagonal"));
                }
            }
            if !lcols.windows(2).all(|w| w[0] < w[1]) {
                return Err(format!("L block row {bi} cols not ascending"));
            }
            let (ucols, _) = self.u_row(bi);
            for &c in ucols {
                if c <= bi {
                    return Err(format!("U block row {bi} has block col {c} <= diagonal"));
                }
            }
            if !ucols.windows(2).all(|w| w[0] < w[1]) {
                return Err(format!("U block row {bi} cols not ascending"));
            }
            let dlu = self.diag_lu_tile(bi);
            for r in 0..b {
                let d = dlu[r * b + r];
                // lint: allow(float-eq): exact zero-pivot test
                if !d.is_finite() || d == 0.0 {
                    return Err(format!("block row {bi} lane {r} has unusable pivot {d}"));
                }
            }
        }
        Ok(())
    }

    /// Solves `L y = b` (unit block-diagonal) over a padded buffer of
    /// `n_brows · b` lanes, level by level.
    pub fn forward_solve_padded(&self, x: &mut [f64]) {
        assert_eq!(x.len(), self.n_brows * self.b);
        // Hoist the block-size dispatch out of the per-tile loop: the sweep
        // bodies monomorphize on `B`, so the 4×4 tile update is sixteen
        // unrolled fused ops with the accumulator in registers instead of a
        // runtime-`b` loop nest per tile. Arithmetic order is unchanged, so
        // every specialization is bitwise the generic sweep.
        match self.b {
            1 => forward_sweep::<1>(self, x),
            2 => forward_sweep::<2>(self, x),
            3 => forward_sweep::<3>(self, x),
            4 => forward_sweep::<4>(self, x),
            b => unreachable!("block size {b} exceeds MAX_BLOCK"),
        }
    }

    /// Solves `U x = y` over a padded buffer of `n_brows · b` lanes, level
    /// by level, applying each diagonal tile's small LU.
    pub fn backward_solve_padded(&self, x: &mut [f64]) {
        assert_eq!(x.len(), self.n_brows * self.b);
        match self.b {
            1 => backward_sweep::<1>(self, x),
            2 => backward_sweep::<2>(self, x),
            3 => backward_sweep::<3>(self, x),
            4 => backward_sweep::<4>(self, x),
            b => unreachable!("block size {b} exceeds MAX_BLOCK"),
        }
    }

    /// Applies `(LU)⁻¹ r` — the preconditioner action. Bitwise-identical to
    /// `LuFactors::solve` at block size 1.
    pub fn solve(&self, r: &[f64]) -> Vec<f64> {
        assert_eq!(r.len(), self.n);
        let mut x = vec![0.0; self.n_brows * self.b];
        x[..self.n].copy_from_slice(r);
        self.forward_solve_padded(&mut x);
        self.backward_solve_padded(&mut x);
        x.truncate(self.n);
        x
    }

    /// Applies `(LU)⁻¹` to an `n × k` right-hand-side panel stored row-major
    /// (`rhs[i·k + c]` = row `i`, right-hand side `c`), amortising every
    /// tile load over `k` solves. Column `c` of the result is
    /// bitwise-identical to `solve` of column `c` alone.
    pub fn solve_panel(&self, rhs: &[f64], k: usize) -> Vec<f64> {
        assert!(k >= 1, "panel width must be at least 1");
        assert_eq!(rhs.len(), self.n * k);
        let mut x = vec![0.0; self.n_brows * self.b * k];
        x[..self.n * k].copy_from_slice(rhs);
        match self.b {
            1 => panel_sweeps::<1>(self, k, &mut x),
            2 => panel_sweeps::<2>(self, k, &mut x),
            3 => panel_sweeps::<3>(self, k, &mut x),
            4 => panel_sweeps::<4>(self, k, &mut x),
            b => unreachable!("block size {b} exceeds MAX_BLOCK"),
        }
        x.truncate(self.n * k);
        x
    }

    /// Applies `(LU)⁻¹ r` into a caller-owned padded buffer — the
    /// zero-allocation steady-state form of [`BlockLuFactors::solve`].
    /// `x` must hold `n_brows · b` lanes (use [`BlockLuFactors::padded_len`]
    /// to size it once); on return the first `n` lanes are the solution and
    /// the padding lanes are zero.
    pub fn solve_into(&self, r: &[f64], x: &mut [f64]) {
        let _audit = pilut_allocaudit::region("trisolve_replay");
        assert_eq!(r.len(), self.n);
        assert_eq!(x.len(), self.n_brows * self.b);
        x[..self.n].copy_from_slice(r);
        x[self.n..].fill(0.0);
        self.forward_solve_padded(x);
        self.backward_solve_padded(x);
    }

    /// Applies `(LU)⁻¹` to an `n × k` panel into a caller-owned padded
    /// buffer of `n_brows · b · k` lanes — the zero-allocation form of
    /// [`BlockLuFactors::solve_panel`]. Column `c` of the result is
    /// bitwise-identical to `solve_into` of column `c` alone.
    pub fn solve_panel_into(&self, rhs: &[f64], k: usize, x: &mut [f64]) {
        let _audit = pilut_allocaudit::region("trisolve_replay");
        assert!(k >= 1, "panel width must be at least 1");
        assert_eq!(rhs.len(), self.n * k);
        assert_eq!(x.len(), self.n_brows * self.b * k);
        x[..self.n * k].copy_from_slice(rhs);
        x[self.n * k..].fill(0.0);
        match self.b {
            1 => panel_sweeps::<1>(self, k, x),
            2 => panel_sweeps::<2>(self, k, x),
            3 => panel_sweeps::<3>(self, k, x),
            4 => panel_sweeps::<4>(self, k, x),
            b => unreachable!("block size {b} exceeds MAX_BLOCK"),
        }
    }

    /// Lanes of the padded solve buffer ([`BlockLuFactors::solve_into`]
    /// scratch): `n_brows · b`.
    pub fn padded_len(&self) -> usize {
        self.n_brows * self.b
    }

    /// The scalar refinement of the blocked factors: a [`LuFactors`] whose
    /// product equals the blocked `L·U` exactly.
    ///
    /// With each diagonal tile `D = L_d U_d` (unit-lower/upper, as stored),
    /// the scalar factors are `L_s = (I + M)·diag(L_d)` and
    /// `U_s = diag(U_d) + diag(L_d)⁻¹·V` — so off-diagonal `L` tiles become
    /// `M·L_d` and off-diagonal `U` tiles `L_d⁻¹·V`, while the in-block
    /// entries come straight from the packed tile LU. At `b = 1` both
    /// corrections are identities and the conversion is a bitwise copy.
    /// Exact zeros (tile padding) are skipped, as are padding lanes.
    pub fn to_lu_factors(&self) -> LuFactors {
        let b = self.b;
        let bb = b * b;
        let mut store = FactorStore::with_capacity(self.n);
        let mut mod_tile = vec![0.0f64; bb];
        for bi in 0..self.n_brows {
            let rows = (self.n - bi * b).min(b);
            let dlu_i = self.diag_lu_tile(bi);
            // Per-scalar-row assembly buffers for this block row.
            let mut lrows: Vec<Vec<(usize, f64)>> = vec![Vec::new(); rows];
            let mut urows: Vec<Vec<(usize, f64)>> = vec![Vec::new(); rows];
            // Appends row `r` of a corrected off-diagonal tile at block
            // column `bj`, skipping padding lanes and exact zeros.
            let push_tile = |out: &mut [Vec<(usize, f64)>], bj: usize, tile: &[f64]| {
                for (r, row) in out.iter_mut().enumerate() {
                    for (c, &v) in tile[r * b..(r + 1) * b].iter().enumerate() {
                        // lint: allow(float-eq): padding slots are exact zeros
                        if bj * b + c < self.n && v != 0.0 {
                            row.push((bj * b + c, v));
                        }
                    }
                }
            };
            // Strict block-lower tiles, corrected to M·L_d(J).
            let (lcols, ltiles) = self.l_row(bi);
            for (m, &bj) in ltiles.chunks_exact(bb).zip(lcols) {
                let dlu_j = self.diag_lu_tile(bj);
                // mod = M · L_d(J): unit-lower L_d packed below dlu_j's diagonal.
                for r in 0..b {
                    for c in 0..b {
                        let mut s = m[r * b + c];
                        for q in c + 1..b {
                            s += m[r * b + q] * dlu_j[q * b + c];
                        }
                        mod_tile[r * b + c] = s;
                    }
                }
                push_tile(&mut lrows, bj, &mod_tile);
            }
            // In-block entries from the packed diagonal LU (the pivot
            // `dlu_i[r, r]` goes to the store's `diag`).
            for r in 0..rows {
                for c in (0..rows).filter(|&c| c != r) {
                    let v = dlu_i[r * b + c];
                    // lint: allow(float-eq): skip exact zeros
                    if v != 0.0 {
                        let part = if c < r { &mut lrows } else { &mut urows };
                        part[r].push((bi * b + c, v));
                    }
                }
            }
            // Strict block-upper tiles, corrected to L_d(I)⁻¹·V.
            let (ucols, utiles) = self.u_row(bi);
            for (v, &bj) in utiles.chunks_exact(bb).zip(ucols) {
                // mod = L_d(I)⁻¹ · V, column by column (forward substitution).
                for c in 0..b {
                    for r in 0..b {
                        let mut s = v[r * b + c];
                        for q in 0..r {
                            s -= dlu_i[r * b + q] * mod_tile[q * b + c];
                        }
                        mod_tile[r * b + c] = s;
                    }
                }
                push_tile(&mut urows, bj, &mod_tile);
            }
            for r in 0..rows {
                store.push_row(&lrows[r], dlu_i[r * b + r], &urows[r], |j| j);
            }
        }
        LuFactors::from_store(store)
    }
}

// Monomorphized sweep bodies behind the `forward_solve_padded` /
// `backward_solve_padded` / `solve_panel` dispatch: with `B` a compile-time
// constant the tile loops fully unroll and the accumulator lives in
// registers. Loop order is exactly the generic `tile::matvec_sub` /
// `tile::panel_sub` order, so every specialization — including `B = 1`,
// the scalar-parity anchor — is bitwise the dynamic sweep it replaces.

fn forward_sweep<const B: usize>(f: &BlockLuFactors, x: &mut [f64]) {
    for level in &f.lower_levels {
        for &bi in level {
            let (s, e) = (f.l_ptr[bi], f.l_ptr[bi + 1]);
            if s == e {
                continue;
            }
            let cols = &f.l_cols[s..e];
            let tiles = &f.l_tiles[s * B * B..e * B * B];
            let mut acc = [0.0f64; B];
            acc.copy_from_slice(&x[bi * B..bi * B + B]);
            for (t, &bj) in tiles.chunks_exact(B * B).zip(cols) {
                let xj = &x[bj * B..bj * B + B];
                for i in 0..B {
                    let mut s = acc[i];
                    for j in 0..B {
                        s -= t[i * B + j] * xj[j];
                    }
                    acc[i] = s;
                }
            }
            x[bi * B..bi * B + B].copy_from_slice(&acc);
        }
    }
}

fn backward_sweep<const B: usize>(f: &BlockLuFactors, x: &mut [f64]) {
    for level in &f.upper_levels {
        for &bi in level {
            let (s, e) = (f.u_ptr[bi], f.u_ptr[bi + 1]);
            let cols = &f.u_cols[s..e];
            let tiles = &f.u_tiles[s * B * B..e * B * B];
            let mut acc = [0.0f64; B];
            acc.copy_from_slice(&x[bi * B..bi * B + B]);
            for (t, &bj) in tiles.chunks_exact(B * B).zip(cols) {
                let xj = &x[bj * B..bj * B + B];
                for i in 0..B {
                    let mut s = acc[i];
                    for j in 0..B {
                        s -= t[i * B + j] * xj[j];
                    }
                    acc[i] = s;
                }
            }
            tile::lu_solve_vec(B, &f.diag_lu[bi * B * B..(bi + 1) * B * B], &mut acc);
            x[bi * B..bi * B + B].copy_from_slice(&acc);
        }
    }
}

fn panel_sweeps<const B: usize>(f: &BlockLuFactors, k: usize, x: &mut [f64]) {
    // The accumulator stages one block-row of the panel (`B·k` lanes).
    // Stack space for every realistic panel width keeps the sweep off the
    // heap in the steady state; only panels wider than `PANEL_ACC_LANES / B`
    // right-hand sides fall back to an allocation.
    const PANEL_ACC_LANES: usize = 256;
    let mut stack_acc = [0.0f64; PANEL_ACC_LANES];
    let mut heap_acc: Vec<f64>;
    let acc: &mut [f64] = if B * k <= PANEL_ACC_LANES {
        &mut stack_acc[..B * k]
    } else {
        heap_acc = vec![0.0f64; B * k];
        &mut heap_acc
    };
    for level in &f.lower_levels {
        for &bi in level {
            let (s, e) = (f.l_ptr[bi], f.l_ptr[bi + 1]);
            if s == e {
                continue;
            }
            let cols = &f.l_cols[s..e];
            let tiles = &f.l_tiles[s * B * B..e * B * B];
            acc.copy_from_slice(&x[bi * B * k..(bi + 1) * B * k]);
            for (t, &bj) in tiles.chunks_exact(B * B).zip(cols) {
                let xj = &x[bj * B * k..(bj + 1) * B * k];
                for i in 0..B {
                    for j in 0..B {
                        let aij = t[i * B + j];
                        let (yrow, xrow) = (i * k, j * k);
                        for c in 0..k {
                            acc[yrow + c] -= aij * xj[xrow + c];
                        }
                    }
                }
            }
            x[bi * B * k..(bi + 1) * B * k].copy_from_slice(&acc);
        }
    }
    for level in &f.upper_levels {
        for &bi in level {
            let (s, e) = (f.u_ptr[bi], f.u_ptr[bi + 1]);
            let cols = &f.u_cols[s..e];
            let tiles = &f.u_tiles[s * B * B..e * B * B];
            acc.copy_from_slice(&x[bi * B * k..(bi + 1) * B * k]);
            for (t, &bj) in tiles.chunks_exact(B * B).zip(cols) {
                let xj = &x[bj * B * k..(bj + 1) * B * k];
                for i in 0..B {
                    for j in 0..B {
                        let aij = t[i * B + j];
                        let (yrow, xrow) = (i * k, j * k);
                        for c in 0..k {
                            acc[yrow + c] -= aij * xj[xrow + c];
                        }
                    }
                }
            }
            tile::lu_solve_panel(B, k, f.diag_lu_tile(bi), acc);
            x[bi * B * k..(bi + 1) * B * k].copy_from_slice(&acc);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Factors with b=2, n=3 (ragged): A = blocked LU of a small known
    /// matrix, exercised through solve and the scalar refinement.
    fn tiny() -> BlockLuFactors {
        // Block row 0 (rows 0-1): diag tile [[4,1],[2,5]], U tile to block 1
        // with only column 2 real. Block row 1 (row 2 + padding): L tile,
        // diag [[3,0],[0,1]] (padding lane 1).
        let d0 = {
            let mut t = [4.0, 1.0, 2.0, 5.0];
            tile::lu_factor(2, &mut t).expect("nonsingular");
            t
        };
        let d1 = {
            let mut t = [3.0, 0.0, 0.0, 1.0];
            tile::lu_factor(2, &mut t).expect("nonsingular");
            t
        };
        BlockLuFactors::from_parts(
            3,
            2,
            vec![
                BlockTileRow::default(),
                BlockTileRow {
                    cols: vec![0],
                    tiles: vec![0.5, -0.25, 0.0, 0.0],
                },
            ],
            vec![
                BlockTileRow {
                    cols: vec![1],
                    tiles: vec![1.0, 0.0, -1.0, 0.0],
                },
                BlockTileRow::default(),
            ],
            [d0, d1].concat(),
        )
    }

    #[test]
    fn structure_and_levels() {
        let f = tiny();
        f.check_structure().expect("valid structure");
        let (fl, ul) = f.level_counts();
        assert_eq!(fl, 2, "block row 1 depends on 0");
        assert_eq!(ul, 2, "block row 0 depends on 1 in the backward sweep");
    }

    #[test]
    fn solve_matches_scalar_refinement() {
        let f = tiny();
        let s = f.to_lu_factors();
        s.check_structure()
            .expect("refinement is a valid LuFactors");
        let r = vec![1.0, -2.0, 3.0];
        let got = f.solve(&r);
        let want = s.solve(&r);
        for (g, w) in got.iter().zip(&want) {
            assert!((g - w).abs() < 1e-12, "{got:?} vs {want:?}");
        }
    }

    #[test]
    fn panel_columns_match_single_solves_bitwise() {
        let f = tiny();
        let k = 3;
        let rhs: Vec<f64> = (0..f.n() * k).map(|i| (i as f64) * 0.7 - 1.0).collect();
        let panel = f.solve_panel(&rhs, k);
        for c in 0..k {
            let col: Vec<f64> = (0..f.n()).map(|i| rhs[i * k + c]).collect();
            let single = f.solve(&col);
            for i in 0..f.n() {
                assert_eq!(panel[i * k + c], single[i], "panel col {c} row {i}");
            }
        }
    }
}
