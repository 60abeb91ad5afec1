//! The sparse accumulator ("working row") of the ILUT elimination loop.
//!
//! The paper (§2.1) implements `w` as "a full vector … and a companion
//! pointer which points to the positions of its non-zero elements", so that
//! scatter, linear combination, and reset are all sparse operations. This is
//! exactly that data structure, realised as a *sparse set*: alongside the
//! dense value array, `slot[j]` holds `1 +` the index of `j` inside the
//! companion `nz_list` (0 = unoccupied). That makes membership, scatter,
//! *and removal* all `O(1)` and keeps `nz_list` exactly equal to the set of
//! occupied positions at all times — a drop followed by a re-scatter of the
//! same position can never leave a duplicate behind.
//!
//! The sparse-set machinery is implemented once, in [`LanedRow`], over a
//! configurable *lane width*: each logical position owns `width` contiguous
//! `f64` lanes. Width 1 is the classic scalar working row ([`WorkRow`]
//! wraps it with the scalar API); width `b²` makes each position a `b × b`
//! dense tile — the working row of the blocked ILUT, whose inner loops then
//! run the dense micro-kernels in [`crate::tile`] over the lanes.

/// A full-length working row whose positions each hold `width` contiguous
/// `f64` lanes, with a companion list of occupied positions.
///
/// `O(1)` scatter/lookup/removal, `O(nnz · width)` iteration and reset
/// regardless of the logical length. Invariant: the lanes of an unoccupied
/// position are all exactly `0.0`, so occupying a position always starts
/// from a zero tile.
#[derive(Clone, Debug)]
pub struct LanedRow {
    width: usize,
    values: Vec<f64>,
    /// `slot[j]` = index of `j` in `nz_list`, plus one; 0 when unoccupied.
    slot: Vec<usize>,
    nz_list: Vec<usize>,
}

impl LanedRow {
    /// A working row of logical length `n` with `width` lanes per position,
    /// initially empty.
    pub fn new(n: usize, width: usize) -> Self {
        assert!(width >= 1, "lane width must be at least 1");
        LanedRow {
            width,
            values: vec![0.0; n * width],
            slot: vec![0; n],
            nz_list: Vec::new(),
        }
    }

    /// Lanes per position (the `width` it was created with).
    pub fn width(&self) -> usize {
        self.width
    }

    /// Logical length of the row (the `n` it was created with), independent
    /// of how many positions are occupied — see [`LanedRow::nnz`] for that.
    pub fn logical_len(&self) -> usize {
        self.slot.len()
    }

    /// True when no position is occupied.
    pub fn is_empty(&self) -> bool {
        self.nz_list.is_empty()
    }

    /// Number of occupied positions (including ones holding exact zeros,
    /// excluding positions removed with [`LanedRow::drop_pos`]).
    pub fn nnz(&self) -> usize {
        self.nz_list.len()
    }

    /// True if position `j` is occupied.
    #[inline]
    pub fn contains(&self, j: usize) -> bool {
        self.slot[j] != 0
    }

    /// The lanes of position `j` (all zero if unoccupied).
    #[inline]
    pub fn lane(&self, j: usize) -> &[f64] {
        &self.values[j * self.width..(j + 1) * self.width]
    }

    /// Marks position `j` occupied and returns its lanes mutably; a freshly
    /// occupied position starts from all-zero lanes.
    #[inline]
    pub fn occupy(&mut self, j: usize) -> &mut [f64] {
        if self.slot[j] == 0 {
            self.nz_list.push(j);
            self.slot[j] = self.nz_list.len();
        }
        &mut self.values[j * self.width..(j + 1) * self.width]
    }

    /// Copies `src` (exactly `width` lanes) into position `j`, marking it
    /// occupied.
    #[inline]
    pub fn set_lane(&mut self, j: usize, src: &[f64]) {
        self.occupy(j).copy_from_slice(src);
    }

    /// Removes position `j` from the occupied set in `O(1)` (swap-remove
    /// from the companion list); its lanes are zeroed immediately.
    pub fn drop_pos(&mut self, j: usize) {
        let s = self.slot[j];
        if s == 0 {
            return;
        }
        let idx = s - 1;
        self.nz_list.swap_remove(idx);
        if let Some(&moved) = self.nz_list.get(idx) {
            self.slot[moved] = idx + 1;
        }
        self.slot[j] = 0;
        self.values[j * self.width..(j + 1) * self.width].fill(0.0);
    }

    /// The occupied positions, unsorted (insertion order, except that a
    /// [`LanedRow::drop_pos`] moves the most recent position into the hole).
    pub fn positions(&self) -> impl Iterator<Item = usize> + '_ {
        self.nz_list.iter().copied()
    }

    /// Extracts all occupied positions sorted ascending into `cols` and
    /// their lanes, concatenated in the same order, into `lanes` (both
    /// cleared first), and resets the row to empty.
    pub fn drain_sorted_lanes_into(&mut self, cols: &mut Vec<usize>, lanes: &mut Vec<f64>) {
        cols.clear();
        lanes.clear();
        cols.extend_from_slice(&self.nz_list);
        cols.sort_unstable();
        for &j in cols.iter() {
            lanes.extend_from_slice(&self.values[j * self.width..(j + 1) * self.width]);
        }
        for &j in &self.nz_list {
            self.slot[j] = 0;
            self.values[j * self.width..(j + 1) * self.width].fill(0.0);
        }
        self.nz_list.clear();
    }

    /// Resets to empty in `O(nnz · width)`.
    pub fn clear(&mut self) {
        for &j in &self.nz_list {
            self.slot[j] = 0;
            self.values[j * self.width..(j + 1) * self.width].fill(0.0);
        }
        self.nz_list.clear();
    }
}

/// The scalar (width-1) working row of the scalar ILUT kernels: a thin
/// wrapper over [`LanedRow`] with the classic `f64`-per-position API.
///
/// `O(1)` scatter/lookup/removal, `O(nnz)` iteration and reset regardless
/// of the logical length.
#[derive(Clone, Debug)]
pub struct WorkRow {
    inner: LanedRow,
}

impl WorkRow {
    /// A working row of logical length `n`, initially empty.
    pub fn new(n: usize) -> Self {
        WorkRow {
            inner: LanedRow::new(n, 1),
        }
    }

    /// Logical length of the row (the `n` it was created with), independent
    /// of how many positions are occupied — see [`WorkRow::nnz`] for that.
    pub fn logical_len(&self) -> usize {
        self.inner.logical_len()
    }

    /// True when no entry is occupied.
    pub fn is_empty(&self) -> bool {
        self.inner.is_empty()
    }

    /// Number of occupied positions (including ones holding exact zeros,
    /// excluding positions removed with [`WorkRow::drop_pos`]).
    pub fn nnz(&self) -> usize {
        self.inner.nnz()
    }

    /// True if position `j` is occupied.
    #[inline]
    pub fn contains(&self, j: usize) -> bool {
        self.inner.contains(j)
    }

    /// The value at `j` (zero if unoccupied).
    #[inline]
    pub fn get(&self, j: usize) -> f64 {
        self.inner.values[j]
    }

    /// Sets position `j` to `v`, marking it occupied.
    #[inline]
    pub fn set(&mut self, j: usize, v: f64) {
        self.inner.occupy(j)[0] = v;
    }

    /// Adds `v` into position `j`, marking it occupied.
    #[inline]
    pub fn add(&mut self, j: usize, v: f64) {
        if self.inner.slot[j] == 0 {
            self.inner.occupy(j)[0] = v;
        } else {
            self.inner.values[j] += v;
        }
    }

    /// Removes position `j` from the occupied set in `O(1)` (swap-remove
    /// from the companion list; the slot value is zeroed immediately).
    pub fn drop_pos(&mut self, j: usize) {
        self.inner.drop_pos(j);
    }

    /// Scatters a sparse row `w[cols[k]] += scale * vals[k]`.
    pub fn axpy(&mut self, scale: f64, cols: &[usize], vals: &[f64]) {
        for (&j, &v) in cols.iter().zip(vals) {
            self.add(j, scale * v);
        }
    }

    /// The occupied positions, unsorted (insertion order, except that a
    /// [`WorkRow::drop_pos`] moves the most recent position into the hole).
    pub fn positions(&self) -> impl Iterator<Item = usize> + '_ {
        self.inner.positions()
    }

    /// Extracts all occupied `(col, value)` pairs sorted by column and resets
    /// the row to empty, in `O(nnz log nnz)`.
    pub fn drain_sorted(&mut self) -> Vec<(usize, f64)> {
        let mut out: Vec<(usize, f64)> = Vec::with_capacity(self.inner.nz_list.len());
        self.drain_sorted_into(&mut out);
        out
    }

    /// Like [`WorkRow::drain_sorted`] but appends into a caller-provided
    /// buffer (cleared first), so a hot loop can reuse one allocation
    /// across rows.
    pub fn drain_sorted_into(&mut self, out: &mut Vec<(usize, f64)>) {
        self.drain_sorted_by_into(out, |j| j);
    }

    /// Like [`WorkRow::drain_sorted_into`] for a row whose positions stand
    /// for other ids: yields `(id(position), value)` pairs sorted by id.
    /// `id` must be injective.
    pub fn drain_sorted_by_into(
        &mut self,
        out: &mut Vec<(usize, f64)>,
        id: impl Fn(usize) -> usize,
    ) {
        out.clear();
        for &j in &self.inner.nz_list {
            out.push((id(j), self.inner.values[j]));
            self.inner.slot[j] = 0;
            self.inner.values[j] = 0.0;
        }
        self.inner.nz_list.clear();
        out.sort_unstable_by_key(|&(j, _)| j);
    }

    /// Resets to empty in `O(nnz)`.
    pub fn clear(&mut self) {
        self.inner.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scatter_and_drain() {
        let mut w = WorkRow::new(8);
        w.set(5, 1.0);
        w.add(2, 2.0);
        w.add(5, 0.5);
        assert_eq!(w.nnz(), 2);
        assert_eq!(w.get(5), 1.5);
        assert!(!w.contains(0));
        let rows = w.drain_sorted();
        assert_eq!(rows, vec![(2, 2.0), (5, 1.5)]);
        assert!(w.is_empty());
        assert_eq!(w.get(5), 0.0);
    }

    #[test]
    fn axpy_combines() {
        let mut w = WorkRow::new(6);
        w.set(0, 1.0);
        w.axpy(-2.0, &[0, 3], &[0.5, 1.0]);
        assert_eq!(w.get(0), 0.0); // still occupied with exact zero
        assert!(w.contains(0));
        assert_eq!(w.get(3), -2.0);
        assert_eq!(w.nnz(), 2);
    }

    #[test]
    fn drop_pos_removes() {
        let mut w = WorkRow::new(4);
        w.set(1, 3.0);
        w.set(2, 4.0);
        w.drop_pos(1);
        assert!(!w.contains(1));
        assert_eq!(w.nnz(), 1);
        assert_eq!(w.drain_sorted(), vec![(2, 4.0)]);
    }

    #[test]
    fn clear_then_reuse() {
        let mut w = WorkRow::new(4);
        w.set(0, 1.0);
        w.set(3, 2.0);
        w.clear();
        assert!(w.is_empty());
        w.set(3, 7.0);
        assert_eq!(w.drain_sorted(), vec![(3, 7.0)]);
    }

    #[test]
    fn positions_skips_dropped() {
        let mut w = WorkRow::new(5);
        w.set(4, 1.0);
        w.set(1, 1.0);
        w.drop_pos(4);
        let pos: Vec<usize> = w.positions().collect();
        assert_eq!(pos, vec![1]);
    }

    /// Regression: `drop_pos(j)` followed by a re-scatter of the same `j`
    /// (the ILUT first-dropping-rule path) used to leave a duplicate entry
    /// in the companion list, making `nnz()` over-count and `positions()`
    /// yield `j` twice.
    #[test]
    fn drop_then_rescatter_does_not_duplicate() {
        let mut w = WorkRow::new(6);
        w.set(3, 1.0);
        w.set(1, 2.0);
        w.drop_pos(3);
        w.add(3, 0.25); // re-occupy the dropped position
        assert_eq!(w.nnz(), 2);
        let mut pos: Vec<usize> = w.positions().collect();
        pos.sort_unstable();
        assert_eq!(pos, vec![1, 3]);
        assert_eq!(w.drain_sorted(), vec![(1, 2.0), (3, 0.25)]);
        // And again through `set` instead of `add`.
        w.set(2, 1.0);
        w.drop_pos(2);
        w.set(2, 9.0);
        assert_eq!(w.nnz(), 1);
        assert_eq!(w.drain_sorted(), vec![(2, 9.0)]);
    }

    /// Pins the length contract: `logical_len` is the construction-time
    /// `n`, regardless of occupancy; occupancy is `nnz` / `is_empty`.
    #[test]
    fn logical_len_is_construction_length() {
        let mut w = WorkRow::new(8);
        assert_eq!(w.logical_len(), 8);
        assert!(w.is_empty());
        assert_eq!(w.nnz(), 0);
        w.set(2, 1.0);
        assert_eq!(w.logical_len(), 8);
        assert_eq!(w.nnz(), 1);
        w.clear();
        assert_eq!(w.logical_len(), 8);
        assert!(w.is_empty());
    }

    #[test]
    fn drop_middle_keeps_slots_consistent() {
        let mut w = WorkRow::new(10);
        for j in [7, 2, 9, 4] {
            w.set(j, j as f64);
        }
        w.drop_pos(2); // middle of nz_list: exercises the swap-remove fixup
        assert_eq!(w.nnz(), 3);
        for j in [7, 9, 4] {
            assert!(w.contains(j), "lost position {j}");
            w.drop_pos(j);
        }
        assert!(w.is_empty());
    }

    #[test]
    fn drain_sorted_into_reuses_buffer() {
        let mut w = WorkRow::new(6);
        let mut buf = vec![(0usize, 0.0f64); 4]; // stale content must be cleared
        w.set(5, 1.0);
        w.set(0, 2.0);
        w.drain_sorted_into(&mut buf);
        assert_eq!(buf, vec![(0, 2.0), (5, 1.0)]);
        assert!(w.is_empty());
    }

    #[test]
    fn laned_tiles_scatter_and_drain() {
        let mut w = LanedRow::new(5, 4); // 2x2 tiles
        assert_eq!(w.width(), 4);
        w.set_lane(3, &[1.0, 2.0, 3.0, 4.0]);
        let t = w.occupy(0);
        t[2] = -1.0;
        assert!(w.contains(3) && w.contains(0));
        assert_eq!(w.lane(0), &[0.0, 0.0, -1.0, 0.0]);
        assert_eq!(w.lane(2), &[0.0; 4], "unoccupied lanes read as zero");
        let (mut cols, mut lanes) = (Vec::new(), Vec::new());
        w.drain_sorted_lanes_into(&mut cols, &mut lanes);
        assert_eq!(cols, vec![0, 3]);
        assert_eq!(lanes, vec![0.0, 0.0, -1.0, 0.0, 1.0, 2.0, 3.0, 4.0]);
        assert!(w.is_empty());
    }

    /// The zero-lane invariant: dropping a position must zero its lanes so
    /// a later `occupy` starts from a clean tile.
    #[test]
    fn laned_drop_zeroes_lanes() {
        let mut w = LanedRow::new(3, 2);
        w.set_lane(1, &[5.0, 6.0]);
        w.drop_pos(1);
        assert!(!w.contains(1));
        let t = w.occupy(1);
        assert_eq!(t, &[0.0, 0.0]);
    }
}
