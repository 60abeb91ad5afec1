//! The sparse accumulator ("working row") of the ILUT elimination loop,
//! and [`Entry`], the one form of a sparse row the factorizations hold in
//! flight.
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

use crate::csr::narrow;

/// One entry of a sparse row: a `u32` column beside its `f64` value, 12
/// bytes. A `(u32, f64)` tuple pads to 16, so the struct is packed to a
/// 4-byte alignment and its fields are read by value only ([`col`] and
/// [`val`]; a reference to `val` could be misaligned). Columns are those of
/// a [`CsrMatrix`](crate::CsrMatrix), whose ids are `u32` by construction.
///
/// [`col`]: Entry::col
/// [`val`]: Entry::val
#[repr(C, packed(4))]
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Entry {
    col: u32,
    val: f64,
}

impl Entry {
    /// The entry `val` at column `col`, a column of a `u32`-indexed matrix.
    ///
    /// # Panics
    /// Panics if `col` does not fit a `u32`.
    #[inline]
    pub fn new(col: usize, val: f64) -> Self {
        #[expect(clippy::expect_used, reason = "documented panic: columns are 32-bit")]
        let col = u32::try_from(col).expect("Entry columns are 32-bit");
        Entry { col, val }
    }

    /// The column.
    #[inline]
    pub fn col(self) -> usize {
        self.col as usize
    }

    /// The value.
    #[inline]
    pub fn val(self) -> f64 {
        self.val
    }
}

/// The full-length working row of the ILUT kernels, one `f64` per position,
/// with a companion list of occupied positions.
///
/// `O(1)` scatter/lookup/removal, `O(nnz)` iteration and reset regardless
/// of the logical length. Invariant: an unoccupied position reads exactly
/// `0.0`, so [`WorkRow::get`] needs no membership test. Positions and the
/// companion indices are `u32`: 12 bytes per position, the value and its
/// slot, plus 4 per occupied one.
#[derive(Clone, Debug)]
pub struct WorkRow {
    values: Vec<f64>,
    /// `slot[j]` = index of `j` in `nz_list`, plus one; 0 when unoccupied.
    slot: Vec<u32>,
    nz_list: Vec<u32>,
}

impl WorkRow {
    /// A working row of logical length `n`, initially empty.
    ///
    /// # Panics
    /// Panics, before allocating, if `n` does not fit a `u32`.
    pub fn new(n: usize) -> Self {
        #[expect(clippy::expect_used, reason = "documented panic: positions are 32-bit")]
        narrow(n, "WorkRow length").expect("WorkRow positions are 32-bit");
        WorkRow {
            values: vec![0.0; n],
            slot: vec![0; n],
            nz_list: Vec::new(),
        }
    }

    /// Logical length of the row (the `n` it was created with), independent
    /// of how many positions are occupied — see [`WorkRow::nnz`] for that.
    pub fn logical_len(&self) -> usize {
        self.slot.len()
    }

    /// True when no entry is occupied.
    pub fn is_empty(&self) -> bool {
        self.nz_list.is_empty()
    }

    /// Number of occupied positions (including ones holding exact zeros,
    /// excluding positions removed with [`WorkRow::drop_pos`]).
    pub fn nnz(&self) -> usize {
        self.nz_list.len()
    }

    /// True if position `j` is occupied.
    #[inline]
    pub fn contains(&self, j: usize) -> bool {
        self.slot[j] != 0
    }

    /// The value at `j` (zero if unoccupied).
    #[inline]
    pub fn get(&self, j: usize) -> f64 {
        self.values[j]
    }

    /// Sets position `j` to `v`, marking it occupied.
    #[inline]
    pub fn set(&mut self, j: usize, v: f64) {
        if self.slot[j] == 0 {
            // `j < n`, and `new` checked that `n` fits.
            self.nz_list.push(j as u32);
            self.slot[j] = self.nz_list.len() as u32;
        }
        self.values[j] = v;
    }

    /// Adds `v` into position `j`, marking it occupied.
    #[inline]
    pub fn add(&mut self, j: usize, v: f64) {
        if self.slot[j] == 0 {
            self.set(j, v);
        } else {
            self.values[j] += v;
        }
    }

    /// Removes position `j` from the occupied set in `O(1)` (swap-remove
    /// from the companion list; the slot value is zeroed immediately).
    pub fn drop_pos(&mut self, j: usize) {
        let s = self.slot[j] as usize;
        if s == 0 {
            return;
        }
        let idx = s - 1;
        self.nz_list.swap_remove(idx);
        if let Some(&moved) = self.nz_list.get(idx) {
            self.slot[moved as usize] = s as u32;
        }
        self.slot[j] = 0;
        self.values[j] = 0.0;
    }

    /// The occupied positions, unsorted (insertion order, except that a
    /// [`WorkRow::drop_pos`] moves the most recent position into the hole).
    pub fn positions(&self) -> impl Iterator<Item = usize> + '_ {
        self.nz_list.iter().map(|&j| j as usize)
    }

    /// Extracts all occupied entries sorted by column and resets the row to
    /// empty, in `O(nnz log nnz)`.
    pub fn drain_sorted(&mut self) -> Vec<Entry> {
        let mut out = Vec::with_capacity(self.nz_list.len());
        self.drain_sorted_into(&mut out);
        out
    }

    /// Like [`WorkRow::drain_sorted`] but appends into a caller-provided
    /// buffer (cleared first), so a hot loop can reuse one allocation
    /// across rows.
    pub fn drain_sorted_into(&mut self, out: &mut Vec<Entry>) {
        self.drain_sorted_by_into(out, |j| j);
    }

    /// Like [`WorkRow::drain_sorted_into`] for a row whose positions stand
    /// for other ids: yields the entries `(id(position), value)` sorted by
    /// id. `id` must be injective and its ids 32-bit.
    pub fn drain_sorted_by_into(&mut self, out: &mut Vec<Entry>, id: impl Fn(usize) -> usize) {
        out.clear();
        for &j in &self.nz_list {
            let j = j as usize;
            out.push(Entry::new(id(j), self.values[j]));
            self.slot[j] = 0;
            self.values[j] = 0.0;
        }
        self.nz_list.clear();
        out.sort_unstable_by_key(|e| e.col);
    }

    /// Resets to empty in `O(nnz)`.
    pub fn clear(&mut self) {
        for &j in &self.nz_list {
            self.slot[j as usize] = 0;
            self.values[j as usize] = 0.0;
        }
        self.nz_list.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A drained row as `(column, value)` pairs.
    fn pairs(row: Vec<Entry>) -> Vec<(usize, f64)> {
        row.into_iter().map(|e| (e.col(), e.val())).collect()
    }

    /// The entry is 12 bytes at a 4-byte alignment: a padded `(u32, f64)`
    /// would be 16, a `(usize, f64)` too.
    #[test]
    fn an_entry_is_twelve_bytes() {
        assert_eq!(std::mem::size_of::<Entry>(), 12);
        assert_eq!(std::mem::align_of::<Entry>(), 4);
        assert_eq!(std::mem::size_of::<(u32, f64)>(), 16);
        let e = Entry::new(u32::MAX as usize, -0.5);
        assert_eq!((e.col(), e.val()), (u32::MAX as usize, -0.5));
    }

    #[test]
    #[should_panic(expected = "WorkRow positions are 32-bit")]
    fn a_working_row_past_u32_panics_before_allocating() {
        // 2^32 + 1 positions would be 48 GiB if `new` allocated first.
        let _ = WorkRow::new(u32::MAX as usize + 2);
    }

    #[test]
    fn scatter_and_drain() {
        let mut w = WorkRow::new(8);
        w.set(5, 1.0);
        w.add(2, 2.0);
        w.add(5, 0.5);
        assert_eq!(w.nnz(), 2);
        assert_eq!(w.get(5), 1.5);
        assert!(!w.contains(0));
        let rows = pairs(w.drain_sorted());
        assert_eq!(rows, vec![(2, 2.0), (5, 1.5)]);
        assert!(w.is_empty());
        assert_eq!(w.get(5), 0.0);
    }

    #[test]
    fn add_combines() {
        let mut w = WorkRow::new(6);
        w.set(0, 1.0);
        w.add(0, -2.0 * 0.5);
        w.add(3, -2.0);
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
        assert_eq!(pairs(w.drain_sorted()), vec![(2, 4.0)]);
    }

    #[test]
    fn clear_then_reuse() {
        let mut w = WorkRow::new(4);
        w.set(0, 1.0);
        w.set(3, 2.0);
        w.clear();
        assert!(w.is_empty());
        w.set(3, 7.0);
        assert_eq!(pairs(w.drain_sorted()), vec![(3, 7.0)]);
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
        assert_eq!(pairs(w.drain_sorted()), vec![(1, 2.0), (3, 0.25)]);
        // And again through `set` instead of `add`.
        w.set(2, 1.0);
        w.drop_pos(2);
        w.set(2, 9.0);
        assert_eq!(w.nnz(), 1);
        assert_eq!(pairs(w.drain_sorted()), vec![(2, 9.0)]);
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
        let mut buf = vec![Entry::new(0, 0.0); 4]; // stale content must be cleared
        w.set(5, 1.0);
        w.set(0, 2.0);
        w.drain_sorted_into(&mut buf);
        assert_eq!(pairs(buf), vec![(0, 2.0), (5, 1.0)]);
        assert!(w.is_empty());
    }

    /// The zero-on-drop invariant: a dropped position reads `0.0`, and a
    /// later `add` re-occupies it with exactly the added value.
    #[test]
    fn drop_pos_zeroes_the_value() {
        let mut w = WorkRow::new(3);
        w.set(1, 5.0);
        w.drop_pos(1);
        assert_eq!(w.get(1), 0.0);
        assert!(!w.contains(1));
        w.add(1, 0.25);
        assert_eq!(w.get(1), 0.25);
    }
}
