//! The ILUT dropping rules, shared by the serial and parallel formulations.

use std::cmp::Ordering;

/// Rule 2/3 selection: from `entries`, drop everything with magnitude below
/// `tau_i`, then keep the `cap` entries of largest magnitude. Entries whose
/// column appears in `always_keep` (e.g. the diagonal) bypass both filters
/// and do not count against `cap`. Returns the survivors sorted by column.
pub fn threshold_and_cap(
    mut entries: Vec<(usize, f64)>,
    tau_i: f64,
    cap: usize,
    always_keep: Option<usize>,
) -> Vec<(usize, f64)> {
    threshold_and_cap_in_place(&mut entries, tau_i, cap, always_keep);
    entries
}

/// In-place variant of [`threshold_and_cap`] for hot loops that reuse one
/// scratch buffer across rows: `entries` is filtered, capped, and left
/// sorted by column, without giving up its allocation. Which of several
/// equal magnitudes at the cut survive is a function of the input order;
/// callers offer ascending columns.
pub fn threshold_and_cap_in_place(
    entries: &mut Vec<(usize, f64)>,
    tau_i: f64,
    cap: usize,
    always_keep: Option<usize>,
) {
    select(entries, tau_i, cap, always_keep, |_, _| Ordering::Equal);
}

/// The third dropping rule for an interface row, whose multipliers arrive
/// level by level: like [`threshold_and_cap_in_place`] with no special
/// column, except that equal magnitudes rank by ascending column. A row
/// holds a column once, so the order is total and the survivors depend
/// only on the *set* offered — selecting once over everything appended
/// equals re-selecting after every batch (the test below), which is what
/// lets `par_ilut` apply the rule when the row is factored.
pub fn keep_largest_multipliers(entries: &mut Vec<(usize, f64)>, tau_i: f64, m: usize) {
    select(entries, tau_i, m, None, |a, b| a.cmp(&b));
}

fn select(
    entries: &mut Vec<(usize, f64)>,
    tau_i: f64,
    cap: usize,
    always_keep: Option<usize>,
    tie: impl Fn(usize, usize) -> Ordering,
) {
    let mut kept_special: Option<(usize, f64)> = None;
    if let Some(d) = always_keep {
        if let Some(pos) = entries.iter().position(|&(c, _)| c == d) {
            kept_special = Some(entries.swap_remove(pos));
        }
    }
    // lint: allow(float-eq): drops exactly-zero entries only
    entries.retain(|&(_, v)| v.abs() >= tau_i && v != 0.0);
    if entries.len() > cap {
        // Partial selection of the `cap` largest magnitudes.
        entries.select_nth_unstable_by(cap, |a, b| {
            let by_magnitude = b.1.abs().partial_cmp(&a.1.abs());
            // lint: allow(unwrap): factor values are finite; NaN would poison comparisons
            let by_magnitude = by_magnitude.expect("NaN in factorization");
            by_magnitude.then_with(|| tie(a.0, b.0))
        });
        entries.truncate(cap);
    }
    entries.extend(kept_special);
    entries.sort_unstable_by_key(|&(c, _)| c);
}

/// Approximate flop cost of the selection (comparisons modelled as one op
/// each; `select_nth` is linear).
pub fn selection_cost(n_entries: usize) -> f64 {
    2.0 * n_entries as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use pilut_sparse::SplitMix64;

    #[test]
    fn drops_below_threshold() {
        let out = threshold_and_cap(vec![(0, 5.0), (1, 0.01), (2, -3.0)], 0.1, 10, None);
        assert_eq!(out, vec![(0, 5.0), (2, -3.0)]);
    }

    #[test]
    fn caps_to_largest() {
        let out = threshold_and_cap(vec![(0, 1.0), (1, 4.0), (2, -3.0), (3, 2.0)], 0.0, 2, None);
        assert_eq!(out, vec![(1, 4.0), (2, -3.0)]);
    }

    #[test]
    fn always_keep_bypasses_everything() {
        let out = threshold_and_cap(vec![(0, 1.0), (1, 1e-9), (2, -3.0)], 0.1, 1, Some(1));
        // Diagonal 1 kept despite being tiny; cap=1 keeps only the largest other.
        assert_eq!(out, vec![(1, 1e-9), (2, -3.0)]);
    }

    #[test]
    fn exact_zeros_always_dropped() {
        let out = threshold_and_cap(vec![(0, 0.0), (1, 1.0)], 0.0, 10, None);
        assert_eq!(out, vec![(1, 1.0)]);
    }

    /// The deferral `par_ilut` relies on: offered a stream of multipliers in
    /// batches (one batch per level), "append everything, select once"
    /// keeps exactly what "re-select after every batch" keeps. Magnitudes
    /// come from four values of either sign, so nearly every cut falls
    /// inside a run of equal magnitudes; columns arrive in no order.
    #[test]
    fn selecting_once_equals_selecting_after_every_batch() {
        let mut rng = SplitMix64::new(0x72756c65_33);
        for case in 0..2000 {
            let (cap, tau) = (rng.next_u64() as usize % 6, 0.75);
            let n = 1 + rng.next_u64() as usize % 24;
            let mut cols: Vec<usize> = (0..n).collect();
            for i in (1..n).rev() {
                cols.swap(i, rng.next_u64() as usize % (i + 1));
            }
            let value =
                |r: u64| [0.5, 1.0, 2.0, 3.0][r as usize % 4] * [1.0, -1.0][(r >> 2) as usize % 2];
            let stream: Vec<(usize, f64)> = cols
                .into_iter()
                .map(|c| (c, value(rng.next_u64())))
                .collect();
            let (mut once, mut stepwise) = (Vec::new(), Vec::new());
            let mut rest = &stream[..];
            while !rest.is_empty() {
                let (batch, tail) = rest.split_at(1 + rng.next_u64() as usize % rest.len());
                once.extend_from_slice(batch);
                stepwise.extend_from_slice(batch);
                keep_largest_multipliers(&mut stepwise, tau, cap);
                rest = tail;
            }
            keep_largest_multipliers(&mut once, tau, cap);
            assert_eq!(once, stepwise, "case {case}: cap {cap}, stream {stream:?}");
        }
    }

    #[test]
    fn cap_zero_keeps_only_special() {
        let out = threshold_and_cap(vec![(0, 9.0), (1, 2.0)], 0.0, 0, Some(0));
        assert_eq!(out, vec![(0, 9.0)]);
    }
}
