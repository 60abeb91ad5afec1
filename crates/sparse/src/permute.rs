//! Permutations of matrix/vector index sets.

/// A permutation of `0..n`, stored in both directions.
///
/// `new_of(old)` answers "where does old index `old` go?", and
/// `old_of(new)` answers "which old index sits at position `new`?".
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Permutation {
    new_of: Vec<usize>,
    old_of: Vec<usize>,
}

impl Permutation {
    /// Identity permutation on `0..n`.
    pub fn identity(n: usize) -> Self {
        let v: Vec<usize> = (0..n).collect();
        Permutation {
            new_of: v.clone(),
            old_of: v,
        }
    }

    /// Builds from a `new_of` map (`new_of[old] = new`).
    ///
    /// # Panics
    /// Panics if the slice is not a permutation of `0..len`.
    pub fn from_new_order(new_of: &[usize]) -> Self {
        let n = new_of.len();
        let mut old_of = vec![usize::MAX; n];
        for (old, &new) in new_of.iter().enumerate() {
            assert!(new < n, "index {new} out of range");
            assert!(old_of[new] == usize::MAX, "duplicate target index {new}");
            old_of[new] = old;
        }
        Permutation {
            new_of: new_of.to_vec(),
            old_of,
        }
    }

    /// Builds from an `old_of` map (`old_of[new] = old`), i.e. the order in
    /// which old indices should be listed.
    pub fn from_old_order(old_of: &[usize]) -> Self {
        let p = Self::from_new_order(old_of);
        Permutation {
            new_of: p.old_of,
            old_of: p.new_of,
        }
    }

    /// Number of elements permuted.
    pub fn len(&self) -> usize {
        self.new_of.len()
    }

    /// True for the empty permutation.
    pub fn is_empty(&self) -> bool {
        self.new_of.is_empty()
    }

    /// New position of old index `old`.
    pub fn new_of(&self, old: usize) -> usize {
        self.new_of[old]
    }

    /// Old index at new position `new`.
    pub fn old_of(&self, new: usize) -> usize {
        self.old_of[new]
    }

    /// Applies to a dense vector: `out[new_of(i)] = x[i]`.
    pub fn apply_vec(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.len());
        let mut out = vec![0.0; x.len()];
        for (old, &v) in x.iter().enumerate() {
            out[self.new_of[old]] = v;
        }
        out
    }

    /// Undoes `apply_vec`.
    pub fn unapply_vec(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.len());
        let mut out = vec![0.0; x.len()];
        for (new, &v) in x.iter().enumerate() {
            out[self.old_of[new]] = v;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_roundtrip() {
        let p = Permutation::identity(4);
        assert_eq!(p.new_of(2), 2);
        let x = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(p.apply_vec(&x), x.to_vec());
    }

    #[test]
    fn from_orders_agree() {
        // old order [2, 0, 1] means: position 0 holds old 2, etc.
        let p = Permutation::from_old_order(&[2, 0, 1]);
        assert_eq!(p.old_of(0), 2);
        assert_eq!(p.new_of(2), 0);
        let q = Permutation::from_new_order(&[1, 2, 0]);
        assert_eq!(p, q);
    }

    #[test]
    fn vec_roundtrip() {
        let p = Permutation::from_new_order(&[2, 0, 1]);
        let x = [10.0, 20.0, 30.0];
        let y = p.apply_vec(&x);
        assert_eq!(y, vec![20.0, 30.0, 10.0]);
        assert_eq!(p.unapply_vec(&y), x.to_vec());
    }

    #[test]
    #[should_panic(expected = "duplicate")]
    fn rejects_non_permutation() {
        Permutation::from_new_order(&[0, 0, 1]);
    }
}
