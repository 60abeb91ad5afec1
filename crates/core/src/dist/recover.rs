//! Shrink-and-redistribute: rebuilding a [`Distribution`] after a rank
//! loss.
//!
//! The VM's recovery layer (`pilut_par::MachineBuilder::recovery`) turns an
//! injected kill into a [`pilut_par::RankLost`] unwind on every survivor;
//! the solve driver then needs a new distribution of the *same* matrix over
//! the *same* rank indices, in which the dead ranks own nothing. This
//! module is that step, and only that step: it is pure data (no
//! communication), so every survivor computes the identical shrunk
//! distribution independently — the agreement round (`Ctx::recover_sync`)
//! only has to confirm they saw the same dead set.
//!
//! What is re-derivable and what is lost: the matrix rows themselves come
//! from the replicated input [`crate::dist::DistMatrix`], so an evacuated
//! row's *coefficients* are never lost — only in-progress factorization and
//! Krylov state is, and the solve ladder restarts that from its lightweight
//! iterate checkpoint (see `pilut_solver::dist_solve_robust` and DESIGN
//! §14).

use crate::dist::Distribution;

/// Reassigns every row owned by a `dead` rank to a surviving rank,
/// returning a new distribution over the **same** number of rank slots
/// (dead ranks simply own zero rows — every plan and collective already
/// tolerates empty ranks).
///
/// Evacuated rows go one at a time, in ascending (dead rank, row) order, to
/// the survivor owning the fewest rows at that moment (ties to the lowest
/// rank). That greedy rule keeps the shrunk world balanced to within one
/// row of optimal for equal-cost rows and — more importantly — is a pure
/// function of `(dist, dead)`, so independent survivors agree bitwise.
///
/// # Panics
/// Panics when every rank is dead.
pub fn shrink(dist: &Distribution, dead: &[usize]) -> Distribution {
    let p = dist.n_ranks();
    let mut is_dead = vec![false; p];
    for &d in dead {
        assert!(d < p, "dead rank {d} out of range for p = {p}");
        is_dead[d] = true;
    }
    let survivors: Vec<usize> = (0..p).filter(|&r| !is_dead[r]).collect();
    assert!(!survivors.is_empty(), "cannot shrink to an empty world");

    let n = dist.n_rows();
    let mut part: Vec<usize> = (0..n).map(|row| dist.owner(row)).collect();
    let mut counts: Vec<usize> = survivors.iter().map(|&r| dist.rows_of(r).len()).collect();
    let mut dead_sorted = dead.to_vec();
    dead_sorted.sort_unstable();
    dead_sorted.dedup();
    for &d in &dead_sorted {
        for &row in dist.rows_of(d) {
            let (slot, _) = counts
                .iter()
                .enumerate()
                .min_by_key(|&(i, &c)| (c, i))
                // lint: allow(unwrap): survivors is non-empty by the assert above
                .expect("at least one survivor");
            part[row] = survivors[slot];
            counts[slot] += 1;
        }
    }
    Distribution::from_part(part, p)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shrink_evacuates_the_dead_and_keeps_coverage() {
        let d = Distribution::block(12, 4); // 3 rows each
        let s = shrink(&d, &[2]);
        assert_eq!(s.n_ranks(), 4, "rank slots are preserved");
        assert_eq!(s.n_rows(), 12);
        assert!(s.rows_of(2).is_empty(), "the dead rank owns nothing");
        let total: usize = (0..4).map(|r| s.rows_of(r).len()).sum();
        assert_eq!(total, 12, "every row stays owned");
        // Surviving rows keep their owner.
        for r in [0usize, 1, 3] {
            for &row in d.rows_of(r) {
                assert_eq!(s.owner(row), r, "row {row} must not move");
            }
        }
        // The 3 evacuated rows spread one per survivor (greedy balance).
        for r in [0usize, 1, 3] {
            assert_eq!(s.rows_of(r).len(), 4);
        }
    }

    #[test]
    fn shrink_is_deterministic_and_composes() {
        let d = Distribution::block(20, 5);
        let a = shrink(&d, &[1, 3]);
        // Order and duplicates in the dead set must not matter.
        let b = shrink(&d, &[3, 1]);
        // Sequential losses pass the *cumulative* dead set (what
        // `Ctx::adopt_world` returns is cumulative), else the second shrink would
        // happily refill the first victim.
        let c = shrink(&shrink(&d, &[1]), &[1, 3]);
        for row in 0..20 {
            assert_eq!(a.owner(row), b.owner(row));
        }
        assert!(a.rows_of(1).is_empty() && a.rows_of(3).is_empty());
        assert!(c.rows_of(1).is_empty() && c.rows_of(3).is_empty());
        let sizes: Vec<usize> = (0..5).map(|r| a.rows_of(r).len()).collect();
        let hi = *sizes.iter().filter(|&&s| s > 0).max().unwrap();
        let lo = *sizes.iter().filter(|&&s| s > 0).min().unwrap();
        assert!(hi - lo <= 1, "unbalanced shrink: {sizes:?}");
    }

    #[test]
    #[should_panic(expected = "empty world")]
    fn shrinking_away_everyone_is_rejected() {
        let d = Distribution::block(4, 2);
        let _ = shrink(&d, &[0, 1]);
    }
}
