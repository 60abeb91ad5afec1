//! Parallel ILU(0) — the static-pattern contrast case of paper §3.
//!
//! ILU(0) admits no fill, so the reduced matrix of every interface level
//! has the original interface–interface pattern restricted to the nodes not
//! yet factored. Its schedule could therefore be computed up front, from
//! structure alone — the paper's Figure 1(a) colouring. It is not computed
//! separately here: `par_ilut`'s two phases run under the fixed-pattern
//! rule (`Rule::Pattern`). Phase 1 eliminates each row against my
//! interiors over `A`'s pattern in the row kernel, and the level loop
//! factors the interface. Each level's independent set is drawn
//! from exactly the pattern an up-front schedule would peel it from, with
//! the same seed and round count, so the sets *are* that schedule; the
//! numeric work of a level follows its set within the same pass.
//!
//! The output is a [`RankFactors`] like the ILUT path's, so the parallel
//! triangular solves and the distributed GMRES preconditioner wrapper work
//! unchanged.

use crate::dist::{DistMatrix, LocalView};
use crate::options::FactorError;
use crate::parallel::{factor, RankFactors};
use crate::serial::kernel::Rule;
use pilut_par::Ctx;

/// ILU(0)'s dist-MIS seed and Luby rounds per level. They fix its sets.
pub(crate) const MIS_SEED: u64 = 0xC0105;
pub(crate) const MIS_ROUNDS: usize = 5;

/// Runs the parallel zero-fill factorization. Collective. Aborts on the
/// first unusable pivot ([`crate::options::BreakdownPolicy::Abort`]).
pub fn par_ilu0(
    ctx: &mut Ctx,
    dm: &DistMatrix,
    local: &LocalView,
) -> Result<RankFactors, FactorError> {
    // Zero fill: neither triangle outgrows the rank's rows of `A`.
    factor(ctx, dm, local, Rule::Pattern, local.nnz(dm.matrix()))
}
