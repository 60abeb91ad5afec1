//! Parallel forward/backward substitution (paper §5).
//!
//! The solves mirror the factorization's two-phase structure. Forward
//! (`L y = b`): every rank solves its interior unknowns locally, then the
//! interface unknowns level by level — after computing a level, each rank
//! pushes the new `x` values to exactly the ranks whose later rows reference
//! them. Backward (`U x = y`) runs the levels in reverse and finishes with
//! the interiors. Communication volume is proportional to the interface
//! size, but the `q` levels impose `q` implicit synchronisation points —
//! which is why ILUT\*'s smaller `q` makes its triangular solves faster
//! (paper Table 2 / Figure 6).
//!
//! The exchange is fully planned: [`TrisolvePlan::build`] builds one
//! [`CommPlan`] per direction, asks every owner for the *level index* of
//! each needed node ([`CommPlan::exchange_labels`]), and sorts the plan into
//! one levelled [`Halo`]. A sweep then replays a fixed schedule — at
//! iteration `l` it drains the batches of the previously computed level
//! and, after computing level `l`, ships that level's range of the halo,
//! one values-only message per peer that needs any of it. This is valid
//! because remote `L` dependencies sit at strictly earlier levels and
//! remote `U` dependencies at strictly later ones (the level construction
//! eliminates a row only against already-pivoted levels), and received
//! values persist for any level-skipping consumer. No node ids travel on
//! the wire.
//!
//! The sweeps stream the factor's two CSR arenas over one *slot-indexed*
//! vector — the rank's local vector extended by one entry per referenced
//! remote node (`RankFactors::ghosts`). Rows name their columns by slot (a
//! `u32` beside each `f64` value, 12 bytes per entry) and
//! the halos are over slots, so the inner loop is `x[p] -= val * x[slot]`
//! with no id translation and a received batch lands directly in the ghost
//! tail. Entries keep ascending *global* column order within a row, so
//! every sum rounds as it always did.
//!
//! Each sweep pays the clock once per communication-free span, from the
//! factor's row pointers: the forward sweep its interiors before the first
//! level and each level's rows before that level's send, the backward
//! sweep each level before its send and its interiors at the end. A
//! receiver therefore waits on its sender's level work, which is what the
//! `q` synchronisation points cost; per apply the charges total `2·nnz(L)`
//! and `2·nnz(U) + rows`.
//!
//! Both sweeps run over one such vector: the backward sweep starts from
//! the forward sweep's result in place, and the ghosts the forward sweep
//! left in the tail are never read, since every ghost a `U` row reads is
//! delivered by its level's batch first.
//!
//! [`dist_solve_into`] is the one way to apply the factors: both sweeps
//! into a caller-owned buffer over a [`SolveScratch`] built once per plan
//! (the solver crate's `DistIlu` holds the plan and the scratch together).

use crate::dist::exchange::{tags, CommPlan, Halo};
use crate::dist::{DistMatrix, LocalView};
use crate::factors::Arena;
use crate::parallel::RankFactors;
use pilut_par::collectives::ReduceOp;
use pilut_par::Ctx;

/// The communication plan for repeated triangular solves with one
/// factorization: one levelled halo per direction over the *slots* of the
/// solution vector (local position for my nodes, ghost slot for remote ones
/// — see [`RankFactors::ghosts`]), so a sweep moves values between the wire
/// and the vector without a lookup.
pub struct TrisolvePlan {
    /// Forward traffic: at level `l`, my level-`l` nodes on the send side,
    /// remote level-`l` nodes on the receive side.
    fwd: Halo,
    /// Backward traffic, levelled the same way.
    bwd: Halo,
    /// `level_pos[l]`: local positions of my level-`l` rows, in the order
    /// the store holds them: one contiguous run of store rows per level,
    /// the levels in order after the interiors.
    level_pos: Vec<Vec<usize>>,
    /// Length of the slot-indexed solution vector: owned nodes + ghosts.
    n_slots: usize,
}

impl TrisolvePlan {
    /// Collectively builds the plan from the distributed factors.
    pub fn build(ctx: &mut Ctx, dm: &DistMatrix, local: &LocalView, rf: &RankFactors) -> Self {
        let n_local = local.len();
        // The factorization's level loop is collective (one push per
        // iteration on every rank), so the global level count must agree —
        // the whole sweep schedule hangs on that.
        let n_levels = rf.levels.len();
        let lmax = ctx.all_reduce_u64(vec![n_levels as u64], ReduceOp::Max)[0];
        assert_eq!(lmax as usize, n_levels, "level count differs across ranks");
        #[expect(clippy::expect_used, reason = "levels hold own interface nodes")]
        let pos = |&i: &usize| local.pos_of(i).expect("level row must be local");
        let level_pos: Vec<Vec<usize>> = rf
            .levels
            .iter()
            .map(|lv| lv.iter().map(pos).collect())
            .collect();
        let n_slots = n_local + rf.ghosts.len();
        #[expect(clippy::expect_used, reason = "the plans are built from these ghosts")]
        let slot_of = |g: usize| {
            local
                .pos_of(g)
                .unwrap_or_else(|| n_local + rf.ghosts.binary_search(&g).expect("unlisted ghost"))
        };
        // Level by slot: my interface rows now, each ghost when its owner
        // answers; `Halo::new` rejects a scheduled node still without one
        // (peers only reference interface pivots, which all carry a level).
        let mut level_of = vec![u64::MAX; n_slots];
        for (l, rows) in level_pos.iter().enumerate() {
            rows.iter().for_each(|&p| level_of[p] = l as u64);
        }
        // One direction: plan the exchange from the ghosts the triangle
        // references, each once, learn each one's level from its owner,
        // sort by level.
        let mut build_sweep = |tag: u64, arena: &Arena| -> Halo {
            let mut used = vec![false; rf.ghosts.len()];
            for s in &arena.slot {
                if let Some(g) = (*s as usize).checked_sub(n_local) {
                    used[g] = true;
                }
            }
            let needed = rf
                .ghosts
                .iter()
                .zip(used)
                .filter_map(|(&g, u)| u.then_some(g));
            let plan = CommPlan::build(ctx, tag, needed, |j| dm.dist().owner(j));
            let (mine, ghost) = level_of.split_at_mut(n_local);
            plan.exchange_labels(
                ctx,
                |g| mine[slot_of(g)],
                |g, l| ghost[slot_of(g) - n_local] = l,
            );
            let key = |slot: usize| (level_of[slot] as usize, slot);
            Halo::new(ctx, &plan, n_levels, |g| key(slot_of(g)))
        };
        TrisolvePlan {
            fwd: build_sweep(tags::FWD, &rf.store.l),
            bwd: build_sweep(tags::BWD, &rf.store.u),
            level_pos,
            n_slots,
        }
    }
}

/// Caller-owned workspace for repeated [`dist_solve_into`] calls: the
/// slot-indexed vector both sweeps run over, sized once from the plan so
/// the steady-state solve allocates nothing. Build one per `(local, plan)`
/// pair and reuse it across every solve of a Krylov iteration.
pub struct SolveScratch {
    /// The forward sweep's solution, overwritten by the backward sweep's.
    x: Vec<f64>,
}

impl SolveScratch {
    /// Reserves the workspace for solves over `local` with `plan`.
    pub fn build(local: &LocalView, plan: &TrisolvePlan) -> Self {
        debug_assert!(plan.n_slots >= local.len());
        SolveScratch {
            x: Vec::with_capacity(plan.n_slots),
        }
    }
}

/// Solves `L U x = b` for this rank's unknowns into `out`, using a reusable
/// [`SolveScratch`]: the forward sweep `L y = b` (unit lower triangular),
/// then the backward sweep `U x = y` over `y` in place. `b` and `out` are
/// in local-view order (interiors first, then interfaces). The whole replay
/// runs under the `trisolve_replay` audit region and performs no heap
/// acquisitions.
///
/// Collective: all ranks must call with their own local data.
pub fn dist_solve_into(
    ctx: &mut Ctx,
    local: &LocalView,
    rf: &RankFactors,
    plan: &TrisolvePlan,
    b: &[f64],
    scratch: &mut SolveScratch,
    out: &mut [f64],
) {
    let _audit = pilut_allocaudit::region("trisolve_replay");
    let n = local.len();
    forward_sweep_into(ctx, rf, plan, b, &mut scratch.x);
    backward_sweep_in_place(ctx, rf, plan, &mut scratch.x);
    out.copy_from_slice(&scratch.x[..n]);
}

/// The forward sweep body over a caller-owned slot-indexed vector.
fn forward_sweep_into(
    ctx: &mut Ctx,
    rf: &RankFactors,
    plan: &TrisolvePlan,
    b: &[f64],
    x: &mut Vec<f64>,
) {
    assert_eq!(b.len(), rf.n_rows());
    // Load the owned part; the ghost tail keeps whatever the last backward
    // sweep left in it (every ghost a row reads is delivered by its level's
    // batch first). No allocation once `x` has seen `n_slots`.
    x.clear();
    x.extend_from_slice(b);
    x.resize(plan.n_slots, 0.0);
    // Interior phase: L columns of interior rows are earlier interiors of
    // this rank — all local, all already computed in ascending order.
    let n_int = rf.interior.len();
    rf.store.forward_rows((0..n_int).map(|p| (p, p)), x);
    ctx.work(2.0 * rf.store.l.entries_in(0..n_int) as f64);
    // Interface phase, level by level: drain the previous level's batches,
    // compute and pay, then ship this level's values (one message per
    // peer). The level's rows are the next run of store rows.
    let mut next = n_int;
    for (l, pos) in plan.level_pos.iter().enumerate() {
        if l > 0 {
            plan.fwd.recv_values(ctx, l - 1, |slot, v| x[slot] = v);
        }
        rf.store.forward_rows((next..).zip(pos.iter().copied()), x);
        ctx.work(2.0 * rf.store.l.entries_in(next..next + pos.len()) as f64);
        next += pos.len();
        plan.fwd.send_values(ctx, l, |slot| x[slot]);
    }
}

/// The backward sweep body (see [`forward_sweep_into`]), over the forward
/// sweep's slot-indexed vector: its owned part is the right-hand side, its
/// ghost tail is overwritten before any row reads it.
fn backward_sweep_in_place(ctx: &mut Ctx, rf: &RankFactors, plan: &TrisolvePlan, x: &mut [f64]) {
    assert_eq!(x.len(), plan.n_slots);
    // Interface levels in reverse order: drain the batches of the level
    // computed just before (the next-higher index), compute, ship. The
    // level's rows are the run of store rows before the later levels'.
    let n_levels = plan.level_pos.len();
    let mut end = rf.n_rows();
    for (l, pos) in plan.level_pos.iter().enumerate().rev() {
        if l + 1 < n_levels {
            plan.bwd.recv_values(ctx, l + 1, |slot, v| x[slot] = v);
        }
        end -= pos.len();
        rf.store.backward_rows((end..).zip(pos.iter().copied()), x);
        ctx.work((2 * rf.store.u.entries_in(end..end + pos.len()) + pos.len()) as f64);
        plan.bwd.send_values(ctx, l, |slot| x[slot]);
    }
    // Interior phase, descending elimination order; U columns of interior
    // rows are local (later interiors or own interfaces).
    let n_int = rf.interior.len();
    rf.store.backward_rows((0..n_int).rev().map(|p| (p, p)), x);
    ctx.work((2 * rf.store.u.entries_in(0..n_int) + n_int) as f64);
}
