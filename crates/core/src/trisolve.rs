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
//! remote node (`RankFactors::ghosts`). Rows name their columns by slot and
//! the halos are over slots, so the inner loop is `x[p] -= val * x[slot]`
//! with no id translation and a received batch lands directly in the ghost
//! tail. Entries keep ascending *global* column order within a row, so
//! every sum rounds as it always did.

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
    /// `level_pos[l]`: local positions of my level-`l` rows.
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
        // lint: allow(unwrap): levels hold this rank's interface nodes
        let pos = |&i: &usize| local.pos_of(i).expect("level row must be local");
        let level_pos: Vec<Vec<usize>> = rf
            .levels
            .iter()
            .map(|lv| lv.iter().map(pos).collect())
            .collect();
        let n_slots = n_local + rf.ghosts.len();
        let slot_of = |g: usize| {
            local.pos_of(g).unwrap_or_else(|| {
                // lint: allow(unwrap): the plans are built from these very ghosts
                n_local + rf.ghosts.binary_search(&g).expect("unlisted ghost")
            })
        };
        // Level by slot: my interface rows now, each ghost when its owner
        // answers; `Halo::new` rejects a scheduled node still without one
        // (peers only reference interface pivots, which all carry a level).
        let mut level_of = vec![u64::MAX; n_slots];
        for (l, rows) in level_pos.iter().enumerate() {
            rows.iter().for_each(|&p| level_of[p] = l as u64);
        }
        // One direction: plan the exchange from the ghosts the triangle
        // references, learn each one's level from its owner, sort by level.
        let mut build_sweep = |tag: u64, arena: &Arena| -> Halo {
            let ghost_refs = arena.slot.iter().filter(|&&s| s >= n_local);
            let needed = ghost_refs.map(|&s| rf.ghosts[s - n_local]);
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

/// Caller-owned workspace for repeated [`dist_solve_into`] calls: the two
/// slot-indexed sweep vectors, sized once from the plan so the steady-state
/// solve allocates nothing. Build one per `(local, plan)` pair and reuse it
/// across every solve of a Krylov iteration.
pub struct SolveScratch {
    /// Forward-sweep solution (the backward sweep's right-hand side).
    y: Vec<f64>,
    /// Backward-sweep solution.
    x: Vec<f64>,
}

impl SolveScratch {
    /// Reserves the workspace for solves over `local` with `plan`.
    pub fn build(local: &LocalView, plan: &TrisolvePlan) -> Self {
        debug_assert!(plan.n_slots >= local.len());
        SolveScratch {
            y: Vec::with_capacity(plan.n_slots),
            x: Vec::with_capacity(plan.n_slots),
        }
    }
}

/// Solves `L U x = b` for this rank's unknowns. `b` is in local-view order
/// (interiors first, then interfaces); so is the returned `x`.
///
/// Collective: all ranks must call with their own local data.
pub fn dist_solve(
    ctx: &mut Ctx,
    local: &LocalView,
    rf: &RankFactors,
    plan: &TrisolvePlan,
    b: &[f64],
) -> Vec<f64> {
    let y = dist_forward(ctx, local, rf, plan, b);
    dist_backward(ctx, local, rf, plan, &y)
}

/// Solves `L U x = b` into a caller-owned buffer using a reusable
/// [`SolveScratch`] — the zero-allocation steady-state form of
/// [`dist_solve`]. The whole replay runs under the `trisolve_replay` audit
/// region, and with a warmed scratch it performs no heap acquisitions.
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
    forward_sweep_into(ctx, rf, plan, b, &mut scratch.y);
    backward_sweep_into(ctx, rf, plan, &scratch.y[..n], &mut scratch.x);
    out.copy_from_slice(&scratch.x[..n]);
}

/// Forward sweep `L y = b` (unit lower triangular).
pub fn dist_forward(
    ctx: &mut Ctx,
    local: &LocalView,
    rf: &RankFactors,
    plan: &TrisolvePlan,
    b: &[f64],
) -> Vec<f64> {
    let mut x = Vec::new();
    forward_sweep_into(ctx, rf, plan, b, &mut x);
    x.truncate(local.len());
    x
}

/// Backward sweep `U x = y`.
pub fn dist_backward(
    ctx: &mut Ctx,
    local: &LocalView,
    rf: &RankFactors,
    plan: &TrisolvePlan,
    y: &[f64],
) -> Vec<f64> {
    let mut x = Vec::new();
    backward_sweep_into(ctx, rf, plan, y, &mut x);
    x.truncate(local.len());
    x
}

/// Loads the owned part of the slot-indexed vector from `rhs`; the ghost
/// tail keeps whatever it held (every ghost a row reads is delivered by its
/// level's batch first). No allocation once `x` has seen `n_slots`.
fn load(x: &mut Vec<f64>, rhs: &[f64], n_slots: usize) {
    x.clear();
    x.extend_from_slice(rhs);
    x.resize(n_slots, 0.0);
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
    load(x, b, plan.n_slots);
    // Interior phase: L columns of interior rows are earlier interiors of
    // this rank — all local, all already computed in ascending order.
    rf.store.forward_rows(0..rf.interior.len(), x);
    // Interface phase, level by level: drain the previous level's batches,
    // compute, then ship this level's values (one message per peer).
    for (l, level) in plan.level_pos.iter().enumerate() {
        if l > 0 {
            plan.fwd.recv_values(ctx, l - 1, |slot, v| x[slot] = v);
        }
        rf.store.forward_rows(level.iter().copied(), x);
        plan.fwd.send_values(ctx, l, |pos| x[pos]);
    }
    ctx.work(2.0 * rf.store.l.val.len() as f64);
}

/// The backward sweep body (see [`forward_sweep_into`]).
fn backward_sweep_into(
    ctx: &mut Ctx,
    rf: &RankFactors,
    plan: &TrisolvePlan,
    y: &[f64],
    x: &mut Vec<f64>,
) {
    assert_eq!(y.len(), rf.n_rows());
    load(x, y, plan.n_slots);
    // Interface levels in reverse order: drain the batches of the level
    // computed just before (the next-higher index), compute, ship.
    let n_levels = plan.level_pos.len();
    for l in (0..n_levels).rev() {
        if l + 1 < n_levels {
            plan.bwd.recv_values(ctx, l + 1, |slot, v| x[slot] = v);
        }
        rf.store.backward_rows(plan.level_pos[l].iter().copied(), x);
        plan.bwd.send_values(ctx, l, |pos| x[pos]);
    }
    // Interior phase, descending elimination order; U columns of interior
    // rows are local (later interiors or own interfaces).
    rf.store.backward_rows((0..rf.interior.len()).rev(), x);
    ctx.work((2 * rf.store.u.val.len() + rf.n_rows()) as f64);
}
