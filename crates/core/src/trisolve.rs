//! Parallel forward/backward substitution (paper §5).
//!
//! The solves mirror the factorization's two-phase structure. Forward
//! (`L y = b`): every rank solves its interior unknowns locally, then the
//! interface unknowns level by level, pushing each new `x` value to exactly
//! the ranks whose later rows reference it. Backward (`U x = y`) runs the
//! levels in reverse and finishes with the interiors. Communication volume
//! is proportional to the interface size, but the `q` levels impose `q`
//! implicit synchronisation points — which is why ILUT\*'s smaller `q`
//! makes its triangular solves faster (paper Table 2 / Figure 6).
//!
//! The exchange is fully planned: [`TrisolvePlan::build`] builds one
//! [`CommPlan`] per direction, asks every owner for the *level index* of
//! each needed node ([`CommPlan::exchange_labels`]), and sorts the plan into
//! one levelled [`Halo`], whose `(link, level)` batches are one values-only
//! message each. No node ids travel on the wire. Remote `L` dependencies
//! sit at strictly earlier levels and remote `U` dependencies at strictly
//! later ones (the level construction eliminates a row only against
//! already-pivoted levels), and the rows of one level read none of each
//! other, so a level's rows may be solved in any order.
//!
//! The build then compiles each direction into one *step list* that both
//! the build's check and every sweep replay: solve a run of rows and pay
//! for them, ship a send link's batch, or drain a receive link's batch.
//! Within a level the schedule is:
//! - **ship per peer**: for each send link in ascending peer order, solve
//!   the rows of its batch that no earlier step solved, pay, and ship;
//! - **pay after shipping**: the level's rows no peer reads at that level
//!   are solved and paid after its last ship;
//! - **drain on read**: a batch is drained right before the first row that
//!   reads one of its slots, not at the top of the next level.
//!
//! Levels, messages, bytes and wire tags are the paper's §5 pattern; only
//! their timing moves. [`TrisolvePlan::build`] panics unless every slot a
//! row reads is solved or drained by an earlier step of its sweep, every
//! shipped slot is solved first, and every non-empty batch is drained
//! exactly once per sweep — so a `U` row never reads a ghost the forward
//! sweep left.
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
//! factor's row pointers: a run of rows is paid before the ship or drain
//! that ends it. A receiver therefore waits on exactly the rows its
//! sender solved before shipping, which is what the `q` synchronisation
//! points cost; per apply the charges total `2·nnz(L)` and
//! `2·nnz(U) + rows`.
//!
//! Both sweeps run over one such vector: the backward sweep starts from
//! the forward sweep's result in place.
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
/// factorization: one compiled sweep per direction over the *slots* of
/// the solution vector (local position for my nodes, ghost slot for remote
/// ones — see [`RankFactors::ghosts`]), so a sweep moves values between the
/// wire and the vector without a lookup.
pub struct TrisolvePlan {
    /// The forward sweep: interiors, then the levels ascending.
    fwd: Sweep,
    /// The backward sweep: the levels descending, then the interiors.
    bwd: Sweep,
    /// Length of the slot-indexed solution vector: owned nodes + ghosts.
    n_slots: usize,
}

/// One step of a compiled sweep.
#[derive(Clone, Copy, Debug)]
enum Step {
    /// Solve the sweep's interface rows from the previous `Rows` step's
    /// `end` up to this `end` — with the interior run before them
    /// (forward) or after them (backward) when `interiors` — then pay their
    /// `flops`.
    Rows {
        end: usize,
        flops: f64,
        interiors: bool,
    },
    /// Ship send link `link`'s batch of `level`.
    Ship { link: usize, level: usize },
    /// Drain receive link `link`'s batch of `level` into the ghost tail.
    Drain { link: usize, level: usize },
}

/// A direction's halo and the schedule that replays it.
struct Sweep {
    halo: Halo,
    /// `(store row, slot)` of every interface row, in solve order; the
    /// interiors are one run at store row = slot, solved by the `Rows` step
    /// that says so.
    rows: Vec<[u32; 2]>,
    steps: Vec<Step>,
}

/// Which triangle a sweep solves.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Direction {
    Forward,
    Backward,
}

/// Where a rank's rows sit: interiors at store row = slot below `n_int`,
/// then level `l`'s interface rows at store rows `start[l]..start[l + 1]`.
struct Shape {
    n_int: usize,
    n_local: usize,
    start: Vec<usize>,
    /// `slot[p - n_int]`: the slot interface store row `p` solves.
    slot: Vec<usize>,
    /// `row[s - n_int]`: the store row that solves interface slot `s`.
    row: Vec<usize>,
}

impl TrisolvePlan {
    /// Collectively builds the plan from the distributed factors.
    ///
    /// # Panics
    /// If a compiled sweep would read a slot before an earlier step solves
    /// or drains it, ship a slot before solving it, or drain a non-empty
    /// batch other than exactly once.
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
        let n_int = rf.interior.len();
        let mut shape = Shape {
            n_int,
            n_local,
            start: vec![n_int],
            slot: Vec::with_capacity(n_local - n_int),
            row: vec![usize::MAX; n_local - n_int],
        };
        for lv in &rf.levels {
            shape.slot.extend(lv.iter().map(pos));
            shape.start.push(n_int + shape.slot.len());
        }
        for (i, &s) in shape.slot.iter().enumerate() {
            shape.row[s - n_int] = n_int + i;
        }
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
        for (l, run) in shape.start.windows(2).enumerate() {
            for &s in &shape.slot[run[0] - n_int..run[1] - n_int] {
                level_of[s] = l as u64;
            }
        }
        // One direction: plan the exchange from the ghosts the triangle
        // references, each once, learn each one's level from its owner,
        // sort by level.
        let mut build_halo = |tag: u64, arena: &Arena| -> Halo {
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
        let fwd = build_halo(tags::FWD, &rf.store.l);
        let bwd = build_halo(tags::BWD, &rf.store.u);
        let fwd = Sweep::compile(Direction::Forward, fwd, &rf.store.l, &shape, n_slots);
        let bwd = Sweep::compile(Direction::Backward, bwd, &rf.store.u, &shape, n_slots);
        fwd.check(Direction::Forward, &rf.store.l, &shape, n_slots);
        bwd.check(Direction::Backward, &rf.store.u, &shape, n_slots);
        TrisolvePlan { fwd, bwd, n_slots }
    }
}

/// The compiler's state for one direction: the steps so far, the slots
/// they have solved or drained, and the flops of the open run of rows.
struct Schedule<'a> {
    halo: &'a Halo,
    arena: &'a Arena,
    n_local: usize,
    /// Flops per row beyond two per entry: the backward sweep's division.
    divide: usize,
    /// `batch[g]`: the `(receive link, level)` that delivers ghost `g`.
    batch: Vec<Option<(usize, usize)>>,
    /// Slots solved (owned) or drained (ghosts) by the steps so far.
    have: Vec<bool>,
    rows: Vec<[u32; 2]>,
    steps: Vec<Step>,
    /// Rows already closed into a `Rows` step, the open run's flops, and
    /// whether it holds the interior run.
    closed: usize,
    flops: usize,
    interiors: bool,
}

impl Schedule<'_> {
    /// Solves store row `p` into `slot`, first draining every batch the
    /// row reads from that no earlier step drained.
    fn solve(&mut self, p: usize, slot: usize) {
        let (cols, _) = self.arena.row(p);
        for &j in cols {
            let Some(g) = (j as usize).checked_sub(self.n_local) else {
                continue;
            };
            if let (false, Some((link, level))) = (self.have[j as usize], self.batch[g]) {
                self.close();
                self.steps.push(Step::Drain { link, level });
                for &s in self.halo.recv_slots(link, level) {
                    self.have[s] = true;
                }
            }
        }
        // Slots number matrix columns, so they fit its `u32` ids.
        self.rows.push([p as u32, slot as u32]);
        self.have[slot] = true;
        self.flops += 2 * cols.len() + self.divide;
    }

    /// Adds the interior run to the open run of rows. Interior rows read
    /// only interiors and, backward, the rank's own interface rows.
    fn interiors(&mut self, n_int: usize) {
        self.flops += 2 * self.arena.entries_in(0..n_int) + self.divide * n_int;
        self.have[..n_int].fill(true);
        self.interiors = true;
    }

    /// Closes the open run of rows into a `Rows` step, if it has any.
    fn close(&mut self) {
        if self.rows.len() > self.closed || self.interiors {
            let (end, flops) = (self.rows.len(), self.flops as f64);
            let interiors = std::mem::take(&mut self.interiors);
            self.steps.push(Step::Rows {
                end,
                flops,
                interiors,
            });
            (self.closed, self.flops) = (end, 0);
        }
    }

    /// Level `l`: ship per peer, then solve what no peer reads.
    fn level(&mut self, shape: &Shape, l: usize) {
        let halo = self.halo;
        for link in 0..halo.send_links() {
            let batch = halo.send_slots(link, l);
            if batch.is_empty() {
                continue;
            }
            for &s in batch {
                if !self.have[s] {
                    self.solve(shape.row[s - shape.n_int], s);
                }
            }
            self.close();
            self.steps.push(Step::Ship { link, level: l });
        }
        for p in shape.start[l]..shape.start[l + 1] {
            let s = shape.slot[p - shape.n_int];
            if !self.have[s] {
                self.solve(p, s);
            }
        }
    }
}

impl Sweep {
    /// Compiles one direction's schedule over `arena`, the triangle it
    /// solves (module docs).
    fn compile(dir: Direction, halo: Halo, arena: &Arena, shape: &Shape, n_slots: usize) -> Sweep {
        let n_local = shape.n_local;
        let mut batch = vec![None; n_slots - n_local];
        for link in 0..halo.recv_links() {
            for level in 0..shape.start.len() - 1 {
                for &s in halo.recv_slots(link, level) {
                    batch[s - n_local] = Some((link, level));
                }
            }
        }
        let mut at = Schedule {
            halo: &halo,
            arena,
            n_local,
            divide: usize::from(dir == Direction::Backward),
            batch,
            have: vec![false; n_slots],
            rows: Vec::with_capacity(shape.slot.len()),
            steps: Vec::new(),
            closed: 0,
            flops: 0,
            interiors: false,
        };
        let n_levels = shape.start.len() - 1;
        match dir {
            Direction::Forward => {
                at.interiors(shape.n_int);
                (0..n_levels).for_each(|l| at.level(shape, l));
            }
            Direction::Backward => {
                (0..n_levels).rev().for_each(|l| at.level(shape, l));
                at.interiors(shape.n_int);
            }
        }
        at.close();
        let (rows, steps) = (at.rows, at.steps);
        Sweep { halo, rows, steps }
    }

    /// The plan-time proof of the schedule, independent of how it was
    /// compiled: replays the steps over `have` flags and panics, naming the
    /// slot, the step and the direction, unless every slot a row reads is
    /// solved or drained by an earlier step, every shipped slot is solved
    /// first, every owned slot is solved exactly once, and every non-empty
    /// batch is drained exactly once.
    fn check(&self, dir: Direction, arena: &Arena, shape: &Shape, n_slots: usize) {
        let mut have = vec![false; n_slots];
        let mut next = 0;
        for (i, step) in self.steps.iter().enumerate() {
            match *step {
                Step::Rows { end, interiors, .. } => {
                    let int = (0..shape.n_int).filter(|_| interiors);
                    let int = int.map(|p| [p as u32; 2]);
                    let iface = self.rows[next..end].iter().copied();
                    let run: Vec<[u32; 2]> = match dir {
                        Direction::Forward => int.chain(iface).collect(),
                        Direction::Backward => iface.chain(int.rev()).collect(),
                    };
                    for [p, s] in run {
                        for &j in arena.row(p as usize).0 {
                            assert!(
                                have[j as usize],
                                "{dir:?} sweep: step {i} reads slot {j} before an earlier step solves or drains it"
                            );
                        }
                        assert!(
                            !have[s as usize],
                            "{dir:?} sweep: step {i} solves slot {s} twice"
                        );
                        have[s as usize] = true;
                    }
                    next = end;
                }
                Step::Ship { link, level } => {
                    for &s in self.halo.send_slots(link, level) {
                        assert!(
                            have[s],
                            "{dir:?} sweep: step {i} ships slot {s} before a step solves it"
                        );
                    }
                }
                Step::Drain { link, level } => {
                    for &s in self.halo.recv_slots(link, level) {
                        assert!(
                            !have[s],
                            "{dir:?} sweep: step {i} drains slot {s} a second time"
                        );
                        have[s] = true;
                    }
                }
            }
        }
        let n = self.steps.len();
        if let Some(s) = (0..shape.n_local).find(|&s| !have[s]) {
            panic!("{dir:?} sweep: no step solves slot {s} (after step {n})");
        }
        for link in 0..self.halo.recv_links() {
            for level in 0..shape.start.len() - 1 {
                if let Some(&s) = self.halo.recv_slots(link, level).first() {
                    assert!(
                        have[s],
                        "{dir:?} sweep: no step drains slot {s} (link {link}, level {level}) after step {n}"
                    );
                }
            }
        }
    }

    /// Replays the schedule over the slot-indexed `x`: `solve(interiors,
    /// rows, x)` runs one `Rows` step's `(store row, slot)` pairs, and the
    /// interior run if `interiors`.
    fn replay(&self, ctx: &mut Ctx, x: &mut [f64], solve: impl Fn(bool, &[[u32; 2]], &mut [f64])) {
        let mut next = 0;
        for step in &self.steps {
            match *step {
                Step::Rows {
                    end,
                    flops,
                    interiors,
                } => {
                    solve(interiors, &self.rows[next..end], x);
                    ctx.work(flops);
                    next = end;
                }
                Step::Ship { link, level } => self.halo.send_batch(ctx, link, level, |s| x[s]),
                Step::Drain { link, level } => {
                    self.halo.recv_batch(ctx, link, level, |s, v| x[s] = v);
                }
            }
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
    // sweep left in it (the plan drains every ghost before a row reads
    // it). No allocation once `x` has seen `n_slots`.
    x.clear();
    x.extend_from_slice(b);
    x.resize(plan.n_slots, 0.0);
    let n_int = rf.interior.len();
    plan.fwd.replay(ctx, x, |interiors, rows, x| {
        if interiors {
            rf.store.forward_rows((0..n_int).map(|p| (p, p)), x);
        }
        rf.store
            .forward_rows(rows.iter().map(|&[p, s]| (p as usize, s as usize)), x);
    });
}

/// The backward sweep body (see [`forward_sweep_into`]), over the forward
/// sweep's slot-indexed vector: its owned part is the right-hand side.
fn backward_sweep_in_place(ctx: &mut Ctx, rf: &RankFactors, plan: &TrisolvePlan, x: &mut [f64]) {
    assert_eq!(x.len(), plan.n_slots);
    let n_int = rf.interior.len();
    plan.bwd.replay(ctx, x, |interiors, rows, x| {
        rf.store
            .backward_rows(rows.iter().map(|&[p, s]| (p as usize, s as usize)), x);
        if interiors {
            rf.store.backward_rows((0..n_int).rev().map(|p| (p, p)), x);
        }
    });
}
