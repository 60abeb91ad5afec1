//! The rank-local factor store: the shared `FactorStore` (two flat CSR
//! arenas of `u32` slots and `f64` values plus pivots — the very store under
//! [`LuFactors`](crate::factors::LuFactors)) over a compact slot space.
//!
//! ```text
//! slot:  0 ........ n_int | n_int ...... n_local | n_local ... n_local+|ghosts|
//!        interior rows    | interface rows       | referenced remote nodes
//!        (ascending id)   | (ascending id)       | (ascending id)
//! ```
//!
//! Slots `0..n_local` are the local-view positions, so a local solution
//! vector extended by one entry per ghost is indexed by slot directly and
//! the triangular sweeps never translate an id. Rows sit in local-view
//! order; **within a row, entries keep ascending _global_ column order**
//! (not slot order) — the order every earlier representation summed in, so
//! each dot product rounds identically.

use super::{LevelStats, ParStats, ReducedRows};
use crate::dist::LocalView;
use crate::factors::{Arena, FactorStore};
use pilut_par::Payload;
use pilut_sparse::csr::narrow;
use pilut_sparse::Entry;

/// One rank's share of the distributed factorization. `L` has an implicit
/// unit diagonal; a row's `diag` is its `U` pivot; `l` couples to rows
/// factored earlier, `u` to rows factored later.
#[derive(Clone, Debug)]
pub struct RankFactors {
    /// The rank that factored these rows.
    pub rank: usize,
    /// Interior nodes in elimination order (ascending global id).
    pub interior: Vec<usize>,
    /// Interface nodes (ascending global id).
    pub interface: Vec<usize>,
    /// `levels[l]` = my interface nodes factored in global level `l`
    /// (possibly empty; every rank records every level).
    pub levels: Vec<Vec<usize>>,
    /// Remote nodes my rows reference, ascending; ghost `g` is slot
    /// `interior.len() + interface.len() + g`.
    pub ghosts: Vec<usize>,
    /// Rows in local-view order over the slot space above.
    pub(crate) store: FactorStore,
    /// Column pattern of my slice of the *initial* reduced matrix `A_I⁰`
    /// (after interior elimination, before any interface level) — used by
    /// the Figure 1/2 structure illustrations.
    pub initial_reduced_cols: Vec<(usize, Vec<usize>)>,
    /// This rank's counters of the factorization.
    pub stats: ParStats,
}

/// A borrowed view of one factored row, yielding **global** column ids.
#[derive(Clone, Copy)]
pub struct RowRef<'a> {
    rf: &'a RankFactors,
    pos: usize,
}

impl<'a> RowRef<'a> {
    /// The `U` pivot.
    pub fn diag(&self) -> f64 {
        self.rf.store.diag[self.pos]
    }

    /// Strict-`L` entries as `(global column, value)`, ascending column.
    pub fn l(&self) -> impl ExactSizeIterator<Item = (usize, f64)> + 'a {
        self.rf.entries(&self.rf.store.l, self.pos)
    }

    /// Strict-`U` entries as `(global column, value)`, ascending column.
    pub fn u(&self) -> impl ExactSizeIterator<Item = (usize, f64)> + 'a {
        self.rf.entries(&self.rf.store.u, self.pos)
    }
}

impl RankFactors {
    /// Number of rows this rank factored.
    pub fn n_rows(&self) -> usize {
        self.store.n_rows()
    }

    /// The global node a slot stands for.
    fn global_of(&self, slot: usize) -> usize {
        let (ni, nl) = (self.interior.len(), self.n_rows());
        if slot < ni {
            self.interior[slot]
        } else if slot < nl {
            self.interface[slot - ni]
        } else {
            self.ghosts[slot - nl]
        }
    }

    fn entries<'a>(
        &'a self,
        arena: &'a Arena,
        pos: usize,
    ) -> impl ExactSizeIterator<Item = (usize, f64)> + 'a {
        arena.entries(pos).map(|(s, v)| (self.global_of(s), v))
    }

    /// The factored row of global node `global`, if this rank owns it.
    pub fn row(&self, global: usize) -> Option<RowRef<'_>> {
        let pos = match self.interior.binary_search(&global) {
            Ok(p) => p,
            Err(_) => self.interior.len() + self.interface.binary_search(&global).ok()?,
        };
        Some(RowRef { rf: self, pos })
    }

    /// Every row with its global node id, in local-view order.
    pub fn rows(&self) -> impl Iterator<Item = (usize, RowRef<'_>)> {
        let nodes = self.interior.iter().chain(&self.interface);
        nodes
            .enumerate()
            .map(|(pos, &g)| (g, RowRef { rf: self, pos }))
    }

    /// Heap bytes the factor store keeps alive (capacities, not lengths):
    /// both arenas, the pivots, and the node, ghost and level lists. The
    /// diagnostic [`initial_reduced_cols`](Self::initial_reduced_cols)
    /// pattern is not part of the factor and is not counted.
    pub fn heap_bytes(&self) -> usize {
        let words = |v: &Vec<usize>| 8 * v.capacity();
        self.store.heap_bytes()
            + words(&self.interior)
            + words(&self.interface)
            + words(&self.ghosts)
            + 24 * self.levels.capacity()
            + self.levels.iter().map(words).sum::<usize>()
    }
}

/// An interface row while the level loop is still changing it, as
/// [`Entry`]s of global columns (12 bytes each). `u` is written once, at
/// exact size, when the row's level factors it; `l` gains each level's
/// multipliers in a buffer that grows by a quarter (`make_room` in
/// `par_ilut`) and is shrunk to size once the row is factored.
#[derive(Default)]
pub(crate) struct Staged {
    pub(crate) l: Vec<Entry>,
    pub(crate) diag: f64,
    pub(crate) u: Vec<Entry>,
}

/// The column pattern of my slice of the initial reduced matrix `A_I⁰`,
/// flat while the level loop runs (4 bytes per entry and per row): row `q`,
/// my interface node `q`, is `cols[ptr[q]..ptr[q + 1]]`.
pub(crate) struct InitialPattern {
    ptr: Vec<u32>,
    cols: Vec<u32>,
}

impl InitialPattern {
    /// The pattern of `reduced`, a row per interface node, all still live.
    pub(crate) fn of(reduced: &ReducedRows) -> Self {
        let mut ptr = Vec::with_capacity(reduced.len() + 1);
        let mut cols = Vec::with_capacity(reduced.iter().flatten().map(Vec::len).sum());
        ptr.push(0);
        for row in reduced.iter().flatten() {
            cols.extend(row.iter().map(|e| e.col() as u32));
            #[expect(clippy::expect_used, reason = "documented panic past 2^32 entries")]
            ptr.push(narrow(cols.len(), "reduced entries").expect("reduced slice outgrew u32"));
        }
        InitialPattern { ptr, cols }
    }

    /// `(node, columns)` per row, the form [`RankFactors`] keeps.
    fn expand(self, interface: &[usize]) -> Vec<(usize, Vec<usize>)> {
        let cols = |w: &[u32]| self.cols[w[0] as usize..w[1] as usize].iter();
        let row = |w| cols(w).map(|&c| c as usize).collect();
        let rows = interface.iter().zip(self.ptr.windows(2));
        rows.map(|(&v, w)| (v, row(w))).collect()
    }
}

/// The store under construction: interior rows go straight into the arenas
/// as phase 1 finalises them; interface rows are staged by interface index
/// until the last level has factored, then appended in local-view order
/// (their ghost slots are only known once every referenced remote node is).
pub(crate) struct FactorBuilder<'a> {
    local: &'a LocalView,
    /// The interior rows, pushed by the row kernel as it finalises them.
    pub(crate) store: FactorStore,
    pub(crate) staged: Vec<Staged>,
}

impl<'a> FactorBuilder<'a> {
    /// A builder whose arenas hold `reserve` entries per triangle from the
    /// start; [`finish`](Self::finish) gives back what was not used.
    pub(crate) fn new(local: &'a LocalView, reserve: usize) -> Self {
        let mut store = FactorStore::with_capacity(local.len());
        store.reserve_entries(reserve);
        FactorBuilder {
            local,
            store,
            staged: local.interface.iter().map(|_| Staged::default()).collect(),
        }
    }

    /// Interface position of my interface node `v`.
    #[expect(clippy::expect_used, reason = "callers pass own interface nodes")]
    pub(crate) fn interface_index(&self, v: usize) -> usize {
        self.local.pos_of(v).expect("interface node must be local") - self.local.interior.len()
    }

    /// The staged row of my interface node `v`.
    pub(crate) fn staged(&self, v: usize) -> &Staged {
        &self.staged[self.interface_index(v)]
    }

    /// Pivot and strict-`U` entries of node `k`, factored in the current
    /// level: staged when it is mine, else among the rows its owner shipped
    /// (`None` when its owner did not ship it).
    pub(crate) fn level_pivot<'r>(
        &'r self,
        k: usize,
        shipped: &'r RemoteURows,
    ) -> Option<(f64, &'r [Entry])> {
        if self.local.owns(k) {
            let row = self.staged(k);
            return Some((row.diag, &row.u));
        }
        shipped.get(k)
    }

    /// Wire encoding of the `U` rows of the level members among `nodes`:
    /// `U64 = [node, len, cols...]*`, `F64 = [diag, vals...]*`, each buffer
    /// sized exactly (none at all for an empty batch). The rows and bytes
    /// shipped are added to the level's `tally`.
    pub(crate) fn encode_urows(
        &self,
        nodes: &[usize],
        is_member: impl Fn(usize) -> bool,
        tally: &mut LevelStats,
    ) -> Payload {
        let members = || nodes.iter().filter(|&&v| is_member(v));
        let (rows, entries) = members().fold((0, 0), |(rows, entries), &v| {
            (rows + 1, entries + self.staged(v).u.len())
        });
        let mut bu = Vec::with_capacity(2 * rows + entries);
        let mut bf = Vec::with_capacity(rows + entries);
        for &v in members() {
            let row = self.staged(v);
            bu.push(v as u64);
            bu.push(row.u.len() as u64);
            bu.extend(row.u.iter().map(|e| e.col() as u64));
            bf.push(row.diag);
            bf.extend(row.u.iter().map(|e| e.val()));
            tally.urows_rows += 1;
        }
        let batch = Payload::mixed(bu, bf);
        tally.urows_bytes += batch.bytes();
        batch
    }

    /// Appends the staged interface rows in local-view order and seals the
    /// store; the fill and level counters of `stats` are read off it. The
    /// initial reduced pattern is expanded last, once the staged rows are
    /// gone.
    pub(crate) fn finish(
        mut self,
        levels: Vec<Vec<usize>>,
        initial: InitialPattern,
        mut stats: ParStats,
    ) -> RankFactors {
        let local = self.local;
        let staged = std::mem::take(&mut self.staged);
        let columns = staged.iter().flat_map(|r| r.l.iter().chain(&r.u));
        let mut ghosts: Vec<usize> = columns
            .map(|e| e.col())
            .filter(|&j| !local.owns(j))
            .collect();
        ghosts.sort_unstable();
        ghosts.dedup();
        ghosts.shrink_to_fit();
        #[expect(clippy::expect_used, reason = "every remote column is in `ghosts`")]
        let slot_of = |j| {
            local
                .pos_of(j)
                .unwrap_or_else(|| local.len() + ghosts.binary_search(&j).expect("unlisted ghost"))
        };
        for row in staged {
            self.store.push_row(&row.l, row.diag, &row.u, slot_of);
        }
        self.store.shrink();
        stats.nnz_l = self.store.l.val.len();
        stats.nnz_u = self.store.u.val.len() + self.store.n_rows();
        stats.levels = levels.len();
        RankFactors {
            rank: local.rank,
            interior: local.interior.clone(),
            interface: local.interface.clone(),
            levels,
            ghosts,
            store: self.store,
            initial_reduced_cols: initial.expand(&local.interface),
            stats,
        }
    }
}

/// The `U` rows of one level's remote members, as shipped by their owners:
/// one flat [`Entry`] buffer reused across levels, looked up through a
/// dense `u32` index over the rank's column space (only interface nodes are
/// ever shipped, and a batch is checked against the plan before any of its
/// nodes is looked up there).
pub(crate) struct RemoteURows<'a> {
    local: &'a LocalView,
    /// `at[local.slot(g)]` = index of node `g` in this level's batch
    /// (`u32::MAX` when absent).
    at: Vec<u32>,
    nodes: Vec<usize>,
    ptr: Vec<usize>,
    diag: Vec<f64>,
    entries: Vec<Entry>,
}

impl<'a> RemoteURows<'a> {
    pub(crate) fn new(local: &'a LocalView) -> Self {
        RemoteURows {
            local,
            at: vec![u32::MAX; local.n_slots()],
            nodes: Vec::new(),
            ptr: vec![0],
            diag: Vec::new(),
            entries: Vec::new(),
        }
    }

    /// Forgets the previous level's batch.
    pub(crate) fn clear(&mut self) {
        for &g in &self.nodes {
            self.at[self.local.slot(g)] = u32::MAX;
        }
        self.nodes.clear();
        self.ptr.truncate(1);
        self.diag.clear();
        self.entries.clear();
    }

    /// Appends one peer's batch (the inverse of
    /// [`FactorBuilder::encode_urows`]), checked against `expected`, the
    /// plan's receive list from that peer: the rows' nodes must come from
    /// the list in its order, each row must fit both buffers and name
    /// columns of the matrix, and the rows must use both buffers up. The
    /// error describes the first violation; the rows before it stay.
    pub(crate) fn decode(&mut self, expected: &[usize], payload: &Payload) -> Result<(), String> {
        let Payload::Mixed(bu, bf) = payload else {
            return Err(format!("not an index/value batch ({} B)", payload.bytes()));
        };
        let (n, mut next) = (self.local.n_global() as u64, 0);
        let (mut iu, mut ifl) = (0usize, 0usize);
        while iu < bu.len() {
            let Some(&[node, len]) = bu.get(iu..iu + 2) else {
                return Err(format!("{} stray index word(s)", bu.len() - iu));
            };
            let Some(skip) = expected[next..].iter().position(|&v| v as u64 == node) else {
                return Err(format!("node {node} is not next in the receive list"));
            };
            next += skip + 1;
            if len > (bu.len() - iu - 2) as u64 || len >= (bf.len() - ifl) as u64 {
                return Err(format!("node {node}: {len} entries overrun the batch"));
            }
            let (len, node) = (len as usize, node as usize);
            let cols = &bu[iu + 2..iu + 2 + len];
            if let Some(c) = cols.iter().find(|&&c| c >= n) {
                return Err(format!("node {node}: column {c} of {n}"));
            }
            self.at[self.local.slot(node)] = self.nodes.len() as u32;
            self.nodes.push(node);
            self.diag.push(bf[ifl]);
            for (&c, &v) in cols.iter().zip(&bf[ifl + 1..ifl + 1 + len]) {
                self.entries.push(Entry::new(c as usize, v));
            }
            self.ptr.push(self.entries.len());
            iu += 2 + len;
            ifl += 1 + len;
        }
        match bf.len() - ifl {
            0 => Ok(()),
            extra => Err(format!("{extra} stray value word(s)")),
        }
    }

    /// Pivot and strict-`U` entries of remote node `g`, if in this batch.
    pub(crate) fn get(&self, g: usize) -> Option<(f64, &[Entry])> {
        let i = self.at[self.local.slot(g)] as usize;
        let row = |i| (self.diag[i], &self.entries[self.ptr[i]..self.ptr[i + 1]]);
        (i != u32::MAX as usize).then(|| row(i))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::exchange::{tags, AllPeers, CommPlan};
    use crate::dist::{DistMatrix, Distribution};
    use crate::options::FactorError;
    use crate::parallel::collective_fault_verdict;
    use crate::parallel::dist_mis::note_err;
    use pilut_par::{Machine, MachineModel};
    use pilut_sparse::gen;

    /// The path 0 – 1 – 2 – 3 on two ranks: rank 0 owns interior 0 and
    /// interface 1, rank 1 interface 2 and interior 3, so rank 0 receives
    /// node 2's row from rank 1, and node 3 — rank 1's interior at local
    /// position 0 — has rank 0's interior slot 0 for its `slot`.
    fn path() -> DistMatrix {
        DistMatrix::new(gen::laplace_2d(4, 1), Distribution::block(4, 2))
    }

    /// Decodes one batch from rank 1 into rank 0's shipped rows.
    fn decode(bu: Vec<u64>, bf: Vec<f64>) -> Result<Option<(f64, Vec<Entry>)>, String> {
        let dm = path();
        let local = dm.local_view(0);
        let mut shipped = RemoteURows::new(&local);
        shipped.decode(&[2], &Payload::mixed(bu, bf))?;
        Ok(shipped.get(2).map(|(d, u)| (d, u.to_vec())))
    }

    #[test]
    fn a_well_formed_batch_decodes() {
        let row = decode(vec![2, 1, 3], vec![4.0, -1.0]).unwrap();
        assert_eq!(row, Some((4.0, vec![Entry::new(3, -1.0)])));
        assert_eq!(decode(vec![], vec![]).unwrap(), None, "an empty batch");
    }

    #[test]
    fn every_malformed_batch_shape_is_an_error_not_a_panic() {
        let cases: [(Vec<u64>, Vec<f64>, &str); 9] = [
            (vec![2], vec![4.0], "1 stray index word(s)"),
            (vec![2, 0, 7], vec![4.0], "1 stray index word(s)"),
            (
                vec![3, 0],
                vec![4.0],
                "node 3 is not next in the receive list",
            ),
            (
                vec![1, 0],
                vec![4.0],
                "node 1 is not next in the receive list",
            ),
            (vec![2, 0, 2, 0], vec![4.0, 4.0], "node 2 is not next"),
            (
                vec![2, 2, 3],
                vec![4.0, 1.0, 1.0],
                "node 2: 2 entries overrun",
            ),
            (vec![2, 1, 3], vec![4.0], "node 2: 1 entries overrun"),
            (vec![2, u64::MAX, 3], vec![4.0, 1.0], "entries overrun"),
            (vec![2, 1, 9], vec![4.0, 1.0], "node 2: column 9 of 4"),
        ];
        for (bu, bf, what) in cases {
            let err = decode(bu.clone(), bf).unwrap_err();
            assert!(err.contains(what), "{bu:?}: {err}");
        }
        let err = decode(vec![2, 0], vec![4.0, 1.0]).unwrap_err();
        assert_eq!(err, "1 stray value word(s)");
        let dm = path();
        let local = dm.local_view(0);
        let err = RemoteURows::new(&local)
            .decode(&[2], &Payload::u64s(vec![2, 0]))
            .unwrap_err();
        assert_eq!(err, "not an index/value batch (16 B)");
    }

    #[test]
    fn a_corrupt_urows_round_reaches_every_rank_as_an_error() {
        // Rank 1 ships node 3, an interior, in place of its level's batch;
        // rank 0 must refuse it, and the collective check that follows
        // tells rank 1 who failed instead of leaving it to stall.
        let dm = path();
        let out = Machine::run(2, MachineModel::cray_t3d(), |ctx| {
            let me = ctx.rank();
            let local = dm.local_view(me);
            let plan = CommPlan::build(ctx, tags::UROWS, [2 - me], |j| dm.dist().owner(j));
            let mut shipped = RemoteURows::new(&local);
            let mut protocol = None;
            plan.exact_round(
                ctx,
                tags::UROWS,
                &AllPeers,
                &AllPeers,
                |_, _| match me {
                    0 => Payload::mixed(vec![], vec![]),
                    _ => Payload::mixed(vec![3, 0], vec![1.0]),
                },
                |peer, nodes, payload| {
                    if let Err(what) = shipped.decode(nodes, &payload) {
                        note_err(&mut protocol, "urows", peer, what);
                    }
                },
            );
            collective_fault_verdict(ctx, &None, protocol)
        });
        let what = "from rank 1: node 3 is not next in the receive list".to_string();
        let tag = "urows";
        assert_eq!(out.results[0], FactorError::Protocol { tag, what });
        assert_eq!(out.results[1], FactorError::RankFailure { rank: 0 });
    }
}
