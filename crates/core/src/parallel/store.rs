//! The rank-local factor store: the shared `FactorStore` (two flat CSR
//! arenas plus pivots — the very store under
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

use super::{LevelStats, ParStats};
use crate::dist::LocalView;
use crate::factors::{Arena, FactorStore};
use pilut_par::Payload;

/// One rank's share of the distributed factorization. `L` has an implicit
/// unit diagonal; a row's `diag` is its `U` pivot; `l` couples to rows
/// factored earlier, `u` to rows factored later.
#[derive(Clone, Debug)]
pub struct RankFactors {
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

/// An interface row while the level loop is still changing it: global
/// column ids, exact-size vectors.
#[derive(Default)]
pub(crate) struct Staged {
    pub(crate) l: Vec<(usize, f64)>,
    pub(crate) diag: f64,
    pub(crate) u: Vec<(usize, f64)>,
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

    /// Appends the next interior row (all of its columns are local).
    pub(crate) fn push_interior(&mut self, l: &[(usize, f64)], diag: f64, u: &[(usize, f64)]) {
        let local = self.local;
        // lint: allow(unwrap): interior rows couple only to this rank's nodes
        let pos = |j| local.pos_of(j).expect("interior column must be local");
        self.store.push_row(l, diag, u, pos);
    }

    /// Pivot and strict-`U` entries `(global column, value)` of the
    /// already-factored interior `k`.
    #[inline]
    pub(crate) fn interior_pivot(
        &self,
        k: usize,
    ) -> (f64, impl ExactSizeIterator<Item = (usize, f64)> + '_) {
        // lint: allow(unwrap): pivots are this rank's already-factored interiors
        let p = self.local.pos_of(k).expect("pivot must be local");
        let nodes = &self.local.nodes;
        let urow = self.store.u.entries(p).map(move |(s, v)| (nodes[s], v));
        (self.store.diag[p], urow)
    }

    /// Interface position of my interface node `v`.
    pub(crate) fn interface_index(&self, v: usize) -> usize {
        // lint: allow(unwrap): callers pass this rank's interface nodes only
        self.local.pos_of(v).expect("interface node must be local") - self.local.interior.len()
    }

    /// The staged row of my interface node `v`.
    pub(crate) fn staged(&self, v: usize) -> &Staged {
        &self.staged[self.interface_index(v)]
    }

    /// Pivot and strict-`U` entries of node `k`, factored in the current
    /// level: staged when it is mine, else among the rows its owner shipped.
    pub(crate) fn level_pivot<'r>(
        &'r self,
        k: usize,
        shipped: &'r RemoteURows,
    ) -> (f64, &'r [(usize, f64)]) {
        if self.local.owns(k) {
            let row = self.staged(k);
            return (row.diag, &row.u);
        }
        // lint: allow(unwrap): owners ship a level's rows before anyone eliminates against them
        shipped.get(k).expect("missing U row for level pivot")
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
            bu.extend(row.u.iter().map(|&(c, _)| c as u64));
            bf.push(row.diag);
            bf.extend(row.u.iter().map(|&(_, x)| x));
            tally.urows_rows += 1;
        }
        let batch = Payload::mixed(bu, bf);
        tally.urows_bytes += batch.bytes();
        batch
    }

    /// Appends the staged interface rows in local-view order and seals the
    /// store; the fill and level counters of `stats` are read off it.
    pub(crate) fn finish(
        mut self,
        levels: Vec<Vec<usize>>,
        initial_reduced_cols: Vec<(usize, Vec<usize>)>,
        mut stats: ParStats,
    ) -> RankFactors {
        let local = self.local;
        let staged = std::mem::take(&mut self.staged);
        let columns = staged.iter().flat_map(|r| r.l.iter().chain(&r.u));
        let mut ghosts: Vec<usize> = columns
            .map(|&(j, _)| j)
            .filter(|&j| !local.owns(j))
            .collect();
        ghosts.sort_unstable();
        ghosts.dedup();
        ghosts.shrink_to_fit();
        let slot_of = |j| {
            local.pos_of(j).unwrap_or_else(|| {
                // lint: allow(unwrap): every remote column was collected into `ghosts` above
                local.len() + ghosts.binary_search(&j).expect("unlisted ghost")
            })
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
            initial_reduced_cols,
            stats,
        }
    }
}

/// The `U` rows of one level's remote members, as shipped by their owners:
/// one flat buffer reused across levels, looked up through a dense
/// global-id index.
pub(crate) struct RemoteURows {
    /// `at[g]` = index of node `g` in this level's batch (`usize::MAX`
    /// when absent).
    at: Vec<usize>,
    nodes: Vec<usize>,
    ptr: Vec<usize>,
    diag: Vec<f64>,
    entries: Vec<(usize, f64)>,
}

impl RemoteURows {
    pub(crate) fn new(n: usize) -> Self {
        RemoteURows {
            at: vec![usize::MAX; n],
            nodes: Vec::new(),
            ptr: vec![0],
            diag: Vec::new(),
            entries: Vec::new(),
        }
    }

    /// Forgets the previous level's batch.
    pub(crate) fn clear(&mut self) {
        for &g in &self.nodes {
            self.at[g] = usize::MAX;
        }
        self.nodes.clear();
        self.ptr.truncate(1);
        self.diag.clear();
        self.entries.clear();
    }

    /// Appends one peer's batch (the inverse of [`FactorBuilder::encode_urows`]).
    pub(crate) fn decode(&mut self, payload: Payload) {
        let (bu, bf) = payload.into_mixed();
        let (mut iu, mut ifl) = (0usize, 0usize);
        while iu < bu.len() {
            let (node, len) = (bu[iu] as usize, bu[iu + 1] as usize);
            self.at[node] = self.nodes.len();
            self.nodes.push(node);
            self.diag.push(bf[ifl]);
            let cols = bu[iu + 2..iu + 2 + len].iter().map(|&c| c as usize);
            let vals = bf[ifl + 1..ifl + 1 + len].iter().copied();
            self.entries.extend(cols.zip(vals));
            self.ptr.push(self.entries.len());
            iu += 2 + len;
            ifl += 1 + len;
        }
    }

    /// Pivot and strict-`U` entries of remote node `g`, if in this batch.
    pub(crate) fn get(&self, g: usize) -> Option<(f64, &[(usize, f64)])> {
        let i = self.at[g];
        (i != usize::MAX).then(|| (self.diag[i], &self.entries[self.ptr[i]..self.ptr[i + 1]]))
    }
}
